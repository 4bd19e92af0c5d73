"""Tests for the box reduction: transform, offset, lift."""

import numpy as np
import pytest

from gbc import (
    CommonInstance,
    PrivateInstance,
    box_transform,
    logdet,
    random_instance,
    reduce,
    transform,
)
from gbc.common import (
    _weights,
    ku_pass,
    ku_subproblem_step,
    kv_pass,
    kv_subproblem_step,
)
from gbc.errors import (
    DegenerateInstanceError,
    InvalidInputError,
    InvalidInstanceError,
)
from gbc.private import gba_a_step
from gbc.psd import symmetrize
from gbc.reduction import lift, schur_head


def _objective_original(K_U, inst):
    return (logdet(K_U + inst.Sigma1)
            - inst.lam * logdet(K_U + inst.Sigma2))


def _objective_reduced_raw(A_U, red):
    return (logdet(A_U + red.SigmaHat1)
            - red.lam * logdet(A_U + red.SigmaHat2))


def _random_box_point(rng, r):
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return symmetrize(Q @ np.diag(rng.uniform(0.05, 0.95, r)) @ Q.T)


def test_validate_rejects_bad_instances():
    K = np.eye(2)
    S = np.eye(2)
    with pytest.raises(InvalidInstanceError):
        PrivateInstance(K=K, Sigma1=S, Sigma2=S, lam=1.0).validate()
    with pytest.raises(InvalidInstanceError):
        PrivateInstance(K=K, Sigma1=S, Sigma2=S, lam=0.5).validate()
    with pytest.raises(InvalidInstanceError):
        PrivateInstance(K=np.diag([1.0, -0.5]), Sigma1=S, Sigma2=S,
                        lam=2.0).validate()
    with pytest.raises(InvalidInstanceError):
        PrivateInstance(K=K, Sigma1=np.diag([1.0, 0.0]), Sigma2=S,
                        lam=2.0).validate()
    with pytest.raises(InvalidInstanceError):
        PrivateInstance(K=K, Sigma1=np.eye(3), Sigma2=S, lam=2.0).validate()
    with pytest.raises(InvalidInstanceError):
        PrivateInstance(K=np.array([[1.0, 0.5], [0.0, 1.0]]), Sigma1=S,
                        Sigma2=S, lam=2.0).validate()


def test_box_transform_round_trip_full_rank():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((4, 4))
    K = symmetrize(G @ G.T + 0.1 * np.eye(4))
    bt = box_transform(K)
    assert bt.rank == 4
    # K itself maps to the identity
    assert np.allclose(transform(bt, K), np.eye(4), atol=1e-10)
    # lifting the identity recovers K
    assert np.allclose(lift(bt, np.eye(4)), K, atol=1e-10)
    # lifting zero gives zero
    assert np.allclose(lift(bt, np.zeros((4, 4))), 0.0, atol=1e-14)


def test_box_transform_rank_deficient():
    inst = random_instance(5, 11, rank=2, lam=2.0)
    bt = box_transform(inst.K)
    assert bt.rank == 2
    assert bt.lift_matrix.shape == (5, 2)
    K_U = lift(bt, np.eye(2))
    assert np.allclose(K_U, inst.K, atol=1e-10)


def test_box_transform_zero_constraint_raises():
    with pytest.raises(DegenerateInstanceError):
        box_transform(np.zeros((3, 3)))


def test_schur_head_full_rank_is_identity_map():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(schur_head(M, 2), M)
    # 1x1 head of a 2x2: a - b^2/c
    assert schur_head(M, 1)[0, 0] == pytest.approx(2.0 - 1.0 / 3.0)


def test_reduce_offset_makes_objectives_agree():
    rng = np.random.default_rng(5)
    for seed in range(5):
        inst = random_instance(4, 100 + seed, lam=2.5)
        red = reduce(inst)
        assert red.rank == 4
        for _ in range(3):
            A_U = _random_box_point(rng, red.rank)
            K_U = lift(red.transform, A_U)
            got = _objective_reduced_raw(A_U, red) + red.offset
            want = _objective_original(K_U, inst)
            assert got == pytest.approx(want, abs=1e-8)


def test_reduce_offset_rank_deficient():
    rng = np.random.default_rng(6)
    for seed in range(5):
        inst = random_instance(4, 200 + seed, rank=2, lam=3.0)
        red = reduce(inst)
        assert red.rank == 2
        for _ in range(3):
            A_U = _random_box_point(rng, 2)
            K_U = lift(red.transform, A_U)
            got = _objective_reduced_raw(A_U, red) + red.offset
            want = _objective_original(K_U, inst)
            assert got == pytest.approx(want, abs=1e-8)


def test_reduce_identity_constraint_identity_noise():
    inst = PrivateInstance(K=np.eye(3), Sigma1=np.eye(3),
                           Sigma2=2.0 * np.eye(3), lam=2.0)
    red = reduce(inst)
    assert np.allclose(red.SigmaHat1, np.eye(3), atol=1e-12)
    assert np.allclose(red.SigmaHat2, 2.0 * np.eye(3), atol=1e-12)
    assert red.offset == pytest.approx(0.0, abs=1e-12)


def test_reduce_warns_on_huge_eigenvalue_spread():
    # strictly positive spectrum with spread above 1e12: warn, keep going
    K = np.diag([1.0, 1e-13])
    inst = PrivateInstance(K=K * (2.0 / np.trace(K)), Sigma1=np.eye(2),
                           Sigma2=3.0 * np.eye(2), lam=2.0)
    red = reduce(inst)
    assert any("spread" in w for w in red.warnings)
    # an exactly singular constraint reduces cleanly with no warning
    inst0 = random_instance(4, 99, rank=2, lam=2.0)
    red0 = reduce(inst0)
    assert red0.rank == 2
    assert not any("spread" in w for w in red0.warnings)


def test_lift_rejects_out_of_box():
    bt = box_transform(np.eye(2))
    with pytest.raises(InvalidInputError):
        lift(bt, 1.5 * np.eye(2))
    with pytest.raises(InvalidInputError):
        lift(bt, -0.5 * np.eye(2))
    with pytest.raises(InvalidInputError):
        lift(bt, np.eye(3))


_I2 = np.eye(2)
_PRIVATE = PrivateInstance(K=_I2, Sigma1=_I2, Sigma2=2.0 * _I2, lam=2.0)
_COMMON = CommonInstance(K_C=_I2, Sigma1=_I2, Sigma2=2.0 * _I2, lambda0=1.2,
                         lambda1=1.0, lambda2=1.1, alpha=0.5)
_BOX_CHECKED = {
    "lift": lambda A: lift(reduce(_PRIVATE).transform, A),
    "gba_a_step": lambda A: gba_a_step(A, reduce(_PRIVATE), 2.0),
    "kv_subproblem_step": lambda A: kv_subproblem_step(
        A, kv_pass(np.stack((_I2, _I2)), (1.0, -1.0))),
    "ku_subproblem_step": lambda A: ku_subproblem_step(
        A, ku_pass(np.stack((_I2,) * 4), _weights(_COMMON)[1], np.zeros((2, 2)))),
}


@pytest.mark.parametrize("entry", sorted(_BOX_CHECKED))
@pytest.mark.parametrize("bad", [3.0 * _I2, 0.5 * np.eye(3),
                                 np.array([[np.nan, 0.0], [0.0, 0.5]]),
                                 np.array([[0.5, np.inf], [np.inf, 0.5]])],
                         ids=["outside-box", "wrong-shape", "nan", "inf"])
def test_box_checked_entry_points_reject_bad_iterates(entry, bad):
    step = _BOX_CHECKED[entry]
    assert step(0.5 * _I2).shape == (2, 2)
    with pytest.raises(InvalidInputError):
        step(bad)


@pytest.mark.parametrize("K", [2.0, np.ones(1), np.ones((1, 1, 1))],
                         ids=["scalar", "vector", "3-d"])
@pytest.mark.parametrize("make", [
    lambda K: PrivateInstance(K=K, Sigma1=np.eye(1), Sigma2=np.eye(1), lam=2.0),
    lambda K: CommonInstance(K_C=K, Sigma1=np.eye(1), Sigma2=np.eye(1),
                             lambda0=1.2, lambda1=1.0, lambda2=1.1, alpha=0.5),
], ids=["private", "common"])
def test_validate_rejects_constraint_that_is_not_a_matrix(make, K):
    with pytest.raises(InvalidInstanceError):
        make(K).validate()


def test_lift_feasibility_mapping():
    # every box point lifts into the feasible set 0 <= K_U <= K
    rng = np.random.default_rng(7)
    inst = random_instance(4, 42, lam=2.0)
    red = reduce(inst)
    from gbc import loewner_leq
    for _ in range(10):
        K_U = lift(red.transform, _random_box_point(rng, red.rank))
        assert loewner_leq(np.zeros((4, 4)), K_U)
        assert loewner_leq(K_U, inst.K)
