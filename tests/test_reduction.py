"""Tests for the box reduction: transform, offset, lift, channel slot."""

from dataclasses import astuple, replace

import numpy as np
import pytest

import gbc.reduction
from gbc import (
    Algorithm,
    CommonInstance,
    PrivateInstance,
    SolveOptions,
    box_transform,
    logdet,
    random_instance,
    rates_private,
    reduce,
    solve_common,
    solve_private,
    trace_region_private,
    transform,
)
from gbc.common import _weights, objective_common
from gbc.errors import (
    DegenerateInstanceError,
    InvalidInputError,
    InvalidInstanceError,
)
from gbc.private import FixedPoint, gba_a_step
from gbc.psd import symmetrize
from gbc.reduction import box_offset, build_box, check_matrices, lift, schur_head


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
    "fixed_point_kv": lambda A: FixedPoint(A, np.stack((_I2, _I2)), (1.0, -1.0)).step(),
    "fixed_point_ku": lambda A: FixedPoint(A, np.stack((_I2,) * 4), _weights(_COMMON)[1]).step(),
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["K", "Sigma1", "Sigma2"])
def test_check_matrices_rejects_non_finite_entries(name, bad):
    mats = {"K": np.eye(2), "Sigma1": np.eye(2), "Sigma2": 2.0 * np.eye(2)}
    mats[name][0, 0] = bad
    with pytest.raises(InvalidInstanceError, match=f"{name} has non-finite"):
        check_matrices("K", mats["K"], mats["Sigma1"], mats["Sigma2"])


def test_empty_instances_are_invalid():
    E = np.zeros((0, 0))
    priv = PrivateInstance(K=E, Sigma1=E, Sigma2=E, lam=2.0)
    with pytest.raises(InvalidInstanceError, match="empty"):
        solve_private(priv)
    with pytest.raises(InvalidInstanceError, match="K_C is empty"):
        solve_common(CommonInstance(K_C=E, Sigma1=E, Sigma2=E, lambda0=1.2,
                                    lambda1=1.0, lambda2=1.1, alpha=0.5))
    points = trace_region_private(priv, [1.5, 3.0])
    assert len(points) == 2
    for pt in points:
        assert np.isnan(pt.R1) and np.isnan(pt.R2)
        assert "K is empty" in pt.error


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


def _block_objective(w, box, B):
    return sum(wi * logdet(B + Hi) for wi, Hi in zip(w, box.H)) + box_offset(box, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("rank", [None, 1])
def test_box_offset_lifts_both_common_blocks(n, rank):
    # a block's reduced objective plus the box offset is its terms of
    # objective_common at the lifted point, for full and deficient budgets
    rng = np.random.default_rng(10 * n + (rank or 0))
    deficient = 0
    for seed in range(3):
        inst = random_instance(n, seed, "common", rank=rank)
        w_v, w_u = _weights(inst)
        S1, S2 = inst.Sigma1, inst.Sigma2
        bt = box_transform(inst.K_C)
        for pinned in (0, 1):
            # eigenvalues of the K_U point pinned at 1 leave the K_V budget
            # K_C - K_U rank-deficient
            A = _random_box_point(rng, bt.rank)
            if pinned and bt.rank > 1:
                q, Q = np.linalg.eigh(A)
                q[-1] = 1.0
                A = symmetrize((Q * q) @ Q.T)
            K_U = lift(bt, A)
            box = build_box(inst.K_C - K_U, (K_U + S2, K_U + S1))
            deficient += box.rank < n
            B = _random_box_point(rng, box.rank)
            K_V = lift(box.transform, B)
            fixed = w_u[2] * logdet(K_U + S1) + w_u[3] * logdet(K_U + S2)
            want = objective_common(K_U, K_V, inst) - fixed
            assert _block_objective(w_v, box, B) == pytest.approx(want, rel=1e-10)
            box = build_box(inst.K_C - K_V, (K_V + S2, K_V + S1, S1, S2))
            B = _random_box_point(rng, box.rank)
            want = objective_common(lift(box.transform, B), K_V, inst)
            assert _block_objective(w_u, box, B) == pytest.approx(want, rel=1e-10)
    assert deficient or n == 1


@pytest.mark.parametrize("n,rank", [(1, None), (3, None), (4, 2), (5, 3), (6, None)])
def test_private_offset_is_the_reduction_formula(n, rank):
    # bit for bit the offset reduce() computed before boxes had weights:
    # logdet of the noise tails, weighted (1, -lam), less (lam - 1) log|K_r|
    for seed in range(4):
        inst = random_instance(n, seed, rank=rank)
        bt = box_transform(inst.K)
        r = bt.rank
        St1, St2 = transform(bt, inst.Sigma1), transform(bt, inst.Sigma2)
        lam = inst.lam
        want = logdet(St1[r:, r:]) - lam * logdet(St2[r:, r:])
        want -= (lam - 1.0) * float(np.sum(np.log(bt.eigvals[:r])))
        box = build_box(inst.K, (inst.Sigma1, inst.Sigma2))
        assert box_offset(box, (1.0, -lam)) == want
        assert reduce(inst).offset == want


# ---- the channel slot: lam-free work once per (K, Sigma1, Sigma2) ----

_LAMS = tuple(float(v) for v in np.geomspace(1.25, 8.0, 8))


def _evict():
    """Replace the slot's entry by solving an unrelated instance."""
    solve_private(random_instance(2, 991), SolveOptions(max_iters=2))


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(gbc.reduction, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(gbc.reduction, name, counted)
    return calls


def test_slot_checks_and_reduces_once_per_channel(monkeypatch):
    a, b = random_instance(3, 4), random_instance(4, 5, rank=2)
    _evict()
    calls = _count_calls(monkeypatch, "check_matrices", "box_transform")
    trace_region_private(a, _LAMS)
    assert calls == {"check_matrices": 1, "box_transform": 1}
    trace_region_private(b, _LAMS)
    trace_region_private(a, _LAMS)
    assert calls == {"check_matrices": 3, "box_transform": 3}


def _solve_and_rate(inst):
    rep = solve_private(inst, SolveOptions(max_iters=20))
    return rep, rates_private(rep.final_KU, inst)


def _same_solve(got, want):
    (rep, pt), (ref, ref_pt) = got, want
    for name in ("final_AU", "final_KU", "objective_trace"):
        assert np.array_equal(getattr(rep, name), getattr(ref, name)), name
    assert (rep.iterations, rep.kkt_residual, rep.warnings, rep.iterate_eig_min,
            rep.iterate_eig_max) == (ref.iterations, ref.kkt_residual, ref.warnings,
                                     ref.iterate_eig_min, ref.iterate_eig_max)
    assert astuple(pt) == astuple(ref_pt)


@pytest.mark.parametrize("field", ["K", "Sigma1", "Sigma2"])
def test_slot_misses_a_matrix_changed_in_place(field):
    inst = random_instance(3, 6, rank=2)
    _solve_and_rate(inst)
    M = getattr(inst, field)
    M *= 0.5 if field == "K" else 2.0  # stays PSD or PD, and a new channel
    got = _solve_and_rate(inst)
    _evict()
    fresh = PrivateInstance(K=inst.K.copy(), Sigma1=inst.Sigma1.copy(),
                            Sigma2=inst.Sigma2.copy(), lam=inst.lam)
    _same_solve(got, _solve_and_rate(fresh))


def test_slot_keeps_no_failed_check():
    S = np.eye(2)
    inst = PrivateInstance(K=np.diag([1.0, -0.5]), Sigma1=S, Sigma2=2.0 * S,
                           lam=2.0)
    # reduce does not validate; the box it caches must not pass the check
    assert reduce(inst).rank == 1
    bad_noise = replace(inst, K=S, Sigma1=np.zeros((2, 2)))
    for bad, match in ((inst, "semidefinite"), (bad_noise, "Sigma1")):
        for _ in range(2):
            with pytest.raises(InvalidInstanceError, match=match):
                bad.validate()


def test_slot_skips_matrices_that_are_not_numeric():
    inst = random_instance(2, 3)
    inst.validate()
    entry = dict(gbc.reduction._slot)
    for _ in range(2):
        with pytest.raises(InvalidInstanceError):
            replace(inst, K="x").validate()
    assert gbc.reduction._slot == entry


def test_slot_reports_a_zero_constraint_every_time():
    S = np.eye(2)
    inst = PrivateInstance(K=np.zeros((2, 2)), Sigma1=S, Sigma2=2.0 * S, lam=2.0)
    for _ in range(2):
        rep = solve_private(inst)
        assert rep.iterations == 0 and rep.converged
        assert rep.final_AU.shape == (0, 0)
        assert "constraint matrix is zero" in rep.warnings[0]
        with pytest.raises(DegenerateInstanceError):
            reduce(inst)


def test_slot_holds_no_box_for_a_zero_constraint():
    S = np.eye(2)
    inst = PrivateInstance(K=np.zeros((2, 2)), Sigma1=S, Sigma2=2.0 * S, lam=2.0)
    solve_private(inst)
    assert "checked" in gbc.reduction._slot and "box" not in gbc.reduction._slot
    messages = []
    for _ in range(2):
        with pytest.raises(DegenerateInstanceError) as e:
            reduce(inst)
        messages.append(str(e.value))
    assert messages == ["constraint matrix is numerically zero"] * 2
    assert "box" not in gbc.reduction._slot


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_tiny_budget_is_zero_to_both_solvers(n):
    # one rule, gbc.reduction.zero_floor: 1e-12 I is zero, 1e-7 I is not
    p = random_instance(n, 0)
    c = random_instance(n, 0, "common")
    for scale, zero in ((1e-12, True), (1e-7, False)):
        K = scale * np.eye(n)
        for algo in Algorithm:
            rep = solve_private(replace(p, K=K), SolveOptions(algorithm=algo))
            assert ("constraint matrix is zero" in " ".join(rep.warnings)) == zero
            assert rep.final_AU.shape == ((0, 0) if zero else (n, n))
        if zero:
            with pytest.raises(DegenerateInstanceError):
                reduce(replace(p, K=K))
        for algo in (Algorithm.SPG, Algorithm.GBA_P):
            rep = solve_common(replace(c, K_C=K), SolveOptions(algorithm=algo))
            assert ("constraint matrix is zero" in " ".join(rep.warnings)) == zero
            assert (rep.inner_iterations == ((), ())) == zero


def test_slot_arrays_are_read_only():
    red = reduce(random_instance(3, 7))
    bt = red.transform
    for M in (red.H, bt.eigvals, bt.Ktilde, bt.lift_matrix):
        with pytest.raises(ValueError, match="read-only"):
            M.flat[0] = 1.0
    # the next reduction of the same channel hands out the same values
    assert np.array_equal(reduce(random_instance(3, 7)).H, red.H)


def test_slot_sweep_equals_solves_with_the_slot_evicted():
    base = random_instance(4, 8, rank=2)
    opts = SolveOptions(max_iters=30)
    points = trace_region_private(base, _LAMS, opts)
    init = None
    for lam, pt in zip(_LAMS, points):
        _evict()
        inst = replace(base, lam=lam)
        rep = solve_private(inst, replace(opts, init=init))
        init = rep.final_AU
        _evict()
        ref = rates_private(rep.final_KU, inst)
        note = None if rep.converged else "did not converge within 30 iterations"
        assert astuple(pt) == astuple(replace(ref, objective=rep.objective,
                                              iterations=rep.iterations,
                                              error=note))
