"""Tests for the brute-force oracles and the instance generator."""

import numpy as np
import pytest

from gbc import (
    Algorithm,
    CommonInstance,
    GridSpec,
    PrivateInstance,
    SolveOptions,
    fd_gradient,
    grid_search_common_scalar,
    grid_search_private_2x2,
    random_instance,
    solve_private,
)
from gbc.errors import InvalidInputError, UnsupportedDimensionError


def _case(idx):
    K = np.array([[2.0, 2.0], [2.0, 4.0]])
    S1 = np.eye(2)
    if idx == 1:
        S2 = np.array([[3.0, 1.0], [1.0, 4.0]])
    elif idx == 2:
        S2 = np.array([[3.0, 2.0], [2.0, 4.0]])
    elif idx == 3:
        S2 = np.array([[5.0, 2.0], [2.0, 4.0]])
    else:
        K = np.array([[1.0, 1.0], [1.0, 4.0]])
        S2 = np.array([[3.0, 2.0], [2.0, 4.0]])
    return PrivateInstance(K=K, Sigma1=S1, Sigma2=S2, lam=2.0)


def test_grid_case2_regression():
    res = grid_search_private_2x2(_case(2), GridSpec(resolution=400))
    assert res.best_objective == pytest.approx(-3.6310862668555104, rel=1e-12)
    want = np.array([[1.3520, 1.7305], [1.7305, 2.2150]])
    assert np.max(np.abs(res.best_KU - want)) < 5e-3


def test_grid_case3_case4_objective_regression():
    res3 = grid_search_private_2x2(_case(3), GridSpec(resolution=400))
    assert res3.best_objective == pytest.approx(-4.878289534030328, rel=1e-12)
    res4 = grid_search_private_2x2(_case(4), GridSpec(resolution=400))
    assert res4.best_objective == pytest.approx(-3.64261872866125, rel=1e-12)


def test_grid_best_point_is_feasible():
    inst = _case(2)
    res = grid_search_private_2x2(inst, GridSpec(resolution=150))
    w = np.linalg.eigvalsh(res.best_KU)
    assert w[0] >= -1e-9
    w2 = np.linalg.eigvalsh(inst.K - res.best_KU)
    assert w2[0] >= -1e-9


def test_solver_beats_grid_within_bound():
    # interior cases converge quickly at a tight tolerance; the iterate
    # then certifies the grid value from above up to roundoff
    for idx in (1, 3):
        inst = _case(idx)
        rep = solve_private(inst, SolveOptions(algorithm=Algorithm.GBA_P,
                                               max_iters=300000,
                                               rel_tol=1e-10))
        res = grid_search_private_2x2(inst, GridSpec(resolution=400))
        assert rep.converged
        assert rep.objective_trace[-1] >= res.best_objective - 1e-6


def test_equal_noises_pin_zero():
    S = np.array([[3.0, 1.0], [1.0, 4.0]])
    inst = PrivateInstance(K=np.array([[2.0, 2.0], [2.0, 4.0]]),
                           Sigma1=S, Sigma2=S, lam=2.0)
    res = grid_search_private_2x2(inst, GridSpec(resolution=80))
    assert np.all(res.best_KU == 0.0)
    assert res.best_objective == pytest.approx(-np.log(11.0), rel=1e-12)


def test_resolution_bound_scales_linearly():
    inst = _case(2)
    lo = grid_search_private_2x2(inst, GridSpec(resolution=201))
    hi = grid_search_private_2x2(inst, GridSpec(resolution=401))
    assert lo.resolution_bound / hi.resolution_bound == pytest.approx(2.0,
                                                                      rel=1e-12)
    assert hi.best_objective >= lo.best_objective - 1e-12


def test_coarse_grid_runs_with_wide_bound():
    res = grid_search_private_2x2(_case(1), GridSpec(resolution=2))
    assert np.isfinite(res.best_objective)
    assert res.resolution_bound > 1.0


def test_dimension_guards():
    inst3 = random_instance(3, 0)
    with pytest.raises(UnsupportedDimensionError):
        grid_search_private_2x2(inst3, GridSpec(resolution=10))
    ci = random_instance(2, 0, "common")
    with pytest.raises(UnsupportedDimensionError):
        grid_search_common_scalar(ci, GridSpec(resolution=10))


def test_gridspec_validation():
    with pytest.raises(InvalidInputError):
        GridSpec(resolution=1)


def test_common_scalar_grid_fixture():
    # K_C=2, Sigma1=1, Sigma2=2 under Table II weights peaks at exactly
    # (1, 0) with value 0.4 ln 2 - 0.6 ln 3
    inst = CommonInstance(K_C=np.array([[2.0]]), Sigma1=np.array([[1.0]]),
                          Sigma2=np.array([[2.0]]), lambda0=1.2, lambda1=1.0,
                          lambda2=1.1, alpha=0.5)
    res = grid_search_common_scalar(inst, GridSpec(resolution=2000))
    want = 0.4 * np.log(2.0) - 0.6 * np.log(3.0)
    assert res.best_objective == pytest.approx(want, abs=1e-6)
    assert res.best_KU[0, 0] == pytest.approx(1.0, abs=1.1e-3)
    assert res.best_KV[0, 0] == 0.0
    assert res.best_objective <= want + 1e-12


def test_fd_gradient_linear_and_logdet():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    A = (A + A.T) / 2.0
    X = np.eye(3) + 0.2 * A @ A.T

    grad_lin = fd_gradient(lambda M: float(np.sum(A * M)), X)
    assert np.max(np.abs(grad_lin - A)) < 1e-9

    grad_ld = fd_gradient(lambda M: float(np.linalg.slogdet(M)[1]), X)
    assert np.max(np.abs(grad_ld - np.linalg.inv(X))) < 1e-8


def test_random_instance_deterministic():
    a = random_instance(4, 9)
    b = random_instance(4, 9)
    assert np.array_equal(a.K, b.K)
    assert np.array_equal(a.Sigma1, b.Sigma1)
    assert np.array_equal(a.Sigma2, b.Sigma2)
    assert a.lam == b.lam
    assert 1.1 <= a.lam <= 5.0
    assert np.trace(a.K) == pytest.approx(4.0, rel=1e-12)


def test_random_instance_lam_does_not_shift_matrices():
    free = random_instance(3, 2)
    pinned = random_instance(3, 2, lam=2.0)
    assert np.array_equal(free.K, pinned.K)
    assert np.array_equal(free.Sigma2, pinned.Sigma2)
    assert pinned.lam == 2.0


def test_random_instance_rank_deficient():
    inst = random_instance(4, 1, rank=2)
    w = np.linalg.eigvalsh(inst.K)
    assert np.sum(w > 1e-9) == 2
    assert w[0] >= -1e-10
    assert np.trace(inst.K) == pytest.approx(4.0, rel=1e-12)


def test_random_instance_common_kind():
    inst = random_instance(2, 0, "common")
    assert isinstance(inst, CommonInstance)
    assert (inst.lambda0, inst.lambda1, inst.lambda2) == (1.2, 1.0, 1.1)
    assert inst.alpha == 0.5
    inst.validate()


def test_random_instance_rejects_bad_kind():
    with pytest.raises(InvalidInputError):
        random_instance(2, 0, "mixed")
