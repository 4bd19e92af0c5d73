"""Tests for the private-plus-common alternating solver."""

import numpy as np
import pytest

from gbc import (
    Algorithm,
    CommonInstance,
    GridSpec,
    SolveOptions,
    grid_search_common_scalar,
    loewner_leq,
    objective_common,
    random_instance,
    reduce,
    solve_common,
)
from gbc.common import (
    _weights,
    ku_pass,
    ku_subproblem_step,
    kv_pass,
    kv_subproblem_step,
)
from gbc.errors import InvalidInputError, InvalidInstanceError
from gbc.private import _Gba, _p_step


def _table2_weights():
    return dict(lambda0=1.2, lambda1=1.0, lambda2=1.1, alpha=0.5)


def _scalar(K_C, S1, S2, **weights):
    w = _table2_weights()
    w.update(weights)
    return CommonInstance(
        K_C=np.array([[float(K_C)]]),
        Sigma1=np.array([[float(S1)]]),
        Sigma2=np.array([[float(S2)]]),
        **w,
    )


def test_validate_rejects_bad_weights():
    good = _scalar(2.0, 1.0, 2.0)
    good.validate()
    with pytest.raises(InvalidInstanceError):
        _scalar(2.0, 1.0, 2.0, lambda0=1.05).validate()  # lambda0 <= lambda2
    with pytest.raises(InvalidInstanceError):
        _scalar(2.0, 1.0, 2.0, lambda2=0.9).validate()  # lambda2 <= lambda1
    with pytest.raises(InvalidInstanceError):
        _scalar(2.0, 1.0, 2.0, lambda1=-1.0, lambda2=-0.5).validate()
    with pytest.raises(InvalidInstanceError):
        _scalar(2.0, 1.0, 2.0, alpha=1.5).validate()
    with pytest.raises(InvalidInstanceError):
        _scalar(2.0, 1.0, 2.0, alpha=-0.1).validate()
    # lambda2 - lambda0*(1 - alpha) <= 0
    with pytest.raises(InvalidInstanceError):
        _scalar(2.0, 1.0, 2.0, alpha=0.0).validate()
    with pytest.raises(InvalidInstanceError):
        _scalar(2.0, 1.0, 2.0, lambda0=float("nan")).validate()


def test_validate_rejects_bad_matrices():
    with pytest.raises(InvalidInstanceError):
        CommonInstance(K_C=np.eye(2), Sigma1=np.eye(3), Sigma2=np.eye(2),
                       **_table2_weights()).validate()
    with pytest.raises(InvalidInstanceError):
        CommonInstance(K_C=np.array([[1.0, 0.5], [0.0, 1.0]]), Sigma1=np.eye(2),
                       Sigma2=np.eye(2), **_table2_weights()).validate()
    with pytest.raises(InvalidInstanceError):
        CommonInstance(K_C=-np.eye(2), Sigma1=np.eye(2), Sigma2=np.eye(2),
                       **_table2_weights()).validate()
    with pytest.raises(InvalidInstanceError):
        CommonInstance(K_C=np.eye(2), Sigma1=np.zeros((2, 2)), Sigma2=np.eye(2),
                       **_table2_weights()).validate()


def test_objective_zero_point_identity_noises():
    inst = CommonInstance(K_C=np.eye(2), Sigma1=np.eye(2), Sigma2=np.eye(2),
                          **_table2_weights())
    z = np.zeros((2, 2))
    assert objective_common(z, z, inst) == pytest.approx(0.0, abs=1e-14)


def test_objective_scalar_hand_value():
    inst = _scalar(4.0, 1.0, 2.0)
    got = objective_common(np.array([[1.0]]), np.array([[1.0]]), inst)
    want = (1.1 - 0.6) * np.log(4.0) - 0.6 * np.log(3.0) \
        + np.log(2.0) - 1.1 * np.log(3.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_kv_step_scalar_hand_value():
    got = kv_subproblem_step(np.array([[0.5]]),
                             kv_pass(np.ones((2, 1, 1)), (1.0, -2.0)))
    assert got[0, 0] == pytest.approx(0.375, rel=1e-14)


def test_kv_step_rejects_bad_ratio_and_box():
    H = np.ones((2, 1, 1))
    # ratios -1, 0, NaN, and a zero first weight
    for w in ((1.0, 1.0), (1.0, 0.0), (1.0, float("nan")), (0.0, -1.0)):
        with pytest.raises(InvalidInputError):
            kv_pass(H, w)
    with pytest.raises(InvalidInputError):
        kv_subproblem_step(3.0 * np.eye(2),
                           kv_pass(np.stack((np.eye(2),) * 2), (1.0, -1.0)))


def test_ku_step_scalar_hand_value():
    inst = _scalar(2.0, 1.0, 2.0)
    one = np.array([[1.0]])
    got = ku_subproblem_step(0.5 * one, ku_pass(np.stack((one,) * 4), _weights(inst)[1],
                                                0.25 * one))
    # T1 = 4/3, coupling = 1.1*0.25/2.25 = 11/90, barrier = 1.2/1.5 = 4/5
    assert got[0, 0] == pytest.approx(90.0 / 203.0, rel=1e-12)


def test_ku_step_matches_kv_shape_when_uncoupled():
    # alpha = 1 and B_V' = 0 reduce the K_U update to the K_V update with
    # noise pair (SigmaHat1, MHat2) and ratio lambda0/lambda1
    rng = np.random.default_rng(3)
    inst = CommonInstance(K_C=np.eye(3), Sigma1=np.eye(3), Sigma2=np.eye(3),
                          lambda0=1.2, lambda1=1.0, lambda2=1.1, alpha=1.0)
    for _ in range(5):
        G = rng.standard_normal((3, 3))
        S1h = G @ G.T + 0.5 * np.eye(3)
        G = rng.standard_normal((3, 3))
        S2h = G @ G.T + 0.5 * np.eye(3)
        G = rng.standard_normal((3, 3))
        M1h = G @ G.T + 0.5 * np.eye(3)
        G = rng.standard_normal((3, 3))
        M2h = G @ G.T + 0.5 * np.eye(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = (Q * rng.uniform(0.05, 0.95, 3)) @ Q.T
        got = ku_subproblem_step(
            A, ku_pass(np.stack((M1h, M2h, S1h, S2h)), _weights(inst)[1],
                       np.zeros((3, 3))))
        want = kv_subproblem_step(A, kv_pass(np.stack((S1h, M2h)), (1.0, -1.2)))
        assert np.linalg.norm(got - want) < 1e-12


@pytest.mark.parametrize("n,rank", [(1, None), (2, None), (3, None), (5, None),
                                    (4, 2), (5, 3)])
def test_kv_step_is_the_gba_p_step(n, rank):
    # on the private problem's stack and weights, a K_V pass takes the
    # step solve_private's GBA-P pass takes
    rng = np.random.default_rng(n)
    for seed in (0, 1, 7):
        red = reduce(random_instance(n, seed, rank=rank))
        Q, _ = np.linalg.qr(rng.standard_normal((red.rank, red.rank)))
        A = (Q * rng.uniform(0.05, 0.95, red.rank)) @ Q.T
        A = (A + A.T) / 2.0
        H = np.stack((red.SigmaHat1, red.SigmaHat2))
        w = (1.0, -red.lam)
        got = kv_subproblem_step(A, kv_pass(H, w))
        assert np.array_equal(got, _Gba(_p_step, A, 0.0, H, w).step(A))


def test_alpha_one_ratio_well_defined():
    inst = _scalar(2.0, 1.0, 2.0, alpha=1.0)
    inst.validate()
    ratio = inst.lambda0 * inst.alpha / (inst.lambda2 - inst.lambda0 * 0.0)
    assert ratio == pytest.approx(1.2 / 1.1, rel=1e-14)
    rep = solve_common(inst, SolveOptions(max_iters=50, rel_tol=1e-3))
    assert np.all(np.isfinite(rep.K_U)) and np.all(np.isfinite(rep.K_V))


def test_solve_runs_the_selected_algorithm_and_rejects_init():
    inst = random_instance(2, 0, "common")
    default = solve_common(inst, SolveOptions(max_iters=50, rel_tol=1e-3))
    spg = solve_common(inst, SolveOptions(algorithm=Algorithm.SPG,
                                          max_iters=50, rel_tol=1e-3))
    egba = solve_common(inst, SolveOptions(algorithm=Algorithm.GBA_P,
                                           max_iters=50, rel_tol=1e-3))
    assert np.array_equal(default.K_U, spg.K_U)
    assert np.array_equal(default.K_V, spg.K_V)
    assert default.inner_iterations == spg.inner_iterations
    # EGBA-P's fixed-point maps take hundreds of steps per block here
    assert max(map(max, egba.inner_iterations)) > 100
    assert max(map(max, spg.inner_iterations)) < 100
    assert not np.array_equal(egba.K_U, spg.K_U)
    with pytest.raises(InvalidInputError):
        solve_common(inst, SolveOptions(algorithm=Algorithm.GBA_A))
    with pytest.raises(InvalidInputError):
        solve_common(inst, SolveOptions(init=np.eye(2)))


def test_solve_zero_constraint():
    inst = CommonInstance(K_C=np.zeros((2, 2)), Sigma1=np.eye(2),
                          Sigma2=2.0 * np.eye(2), **_table2_weights())
    rep = solve_common(inst)
    assert rep.converged
    assert np.all(rep.K_U == 0.0) and np.all(rep.K_V == 0.0)
    assert rep.objective_trace.shape == (1,)
    assert any("zero" in w for w in rep.warnings)


def test_solve_fixture_analytic_optimum():
    # K_C=2, Sigma1=1, Sigma2=2 under Table II weights has its maximum at
    # exactly (K_U, K_V) = (1, 0): the K_U stationarity 0.4/(k+1) = 0.6/(k+2)
    # gives k = 1, and the K_V derivative 0.5/(s+2) - 0.6/(s+1) stays negative
    inst = _scalar(2.0, 1.0, 2.0)
    rep = solve_common(inst, SolveOptions(algorithm=Algorithm.GBA_P, max_iters=1000))
    want = 0.4 * np.log(2.0) - 0.6 * np.log(3.0)
    assert rep.objective == pytest.approx(want, abs=5e-4)
    assert rep.K_U[0, 0] == pytest.approx(1.0, abs=1e-2)
    assert abs(rep.K_V[0, 0]) < 1e-2
    assert rep.objective == pytest.approx(rep.objective_trace[-1], abs=0)


def test_solve_matches_scalar_grid():
    for seed in (0, 4):
        inst = random_instance(1, seed, "common")
        rep = solve_common(inst, SolveOptions(algorithm=Algorithm.GBA_P))
        res = grid_search_common_scalar(inst, GridSpec(resolution=2000))
        assert res.best_objective - rep.objective <= res.resolution_bound
        assert -1e-10 <= rep.K_U[0, 0]
        assert -1e-10 <= rep.K_V[0, 0]
        assert rep.K_U[0, 0] + rep.K_V[0, 0] <= inst.K_C[0, 0] + 1e-8


def test_solve_feasible_and_monotone():
    n = 4
    inst = random_instance(n, 2, "common")
    rep = solve_common(inst, SolveOptions(algorithm=Algorithm.GBA_P,
                                          max_iters=60, rel_tol=1e-3))
    z = np.zeros((n, n))
    assert loewner_leq(z, rep.K_U)
    assert loewner_leq(z, rep.K_V)
    assert loewner_leq(rep.K_U + rep.K_V, inst.K_C)
    assert loewner_leq(z, rep.K_W)
    drops = np.diff(rep.objective_trace)
    assert drops.size == 0 or float(np.min(drops)) > -1e-6
    passes = len(rep.step_rel_changes)
    assert rep.objective_trace.shape == (passes + 1,)
    assert len(rep.inner_iterations[0]) == passes
    assert len(rep.inner_iterations[1]) == passes
    assert np.all(rep.step_rel_changes >= 0.0)
    if rep.converged:
        assert rep.step_rel_changes[-1] <= 1e-3


@pytest.mark.slow
def test_solve_table2_scale_converges():
    # heavyweight regression: EGBA-P must converge at n = 50 under the
    # default stopping rule
    inst = random_instance(50, 0, "common")
    rep = solve_common(inst, SolveOptions(algorithm=Algorithm.GBA_P))
    assert rep.converged
    z = np.zeros((50, 50))
    assert loewner_leq(z, rep.K_U)
    assert loewner_leq(z, rep.K_V)
    assert loewner_leq(rep.K_U + rep.K_V, inst.K_C)
