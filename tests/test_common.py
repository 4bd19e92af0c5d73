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
    build_box,
    ku_subproblem_step,
    kv_subproblem_step,
    transform,
)
from gbc.errors import InvalidInputError, InvalidInstanceError
from gbc.private import FixedPoint
from gbc.psd import project_box, spectral_norm, symmetrize
from gbc.reduction import zero_floor


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
    got = kv_subproblem_step(FixedPoint(np.array([[0.5]]), np.ones((2, 1, 1)), (1.0, -2.0)))
    assert got[0, 0] == pytest.approx(0.375, rel=1e-14)


def test_fixed_point_rejects_bad_ratio_and_box():
    H = np.ones((2, 1, 1))
    # ratios -1, 0, NaN, and a zero first weight
    for w in ((1.0, 1.0), (1.0, 0.0), (1.0, float("nan")), (0.0, -1.0)):
        with pytest.raises(InvalidInputError):
            FixedPoint(np.array([[0.5]]), H, w)
    with pytest.raises(InvalidInputError):
        FixedPoint(3.0 * np.eye(2), np.stack((np.eye(2),) * 2), (1.0, -1.0))


def test_ku_step_scalar_hand_value():
    # the K_U stack of SigmaHat1 = SigmaHat2 = 1 and B_V' = 1/4: MHat1 =
    # SigmaHat2 + B_V' and MHat2 = SigmaHat1 + B_V'
    inst = _scalar(2.0, 1.0, 2.0)
    one = np.array([[1.0]])
    H = np.stack((1.25 * one, 1.25 * one, one, one))
    got = ku_subproblem_step(FixedPoint(0.5 * one, H, _weights(inst)[1]))
    # A = 1/2: inv(T) = 4/3, coupling = 1.1 * 0.25 / (1.5 * 1.75) = 11/105,
    # barrier = 1.2/1.75 = 24/35, and 4/3 + 11/105 + 24/35 = 223/105
    assert got[0, 0] == pytest.approx(105.0 / 223.0, rel=1e-12)


def test_ku_step_matches_kv_shape_when_uncoupled():
    # alpha = 1 and K_V = 0 reduce the K_U update to the K_V update with
    # noise pair (SigmaHat1, MHat2) and ratio lambda0/lambda1, on the
    # stack a K_U block builds at K_V = 0
    rng = np.random.default_rng(3)
    for _ in range(5):
        K_C, S1, S2 = (G @ G.T + 0.5 * np.eye(3)
                       for G in rng.standard_normal((3, 3, 3)))
        inst = CommonInstance(K_C=K_C, Sigma1=S1, Sigma2=S2,
                              lambda0=1.2, lambda1=1.0, lambda2=1.1, alpha=1.0)
        H = build_box(K_C, (S2, S1, S1, S2)).H
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = (Q * rng.uniform(0.05, 0.95, 3)) @ Q.T
        got = ku_subproblem_step(FixedPoint(A, H, _weights(inst)[1]))
        want = kv_subproblem_step(FixedPoint(A, H[[2, 1]], (1.0, -1.2)))
        assert np.linalg.norm(got - want) < 1e-12


def _lu_ku_step(A, H, w, coupling):
    """The paper's K_U map by LU inverses, with the coupling B_V' given:
    project_box(inv(inv(T) + mid + barrier)), T = A SigmaHat1^-1 A + A."""
    inv = np.linalg.inv
    M1h, M2h, S1h, S2h = H
    T = A @ inv(S1h) @ A + A
    mid = -w[3] * (inv(A + S2h) @ coupling @ inv(A + M1h))
    barrier = -w[1] * inv(A + M2h) - (w[0] + w[3]) * inv(A + M1h)
    return project_box(inv(inv(T) + symmetrize(mid) + barrier))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ku_step_on_a_rank_dropping_budget_follows_the_block_objective(n):
    """K_V = K_C along K_C's top direction drops a rank from the K_U
    budget, so build_box takes its Schur path and MHat1 - SigmaHat2 is
    not the head of the reduced K_V.  The K_U map steps from the
    gradient of the block objective, the one SPG maximizes and
    kkt_residual certifies: it is the paper's map with the coupling
    MHat1 - SigmaHat2 the box's heads carry, and its
    inv(A) - gradient is the one a finite-difference gradient of
    objective_common through the lift gives."""
    inst = random_instance(n, 0, "common")
    l, P = np.linalg.eigh(inst.K_C)
    K_V = l[-1] * np.outer(P[:, -1], P[:, -1])
    S1, S2 = inst.Sigma1, inst.Sigma2
    box = build_box(inst.K_C - K_V, (K_V + S2, K_V + S1, S1, S2))
    r = box.rank
    assert r == n - 1
    w = _weights(inst)[1]
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    A = symmetrize((Q * rng.uniform(0.2, 0.8, r)) @ Q.T)
    got = ku_subproblem_step(FixedPoint(A, box.H, w))

    coupling = box.H[0] - box.H[3]
    want = _lu_ku_step(A, box.H, w, coupling)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    L = box.transform.lift_matrix
    h = 1e-5
    G = np.empty((r, r))
    for i in range(r):
        for j in range(i, r):
            E = np.zeros((r, r))
            E[i, j] = E[j, i] = 1.0 if i == j else 0.5
            up, down = (objective_common(L @ (A + s * E) @ L.T, K_V, inst)
                        for s in (h, -h))
            G[i, j] = G[j, i] = (up - down) / (2.0 * h)
    fd = project_box(np.linalg.inv(np.linalg.inv(A) - G))
    assert np.max(np.abs(got - fd)) < 1e-6

    # the head of the reduced K_V, which the map took as its coupling
    # before, is another matrix on this box, and gives another step
    head = transform(box.transform, K_V)[:r, :r]
    assert np.max(np.abs(coupling - head)) > 1e-3
    assert np.max(np.abs(_lu_ku_step(A, box.H, w, head) - got)) > 1e-3


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
        got = kv_subproblem_step(FixedPoint(A, H, w))
        gba_p = FixedPoint(A, H, w, 1e-4, spectral=True)
        assert np.array_equal(got, gba_p.step())


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


@pytest.mark.parametrize("algo", [Algorithm.SPG, Algorithm.GBA_P], ids=["spg", "egba-p"])
@pytest.mark.parametrize("n,rank", [(1, None), (2, None), (3, None), (4, None), (4, 2)])
def test_K_W_is_the_psd_part_of_the_slack_bit_for_bit(n, rank, algo):
    inst = random_instance(n, 0, "common", rank=rank)
    rep = solve_common(inst, SolveOptions(algorithm=algo, rel_tol=1e-2, max_iters=5))
    # eigh of the slack, negative eigenvalues clipped to 0, rebuilt
    w, V = np.linalg.eigh(symmetrize(symmetrize(inst.K_C) - rep.K_U - rep.K_V))
    assert np.array_equal(rep.K_W, symmetrize((V * np.maximum(w, 0.0)) @ V.T))


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


# the four common-egba benchmark panel instances, (2, 0), (3, 1), (4, 2)
# and (2, 3), with n = 1..5 at seeds 0..2
_PASS_CASES = sorted({(n, s) for n in range(1, 6) for s in range(3)} | {(2, 3)})
_PASS_ALGOS = [Algorithm.SPG, Algorithm.GBA_P]


@pytest.mark.parametrize("algo", _PASS_ALGOS, ids=lambda a: a.value)
@pytest.mark.parametrize("n,seed", _PASS_CASES)
def test_outer_pass_objective_is_objective_common(n, seed, algo):
    """Each outer pass takes its objective from the stacked call it shares
    with the step norms; the last entry has objective_common's bits."""
    inst = random_instance(n, seed, "common")
    rep = solve_common(inst, SolveOptions(algorithm=algo, rel_tol=1e-3))
    assert rep.objective_trace[-1] == objective_common(rep.K_U, rep.K_V, inst)


@pytest.mark.parametrize("algo", _PASS_ALGOS, ids=lambda a: a.value)
@pytest.mark.parametrize("n,seed", _PASS_CASES)
def test_outer_pass_change_is_spectral_norm(n, seed, algo):
    """The first pass's relative change, recomputed by spectral_norm from
    the start K_U = K_C/2, K_V = 0, has the bits solve_common reports:
    each norm divided by its start's, floored at the zero-budget rule."""
    inst = random_instance(n, seed, "common")
    rep = solve_common(inst, SolveOptions(algorithm=algo, rel_tol=1e-3, max_iters=1))
    K_C = symmetrize(inst.K_C)
    floor = zero_floor(spectral_norm(K_C))
    want = (spectral_norm(rep.K_U - K_C / 2.0) / max(spectral_norm(K_C / 2.0), floor)
            + spectral_norm(rep.K_V) / max(0.0, floor))
    assert rep.step_rel_changes[0] == want
