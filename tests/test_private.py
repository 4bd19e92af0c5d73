"""Tests for the private-message solvers and their step maps."""

import numpy as np
import pytest

from gbc import (
    Algorithm,
    PrivateInstance,
    SolveOptions,
    fd_gradient,
    gba_a_step,
    gba_p_step,
    gradient_reduced,
    lift,
    loewner_leq,
    objective_reduced,
    random_instance,
    reduce,
    root_in_unit_interval,
    solve_private,
    symmetrize,
)
from gbc.errors import InvalidInputError


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


def test_root_in_unit_interval_known_values():
    assert root_in_unit_interval(0.0, 2.0) == pytest.approx(1.0 / 3.0, abs=0)
    assert root_in_unit_interval(1.0, 2.0) == pytest.approx(2.0 - np.sqrt(3.0),
                                                            rel=1e-14)
    assert root_in_unit_interval(-5.0, 2.0) == pytest.approx(
        (1.0 + np.sqrt(6.0)) / 5.0, rel=1e-14)


def test_root_quadratic_residual_and_range():
    rng = np.random.default_rng(8)
    b = rng.uniform(-50.0, 50.0, 2000)
    lam = rng.uniform(1.0 + 1e-6, 50.0, 2000)
    a = root_in_unit_interval(b, lam)
    assert np.all(a > 0.0)
    assert np.all(a < 1.0)
    res = b * a * a - (lam + 1.0 + b) * a + 1.0
    assert np.max(np.abs(res) / (1.0 + np.abs(b))) < 1e-12


def test_root_rejects_bad_lambda():
    with pytest.raises(InvalidInputError):
        root_in_unit_interval(0.0, 1.0)


def test_gba_p_step_scalar_value():
    inst = PrivateInstance(K=np.eye(1), Sigma1=np.eye(1), Sigma2=np.eye(1),
                           lam=2.0)
    red = reduce(inst)
    # inv(inv(0.25 + 0.5) + 2/1.5) = inv(8/3) = 0.375
    out = gba_p_step(np.array([[0.5]]), red, 2.0)
    assert out[0, 0] == pytest.approx(0.375, abs=1e-12)


def test_steps_fix_the_case1_optimum():
    inst = _case(1)
    red = reduce(inst)
    # K_U* = K/2 reduces to A* = I/2, an interior stationary point
    A_star = 0.5 * np.eye(2)
    assert np.allclose(gba_p_step(A_star, red, inst.lam), A_star, atol=1e-10)
    assert np.allclose(gba_a_step(A_star, red, inst.lam), A_star, atol=1e-10)
    g = gradient_reduced(A_star, red, inst.lam)
    assert np.max(np.abs(g)) < 1e-10


def test_objective_reduced_matches_fd_gradient():
    inst = random_instance(3, 17, lam=2.0)
    red = reduce(inst)
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = symmetrize(Q @ np.diag([0.3, 0.5, 0.7]) @ Q.T)
    G = gradient_reduced(A, red, inst.lam)
    G_fd = fd_gradient(lambda X: objective_reduced(X, red, inst.lam), A)
    assert np.allclose(G, G_fd, atol=1e-7)


def test_monotone_objective_both_algorithms():
    for algo in (Algorithm.GBA_P, Algorithm.GBA_A):
        for seed in range(5):
            inst = random_instance(4, 300 + seed)
            rep = solve_private(inst, SolveOptions(algorithm=algo,
                                                   max_iters=300))
            diffs = np.diff(rep.objective_trace)
            assert np.min(diffs) > -1e-10
            assert len(rep.objective_trace) == rep.iterations + 1
            assert len(rep.step_rel_changes) == rep.iterations


def test_case1_converges_immediately():
    rep = solve_private(_case(1), SolveOptions(algorithm=Algorithm.GBA_P))
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.final_KU, [[1.0, 1.0], [1.0, 2.0]], atol=1e-10)
    assert rep.kkt_residual < 1e-10


def test_iterates_stay_feasible():
    inst = _case(3)
    rep = solve_private(inst, SolveOptions(max_iters=2000, rel_tol=1e-8))
    assert rep.iterate_eig_min >= -1e-12
    assert rep.iterate_eig_max <= 1.0 + 1e-12
    assert loewner_leq(np.zeros((2, 2)), rep.final_KU)
    assert loewner_leq(rep.final_KU, inst.K)


def test_algorithms_agree_on_random_instance():
    # seed chosen so both iterations converge quickly at this tolerance
    inst = random_instance(3, 7)
    opts = dict(max_iters=60_000, rel_tol=1e-8)
    rp = solve_private(inst, SolveOptions(algorithm=Algorithm.GBA_P, **opts))
    ra = solve_private(inst, SolveOptions(algorithm=Algorithm.GBA_A, **opts))
    assert rp.converged and ra.converged
    assert np.linalg.norm(rp.final_KU - ra.final_KU, 2) < 1e-3


def test_degenerate_zero_constraint():
    inst = PrivateInstance(K=np.zeros((2, 2)), Sigma1=np.eye(2),
                           Sigma2=2.0 * np.eye(2), lam=2.0)
    rep = solve_private(inst)
    assert rep.converged
    assert rep.iterations == 0
    assert np.allclose(rep.final_KU, 0.0)
    # trace carries the constant objective of the only feasible point
    assert rep.objective == pytest.approx(-2.0 * np.log(4.0), abs=1e-12)


def test_explicit_matrix_init():
    inst = _case(1)
    rep = solve_private(inst, SolveOptions(algorithm=Algorithm.GBA_P,
                                           init=0.5 * np.eye(2)))
    assert rep.iterations == 1
    # out-of-box init gets projected with a warning
    rep2 = solve_private(inst, SolveOptions(init=3.0 * np.eye(2),
                                            max_iters=500, rel_tol=1e-6))
    assert any("project" in w for w in rep2.warnings)
    assert rep2.iterate_eig_max <= 1.0 + 1e-12
    with pytest.raises(InvalidInputError):
        solve_private(inst, SolveOptions(init=np.eye(3)))


def test_options_validation():
    inst = _case(1)
    with pytest.raises(InvalidInputError):
        solve_private(inst, SolveOptions(max_iters=0))
    with pytest.raises(InvalidInputError):
        solve_private(inst, SolveOptions(rel_tol=0.0))
    with pytest.raises(InvalidInputError):
        solve_private(inst, SolveOptions(rel_tol=float("nan")))
    for bad in (dict(max_iters=float("nan")), dict(max_iters=float("inf")),
                dict(max_iters=2.5), dict(init="x"),
                dict(init=np.full((2, 2), np.nan))):
        with pytest.raises(InvalidInputError):
            solve_private(inst, SolveOptions(**bad))
    # a whole-valued float cap is accepted
    assert solve_private(inst, SolveOptions(algorithm=Algorithm.GBA_P,
                                            max_iters=3.0)).iterations == 1


def test_rank_deficient_constraint_solves():
    inst = random_instance(5, 23, rank=2, lam=2.0)
    rep = solve_private(inst, SolveOptions(max_iters=100_000, rel_tol=1e-6))
    assert rep.final_AU.shape == (2, 2)
    assert rep.final_KU.shape == (5, 5)
    assert loewner_leq(rep.final_KU, inst.K)
    # objective trace stays monotone through the reduction
    assert np.min(np.diff(rep.objective_trace)) > -1e-10
