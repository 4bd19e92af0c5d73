"""Tests for the private-message solvers and their step maps."""

import dataclasses
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gbc import (
    Algorithm,
    PrivateInstance,
    SolveOptions,
    fd_gradient,
    gradient_reduced,
    loewner_leq,
    objective_reduced,
    random_instance,
    reduce,
    solve_private,
)
from gbc import private
from gbc.errors import InvalidInputError, NumericalBreakdownError
from gbc.common import kv_pass, kv_subproblem_step
from gbc.private import gba_a_step, root_in_unit_interval
from gbc.psd import symmetrize
from gbc.reduction import lift


def _gba_p(red):
    """GBA-P's map on a reduced private problem, as a K_V pass."""
    return kv_pass(np.stack((red.SigmaHat1, red.SigmaHat2)), (1.0, -red.lam))


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


def _decimal_root(b, lam):
    """The root at 60 significant digits, from the exact binary inputs."""
    with localcontext() as ctx:
        ctx.prec = 60
        b, lam = Decimal(b), Decimal(lam)
        s = lam + 1 + b
        d = (s * s - 4 * b).sqrt()
        return (s - d) / (2 * b) if s < 0 else 2 / (s + d)


def test_root_is_accurate_for_large_negative_b():
    """For b < -(lam + 1), 2/(s + sqrt(s^2 - 4b)) cancels: at lam = 4,
    b = -1e8 it is off by 2.7e-9 relative, so 1 - a is off by 7%."""
    eps = np.finfo(float).eps
    mags = np.logspace(-3, 15, 73)
    for lam in (1.0 + 1e-7, 1.5, 4.0, 100.0):
        for b in np.concatenate((-mags, mags)):
            got = root_in_unit_interval(float(b), lam)
            want = _decimal_root(float(b), lam)
            assert abs((Decimal(got) - want) / want) <= 4 * eps, (b, lam)


def test_root_rejects_bad_lambda():
    with pytest.raises(InvalidInputError):
        root_in_unit_interval(0.0, 1.0)


@pytest.mark.parametrize("b", [float("nan"), float("inf"), [0.5, -np.inf]])
def test_root_rejects_non_finite_b(b):
    with pytest.raises(InvalidInputError, match="b must be finite"):
        root_in_unit_interval(b, 2.0)


def _root_reference(b, lam):
    """root_in_unit_interval's arithmetic as one np.where, both forms
    evaluated everywhere."""
    s = lam + 1.0 + b
    d = np.sqrt(s * s - 4.0 * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(s < 0.0, (s - d) / (2.0 * b), 2.0 / (s + d))
    return np.where(b == 0.0, 1.0 / (1.0 + lam), root)


def test_root_core_keeps_every_bit_and_shape():
    """GBA-A steps call the unchecked core; it and the checked entry
    point equal the reference bit for bit, and the entry point keeps
    its scalar and broadcast shapes."""
    rng = np.random.default_rng(9)
    mags = np.logspace(-3, 15, 37)
    b = np.concatenate((rng.uniform(-50.0, 50.0, 400), -mags, mags, [0.0, -0.0]))
    for lam in (1.0 + 1e-7, 1.5, 4.0, 100.0):
        want = _root_reference(b, lam)
        assert np.array_equal(private._root(b, lam), want)
        assert np.array_equal(root_in_unit_interval(b, lam), want)
    lam = rng.uniform(1.01, 50.0, b.size)
    assert np.array_equal(root_in_unit_interval(b, lam), _root_reference(b, lam))
    assert root_in_unit_interval(0.0, lam).shape == lam.shape
    assert root_in_unit_interval(b.reshape(2, -1), 3.0).shape == (2, b.size // 2)
    got = root_in_unit_interval(-7.5, 2.0)
    assert type(got) is float and got == float(_root_reference(-7.5, 2.0))


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 1.0, 0.5, -3.0])
def test_gba_a_step_checks_lam_first(lam):
    """A bad weight is an InvalidInputError, raised before the iterate is
    checked or any matrix decomposed (a NaN weight used to reach eigh)."""
    red = reduce(_case(2))
    for A in (0.5 * np.eye(2), 3.0 * np.eye(2)):
        with pytest.raises(InvalidInputError, match="lam must be"):
            gba_a_step(A, red, lam)


def test_gba_a_pass_checks_its_weight_once():
    """gba_pass takes GBA-A's weight -w[1]/w[0] only above 1, the root's
    domain; GBA-P's map takes any positive one."""
    H = np.stack((np.eye(2), 2.0 * np.eye(2)))
    private.gba_pass(H, (1.0, -0.5))
    for w in ((1.0, -0.5), (1.0, -1.0), (1.0, float("nan"))):
        with pytest.raises(InvalidInputError):
            private.gba_pass(H, w, update=private._a_step)


def test_gba_p_step_scalar_value():
    inst = PrivateInstance(K=np.eye(1), Sigma1=np.eye(1), Sigma2=np.eye(1),
                           lam=2.0)
    red = reduce(inst)
    # inv(inv(0.25 + 0.5) + 2/1.5) = inv(8/3) = 0.375
    out = kv_subproblem_step(np.array([[0.5]]), _gba_p(red))
    assert out[0, 0] == pytest.approx(0.375, abs=1e-12)


def test_steps_fix_the_case1_optimum():
    inst = _case(1)
    red = reduce(inst)
    # K_U* = K/2 reduces to A* = I/2, an interior stationary point
    A_star = 0.5 * np.eye(2)
    assert np.allclose(kv_subproblem_step(A_star, _gba_p(red)), A_star, atol=1e-10)
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
                dict(max_iters=2.5), dict(init="x"), dict(algorithm="spg"),
                dict(init=np.full((2, 2), np.nan))):
        with pytest.raises(InvalidInputError):
            solve_private(inst, SolveOptions(**bad))
    # a whole-valued float cap is accepted
    assert solve_private(inst, SolveOptions(algorithm=Algorithm.GBA_P,
                                            max_iters=3.0)).iterations == 1


def test_options_are_checked_when_built():
    # no solve is needed, and dataclasses.replace checks its result too
    with pytest.raises(InvalidInputError, match="max_iters"):
        SolveOptions(max_iters=0)
    with pytest.raises(InvalidInputError, match="init"):
        dataclasses.replace(SolveOptions(), init=np.full((2, 2), np.nan))
    assert not hasattr(SolveOptions, "validate")


@pytest.mark.parametrize("bad", [dict(max_iters=True), dict(rel_tol=True),
                                 dict(max_iters=True, rel_tol=True)])
def test_options_reject_bools(bad):
    # bool is a numbers.Real: True once passed as a cap of 1 and a
    # tolerance of 1, and a solve "converged" after 0 iterations
    with pytest.raises(InvalidInputError, match="max_iters|rel_tol"):
        solve_private(random_instance(2, 0), SolveOptions(**bad))


def test_rank_deficient_constraint_solves():
    inst = random_instance(5, 23, rank=2, lam=2.0)
    rep = solve_private(inst, SolveOptions(max_iters=100_000, rel_tol=1e-6))
    assert rep.final_AU.shape == (2, 2)
    assert rep.final_KU.shape == (5, 5)
    assert loewner_leq(rep.final_KU, inst.K)
    # objective trace stays monotone through the reduction
    assert np.min(np.diff(rep.objective_trace)) > -1e-10


@pytest.mark.parametrize("init", [np.eye(3), np.diag([1.0, 0.5, 0.5])])
def test_gba_a_boundary_start_is_an_error(init):
    """I - A is singular at a start with eigenvalue 1: GBA-A raises
    NumericalBreakdownError, with no divide-by-zero warning on the way."""
    inst = random_instance(3, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalBreakdownError):
            solve_private(inst, SolveOptions(algorithm=Algorithm.GBA_A, init=init))
        with pytest.raises(NumericalBreakdownError):
            gba_a_step(init, reduce(inst), inst.lam)


@pytest.mark.parametrize("call,match", [
    (lambda: private.inv(np.zeros((2, 2))), "matrix inverse failed"),
    # A + H_2 = diag(-0.5, 0.5) has a negative determinant
    (lambda: private._fast_objective(
        0.5 * np.eye(2), np.stack((np.eye(2), np.diag([-1.0, 0.0]))), (1.0, -2.0)),
     "iterate lost positive definiteness"),
], ids=["singular-inverse", "objective-off-the-pd-cone"])
def test_linear_algebra_failures_are_breakdowns(call, match):
    with pytest.raises(NumericalBreakdownError, match=match):
        call()


@pytest.mark.parametrize("algo", [Algorithm.GBA_P, Algorithm.GBA_A])
@pytest.mark.parametrize("n,seed", [(3, 11), (6, 12), (12, 13)])
def test_reported_eigenvalues_match_the_iterates(algo, n, seed, monkeypatch):
    """The GBA loop takes each new iterate's eigenvalues from the step;
    they must agree with eigvalsh of the iterates themselves."""
    iterates = []
    step = private.FixedPoint.step

    def recording_step(self, A):
        if not iterates:
            iterates.append(A)
        An = step(self, A)
        iterates.append(An)
        return An

    monkeypatch.setattr(private.FixedPoint, "step", recording_step)
    rep = solve_private(random_instance(n, seed),
                        SolveOptions(algorithm=algo, max_iters=40))
    assert len(iterates) == rep.iterations + 1
    assert np.array_equal(iterates[-1], rep.final_AU)
    eigs = [np.linalg.eigvalsh(X) for X in iterates]
    assert rep.iterate_eig_min == pytest.approx(min(w[0] for w in eigs),
                                                rel=0, abs=1e-12)
    assert rep.iterate_eig_max == pytest.approx(max(w[-1] for w in eigs),
                                                rel=0, abs=1e-12)
    rels = [np.max(np.abs(np.linalg.eigvalsh(Xn - X))) / np.max(np.abs(w))
            for X, Xn, w in zip(iterates, iterates[1:], eigs)]
    assert np.allclose(rep.step_rel_changes, rels, rtol=1e-12, atol=0)


@pytest.mark.parametrize("algo", list(Algorithm))
@pytest.mark.parametrize("n,seed,rank", [(2, 0, None), (3, 5, None), (4, 8, 2),
                                         (6, 1, None)])
def test_capped_trace_is_a_prefix_of_a_longer_run(algo, n, seed, rank):
    # the loop's cap cuts the run and changes nothing before the cut
    inst = random_instance(n, seed, rank=rank)
    for k in (1, 3, 8):
        short = solve_private(inst, SolveOptions(algorithm=algo, rel_tol=1e-9,
                                                 max_iters=k))
        long = solve_private(inst, SolveOptions(algorithm=algo, rel_tol=1e-9,
                                                max_iters=k + 5))
        m = short.iterations
        assert m == min(k, long.iterations)
        assert np.array_equal(short.objective_trace, long.objective_trace[:m + 1])
        assert np.array_equal(short.step_rel_changes, long.step_rel_changes[:m])
        assert long.iterate_eig_min <= short.iterate_eig_min
        assert long.iterate_eig_max >= short.iterate_eig_max
        if long.iterations == m:
            assert short.iterate_eig_min == long.iterate_eig_min
            assert short.iterate_eig_max == long.iterate_eig_max
            assert np.array_equal(short.final_AU, long.final_AU)
