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
from gbc import _lapack, private
from gbc.errors import InvalidInputError, NumericalBreakdownError
from gbc.common import kv_subproblem_step
from gbc.private import FixedPoint, gba_a_step, root_in_unit_interval
from gbc.psd import symmetrize
from gbc.reduction import lift


def _gba_p_step(A, red):
    """GBA-P's step from A on a reduced private problem, as a K_V pass's."""
    return kv_subproblem_step(FixedPoint(A, np.stack((red.SigmaHat1, red.SigmaHat2)),
                                         (1.0, -red.lam)))


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
    """FixedPoint takes GBA-A's weight -w[-1]/w[-2] only above 1, the
    root's domain; GBA-P's map takes any positive one."""
    H = np.stack((np.eye(2), 2.0 * np.eye(2)))
    A = 0.5 * np.eye(2)
    FixedPoint(A, H, (1.0, -0.5))
    for w in ((1.0, -0.5), (1.0, -1.0), (1.0, float("nan"))):
        with pytest.raises(InvalidInputError):
            FixedPoint(A, H, w, alternating=True)


def test_gba_p_step_scalar_value():
    inst = PrivateInstance(K=np.eye(1), Sigma1=np.eye(1), Sigma2=np.eye(1),
                           lam=2.0)
    red = reduce(inst)
    # inv(inv(0.25 + 0.5) + 2/1.5) = inv(8/3) = 0.375
    out = _gba_p_step(np.array([[0.5]]), red)
    assert out[0, 0] == pytest.approx(0.375, abs=1e-12)


def test_steps_fix_the_case1_optimum():
    inst = _case(1)
    red = reduce(inst)
    # K_U* = K/2 reduces to A* = I/2, an interior stationary point
    A_star = 0.5 * np.eye(2)
    assert np.allclose(_gba_p_step(A_star, red), A_star, atol=1e-10)
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


def _boundary_start(kind):
    """(instance, start, whether solve_private's projection of the start
    keeps an eigenvalue outside (0, 1)) for each boundary start."""
    if kind == "spg-answer":
        # SPG's answer pins an eigenvalue at 1 up to rounding: 1 + 1.1e-15
        inst = random_instance(20, 1)
        return inst, solve_private(inst, SolveOptions(rel_tol=1e-8)).final_AU, True
    if kind in ("init0", "init1"):
        return random_instance(3, 0), {"init0": np.eye(3),
                                       "init1": np.diag([1.0, 0.5, 0.5])}[kind], True
    # inside check_box's slack, a rounding error beyond a face; the
    # projection clips 1 + 1e-12 to 1, and -1e-14 to the floor, inside
    d = {"above-one": [0.3, 0.6, 1.0 + 1e-12], "below-zero": [-1e-14, 0.5, 0.6]}[kind]
    return random_instance(3, 1), np.diag(d), kind == "above-one"


@pytest.mark.parametrize("kind", ["init0", "init1", "above-one", "below-zero",
                                  "spg-answer"])
def test_gba_a_boundary_start_is_an_error(kind):
    """GBA-A's barrier changes sign across each face of the box: a start
    with an eigenvalue outside the open (0, 1) raises
    NumericalBreakdownError naming it, with no divide-by-zero warning on
    the way, where the step would send it to the other face."""
    inst, init, projected_outside = _boundary_start(kind)
    gba_a = SolveOptions(algorithm=Algorithm.GBA_A, init=init)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if projected_outside:
            with pytest.raises(NumericalBreakdownError, match="A has eigenvalue"):
                solve_private(inst, gba_a)
        else:
            assert solve_private(inst, gba_a).iterations > 0
        with pytest.raises(NumericalBreakdownError, match="A has eigenvalue"):
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

    def recording_step(self):
        if not iterates:
            iterates.append(self.A)
        An = step(self)
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


_eigvalsh = np.linalg.eigvalsh


def _count_eigvalsh(monkeypatch):
    """The shapes of the arguments of every later eigvalsh call, each of
    which goes through gbc._lapack."""
    calls = []

    def counting(M):
        calls.append(np.shape(M))
        return _eigvalsh(M)

    monkeypatch.setattr(_lapack, "eigvalsh", counting)
    return calls


def _spectral_walk(ps, cap, calls):
    """Step the GBA pass ps until its rule fires or cap steps have run.
    After each step, ps.converged must be the paper's rule on that step,
    ||An - A||_2 <= tol * max|eig A| by eigvalsh, with eig A the
    eigenvalues the pass holds for A (its start's check, then each
    step's).  Returns the number of steps and how many of them took an
    eigvalsh, which only a step in the Frobenius bracket's band does."""
    steps = band = 0
    while steps < cap:
        A, e = ps.A, ps.pairs[0]
        before = len(calls)
        An = ps.step()
        band += len(calls) > before
        steps += 1
        d = _eigvalsh(An - A)
        want = max(abs(d[0]), abs(d[-1])) <= ps.tol * np.max(np.abs(e))
        assert ps.converged == want, steps
        if want:
            break
    return steps, band


def _gba_pass(inst, algo, tol):
    red = reduce(inst)
    return FixedPoint(0.5 * np.eye(red.rank), red.H, (1.0, -red.lam), tol,
                      algo is Algorithm.GBA_A, spectral=True)


@pytest.mark.parametrize("algo", [Algorithm.GBA_P, Algorithm.GBA_A])
def test_frobenius_bracket_decides_the_spectral_rule(algo, monkeypatch):
    """GBA-P's and GBA-A's stop rule fires first exactly where the
    eigvalsh rule first holds, and solve_private stops there."""
    calls = _count_eigvalsh(monkeypatch)
    # steps and band steps at n = 5
    walks = [0, 0]
    # n = 5 at rel_tol 1e-6 converges inside the band, where about a
    # third of the steps fall; n = 1 is r = 1, where the band is only the
    # shortcuts' margin
    for n, seed in ((5, 8), (5, 11), (1, 0), (1, 9)):
        inst = random_instance(n, seed)
        steps, band = _spectral_walk(_gba_pass(inst, algo, 1e-6), 20000, calls)
        rep = solve_private(inst, SolveOptions(algorithm=algo, rel_tol=1e-6,
                                               max_iters=20000))
        assert (rep.iterations, rep.converged) == (steps, True)
        if n == 5:
            walks[0] += steps
            walks[1] += band
    # both shortcuts and the band decided steps at n = 5
    assert 0 < walks[1] < walks[0] / 2
    # at tol 0 no step that moves meets the rule, and the bracket says so
    # without eigvalsh
    steps, band = _spectral_walk(_gba_pass(random_instance(4, 2), algo, 0.0), 50, calls)
    assert (steps, band) == (50, 0)


@pytest.mark.parametrize("algo", [Algorithm.GBA_P, Algorithm.GBA_A])
def test_spectral_rule_at_a_tie_on_a_rank_one_step(algo, monkeypatch):
    """From I/2 on a problem diagonal in a rotated basis, where the
    gradient vanishes along the second direction, both maps fix that
    direction and move the first: the step has rank 1, so its Frobenius
    and spectral norms agree up to rounding.  With the threshold a few
    ulps either side of that norm, the rule must take the eigvalsh
    verdict."""
    calls = _count_eigvalsh(monkeypatch)
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))
    # at a = 1/2 the gradient 1/(a + h1) - 2/(a + h2) is -2/3 along the
    # first direction, (h1, h2) = (1, 1), and 0 along the second, (1/4, 1)
    H = np.stack([(Q * h) @ Q.T for h in ([1.0, 0.25], [1.0, 1.0])])
    A0 = 0.5 * np.eye(2)

    def make(tol):
        return FixedPoint(A0, H, (1.0, -2.0), tol, algo is Algorithm.GBA_A,
                          spectral=True)

    X = make(0.0).step() - A0
    d = np.abs(_eigvalsh(X))
    norm = d.max()
    assert d.min() <= 1e-12 * norm
    # the two norms agree to a few ulps (with OpenBLAS on x86-64 the
    # Frobenius norm rounds one ulp low), so a threshold between them is
    # a tie the eigvalsh verdict must break
    assert abs(private._fro(X) - norm) <= 4 * np.spacing(norm)
    # the threshold tol * max|eig A0| = tol / 2 steps through the ulps
    # around the norm
    verdicts = []
    for k in range(-8, 9):
        ps = make(2.0 * (norm + k * np.spacing(norm)))
        assert _spectral_walk(ps, 1, calls) == (1, 1)
        verdicts.append(ps.converged)
    assert not verdicts[0] and verdicts[-1]


@pytest.mark.parametrize("algo", [Algorithm.GBA_P, Algorithm.GBA_A, Algorithm.SPG])
def test_eigvalsh_calls_per_step(algo, monkeypatch):
    """A capped GBA-P or GBA-A solve at n = 32 makes no eigvalsh call on
    a step or its record; an SPG step's record makes one, of the r x r
    iterate."""
    calls = _count_eigvalsh(monkeypatch)
    seen = {"step": [], "record": []}
    run_pass = private.run_pass

    def counted(where, fn):
        def call(*args):
            start = len(calls)
            out = fn(*args)
            seen[where] += calls[start:]
            return out
        return call

    monkeypatch.setattr(private, "run_pass", lambda step, ps, cap, watch: run_pass(
        counted("step", step), ps, cap, counted("record", watch)))
    rep = solve_private(random_instance(32, 0),
                        SolveOptions(algorithm=algo, rel_tol=1e-4, max_iters=100))
    if algo is Algorithm.SPG:
        assert rep.converged and rep.iterations > 1
        assert seen["record"] == [(32, 32)] * rep.iterations
    else:
        assert (rep.iterations, rep.converged) == (100, False)
        assert seen == {"step": [], "record": []}


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
        assert long.iterate_eig_min <= short.iterate_eig_min
        assert long.iterate_eig_max >= short.iterate_eig_max
        if long.iterations == m:
            assert short.iterate_eig_min == long.iterate_eig_min
            assert short.iterate_eig_max == long.iterate_eig_max
            assert np.array_equal(short.final_AU, long.final_AU)
