"""The stack axis of the matrix primitives, and the stacked calls the
solvers make through it.

symmetrize, logdet, spectral_norm, project_box, transform and schur_head
take a (..., n, n) stack as np.linalg does.  Each slice of a stacked call
must equal the call on that slice alone under np.array_equal, so a solve
that stacks its matrices keeps every bit of its answer.  The references
here are the per-matrix formulas the solvers used before they stacked:
build_box slice by slice, objective_common from four logdet calls, and
an SPG step that factors A + H twice and projects twice.
"""

import numpy as np
import pytest

from gbc import (
    fd_gradient,
    gradient_reduced,
    loewner_leq,
    objective_reduced,
    random_instance,
    rates_common,
    rates_private,
    reduce,
    weighted_rate_common,
)
from gbc.common import _weights, objective_common
from gbc.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalBreakdownError,
)
from gbc.private import _ARMIJO, _ROUNDOFF, _gradient, _kkt, _Spg
from gbc.psd import logdet, project_box, spectral_norm, symmetrize
from gbc.reduction import box_transform, build_box, schur_head, transform, weighted

KS = [1, 2, 3, 4]


def _stack(rng, k, n, pd=False):
    X = rng.standard_normal((k, n, n))
    if pd:
        return X @ X.transpose(0, 2, 1) + 0.5 * np.eye(n)
    return X


def _each(f, X, *args):
    return np.stack([f(x, *args) for x in X])


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_psd_primitives_on_a_stack_equal_their_slices(k, n):
    rng = np.random.default_rng(100 * k + n)
    X = _stack(rng, k, n)
    P = _stack(rng, k, n, pd=True)
    for f in (symmetrize, project_box):
        assert np.array_equal(f(X), _each(f, X))
    # project_box's input may leave the box on both sides
    assert np.array_equal(project_box(3.0 * X), _each(project_box, 3.0 * X))
    for f, M in ((logdet, P), (spectral_norm, X)):
        got = f(M)
        assert got.shape == (k,)
        assert np.array_equal(got, np.array([f(m) for m in M]))
        assert all(isinstance(f(m), float) for m in M)


def test_psd_primitives_take_any_number_of_leading_axes():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 3, 4, 4))
    P = X @ X.swapaxes(-1, -2) + np.eye(4)
    assert np.array_equal(project_box(X), np.stack([_each(project_box, x) for x in X]))
    assert np.array_equal(logdet(P), np.array([[logdet(m) for m in p] for p in P]))
    assert np.array_equal(spectral_norm(X),
                          np.array([[spectral_norm(m) for m in x] for x in X]))
    assert np.array_equal(logdet(np.zeros((3, 0, 0))), np.zeros(3))
    assert np.array_equal(spectral_norm(np.zeros((2, 0, 0))), np.zeros(2))
    with pytest.raises(InvalidInputError):
        symmetrize(np.zeros((2, 3, 4)))


def _project_reference(M):
    """project_box of one matrix as written before it took stacks."""
    M = (M + M.T) / 2.0
    w, V = np.linalg.eigh(M)
    w = np.minimum(np.maximum(w[::-1], 1e-10), 1.0)
    V = V[:, ::-1].copy()
    P = (V * w) @ V.T
    return (P + P.T) / 2.0


def test_matrix_inputs_keep_their_results():
    rng = np.random.default_rng(6)
    for n in (1, 3, 8):
        M = 2.0 * rng.standard_normal((n, n))
        assert np.array_equal(project_box(M), _project_reference(M))
        S = (M + M.T) / 2.0
        assert spectral_norm(M) == float(np.max(np.abs(np.linalg.eigvalsh(S))))
        P = M @ M.T + np.eye(n)
        assert logdet(P) == float(np.sum(np.log(np.linalg.eigvalsh(P))))


@pytest.mark.parametrize("f", [logdet, spectral_norm, project_box],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_one_non_finite_slice_fails_the_stack(f, bad):
    P = _stack(np.random.default_rng(7), 3, 3, pd=True)
    P[1, 0, 2] = P[1, 2, 0] = bad
    with pytest.raises(InvalidInputError):
        f(P)


def test_one_singular_slice_fails_a_stacked_logdet():
    P = _stack(np.random.default_rng(8), 3, 3, pd=True)
    P[2] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(NotPositiveDefiniteError):
        logdet(P)
    P[2] = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotPositiveDefiniteError):
        logdet(P)


# full-rank budgets, and rank-deficient ones that take the Schur path
BUDGETS = [(1, None), (3, None), (5, None), (4, 2), (5, 3), (6, 1)]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n,rank", BUDGETS)
def test_reduction_primitives_on_a_stack_equal_their_slices(k, n, rank):
    rng = np.random.default_rng(10 * n + k)
    bt = box_transform(random_instance(n, k, rank=rank).K)
    r = bt.rank
    assert r == (rank or n)
    M = _stack(rng, k, n, pd=True)
    Mt = transform(bt, M)
    assert np.array_equal(Mt, _each(lambda m: transform(bt, m), M))
    assert np.array_equal(schur_head(Mt, r), _each(schur_head, Mt, r))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n,rank", BUDGETS)
def test_build_box_equals_its_slice_by_slice_construction(k, n, rank):
    rng = np.random.default_rng(20 * n + k)
    K = random_instance(n, k, rank=rank).K
    stack = tuple(_stack(rng, k, n, pd=True))
    box = build_box(K, stack)
    bt = box_transform(K)
    r = bt.rank
    mats = [transform(bt, M) for M in stack]
    heads = np.stack([schur_head(Mt, r) for Mt in mats])
    tails = tuple(logdet(Mt[r:, r:]) if r < n else 0.0 for Mt in mats)
    assert np.array_equal(box.H, heads)
    assert box.tails == tails
    assert all(type(t) is float for t in box.tails)


@pytest.mark.parametrize("n,rank", [(1, None), (3, None), (4, 2), (5, None)])
def test_objective_common_equals_four_separate_logdets(n, rank):
    inst = random_instance(n, 3, "common", rank=rank)
    rng = np.random.default_rng(n)
    bt = box_transform(inst.K_C)
    for _ in range(5):
        # a feasible pair: K_U + K_V = lift of a box point
        G = rng.standard_normal((bt.rank, bt.rank))
        A = project_box(G @ G.T / bt.rank)
        L = bt.lift_matrix
        K_U = L @ (0.6 * A) @ L.T
        K_V = L @ (0.3 * A) @ L.T
        KU, KV = symmetrize(K_U), symmetrize(K_V)
        S1, S2 = symmetrize(inst.Sigma1), symmetrize(inst.Sigma2)
        want = weighted(_weights(inst)[1], [logdet(M) for M in (
            KU + KV + S2, KU + KV + S1, KU + S1, KU + S2)])
        assert objective_common(K_U, K_V, inst) == want


@pytest.mark.parametrize("n,rank", [(1, None), (3, None), (4, 2)])
def test_rates_equal_their_separate_logdets(n, rank):
    inst = random_instance(n, 4, rank=rank)
    K_U = 0.4 * inst.K
    pt = rates_private(K_U, inst)
    ld1u = logdet(K_U + inst.Sigma1)
    ld2u = logdet(K_U + inst.Sigma2)
    assert pt.R1 == 0.5 * (ld1u - logdet(inst.Sigma1))
    assert pt.R2 == 0.5 * (logdet(inst.K + inst.Sigma2) - ld2u)
    assert pt.objective == ld1u - inst.lam * ld2u

    c = random_instance(n, 4, "common", rank=rank)
    K_U, K_V = 0.3 * c.K_C, 0.5 * c.K_C
    ld1_uv = logdet(K_U + K_V + c.Sigma1)
    ld2_uv = logdet(K_U + K_V + c.Sigma2)
    iwy = 0.5 * (logdet(c.K_C + c.Sigma1) - ld1_uv)
    iwz = 0.5 * (logdet(c.K_C + c.Sigma2) - ld2_uv)
    pt = rates_common(K_U, K_V, c)
    assert pt.R0 == c.alpha * iwy + (1.0 - c.alpha) * iwz
    assert pt.R1 == 0.5 * (logdet(K_U + c.Sigma1) - logdet(c.Sigma1))
    assert pt.R2 == 0.5 * (ld2_uv - logdet(K_U + c.Sigma2))


def _sym(M):
    return (M + M.T) / 2.0


def _reference_spg(A, H, w, steps):
    """SPG as written before it stacked its calls: every matrix inverted,
    factored and projected on its own, and the KKT projection apart from
    the next step's.  The Armijo factors are the transposed Cholesky
    factors C_i^T of inv(A + H_i), and the start's objective is
    -2 sum_i w_i sum log diag C_i.  Returns (A, G, kkt, f, alpha) after
    each step."""

    def gradient(A):
        Wi = [np.linalg.inv(A + Hi) for Hi in H]
        total = w[0] * Wi[0]
        for i in range(1, len(w)):
            total += w[i] * Wi[i]
        return _sym(total)

    def kkt(A, G):
        return float(np.linalg.norm(A - _project_reference(A + G)))

    def rise_of(t, mu, wts):
        return weighted(wts, np.log1p(t * mu).sum(axis=1).tolist())

    def factors(A):
        return [np.linalg.cholesky(np.linalg.inv(A + Hi)).T for Hi in H]

    G = gradient(A)
    Li = factors(A)
    f = -2.0 * weighted(w, [float(np.log(np.diag(L)).sum()) for L in Li])
    alpha = 1.0
    out = [(A, G, kkt(A, G), f, alpha)]
    for _ in range(steps):
        D = _project_reference(A + alpha * G) - A
        rise = float(np.vdot(G, D))
        mu = np.array([np.linalg.eigvalsh(L @ D @ L.T) for L in Li])
        noise = _ROUNDOFF * weighted([abs(wi) for wi in w],
                                     np.abs(mu).sum(axis=1).tolist())
        if not rise > noise:
            break
        t = 1.0
        size = float(np.linalg.norm(D))
        stalled = False
        while (change := rise_of(t, mu, w)) < _ARMIJO * t * rise:
            t *= 0.5
            if t * size <= np.finfo(float).eps:
                stalled = True
                break
        if stalled:
            break
        An = A + t * D
        Gn = gradient(An)
        Li = factors(An)
        s = t * D
        curv = -float(np.vdot(s, Gn - G))
        alpha = (min(max(float(np.vdot(s, s)) / curv, 1e-10), 1e10)
                 if curv > 0.0 else 1e10)
        f += change
        A, G = An, Gn
        out.append((A, G, kkt(A, G), f, alpha))
    return out


def _spg_cases():
    cases = []
    for n, rank, seed in ((2, None, 0), (3, None, 1), (5, None, 2), (5, 3, 3), (8, None, 4)):
        inst = random_instance(n, seed, rank=rank)
        box = build_box(inst.K, (inst.Sigma1, inst.Sigma2))
        cases.append(pytest.param(box.H, (1.0, -inst.lam), id=f"private-n{n}-r{rank}"))
    for n, seed in ((2, 1), (3, 0), (4, 2), (5, 3)):
        inst = random_instance(n, seed, "common")
        w_v, w_u = _weights(inst)
        K_V = inst.K_C / 4.0
        box = build_box(inst.K_C - K_V, (K_V + inst.Sigma2, K_V + inst.Sigma1,
                                         inst.Sigma1, inst.Sigma2))
        cases.append(pytest.param(box.H, w_u, id=f"common-ku-n{n}"))
        box = build_box(inst.K_C / 2.0, (inst.K_C / 2.0 + inst.Sigma2,
                                         inst.K_C / 2.0 + inst.Sigma1))
        cases.append(pytest.param(box.H, w_v, id=f"common-kv-n{n}"))
    return cases


@pytest.mark.parametrize("H,w", _spg_cases())
def test_spg_iterates_equal_the_per_matrix_formulas(H, w):
    r = H.shape[-1]
    A = 0.5 * np.eye(r)
    want = _reference_spg(A, H, w, 40)
    assert len(want) > 2
    ps = _Spg(A, H, w, 0.0)
    got = [(ps.A, ps.G, ps.kkt, ps.f, ps.alpha)]
    while len(got) < len(want) and ps.step() is not None:
        got.append((ps.A, ps.G, ps.kkt, ps.f, ps.alpha))
    assert len(got) == len(want)
    for (A1, G1, k1, f1, a1), (A2, G2, k2, f2, a2) in zip(got, want):
        assert np.array_equal(A1, A2)
        assert np.array_equal(G1, G2)
        assert (k1, f1, a1) == (k2, f2, a2)


def test_spg_start_off_the_pd_cone_is_a_breakdown():
    """A start with A + H_i invertible but not positive definite has no
    objective: building the pass raises, as solve_private's GBA record
    does."""
    H = np.stack((np.eye(2), -np.eye(2)))
    with pytest.raises(NumericalBreakdownError, match="lost positive definiteness"):
        _Spg(0.5 * np.eye(2), H, (1.0, -2.0), 1e-8)


def test_spg_defers_a_failed_cholesky_to_the_next_step():
    """An iterate with A + H_i invertible but not positive definite keeps
    its gradient and KKT residual; only a step from it raises.  The pass
    starts on a PD stack, which is then swapped for one whose second
    slice A + H_2 = A - 2I is negative definite at every point of the
    box."""
    A = 0.5 * np.eye(2)
    w = (1.0, -2.0)
    ps = _Spg(A, np.stack((np.eye(2), np.eye(2))), w, 0.0)
    ps.H = H = np.stack((np.eye(2), -2.0 * np.eye(2)))
    An = ps.step()
    assert An is not None and ps.Li is None
    G = _gradient(An, H, w)
    assert np.array_equal(ps.G, G)
    assert ps.kkt == _kkt(An, G)
    with pytest.raises(NumericalBreakdownError, match="lost positive definiteness"):
        ps.step()


def test_entry_points_that_take_one_matrix_reject_a_stack():
    """The public functions whose arguments are single matrices keep
    rejecting stacks with InvalidInputError now that the primitives
    under them take stacks."""
    inst = random_instance(2, 0)
    cinst = random_instance(2, 0, "common")
    red = reduce(inst)
    S = np.stack([0.3 * np.eye(2)] * 3)
    calls = {
        "rates_private": lambda: rates_private(S, inst),
        "rates_common": lambda: rates_common(S, 0.1 * np.eye(2), cinst),
        "weighted_rate_common": lambda: weighted_rate_common(0.1 * np.eye(2), S, cinst),
        "objective_common": lambda: objective_common(S, S, cinst),
        "objective_reduced": lambda: objective_reduced(S, red, inst.lam),
        "gradient_reduced": lambda: gradient_reduced(S, red, inst.lam),
        "loewner_leq": lambda: loewner_leq(S, S),
        "fd_gradient": lambda: fd_gradient(lambda X: 0.0, S),
    }
    for name, call in calls.items():
        with pytest.raises(InvalidInputError, match="square matrix"):
            call()
