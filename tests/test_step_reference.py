"""Two tiers of checks of the four step maps: bit for bit against plain
np.linalg references of the same arithmetic, and to 1e-12 relative
against the LU-inverse formulas of the paper.

Every step is the one kernel of gbc.private: from the eigenpairs (q, Q)
of A and the block gradient G = sum_i w_i inv(A + H_i) / kappa,
kappa = w[-2], it forms S = Q diag(c) Q^T - G, c = 1/q (GBA-P, K_V, K_U)
or 1/q - lam/(1 - q) (GBA-A), and maps the eigenvalues of one eigh of
S.  The steps invert A + H in one stacked call; each reference below
inverts every matrix on its own and follows the same arithmetic, so any
change to the arithmetic of a step shows up as a failed np.array_equal.

One SPG step (gbc.private._Spg) is pinned the same way, against a
reference written with np.stack, np.linalg.norm and project_box's eigh,
clip and rebuild, on the private stack and both solve_common block
stacks.  Its Armijo factors and start objective come from the Cholesky
factors of inv(A + H_i), as the step takes them; the property tests
below check them against the Cholesky factors of A + H_i and slogdet.

The LU oracles are the paper's maps: inv(A SigmaHat1^-1 A + A), inv(I - A)
and K_U's coupling through B_V' plus its barrier, each inverted directly,
projected with eigenvalues in descending order and contiguous
eigenvector copies.  The kernel's form follows from them by the two
identities gbc.private's docstring states; every step agrees with them
to 1e-12 relative on these interior points.
"""

import numpy as np
import pytest

from gbc import (
    box_transform,
    random_instance,
    reduce,
    transform,
)
from gbc.common import (
    _weights,
    ku_subproblem_step,
    kv_subproblem_step,
)
from gbc import _lapack, private
from gbc.private import _ARMIJO, _BB_MAX, _BB_MIN, _ROUNDOFF, FixedPoint, _Spg, gba_a_step
from gbc.psd import box_inverse, eigen_map, project_box
from gbc.reduction import schur_head

FLOOR = 1e-10
ORACLE_RTOL = 1e-12
inv = np.linalg.inv

# (n, rank of the constraint) -> reduced size r in {1, 2, 3, 5}; the
# rank-deficient draws take the Schur-complement path of the reduction
SHAPES = [(1, None), (2, None), (3, None), (5, None), (4, 2), (5, 3)]
SEEDS = [0, 1, 7]


def _sym(M):
    return (M + M.T) / 2.0


def _project(M):
    w, V = np.linalg.eigh(_sym(M))
    w = np.clip(w[::-1].copy(), FLOOR, 1.0)
    V = V[:, ::-1].copy()
    return _sym((V * w) @ V.T)


def _gradient(A, H, w):
    G = w[0] * inv(A + H[0])
    for wi, Hi in zip(w[1:], H[1:]):
        G += wi * inv(A + Hi)
    return _sym(G)


def _kernel(A, H, w, lam=None):
    """The step from A on the stack H and weights w: S = Q diag(c) Q^T
    minus the gradient of f/w[-2], then one eigh of S, its eigenvalues
    a mapped as GBA-P's (lam None) or GBA-A's (lam) map maps them, and
    the new iterate B B^T, B = V diag(sqrt(a))."""
    kappa = w[-2]
    q, Q = np.linalg.eigh(_sym(A))
    QC = Q / q if lam is None else Q * (1.0 / q - lam / (1.0 - q))
    S = _sym(QC @ Q.T - _gradient(A, H, [wi / kappa for wi in w]))
    sig, V = np.linalg.eigh(S)
    if lam is None:
        a = np.clip(1.0 / sig, FLOOR, 1.0)
    else:
        a = np.clip(_root(sig, lam), FLOOR, 1.0 - FLOOR)
    B = V * np.sqrt(a)
    return B @ B.T


def _root(b, lam):
    s = lam + 1.0 + b
    d = np.sqrt(s * s - 4.0 * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(s < 0.0, (s - d) / (2.0 * b), 2.0 / (s + d))
    return np.where(b == 0.0, 1.0 / (1.0 + lam), root)


def _lu_root(b, lam):
    s = lam + 1.0 + b
    return np.where(b == 0.0, 1.0 / (1.0 + lam), 2.0 / (s + np.sqrt(s * s - 4.0 * b)))


def _a_map(D_U, D_V, lam, root):
    """GBA-A's eigenvalue-wise rebuild from D_U - lam * D_V."""
    b, H = np.linalg.eigh(_sym(D_U - lam * D_V))
    a = np.clip(root(b, lam), FLOOR, 1.0 - FLOOR)
    return _sym((H * a) @ H.T)


def _close(got, oracle):
    return np.linalg.norm(got - oracle) <= ORACLE_RTOL * np.linalg.norm(oracle)


def _interior_point(rng, r):
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return (Q * rng.uniform(0.05, 0.95, r)) @ Q.T


def _case(n, rank, seed, kind):
    inst = random_instance(n, seed, kind, rank=rank)
    rng = np.random.default_rng(100 + seed)
    return inst, rng


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,rank", SHAPES)
def test_private_steps_match_reference(n, rank, seed):
    inst, rng = _case(n, rank, seed, "private")
    red = reduce(inst)
    lam = red.lam
    H1, H2 = red.SigmaHat1, red.SigmaHat2
    for _ in range(3):
        A = _sym(_interior_point(rng, red.rank))
        T = A @ inv(H1) @ A + A
        S = inv(T) + lam * inv(A + H2)
        H = np.stack((H1, H2))

        got_p = kv_subproblem_step(FixedPoint(A, H, (1.0, -lam)))
        assert np.array_equal(got_p, _kernel(A, H, (1.0, -lam)))
        assert _close(got_p, _project(inv(S)))

        got_a = gba_a_step(A, red, lam)
        assert np.array_equal(got_a, _kernel(A, H, (1.0, -lam), lam))
        D_V = inv(np.eye(red.rank) - A) - inv(A + H2)
        assert _close(got_a, _a_map(inv(T), D_V, lam, _lu_root))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,rank", SHAPES)
def test_common_steps_match_reference(n, rank, seed):
    inst, rng = _case(n, rank, seed, "common")
    bt = box_transform(inst.K_C)
    r = bt.rank
    K_V = 0.3 * inst.K_C
    S1h = schur_head(transform(bt, inst.Sigma1), r)
    S2h = schur_head(transform(bt, inst.Sigma2), r)
    M1h = schur_head(transform(bt, K_V + inst.Sigma2), r)
    M2h = schur_head(transform(bt, K_V + inst.Sigma1), r)
    BVp = transform(bt, K_V)[:r, :r]
    l0, l1, l2, alpha = inst.lambda0, inst.lambda1, inst.lambda2, inst.alpha
    w = _weights(inst)[1]
    for _ in range(3):
        A = _sym(_interior_point(rng, r))

        T = A @ inv(S2h) @ A + A
        S = inv(T) + 0.75 * inv(A + S1h)
        H = np.stack((S2h, S1h))
        got = kv_subproblem_step(FixedPoint(A, H, (1.0, -0.75)))
        assert np.array_equal(got, _kernel(A, H, (1.0, -0.75)))
        assert _close(got, _project(inv(S)))

        T = A @ inv(S1h) @ A + A
        M1i = inv(A + M1h)
        H = np.stack((M1h, M2h, S1h, S2h))
        got = ku_subproblem_step(FixedPoint(A, H, w))
        assert np.array_equal(got, _kernel(A, H, w))
        # the paper's form, with the weights written in lambda
        mid = (l2 / l1) * (inv(A + S2h) @ _sym(BVp) @ M1i)
        mid = (mid + mid.T) / 2.0
        last = (l0 / l1) * (alpha * inv(A + M2h) + (1.0 - alpha) * M1i)
        assert _close(got, _project(inv(inv(T) + mid + last)))


class _SpgReference:
    """One SPG pass in plain np.linalg arithmetic, each matrix of a stack
    inverted, factored and decomposed on its own: the start's objective
    f = sum_i w_i logdet(A + H_i) = -2 sum_i w_i sum log diag C_i, C_i the
    Cholesky factor of inv(A + H_i), its gradient G, projection P and KKT
    residual, then per step the Armijo backtrack on the rise
    sum_i w_i sum log1p(t mu_i), mu_i the eigenvalues of C_i^T D C_i, the
    BB length alpha and the next projection of the stack
    (A + G, A + alpha G)."""

    def __init__(self, A, H, w):
        self.H, self.w = H, w
        self.A = _sym(A)
        self.alpha = 1.0
        self.G, self.Li = self._factor(self.A)
        logdets = [-2.0 * float(np.log(np.diag(L)).sum()) for L in self.Li]
        self.f = w[0] * logdets[0]
        for wi, ld in zip(w[1:], logdets[1:]):
            self.f += wi * ld
        self.P = _project(self.A + self.G)
        self.kkt = float(np.linalg.norm(self.A - self.P))

    def _factor(self, A):
        Li = [np.linalg.cholesky(inv(A + Hi)).T for Hi in self.H]
        return _gradient(A, self.H, self.w), Li

    def step(self):
        A, G = self.A, self.G
        D = self.P - A
        rise = float(np.vdot(G, D))
        mu = [np.linalg.eigvalsh(L @ D @ L.T) for L in self.Li]
        noise = 0.0
        for i, (wi, m) in enumerate(zip(self.w, mu)):
            term = abs(wi) * float(np.abs(m).sum())
            noise = term if i == 0 else noise + term
        if not rise > _ROUNDOFF * noise:
            return None
        t = 1.0
        size = float(np.linalg.norm(D))

        def change(t):
            total = 0.0
            for i, (wi, m) in enumerate(zip(self.w, mu)):
                term = wi * float(np.log1p(t * m).sum())
                total = term if i == 0 else total + term
            return total

        while (c := change(t)) < _ARMIJO * t * rise:
            t *= 0.5
            if t * size <= np.finfo(float).eps:
                return None
        s = t * D
        An = A + s
        Gn, self.Li = self._factor(An)
        curv = -float(np.vdot(s, Gn - G))
        self.alpha = (min(max(float(np.vdot(s, s)) / curv, _BB_MIN), _BB_MAX)
                      if curv > 0.0 else _BB_MAX)
        self.f += c
        stack = np.stack((An + Gn, An + self.alpha * Gn))
        self.kkt = float(np.linalg.norm(An - _project(stack[0])))
        self.P = _project(stack[1])
        self.A, self.G = An, Gn
        return An


def _spg_stacks(n, rank, seed):
    """(name, H, w) of the private stack and both solve_common block
    stacks, the latter with the weights of _weights."""
    inst = random_instance(n, seed, rank=rank)
    red = reduce(inst)
    yield "private", red.H, (1.0, -red.lam)
    cinst = random_instance(n, seed, "common", rank=rank)
    bt = box_transform(cinst.K_C)
    r = bt.rank
    K = 0.3 * cinst.K_C
    heads = [schur_head(transform(bt, M), r)
             for M in (K + cinst.Sigma2, K + cinst.Sigma1, cinst.Sigma1, cinst.Sigma2)]
    w_v, w_u = _weights(cinst)
    yield "K_V", np.stack(heads[:2]), w_v
    yield "K_U", np.stack(heads), w_u


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,rank", SHAPES)
def test_spg_steps_match_reference(n, rank, seed):
    for name, H, w in _spg_stacks(n, rank, seed):
        A = _sym(_interior_point(np.random.default_rng(200 + seed), len(H[0])))
        ps, ref = _Spg(A, H, w, 0.0), _SpgReference(A, H, w)
        for steps in range(4):
            if steps:
                # a stall (None: no rise can be verified, as at an n = 1
                # optimum after two steps) leaves both passes unchanged
                got, want = ps.step(), ref.step()
                assert (got is None) == (want is None), (name, steps)
                assert steps > 1 or got is not None, name
            if steps in (0, 1, 3):
                for attr in ("A", "G", "P", "kkt", "alpha", "f"):
                    assert np.array_equal(getattr(ps, attr), getattr(ref, attr)), \
                        (name, steps, attr)


# n = 1..6, each full rank and (from n = 2) with a rank-deficient constraint
FACTOR_SHAPES = [(n, None) for n in range(1, 7)] + [(n, max(1, n // 2)) for n in range(2, 7)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,rank", FACTOR_SHAPES)
def test_spg_factors_match_the_cholesky_of_a_plus_h(n, rank, seed):
    """The Armijo factors Li = C^T, C C^T = inv(A + H_i), give the
    eigenvalues of L^-1 D L^-T, A + H_i = L L^T, and -2 sum log diag C
    is slogdet(A + H_i), each to 1e-12 relative; the pass's start
    objective is the weighted sum of those log-determinants."""
    for name, H, w in _spg_stacks(n, rank, seed):
        rng = np.random.default_rng(300 + seed)
        r = len(H[0])
        A = _sym(_interior_point(rng, r))
        D = _sym(rng.standard_normal((r, r)))
        ps = _Spg(A, H, w, 0.0)
        mu = np.linalg.eigvalsh(ps.Li @ D @ ps.Li.transpose(0, 2, 1))
        logdets = []
        for Li, m, Hi in zip(ps.Li, mu, H):
            L = inv(np.linalg.cholesky(A + Hi))
            want = np.linalg.eigvalsh(L @ D @ L.T)
            assert np.max(np.abs(m - want)) <= ORACLE_RTOL * np.max(np.abs(want)), name
            sign, ld = np.linalg.slogdet(A + Hi)
            assert sign == 1.0
            assert abs(-2.0 * np.log(np.diag(Li)).sum() - ld) <= ORACLE_RTOL * abs(ld), name
            logdets.append(ld)
        f = sum(wi * ld for wi, ld in zip(w, logdets))
        assert abs(ps.f - f) <= ORACLE_RTOL * sum(abs(wi * ld) for wi, ld in zip(w, logdets))


@pytest.mark.parametrize("name", ["private", "K_V", "K_U"])
def test_spg_step_factors_its_iterate_once(name, monkeypatch):
    """One SPG step inverts the k matrices A + H_i of its new iterate in
    one call, takes one Cholesky of the k-stack of their inverses and
    inverts no triangular factor."""
    H, w = next((H, w) for got, H, w in _spg_stacks(3, None, 0) if got == name)
    ps = _Spg(0.5 * np.eye(3), H, w, 0.0)
    inverted, factored = [], []

    def wrap(fn, seen):
        def call(M):
            seen.append(np.array(M))
            return fn(M)
        return call

    monkeypatch.setattr(private, "inv", wrap(private.inv, inverted))
    monkeypatch.setattr(_lapack, "cholesky", wrap(_lapack.cholesky, factored))
    assert ps.step() is not None
    k = len(H)
    assert [M.shape for M in inverted] == [(k, 3, 3)]
    assert [M.shape for M in factored] == [(k, 3, 3)]
    assert not any(np.array_equal(M, np.tril(M)) or np.array_equal(M, np.triu(M))
                   for M in inverted[0])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("r", [2, 5, 12])
def test_eigen_map_box_inverse_of_indefinite_matrix(r, seed):
    """An indefinite, nonsingular S: the inverse's negative eigenvalues
    clip to the floor, as they do through np.linalg.inv."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    sig = rng.uniform(0.2, 3.0, r) * rng.choice([-1.0, 1.0], r)
    sig[0] = -abs(sig[0])
    sig[-1] = abs(sig[-1])
    S = (Q * sig) @ Q.T
    P, (w, _) = eigen_map(S, box_inverse)
    oracle = project_box(inv(S))
    assert np.linalg.norm(P - oracle) <= ORACLE_RTOL * np.linalg.norm(oracle)
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(oracle), rtol=0, atol=1e-12)
    assert np.isclose(w.min(), FLOOR, rtol=0, atol=0)
