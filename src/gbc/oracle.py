"""Ground-truth generators: dense grid searches, finite differences,
seeded random instances.

The grid searches are brute-force maximizers used to validate the
solvers on the dimensions where exhaustive enumeration is affordable
(2x2 private, scalar common).  Each result carries a resolution bound:
a Lipschitz-constant-times-covering-radius estimate of how far the grid
best can sit below the true optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .common import CommonInstance, _weights
from .errors import InvalidInputError, UnsupportedDimensionError, number
from .psd import matrix, symmetrize
from .reduction import PrivateInstance

# grid points violating a constraint by more than this are infeasible
FEASIBILITY_SLACK = 1e-9
# central-difference step of fd_gradient
FD_STEP = 1e-5


@dataclass(frozen=True)
class GridSpec:
    """Grid density for the brute-force searches."""

    resolution: int = 400

    def __post_init__(self) -> None:
        rule = "resolution must be a whole number, at least 2"
        if (res := number(self.resolution, rule, whole=True)) < 2:
            raise InvalidInputError(f"{rule}, got {self.resolution!r}")
        object.__setattr__(self, "resolution", res)


@dataclass(frozen=True)
class OracleResult:
    """Best feasible grid point and a bound on its gap to the optimum."""

    best_KU: np.ndarray
    best_objective: float
    resolution_bound: float
    best_KV: np.ndarray | None = None


def _min_eig_2x2(m11, m22, m12):
    """Smallest eigenvalue of [[m11, m12], [m12, m22]], vectorized."""
    half = (m11 + m22) / 2.0
    return half - np.sqrt(((m11 - m22) / 2.0) ** 2 + m12 ** 2)


def grid_search_private_2x2(inst: PrivateInstance, spec: GridSpec = GridSpec()) -> OracleResult:
    """Exhaustive search over 2x2 private covariances.

    Sweeps K_U = [[a, b], [b, c]] with a, c on axis grids over [0, K_ii]
    and b = t * sqrt(a*c) for t on a grid over [-1, 1], keeps candidates
    with 0 <= K_U <= K up to the feasibility slack, and returns the
    feasible maximizer.  Ties resolve to the lexicographically smallest
    grid index, so results are deterministic.
    """
    if inst.n != 2:
        raise UnsupportedDimensionError(
            f"the private grid oracle supports n = 2 only, got n = {inst.n}"
        )
    inst.validate()
    K = symmetrize(inst.K)
    S1 = symmetrize(inst.Sigma1)
    S2 = symmetrize(inst.Sigma2)
    lam = inst.lam
    res = spec.resolution

    avals = np.linspace(0.0, K[0, 0], res)
    cvals = np.linspace(0.0, K[1, 1], res)[:, None]
    tvals = np.linspace(-1.0, 1.0, res)[None, :]

    best_val = -np.inf
    best_abc = (0.0, 0.0, 0.0)
    for a in avals:
        b = tvals * np.sqrt(a * cvals)
        ku_min = _min_eig_2x2(a, cvals + np.zeros_like(b), b)
        d_min = _min_eig_2x2(K[0, 0] - a, K[1, 1] - cvals + np.zeros_like(b),
                             K[0, 1] - b)
        det1 = (a + S1[0, 0]) * (cvals + S1[1, 1]) - (b + S1[0, 1]) ** 2
        det2 = (a + S2[0, 0]) * (cvals + S2[1, 1]) - (b + S2[0, 1]) ** 2
        vals = np.log(det1) - lam * np.log(det2)
        vals[(ku_min < -FEASIBILITY_SLACK) | (d_min < -FEASIBILITY_SLACK)] = -np.inf
        idx = int(np.argmax(vals))
        v = float(vals.flat[idx])
        if v > best_val:
            best_val = v
            best_abc = (float(a), float(b.flat[idx]), float(cvals.flat[idx // res]))

    a, b, c = best_abc
    bound = _private_resolution_bound(K, S1, S2, lam, res)
    return OracleResult(
        best_KU=np.array([[a, b], [b, c]]),
        best_objective=best_val,
        resolution_bound=bound,
    )


def _private_resolution_bound(K, S1, S2, lam, res):
    """Lipschitz constant times half-cell covering radius of the (a, b, c) grid."""
    lip = np.sqrt(2.0) * (1.0 / _lapack.eigvalsh(S1)[0]
                          + lam / _lapack.eigvalsh(S2)[0])
    da = K[0, 0] / (2.0 * (res - 1))
    dc = K[1, 1] / (2.0 * (res - 1))
    db = np.sqrt(K[0, 0] * K[1, 1]) / (res - 1)
    return float(lip * np.sqrt(da ** 2 + 2.0 * db ** 2 + dc ** 2))


def grid_search_common_scalar(inst: CommonInstance, spec: GridSpec = GridSpec(resolution=2000)) -> OracleResult:
    """Exhaustive search over scalar (k_U, k_V) with k_U + k_V <= K_C."""
    if inst.n != 1:
        raise UnsupportedDimensionError(
            f"the common grid oracle supports n = 1 only, got n = {inst.n}"
        )
    inst.validate()
    kc, s1, s2 = (M.item() for M in (inst.K_C, inst.Sigma1, inst.Sigma2))
    w_v, w_u = _weights(inst)
    c2, c1, l2p = w_v[0], -w_v[1], -w_u[3]
    res = spec.resolution

    ku = np.linspace(0.0, kc, res)
    kv = np.linspace(0.0, kc, res)[None, :]

    best_val = -np.inf
    best_pair = (0.0, 0.0)
    block = 256
    for lo in range(0, res, block):
        u = ku[lo:lo + block][:, None]
        s = u + kv
        vals = (c2 * np.log(s + s2) - c1 * np.log(s + s1)
                + np.log(u + s1) - l2p * np.log(u + s2))
        vals[s > kc + FEASIBILITY_SLACK] = -np.inf
        idx = int(np.argmax(vals))
        v = float(vals.flat[idx])
        if v > best_val:
            best_val = v
            best_pair = (float(u.flat[idx // res]), float(kv.flat[idx % res]))

    h = kc / (res - 1) if res > 1 else 0.0
    lip_u = c2 / s2 + c1 / s1 + 1.0 / s1 + l2p / s2
    lip_v = c2 / s2 + c1 / s1
    return OracleResult(
        best_KU=np.array([[best_pair[0]]]),
        best_objective=best_val,
        resolution_bound=float((lip_u + lip_v) * h),
        best_KV=np.array([[best_pair[1]]]),
    )


def fd_gradient(f, X: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar field over symmetric matrices.

    Each entry is perturbed by FD_STEP.  Off-diagonal entries are
    perturbed symmetrically at (i, j) and (j, i) together and the
    directional derivative is halved, matching the convention
    df = trace(G dX) for symmetric dX.
    """
    X = symmetrize(matrix(X, "X"))
    n = X.shape[0]
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = FD_STEP
            E[j, i] = FD_STEP
            d = (f(X + E) - f(X - E)) / (2.0 * FD_STEP)
            if i == j:
                G[i, i] = d
            else:
                G[i, j] = G[j, i] = d / 2.0
    return G


def random_instance(n: int, seed: int, kind: str = "private", *,
                    lam: float | None = None, rank: int | None = None):
    """Seeded random instance with a documented ensemble.  n >= 1,
    seed >= 0 and rank >= 1 are whole numbers, each read by
    gbc.errors.number (2.0 is whole; a bool never a number), and lam is
    read as PrivateInstance reads it; a common instance takes no lam.

    K = G G^T + 0.1 I (standard normal G) scaled to trace n; passing rank
    r < n instead uses the first r columns of G with no ridge, giving an
    exactly rank-deficient constraint.  Sigma_j = G_j G_j^T + 0.5 I.  For
    private instances lam defaults to a uniform draw from [1.1, 5]; common
    instances take (lambda0, lambda1, lambda2, alpha) = (1.2, 1.0, 1.1, 0.5).
    """
    rule = "n must be a whole number >= 1"
    if (n := number(n, rule, whole=True)) < 1:
        raise InvalidInputError(f"{rule}, got {n}")
    rule = "seed must be a whole number >= 0"
    if (seed := number(seed, rule, whole=True)) < 0:
        raise InvalidInputError(f"{rule}, got {seed}")
    rule = "rank must be a whole number >= 1"
    if rank is not None and (rank := number(rank, rule, whole=True)) < 1:
        raise InvalidInputError(f"{rule}, got {rank}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    if rank is not None and rank < n:
        K = G[:, :rank] @ G[:, :rank].T
    else:
        K = G @ G.T + 0.1 * np.eye(n)
    K = symmetrize(K * (n / np.trace(K)))
    G1 = rng.standard_normal((n, n))
    S1 = symmetrize(G1 @ G1.T + 0.5 * np.eye(n))
    G2 = rng.standard_normal((n, n))
    S2 = symmetrize(G2 @ G2.T + 0.5 * np.eye(n))
    if kind == "private":
        if lam is None:
            lam = 1.1 + 3.9 * float(rng.uniform())
        inst = PrivateInstance(K=K, Sigma1=S1, Sigma2=S2, lam=lam)
    elif kind == "common":
        if lam is not None:
            raise InvalidInputError("lam applies to private instances only; "
                                    "kind='common' takes no lam")
        inst = CommonInstance(K_C=K, Sigma1=S1, Sigma2=S2,
                              lambda0=1.2, lambda1=1.0, lambda2=1.1, alpha=0.5)
    else:
        raise InvalidInputError(f"kind must be 'private' or 'common', got {kind!r}")
    inst.validate()
    return inst
