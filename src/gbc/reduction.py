"""Rank reduction of the covariance-constrained problem and the lift back.

A covariance constraint K confines the input covariance to the range of
K.  Congruence by Ktilde = Ltilde @ P.T (P, l from the eigendecomposition
of K, Ltilde rescaling the r positive directions) turns the constraint
set {0 <= K_U <= K} into the box {0 <= A_U <= I_r}.  Schur complements of
the transformed noise covariances absorb the orthogonal complement, and
the weighted logdet objective changes only by an additive constant, so
the reduced problem can be solved in r x r matrices and lifted back.

A region trace solves one channel (K, Sigma1, Sigma2) for many weights
lam, and the box does not depend on lam.  So PrivateInstance.validate
and reduce share one slot, a single entry that holds the lam-free
results of the latest channel: whether check_matrices passed, and the
Box of (K, (Sigma1, Sigma2)) with its eigenvalue-spread warning, each
filled the first time it is needed.  The key is the shape and byte
content of the float arrays K, Sigma1 and Sigma2, so equal matrices hit
even as fresh arrays and a matrix changed in place misses; a channel
with another key replaces the entry.  lam is never in the slot: its
range check, ReducedPrivate.lam and the offset are computed on every
call.  A failed check or reduction stores nothing, so it raises again on
the next call: a numerically zero K is re-derived by one eigh of K each
time.  The cached arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    InvalidInstanceError,
    number,
)
from .psd import RANK_EPS, SYM_TOL, _finite_sym, logdet, matrix, symmetrize

CONDITION_WARN = 1e12


def check_matrices(kname: str, K: np.ndarray, Sigma1: np.ndarray,
                   Sigma2: np.ndarray) -> None:
    """Raise InvalidInstanceError unless the square float arrays K, Sigma1
    and Sigma2 (an instance's fields) are finite, symmetric and n x n
    with n >= 1, K is positive semidefinite and both noise covariances
    are positive definite; kname labels K in the messages."""
    mats = {kname: K, "Sigma1": Sigma1, "Sigma2": Sigma2}
    n = len(K)
    if n == 0:
        raise InvalidInstanceError(f"{kname} is empty: an instance needs n >= 1")
    for name, M in mats.items():
        if M.shape != (n, n):
            raise InvalidInstanceError(f"{name} must be {n}x{n}, got {M.shape}")
        if not np.all(np.isfinite(M)):
            raise InvalidInstanceError(f"{name} has non-finite entries")
        if np.max(np.abs(M - M.T)) > SYM_TOL:
            raise InvalidInstanceError(f"{name} is not symmetric")
    wk = _lapack.eigvalsh(symmetrize(K))
    if wk.size and wk[0] < -1e-8 * max(1.0, abs(wk[-1])):
        raise InvalidInstanceError(
            f"{kname} must be positive semidefinite (min eigenvalue {wk[0]:.3e})"
        )
    for name in ("Sigma1", "Sigma2"):
        w = _lapack.eigvalsh(symmetrize(mats[name]))
        if w.size == 0 or w[0] <= RANK_EPS:
            raise InvalidInstanceError(f"{name} must be positive definite")


def check_box(A: np.ndarray, rank: int, decompose=None):
    """Read a reduced iterate A_U with gbc.psd.matrix as a rank x rank
    matrix (DimensionMismatchError naming both shapes otherwise),
    symmetrize it and verify it is in the [0, I] box up to slack 1e-8;
    raise InvalidInputError otherwise.  Returns the symmetrized matrix
    and decompose of it, by which the check reads its eigenvalues:
    eigvalsh's ascending eigenvalues when decompose is None, or with eigh
    the eigenpairs a fixed-point pass steps from.  lift and gba_a_step run
    it on the matrix they are handed, and every pass of the solvers on its
    start when it is built; a pass's own steps stay in the box."""
    A = matrix(A, "A_U", rank)
    A = (A + A.T) / 2.0
    d = _lapack.eigvalsh(A) if decompose is None else decompose(A)
    w = d[0] if isinstance(d, tuple) else d
    # written so that a NaN eigenvalue fails the test
    if w.size and not (-1e-8 <= w[0] and w[-1] <= 1.0 + 1e-8):
        raise InvalidInputError(
            f"A_U leaves the [0, I] box (eigenvalues in "
            f"[{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return A, d


# the slot's one entry: "key", then each part once filled
_slot: dict = {}


def _memo(inst, part: str, compute):
    """compute(), kept as `part` of the slot entry for inst's (K, Sigma1,
    Sigma2).  The entry is replaced, by one assignment, when its key
    differs; an exception from compute stores nothing.  Threads that race
    to fill a part store equal values, and one that finds the entry
    replaced keeps filling its own, so no lock is needed."""
    global _slot
    key = tuple((M.shape, M.tobytes()) for M in (inst.K, inst.Sigma1, inst.Sigma2))
    entry = _slot
    if entry.get("key") != key:
        entry = _slot = {"key": key}
    if part not in entry:
        entry[part] = compute()
    return entry[part]


def read_fields(inst, matrices: tuple[str, ...], weights: dict[str, str]) -> None:
    """Set each field of inst named in matrices to gbc.psd.matrix's float
    array, and each of weights to gbc.errors.number's float under its
    rule, with InvalidInstanceError as their error."""
    for k in matrices:
        object.__setattr__(inst, k, matrix(getattr(inst, k), k,
                                           error=InvalidInstanceError))
    for k, rule in weights.items():
        object.__setattr__(inst, k, number(getattr(inst, k), rule,
                                           error=InvalidInstanceError))


_LAM_RULE = "lam must be a finite weight > 1"


@dataclass(frozen=True)
class PrivateInstance:
    """Private-message problem data: maximize logdet(K_U + Sigma1)
    - lam * logdet(K_U + Sigma2) over 0 <= K_U <= K, with lam > 1.
    Building it (dataclasses.replace too) reads each field by read_fields;
    validate() checks their sizes, ranges and spectra."""

    K: np.ndarray
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        read_fields(self, ("K", "Sigma1", "Sigma2"), {"lam": _LAM_RULE})

    @property
    def n(self) -> int:
        return len(self.K)

    def validate(self) -> None:
        """Raise InvalidInstanceError unless the instance invariants hold."""
        _memo(self, "checked",
              lambda: check_matrices("K", self.K, self.Sigma1, self.Sigma2))
        if self.lam <= 1.0:
            raise InvalidInstanceError(f"{_LAM_RULE}, got {self.lam!r}")


@dataclass(frozen=True)
class BoxTransform:
    """Congruence data for one constraint matrix K.

    rank         number of eigenvalues of K above the rank threshold
    eigvals      all eigenvalues of K, descending
    Ktilde       n x n whitening congruence Ltilde @ P.T
    lift_matrix  n x rank map taking reduced variables back: P_r diag(sqrt l)
    """

    rank: int
    eigvals: np.ndarray
    Ktilde: np.ndarray
    lift_matrix: np.ndarray


def box_transform(K: np.ndarray) -> BoxTransform:
    """Build the congruence that maps {0 <= K_U <= K} onto {0 <= A_U <= I_r}.

    Raises DegenerateInstanceError when K is numerically zero.
    """
    l, P = _lapack.eigh(_finite_sym(K))
    n = len(l)
    # descending; contiguous copies keep the products below on BLAS
    l, P = l[::-1].copy(), P[:, ::-1].copy()
    rank = int(np.count_nonzero(l > RANK_EPS * max(l[0] if n else 0.0, 0.0)))
    if rank == 0:
        raise DegenerateInstanceError("constraint matrix is numerically zero")
    root = np.sqrt(l[:rank])
    scale = np.ones(n)
    scale[:rank] = 1.0 / root
    Ktilde = scale[:, None] * P.T
    lift_matrix = P[:, :rank] * root
    return BoxTransform(rank=rank, eigvals=l, Ktilde=Ktilde, lift_matrix=lift_matrix)


def transform(bt: BoxTransform, M: np.ndarray) -> np.ndarray:
    """Congruence Ktilde @ M @ Ktilde.T, symmetrized; of each matrix of
    M when M is a stack."""
    T = bt.Ktilde @ symmetrize(M) @ bt.Ktilde.T
    return (T + T.swapaxes(-1, -2)) / 2.0


def schur_head(Mt: np.ndarray, rank: int) -> np.ndarray:
    """Schur complement of the leading rank x rank block of Mt, or of
    each matrix of a stack Mt in one solve.

    For rank == n this is Mt itself; otherwise A - B C^{-1} B.T for the
    partition [[A, B], [B.T, C]].
    """
    n = Mt.shape[-1]
    if rank == n:
        return symmetrize(Mt)
    A = Mt[..., :rank, :rank]
    B = Mt[..., :rank, rank:]
    C = Mt[..., rank:, rank:]
    S = A - B @ _lapack.solve(C, B.swapaxes(-1, -2))
    return (S + S.swapaxes(-1, -2)) / 2.0


def weighted(w: tuple[float, ...], X) -> float | np.ndarray:
    """w[0] X[0] + w[1] X[1] + ..., summed in slice order; for the private
    weights (1, -lam) the bits of X[0] - lam X[1].  X is a stack of
    matrices or a list of floats (faster than numpy scalars)."""
    total = w[0] * X[0]
    for i in range(1, len(w)):
        total += w[i] * X[i]
    return total


@dataclass(frozen=True)
class Box:
    """A budget K's box {0 <= A <= I_r} with k noise matrices M_i
    compressed into it: the congruence `transform` of K, the (k, r, r)
    stack H of Schur heads of the transformed M_i, and `tails`, the
    log-determinants of their trailing (n - r) x (n - r) blocks."""

    transform: BoxTransform
    H: np.ndarray
    tails: tuple[float, ...]

    @property
    def rank(self) -> int:
        return self.transform.rank


def box_offset(box: Box, w: tuple[float, ...]) -> float:
    """The constant c with sum_i w_i logdet(lift(A) + M_i) =
    sum_i w_i logdet(A + H_i) + c for every A in the box:
    sum_i w_i tails_i + (sum_i w_i) * sum log l[:r]."""
    logl = float(np.sum(np.log(box.transform.eigvals[:box.rank])))
    return weighted(w, box.tails) + sum(w) * logl


def zero_floor(scale: float) -> float:
    """The zero-budget rule of both solvers: a budget whose spectral norm
    is at most RANK_EPS * (1 + scale) is numerically zero, scale being
    the spectral norm of the instance's constraint (K, or K_C)."""
    return RANK_EPS * (1.0 + scale)


def build_box(K: np.ndarray, stack, scale: float | None = None) -> Box:
    """The box of the budget K with the matrices of `stack` compressed
    into it.  Raises DegenerateInstanceError when K is numerically zero:
    no eigenvalue above the rank threshold, or a zero budget by
    zero_floor(scale), scale defaulting to K's own spectral norm (the
    private problem, whose budget is its constraint)."""
    bt = box_transform(K)
    l = bt.eigvals
    norm = max(l[0], -l[-1])
    if norm <= zero_floor(norm if scale is None else scale):
        raise DegenerateInstanceError("constraint matrix is numerically zero")
    r = bt.rank
    # one congruence, one Schur solve and one tail logdet for the stack
    mats = transform(bt, stack)
    # a full-rank budget leaves empty tails, whose logdet is 0
    tails = logdet(mats[:, r:, r:]).tolist() if r < l.size else [0.0] * len(mats)
    return Box(bt, schur_head(mats, r), tuple(tails))


@dataclass(frozen=True)
class ReducedPrivate(Box):
    """Reduced private problem: maximize logdet(A_U + SigmaHat1)
    - lam * logdet(A_U + SigmaHat2) over 0 <= A_U <= I, the box of K
    with the stack (Sigma1, Sigma2)."""

    lam: float
    warnings: tuple[str, ...] = ()

    @property
    def SigmaHat1(self) -> np.ndarray:
        return self.H[0]

    @property
    def SigmaHat2(self) -> np.ndarray:
        return self.H[1]

    @property
    def offset(self) -> float:
        return box_offset(self, (1.0, -self.lam))


def _private_box(inst: PrivateInstance) -> tuple[Box, tuple[str, ...]]:
    """The read-only box of (K, (Sigma1, Sigma2)) and its warnings; a
    numerically zero K raises DegenerateInstanceError."""
    box = build_box(inst.K, (inst.Sigma1, inst.Sigma2))
    bt = box.transform
    for M in (bt.eigvals, bt.Ktilde, bt.lift_matrix, box.H):
        M.flags.writeable = False
    warnings: list[str] = []
    l = bt.eigvals
    # full-spectrum check: strictly positive but ill-conditioned K loses
    # accuracy in the congruence (exact zeros are the clean reduced case)
    dust = 100.0 * np.finfo(float).eps * max(float(l[0]), 0.0)
    if float(l[-1]) > dust and float(l[0]) / float(l[-1]) > CONDITION_WARN:
        warnings.append(
            "constraint eigenvalue spread exceeds 1e12; reduction may lose accuracy"
        )
    return box, tuple(warnings)


def reduce(inst: PrivateInstance) -> ReducedPrivate:
    """Reduce a validated private instance to its r x r box form.

    The returned offset makes the objectives agree exactly:
    objective(lift(A_U)) = reduced objective(A_U) + offset for every
    feasible A_U.  The box comes from the channel slot; its arrays are
    read-only.  A numerically zero K raises DegenerateInstanceError.
    """
    box, warnings = _memo(inst, "box", lambda: _private_box(inst))
    return ReducedPrivate(box.transform, box.H, box.tails, inst.lam, warnings)


def lift(bt: BoxTransform, A_U: np.ndarray) -> np.ndarray:
    """Map a reduced variable back to the original coordinates.

    A_U must sit in the [0, I] box up to slack 1e-8.
    """
    A_U, _ = check_box(A_U, bt.rank)
    K = bt.lift_matrix @ A_U @ bt.lift_matrix.T
    return (K + K.T) / 2.0
