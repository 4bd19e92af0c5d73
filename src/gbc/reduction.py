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
results of the last channel seen: whether check_matrices passed, and the
Box of (K, (Sigma1, Sigma2)) with its eigenvalue-spread warning (or the
fact that K is numerically zero), each filled the first time it is
needed.  The key is the shape and byte content of np.asarray(M, float)
for K, Sigma1 and Sigma2, so equal matrices hit even as fresh arrays and
a matrix changed in place misses; a channel with another key replaces
the entry.  lam is never in the slot: its range check, ReducedPrivate.lam
and the offset are computed on every call.  A failed check stores
nothing, so it raises again on the next call, and the cached arrays are
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    InvalidInstanceError,
    number,
)
from .psd import RANK_EPS, SYM_TOL, _finite_sym, logdet, symmetrize

CONDITION_WARN = 1e12


def check_matrices(kname: str, K: np.ndarray, Sigma1: np.ndarray,
                   Sigma2: np.ndarray) -> None:
    """Raise InvalidInstanceError unless K, Sigma1 and Sigma2 are finite,
    symmetric and n x n with n >= 1, K is positive semidefinite and both
    noise covariances are positive definite; kname labels K in the
    messages."""
    mats = {kname: K, "Sigma1": Sigma1, "Sigma2": Sigma2}
    shape = np.shape(K)
    if len(shape) != 2:
        raise InvalidInstanceError(f"{kname} must be a 2-D matrix, got shape {shape}")
    n = int(shape[0])
    if n == 0:
        raise InvalidInstanceError(f"{kname} is empty: an instance needs n >= 1")
    for name, M in mats.items():
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            raise InvalidInstanceError(f"{name} must be {n}x{n}, got {M.shape}")
        if not np.all(np.isfinite(M)):
            raise InvalidInstanceError(f"{name} has non-finite entries")
        if np.max(np.abs(M - M.T)) > SYM_TOL:
            raise InvalidInstanceError(f"{name} is not symmetric")
    wk = np.linalg.eigvalsh(symmetrize(K))
    if wk.size and wk[0] < -1e-8 * max(1.0, abs(wk[-1])):
        raise InvalidInstanceError(
            f"{kname} must be positive semidefinite (min eigenvalue {wk[0]:.3e})"
        )
    for name in ("Sigma1", "Sigma2"):
        w = np.linalg.eigvalsh(symmetrize(mats[name]))
        if w.size == 0 or w[0] <= RANK_EPS:
            raise InvalidInstanceError(f"{name} must be positive definite")


def check_box(A: np.ndarray, rank: int) -> np.ndarray:
    """Symmetrize a reduced iterate and verify it is rank x rank, finite
    and in the [0, I] box up to slack 1e-8; raise InvalidInputError
    otherwise.  lift, gba_a_step and the common block steps run it on
    every matrix they are handed, except that a block step skips the
    iterate its own pass made (common.kv_subproblem_step says why), so
    a block solve checks only its warm start.  It skips symmetrize's
    wrapper (the shape test here covers its squareness test)."""
    A = np.asarray(A, dtype=float)
    if A.shape != (rank, rank):
        raise InvalidInputError(
            f"reduced iterate must be {rank}x{rank}, got {A.shape}"
        )
    A = (A + A.T) / 2.0
    # LAPACK can return finite eigenvalues for a matrix holding NaN
    if not np.isfinite(A).all():
        raise InvalidInputError("reduced iterate has non-finite entries")
    w = np.linalg.eigvalsh(A)
    # written so that a NaN eigenvalue fails the test
    if w.size and not (-1e-8 <= w[0] and w[-1] <= 1.0 + 1e-8):
        raise InvalidInputError(
            f"reduced iterate leaves the [0, I] box (eigenvalues in "
            f"[{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return A


# the slot's one entry: "key", then each part once filled
_slot: dict = {}


def _memo(inst, part: str, compute):
    """compute(), kept as `part` of the slot entry for inst's (K, Sigma1,
    Sigma2).  The entry is replaced, by one assignment, when its key
    differs; an exception from compute stores nothing, and matrices that
    do not convert to float arrays skip the slot.  Threads that race to
    fill a part store equal values, and one that finds the entry
    replaced keeps filling its own, so no lock is needed."""
    global _slot
    try:
        mats = [np.asarray(M, dtype=float) for M in (inst.K, inst.Sigma1, inst.Sigma2)]
    except (TypeError, ValueError, OverflowError):
        return compute()
    key = tuple((M.shape, M.tobytes()) for M in mats)
    entry = _slot
    if entry.get("key") != key:
        entry = _slot = {"key": key}
    if part not in entry:
        entry[part] = compute()
    return entry[part]


@dataclass(frozen=True)
class PrivateInstance:
    """Private-message problem data: maximize logdet(K_U + Sigma1)
    - lam * logdet(K_U + Sigma2) over 0 <= K_U <= K, with lam > 1."""

    K: np.ndarray
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return int(np.asarray(self.K).shape[0])

    def validate(self) -> None:
        """Raise InvalidInstanceError unless the instance invariants hold."""
        _memo(self, "checked",
              lambda: check_matrices("K", self.K, self.Sigma1, self.Sigma2))
        rule = "lam must be a finite weight > 1"
        if number(self.lam, rule, error=InvalidInstanceError) <= 1.0:
            raise InvalidInstanceError(f"{rule}, got {self.lam!r}")


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
    n = np.asarray(K).shape[0]
    l, P = np.linalg.eigh(_finite_sym(K))
    # descending; contiguous copies keep the products below on BLAS
    l, P = l[::-1].copy(), P[:, ::-1].copy()
    rank = int(np.sum(l > RANK_EPS * max(l[0] if l.size else 0.0, 0.0)))
    if rank == 0:
        raise DegenerateInstanceError("constraint matrix is numerically zero")
    scale = np.ones(n)
    scale[:rank] = 1.0 / np.sqrt(l[:rank])
    Ktilde = scale[:, None] * P.T
    lift_matrix = P[:, :rank] * np.sqrt(l[:rank])[None, :]
    return BoxTransform(rank=rank, eigvals=l, Ktilde=Ktilde, lift_matrix=lift_matrix)


def transform(bt: BoxTransform, M: np.ndarray) -> np.ndarray:
    """Congruence Ktilde @ M @ Ktilde.T, symmetrized; of each matrix of
    M when M is a stack."""
    return symmetrize(bt.Ktilde @ symmetrize(M) @ bt.Ktilde.T)


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
    return symmetrize(A - B @ np.linalg.solve(C, B.swapaxes(-1, -2)))


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


def build_box(K: np.ndarray, stack, floor: float = 0.0) -> Box:
    """The box of the budget K with the matrices of `stack` compressed
    into it.  Raises DegenerateInstanceError when K is numerically zero:
    no eigenvalue above the rank threshold, or none of absolute value
    above `floor`."""
    bt = box_transform(K)
    l = bt.eigvals
    if max(l[0], -l[-1]) <= floor:
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


def _private_box(inst: PrivateInstance) -> tuple[Box, tuple[str, ...]] | str:
    """The read-only box of (K, (Sigma1, Sigma2)) and its warnings, or the
    message of the DegenerateInstanceError a numerically zero K raises."""
    try:
        box = build_box(inst.K, (inst.Sigma1, inst.Sigma2))
    except DegenerateInstanceError as e:
        return str(e)
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
    read-only.
    """
    entry = _memo(inst, "box", lambda: _private_box(inst))
    if isinstance(entry, str):
        raise DegenerateInstanceError(entry)
    box, warnings = entry
    return ReducedPrivate(box.transform, box.H, box.tails, float(inst.lam), warnings)


def lift(bt: BoxTransform, A_U: np.ndarray) -> np.ndarray:
    """Map a reduced variable back to the original coordinates.

    A_U must sit in the [0, I] box up to slack 1e-8.
    """
    A_U = check_box(A_U, bt.rank)
    return symmetrize(bt.lift_matrix @ A_U @ bt.lift_matrix.T)
