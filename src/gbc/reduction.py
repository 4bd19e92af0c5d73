"""Rank reduction of the covariance-constrained problem and the lift back.

A covariance constraint K confines the input covariance to the range of
K.  Congruence by Ktilde = Ltilde @ P.T (P, l from the eigendecomposition
of K, Ltilde rescaling the r positive directions) turns the constraint
set {0 <= K_U <= K} into the box {0 <= A_U <= I_r}.  Schur complements of
the transformed noise covariances absorb the orthogonal complement, and
the weighted logdet objective changes only by an additive constant, so
the reduced problem can be solved in r x r matrices and lifted back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    InvalidInstanceError,
)
from .psd import RANK_EPS, SYM_TOL, _finite_sym, logdet, symmetrize

CONDITION_WARN = 1e12


def check_matrices(kname: str, K: np.ndarray, Sigma1: np.ndarray,
                   Sigma2: np.ndarray) -> None:
    """Raise InvalidInstanceError unless K, Sigma1 and Sigma2 are finite,
    symmetric and n x n, K is positive semidefinite and both noise
    covariances are positive definite; kname labels K in the messages."""
    mats = {kname: K, "Sigma1": Sigma1, "Sigma2": Sigma2}
    shape = np.shape(K)
    if len(shape) != 2:
        raise InvalidInstanceError(f"{kname} must be a 2-D matrix, got shape {shape}")
    n = int(shape[0])
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
    otherwise.  Runs once per solver step, so it skips symmetrize's
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
        check_matrices("K", self.K, self.Sigma1, self.Sigma2)
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 1.0:
            raise InvalidInstanceError(
                f"lam must be a finite weight > 1, got {lam}"
            )


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


@dataclass(frozen=True)
class ReducedPrivate:
    """Reduced private problem: maximize logdet(A_U + SigmaHat1)
    - lam * logdet(A_U + SigmaHat2) over 0 <= A_U <= I."""

    SigmaHat1: np.ndarray
    SigmaHat2: np.ndarray
    lam: float
    offset: float
    transform: BoxTransform
    warnings: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return self.transform.rank


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
    """Congruence Ktilde @ M @ Ktilde.T, symmetrized."""
    return symmetrize(bt.Ktilde @ symmetrize(M) @ bt.Ktilde.T)


def schur_head(Mt: np.ndarray, rank: int) -> np.ndarray:
    """Schur complement of the leading rank x rank block of Mt.

    For rank == n this is Mt itself; otherwise A - B C^{-1} B.T for the
    partition [[A, B], [B.T, C]].
    """
    n = Mt.shape[0]
    if rank == n:
        return symmetrize(Mt)
    A = Mt[:rank, :rank]
    B = Mt[:rank, rank:]
    C = Mt[rank:, rank:]
    return symmetrize(A - B @ np.linalg.solve(C, B.T))


def reduce(inst: PrivateInstance) -> ReducedPrivate:
    """Reduce a validated private instance to its r x r box form.

    The returned offset makes the objectives agree exactly:
    objective(lift(A_U)) = reduced objective(A_U) + offset for every
    feasible A_U.
    """
    bt = box_transform(inst.K)
    r = bt.rank
    warnings: list[str] = []
    l = bt.eigvals
    # full-spectrum check: strictly positive but ill-conditioned K loses
    # accuracy in the congruence (exact zeros are the clean reduced case)
    dust = 100.0 * np.finfo(float).eps * max(float(l[0]), 0.0)
    if float(l[-1]) > dust and float(l[0]) / float(l[-1]) > CONDITION_WARN:
        warnings.append(
            "constraint eigenvalue spread exceeds 1e12; reduction may lose accuracy"
        )
    St1 = transform(bt, inst.Sigma1)
    St2 = transform(bt, inst.Sigma2)
    lam = float(inst.lam)
    offset = logdet(St1[r:, r:]) - lam * logdet(St2[r:, r:])
    offset -= (lam - 1.0) * float(np.sum(np.log(bt.eigvals[:r])))
    return ReducedPrivate(
        SigmaHat1=schur_head(St1, r),
        SigmaHat2=schur_head(St2, r),
        lam=lam,
        offset=offset,
        transform=bt,
        warnings=tuple(warnings),
    )


def lift(bt: BoxTransform, A_U: np.ndarray) -> np.ndarray:
    """Map a reduced variable back to the original coordinates.

    A_U must sit in the [0, I] box up to slack 1e-8.
    """
    A_U = check_box(A_U, bt.rank)
    return symmetrize(bt.lift_matrix @ A_U @ bt.lift_matrix.T)
