"""Symmetric positive semidefinite primitives shared by all solvers.

Every function here treats its matrix arguments as symmetric: inputs are
folded to (M + M.T)/2 before use and outputs are folded the same way, so
exact symmetry is preserved through chains of operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
)


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the package.

    rank_eps
        Threshold for treating an eigenvalue as zero.  Rank detection in
        the reduction treats it relative to the largest eigenvalue of the
        constraint; the positive-definite gate in :func:`logdet` uses it
        as an absolute floor (instances here are trace-normalized).
    pd_floor
        Lower clamp applied when projecting onto the [0, I] box.  Keeps
        iterates invertible so the fixed-point maps stay defined.
    sym_tol
        Largest asymmetry accepted from external input before folding.
    """

    rank_eps: float = 1e-9
    pd_floor: float = 1e-10
    sym_tol: float = 1e-8


DEFAULT_TOL = Tolerances()


class EigenPair(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order."""

    values: np.ndarray
    vectors: np.ndarray


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M.T)/2 as a float array.

    IEEE addition commutes, so the result is exactly symmetric entrywise.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    return (M + M.T) / 2.0


def eig_sym(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> EigenPair:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvectors as columns, so (vectors * values) @ vectors.T rebuilds M.
    """
    S = symmetrize(M)
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("matrix has non-finite entries")
    w, V = np.linalg.eigh(S)
    return EigenPair(w[::-1].copy(), V[:, ::-1].copy())


def logdet(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Natural-log determinant of a symmetric positive definite matrix.

    Computed as the sum of eigenvalue logs.  Raises
    NotPositiveDefiniteError when the smallest eigenvalue is at or below
    tol.rank_eps.
    """
    w = eig_sym(M, tol).values
    if w.size == 0:
        return 0.0
    if w[-1] <= tol.rank_eps:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {w[-1]:.3e})"
        )
    return float(np.sum(np.log(w)))


def project_box(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Project a symmetric matrix onto the box {X : 0 <= X <= I}.

    Eigenvalues are clipped to [tol.pd_floor, 1]; the floor keeps the
    result invertible.  Same arithmetic as clipping the eig_sym pair,
    without its wrapper calls: this runs once per solver step.
    """
    S = symmetrize(M)
    if not np.isfinite(S).all():
        raise InvalidInputError("matrix has non-finite entries")
    w, V = np.linalg.eigh(S)
    w = np.minimum(np.maximum(w[::-1], tol.pd_floor), 1.0)
    # a contiguous copy keeps the product on the same BLAS path as eig_sym
    V = V[:, ::-1].copy()
    P = (V * w) @ V.T
    return (P + P.T) / 2.0


def loewner_leq(A: np.ndarray, B: np.ndarray, slack: float = 1e-8) -> bool:
    """Whether A <= B in the Loewner order, up to slack.

    True when the smallest eigenvalue of B - A is >= -slack.
    """
    A = symmetrize(A)
    B = symmetrize(B)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shapes {A.shape} and {B.shape} differ")
    if A.shape[0] == 0:
        return True
    return bool(np.linalg.eigvalsh(B - A)[0] >= -slack)


def spectral_norm(M: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    S = symmetrize(M)
    if S.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(S))))
