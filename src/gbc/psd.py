"""Symmetric positive semidefinite primitives shared by all solvers.

Every function here treats its matrix arguments as symmetric: inputs are
folded to (M + M.T)/2 before use and outputs are folded the same way, so
exact symmetry is preserved through chains of operations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
)


# Threshold for treating an eigenvalue as zero.  Rank detection in the
# reduction applies it relative to the largest eigenvalue of the
# constraint; the positive-definite gates apply it as an absolute floor
# (instances here are trace-normalized).
RANK_EPS = 1e-9
# Lower clamp of the [0, I] box projection; keeps iterates invertible so
# the fixed-point maps stay defined.
PD_FLOOR = 1e-10
# Largest asymmetry accepted from external input before folding.
SYM_TOL = 1e-8


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


def _finite_sym(M: np.ndarray) -> np.ndarray:
    """symmetrize(M), raising InvalidInputError on NaN or inf entries:
    LAPACK can return finite eigenvalues for a matrix holding NaN."""
    S = symmetrize(M)
    if not np.isfinite(S).all():
        raise InvalidInputError("matrix has non-finite entries")
    return S


def eig_sym(M: np.ndarray) -> EigenPair:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvectors as columns, so (vectors * values) @ vectors.T rebuilds M.
    """
    w, V = np.linalg.eigh(_finite_sym(M))
    return EigenPair(w[::-1].copy(), V[:, ::-1].copy())


def logdet(M: np.ndarray) -> float:
    """Natural-log determinant of a symmetric positive definite matrix.

    Computed as the sum of eigenvalue logs.  Raises
    NotPositiveDefiniteError when the smallest eigenvalue is at or below
    RANK_EPS.
    """
    w = eig_sym(M).values
    if w.size == 0:
        return 0.0
    if w[-1] <= RANK_EPS:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {w[-1]:.3e})"
        )
    return float(np.sum(np.log(w)))


def project_box(M: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the box {X : 0 <= X <= I}.

    Eigenvalues are clipped to [PD_FLOOR, 1]; the floor keeps the
    result invertible.  Same arithmetic as clipping the eig_sym pair,
    without its wrapper calls: this runs once per solver step.
    """
    w, V = np.linalg.eigh(_finite_sym(M))
    w = np.minimum(np.maximum(w[::-1], PD_FLOOR), 1.0)
    # a contiguous copy keeps the product on the same BLAS path as eig_sym
    V = V[:, ::-1].copy()
    P = (V * w) @ V.T
    return (P + P.T) / 2.0


def loewner_leq(A: np.ndarray, B: np.ndarray, slack: float = 1e-8) -> bool:
    """Whether A <= B in the Loewner order, up to slack.

    True when the smallest eigenvalue of B - A is >= -slack.  Raises
    InvalidInputError on non-finite input.
    """
    A = _finite_sym(A)
    B = _finite_sym(B)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shapes {A.shape} and {B.shape} differ")
    if A.shape[0] == 0:
        return True
    return bool(np.linalg.eigvalsh(B - A)[0] >= -slack)


def spectral_norm(M: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.  Raises
    InvalidInputError on non-finite input."""
    S = _finite_sym(M)
    if S.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(S))))
