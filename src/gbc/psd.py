"""Symmetric positive semidefinite primitives shared by all solvers.

Every function here treats its matrix arguments as symmetric: inputs are
folded to (M + M.T)/2 before use and outputs are folded the same way, so
exact symmetry is preserved through chains of operations.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalBreakdownError,
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


def logdet(M: np.ndarray) -> float:
    """Natural-log determinant of a symmetric positive definite matrix.

    Computed as the sum of eigenvalue logs.  Raises
    NotPositiveDefiniteError when the smallest eigenvalue is at or below
    RANK_EPS.
    """
    w = np.linalg.eigvalsh(_finite_sym(M))
    if w.size == 0:
        return 0.0
    if w[0] <= RANK_EPS:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return float(np.sum(np.log(w)))


def project_box(M: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the box {X : 0 <= X <= I}.

    Eigenvalues are clipped to [PD_FLOOR, 1]; the floor keeps the
    result invertible.
    """
    w, V = np.linalg.eigh(_finite_sym(M))
    w = np.minimum(np.maximum(w[::-1], PD_FLOOR), 1.0)
    # the reversed view has negative strides, which matmul does not hand
    # to BLAS; the contiguous copy keeps the product there
    V = V[:, ::-1].copy()
    P = (V * w) @ V.T
    return (P + P.T) / 2.0


def project_box_inverse(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box projection of the inverse of S, with its clipped eigenvalues,
    from one eigh(S).

    S is symmetric and nonsingular, not necessarily definite: each
    eigenvalue 1/sigma of the inverse is clipped to [PD_FLOOR, 1], so a
    negative sigma lands on the floor.  Raises NumericalBreakdownError
    when an eigenvalue of S is exactly zero.
    """
    sig, V = np.linalg.eigh(_finite_sym(S))
    if not sig.all():
        raise NumericalBreakdownError("matrix inverse failed: Singular matrix")
    w = np.minimum(np.maximum(1.0 / sig, PD_FLOOR), 1.0)
    P = (V * w) @ V.T
    return (P + P.T) / 2.0, w


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
