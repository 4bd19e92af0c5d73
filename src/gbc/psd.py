"""Symmetric positive semidefinite primitives shared by all solvers.

Every function here treats its matrix arguments as symmetric: inputs are
folded to (M + M.T)/2 before use and outputs are folded the same way, so
exact symmetry is preserved through chains of operations.

symmetrize, logdet, spectral_norm and project_box also take a stack of
matrices, (..., n, n) over the last two axes as np.linalg does, and act
on each matrix of it in one LAPACK call: each slice of the result is
bit-equal to the call on that matrix alone.  A 2-D input gives a matrix
or a float, a stack an array of them; a check fails for the whole stack
when it fails for one slice.
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


def _t(M: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (M.T for a matrix)."""
    return M.swapaxes(-1, -2)


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M.T)/2 as a float array, slice by slice for a stack.

    IEEE addition commutes, so the result is exactly symmetric entrywise.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    return (M + _t(M)) / 2.0


def symmetric_matrix(M: np.ndarray, n: int | None = None) -> np.ndarray:
    """symmetrize(M) for the entry points that take one matrix: a stack
    raises InvalidInputError there, as any input that is not a square
    matrix does, and a matrix that is not n x n, when n is given,
    DimensionMismatchError naming both shapes."""
    S = symmetrize(M)
    if S.ndim != 2:
        raise InvalidInputError(f"expected a square matrix, got shape {S.shape}")
    if n is not None and len(S) != n:
        raise DimensionMismatchError(f"shapes {S.shape} and {(n, n)} differ")
    return S


def _finite_sym(M: np.ndarray) -> np.ndarray:
    """symmetrize(M), raising InvalidInputError on NaN or inf entries:
    LAPACK can return finite eigenvalues for a matrix holding NaN."""
    S = symmetrize(M)
    if not np.isfinite(S).all():
        raise InvalidInputError("matrix has non-finite entries")
    return S


def logdet(M: np.ndarray) -> float | np.ndarray:
    """Natural-log determinant of a symmetric positive definite matrix,
    or of each matrix of a stack.

    Computed as the sum of eigenvalue logs.  Raises
    NotPositiveDefiniteError when a smallest eigenvalue is at or below
    RANK_EPS.
    """
    w = np.linalg.eigvalsh(_finite_sym(M))
    if w.shape[-1] == 0:
        return 0.0 if w.ndim == 1 else np.zeros(w.shape[:-1])
    lo = float(w[..., 0].min())
    if lo <= RANK_EPS:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {lo:.3e})"
        )
    ld = np.log(w).sum(axis=-1)
    return float(ld) if w.ndim == 1 else ld


def project_box(M: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix, or each matrix of a stack, onto the
    box {X : 0 <= X <= I}.

    Eigenvalues are clipped to [PD_FLOOR, 1]; the floor keeps the
    result invertible.
    """
    w, V = np.linalg.eigh(_finite_sym(M))
    w = np.minimum(np.maximum(w[..., ::-1], PD_FLOOR), 1.0)
    # the reversed view has negative strides, which matmul does not hand
    # to BLAS; the contiguous copy keeps the product there
    V = V[..., ::-1].copy()
    P = (V * w[..., None, :]) @ _t(V)
    return (P + _t(P)) / 2.0


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
    InvalidInputError on non-finite input, DimensionMismatchError on
    shapes that differ.
    """
    A = symmetric_matrix(A)
    B = symmetric_matrix(B, len(A))
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise InvalidInputError("matrix has non-finite entries")
    if A.shape[0] == 0:
        return True
    return bool(np.linalg.eigvalsh(B - A)[0] >= -slack)


def spectral_norm(M: np.ndarray) -> float | np.ndarray:
    """Largest absolute eigenvalue of a symmetric matrix, or of each
    matrix of a stack.  Raises InvalidInputError on non-finite input."""
    S = _finite_sym(M)
    if S.shape[-1] == 0:
        return 0.0 if S.ndim == 2 else np.zeros(S.shape[:-2])
    a = np.abs(np.linalg.eigvalsh(S)).max(axis=-1)
    return float(a) if S.ndim == 2 else a
