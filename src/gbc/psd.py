"""Symmetric positive semidefinite primitives shared by all solvers.

`matrix` reads every matrix a caller hands the package.  The others
treat their matrix arguments as symmetric: inputs are folded to
(M + M.T)/2 before use and outputs are folded the same way, so exact
symmetry is preserved through chains of operations.

symmetrize, logdet, spectral_norm and project_box also take a stack of
matrices, (..., n, n) over the trailing two axes as numpy.linalg does, and
act on each matrix of it in one LAPACK call through gbc._lapack: each
slice of the result is bit-equal to the call on that matrix alone.  A 2-D
input gives a matrix or a float, a stack an array of them; a check fails
for the whole stack when it fails for one slice.
"""

from __future__ import annotations

import numpy as np

from . import _lapack
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalBreakdownError,
    number,
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


def matrix(M, name: str, n: int | None = None,
           error: type = InvalidInputError) -> np.ndarray:
    """M as a float array (a float array itself, not a copy) if it is a
    square matrix of finite reals: a numpy array of int or float dtype,
    or k lists of k entries that gbc.errors.number reads.  Otherwise
    raise error naming `name`; if M is not n x n, when n is given,
    DimensionMismatchError naming both shapes."""
    rule = f"{name} must be a square matrix of finite real numbers"
    if isinstance(M, list):
        k = len(M)
        if not all(isinstance(row, list) and len(row) == k for row in M):
            raise error(f"{rule}, got a list that is not {k} lists of {k} entries")
        M = np.array([[number(x, rule, error=error) for x in row] for row in M],
                     dtype=float).reshape(k, k)
    elif not isinstance(M, np.ndarray):
        raise error(f"{rule}, got {type(M).__name__}")
    elif M.dtype.kind not in "iuf":
        raise error(f"{rule}, got dtype {M.dtype}")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise error(f"{rule}, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise error(f"{rule}, got non-finite entries")
    if n is not None and len(M) != n:
        raise DimensionMismatchError(f"{name}: shapes {M.shape} and {(n, n)} differ")
    return M


def _finite_sym(M: np.ndarray) -> np.ndarray:
    """symmetrize(M), raising InvalidInputError on NaN or inf entries:
    LAPACK can return finite eigenvalues for a matrix holding NaN.  The
    fold is symmetrize's, inline: every SPG step projects through here."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    S = M + M.swapaxes(-1, -2)
    S /= 2.0
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
    ld = logdet_of(_lapack.eigvalsh(_finite_sym(M)))
    return float(ld) if ld.ndim == 0 else ld


def logdet_of(w: np.ndarray) -> np.ndarray:
    """Log-determinants sum(log w) of the matrices whose ascending
    eigenvalues are the rows of w, 0 for a 0 x 0 matrix: logdet's rule,
    for callers that take the eigenvalues in a larger stacked call.
    Raises NotPositiveDefiniteError when a smallest eigenvalue is at or
    below RANK_EPS."""
    if w.shape[-1] == 0:
        return np.zeros(w.shape[:-1])
    lo = float(w[..., 0].min())
    if lo <= RANK_EPS:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {lo:.3e})"
        )
    return np.log(w).sum(axis=-1)


def project_box(M: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix, or each matrix of a stack, onto the
    box {X : 0 <= X <= I}.

    Eigenvalues are clipped to [PD_FLOOR, 1]; the floor keeps the
    result invertible.
    """
    S = _finite_sym(M)
    w, V = _lapack.eigh(S)
    np.maximum(w, PD_FLOOR, out=w)
    np.minimum(w, 1.0, out=w)
    # descending: the reversed view has negative strides, which matmul
    # does not hand to BLAS; the contiguous copy keeps the product there
    V = V[..., ::-1].copy()
    P = (V * w[..., None, ::-1]) @ V.swapaxes(-1, -2)
    # the fold, into the buffer eigh has read
    np.add(P, P.swapaxes(-1, -2), out=S)
    S /= 2.0
    return S


def eigen_map(S: np.ndarray, f) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """V diag(f(sigma)) V^T from one eigh S = V diag(sigma) V^T of a
    symmetric matrix, with its eigenpairs (f(sigma), V), in eigh's order.

    f maps the eigenvalues of S to those of the result, which must be
    nonnegative: box_inverse for the box projection of inv(S), which the
    fixed-point maps take.  Raises InvalidInputError on NaN or inf
    entries.
    """
    # _finite_sym's fold and test, without symmetrize's argument checks:
    # every fixed-point step runs this
    S = (S + S.T) / 2.0
    if not np.isfinite(S).all():
        raise InvalidInputError("matrix has non-finite entries")
    sig, V = _lapack.eigh(S)
    a = f(sig)
    # B B^T is exactly symmetric: numpy's matmul computes a product with
    # its own transpose by one syrk and mirrors the triangle
    B = V * np.sqrt(a)
    return B @ B.T, (a, V)


def box_inverse(sig: np.ndarray) -> np.ndarray:
    """1/sigma clipped to [PD_FLOOR, 1]: with eigen_map, the box
    projection of inv(S).  S need not be definite: a negative sigma
    lands on the floor.  Raises NumericalBreakdownError when a sigma is
    exactly zero."""
    # count_nonzero is cheaper than sig.all(), and this runs every step
    if np.count_nonzero(sig) < sig.size:
        raise NumericalBreakdownError("matrix inverse failed: Singular matrix")
    return np.minimum(np.maximum(1.0 / sig, PD_FLOOR), 1.0)


def loewner_leq(A: np.ndarray, B: np.ndarray, slack: float = 1e-8) -> bool:
    """Whether A <= B in the Loewner order, up to slack.

    True when the smallest eigenvalue of B - A is >= -slack.  A and B
    are read by `matrix`, so B must have A's shape.
    """
    A = symmetrize(matrix(A, "A"))
    B = symmetrize(matrix(B, "B", len(A)))
    if A.shape[0] == 0:
        return True
    return bool(_lapack.eigvalsh(B - A)[0] >= -slack)


def spectral_norm(M: np.ndarray) -> float | np.ndarray:
    """Largest absolute eigenvalue of a symmetric matrix, or of each
    matrix of a stack.  Raises InvalidInputError on non-finite input."""
    S = _finite_sym(M)
    if S.shape[-1] == 0:
        return 0.0 if S.ndim == 2 else np.zeros(S.shape[:-2])
    a = np.abs(_lapack.eigvalsh(S)).max(axis=-1)
    return float(a) if S.ndim == 2 else a
