"""The package's one way into LAPACK: numpy.linalg's gufuncs, called
without numpy.linalg's per-call wrapper.

Each kernel runs the gufunc of numpy.linalg._umath_linalg that the
numpy.linalg function of the same name runs, with the same 'd->...'
signature, under the same np.errstate, so its result has that
function's bits and a failure raises numpy.linalg.LinAlgError with
numpy's own message ("Singular matrix", "Matrix is not positive
definite", "Eigenvalues did not converge").  What the wrapper adds is
gone: asarray, the dtype promotion and the square check before the
call, and the astype and array wrap after it, several microseconds per
call against a few for the LAPACK work of a 3 x 3 matrix.

So every argument must already be what the package hands numpy.linalg:
a float64 ndarray of one square matrix, or a stack of them over the
last two axes (the gufunc raises on non-square core dimensions); solve's
right-hand side has at least two dimensions.  Lower-triangle forms are
taken, as numpy.linalg's defaults do.  eigh returns a plain tuple
(w, V).  No log-determinant kernel is needed: gbc.private takes an
iterate's from the Cholesky factors of the inverse its step inverts,
and gbc.psd takes the others from eigenvalues.

_umath_linalg is private to numpy; the names used here are those of
numpy 2.  Every call site in gbc looks a kernel up as an attribute of
this module when it runs, so patching one attribute reaches every
caller.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg as _gufuncs


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _not_positive_definite(err, flag):
    raise LinAlgError("Matrix is not positive definite")


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _errors(call):
    """numpy.linalg's error state: a gufunc that flags invalid calls
    `call`, which raises; overflow, division and underflow pass."""
    return np.errstate(call=call, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


@_errors(_no_convergence)
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a): ascending eigenvalues and eigenvectors."""
    return _gufuncs.eigh_lo(a, signature="d->dd")


@_errors(_no_convergence)
def eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a): ascending eigenvalues."""
    return _gufuncs.eigvalsh_lo(a, signature="d->d")


@_errors(_singular)
def inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a)."""
    return _gufuncs.inv(a, signature="d->d")


@_errors(_not_positive_definite)
def cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower factor."""
    return _gufuncs.cholesky_lo(a, signature="d->d")


@_errors(_singular)
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for b of at least two dimensions."""
    return _gufuncs.solve(a, b, signature="dd->d")
