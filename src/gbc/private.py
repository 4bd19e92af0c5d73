"""Solvers for the private-message weighted rate problem.

All three algorithms maximize logdet(A_U + SigmaHat1) - lam * logdet(A_U
+ SigmaHat2) over the box {0 <= A_U <= I} produced by the rank reduction:

SPG (the default) is spectral projected gradient ascent (Birgin,
Martinez & Raydan, SIAM J. Optim. 2000): a Barzilai-Borwein step along
the gradient, projected onto the box by eigenvalue clipping, then a
monotone Armijo backtrack, each iterate factored by one stacked inv and
one Cholesky.  It stops when the KKT residual
||A - proj(A + grad f(A))||_F falls to rel_tol, so `converged` certifies
a first-order optimal point of the box problem to that tolerance.

GBA-P, GBA-A and EGBA-P's two block maps (gbc.common) are one
fixed-point kernel, _fixed_point.  The paper writes each as an inverse
of T = A inv(H) A + A plus barrier and coupling terms; two identities,

    inv(A inv(H) A + A) = inv(A) - inv(A + H),
    inv(A + SigmaHat2) B_V' inv(A + MHat1) = inv(A + SigmaHat2) - inv(A + MHat1)
        where MHat1 = SigmaHat2 + B_V',

turn every one into a function of the block gradient G of
f(A) = sum_i w_i logdet(A + H_i), the one SPG and every KKT residual
take.  From the eigenpairs (q, Q) of A, S = Q diag(c) Q^T - G/kappa, and
the new iterate is a spectral function of S from one eigh of it:
GBA-P and EGBA-P take c = 1/q and clip 1/sigma to [PD_FLOOR, 1], the
box projection of inv(S); GBA-A takes c = 1/q - lam/(1 - q), its
difference matrix B = D_U - lam D_V, and rebuilds the iterate eigenvalue
by eigenvalue, each one the unique root in (0, 1) of a scalar quadratic,
so its objective trace is non-decreasing.  Each step returns the new
iterate's eigenpairs, which the next step starts from; kappa, the
weight of the slice T inverts, is read where FixedPoint is built.

Every solve, here and in gbc.common, runs one pass on the stack H and
weights w of a gbc.reduction box through run_pass.  A pass owns its
iterate: it reads the start once with check_box when it is built (a
fixed-point pass by one eigh, which also gives its first eigenpairs),
and holds the stack W = inv(A + H) at it, one stacked inv per iterate,
from which it takes the iterate's gradient, KKT residual and, from one
Cholesky of W, objective: logdet(A + H_i) = -2 sum log diag chol(W_i).
Each step() advances the iterate and applies the pass's own stop rule:
SPG the KKT test above, GBA-P and GBA-A the relative spectral-norm step,
EGBA-P's passes the Frobenius step.  GBA-P and GBA-A decide theirs from
the Frobenius norm of the step, which brackets the spectral norm
(||X||_F / sqrt(r) <= ||X||_2 <= ||X||_F); only a step inside that
bracket's band pays for an eigvalsh.  Each step returns the new
iterate's eigenvalues, so the rule's scale, the iterate's largest
absolute eigenvalue, costs nothing.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    NumericalBreakdownError,
    number,
)
from .psd import (
    PD_FLOOR,
    box_inverse,
    eigen_map,
    logdet,
    matrix,
    project_box,
    symmetrize,
)
from .reduction import PrivateInstance, ReducedPrivate, check_box, lift, reduce, weighted


class Algorithm(enum.Enum):
    """Private-message solver selector."""

    SPG = "spg"
    GBA_P = "gba-p"
    GBA_A = "gba-a"


# SPG constants: Barzilai-Borwein step lengths are clipped to
# [_BB_MIN, _BB_MAX], and the Armijo backtrack halves the step until the
# objective rises by at least _ARMIJO times the predicted rise.
_BB_MIN = 1e-10
_BB_MAX = 1e10
_ARMIJO = 1e-4
# Relative rounding error of a sum of log1p terms and of the eigenvalues
# it is built from.
_EPS = float(np.finfo(float).eps)
_ROUNDOFF = 16.0 * _EPS
# Relative margin of the Frobenius bracket's two shortcuts: a step whose
# norm is this close to either edge of the band is decided by eigvalsh,
# so a rounding tie in the norm or the eigenvalues decides nothing.
_TIE = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for solve_private and solve_common.

    algorithm   which solver to run (SPG by default)
    max_iters   iteration cap (outer cap for the common solver)
    rel_tol     stopping threshold: the KKT residual for SPG, the
                relative spectral-norm step for GBA-P and GBA-A
    init        reduced starting matrix, projected onto the clamped box;
                None starts from I/2

    Building the options (dataclasses.replace included) checks every
    field, raises InvalidInputError on a bad one and keeps what
    gbc.errors.number and gbc.psd.matrix read: max_iters as an int,
    rel_tol as a float and init as a float array.  solve_common runs
    SPG or, for GBA_P, the paper's EGBA-P as its inner solver; it raises
    InvalidInputError for GBA_A and for an init other than None.
    """

    algorithm: Algorithm = Algorithm.SPG
    max_iters: int = 100
    rel_tol: float = 1e-4
    init: np.ndarray | None = None

    def __post_init__(self) -> None:
        """Raise InvalidInputError unless every field holds a usable value."""
        if not isinstance(self.algorithm, Algorithm):
            raise InvalidInputError(f"unknown algorithm {self.algorithm!r}")
        rule = "max_iters must be a whole number >= 1"
        if (cap := number(self.max_iters, rule, whole=True)) < 1:
            raise InvalidInputError(f"{rule}, got {self.max_iters!r}")
        rule = "rel_tol must be a positive finite real"
        if not (tol := number(self.rel_tol, rule)) > 0.0:
            raise InvalidInputError(f"{rule}, got {self.rel_tol!r}")
        object.__setattr__(self, "max_iters", cap)
        object.__setattr__(self, "rel_tol", tol)
        if self.init is not None:
            object.__setattr__(self, "init", matrix(self.init, "init"))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one private-message solve.

    final_AU            final iterate in reduced coordinates
    final_KU            the lifted covariance in original coordinates
    objective_trace     objective value in original coordinates at the
                        initial point and after every iteration
    iterations          number of update steps taken
    converged           whether the stopping rule fired before the cap
    kkt_residual        ||final_AU - project_box(final_AU + gradient)||_F,
                        zero exactly at first-order optimal points of
                        the box problem
    elapsed_seconds     wall-clock time of the solve
    warnings            human-readable notes (conditioning, clamped init)
    iterate_eig_min     smallest eigenvalue seen across all iterates
    iterate_eig_max     largest eigenvalue seen across all iterates

    GBA-P's and GBA-A's stop rule measures each step only as far as it
    must to decide it, so no per-step change is reported; the
    objective trace follows every step.
    """

    final_AU: np.ndarray
    final_KU: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    kkt_residual: float
    elapsed_seconds: float
    warnings: tuple[str, ...] = ()
    iterate_eig_min: float = 0.0
    iterate_eig_max: float = 0.0

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def inv(M: np.ndarray) -> np.ndarray:
    """Matrix inverse, or the inverse of each matrix in a stack, that
    reports a singular matrix as NumericalBreakdownError."""
    try:
        return _lapack.inv(M)
    except np.linalg.LinAlgError as e:
        raise NumericalBreakdownError(f"matrix inverse failed: {e}") from e


def objective_reduced(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> float:
    """Reduced objective logdet(A_U + SigmaHat1) - lam * logdet(A_U + SigmaHat2)."""
    A = symmetrize(matrix(A_U, "A_U", red.rank))
    lam = number(lam, "lam must be a number")
    return logdet(A + red.SigmaHat1) - lam * logdet(A + red.SigmaHat2)


def _fold(w: tuple[float, ...], W: np.ndarray) -> np.ndarray:
    """Gradient sum_i w_i W_i of sum_i w_i logdet(A + H_i) from the stack
    W = inv(A + H).  Every step of a pass takes one, so it folds with
    symmetrize's arithmetic but without its argument checks."""
    G = weighted(w, W)
    return (G + G.T) / 2.0


def _gradient(A: np.ndarray, H: np.ndarray, w: tuple[float, ...]) -> np.ndarray:
    """Gradient of sum_i w_i logdet(A + H_i) at A, from one stacked inverse."""
    return _fold(w, inv(A + H))


def gradient_reduced(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> np.ndarray:
    """Gradient of the reduced objective: (A+SigmaHat1)^{-1} - lam (A+SigmaHat2)^{-1}."""
    return _gradient(symmetrize(matrix(A_U, "A_U", red.rank)), red.H,
                     (1.0, -number(lam, "lam must be a number")))


def _kkt(A: np.ndarray, G: np.ndarray) -> float:
    """Projected-gradient residual ||A - project_box(A + G)||_F."""
    return _fro(A - project_box(A + G))


def _root(b: np.ndarray, lam) -> np.ndarray:
    """root_in_unit_interval without its checks, for finite b and lam > 1
    that broadcast to an array of at least one dimension.  s + d > 0 for
    every finite b, and (s - d)/(2b) is taken only where s < 0, which
    needs b < -(lam + 1), so nothing divides by zero."""
    s = lam + 1.0 + b
    d = np.sqrt(s * s - 4.0 * b)
    root = 2.0 / (s + d)
    np.divide(s - d, 2.0 * b, out=root, where=s < 0.0)
    return np.where(b == 0.0, 1.0 / (1.0 + lam), root)


def root_in_unit_interval(b, lam):
    """Root in (0, 1) of b*a^2 - (lam + 1 + b)*a + 1 = 0 for lam > 1.

    Accepts a scalar or an array of b values (and of lam values that
    broadcast against them).  With s = lam + 1 + b and
    d = sqrt(s^2 - 4b), the root is 2/(s + d) = (s - d)/(2b); each form
    is evaluated where it adds two terms of one sign, the first for
    s >= 0 and the second for s < 0 (which needs b < -(lam + 1)), so
    neither cancels.  b = 0 (where the quadratic degenerates to a linear
    equation) returns exactly 1/(1 + lam).  Raises InvalidInputError
    unless every lam is finite and > 1 and every b finite.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam_arr)) or np.any(lam_arr <= 1.0):
        raise InvalidInputError(f"lam must be a finite weight > 1, got {lam}")
    b_arr = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b_arr)):
        raise InvalidInputError("b must be finite")
    if b_arr.ndim == 0 and lam_arr.ndim == 0:
        return float(_root(b_arr.reshape(1), lam_arr)[0])
    return _root(b_arr, lam_arr)


def _fixed_point(pairs: tuple[np.ndarray, np.ndarray], G: np.ndarray,
                 lam: float | None = None) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The one map of GBA-P, GBA-A and both EGBA-P blocks: from the
    eigenpairs (q, Q) of the iterate A and the gradient G of f/kappa at
    A (FixedPoint scales the weights), S = Q diag(c) Q^T - G, and the new
    iterate is a spectral function of S, returned with its eigenpairs.
    GBA-P and EGBA-P (lam None) take c = 1/q and the box projection
    V clip(1/sigma, [PD_FLOOR, 1]) V^T of inv(S); GBA-A takes
    c = 1/q - lam/(1 - q) and V clip(root(b, lam), [PD_FLOOR,
    1 - PD_FLOOR]) V^T.  q holds no 0, nor for GBA-A a 1: FixedPoint
    checks its start, and both clips keep every later q inside."""
    q, Q = pairs
    if lam is None:
        return eigen_map((Q / q) @ Q.T - G, box_inverse)
    return eigen_map((Q * (1.0 / q - lam / (1.0 - q))) @ Q.T - G,
                     lambda b: np.clip(_root(b, lam), PD_FLOOR, 1.0 - PD_FLOOR))


def gba_a_step(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> np.ndarray:
    """One alternating closed-form step from an iterate strictly inside
    the box.  Raises InvalidInputError unless lam is finite and > 1
    (checked first) and A_U is in the box, NumericalBreakdownError when
    an eigenvalue of A_U is outside the open interval (0, 1)."""
    rule = "lam must be a finite weight > 1"
    if (lam := number(lam, rule)) <= 1.0:
        raise InvalidInputError(f"{rule}, got {lam}")
    return FixedPoint(A_U, red.H, (1.0, -lam), alternating=True).step()


def _factors(W: np.ndarray) -> np.ndarray | None:
    """Li = C_i^T, C_i C_i^T = W_i, from one Cholesky of the stack W =
    inv(A + H), or None when one W_i is not positive definite."""
    try:
        return _lapack.cholesky(W).transpose(0, 2, 1)
    except np.linalg.LinAlgError:
        return None


def _objective(Li: np.ndarray | None, w: tuple[float, ...]) -> float:
    """f(A) = sum_i w_i logdet(A + H_i) = -2 sum_i w_i sum log diag Li_i
    from _factors of inv(A + H); no factors (None) means an A + H_i is
    not positive definite, which raises NumericalBreakdownError."""
    if Li is None:
        raise NumericalBreakdownError("iterate lost positive definiteness")
    return -2.0 * weighted(w, np.log(np.diagonal(Li, axis1=1, axis2=2))
                           .sum(axis=1).tolist())


def _rise(t: float, mu: np.ndarray, w: tuple[float, ...]) -> float:
    """f(A + tD) - f(A) = sum_i w_i sum log1p(t mu_i), where mu_i are the
    eigenvalues of C_i^T D C_i, C_i C_i^T = inv(A + H_i), and so of
    L_i^-1 D L_i^-T, A + H_i = L_i L_i^T: both are similar to D C_i C_i^T.

    Accurate relative to the change itself, however small, where a
    difference of two log-determinants loses everything below the
    rounding error of f.
    """
    return weighted(w, np.log1p(t * mu).sum(axis=1).tolist())


class _Pass:
    """A pass on the stack H and weights w of a box, which owns its
    iterate A: the start, read once by check_box (e0 holds its
    eigenvalues, ascending), then each iterate step() makes.  step()
    takes no matrix: it advances A and returns it (SPG returns None
    instead once no rise can be verified), and applies the pass's stop
    rule, whose verdict `converged` holds.  `kkt` is the KKT residual at
    A.

    inverse() is the stack W = inv(A + H) at the iterate the pass holds.
    Every gradient, KKT residual and objective a pass takes is a fold of
    it, so it is made once per iterate: by one stacked inv of the pass's
    own A + H buffer when first asked for at that A."""

    def __init__(self, A: np.ndarray, H: np.ndarray, w: tuple[float, ...],
                 decompose=None):
        self.H = H
        self.w = w
        self.AH = np.empty(H.shape)
        self.A, self.e0 = check_box(A, H.shape[-1], decompose)
        # the iterate W was taken at: a pass sets A to a new array each step
        self._WA = None

    def inverse(self) -> np.ndarray:
        if self._WA is not self.A:
            self._W = inv(np.add(self.A, self.H, out=self.AH))
            self._WA = self.A
        return self._W


class _Spg(_Pass):
    """Spectral projected gradient ascent of f(A) = sum_i w_i logdet(A + H_i)
    on the reduced box [0, I].

    H is a (k, r, r) stack of PD matrices and w the k weights: (SigmaHat1,
    SigmaHat2) with (1, -lam) for the private problem, and the four or two
    slices of an EGBA block.  Holds, for the iterate A, the objective f,
    the gradient G, the Armijo factors Li, the KKT residual and the
    projected point P of the next step, with the Barzilai-Borwein step
    length it was taken at.  Each iterate is factored once (_factor: the
    pass's inverse W and one Cholesky of it), and the start's factors
    give f through _objective, as solve_private's GBA record takes it (a
    start with A + H_i not PD raises NumericalBreakdownError), to which
    each step adds its rise.  Each iterate is projected once: the start by
    one project_box of A + G, which at the start's step length 1 is both
    the KKT residual's point and the first step's, and every later
    iterate by _project.  So a step makes four LAPACK calls, each on a
    stack and each through gbc._lapack: an eigvalsh, an inv, a Cholesky
    and an eigh.

    At the reduced sizes these passes mostly see (r <= 4) numpy's fixed
    cost per call outweighs that LAPACK work.  gbc._lapack calls
    numpy.linalg's gufuncs without its per-call wrapper, and the glue
    around the calls is kept short too:
    the pass owns buffers for the stacks A + H and (A + G, A + alpha G),
    reads its absolute weights once, takes every norm with _fro and folds
    the gradient without symmetrize's checks, each with the bits of the
    numpy call it replaces.
    """

    def __init__(self, A: np.ndarray, H: np.ndarray, w: tuple[float, ...],
                 rel_tol: float):
        super().__init__(A, H, w)
        A = self.A
        self.rel_tol = rel_tol
        self.alpha = 1.0
        # |w_i|, which weigh each step's rounding bound
        self.aw = [abs(wi) for wi in w]
        # the stack (A + G, A + alpha G) of _project, with views of its halves
        self.AG = np.empty((2,) + A.shape)
        self.AG0, self.AG1 = self.AG
        self.G, self.Li = self._factor()
        self.f = _objective(self.Li, w)
        self.P = project_box(A + self.G)
        self.kkt = _fro(A - self.P)

    @property
    def converged(self) -> bool:
        return self.kkt <= self.rel_tol

    def _factor(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The gradient at A and the Armijo factors Li = C^T, C C^T = W,
        from W and one Cholesky of it.  Li is None when the Cholesky
        fails; the next step raises then, so a stop at A still reports."""
        W = self.inverse()
        return _fold(self.w, W), _factors(W)

    def _project(self, A: np.ndarray) -> None:
        """The KKT residual at A, as _kkt takes it, and the next step's
        projection P of A + alpha G, from one stacked project_box."""
        np.add(A, self.G, out=self.AG0)
        np.multiply(self.alpha, self.G, out=self.AG1)
        self.AG1 += A
        P = project_box(self.AG)
        self.kkt = _fro(A - P[0])
        self.P = P[1]

    def step(self) -> np.ndarray | None:
        """Next iterate, or None once no rise can be verified: the
        predicted rise is within the rounding error of the measured
        change, or the backtracked step no longer moves the unit box."""
        Li = self.Li
        if Li is None:
            raise NumericalBreakdownError("iterate lost positive definiteness")
        A = self.A
        G = self.G
        D = self.P - A
        # >= ||D||^2 / alpha by the projection's variational inequality
        rise = float(np.vdot(G, D))
        mu = _lapack.eigvalsh(Li @ D @ Li.transpose(0, 2, 1))
        noise = _ROUNDOFF * weighted(self.aw, np.abs(mu).sum(axis=1).tolist())
        if not rise > noise:
            return None
        t = 1.0
        size = _fro(D)
        while (change := _rise(t, mu, self.w)) < _ARMIJO * t * rise:
            t *= 0.5
            if t * size <= _EPS:
                return None
        # BB step <s, s> / <s, -y> for ascent, s = An - A, y = Gn - G
        s = t * D
        self.A = An = A + s
        Gn, self.Li = self._factor()
        curv = -float(np.vdot(s, Gn - G))
        self.alpha = (min(max(float(np.vdot(s, s)) / curv, _BB_MIN), _BB_MAX)
                      if curv > 0.0 else _BB_MAX)
        self.f += change
        self.G = Gn
        self._project(An)
        return An


def _fro(M: np.ndarray) -> float:
    """Frobenius norm with the bits of np.linalg.norm(M), minus its
    wrapper, which made EGBA-P on the common-egba benchmark panel 9%
    slower (one BLAS thread, 2-core x86-64).  Every norm of a pass and
    of _kkt is taken here."""
    x = M.ravel(order="K")
    return math.sqrt(x.dot(x))


class FixedPoint(_Pass):
    """The paper's fixed-point map on the stack H and weights w: GBA-P's
    (GBA-A's with `alternating`) in solve_private, and EGBA-P's on both
    solve_common blocks.  Every stack ends in the pair whose first slice
    the paper's T = A inv(H) A + A inverts: (SigmaHat1, SigmaHat2) in a
    private box, (NHat1, NHat2) in K_V's, (SigmaHat1, SigmaHat2) after
    (MHat1, MHat2) in K_U's.  So the map steps on f/kappa, kappa = w[-2]
    the weight of that slice, and GBA-A's lam is the pair's ratio
    -w[-1]/w[-2], which must be finite and > 0 (> 1 for GBA-A, the root's
    domain), else InvalidInputError before the start is read.  One eigh
    of the start checks the box and gives the eigenpairs `pairs` the
    first step takes; each step returns the new iterate's.  A start
    eigenvalue of exactly 0 raises NumericalBreakdownError, and for
    GBA-A so does any outside the open interval (0, 1), which check_box's
    slack admits: GBA-A's barrier changes sign across each face.

    The map's gradient (weights w/kappa) and the KKT residual's (weights
    w) are both folds of the pass's inverse W at A, so s steps and the
    closing `kkt` invert s + 1 stacks; solve_private's objective record
    reads the same W and adds one Cholesky of it per iterate.

    Each step tests the relative step.  With `spectral` (GBA-P, GBA-A)
    it compares the spectral norm of An - A with thr = tol times A's
    largest absolute eigenvalue, decided from its Frobenius norm f:
    f <= thr means converged and f > sqrt(r) thr not, each shortcut
    narrowed by the relative margin _TIE, and only a step in the band
    between them takes the eigvalsh of An - A.  So every verdict is the
    one the spectral norm itself gives.  Otherwise (EGBA-P) it compares
    the Frobenius norm with tol times the larger of ||A||_F and
    ||I/2||_F, an anchor that lets a block shrinking to zero stop, where
    a purely relative test could never fire.
    """

    converged = False

    def __init__(self, A: np.ndarray, H: np.ndarray, w: tuple[float, ...],
                 tol: float = 0.0, alternating: bool = False, spectral: bool = False):
        kappa = w[-2]
        lam = -w[-1] / kappa if kappa else math.nan
        least = 1.0 if alternating else 0.0
        if not (np.isfinite(lam) and lam > least):
            raise InvalidInputError(
                f"ratio -w[-1]/w[-2] must be finite and > {least:g}, got {lam}")
        # check_box's eigh gives the first step's eigenpairs, and e0 the
        # start's eigenvalues as for every pass
        super().__init__(A, H, w, _lapack.eigh)
        self.pairs = self.e0
        self.e0 = q = self.pairs[0]
        if not q.all():
            raise NumericalBreakdownError("A is singular: A has eigenvalue 0")
        # GBA-A's barrier 1/q - lam/(1 - q) changes sign across each face
        # of the box, so a start a rounding error outside it would step
        # to the other face
        if alternating and not (q[0] > 0.0 and q[-1] < 1.0):
            if q[0] < 0.0:
                raise NumericalBreakdownError(
                    f"A is indefinite: A has eigenvalue {float(q[0])!r}")
            raise NumericalBreakdownError(
                f"I - A is singular or indefinite: A has eigenvalue {float(q[-1])!r}")
        # the weights of f/kappa, under which that slice weighs 1
        self.wk = tuple(wi / kappa for wi in w)
        self.lam = lam if alternating else None
        self.tol = tol
        self.spectral = spectral
        # the smallest and largest eigenvalue of A, and ||I/2||_F
        self.span = float(q[0]), float(q[-1])
        self.anchor = 0.5 * math.sqrt(len(q))
        # the far edge of the spectral rule's band, in units of its threshold
        self.far = math.sqrt(len(q)) * (1.0 + _TIE)

    @property
    def kkt(self) -> float:
        return _kkt(self.A, _fold(self.w, self.inverse()))

    def step(self) -> np.ndarray:
        A = self.A
        An, self.pairs = _fixed_point(self.pairs, _fold(self.wk, self.inverse()), self.lam)
        if self.spectral:
            lo, hi = self.span
            thr = self.tol * max(abs(lo), abs(hi))
            X = An - A
            f = _fro(X)
            if f <= (1.0 - _TIE) * thr:
                self.converged = True
            elif f > self.far * thr:
                self.converged = False
            else:
                d = _lapack.eigvalsh(X)
                self.converged = max(abs(float(d[0])), abs(float(d[-1]))) <= thr
            e = self.pairs[0]
            self.span = float(e.min()), float(e.max())
        else:
            self.converged = _fro(An - A) <= self.tol * max(_fro(A), self.anchor)
        self.A = An
        return An


def run_pass(step, ps, cap: int, watch=None):
    """Run step(ps) until the pass's stop rule holds (ps.converged, which
    may hold at the start, before any step), the step returns None
    because it can verify no rise, or cap steps have run.  Every
    solve_private solve and every solve_common block runs here.

    Returns the final iterate ps.A, the number of steps, how the run
    stopped ("rule", "stall" or "cap"), its KKT residual ps.kkt, and the
    trace: the record watch(An) made of each step's new iterate An, when
    a watch is given."""
    trace = []
    steps = 0
    stop = "rule"
    while not ps.converged:
        if steps == cap:
            stop = "cap"
            break
        if step(ps) is None:
            stop = "stall"
            break
        steps += 1
        if watch is not None:
            trace.append(watch(ps.A))
    return ps.A, steps, stop, ps.kkt, trace


def _initial_iterate(opts: SolveOptions, red: ReducedPrivate,
                     warnings: list[str]) -> np.ndarray:
    """I/2, or opts.init read as an r x r matrix (DimensionMismatchError
    naming both shapes otherwise) and projected onto the box, with a
    warning when that moves it."""
    r = red.rank
    if opts.init is None:
        return 0.5 * np.eye(r)
    A0 = symmetrize(matrix(opts.init, "init", r))
    clamped = project_box(A0)
    if float(np.max(np.abs(clamped - A0))) > 1e-8:
        warnings.append("starting point was projected onto the clamped box")
    return clamped


def _degenerate_report(inst: PrivateInstance, t0: float) -> SolveReport:
    n = inst.n
    obj = logdet(inst.Sigma1) - inst.lam * logdet(inst.Sigma2)
    return SolveReport(
        final_AU=np.zeros((0, 0)),
        final_KU=np.zeros((n, n)),
        objective_trace=np.array([obj]),
        iterations=0,
        converged=True,
        kkt_residual=0.0,
        elapsed_seconds=time.perf_counter() - t0,
        warnings=("constraint matrix is zero; K_U = 0 is the only feasible point",),
    )


def solve_private(inst: PrivateInstance, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Run the selected solver on a private-message instance.

    The instance is reduced to its r x r box form and iterated from
    opts.init until the stopping rule meets opts.rel_tol or opts.max_iters
    steps have run; the final iterate is lifted back to original
    coordinates.  SPG stops on the KKT residual (and, unconverged with a
    warning, when its backtrack falls below roundoff); GBA-P and GBA-A
    stop on the relative spectral-norm change of the iterate.  The
    objective trace is reported in original coordinates (reduced value
    plus the reduction offset) with one entry per iterate including the
    start.
    """
    inst.validate()
    t0 = time.perf_counter()
    try:
        red = reduce(inst)
    except DegenerateInstanceError:
        return _degenerate_report(inst, t0)

    warnings = list(red.warnings)
    A = _initial_iterate(opts, red, warnings)
    H, w = red.H, (1.0, -red.lam)
    # each step's record: objective, and the smallest and largest
    # eigenvalue of the new iterate
    if opts.algorithm is Algorithm.SPG:
        ps = _Spg(A, H, w, opts.rel_tol)

        def watch(An):
            # SPG's step makes no spectrum: one eigvalsh of the new iterate
            e = _lapack.eigvalsh(An)
            return ps.f, float(e[0]), float(e[-1])

        # the start's factors gave its objective, its box check its spectrum
        start = ps.f, float(ps.e0[0]), float(ps.e0[-1])
    else:
        ps = FixedPoint(A, H, w, opts.rel_tol, opts.algorithm is Algorithm.GBA_A,
                        spectral=True)

        def watch(An):
            # the step made the eigenvalues; the objective is taken from
            # the inverse the next step (or the KKT residual) folds
            return (_objective(_factors(ps.inverse()), w),) + ps.span

        start = watch(ps.A)
    A, steps, stop, kkt, trace = run_pass(lambda ps: ps.step(), ps,
                                          opts.max_iters, watch)
    trace.insert(0, start)
    if stop == "stall":
        warnings.append(f"SPG step fell below roundoff at KKT residual "
                        f"{kkt:.3e}; stopped before reaching rel_tol")
    offset = red.offset
    return SolveReport(
        final_AU=A,
        final_KU=lift(red.transform, A),
        objective_trace=np.asarray([r[0] + offset for r in trace]),
        iterations=steps,
        converged=stop == "rule",
        kkt_residual=kkt,
        elapsed_seconds=time.perf_counter() - t0,
        warnings=tuple(warnings),
        iterate_eig_min=min(r[1] for r in trace),
        iterate_eig_max=max(r[2] for r in trace),
    )
