"""Solvers for the private-message weighted rate problem.

All three algorithms maximize logdet(A_U + SigmaHat1) - lam * logdet(A_U
+ SigmaHat2) over the box {0 <= A_U <= I} produced by the rank reduction:

SPG (the default) is spectral projected gradient ascent (Birgin,
Martinez & Raydan, SIAM J. Optim. 2000): a Barzilai-Borwein step along
the gradient, projected onto the box by eigenvalue clipping, then a
monotone Armijo backtrack.  It stops when the KKT residual
||A - proj(A + grad f(A))||_F falls to rel_tol, so `converged` certifies
a first-order optimal point of the box problem to that tolerance.

GBA-P applies the unconstrained fixed-point update inv(S) and projects
the result back onto the box by eigenvalue clipping, both from one eigh
of S.

GBA-A alternates closed-form coordinate updates: it assembles the
difference matrix B = D_U - lam * D_V from the current iterate, then
rebuilds the iterate eigenvalue by eigenvalue, each one the unique root
in (0, 1) of a scalar quadratic.  Its objective trace is non-decreasing.
The eigh of B gives the eigenpairs of the new iterate, which the next
step inverts I - A through.

Every solve, here and in gbc.common, runs one pass on the stack H and
weights w of a gbc.reduction box through run_pass, and each pass owns
its stop rule: _Spg.stops is the KKT test above, and FixedPoint.stops
the relative spectral-norm step for GBA-P and GBA-A (each step returns
the new iterate's eigenvalues, so a step needs an eigvalsh of the
change only) or the Frobenius step of EGBA-P's passes.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    NumericalBreakdownError,
    number,
)
from .psd import (
    PD_FLOOR,
    logdet,
    project_box,
    project_box_inverse,
    symmetric_matrix,
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
_ROUNDOFF = 16.0 * np.finfo(float).eps


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
    field and raises InvalidInputError on a bad one.  solve_common runs
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
        if number(self.max_iters, rule, whole=True) < 1:
            raise InvalidInputError(f"{rule}, got {self.max_iters!r}")
        rule = "rel_tol must be a positive finite real"
        if not number(self.rel_tol, rule) > 0.0:
            raise InvalidInputError(f"{rule}, got {self.rel_tol!r}")
        if self.init is not None:
            try:
                finite = np.isfinite(np.asarray(self.init, dtype=float)).all()
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise InvalidInputError("init must be None or a finite numeric matrix")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one private-message solve.

    final_AU            last iterate in reduced coordinates
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
    step_rel_changes    per-step relative spectral-norm changes
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
    step_rel_changes: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def inv(M: np.ndarray) -> np.ndarray:
    """Matrix inverse, or the inverse of each matrix in a stack, that
    reports a singular matrix as NumericalBreakdownError."""
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError as e:
        raise NumericalBreakdownError(f"matrix inverse failed: {e}") from e


def step_stack(A: np.ndarray, H1i: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Workspace of the matrices one fixed-point step inverts.

    Returns a (1 + k, r, r) stack holding T = A H1i A + A, then
    A + shifts[i] for the k slices of the shift stack (built once per
    solve or per EGBA pass).  Every step inverts its stack in one LAPACK
    call; each slice of that call's result is bit-equal to inverting the
    matrix on its own.
    """
    W = np.empty((1 + len(shifts),) + A.shape)
    np.add(A @ H1i @ A, A, out=W[0])
    np.add(A, shifts, out=W[1:])
    return W


def objective_reduced(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> float:
    """Reduced objective logdet(A_U + SigmaHat1) - lam * logdet(A_U + SigmaHat2)."""
    A = symmetric_matrix(A_U)
    lam = number(lam, "lam must be a number")
    return logdet(A + red.SigmaHat1) - lam * logdet(A + red.SigmaHat2)


def _gradient(A: np.ndarray, H: np.ndarray, w: tuple[float, ...]) -> np.ndarray:
    """Gradient sum_i w_i inv(A + H_i) of sum_i w_i logdet(A + H_i), from
    one stacked inverse."""
    return symmetrize(weighted(w, inv(A + H)))


def gradient_reduced(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> np.ndarray:
    """Gradient of the reduced objective: (A+SigmaHat1)^{-1} - lam (A+SigmaHat2)^{-1}."""
    return _gradient(symmetric_matrix(A_U), red.H,
                     (1.0, -number(lam, "lam must be a number")))


def _kkt(A: np.ndarray, G: np.ndarray) -> float:
    """Projected-gradient residual ||A - project_box(A + G)||_F."""
    return float(np.linalg.norm(A - project_box(A + G)))


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


def _p_step(A: np.ndarray, H1i: np.ndarray, H2s: np.ndarray,
            lam: float) -> tuple[np.ndarray, np.ndarray]:
    """GBA-P (and EGBA K_V) map: the box projection of
    inv(inv(T) + lam inv(A + H2)), T = A H1i A + A, with H2s the
    one-slice stack (H2,); returns the new iterate and its eigenvalues."""
    Wi = inv(step_stack(A, H1i, H2s))
    return project_box_inverse(Wi[0] + lam * Wi[1])


def _a_step(A: np.ndarray, H1i: np.ndarray, H2s: np.ndarray, lam: float,
            pairs: tuple[np.ndarray, np.ndarray]
            ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """GBA-A map: the eigenvalue-wise roots of the quadratic built from
    one stacked inverse of T and A + H2, and inv(I - A) from the
    eigenpairs (q, Q) of A, ordered as eigh returns them.  lam must be
    finite and > 1: the callers check it once.  Returns the new iterate
    and its eigenpairs."""
    q, Q = pairs
    gap = 1.0 - q
    if not gap.all():
        raise NumericalBreakdownError("I - A is singular: A has eigenvalue 1")
    Wi = inv(step_stack(A, H1i, H2s))
    D_U = Wi[0]
    D_V = (Q / gap) @ Q.T - Wi[1]
    b, H = np.linalg.eigh(symmetrize(D_U - lam * D_V))
    a = np.clip(_root(b, lam), PD_FLOOR, 1.0 - PD_FLOOR)
    return symmetrize((H * a) @ H.T), (a, H)


def gba_a_step(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> np.ndarray:
    """One alternating closed-form step from an iterate with I - A
    nonsingular.  Raises InvalidInputError unless lam is finite and > 1
    (checked first) and A_U is in the box, NumericalBreakdownError when
    I - A is singular."""
    rule = "lam must be a finite weight > 1"
    if (lam := number(lam, rule)) <= 1.0:
        raise InvalidInputError(f"{rule}, got {lam}")
    A = check_box(A_U, red.rank)
    return _a_step(A, inv(red.SigmaHat1), red.SigmaHat2[None], lam,
                   np.linalg.eigh(A))[0]


def _fast_objective(A: np.ndarray, H: np.ndarray, w: tuple[float, ...]) -> float:
    """sum_i w_i logdet(A + H_i) via one stacked LU log-determinant;
    iterates keep every A + H_i PD."""
    s, ld = np.linalg.slogdet(A + H)
    if min(s.tolist()) <= 0.0:
        raise NumericalBreakdownError("iterate lost positive definiteness")
    return weighted(w, ld.tolist())


def _rise(t: float, mu: np.ndarray, w: tuple[float, ...]) -> float:
    """f(A + tD) - f(A) = sum_i w_i sum log1p(t mu_i), where mu_i are the
    eigenvalues of L_i^-1 D L_i^-T and A + H_i = L_i L_i^T.

    Accurate relative to the change itself, however small, where a
    difference of two log-determinants loses everything below the
    rounding error of f.
    """
    return weighted(w, np.log1p(t * mu).sum(axis=1).tolist())


class _Spg:
    """Spectral projected gradient ascent of f(A) = sum_i w_i logdet(A + H_i)
    on the reduced box [0, I].

    H is a (k, r, r) stack of PD matrices and w the k weights: (SigmaHat1,
    SigmaHat2) with (1, -lam) for the private problem, and the four or two
    slices of an EGBA block.  Holds f (the objective, or its change from
    the start) and, for the current iterate, the gradient G, the inverse
    Cholesky factors Li of A + H_i, the KKT residual and the projected
    point P of the next step, with the Barzilai-Borwein step length it
    was taken at, and `last`, the iterate its last step returned.  Each
    iterate is factored once (_factor) and projected once: the start by
    one project_box of A + G, which at the start's step length 1 is both
    the KKT residual's point and the first step's, and every later
    iterate by _project.  So a step makes four LAPACK calls: an
    eigvalsh, a Cholesky, an inv and an eigh, each on a stack.
    """

    last = None

    def __init__(self, A: np.ndarray, H: np.ndarray, w: tuple[float, ...],
                 rel_tol: float, f: float = 0.0):
        self.H = H
        self.w = w
        self.rel_tol = rel_tol
        self.f = f
        self.alpha = 1.0
        self.G, self.Li = self._factor(A)
        self.P = project_box(A + self.G)
        self.kkt = float(np.linalg.norm(A - self.P))

    @property
    def rank(self) -> int:
        return self.H.shape[-1]

    @property
    def converged(self) -> bool:
        return self.kkt <= self.rel_tol

    def stops(self, A: np.ndarray, An: np.ndarray) -> bool:
        return self.converged

    def kkt_at(self, A: np.ndarray) -> float:
        return self.kkt

    def _factor(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The gradient at A, as _gradient takes it, and the stack Li of
        inverse Cholesky factors of A + H_i, from one Cholesky and one
        stacked inv of [L, A + H].  Li is None when the Cholesky fails;
        the next step raises then, so a stop at A still reports."""
        AH = A + self.H
        try:
            L = np.linalg.cholesky(AH)
        except np.linalg.LinAlgError:
            return _gradient(A, self.H, self.w), None
        k = len(AH)
        Wi = inv(np.concatenate((L, AH)))
        return symmetrize(weighted(self.w, Wi[k:])), Wi[:k]

    def _project(self, A: np.ndarray) -> None:
        """The KKT residual at A, as _kkt takes it, and the next step's
        projection P of A + alpha G, from one stacked project_box."""
        P = project_box(np.stack((A + self.G, A + self.alpha * self.G)))
        self.kkt = float(np.linalg.norm(A - P[0]))
        self.P = P[1]

    def step(self, A: np.ndarray) -> np.ndarray | None:
        """Next iterate, or None once no rise can be verified: the
        predicted rise is within the rounding error of the measured
        change, or the backtracked step no longer moves the unit box."""
        Li = self.Li
        if Li is None:
            raise NumericalBreakdownError("iterate lost positive definiteness")
        G = self.G
        D = self.P - A
        # >= ||D||^2 / alpha by the projection's variational inequality
        rise = float(np.vdot(G, D))
        mu = np.linalg.eigvalsh(Li @ D @ Li.transpose(0, 2, 1))
        noise = _ROUNDOFF * weighted([abs(wi) for wi in self.w],
                                      np.abs(mu).sum(axis=1).tolist())
        if not rise > noise:
            return None
        t = 1.0
        size = float(np.linalg.norm(D))
        while (change := _rise(t, mu, self.w)) < _ARMIJO * t * rise:
            t *= 0.5
            if t * size <= np.finfo(float).eps:
                return None
        An = A + t * D
        Gn, self.Li = self._factor(An)
        # BB step <s, s> / <s, -y> for ascent, s = An - A, y = Gn - G
        s = t * D
        curv = -float(np.vdot(s, Gn - G))
        self.alpha = (min(max(float(np.vdot(s, s)) / curv, _BB_MIN), _BB_MAX)
                      if curv > 0.0 else _BB_MAX)
        self.f += change
        self.G = Gn
        self._project(An)
        self.last = An
        return An


def _fro(M: np.ndarray) -> float:
    """Frobenius norm with the bits of np.linalg.norm(M), minus its
    wrapper; an EGBA-P step takes two.  With np.linalg.norm in its place
    EGBA-P on the common-egba benchmark panel at rel_tol=1e-3 ran 9%
    slower (2.87 -> 3.15 s and 3.09 -> 3.35 s, one BLAS thread on a
    2-core x86-64 host), and EGBA-P dominates the test suite's time."""
    x = M.ravel(order="K")
    return math.sqrt(x.dot(x))


class FixedPoint:
    """A fixed-point map `update(A, *args)` on the stack H and weights w,
    with its constants args built once per solve or EGBA pass (args[0]
    inverts the slice that gives T).  The map returns the new iterate,
    then its eigenvalues, or for GBA-A, started from the eigenpairs
    `pairs`, the eigenpairs the next step inverts I - A through.

    stops(A, An) tests the relative step.  Started with `eigs`, the
    eigenvalues of A (GBA-P, GBA-A), it compares the spectral norm `num`
    of An - A with tol times A's largest absolute eigenvalue.  Otherwise
    (EGBA-P) it compares the Frobenius norm with tol times the larger of
    ||A||_F and ||I/2||_F, an anchor that lets a block shrinking to zero
    stop, where a purely relative test could never fire.  `last` is the
    iterate the last step returned.
    """

    converged = False
    last = None

    def __init__(self, update, H: np.ndarray, w: tuple[float, ...],
                 tol: float, *args, eigs: np.ndarray | None = None,
                 pairs: tuple[np.ndarray, np.ndarray] | None = None):
        self.update = update
        self.H = H
        self.w = w
        self.tol = tol
        self.args = args
        self.pairs = pairs
        self.den = None if eigs is None else float(max(abs(eigs[0]), abs(eigs[-1])))

    @property
    def rank(self) -> int:
        return self.H.shape[-1]

    def kkt_at(self, A: np.ndarray) -> float:
        return _kkt(A, _gradient(A, self.H, self.w))

    def step(self, A: np.ndarray) -> np.ndarray:
        if self.pairs is None:
            An, self.eigs = self.update(A, *self.args)
        else:
            An, self.pairs = self.update(A, *self.args, self.pairs)
            self.eigs = self.pairs[0]
        self.last = An
        return An

    def stops(self, A: np.ndarray, An: np.ndarray) -> bool:
        if self.den is None:  # started without eigs: EGBA-P's test
            return _fro(An - A) <= self.tol * max(_fro(A), 0.5 * math.sqrt(self.rank))
        self.num = float(np.max(np.abs(np.linalg.eigvalsh(An - A))))
        stop = self.num <= self.tol * self.den
        self.den = max(abs(float(self.eigs.min())), abs(float(self.eigs.max())))
        return stop


def gba_pass(H: np.ndarray, w: tuple[float, ...], tol: float = 0.0,
             update=_p_step, eigs=None, pairs=None) -> FixedPoint:
    """GBA-P's map (GBA-A's with update=_a_step) on the stack H and
    weights w: T from inv(H[0]), the shift H[1] and the ratio -w[1]/w[0],
    which must be finite and > 0 (else InvalidInputError).  solve_private's
    GBA passes and, as common.kv_pass, the EGBA-P K_V pass; eigs and
    pairs are FixedPoint's.  GBA-A's root needs a ratio > 1, so with
    update=_a_step this is the one check of lam in a GBA-A solve."""
    ratio = -w[1] / w[0] if w[0] else math.nan
    least = 1.0 if update is _a_step else 0.0
    if not (np.isfinite(ratio) and ratio > least):
        raise InvalidInputError(
            f"ratio -w[1]/w[0] must be finite and > {least:g}, got {ratio}")
    return FixedPoint(update, H, w, tol, inv(H[0]), H[1:], ratio, eigs=eigs, pairs=pairs)


def run_pass(step, ps, A: np.ndarray, cap: int, watch=None):
    """Run step(A, ps) from A until the pass's stop rule ps.stops(A, An)
    fires (or ps.converged holds at A, after no step), the step returns
    None because it can verify no rise, or cap steps have run.  Every
    solve_private solve and every solve_common block runs here.

    Returns the last iterate, the number of steps, how the run stopped
    ("rule", "stall" or "cap"), the KKT residual of the last iterate on
    the pass's stack and weights, and the trace: the record watch(A, An)
    made of each step, when a watch is given."""
    trace = []
    steps = 0
    stop = "rule" if ps.converged else None
    while stop is None:
        if steps == cap:
            stop = "cap"
        elif (An := step(A, ps)) is None:
            stop = "stall"
        else:
            steps += 1
            if ps.stops(A, An):
                stop = "rule"
            if watch is not None:
                trace.append(watch(A, An))
            A = An
    return A, steps, stop, ps.kkt_at(A), trace


def _initial_iterate(opts: SolveOptions, red: ReducedPrivate,
                     warnings: list[str]) -> np.ndarray:
    r = red.rank
    if opts.init is None:
        return 0.5 * np.eye(r)
    A0 = symmetrize(np.asarray(opts.init, dtype=float))
    if A0.shape != (r, r):
        raise InvalidInputError(
            f"init matrix must be {r}x{r} for this instance, got {A0.shape}"
        )
    clamped = project_box(A0)
    if float(np.max(np.abs(clamped - A0))) > 1e-8:
        warnings.append("starting point was projected onto the clamped box")
    return clamped


def _degenerate_report(inst: PrivateInstance, t0: float) -> SolveReport:
    n = inst.n
    obj = logdet(np.asarray(inst.Sigma1, float)) \
        - float(inst.lam) * logdet(np.asarray(inst.Sigma2, float))
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
    offset = red.offset
    f0 = _fast_objective(A, H, w)
    e0 = np.linalg.eigvalsh(A)
    # each step's record: objective, spectral norm of the step, and the
    # smallest and largest eigenvalue of the new iterate
    if opts.algorithm is Algorithm.SPG:
        ps = _Spg(A, H, w, opts.rel_tol, f0)
        E = np.empty((2,) + A.shape)

        def watch(A, An):
            # SPG's step makes no spectrum: one stacked eigvalsh of the
            # step and the new iterate
            np.subtract(An, A, out=E[0])
            E[1] = An
            d, e = np.linalg.eigvalsh(E)
            return ps.f, float(np.max(np.abs(d))), float(e[0]), float(e[-1])
    else:
        update = _p_step if opts.algorithm is Algorithm.GBA_P else _a_step
        ps = gba_pass(H, w, opts.rel_tol, update, eigs=e0,
                      pairs=np.linalg.eigh(A) if update is _a_step else None)

        def watch(A, An):
            # the stop rule measured the step and the step made the eigenvalues
            return (_fast_objective(An, H, w), ps.num,
                    float(ps.eigs.min()), float(ps.eigs.max()))

    A, steps, stop, kkt, trace = run_pass(lambda A, ps: ps.step(A), ps, A,
                                          int(opts.max_iters), watch)
    if stop == "stall":
        warnings.append(f"SPG step fell below roundoff at KKT residual "
                        f"{kkt:.3e}; stopped before reaching rel_tol")
    den = float(max(abs(e0[0]), abs(e0[-1])))
    rels = []
    for _, num, lo, hi in trace:
        rels.append(num / den if den > 0.0 else 0.0)
        den = max(abs(lo), abs(hi))
    return SolveReport(
        final_AU=A,
        final_KU=lift(red.transform, A),
        objective_trace=np.asarray([f0 + offset] + [r[0] + offset for r in trace]),
        iterations=steps,
        converged=stop == "rule",
        kkt_residual=kkt,
        elapsed_seconds=time.perf_counter() - t0,
        warnings=tuple(warnings),
        iterate_eig_min=min([float(e0[0])] + [r[2] for r in trace]),
        iterate_eig_max=max([float(e0[-1])] + [r[3] for r in trace]),
        step_rel_changes=np.asarray(rels),
    )
