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

GBA-P and GBA-A stop when the spectral norm of the iterate change falls
below rel_tol times the spectral norm of the previous iterate.  Each
step returns the new iterate's eigenvalues, so the loop needs an
eigvalsh of the change only.
"""

from __future__ import annotations

import enum
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    NumericalBreakdownError,
)
from .psd import PD_FLOOR, logdet, project_box, project_box_inverse, symmetrize
from .reduction import PrivateInstance, ReducedPrivate, check_box, lift, reduce


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

    solve_common runs SPG or, for GBA_P, the paper's EGBA-P as its inner
    solver; it raises InvalidInputError for GBA_A and for an init other
    than None.
    """

    algorithm: Algorithm = Algorithm.SPG
    max_iters: int = 100
    rel_tol: float = 1e-4
    init: np.ndarray | None = None

    def validate(self) -> None:
        """Raise InvalidInputError unless every field holds a usable value."""
        if not isinstance(self.algorithm, Algorithm):
            raise InvalidInputError(f"unknown algorithm {self.algorithm!r}")
        m = self.max_iters
        if not (isinstance(m, numbers.Real) and np.isfinite(m)
                and m == int(m) and m >= 1):
            raise InvalidInputError(f"max_iters must be a whole number >= 1, got {m!r}")
        t = self.rel_tol
        if not (isinstance(t, numbers.Real) and np.isfinite(t) and t > 0.0):
            raise InvalidInputError(f"rel_tol must be a positive finite real, got {t!r}")
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
    A = symmetrize(A_U)
    return logdet(A + red.SigmaHat1) - float(lam) * logdet(A + red.SigmaHat2)


def _weighted(w: tuple[float, ...], X) -> float | np.ndarray:
    """w[0] X[0] + w[1] X[1] + ..., summed in slice order; for the private
    weights (1, -lam) the bits of X[0] - lam X[1].  X is a stack of
    matrices or a list of floats (faster than numpy scalars)."""
    total = w[0] * X[0]
    for i in range(1, len(w)):
        total += w[i] * X[i]
    return total


def _gradient(A: np.ndarray, H: np.ndarray, w: tuple[float, ...]) -> np.ndarray:
    """Gradient sum_i w_i inv(A + H_i) of sum_i w_i logdet(A + H_i), from
    one stacked inverse."""
    return symmetrize(_weighted(w, inv(A + H)))


def gradient_reduced(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> np.ndarray:
    """Gradient of the reduced objective: (A+SigmaHat1)^{-1} - lam (A+SigmaHat2)^{-1}."""
    return _gradient(symmetrize(A_U), np.stack((red.SigmaHat1, red.SigmaHat2)),
                     (1.0, -float(lam)))


def _kkt(A: np.ndarray, G: np.ndarray) -> float:
    """Projected-gradient residual ||A - project_box(A + G)||_F."""
    return float(np.linalg.norm(A - project_box(A + G)))


def root_in_unit_interval(b, lam):
    """Root in (0, 1) of b*a^2 - (lam + 1 + b)*a + 1 = 0 for lam > 1.

    Accepts a scalar or an array of b values.  With s = lam + 1 + b and
    d = sqrt(s^2 - 4b), the root is 2/(s + d) = (s - d)/(2b); each form
    is evaluated where it adds two terms of one sign, the first for
    s >= 0 and the second for s < 0 (which needs b < -(lam + 1)), so
    neither cancels.  b = 0 (where the quadratic degenerates to a linear
    equation) returns exactly 1/(1 + lam).
    """
    lam_arr = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam_arr)) or np.any(lam_arr <= 1.0):
        raise InvalidInputError(f"lam must be a finite weight > 1, got {lam}")
    b_arr = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b_arr)):
        raise InvalidInputError("b must be finite")
    s = lam_arr + 1.0 + b_arr
    d = np.sqrt(s * s - 4.0 * b_arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(s < 0.0, (s - d) / (2.0 * b_arr), 2.0 / (s + d))
    root = np.where(b_arr == 0.0, 1.0 / (1.0 + lam_arr), root)
    if root.ndim == 0:
        return float(root)
    return root


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
    eigenpairs (q, Q) of A, ordered as eigh returns them.  Returns the
    new iterate and its eigenpairs."""
    q, Q = pairs
    gap = 1.0 - q
    if not gap.all():
        raise NumericalBreakdownError("I - A is singular: A has eigenvalue 1")
    Wi = inv(step_stack(A, H1i, H2s))
    D_U = Wi[0]
    D_V = (Q / gap) @ Q.T - Wi[1]
    b, H = np.linalg.eigh(symmetrize(D_U - lam * D_V))
    a = np.clip(root_in_unit_interval(b, lam), PD_FLOOR, 1.0 - PD_FLOOR)
    return symmetrize((H * a) @ H.T), (a, H)


def gba_a_step(A_U: np.ndarray, red: ReducedPrivate, lam: float) -> np.ndarray:
    """One alternating closed-form step from an iterate with I - A
    nonsingular; raises NumericalBreakdownError otherwise."""
    A = check_box(A_U, red.rank)
    return _a_step(A, inv(red.SigmaHat1), red.SigmaHat2[None], float(lam),
                   np.linalg.eigh(A))[0]


def _fast_objective(A: np.ndarray, H: np.ndarray, w: tuple[float, ...]) -> float:
    """sum_i w_i logdet(A + H_i) via one stacked LU log-determinant;
    iterates keep every A + H_i PD."""
    s, ld = np.linalg.slogdet(A + H)
    if min(s.tolist()) <= 0.0:
        raise NumericalBreakdownError("iterate lost positive definiteness")
    return _weighted(w, ld.tolist())


def _rise(t: float, mu: np.ndarray, w: tuple[float, ...]) -> float:
    """f(A + tD) - f(A) = sum_i w_i sum log1p(t mu_i), where mu_i are the
    eigenvalues of L_i^-1 D L_i^-T and A + H_i = L_i L_i^T.

    Accurate relative to the change itself, however small, where a
    difference of two log-determinants loses everything below the
    rounding error of f.
    """
    return _weighted(w, np.log1p(t * mu).sum(axis=1).tolist())


class _Spg:
    """Spectral projected gradient ascent of f(A) = sum_i w_i logdet(A + H_i)
    on the reduced box [0, I].

    H is a (k, r, r) stack of PD matrices and w the k weights: (SigmaHat1,
    SigmaHat2) with (1, -lam) for the private problem, and the four or two
    slices of an EGBA block.  Holds f (the objective, or its change from
    the start), the gradient G and KKT residual at the current iterate,
    and the Barzilai-Borwein step length for the next step.
    """

    def __init__(self, A: np.ndarray, H: np.ndarray, w: tuple[float, ...],
                 rel_tol: float, f: float = 0.0):
        self.H = H
        self.w = w
        self.rel_tol = rel_tol
        self.f = f
        self.G = _gradient(A, H, w)
        self.kkt = _kkt(A, self.G)
        self.alpha = 1.0
        self.E = np.empty((2,) + A.shape)

    @property
    def rank(self) -> int:
        return self.H.shape[-1]

    @property
    def converged(self) -> bool:
        return self.kkt <= self.rel_tol

    def stops(self, num: float, bound: float) -> bool:
        return self.converged

    def kkt_at(self, A: np.ndarray) -> float:
        return self.kkt

    def spectra(self, A: np.ndarray, An: np.ndarray) -> tuple[float, float, float]:
        """Largest absolute eigenvalue of the step An - A, and the
        smallest and largest eigenvalue of An, from one stacked eigvalsh
        on a workspace made once per solve."""
        E = self.E
        np.subtract(An, A, out=E[0])
        E[1] = An
        w = np.linalg.eigvalsh(E)
        return float(np.max(np.abs(w[0]))), float(w[1][0]), float(w[1][-1])

    def stall_warning(self) -> str:
        return (f"SPG step fell below roundoff at KKT residual "
                f"{self.kkt:.3e}; stopped before reaching rel_tol")

    def step(self, A: np.ndarray) -> np.ndarray | None:
        """Next iterate, or None once no rise can be verified: the
        predicted rise is within the rounding error of the measured
        change, or the backtracked step no longer moves the unit box."""
        G = self.G
        D = project_box(A + self.alpha * G) - A
        # >= ||D||^2 / alpha by the projection's variational inequality
        rise = float(np.vdot(G, D))
        try:
            Li = inv(np.linalg.cholesky(A + self.H))
        except np.linalg.LinAlgError as e:
            raise NumericalBreakdownError("iterate lost positive definiteness") from e
        mu = np.linalg.eigvalsh(Li @ D @ Li.transpose(0, 2, 1))
        noise = _ROUNDOFF * _weighted([abs(wi) for wi in self.w],
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
        Gn = _gradient(An, self.H, self.w)
        # BB step <s, s> / <s, -y> for ascent, s = An - A, y = Gn - G
        s = t * D
        curv = -float(np.vdot(s, Gn - G))
        self.alpha = (min(max(float(np.vdot(s, s)) / curv, _BB_MIN), _BB_MAX)
                      if curv > 0.0 else _BB_MAX)
        self.f += change
        self.G = Gn
        self.kkt = _kkt(An, Gn)
        return An


class FixedPoint:
    """A fixed-point map `update(A, *args)` behind the step interface of
    _Spg, with its constants built once per solve or EGBA pass; args[0]
    is the r x r inverse of the first noise matrix.  The map returns the
    new iterate first, then what it learned of its spectrum.  A solve
    stops once the step norm is within its bound."""

    converged = False

    def __init__(self, update, *args):
        self.update = update
        self.args = args

    @property
    def rank(self) -> int:
        return self.args[0].shape[0]

    @staticmethod
    def stops(num: float, bound: float) -> bool:
        return num <= bound

    def step(self, A: np.ndarray) -> np.ndarray:
        return self.update(A, *self.args)[0]


class _Gba(FixedPoint):
    """GBA-P or GBA-A for solve_private: the fixed-point pass on the stack
    H and weights w that _Spg takes (T from H[0], the shift H[1], the
    weight -w[1]/w[0]), plus the objective and eigenvalues of each new
    iterate and the KKT residual the report needs.  GBA-A also carries
    the eigenpairs of its current iterate, starting from one eigh of A,
    for its map's inv(I - A)."""

    def __init__(self, update, A: np.ndarray, f: float, H: np.ndarray,
                 w: tuple[float, ...]):
        super().__init__(update, inv(H[0]), H[1:], -w[1] / w[0])
        self.H = H
        self.w = w
        self.f = f
        self.pairs = np.linalg.eigh(A) if update is _a_step else None

    def kkt_at(self, A: np.ndarray) -> float:
        return _kkt(A, _gradient(A, self.H, self.w))

    def step(self, A: np.ndarray) -> np.ndarray:
        if self.pairs is None:
            An, self.eigs = self.update(A, *self.args)
        else:
            An, self.pairs = self.update(A, *self.args, self.pairs)
            self.eigs = self.pairs[0]
        self.f = _fast_objective(An, self.H, self.w)
        return An

    def spectra(self, A: np.ndarray, An: np.ndarray) -> tuple[float, float, float]:
        """Largest absolute eigenvalue of the step An - A, and the
        smallest and largest eigenvalue of An, which the step made."""
        e = self.eigs
        return (float(np.max(np.abs(np.linalg.eigvalsh(An - A)))),
                float(e.min()), float(e.max()))


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
    opts.validate()
    inst.validate()
    t0 = time.perf_counter()
    try:
        red = reduce(inst)
    except DegenerateInstanceError:
        return _degenerate_report(inst, t0)

    warnings = list(red.warnings)
    A = _initial_iterate(opts, red, warnings)
    H = np.stack((red.SigmaHat1, red.SigmaHat2))
    w = (1.0, -red.lam)
    f = _fast_objective(A, H, w)
    if opts.algorithm is Algorithm.SPG:
        solver = _Spg(A, H, w, opts.rel_tol, f)
    else:
        update = _p_step if opts.algorithm is Algorithm.GBA_P else _a_step
        solver = _Gba(update, A, f, H, w)

    w0 = np.linalg.eigvalsh(A)
    eig_min = float(w0[0])
    eig_max = float(w0[-1])
    den = float(max(abs(w0[0]), abs(w0[-1])))
    trace = [f + red.offset]
    rels: list[float] = []
    converged = solver.converged
    iterations = 0

    while not converged and iterations < int(opts.max_iters):
        An = solver.step(A)
        if An is None:
            warnings.append(solver.stall_warning())
            break
        iterations += 1
        num, lo, hi = solver.spectra(A, An)
        converged = solver.stops(num, opts.rel_tol * den)
        eig_min = min(eig_min, lo)
        eig_max = max(eig_max, hi)
        trace.append(solver.f + red.offset)
        rels.append(num / den if den > 0.0 else 0.0)
        A = An
        den = max(abs(lo), abs(hi))

    return SolveReport(
        final_AU=A,
        final_KU=lift(red.transform, A),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        kkt_residual=solver.kkt_at(A),
        elapsed_seconds=time.perf_counter() - t0,
        warnings=tuple(warnings),
        iterate_eig_min=eig_min,
        iterate_eig_max=eig_max,
        step_rel_changes=np.asarray(rels),
    )
