"""Alternating solver for the private-plus-common message problem.

The objective, normalized by the private weight lambda1, is

    (lam2' - lam0'*abar) * logdet(K_U + K_V + Sigma2)
    - lam0'*alpha * logdet(K_U + K_V + Sigma1)
    + logdet(K_U + Sigma1) - lam2' * logdet(K_U + Sigma2)

over K_U, K_V >= 0 with K_U + K_V <= K_C, where lam0' = lambda0/lambda1,
lam2' = lambda2/lambda1 and abar = 1 - alpha.  The outer loop alternates
a K_V and a K_U subproblem until both lifted covariances stop moving in
relative spectral norm.  In the reduced box of its budget each
subproblem maximizes sum_i w_i logdet(A + H_i): the K_V block has
H = (NHat1, NHat2), the compressions of K_U + Sigma2 and K_U + Sigma1,
with w = (c, -lam0'*alpha), c = lam2' - lam0'*abar; the K_U block has
H = (MHat1, MHat2, SigmaHat1, SigmaHat2) with w = (c, -lam0'*alpha, 1,
-lam2').

Each block builds its box with gbc.reduction.build_box and runs one
pass on its (H, w) through the private solver's run_pass, the loop of
every solve.  SPG (the default) runs the spectral projected gradient
ascent of the private solver and stops each block on its KKT residual
(_Spg.stops).  EGBA-P, the paper's extension of GBA-P, iterates
fixed-point maps on the FixedPoint pass of the private solver and stops
each block on the relative Frobenius step (FixedPoint.stops): the K_V
map is GBA-P's map (kv_pass, the private solver's gba_pass), and the K_U
map (ku_pass) adds a coupling term through K_V and a mixed barrier to
the private-message update, with T from H[2] and its scalars read from
w.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    InvalidInstanceError,
    number,
)
from .psd import (
    RANK_EPS,
    _finite_sym,
    logdet,
    project_box,
    project_box_inverse,
    spectral_norm,
    symmetric_matrix,
    symmetrize,
)
from .private import (
    Algorithm,
    FixedPoint,
    SolveOptions,
    _gradient,
    _kkt,
    _Spg,
    gba_pass as kv_pass,
    inv,
    run_pass,
    step_stack,
)
# box_transform and schur_head run inside build_box, and lift is for
# callers' matrices (solve_block lifts its own iterates unchecked);
# perfbench/tracing.py also wraps them under these names
from .reduction import (  # noqa: F401
    box_transform,
    build_box,
    check_box,
    check_matrices,
    lift,
    schur_head,
    transform,
    weighted,
)

INNER_CAP = 50_000


@dataclass(frozen=True)
class CommonInstance:
    """Private-plus-common problem data.

    K_C is the covariance constraint, Sigma1 and Sigma2 the receiver
    noise covariances, lambda0 > lambda2 > lambda1 > 0 the rate weights
    and alpha in [0, 1] the split of the common-rate weight between the
    receivers.  The update requires lambda2 - lambda0*(1 - alpha) > 0.
    """

    K_C: np.ndarray
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    lambda0: float
    lambda1: float
    lambda2: float
    alpha: float

    @property
    def n(self) -> int:
        return int(np.asarray(self.K_C).shape[0])

    def validate(self) -> None:
        """Raise InvalidInstanceError unless the instance invariants hold."""
        check_matrices("K_C", self.K_C, self.Sigma1, self.Sigma2)
        l0, l1, l2, a = (number(getattr(self, k), f"{k} must be a finite real",
                                error=InvalidInstanceError)
                         for k in ("lambda0", "lambda1", "lambda2", "alpha"))
        if not (l0 > l2 > l1 > 0.0):
            raise InvalidInstanceError(
                f"weights must satisfy lambda0 > lambda2 > lambda1 > 0, "
                f"got {l0}, {l2}, {l1}"
            )
        if not (0.0 <= a <= 1.0):
            raise InvalidInstanceError(f"alpha must lie in [0, 1], got {a}")
        if l2 - l0 * (1.0 - a) <= 0.0:
            raise InvalidInstanceError(
                f"lambda2 - lambda0*(1 - alpha) must be positive, "
                f"got {l2 - l0 * (1.0 - a):.3e}"
            )


@dataclass(frozen=True)
class CommonSolveReport:
    """Outcome of one alternating solve.

    K_U, K_V        the returned covariances in original coordinates
    K_W             K_C - K_U - K_V, clamped to the PSD cone (reporting only)
    objective_trace objective at the start and after each outer pass
    inner_iterations
                    per-outer-pass iteration counts of the K_V and K_U
                    inner solves, as a pair of sequences
    converged       whether the outer stopping rule fired before the cap
    kkt_residual    the larger of the K_U and K_V block KKT residuals at the
                    returned pair, each ||A - project_box(A + gradient)||_F
                    on the block's own Schur-head stack, as SPG takes it;
                    a block with a numerically zero budget counts as 0
    elapsed_seconds wall-clock time of the solve
    warnings        human-readable notes (feasibility slips, inner caps)
    step_rel_changes
                    per-outer-pass combined relative changes
    """

    K_U: np.ndarray
    K_V: np.ndarray
    K_W: np.ndarray
    objective_trace: np.ndarray
    inner_iterations: tuple[tuple[int, ...], tuple[int, ...]]
    converged: bool
    kkt_residual: float
    elapsed_seconds: float
    warnings: tuple[str, ...] = ()
    step_rel_changes: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def _weights(inst: CommonInstance) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The block weights (w_v, w_u) of the module docstring, which also
    weight the four log-determinants of objective_common."""
    l1 = float(inst.lambda1)
    l0p = float(inst.lambda0) / l1
    l2p = float(inst.lambda2) / l1
    a = float(inst.alpha)
    w_v = (l2p - l0p * (1.0 - a), -l0p * a)
    return w_v, w_v + (1.0, -l2p)


def objective_common(K_U: np.ndarray, K_V: np.ndarray,
                     inst: CommonInstance) -> float:
    """Normalized private-plus-common objective at (K_U, K_V); its four
    log-determinants come from one stacked eigvalsh.  A K_U or K_V that
    is not n x n raises DimensionMismatchError."""
    KU = symmetric_matrix(K_U, inst.n)
    KUV = KU + symmetric_matrix(K_V, inst.n)
    S1 = symmetrize(inst.Sigma1)
    S2 = symmetrize(inst.Sigma2)
    return weighted(_weights(inst)[1], logdet(np.stack(
        (KUV + S2, KUV + S1, KU + S1, KU + S2))).tolist())


def kv_subproblem_step(A: np.ndarray, ps: FixedPoint | _Spg) -> np.ndarray | None:
    """One step of a block subproblem from the iterate A: the projected
    fixed-point step of a kv_pass or ku_pass, or one step of an SPG pass,
    None once no rise can be verified.

    A goes through check_box unless it is the very array ps.last that
    the pass's own previous step returned; any other array, a copy of
    that one included, is checked.  A caller that edits a returned
    iterate in place must pass a copy.  The skipped check cannot fire,
    and would not change a bit: every iterate a pass returns is exactly
    symmetric and in the box.  SPG's A + tD = (1 - t)A + tP, 0 < t <= 1,
    is a convex combination of two points of the box; the fixed-point
    maps end in project_box_inverse, whose eigenvalues are clipped to
    [1e-10, 1], and GBA-A clips its roots to [1e-10, 1 - 1e-10].
    """
    if A is not ps.last:
        A = check_box(A, ps.rank)
    return ps.step(A)


# the same step; perfbench/tracing.py wraps each block's name on its own
ku_subproblem_step = kv_subproblem_step


def _ku_step(A: np.ndarray, H1i: np.ndarray, shifts: np.ndarray,
             coupling: np.ndarray, w_mid: float, w_m2: float,
             w_m1: float) -> tuple[np.ndarray, np.ndarray]:
    """EGBA-P's K_U map: the box projection of inv(inv(T) + mid + last),
    T = A H1i A + A, mid the symmetrized w_mid inv(A + SigmaHat2) B_V'
    inv(A + MHat1), last = w_m2 inv(A + MHat2) + w_m1 inv(A + MHat1); T
    and A + (MHat1, SigmaHat2, MHat2) are inverted in one stacked call."""
    Wi = inv(step_stack(A, H1i, shifts))
    M1i = Wi[1]
    mid = w_mid * (Wi[2] @ coupling @ M1i)
    mid = (mid + mid.T) / 2.0
    last = w_m2 * Wi[3] + w_m1 * M1i
    return project_box_inverse(Wi[0] + mid + last)


def ku_pass(H: np.ndarray, w: tuple[float, ...], coupling: np.ndarray,
            tol: float = 0.0) -> FixedPoint:
    """The K_U map with its constants for a whole K_U inner solve.

    H = (MHat1, MHat2, SigmaHat1, SigmaHat2) is the K_U block's stack:
    H[2] gives T and is inverted once, and H[0], H[3], H[1] are the
    shifts.  w = w_u gives the map's scalars: lam2' = -w[3],
    lam0'*alpha = -w[1] and lam0'*abar = -(w[0] + w[3]).  All hat
    matrices and the coupling B_V' (the reduced K_V) come from the
    reduction of the current constraint K_C - K_V; the coupling is
    symmetrized here so the eigenvalue projection stays well defined.
    """
    return FixedPoint(_ku_step, H, w, tol, inv(H[2]), H[[0, 3, 1]],
                      symmetrize(coupling), -w[3], -w[1], -(w[0] + w[3]))


def _psd_part(M: np.ndarray) -> np.ndarray:
    """Zero out negative eigenvalues."""
    w, V = np.linalg.eigh(symmetrize(M))
    w = np.maximum(w, 0.0)
    return symmetrize((V * w) @ V.T)


def _warm_start(bt, M: np.ndarray, norm: float, scale_eps: float) -> np.ndarray:
    """Previous outer iterate mapped into the current reduced box, or I/2.

    The previous covariance is feasible for the new constraint by
    construction (each subproblem was solved under the other variable's
    budget), so its transform lands in [0, I] up to roundoff and only
    needs the clamped projection.  Warm-starting the inner loops at it
    removes the cost of re-approaching a boundary-active solution from
    I/2 on every outer pass.  A block that is numerically zero carries no
    information; the inner loop then starts from I/2.  norm is the
    spectral norm of M, which the outer loop has already taken.
    """
    if norm <= scale_eps:
        return 0.5 * np.eye(bt.rank)
    return project_box(transform(bt, M)[:bt.rank, :bt.rank])


def solve_common(inst: CommonInstance, opts: SolveOptions = SolveOptions()) -> CommonSolveReport:
    """Alternate the K_V and K_U subproblems until the iterates settle.

    Starts from K_U = K_C/2.  Each outer pass reduces the current
    constraint, runs the matching inner solve, and lifts the result
    back.  opts.algorithm picks the inner solver: SPG (the default)
    stops each block when its KKT residual reaches opts.rel_tol/10 (or,
    with a warning, when its backtrack falls below roundoff); GBA_P runs
    the paper's EGBA-P fixed-point maps until the relative step falls to
    opts.rel_tol/10; GBA_A raises InvalidInputError.  Inner solves start
    from I/2 on the first pass and from the previous outer iterate
    (mapped into the new coordinates) afterwards; any strictly interior
    start is admissible, and the warm one avoids re-paying the approach
    to boundary-active solutions each pass.  The outer loop stops when
    the summed relative spectral-norm changes of K_U and K_V fall below
    opts.rel_tol, or after opts.max_iters passes.  An init other than
    None raises InvalidInputError.
    """
    if opts.algorithm is Algorithm.GBA_A:
        raise InvalidInputError("solve_common runs spg or gba-p (EGBA-P), not gba-a")
    if opts.init is not None:
        raise InvalidInputError("solve_common takes no init; it starts from K_U = K_C/2")
    inst.validate()
    t0 = time.perf_counter()
    spg = opts.algorithm is Algorithm.SPG
    n = inst.n
    K_C = symmetrize(inst.K_C)
    S1 = symmetrize(inst.Sigma1)
    S2 = symmetrize(inst.Sigma2)
    inner_tol = float(opts.rel_tol) / 10.0
    # K_V on (K_U + Sigma2, K_U + Sigma1), K_U on (K_V + Sigma2, K_V + Sigma1,
    # Sigma1, Sigma2)
    w_v, w_u = _weights(inst)

    zero = np.zeros((n, n))
    kc_norm = spectral_norm(K_C)
    if kc_norm <= RANK_EPS:
        return CommonSolveReport(
            K_U=zero, K_V=zero, K_W=zero,
            objective_trace=np.array([objective_common(zero, zero, inst)]),
            inner_iterations=((), ()),
            converged=True,
            kkt_residual=0.0,
            elapsed_seconds=time.perf_counter() - t0,
            warnings=("constraint matrix is zero; all covariances are zero",),
        )

    K_U = K_C / 2.0
    K_V = zero
    # spectral norms of the current K_U and K_V: the warm starts test
    # them and the relative change divides by them
    norms = spectral_norm(np.stack((K_U, K_V))).tolist()
    # blocks and budgets below this scale are numerically zero
    scale_eps = RANK_EPS * (1.0 + kc_norm)
    warnings: list[str] = []
    stalls: dict[str, float] = {}
    kv_counts: list[int] = []
    ku_counts: list[int] = []
    trace = [objective_common(K_U, K_V, inst)]
    rels: list[float] = []
    converged = False

    def solve_block(budget, block, norm, stack, w, make_pass, step, label):
        """One inner solve: build the box of `budget` with `stack`,
        warm-start from `block` (of spectral norm `norm`), run SPG or the
        EGBA-P pass make_pass(box, w) on the box's heads and the weights
        w, and lift the result.  Returns the new block, its step count and its KKT
        residual (a zero block, 0 and 0.0 for a zero budget)."""
        try:
            box = build_box(budget, stack, scale_eps)
        except DegenerateInstanceError:
            return zero, 0, 0.0
        B = _warm_start(box.transform, block, norm, scale_eps)
        ps = _Spg(B, box.H, w, inner_tol) if spg else make_pass(box, w)
        B, count, stop, kkt, _ = run_pass(step, ps, B, INNER_CAP)
        if stop == "cap":
            warnings.append(f"{label} inner solve hit the {INNER_CAP}-step cap")
        elif stop == "stall":
            stalls[label] = kkt
        # lift without its box check: B is the projected warm start or an
        # iterate of the pass, in the box either way (kv_subproblem_step)
        L = box.transform.lift_matrix
        return symmetrize(L @ B @ L.T), count, kkt

    for _ in range(1, int(opts.max_iters) + 1):
        K_U_prev = K_U
        K_V_prev = K_V
        nu, nv = norms
        # K_V under the budget K_C - K_U, then K_U under K_C - K_V
        K_V, count, _ = solve_block(
            K_C - K_U, K_V, nv, (K_U + S2, K_U + S1), w_v,
            lambda box, w: kv_pass(box.H, w, inner_tol), kv_subproblem_step, "K_V")
        kv_counts.append(count)
        K_U, count, kkt = solve_block(
            K_C - K_V, K_U, nu, (K_V + S2, K_V + S1, S1, S2), w_u,
            lambda box, w: ku_pass(box.H, w, transform(box.transform, K_V)[
                :box.rank, :box.rank], inner_tol),
            ku_subproblem_step, "K_U")
        ku_counts.append(count)

        trace.append(objective_common(K_U, K_V, inst))
        # one stacked call for the norms of both steps and of both new
        # blocks, which the next pass reads
        du, dv, *norms = spectral_norm(np.stack(
            (K_U - K_U_prev, K_V - K_V_prev, K_U, K_V))).tolist()
        rel = du / max(nu, scale_eps) + dv / max(nv, scale_eps)
        rels.append(rel)
        if rel <= float(opts.rel_tol):
            converged = True
            break

    warnings += [f"{label} inner solve stopped on roundoff at KKT residual {kkt:.3e}"
                 for label, kkt in stalls.items()]
    # 0 <= K_U, 0 <= K_V and K_U + K_V <= K_C, as loewner_leq tests each,
    # from one stacked eigvalsh
    low = np.linalg.eigvalsh(_finite_sym(np.stack((K_U, K_V, K_C - (K_U + K_V)))))
    if not low[:, 0].min() >= -1e-8:
        warnings.append("final covariances violate feasibility beyond slack 1e-8")
    drops = np.diff(np.asarray(trace))
    if drops.size and float(np.min(drops)) < -1e-6:
        warnings.append(
            f"objective decreased by {-float(np.min(drops)):.3e} across an outer pass"
        )
    # each block's residual on its own stack, the one SPG stops on: K_U's
    # from its last solve, which ran at the returned K_V, and K_V's on a
    # fresh box, because K_U moved after the last K_V solve
    try:
        box = build_box(K_C - K_U, (K_U + S2, K_U + S1), scale_eps)
    except DegenerateInstanceError:
        pass
    else:
        A = transform(box.transform, K_V)[:box.rank, :box.rank]
        kkt = max(kkt, _kkt(A, _gradient(A, box.H, w_v)))

    return CommonSolveReport(
        K_U=K_U,
        K_V=K_V,
        K_W=_psd_part(K_C - K_U - K_V),
        objective_trace=np.asarray(trace),
        inner_iterations=(tuple(kv_counts), tuple(ku_counts)),
        converged=converged,
        kkt_residual=kkt,
        elapsed_seconds=time.perf_counter() - t0,
        warnings=tuple(warnings),
        step_rel_changes=np.asarray(rels),
    )
