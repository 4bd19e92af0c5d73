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

Two inner solvers are available.  SPG (the default) runs the spectral
projected gradient ascent of the private solver on these weighted
stacks and stops each block on its KKT residual.  EGBA-P, the paper's
extension of GBA-P, iterates fixed-point maps on the FixedPoint pass of
the private solver: the K_V map is GBA-P's map (weight ratio
lam0*alpha/(lam2 - lam0*abar) > 0), and the K_U map adds a coupling term
through K_V and a mixed barrier to the private-message update; it stops
each block on the relative step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    InvalidInstanceError,
)
from .psd import (
    RANK_EPS,
    logdet,
    loewner_leq,
    project_box,
    spectral_norm,
    symmetrize,
)
from .private import (
    Algorithm,
    FixedPoint,
    SolveOptions,
    _gradient,
    _kkt,
    _p_step,
    _Spg,
    inv,
    step_stack,
)
from .reduction import (
    BoxTransform,
    box_transform,
    check_box,
    check_matrices,
    lift,
    schur_head,
    transform,
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
        l0, l1, l2 = (float(self.lambda0), float(self.lambda1), float(self.lambda2))
        a = float(self.alpha)
        if not all(np.isfinite(v) for v in (l0, l1, l2, a)):
            raise InvalidInstanceError("weights must be finite")
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
                    in the reduced box of the block's budget
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


def objective_common(K_U: np.ndarray, K_V: np.ndarray,
                     inst: CommonInstance) -> float:
    """Normalized private-plus-common objective at (K_U, K_V)."""
    KU = symmetrize(K_U)
    KV = symmetrize(K_V)
    l0p = float(inst.lambda0) / float(inst.lambda1)
    l2p = float(inst.lambda2) / float(inst.lambda1)
    a = float(inst.alpha)
    S1 = symmetrize(inst.Sigma1)
    S2 = symmetrize(inst.Sigma2)
    return (
        (l2p - l0p * (1.0 - a)) * logdet(KU + KV + S2)
        - l0p * a * logdet(KU + KV + S1)
        + logdet(KU + S1)
        - l2p * logdet(KU + S2)
    )


def kv_pass(NHat1: np.ndarray, NHat2: np.ndarray, ratio: float) -> FixedPoint:
    """GBA-P's map on the K_V block, NHat1 inverted once per inner solve.
    The ratio lam0*alpha/(lam2 - lam0*abar) is positive for every valid
    CommonInstance, so a ratio <= 0 is rejected."""
    ratio = float(ratio)
    if not (np.isfinite(ratio) and ratio > 0.0):
        raise InvalidInputError(f"ratio must be finite and > 0, got {ratio}")
    return FixedPoint(_p_step, inv(NHat1), np.asarray(NHat2, dtype=float)[None],
                      ratio)


def kv_subproblem_step(B_V: np.ndarray, kv: FixedPoint | _Spg) -> np.ndarray | None:
    """One step of the K_V subproblem from a box-checked iterate.

    For a kv_pass, the projected fixed-point step: the private-message
    update with the noise pair (NHat1, NHat2) and weight ratio.  For an
    SPG pass, one SPG step from its current iterate B_V, or None once no
    rise can be verified.
    """
    return kv.step(check_box(B_V, kv.rank))


def _ku_step(A: np.ndarray, H1i: np.ndarray, shifts: np.ndarray,
             coupling: np.ndarray, w_mid: float, w_last: float,
             alpha: float) -> np.ndarray:
    Wi = inv(step_stack(A, H1i, shifts))
    M1i = Wi[1]
    mid = w_mid * (Wi[2] @ coupling @ M1i)
    mid = (mid + mid.T) / 2.0
    last = w_last * (alpha * Wi[3] + (1.0 - alpha) * M1i)
    return project_box(inv(Wi[0] + mid + last))


def ku_pass(SigmaHat1: np.ndarray, SigmaHat2: np.ndarray, MHat1: np.ndarray,
            MHat2: np.ndarray, BVprime: np.ndarray, inst: CommonInstance) -> FixedPoint:
    """The K_U map with its constants for a whole K_U inner solve:
    inv(SigmaHat1), the shift stack (MHat1, SigmaHat2, MHat2), the
    symmetrized coupling B_V' and the weights lambda2/lambda1,
    lambda0/lambda1 and alpha.

    All hat matrices must come from the reduction of the current
    constraint K_C - K_V; MHat1 and MHat2 compress K_V + Sigma2 and
    K_V + Sigma1.  The coupling B_V' is symmetrized here so the
    eigenvalue projection stays well defined.
    """
    l1 = float(inst.lambda1)
    return FixedPoint(_ku_step, inv(SigmaHat1), np.stack((MHat1, SigmaHat2, MHat2)),
                      symmetrize(BVprime), float(inst.lambda2) / l1,
                      float(inst.lambda0) / l1, float(inst.alpha))


def ku_subproblem_step(A_U: np.ndarray, ku: FixedPoint | _Spg) -> np.ndarray | None:
    """One step of the K_U subproblem from a box-checked iterate.

    For a ku_pass, the projected fixed-point step inv(inv(T) + mid + last)
    with T = A SigmaHat1^{-1} A + A, mid the symmetrized coupling term
    through B_V' and last the mixed barrier; T, A + MHat1, A + SigmaHat2
    and A + MHat2 are inverted in one stacked call.  For an SPG pass, one
    SPG step from its current iterate A_U, or None once no rise can be
    verified.
    """
    return ku.step(check_box(A_U, ku.rank))


def _fro(M: np.ndarray) -> float:
    """Frobenius norm with the bits of np.linalg.norm(M), minus its
    wrapper; the inner loop takes two per step."""
    x = M.ravel(order="K")
    return math.sqrt(x.dot(x))


def _inner_solve(step, ps, B: np.ndarray, inner_tol: float, label: str,
                 warnings: list[str], stalls: dict[str, float]) -> tuple[np.ndarray, int]:
    """Run step(B, ps) from B until the pass's stop rule fires.

    An SPG pass stops on its KKT residual (already at B when it is
    small enough, after no step), or on roundoff when no rise can be
    verified.  An EGBA-P pass stops when the Frobenius change falls
    below inner_tol times the larger of the iterate norm and the
    box-midpoint norm ||I/2||_F; the absolute anchor keeps the test
    meaningful for blocks shrinking to zero, where a purely relative
    test could never fire.  Only the outer loop owes the spectral-norm
    criterion.  A cap hit adds a warning; a roundoff stall records the
    KKT residual in stalls[label], so each block reports its last stall
    once.  Returns the last iterate and the number of steps.
    """
    anchor = 0.5 * float(np.sqrt(B.shape[0]))
    den = max(_fro(B), anchor)
    count = 0
    stop = ps.converged
    while not stop:
        if count == INNER_CAP:
            warnings.append(f"{label} inner solve hit the {INNER_CAP}-step cap")
            break
        Bn = step(B, ps)
        if Bn is None:
            stalls[label] = ps.kkt
            break
        count += 1
        stop = ps.stops(_fro(Bn - B), inner_tol * den)
        B = Bn
        den = max(_fro(B), anchor)
    return B, count


def _psd_part(M: np.ndarray) -> np.ndarray:
    """Zero out negative eigenvalues."""
    w, V = np.linalg.eigh(symmetrize(M))
    w = np.maximum(w, 0.0)
    return symmetrize((V * w) @ V.T)


def _rel_change(new: np.ndarray, prev: np.ndarray, floor: float) -> float:
    return spectral_norm(new - prev) / max(spectral_norm(prev), floor)


def _warm_start(bt, M: np.ndarray, scale_eps: float) -> np.ndarray:
    """Previous outer iterate mapped into the current reduced box, or I/2.

    The previous covariance is feasible for the new constraint by
    construction (each subproblem was solved under the other variable's
    budget), so its transform lands in [0, I] up to roundoff and only
    needs the clamped projection.  Warm-starting the inner loops at it
    removes the cost of re-approaching a boundary-active solution from
    I/2 on every outer pass.  A block that is numerically zero carries no
    information; the inner loop then starts from I/2.
    """
    if spectral_norm(M) <= scale_eps:
        return 0.5 * np.eye(bt.rank)
    return project_box(transform(bt, M)[:bt.rank, :bt.rank])


def _block_kkt(block: np.ndarray, budget: np.ndarray, H: np.ndarray,
               w: tuple[float, ...]) -> float:
    """KKT residual of one block, the other held fixed.

    The objective as a function of the block is sum_i w_i logdet(block +
    H_i) up to a constant; its gradient is mapped into the reduced box of
    the block's budget, where the residual is taken.  A budget with no
    box leaves nothing to certify.
    """
    try:
        bt = box_transform(budget)
    except DegenerateInstanceError:
        return 0.0
    r = bt.rank
    L = bt.lift_matrix
    return _kkt(transform(bt, block)[:r, :r], L.T @ _gradient(block, H, w) @ L)


def _budget_transform(budget: np.ndarray, scale_eps: float) -> BoxTransform | None:
    """Box transform of a subproblem budget, or None when the budget is
    numerically zero and the block it constrains must be zero."""
    if spectral_norm(budget) <= scale_eps:
        return None
    try:
        return box_transform(budget)
    except DegenerateInstanceError:
        return None


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
    opts.validate()
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
    l0 = float(inst.lambda0)
    l2 = float(inst.lambda2)
    a = float(inst.alpha)
    ratio = l0 * a / (l2 - l0 * (1.0 - a))
    inner_tol = float(opts.rel_tol) / 10.0
    # block weights: K_V on (K_U + Sigma2, K_U + Sigma1), K_U on
    # (K_V + Sigma2, K_V + Sigma1, Sigma1, Sigma2)
    l0p = l0 / float(inst.lambda1)
    l2p = l2 / float(inst.lambda1)
    w_v = (l2p - l0p * (1.0 - a), -l0p * a)
    w_u = w_v + (1.0, -l2p)

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
    # blocks and budgets below this scale are numerically zero
    scale_eps = RANK_EPS * (1.0 + kc_norm)
    warnings: list[str] = []
    stalls: dict[str, float] = {}
    kv_counts: list[int] = []
    ku_counts: list[int] = []
    trace = [objective_common(K_U, K_V, inst)]
    rels: list[float] = []
    converged = False

    def solve_block(budget, block, stack, w, fixed_point, step, label):
        """One inner solve: compress `stack` into the box of `budget`,
        warm-start from `block`, run SPG with weights w or the EGBA-P pass
        fixed_point(bt, heads), and lift the result.  Returns the new
        block, its step count and the pass (None for a zero budget)."""
        bt = _budget_transform(budget, scale_eps)
        if bt is None:
            return zero, 0, None
        r = bt.rank
        H = np.stack([schur_head(transform(bt, M), r) for M in stack])
        B = _warm_start(bt, block, scale_eps)
        ps = _Spg(B, H, w, inner_tol) if spg else fixed_point(bt, H)
        B, count = _inner_solve(step, ps, B, inner_tol, label, warnings, stalls)
        return lift(bt, B), count, ps

    for _ in range(1, int(opts.max_iters) + 1):
        K_U_prev = K_U
        K_V_prev = K_V
        # K_V under the budget K_C - K_U, then K_U under K_C - K_V
        K_V, count, _ = solve_block(
            K_C - K_U, K_V, (K_U + S2, K_U + S1), w_v,
            lambda bt, H: kv_pass(H[0], H[1], ratio), kv_subproblem_step, "K_V")
        kv_counts.append(count)
        K_U, count, ku = solve_block(
            K_C - K_V, K_U, (K_V + S2, K_V + S1, S1, S2), w_u,
            lambda bt, H: ku_pass(H[2], H[3], H[0], H[1],
                                  transform(bt, K_V)[:bt.rank, :bt.rank], inst),
            ku_subproblem_step, "K_U")
        ku_counts.append(count)

        trace.append(objective_common(K_U, K_V, inst))
        rel = (_rel_change(K_U, K_U_prev, scale_eps)
               + _rel_change(K_V, K_V_prev, scale_eps))
        rels.append(rel)
        if rel <= float(opts.rel_tol):
            converged = True
            break

    warnings += [f"{label} inner solve stopped on roundoff at KKT residual {kkt:.3e}"
                 for label, kkt in stalls.items()]
    if not (loewner_leq(zero, K_U) and loewner_leq(zero, K_V)
            and loewner_leq(K_U + K_V, K_C)):
        warnings.append("final covariances violate feasibility beyond slack 1e-8")
    drops = np.diff(np.asarray(trace))
    if drops.size and float(np.min(drops)) < -1e-6:
        warnings.append(
            f"objective decreased by {-float(np.min(drops)):.3e} across an outer pass"
        )
    # the last K_U solve ran at the returned K_V, so an SPG pass already
    # holds that block's residual; K_U moved after the last K_V solve
    kkt_u = ku.kkt if isinstance(ku, _Spg) else _block_kkt(
        K_U, K_C - K_V, np.stack((K_V + S2, K_V + S1, S1, S2)), w_u)
    kkt_v = _block_kkt(K_V, K_C - K_U, np.stack((K_U + S2, K_U + S1)), w_v)

    return CommonSolveReport(
        K_U=K_U,
        K_V=K_V,
        K_W=_psd_part(K_C - K_U - K_V),
        objective_trace=np.asarray(trace),
        inner_iterations=(tuple(kv_counts), tuple(ku_counts)),
        converged=converged,
        kkt_residual=max(kkt_u, kkt_v),
        elapsed_seconds=time.perf_counter() - t0,
        warnings=tuple(warnings),
        step_rel_changes=np.asarray(rels),
    )
