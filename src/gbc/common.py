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
pass on its (H, w), started at the block's warm start, through the
private solver's run_pass, the loop of every solve.  SPG (the default)
runs the spectral projected gradient ascent of the private solver and
stops each block on its KKT residual.  EGBA-P, the paper's extension of
GBA-P, runs the private solver's FixedPoint pass, its one fixed-point
kernel, on each block and stops it on the relative Frobenius step.  The
K_V map is GBA-P's map; the K_U map adds a coupling through K_V and a
mixed barrier to the private-message update, and its stack already
carries both (the coupling is MHat1 - SigmaHat2, by the identities in
gbc.private).  So this module supplies only stacks and weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import DegenerateInstanceError, InvalidInputError, InvalidInstanceError
from .psd import (
    _finite_sym,
    logdet_of,
    matrix,
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
    _Spg,
    run_pass,
)
# box_transform and schur_head run inside build_box, and lift is for
# callers' matrices (solve_block lifts its passes' iterates unchecked);
# perfbench/tracing.py also wraps them under these names
from .reduction import (  # noqa: F401
    box_transform,
    build_box,
    check_matrices,
    lift,
    read_fields,
    schur_head,
    transform,
    weighted,
    zero_floor,
)

INNER_CAP = 50_000


@dataclass(frozen=True)
class CommonInstance:
    """Private-plus-common problem data.

    K_C is the covariance constraint, Sigma1 and Sigma2 the receiver
    noise covariances, lambda0 > lambda2 > lambda1 > 0 the rate weights
    and alpha in [0, 1] the split of the common-rate weight between the
    receivers.  The update requires lambda2 - lambda0*(1 - alpha) > 0.
    Building it reads its fields as PrivateInstance does.
    """

    K_C: np.ndarray
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    lambda0: float
    lambda1: float
    lambda2: float
    alpha: float

    def __post_init__(self) -> None:
        read_fields(self, ("K_C", "Sigma1", "Sigma2"),
                    {k: f"{k} must be a finite real"
                     for k in ("lambda0", "lambda1", "lambda2", "alpha")})

    @property
    def n(self) -> int:
        return len(self.K_C)

    def validate(self) -> None:
        """Raise InvalidInstanceError unless the instance invariants hold."""
        check_matrices("K_C", self.K_C, self.Sigma1, self.Sigma2)
        l0, l1, l2, a = self.lambda0, self.lambda1, self.lambda2, self.alpha
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
    converged       whether the outer rule (relative change <= rel_tol)
                    fired before the cap; it does not bound kkt_residual,
                    e.g. 5.28e-4 on random_instance(4, 2, "common") at
                    rel_tol=1e-3 (ROADMAP item 2: stop on the residual)
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
    l1 = inst.lambda1
    l0p = inst.lambda0 / l1
    l2p = inst.lambda2 / l1
    a = inst.alpha
    w_v = (l2p - l0p * (1.0 - a), -l0p * a)
    return w_v, w_v + (1.0, -l2p)


def _objective(K_U: np.ndarray, K_V: np.ndarray, S1: np.ndarray, S2: np.ndarray,
               w: tuple[float, ...], *extra: np.ndarray) -> tuple[float, list[float]]:
    """The objective sum_i w_i logdet of (K_U + K_V + S2, K_U + K_V + S1,
    K_U + S1, K_U + S2) at symmetric K_U, K_V, S1 and S2, and the
    spectral norms of the matrices in extra, from one stacked eigvalsh
    of the folded stack (a slice of it has the bits of logdet's or
    spectral_norm's call on that matrix alone).  The log-determinants
    keep logdet's rule, gbc.psd.logdet_of."""
    KUV = K_U + K_V
    e = _lapack.eigvalsh(_finite_sym(np.stack(
        (KUV + S2, KUV + S1, K_U + S1, K_U + S2) + extra)))
    norms = np.abs(e[4:]).max(axis=-1).tolist() if extra else []
    return weighted(w, logdet_of(e[:4]).tolist()), norms


def objective_common(K_U: np.ndarray, K_V: np.ndarray,
                     inst: CommonInstance) -> float:
    """Normalized private-plus-common objective at (K_U, K_V); its four
    log-determinants come from one stacked eigvalsh.  A K_U or K_V that
    is not n x n raises DimensionMismatchError."""
    KU = symmetrize(matrix(K_U, "K_U", inst.n))
    KV = symmetrize(matrix(K_V, "K_V", inst.n))
    return _objective(KU, KV, symmetrize(inst.Sigma1), symmetrize(inst.Sigma2),
                      _weights(inst)[1])[0]


def kv_subproblem_step(ps: FixedPoint | _Spg) -> np.ndarray | None:
    """One step of a block pass, ps.step()."""
    return ps.step()


# the same step; perfbench/tracing.py wraps each block's name on its own
ku_subproblem_step = kv_subproblem_step


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

    Each outer pass keeps its books with one stacked eigvalsh: the four
    log-determinants of the objective trace's entry and the spectral
    norms of both steps and both new blocks, which the next pass divides
    by and tests its warm starts with.  objective_common takes its four
    log-determinants through the same helper, so every trace entry has
    its bits, and the start's entry is objective_common itself.

    EGBA-P's K_U map steps from the gradient of the block objective on
    the box's own Schur heads, the objective SPG maximizes and
    kkt_residual certifies.  Where K_V saturates K_C along a direction,
    the budget K_C - K_V drops rank, build_box takes its Schur path, and
    the coupling MHat1 - SigmaHat2 the heads carry is not the head of
    the reduced K_V that the paper writes as B_V'; the map follows the
    former.
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
    inner_tol = opts.rel_tol / 10.0
    # K_V on (K_U + Sigma2, K_U + Sigma1), K_U on (K_V + Sigma2, K_V + Sigma1,
    # Sigma1, Sigma2)
    w_v, w_u = _weights(inst)

    zero = np.zeros((n, n))
    kc_norm = spectral_norm(K_C)
    # blocks, budgets and K_C itself at or below this scale are zero
    scale_eps = zero_floor(kc_norm)
    if kc_norm <= scale_eps:
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
    warnings: list[str] = []
    stalls: dict[str, float] = {}
    kv_counts: list[int] = []
    ku_counts: list[int] = []
    trace = [objective_common(K_U, K_V, inst)]
    rels: list[float] = []
    converged = False

    def solve_block(budget, block, norm, stack, w, step, label):
        """One inner solve: build the box of `budget` with `stack`, run
        SPG or the EGBA-P pass from the warm start B of `block` (of
        spectral norm `norm`) on the box's heads and the weights w, and
        lift the result.  Returns the new block, its step count and its
        KKT residual (a zero block, 0 and 0.0 for a zero budget)."""
        try:
            box = build_box(budget, stack, kc_norm)
        except DegenerateInstanceError:
            return zero, 0, 0.0
        B = _warm_start(box.transform, block, norm, scale_eps)
        ps = (_Spg if spg else FixedPoint)(B, box.H, w, inner_tol)
        B, count, stop, kkt, _ = run_pass(step, ps, INNER_CAP)
        if stop == "cap":
            warnings.append(f"{label} inner solve hit the {INNER_CAP}-step cap")
        elif stop == "stall":
            stalls[label] = kkt
        # lift without its box check: the pass checked its start, and its
        # steps stay in the box
        L = box.transform.lift_matrix
        K = L @ B @ L.T
        return (K + K.T) / 2.0, count, kkt

    for _ in range(1, opts.max_iters + 1):
        K_U_prev = K_U
        K_V_prev = K_V
        nu, nv = norms
        # K_V under the budget K_C - K_U, then K_U under K_C - K_V
        K_V, count, _ = solve_block(K_C - K_U, K_V, nv, (K_U + S2, K_U + S1), w_v,
                                    kv_subproblem_step, "K_V")
        kv_counts.append(count)
        K_U, count, kkt = solve_block(K_C - K_V, K_U, nu, (K_V + S2, K_V + S1, S1, S2),
                                      w_u, ku_subproblem_step, "K_U")
        ku_counts.append(count)

        # one stacked eigvalsh for the objective and for the norms of both
        # steps and of both new blocks, which the next pass reads
        obj, (du, dv, *norms) = _objective(K_U, K_V, S1, S2, w_u, K_U - K_U_prev,
                                           K_V - K_V_prev, K_U, K_V)
        trace.append(obj)
        rel = du / max(nu, scale_eps) + dv / max(nv, scale_eps)
        rels.append(rel)
        if rel <= opts.rel_tol:
            converged = True
            break

    warnings += [f"{label} inner solve stopped on roundoff at KKT residual {kkt:.3e}"
                 for label, kkt in stalls.items()]
    # 0 <= K_U, 0 <= K_V and K_U + K_V <= K_C, as loewner_leq tests each,
    # from one stacked eigh, whose third eigenpairs give K_W
    low, V = _lapack.eigh(_finite_sym(np.stack((K_U, K_V, K_C - K_U - K_V))))
    if not low[:, 0].min() >= -1e-8:
        warnings.append("final covariances violate feasibility beyond slack 1e-8")
    drops = np.diff(np.asarray(trace))
    if drops.size and float(np.min(drops)) < -1e-6:
        warnings.append(
            f"objective decreased by {-float(np.min(drops)):.3e} across an outer pass"
        )
    # each block's residual on its own stack, the one SPG stops on: K_U's
    # from its final solve, which ran at the returned K_V, and K_V's on a
    # fresh box, because K_U moved after the final K_V solve
    try:
        box = build_box(K_C - K_U, (K_U + S2, K_U + S1), kc_norm)
    except DegenerateInstanceError:
        pass
    else:
        A = transform(box.transform, K_V)[:box.rank, :box.rank]
        kkt = max(kkt, _kkt(A, _gradient(A, box.H, w_v)))

    return CommonSolveReport(
        K_U=K_U,
        K_V=K_V,
        K_W=symmetrize((V[2] * np.maximum(low[2], 0.0)) @ V[2].T),
        objective_trace=np.asarray(trace),
        inner_iterations=(tuple(kv_counts), tuple(ku_counts)),
        converged=converged,
        kkt_residual=kkt,
        elapsed_seconds=time.perf_counter() - t0,
        warnings=tuple(warnings),
        step_rel_changes=np.asarray(rels),
    )
