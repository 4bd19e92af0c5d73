"""Rate computation and capacity-region tracing.

Converts solver covariances into rate pairs/triples and sweeps the
weight parameters to trace boundary points.  trace_region_private is
fault tolerant: a failed solve yields a NaN-rated point carrying the
error message, so its output has one point per requested lambda.
sweep_alpha_common is not: it skips an infeasible alpha with a None
report, but an error from solve_common propagates to its caller.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .common import CommonInstance, CommonSolveReport, solve_common
from .errors import GbcError, InvalidInputError, InvalidSweepError, number
from .psd import logdet, matrix, symmetrize
from .private import SolveOptions, solve_private
from .reduction import PrivateInstance


@dataclass(frozen=True)
class RatePoint:
    """One traced boundary point in nats.

    R0 is zero for private-message points.  lambda_tag records the weight
    parameterization that produced the point: the scalar lambda for private
    traces, the tuple (lambda0, lambda1, lambda2, alpha) for common ones.
    """

    R0: float
    R1: float
    R2: float
    lambda_tag: float | tuple[float, ...]
    objective: float = float("nan")
    iterations: int = 0
    error: str | None = None


class AlphaArgmin(NamedTuple):
    """Minimizing time-sharing weight and its weighted-rate value."""

    alpha: float
    value: float


def _clamp_rate(value: float, name: str) -> float:
    if value >= 0.0:
        return float(value)
    if value >= -1e-10:
        return 0.0
    raise InvalidInputError(
        f"{name} evaluated to {value:.3e}; the covariance pair is not feasible"
    )


def rates_private(K_U: np.ndarray, inst: PrivateInstance) -> RatePoint:
    """Rate pair achieved by the private-message split K = K_U + K_V.

    R1 = (1/2)(ln|K_U + Sigma1| - ln|Sigma1|),
    R2 = (1/2)(ln|K + Sigma2| - ln|K_U + Sigma2|).
    Tiny negatives from roundoff (>= -1e-10) clamp to zero; anything more
    negative raises, since it signals an infeasible covariance.  The four
    log-determinants come from one stacked call.  A K_U that is not
    n x n raises DimensionMismatchError.
    """
    K_U = symmetrize(matrix(K_U, "K_U", inst.n))
    ld1u, ld2u, ld1, ldk2 = logdet(np.stack((
        K_U + inst.Sigma1, K_U + inst.Sigma2, inst.Sigma1,
        inst.K + inst.Sigma2))).tolist()
    r1 = 0.5 * (ld1u - ld1)
    r2 = 0.5 * (ldk2 - ld2u)
    return RatePoint(
        R0=0.0,
        R1=_clamp_rate(r1, "R1"),
        R2=_clamp_rate(r2, "R2"),
        lambda_tag=inst.lam,
        objective=ld1u - inst.lam * ld2u,
    )


def rates_common(K_U: np.ndarray, K_V: np.ndarray,
                 inst: CommonInstance) -> RatePoint:
    """Rate triple achieved by the split K_C = K_U + K_V + K_W.

    R0 is the alpha-weighted combination of the two common-message mutual
    informations (the time-shared stand-in for min{I(W;Y), I(W;Z)}),
    R2 = I(V;Z|W) and R1 = I(X;Y|V,W).  Its seven log-determinants come
    from one stacked call.  A K_U or K_V that is not n x n raises
    DimensionMismatchError.
    """
    K_U = symmetrize(matrix(K_U, "K_U", inst.n))
    K_V = symmetrize(matrix(K_V, "K_V", inst.n))
    a = inst.alpha
    S1, S2, K_C = inst.Sigma1, inst.Sigma2, inst.K_C
    ld1_uv, ld2_uv, ldc1, ldc2, ld2u, ld1u, ld1 = logdet(np.stack((
        K_U + K_V + S1, K_U + K_V + S2, K_C + S1, K_C + S2,
        K_U + S2, K_U + S1, S1))).tolist()
    iwy = 0.5 * (ldc1 - ld1_uv)
    iwz = 0.5 * (ldc2 - ld2_uv)
    r0 = a * iwy + (1.0 - a) * iwz
    r2 = 0.5 * (ld2_uv - ld2u)
    r1 = 0.5 * (ld1u - ld1)
    return RatePoint(
        R0=_clamp_rate(r0, "R0"),
        R1=_clamp_rate(r1, "R1"),
        R2=_clamp_rate(r2, "R2"),
        lambda_tag=(inst.lambda0, inst.lambda1, inst.lambda2, a),
    )


def weighted_rate_common(K_U: np.ndarray, K_V: np.ndarray,
                         inst: CommonInstance) -> float:
    """Weighted rate lambda0 R0 + lambda1 R1 + lambda2 R2 for the split."""
    pt = rates_common(K_U, K_V, inst)
    return inst.lambda0 * pt.R0 + inst.lambda1 * pt.R1 + inst.lambda2 * pt.R2


def _sweep(values, name: str, rule: str, ok) -> list[float]:
    """The entries of a `name` sweep as floats, each read by `number` and
    tested by ok under `rule`.  Raises InvalidInputError when values is
    not iterable or an entry fails, InvalidSweepError when it is empty."""
    try:
        entries = iter(values)
    except TypeError:  # a 0-d array too, which is an Iterable by type
        raise InvalidInputError(f"{name} sweep must be an iterable of numbers, "
                                f"got {values!r}") from None
    vals = [number(v, rule) for v in entries]
    if not vals:
        raise InvalidSweepError(f"{name} sweep must be non-empty")
    for v in vals:
        if not ok(v):
            raise InvalidInputError(f"{rule}, got {v}")
    return vals


def trace_region_private(base: PrivateInstance, lambdas: Sequence[float],
                         opts: SolveOptions = SolveOptions(),
                         warm_start: bool = True) -> list[RatePoint]:
    """Trace boundary points of the private-message region over a lambda sweep.

    Weights are solved in ascending order (the returned list is ascending
    in lambda regardless of input order).  With warm_start each solve
    initializes from the previous reduced iterate, which is sound because
    the feasible box does not depend on lambda.  A solve that raises
    produces a NaN point carrying the error string; a solve that merely
    fails to converge still reports its rates, flagged in `error`.  A bad
    sweep, one that is not an iterable of numbers as gbc.errors.number
    reads them or holds a lambda <= 1, raises InvalidInputError before
    any solve.
    """
    lams = sorted(_sweep(lambdas, "lambda", "each lambda must be finite and > 1",
                         lambda v: v > 1.0))

    points: list[RatePoint] = []
    init = opts.init
    for lv in lams:
        inst = replace(base, lam=lv)
        try:
            rep = solve_private(inst, replace(opts, init=init))
        except GbcError as exc:
            points.append(RatePoint(R0=float("nan"), R1=float("nan"),
                                    R2=float("nan"), lambda_tag=lv,
                                    error=str(exc)))
            continue
        pt = rates_private(rep.final_KU, inst)
        note = None if rep.converged else (
            f"did not converge within {opts.max_iters} iterations"
        )
        points.append(replace(pt, objective=rep.objective,
                              iterations=rep.iterations, error=note))
        if warm_start:
            init = rep.final_AU
    return points


def sweep_alpha_common(inst: CommonInstance, alphas: Sequence[float],
                       opts: SolveOptions = SolveOptions()
                       ) -> tuple[list[CommonSolveReport | None], AlphaArgmin]:
    """Solve the common-message problem over a grid of time-sharing weights.

    Returns one report per alpha (None where the weight combination is
    infeasible, i.e. lambda2 - lambda0(1-alpha) <= 0, with a warning) and
    the argmin of the weighted rate over the feasible alphas, resolving
    ties to the smaller alpha.  Raises InvalidInputError for a sweep that
    is not an iterable of numbers (read by gbc.errors.number) or holds an
    alpha outside [0, 1], InvalidSweepError if no alpha is feasible; an
    error from solve_common propagates.
    """
    avals = _sweep(alphas, "alpha", "each alpha must lie in [0, 1]",
                   lambda a: 0.0 <= a <= 1.0)

    reports: list[CommonSolveReport | None] = []
    best: AlphaArgmin | None = None
    for a in avals:
        if inst.lambda2 - inst.lambda0 * (1.0 - a) <= 0.0:
            _warnings.warn(
                f"alpha={a:g} skipped: lambda2 - lambda0*(1-alpha) <= 0",
                stacklevel=2,
            )
            reports.append(None)
            continue
        cinst = replace(inst, alpha=a)
        rep = solve_common(cinst, opts)
        reports.append(rep)
        value = weighted_rate_common(rep.K_U, rep.K_V, cinst)
        if best is None or value < best.value - 1e-15 or (
                abs(value - best.value) <= 1e-15 and a < best.alpha):
            best = AlphaArgmin(alpha=a, value=value)
    if best is None:
        raise InvalidSweepError(
            "no alpha in the sweep satisfies lambda2 - lambda0*(1-alpha) > 0"
        )
    return reports, best
