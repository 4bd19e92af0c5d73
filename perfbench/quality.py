"""Answer quality and per-op correctness checks for the benchmark.

The KKT residual of a box-constrained maximization max f(A) over
0 <= A <= I is the projected-gradient residual

    ||A - proj_[0,I](A + grad f(A))||_F,

which is zero exactly at points satisfying the first-order optimality
conditions.  It is measured in the reduced coordinates the solvers
iterate in, and floored at KKT_FLOOR so roundoff does not read as a
change between runs.
"""

from __future__ import annotations

import math

import numpy as np

from gbc import (
    DegenerateInstanceError,
    box_transform,
    gradient_reduced,
    logdet,
    loewner_leq,
    objective_common,
    project_box,
    reduce,
    transform,
)

KKT_FLOOR = 1e-10
CERTIFIED = 1e-6
FEAS_SLACK = 1e-8
OBJ_TOL = 1e-8


class CheckFailed(Exception):
    """An answer that violates a correctness invariant."""


def _residual(A: np.ndarray, G: np.ndarray) -> float:
    return max(float(np.linalg.norm(A - project_box(A + G))), KKT_FLOOR)


def kkt_private(inst, final_AU: np.ndarray) -> float:
    """KKT residual of a private solve in its reduced box."""
    try:
        red = reduce(inst)
    except DegenerateInstanceError:
        return KKT_FLOOR
    return _residual(final_AU, gradient_reduced(final_AU, red, red.lam))


def common_gradients(K_U: np.ndarray, K_V: np.ndarray, inst):
    """Closed-form gradients of objective_common in original coordinates."""
    l0p = float(inst.lambda0) / float(inst.lambda1)
    l2p = float(inst.lambda2) / float(inst.lambda1)
    a = float(inst.alpha)
    inv = np.linalg.inv
    S1 = np.asarray(inst.Sigma1, float)
    S2 = np.asarray(inst.Sigma2, float)
    G_V = ((l2p - l0p * (1.0 - a)) * inv(K_U + K_V + S2)
           - l0p * a * inv(K_U + K_V + S1))
    G_U = G_V + inv(K_U + S1) - l2p * inv(K_U + S2)
    return (G_U + G_U.T) / 2.0, (G_V + G_V.T) / 2.0


def _block_residual(block: np.ndarray, budget: np.ndarray, G: np.ndarray) -> float:
    """Residual of one block in the reduced box of its own budget."""
    try:
        bt = box_transform(budget)
    except DegenerateInstanceError:
        return KKT_FLOOR
    r = bt.rank
    A = transform(bt, block)[:r, :r]
    L = bt.lift_matrix
    return _residual(A, L.T @ G @ L)


def kkt_common(inst, K_U: np.ndarray, K_V: np.ndarray) -> float:
    """Larger of the K_U and K_V block residuals of a common solve."""
    K_C = np.asarray(inst.K_C, float)
    G_U, G_V = common_gradients(K_U, K_V, inst)
    return max(_block_residual(K_U, K_C - K_V, G_U),
               _block_residual(K_V, K_C - K_U, G_V))


def check_private(inst, K_U: np.ndarray, objective: float) -> None:
    """0 <= K_U <= K and the reported objective matches a recomputation."""
    zero = np.zeros_like(K_U)
    if not (loewner_leq(zero, K_U, FEAS_SLACK)
            and loewner_leq(K_U, inst.K, FEAS_SLACK)):
        raise CheckFailed("private answer leaves 0 <= K_U <= K")
    ref = logdet(K_U + inst.Sigma1) - float(inst.lam) * logdet(K_U + inst.Sigma2)
    if not abs(objective - ref) <= OBJ_TOL * max(1.0, abs(ref)):
        raise CheckFailed(f"private objective {objective!r} != {ref!r}")


def check_common(inst, K_U: np.ndarray, K_V: np.ndarray, objective: float) -> None:
    """K_U, K_V >= 0, K_U + K_V <= K_C and the objective matches."""
    zero = np.zeros_like(K_U)
    if not (loewner_leq(zero, K_U, FEAS_SLACK)
            and loewner_leq(zero, K_V, FEAS_SLACK)
            and loewner_leq(K_U + K_V, inst.K_C, FEAS_SLACK)):
        raise CheckFailed("common answer leaves the feasible set")
    ref = objective_common(K_U, K_V, inst)
    if not abs(objective - ref) <= OBJ_TOL * max(1.0, abs(ref)):
        raise CheckFailed(f"common objective {objective!r} != {ref!r}")


def check_rates(points) -> None:
    """Every traced point carries finite, non-negative rates."""
    for pt in points:
        for r in (pt.R0, pt.R1, pt.R2):
            if not (math.isfinite(r) and r >= 0.0):
                raise CheckFailed(f"lambda={pt.lambda_tag}: rate {r!r}")
