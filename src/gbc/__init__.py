"""Boundary points of two-receiver Gaussian vector broadcast-channel
capacity regions under covariance constraints.

The package solves weighted rate-sum maximizations over covariance
matrices: three algorithms for private-message regions (spectral
projected gradient, the default, which stops on a certified KKT
residual; the paper's projected fixed-point update; and its provably
monotone eigenvalue-root update) and an alternating solver for regions
with a common message, whose two inner subproblems run spectral
projected gradient by default or the paper's fixed-point maps.  Problems are reduced to a spectral box
via a congruence transform, solved there, and lifted back.  Brute-force
grid oracles, finite-difference checks, region tracing, and a CLI round
out the toolkit.
"""

from .common import (
    CommonInstance,
    CommonSolveReport,
    ku_pass,
    ku_subproblem_step,
    kv_pass,
    kv_subproblem_step,
    objective_common,
    solve_common,
)
from .errors import (
    DegenerateInstanceError,
    DimensionMismatchError,
    GbcError,
    InvalidInputError,
    InvalidInstanceError,
    InvalidSweepError,
    NotPositiveDefiniteError,
    NumericalBreakdownError,
    UnsupportedDimensionError,
)
from .oracle import (
    GridSpec,
    OracleResult,
    fd_gradient,
    grid_search_common_scalar,
    grid_search_private_2x2,
    random_instance,
)
from .private import (
    Algorithm,
    SolveOptions,
    SolveReport,
    gba_a_step,
    gba_p_step,
    gradient_reduced,
    objective_reduced,
    root_in_unit_interval,
    solve_private,
)
from .psd import (
    EigenPair,
    eig_sym,
    loewner_leq,
    logdet,
    project_box,
    spectral_norm,
    symmetrize,
)
from .reduction import (
    BoxTransform,
    PrivateInstance,
    ReducedPrivate,
    box_transform,
    lift,
    reduce,
    schur_head,
    transform,
)
from .region import (
    AlphaArgmin,
    RatePoint,
    rates_common,
    rates_private,
    sweep_alpha_common,
    trace_region_private,
    weighted_rate_common,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaArgmin",
    "Algorithm",
    "BoxTransform",
    "CommonInstance",
    "CommonSolveReport",
    "DegenerateInstanceError",
    "DimensionMismatchError",
    "EigenPair",
    "GbcError",
    "GridSpec",
    "InvalidInputError",
    "InvalidInstanceError",
    "InvalidSweepError",
    "NotPositiveDefiniteError",
    "NumericalBreakdownError",
    "OracleResult",
    "PrivateInstance",
    "RatePoint",
    "ReducedPrivate",
    "SolveOptions",
    "SolveReport",
    "UnsupportedDimensionError",
    "box_transform",
    "eig_sym",
    "fd_gradient",
    "gba_a_step",
    "gba_p_step",
    "gradient_reduced",
    "grid_search_common_scalar",
    "grid_search_private_2x2",
    "ku_pass",
    "ku_subproblem_step",
    "kv_pass",
    "kv_subproblem_step",
    "lift",
    "loewner_leq",
    "logdet",
    "objective_common",
    "objective_reduced",
    "project_box",
    "random_instance",
    "rates_common",
    "rates_private",
    "reduce",
    "root_in_unit_interval",
    "schur_head",
    "solve_common",
    "solve_private",
    "spectral_norm",
    "sweep_alpha_common",
    "symmetrize",
    "trace_region_private",
    "transform",
    "weighted_rate_common",
]
