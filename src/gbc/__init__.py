"""Boundary points of two-receiver Gaussian vector broadcast-channel
capacity regions under covariance constraints.

The package solves weighted rate-sum maximizations over covariance
matrices: three algorithms for private-message regions (spectral
projected gradient, the default, which stops on a certified KKT
residual; the paper's projected fixed-point update; and its provably
monotone eigenvalue-root update) and an alternating solver for regions
with a common message, whose two inner subproblems run spectral
projected gradient by default or the paper's fixed-point maps.  Problems
are reduced to a spectral box via a congruence transform, solved there,
and lifted back.  Brute-force grid oracles, finite-difference checks,
region tracing, and a CLI round out the toolkit.
"""

from .common import (
    CommonInstance,
    CommonSolveReport,
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
    grid_search_common_scalar,
    grid_search_private_2x2,
    random_instance,
)
from .private import (
    Algorithm,
    SolveOptions,
    SolveReport,
    solve_private,
)
from .reduction import PrivateInstance
from .region import (
    AlphaArgmin,
    RatePoint,
    rates_common,
    rates_private,
    sweep_alpha_common,
    trace_region_private,
    weighted_rate_common,
)

# outside __all__; perfbench/quality.py and perfbench/selftest.py import them
from .oracle import fd_gradient
from .private import gradient_reduced, objective_reduced
from .psd import loewner_leq, logdet, project_box
from .reduction import box_transform, reduce, transform

__version__ = "0.1.0"

__all__ = [
    "AlphaArgmin",
    "Algorithm",
    "CommonInstance",
    "CommonSolveReport",
    "DegenerateInstanceError",
    "DimensionMismatchError",
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
    "SolveOptions",
    "SolveReport",
    "UnsupportedDimensionError",
    "grid_search_common_scalar",
    "grid_search_private_2x2",
    "objective_common",
    "random_instance",
    "rates_common",
    "rates_private",
    "solve_common",
    "solve_private",
    "sweep_alpha_common",
    "trace_region_private",
    "weighted_rate_common",
]
