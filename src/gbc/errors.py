"""Exception hierarchy for invalid inputs and numerical failures, and
the one reader of every number a caller hands the package."""

import math
import numbers


class GbcError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(GbcError, ValueError):
    """Malformed array input: non-finite entries, wrong shape or type."""


class DimensionMismatchError(GbcError, ValueError):
    """Operands whose shapes cannot be combined."""


class NotPositiveDefiniteError(GbcError, ValueError):
    """A matrix required to be positive definite is not."""


class InvalidInstanceError(GbcError, ValueError):
    """A problem instance violating its invariants (weights, definiteness)."""


class DegenerateInstanceError(GbcError, ValueError):
    """A covariance constraint that is numerically zero."""


class NumericalBreakdownError(GbcError, RuntimeError):
    """A linear-algebra primitive failed on an iterate."""


class UnsupportedDimensionError(GbcError, ValueError):
    """A brute-force oracle asked to run outside its supported dimension."""


class InvalidSweepError(GbcError, ValueError):
    """A parameter sweep with no feasible grid point."""


def number(value, rule: str, whole: bool = False, error: type = InvalidInputError):
    """value as a float, or as an int with whole, if it is a finite
    Python or numpy int or float, integral with whole (2.0 is whole).  A
    bool, a string, None, an array and an int too large for float() are
    not numbers: for them, as for NaN, inf or a fraction where whole is
    asked, raise error(f"{rule}, got {value!r}").  Callers test ranges."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (x.is_integer() or not whole):
            return int(value) if whole else x
    try:
        shown = repr(value)
    except ValueError:  # an int with more digits than str() will write
        shown = f"an int of {value.bit_length()} bits"
    raise error(f"{rule}, got {shown}")
