"""Exception types shared across the package, and the type tests that
decoded JSON input must pass before it is used.

The CLI maps these onto exit codes: ValidationError -> 2,
NumericalError -> 3, VerificationError -> 4.
"""

import sys


class DataspError(Exception):
    """Base class for all package errors."""


class ValidationError(DataspError):
    """Malformed input: bad shapes, nonpositive costs, out-of-range ids."""


class GenerationError(DataspError):
    """Synthetic data generation could not satisfy its constraints."""


class NumericalError(DataspError):
    """Non-finite values encountered where finite ones are required."""


class VerificationError(DataspError):
    """A consistency check exceeded its tolerance."""


class EnumerationLimitError(ValidationError):
    """Walk enumeration would exceed the configured size guard."""


class NoPathError(DataspError):
    """A requested pair of nodes is not connected."""


def is_int(value) -> bool:
    """Whether a decoded JSON value is an integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a decoded JSON value is a finite number that fits a float64
    (a bool is not; NaN and the infinities are not)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def require_types(obj, ints=(), reals=()) -> None:
    """Raise unless each attribute of `obj` named in `ints` is an integer and
    each named in `reals` is a finite number."""
    for names, test, kind in ((ints, is_int, "an integer"), (reals, is_real, "a finite number")):
        for name in names:
            if not test(getattr(obj, name)):
                raise ValidationError(f"{name} must be {kind}, got {getattr(obj, name)!r}")
