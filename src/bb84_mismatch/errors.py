# Exception types shared across the package, and its one range check.

import math
import numbers
import sys


class SupportError(ValueError):
    """First argument of a relative entropy has weight outside the second's support."""


class FeasibilityError(ValueError):
    """Observed values admit no positive semidefinite state."""


class NoKeyError(ValueError):
    """A requested ratio or rate is undefined because the reference rate is zero or negative."""


class ConfigError(ValueError):
    """Inconsistent decoy intensities, sweep specification, or CLI configuration."""


class TruncationError(ValueError):
    """Photon-number cutoff leaves non-negligible Poisson tail mass."""


def _require_in(name, value, lo, hi, *, open_lo=False, integer=False, error=ValueError):
    """Return ``value`` if it is finite and in [lo, hi], or (lo, hi] when
    ``open_lo``, and a Python or numpy int when ``integer``; otherwise raise
    ``error``, saying "name = value outside [lo, hi]" with the value cut to
    at most 32 characters. nan, +-inf and ints beyond the float range fail."""
    if integer and not isinstance(value, numbers.Integral):
        raise error(f"{name} = {_shown(value, repr)} is not an integer")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        limit = sys.float_info.max
        raise error(f"{name} = {_shown(value)} outside [{-limit:g}, {limit:g}], the float range") from None
    if not (finite and (lo < value if open_lo else lo <= value) and value <= hi):
        raise error(f"{name} = {_shown(value)} outside {'(' if open_lo else '['}{lo:g}, {hi:g}]")
    return value


def _shown(value, form=str) -> str:
    """``form(value)`` cut to 32 characters; Python refuses ints of over 4,300 digits."""
    try:
        text = form(value)
    except ValueError:
        return f"<{type(value).__name__} of over {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= 32 else f"{text[:14]}...{text[-15:]}"
