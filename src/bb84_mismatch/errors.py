# Exception types shared across the package, and its one range check.

import math
import numbers


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
    ``error``, saying "name = value outside [lo, hi]". nan and +-inf fail."""
    if integer and not isinstance(value, numbers.Integral):
        raise error(f"{name} = {value!r} is not an integer")
    if not (math.isfinite(value) and (lo < value if open_lo else lo <= value) and value <= hi):
        raise error(f"{name} = {value} outside {'(' if open_lo else '['}{lo:g}, {hi:g}]")
    return value
