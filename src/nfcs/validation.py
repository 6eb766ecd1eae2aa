"""Input validation helpers shared across the package."""

import math
import operator

import numpy as np


def check_positive(value, name: str):
    """Require a finite value > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_integer(value, name: str, minimum: int = None) -> int:
    """Require an integer (not a bool) of at least ``minimum``, if given."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or (minimum is not None and number < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    return number


def check_positive_or_inf(value, name: str):
    """Require value > 0, allowing the far-field sentinel +inf."""
    if math.isinf(value) and value > 0:
        return value
    return check_positive(value, name)


# power ratios in dB: no operating point lies beyond +-300 dB, and far beyond
# it 10^(dB/10) leaves the float range
DECIBEL_LIMIT = 300.0


def check_decibels(value, name: str):
    """Require a power ratio in [-300, 300] dB."""
    if not -DECIBEL_LIMIT <= value <= DECIBEL_LIMIT:
        raise ValueError(f"{name} must lie in [-300, 300] dB, got {value!r}")
    return value


def check_angle(theta: float, name: str = "theta"):
    """Require an angle strictly inside (-pi/2, pi/2)."""
    if not (-math.pi / 2 < theta < math.pi / 2):
        raise ValueError(f"{name} must lie in (-pi/2, pi/2), got {theta!r}")
    return theta


def as_complex_vector(x, name: str = "x") -> np.ndarray:
    """Coerce to a 1-D complex128 array."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def as_complex_matrix(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr

