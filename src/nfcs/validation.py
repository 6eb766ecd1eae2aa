"""Argument rules shared by the library and the experiment config.

A rule pairs a predicate, true for exactly the admissible values, with a
requirement that names them after the argument's name. ``check`` applies it
to a library argument and ``harness.ExperimentConfig`` to its fields. A bool
is neither an integer nor a real; NumPy integers and floats are both.
"""

import functools
import math
import numbers
import operator
from collections.abc import Callable
from typing import NamedTuple

import numpy as np


class Rule(NamedTuple):
    predicate: Callable
    requirement: str


def check(value, name: str, rule: Rule):
    """Return ``value`` if ``rule`` admits it, else raise
    ``ValueError("<name> <requirement>, got <value>")``."""
    if not rule.predicate(value):
        raise ValueError(f"{name} {rule.requirement}, got {value!r}")
    return value


def check_all(values, name: str, rule: Rule):
    """``check`` a scalar, or an array by its least and greatest entry, which
    decide an interval rule for all entries (a nan reaches both)."""
    if np.ndim(values) == 0 and not isinstance(values, np.ndarray):
        return check(values, name, rule)
    for end in (np.min(values), np.max(values)) if np.size(values) else ():
        check(float(end), name, rule)


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@functools.cache
def integer(minimum: int = None) -> Rule:
    """The rule of integers of at least ``minimum``, if given; one object per minimum."""
    lo = -math.inf if minimum is None else minimum
    return Rule(
        lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= lo,
        "must be an integer" + ("" if minimum is None else f" >= {minimum}"),
    )


def check_integer(value, name: str, minimum: int = None) -> int:
    """``check`` against ``integer(minimum)``, returning ``operator.index(value)``."""
    return operator.index(check(value, name, integer(minimum)))


POSITIVE = Rule(lambda v: _real(v) and math.isfinite(v) and v > 0, "must be positive and finite")
# +inf is the far-field (plane-wave) sentinel of a distance
POSITIVE_OR_INF = Rule(lambda v: _real(v) and v > 0, "must be positive or inf")
FINITE = Rule(lambda v: _real(v) and math.isfinite(v), "must be finite")
NONNEGATIVE = Rule(lambda v: _real(v) and math.isfinite(v) and v >= 0, "must be finite and >= 0")
FRACTION = Rule(lambda v: _real(v) and 0 < v <= 1, "must lie in (0, 1]")
FRACTION_OR_NONE = Rule(lambda v: v is None or FRACTION.predicate(v), FRACTION.requirement + " or be none")
OPEN_FRACTION = Rule(lambda v: _real(v) and 0 < v < 1, "must lie in (0, 1)")
ANGLE = Rule(lambda v: _real(v) and -math.pi / 2 < v < math.pi / 2, "must lie in (-pi/2, pi/2)")

# a (lo, hi) interval of distances
RANGE = Rule(lambda r: _real(r[0]) and _real(r[1]) and r[0] <= r[1], "must give a range (lo, hi) with lo <= hi")

# power ratios in dB: no operating point lies beyond +-300 dB, and far beyond
# it 10^(dB/10) leaves the float range
DECIBEL_LIMIT = 300.0
DECIBELS = Rule(lambda v: _real(v) and -DECIBEL_LIMIT <= v <= DECIBEL_LIMIT, "must lie in [-300, 300] dB")
# +inf is the noiseless sentinel of an SNR; -inf and nan name no noise level
DECIBELS_OR_INF = Rule(lambda v: v == math.inf or DECIBELS.predicate(v), DECIBELS.requirement + " or be inf")


@functools.cache
def divisor_of(total: int) -> Rule:
    """The rule of block sizes that split ``total`` columns into equal contiguous blocks."""
    return Rule(lambda s: s >= 1 and total % s == 0, f"must be >= 1 and divide the {total} columns")


def block_count(block_size, n_columns: int) -> int:
    """Number of contiguous blocks of ``block_size`` among ``n_columns`` columns."""
    s = check_integer(block_size, "block_size")
    return n_columns // check(s, "block size", divisor_of(n_columns))


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
    if not arr.size:
        raise ValueError(f"{name} must not be empty, got shape {arr.shape}")
    return arr


def finite_energy(arr: np.ndarray, name: str) -> float:
    """``||arr||_F^2`` (inf if it overflows), or ``ValueError`` naming ``arr``
    if an entry is not finite; the entries are read only for a sum not finite."""
    energy = float(np.vdot(arr, arr).real)
    if not math.isfinite(energy) and not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return energy
