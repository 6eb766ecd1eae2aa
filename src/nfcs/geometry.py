"""Uniform linear array model: field regions, steering vectors, channel synthesis.

Distances are measured from the first antenna (the reference element), angles
from broadside, and all steering vectors are normalised to unit l2 norm.
"""

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .seeding import as_rng
from .validation import ANGLE, DECIBELS, POSITIVE, POSITIVE_OR_INF, RANGE, Rule, check, check_all, check_integer

SPEED_OF_LIGHT = 2.998e8
"""Propagation speed used to derive wavelengths, in m/s."""


@dataclass(frozen=True)
class ArrayConfig:
    """Physical description of a uniform linear array.

    ``spacing`` defaults to half a wavelength, the spacing assumed by the
    sparsifying dictionaries in this package. The geometry must pass
    ``field_regions``.
    """

    carrier_freq: float
    n_antennas: int
    spacing: float = field(default=None)

    def __post_init__(self):
        check(self.carrier_freq, "carrier_freq", POSITIVE)
        check_integer(self.n_antennas, "n_antennas", 2)
        if self.spacing is not None:
            check(self.spacing, "spacing", POSITIVE)
        check(*field_regions(self.carrier_freq, self.n_antennas, self.spacing))
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def aperture(self) -> float:
        """Array aperture (N - 1) * d in meters."""
        return (self.n_antennas - 1) * self.spacing


@dataclass(frozen=True)
class ChannelSpec:
    """Multipath description: path gains, departure angles and reference
    distances, one entry per path in three equal-length tuples; index 0 is
    the line-of-sight path."""

    gains: tuple
    thetas: tuple
    distances: tuple

    def __post_init__(self):
        for name in ("gains", "thetas", "distances"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.gains:
            raise ValueError("a channel needs at least one path")
        if not len(self.gains) == len(self.thetas) == len(self.distances):
            raise ValueError(
                f"gains, thetas and distances need one entry per path, got "
                f"{len(self.gains)}, {len(self.thetas)} and {len(self.distances)}"
            )
        for g in self.gains:
            if not cmath.isfinite(g):
                raise ValueError(f"path gains must be finite, got {g!r}")
        for theta in self.thetas:
            check(theta, "theta", ANGLE)
        for r in self.distances:
            check(r, "distance", POSITIVE)


def _boundaries(d_ap: float, lam: float) -> tuple:
    return 0.62 * math.sqrt(d_ap**3 / lam), 2.0 * d_ap**2 / lam


def field_boundaries(cfg: ArrayConfig) -> tuple:
    """Fresnel and Rayleigh distances (0.62*sqrt(D^3/lam), 2*D^2/lam) in meters."""
    return _boundaries(cfg.aperture, cfg.wavelength)


def field_regions(carrier_freq, n_antennas: int, spacing=None) -> tuple:
    """The array-geometry rule as ``check``'s ``(value, name, rule)``, stated on
    the spacing if given, else on the carrier frequency of a half-wavelength array."""

    def admits(value):
        lam = SPEED_OF_LIGHT / float(carrier_freq if spacing is not None else value)
        d_ap = (int(n_antennas) - 1) * (float(value) if spacing is not None else lam / 2)
        try:
            fresnel, rayleigh = _boundaries(d_ap, lam)
        except OverflowError:  # D^3 or D^2 leaves the float range
            return False
        return math.isfinite(lam) and 0 < fresnel <= rayleigh < math.inf

    rule = Rule(admits, "must give a finite wavelength and field boundaries 0 < Fresnel <= Rayleigh < inf")
    return (carrier_freq, "carrier_freq", rule) if spacing is None else (spacing, "spacing", rule)


def source_range(cfg: ArrayConfig, distance_min: float = None, distance_max: float = None) -> tuple:
    """Source distance range; an end not given defaults to the Fresnel distance
    and 1.2x the Rayleigh distance."""
    fresnel, rayleigh = field_boundaries(cfg)
    return fresnel if distance_min is None else distance_min, 1.2 * rayleigh if distance_max is None else distance_max


def beyond_fresnel(cfg: ArrayConfig) -> Rule:
    """The rule of source distances at or beyond the Fresnel distance of ``cfg``."""
    fresnel, _ = field_boundaries(cfg)
    return Rule(
        lambda r: POSITIVE_OR_INF.predicate(r) and r >= fresnel * (1 - 1e-9),
        f"must be at or beyond the Fresnel distance {fresnel!r} m",
    )


def finite_phase(cfg: ArrayConfig) -> Rule:
    """The rule of distances r at which the quadratic phase across the
    aperture D, about pi D^2 / (lambda r), stays finite; inf, the plane-wave
    sentinel, included.

    ``b_vector`` forms twice that phase, and 1/r on the way; the rule keeps
    both below a quarter of the float range.
    """
    nearest = 4.0 * max(math.pi * cfg.aperture**2 / cfg.wavelength, 1.0) / sys.float_info.max
    return Rule(
        lambda r: POSITIVE_OR_INF.predicate(r) and r >= nearest,
        f"must be at least {nearest!r} m, so that the quadratic phase pi D^2 / (lambda r) stays finite",
    )


def finite_delay(cfg: ArrayConfig) -> Rule:
    """The rule of source distances r at which the exact spherical-wavefront
    delay stays finite.

    The delay squares r and divides offsets of up to the aperture D by r^2,
    so the rule asks that r^2 be finite and at least the smallest normal
    float, and that (D / r)^2 stay below a sixteenth of the float range.
    """
    nearest = max(math.sqrt(sys.float_info.min), 4.0 * cfg.aperture / math.sqrt(sys.float_info.max))
    return Rule(
        lambda r: POSITIVE.predicate(r) and r >= nearest and math.isfinite(float(r) * float(r)),
        f"must be at least {nearest!r} m and square to a finite float, so that the exact delay stays finite",
    )


def effective_distance(sin_t, r):
    """Effective distance r / cos^2(theta) = r / (1 - sin^2(theta)) governing the
    quadratic phase term; broadcasts over ``sin_t = sin(theta)`` and ``r``."""
    return r / (1.0 - sin_t**2)


def _element_delay(sin_t, r, offsets, mode: str):
    """Excess path length r^(n) - r for antenna offsets (n-1)*d.

    Broadcasts over ``sin_t = sin(theta)``, ``r`` and ``offsets``. The exact
    branch evaluates the spherical-wavefront distance through a
    cancellation-free form; the second-order branch uses the standard
    expansion -(n-1)d sin(theta) + (n-1)^2 d^2 cos^2(theta) / (2r) and
    accepts r = inf as the plane-wave limit.
    """
    if mode == "taylor":
        return -offsets * sin_t + offsets**2 * (1.0 - sin_t**2) / (2.0 * r)
    if mode == "exact":
        # r*(sqrt(1+delta)-1) evaluated as r*delta/(sqrt(1+delta)+1)
        delta = offsets * (offsets - 2.0 * r * sin_t) / r**2
        return r * delta / (np.sqrt(1.0 + delta) + 1.0)
    raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'taylor'")


def _steering(cfg: ArrayConfig, sin_t, r, mode: str) -> np.ndarray:
    """Unit-norm response exp(-j*(2pi/lam)*(r^(n)-r))/sqrt(N) to a source at (sin_t, r).

    The one place a path-length delay becomes an array response. An array
    ``sin_t`` or ``r`` gives an N x len matrix with one response per column.
    """
    offsets = np.arange(cfg.n_antennas) * cfg.spacing
    if np.ndim(sin_t) or np.ndim(r):
        offsets = offsets[:, None]
    phase = -(2 * np.pi / cfg.wavelength) * _element_delay(sin_t, r, offsets, mode)
    return np.exp(1j * phase) / math.sqrt(cfg.n_antennas)


def near_steering(cfg: ArrayConfig, theta: float, r: float) -> np.ndarray:
    """Exact spherical-wavefront array response to a source at a finite
    distance ``r``; entry n is exp(-j*(2pi/lam)*(r^(n)-r))/sqrt(N)."""
    check(theta, "theta", ANGLE)
    check(r, "r", finite_delay(cfg))
    return _steering(cfg, math.sin(theta), r, "exact")


def b_vector(cfg: ArrayConfig, mu) -> np.ndarray:
    """Quadratic-phase (chirp) vector; entry n is exp(-j*(2pi/lam)*(n-1)^2 d^2/(2 mu)).

    ``mu = inf`` is the plane-wave sentinel and yields the all-ones vector.
    Entries are unit modulus; the vector is not normalised. An array of
    ``mu`` gives an N x len(mu) matrix with one chirp per column.
    """
    mu = np.asarray(mu, dtype=float)
    check_all(mu, "mu", finite_phase(cfg))
    offsets = np.arange(cfg.n_antennas) * cfg.spacing
    if mu.ndim:
        offsets = offsets[:, None]
    phase = -(2 * np.pi / cfg.wavelength) * offsets**2 * (1.0 / mu) / 2.0
    return np.exp(1j * phase)


def synthesize_channel(cfg: ArrayConfig, spec: ChannelSpec) -> np.ndarray:
    """Multipath channel h = sum_l g_l * a(theta_l, r_l) of exact spherical-wavefront responses."""
    h = np.zeros(cfg.n_antennas, dtype=np.complex128)
    for g, theta, r in zip(spec.gains, spec.thetas, spec.distances):
        h += g * near_steering(cfg, theta, r)
    return h


def _draw_sources(rng, lo: float, hi: float, size=None) -> tuple:
    """``(sin(theta), r)`` of sources with sin(theta) uniform on (-1, 1) and r
    uniform on (lo, hi): floats, or arrays of shape ``size``."""
    return rng.uniform(-1.0, 1.0, size), rng.uniform(lo, hi, size)


def _path_power(gains: np.ndarray):
    """|g|^2 summed over the paths (axis 0) of every draw, along a contiguous
    axis: NumPy sums 8 or more terms pairwise there, as it sums one draw's,
    but down axis 0 row by row, which would move the last bit."""
    return np.ascontiguousarray((np.abs(gains) ** 2).T).sum(axis=-1)


def _draw_gains(rng, size, power_split_db: float) -> np.ndarray:
    """CN(0, 1) path gains of shape ``size``, paths along axis 0 and the LOS
    path first, with every draw's non-LOS gains scaled so that its LOS to
    non-LOS power ratio equals ``power_split_db``."""
    gains = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)
    if gains.shape[0] > 1:
        # |g|^2 bit for bit as the scalar abs(g) ** 2 of one draw gives it:
        # np.abs of a complex array is not hypot, and an array ** 2 is x * x,
        # not pow(x, 2)
        los = np.float_power(np.hypot(gains[0].real, gains[0].imag), 2.0)
        gains[1:] *= np.sqrt(los / 10.0 ** (power_split_db / 10.0) / _path_power(gains[1:]))
    return gains


def sample_channel(
    cfg: ArrayConfig,
    n_paths: int,
    seed,
    power_split_db: float = 13.0,
    distance_range: tuple = None,
) -> ChannelSpec:
    """Draw a random multipath channel.

    The sources are drawn by ``_draw_sources`` on ``distance_range``
    (default: ``source_range(cfg)``), then the gains by ``_draw_gains``: a
    CN(0, 1) line-of-sight gain and non-LOS gains rescaled so the aggregate
    LOS to non-LOS power ratio equals ``power_split_db`` exactly. Every
    experiment draws its sources and gains through these two helpers.
    """
    n_paths = check_integer(n_paths, "n_paths", 1)
    check(power_split_db, "power_split_db", DECIBELS)
    lo, hi = source_range(cfg) if distance_range is None else distance_range
    check(lo, "distance_range[0]", beyond_fresnel(cfg))
    check((lo, hi), "distance_range", RANGE)
    check(hi, "distance_range[1]", finite_delay(cfg))
    rng = as_rng(seed)
    sines, dists = _draw_sources(rng, lo, hi, n_paths)
    gains = _draw_gains(rng, n_paths, power_split_db)
    return ChannelSpec(
        gains=tuple(complex(g) for g in gains),
        thetas=tuple(math.asin(s) for s in sines),
        distances=tuple(float(r) for r in dists),
    )
