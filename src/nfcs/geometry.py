"""Uniform linear array model: field regions, steering vectors, channel synthesis.

Distances are measured from the first antenna (the reference element), angles
from broadside, and all steering vectors are normalised to unit l2 norm.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import as_rng
from .validation import check_angle, check_decibels, check_positive

SPEED_OF_LIGHT = 2.998e8
"""Propagation speed used to derive wavelengths, in m/s."""


@dataclass(frozen=True)
class ArrayConfig:
    """Physical description of a uniform linear array.

    ``spacing`` defaults to half a wavelength, the spacing assumed by the
    sparsifying dictionaries in this package.
    """

    carrier_freq: float
    n_antennas: int
    spacing: float = field(default=None)

    def __post_init__(self):
        check_positive(self.carrier_freq, "carrier_freq")
        if self.n_antennas < 2:
            raise ValueError(f"n_antennas must be >= 2, got {self.n_antennas}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2)
        else:
            check_positive(self.spacing, "spacing")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def aperture(self) -> float:
        """Array aperture (N - 1) * d in meters."""
        return (self.n_antennas - 1) * self.spacing

    @property
    def is_half_wavelength(self) -> bool:
        return abs(self.spacing - self.wavelength / 2) <= 1e-12 * self.wavelength


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
            check_angle(theta)
        for r in self.distances:
            check_positive(r, "distance")


def field_boundaries(cfg: ArrayConfig) -> tuple:
    """Fresnel and Rayleigh distances (0.62*sqrt(D^3/lam), 2*D^2/lam) in meters."""
    d_ap = cfg.aperture
    lam = cfg.wavelength
    fresnel = 0.62 * math.sqrt(d_ap**3 / lam)
    rayleigh = 2.0 * d_ap**2 / lam
    return fresnel, rayleigh


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
        if np.any(np.isinf(r)):
            raise ValueError("exact mode requires a finite distance")
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


def near_steering(cfg: ArrayConfig, theta: float, r: float, mode: str = "exact") -> np.ndarray:
    """Spherical-wavefront array response; entry n is exp(-j*(2pi/lam)*(r^(n)-r))/sqrt(N)."""
    check_angle(theta)
    if not (math.isinf(r) and mode == "taylor"):
        check_positive(r, "r")
    return _steering(cfg, math.sin(theta), r, mode)


def b_vector(cfg: ArrayConfig, mu) -> np.ndarray:
    """Quadratic-phase (chirp) vector; entry n is exp(-j*(2pi/lam)*(n-1)^2 d^2/(2 mu)).

    ``mu = inf`` is the plane-wave sentinel and yields the all-ones vector.
    Entries are unit modulus; the vector is not normalised. An array of
    ``mu`` gives an N x len(mu) matrix with one chirp per column.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all(mu > 0):
        raise ValueError(f"mu must be positive or inf, got {mu.tolist()!r}")
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


def _scale_gains(gains: np.ndarray, power_split_db: float, normalize: bool):
    """Rescale one draw's path gains in place, LOS first.

    The non-LOS gains are scaled so the LOS to non-LOS power ratio equals
    ``power_split_db``; with ``normalize`` all gains are then scaled to unit
    total power.
    """
    if gains.size > 1:
        nlos_power = float(np.sum(np.abs(gains[1:]) ** 2))
        target = abs(gains[0]) ** 2 / 10.0 ** (power_split_db / 10.0)
        gains[1:] *= math.sqrt(target / nlos_power)
    if normalize:
        gains /= math.sqrt(float(np.sum(np.abs(gains) ** 2)))


def sample_channel(
    cfg: ArrayConfig,
    n_paths: int,
    seed,
    power_split_db: float = 13.0,
    distance_range: tuple = None,
) -> ChannelSpec:
    """Draw a random multipath channel.

    The line-of-sight gain is complex normal CN(0, 1); the remaining gains are
    rescaled so the aggregate LOS to non-LOS power ratio equals
    ``power_split_db`` exactly. Angles are drawn with sin(theta) uniform on
    (-1, 1) and distances uniform on ``distance_range`` (default: Fresnel
    distance to 1.2x the Rayleigh distance).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    check_decibels(power_split_db, "power_split_db")
    fresnel, rayleigh = field_boundaries(cfg)
    if distance_range is None:
        distance_range = (fresnel, 1.2 * rayleigh)
    lo, hi = distance_range
    if not (lo <= hi):
        raise ValueError(f"invalid distance range {distance_range!r}")
    if lo < fresnel * (1 - 1e-9):
        raise ValueError(
            f"distance range must start at or beyond the Fresnel distance "
            f"{fresnel:.3f} m, got {lo!r}"
        )
    rng = as_rng(seed)
    sines = rng.uniform(-1.0, 1.0, n_paths)
    dists = rng.uniform(lo, hi, n_paths)
    gains = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / math.sqrt(2)
    _scale_gains(gains, power_split_db, normalize=False)
    return ChannelSpec(
        gains=tuple(complex(g) for g in gains),
        thetas=tuple(math.asin(s) for s in sines),
        distances=tuple(float(r) for r in dists),
    )
