"""Coherence of spherical-wavefront array responses and sparsity-level bounds.

The inner product of two array responses on the angular grid reduces to a
generalized quadratic Gauss sum (1/N) sum_n exp(-j[(n-1)a + (n-1)^2 b]); this
module evaluates it exactly, approximates its magnitude in closed form via
Fresnel integrals, and turns the resulting support conditions into index-set
predictions and nonzero-count bounds.
"""

import math

import numpy as np

from ._fresnel_table import AUX_CHEBYSHEV, FIT_RANGE
from .geometry import ArrayConfig
from .dictionaries import _blocks, dft_grid
from .validation import ANGLE, FINITE, FRACTION, NONNEGATIVE, POSITIVE_OR_INF, Rule, check, check_all
from .validation import check_integer

B_ZERO_TOL = 1e-15
"""|b| below this is treated as the pure-phase-slope (b = 0) regime."""

_FRESNEL_SCALE = math.sqrt(math.pi / 2.0)
_FRESNEL_ARG = math.sqrt(2.0 / math.pi)

# Ranges of the normalised kernel in z = |x| sqrt(2/pi): power series below
# _SERIES_END, the Chebyshev fit of the auxiliary functions up to
# _ASYMPTOTIC_START, their asymptotic series up to _ASYMPTOTIC_END (Cephes'
# bound, beyond which Cephes, and so SciPy, drops g). Beyond _CLAMP the
# correction 1/(pi z) is below a tenth of an ulp of 1/2, so both integrals
# round to 1/2 and z is clamped there, which keeps z^2 finite.
_SERIES_END, _ASYMPTOTIC_START = FIT_RANGE
_ASYMPTOTIC_END = 36974.0
_CLAMP = 1e17
# S / z^3 and C / z in powers of z^4, to the first term below 1e-17 at z = 1
_SERIES = np.array([
    ((-1) ** n * (math.pi / 2) ** (2 * n + 1) / (math.factorial(2 * n + 1) * (4 * n + 3)),
     (-1) ** n * (math.pi / 2) ** (2 * n) / (math.factorial(2 * n) * (4 * n + 1)))
    for n in range(12)
])[:, :, None]
# F and t G in powers of u = 1/t^2 (A&S 7.3.27-28), to the first term below
# 1e-17 at z = _ASYMPTOTIC_START
_ASYMPTOTIC = np.array([
    ((-1) ** m * math.prod(range(1, 4 * m, 2)), (-1) ** m * math.prod(range(1, 4 * m + 2, 2)))
    for m in range(6)
], dtype=float)
_AUX_CHEBYSHEV = np.array(AUX_CHEBYSHEV)


def _sincospi_half(z):
    """sin and cos of pi z^2 / 2, from an exact reduction of z^2 / 2 mod 2
    and one sine, branch for branch as SciPy's ``sinpi`` and ``cospi``."""
    half = z * z / 2.0
    r = half - 2.0 * np.floor(half / 2.0)  # exact (Sterbenz): fmod(half, 2)
    sin_arg = np.where(r < 0.5, r, np.where(r > 1.5, r - 2.0, 1.0 - r))
    cos_arg = np.where(r < 1.0, 0.5 - r, r - 1.5)
    return np.sin(np.pi * np.stack((sin_arg, cos_arg)))


def _powers(x, count):
    """Rows x^1, ..., x^count of a 1-d array x, by repeated doubling."""
    out = x[None, :]
    while len(out) < count:
        out = np.concatenate((out, out * out[-1]))
    return out[:count]


def _chebyshev_fit(z):
    """F and t G from their Chebyshev table, at z in FIT_RANGE."""
    lo, hi = FIT_RANGE
    x = (2.0 * z - (lo + hi)) / (hi - lo)
    # T_k(x) = Re(w^k) with w = exp(i arccos x)
    w = x + 1j * np.sqrt((1.0 - x) * (1.0 + x))
    return _AUX_CHEBYSHEV[0, :, None] + _AUX_CHEBYSHEV[1:].T @ _powers(w, len(_AUX_CHEBYSHEV) - 1).real


def _auxiliary(z, t):
    """F = pi z f and G = pi z g (A&S 7.3.9-10) at z >= 1 with t = pi z^2:
    f = 1 and g = 0 beyond _ASYMPTOTIC_END, as in Cephes."""
    # the series over all z, then the fit over its few: cheaper than splitting z
    f, tg = _ASYMPTOTIC[0, :, None] + _ASYMPTOTIC[1:].T @ _powers(t**-2.0, len(_ASYMPTOTIC) - 1)
    fit = np.flatnonzero(z < _ASYMPTOTIC_START)
    if fit.size:
        f[fit], tg[fit] = _chebyshev_fit(z[fit])
    return f, np.where(z <= _ASYMPTOTIC_END, tg / t, 0.0)


def _power_series(z):
    """(S, C) at z < _SERIES_END."""
    t = z**4
    sc = _SERIES[-1] * t
    for coeffs in _SERIES[-2:0:-1]:  # Horner: a product sum loses more to the alternating terms
        sc = (sc + coeffs) * t
    return (sc + _SERIES[0]) * (z**3, z)


def _fresnel_normalized(z):
    """(S, C) of the normalised integrals, C(z) = int_0^z cos(pi t^2 / 2) dt,
    at a 1-d array z >= 0."""
    za = np.clip(z, _SERIES_END, _CLAMP)  # the power series overwrites z < _SERIES_END
    f, g = _auxiliary(za, np.pi * za * za)
    s, c = _sincospi_half(za)
    t = np.pi * za
    out = np.stack((0.5 - (f * c + g * s) / t, 0.5 + (f * s - g * c) / t))
    series = np.flatnonzero(z < _SERIES_END)
    if series.size:
        out[:, series] = _power_series(z[series])
    return out


def fresnel(x):
    """Unnormalised Fresnel integrals C(x) = int_0^x cos(t^2) dt and S likewise.

    Odd in x and vectorised: the normalised integrals at x sqrt(2/pi), scaled
    by sqrt(pi/2), evaluated in NumPy in the form of Cephes' ``fresnl``
    (which SciPy uses). With z = |x| sqrt(2/pi): a power series for z < 1;
    else 1/2 plus the auxiliary functions f and g times the sine and cosine
    of pi z^2 / 2, with f and g from a Chebyshev fit
    (``scripts/make_fresnel_table.py``) for z < 12 and from their asymptotic
    series above.
    """
    x = np.asarray(x, dtype=float)
    s_c = _fresnel_normalized(np.abs(x).reshape(-1) * _FRESNEL_ARG).reshape((2,) + x.shape)
    s_std, c_std = np.copysign(s_c, x)
    return _FRESNEL_SCALE * c_std, _FRESNEL_SCALE * s_std


def reduce_angle(a):
    """Map a phase slope into its principal value mod(a + pi, 2pi) - pi."""
    return np.mod(np.asarray(a) + np.pi, 2.0 * np.pi) - np.pi


def phase_pair(cfg: ArrayConfig, sin_m, sin_0, mu, mu_0) -> tuple:
    """Phase slope a and quadratic phase b of a grid response at (sin(theta_m), mu)
    against a source response at (sin(theta_0), mu_0); broadcasts over all four.
    Each distance must be positive or inf; an array of them is checked by its extremes."""
    check_all(mu, "mu", POSITIVE_OR_INF)
    check_all(mu_0, "mu_0", POSITIVE_OR_INF)
    a = (2 * np.pi * cfg.spacing / cfg.wavelength) * (sin_m - sin_0)
    b = (np.pi * cfg.spacing**2 / cfg.wavelength) * (1.0 / mu_0 - 1.0 / mu)
    return a, b


def _exact_magnitudes(a, b, n_antennas: int) -> np.ndarray:
    """|1/N sum_{n=0}^{N-1} exp(-j(a n + b n^2))| broadcast over a, b, summed
    over a block of (a, b) rows of N terms at a time (``_blocks``)."""
    a, b = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b)))
    n = np.arange(n_antennas)
    out = np.empty(a.shape)
    flat_a, flat_b, flat_out = a.reshape(-1), b.reshape(-1), out.reshape(-1)
    for rows in _blocks(out.size, n_antennas):
        phases = np.multiply.outer(flat_a[rows], n) + np.multiply.outer(flat_b[rows], n * n)
        flat_out[rows] = np.abs(np.exp(-1j * phases).sum(axis=-1)) / n_antennas
    return out


def _magnitudes(kernel, a, b, n_antennas):
    """``kernel`` at finite a and b: a float for scalar a and b, else an array."""
    n = check_integer(n_antennas, "n_antennas", 2)
    check_all(a, "a", FINITE)
    check_all(b, "b", FINITE)
    out = kernel(a, b, n)
    return float(out[0]) if np.ndim(a) == np.ndim(b) == 0 else out


def coherence_exact(a, b, n_antennas: int):
    """Magnitude of the coherence kernel by direct N-term summation; broadcasts
    over a and b, and is a float for scalar a and b. The sums are formed a
    block of (a, b) pairs at a time, at most ``_BLOCK_ENTRIES`` terms, so the
    memory does not grow with the number of pairs."""
    return _magnitudes(_exact_magnitudes, a, b, n_antennas)


def _geometric_magnitude(a_tilde, n_antennas: int):
    """|sin(N a/2) / (N sin(a/2))| with the limit 1 at a = 0 (mod 2pi)."""
    den = np.sin(a_tilde / 2.0)
    num = np.sin(n_antennas * a_tilde / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(num / den) / n_antennas
    return np.where(np.abs(den) < 1e-12, 1.0, out)


def _approx_magnitudes(a, b, n_antennas: int) -> np.ndarray:
    """Closed-form coherence magnitude, branching on the quadratic-phase sign."""
    a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in np.broadcast_arrays(a, b))
    out = np.empty(a.shape, dtype=float)

    zero = np.abs(b) < B_ZERO_TOL
    out[zero] = _geometric_magnitude(reduce_angle(a[zero]), n_antennas)

    pos = ~zero
    if np.any(pos):
        # the magnitude is invariant under (a, b) -> (-a, -b): b < 0 is folded onto b > 0
        sign = np.sign(b[pos])
        at = reduce_angle(sign * a[pos])
        sqrt_b = np.sqrt(sign * b[pos])
        lower = at / (2.0 * sqrt_b)
        upper = (n_antennas - 1) * sqrt_b + lower
        c_hi, s_hi = fresnel(upper)
        c_lo, s_lo = fresnel(lower)
        f1 = c_hi - c_lo
        f2 = s_hi - s_lo
        out[pos] = np.sqrt(f1**2 + f2**2) / (n_antennas * sqrt_b)
    return out


def coherence_approx(a, b, n_antennas: int):
    """Closed-form approximation of the coherence magnitude.

    Uses the geometric-sum magnitude when b = 0 and the Fresnel-integral
    form otherwise; negative b is folded onto positive b through the
    (a, b) -> (-a, -b) symmetry. The phase slope is reduced to its principal
    value before any Fresnel evaluation. Broadcasts as ``coherence_exact``.
    """
    return _magnitudes(_approx_magnitudes, a, b, n_antennas)


def delta_floor(n_antennas: int) -> Rule:
    """The rule of thresholds delta above 1/N, below which no support bound holds."""
    floor = 1.0 / n_antennas
    return Rule(lambda d: d > floor, f"must exceed the geometric-sum floor 1/N = {floor:.3e}")


def thresholds(n_antennas: int, delta: float, b_abs=0.0) -> tuple:
    """Support-interval half-widths (eta0, eta1, eta2) in sin-angle units.

    eta0 bounds the b = 0 case two-sidedly; eta1/eta2 bound the b != 0 case
    asymmetrically, with eta2 = eta1 + 2 (N-1) |b| / pi. eta2 broadcasts
    over ``b_abs``, which must be finite and >= 0.
    """
    n = check_integer(n_antennas, "n_antennas", 2)
    check(delta, "delta", FRACTION)
    floor = delta_floor(n)
    fresnel_floor = 2.0 * math.sqrt(2.0) / (n * math.pi)  # below 1/N; named too when delta is under both
    if delta <= fresnel_floor:
        also = f" and the Fresnel-bound floor 2*sqrt(2)/(N*pi) = {fresnel_floor:.3e}"
        floor = Rule(floor.predicate, floor.requirement + also)
    check(delta, "delta", floor)
    check_all(b_abs, "b_abs", NONNEGATIVE)
    eta0 = math.acos(1.0 - 2.0 / (n**2 * delta**2)) / math.pi
    eta1 = 2.0 * math.sqrt(2.0) / (n * math.pi * delta)
    eta2 = eta1 + 2.0 * (n - 1) * b_abs / math.pi
    return eta0, eta1, eta2


def predicted_support(cfg: ArrayConfig, theta_0: float, mu_0: float, mu: float, delta: float) -> np.ndarray:
    """Grid indices (0-based) that can carry coefficients of magnitude >= delta.

    The set is an interval around sin(theta_0) in wrapped sin-angle distance:
    two-sided eta0 when the quadratic phases match, and (eta2 left, eta1
    right) or (eta1 left, eta2 right) for positive/negative quadratic-phase
    mismatch respectively. Wrap-around at the +-1 boundary keeps the set
    contiguous on the circle, so it may split across both index ends.
    ``theta_0`` must lie in (-pi/2, pi/2).
    """
    check(theta_0, "theta_0", ANGLE)
    _, b = phase_pair(cfg, 0.0, math.sin(theta_0), mu, mu_0)
    eta0, eta1, eta2 = thresholds(cfg.n_antennas, delta, abs(b))
    grid = dft_grid(cfg.n_antennas)
    # wrapped difference sin(theta_m) - sin(theta_0) on (-1, 1]
    diff = np.mod(grid - math.sin(theta_0) + 1.0, 2.0) - 1.0
    if abs(b) < B_ZERO_TOL:
        lo, hi = -eta0, eta0
    elif b > 0:
        lo, hi = -eta2, eta1
    else:
        lo, hi = -eta1, eta2
    return np.flatnonzero((diff >= lo) & (diff <= hi))


def _sublinear_cap(n: int) -> float:
    """Cap (N / 1.24) sqrt(2 / (N - 1)) on the quadratic-phase mismatch term of
    the nonzero count, for sources beyond the Fresnel distance."""
    return (n / 1.24) * math.sqrt(2.0 / (n - 1))


def _worst_case_nonzeros(n: int, delta: float) -> float:
    """Worst-case nonzero count K_bar(N, delta) = 2 sqrt(2) / (pi delta) plus the
    sublinear cap, the bound behind the 1/sqrt(N) sparsity claim."""
    return 2.0 * math.sqrt(2.0) / (math.pi * delta) + _sublinear_cap(n)


def sparsity_bound(cfg: ArrayConfig, delta: float, b):
    """Nonzero count K_bar: a bound on the grid coefficients of magnitude >= delta.

    Ceil of the support-interval width divided by the 2/N grid resolution:
    ceil(N eta0) when |b| < B_ZERO_TOL, else ceil(N (eta1 + eta2) / 2).
    An int for a scalar ``b``, an int array for an array ``b``, which must
    be finite.
    """
    n = cfg.n_antennas
    b_abs = np.abs(b)
    eta0, eta1, eta2 = thresholds(n, delta, b_abs)
    k_bar = np.where(b_abs < B_ZERO_TOL, np.ceil(n * eta0), np.ceil(n * (eta1 + eta2) / 2.0))
    return int(k_bar) if np.ndim(b) == 0 else k_bar.astype(int)
