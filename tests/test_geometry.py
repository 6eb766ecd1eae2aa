import math
from dataclasses import replace

import numpy as np
import pytest

from nfcs import (
    ArrayConfig,
    ChannelSpec,
    b_vector,
    effective_distance,
    field_boundaries,
    near_steering,
    sample_channel,
    synthesize_channel,
)
from nfcs.dictionaries import dft_grid
from nfcs.geometry import _element_delay, _scale_gains, _steering


@pytest.fixture
def cfg():
    return ArrayConfig(carrier_freq=100e9, n_antennas=256)


def test_config_derived_quantities(cfg):
    assert cfg.wavelength == pytest.approx(2.998e-3)
    assert cfg.spacing == pytest.approx(cfg.wavelength / 2)
    assert cfg.aperture == pytest.approx(255 * cfg.wavelength / 2)
    assert cfg.is_half_wavelength


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ArrayConfig(carrier_freq=-1.0, n_antennas=4)
    with pytest.raises(ValueError):
        ArrayConfig(carrier_freq=1e9, n_antennas=1)
    with pytest.raises(ValueError):
        ArrayConfig(carrier_freq=1e9, n_antennas=4, spacing=0.0)


def test_field_boundaries_reference_setup(cfg):
    fresnel, rayleigh = field_boundaries(cfg)
    # reported working-point values for the 256-antenna, 100 GHz array
    assert rayleigh == pytest.approx(97.54, rel=1e-3)
    assert fresnel == pytest.approx(2.676, rel=1e-3)
    # direct re-evaluation with independent arithmetic
    d_ap = 255 * cfg.wavelength / 2
    assert fresnel == pytest.approx(0.62 * (d_ap**3 / cfg.wavelength) ** 0.5, rel=1e-12)
    assert rayleigh == pytest.approx(2 * d_ap**2 / cfg.wavelength, rel=1e-12)


def test_field_boundaries_two_antennas():
    cfg2 = ArrayConfig(carrier_freq=3e9, n_antennas=2)
    _, rayleigh = field_boundaries(cfg2)
    # D = d = lam/2, so 2 D^2 / lam = lam / 2
    assert rayleigh == pytest.approx(cfg2.wavelength / 2, rel=1e-12)


def test_far_steering_broadside(cfg):
    v = near_steering(cfg, 0.0, math.inf, "taylor")
    np.testing.assert_allclose(v, np.full(256, 1 / 16.0), atol=1e-15)


def test_far_steering_quarter_phase():
    cfg4 = ArrayConfig(carrier_freq=100e9, n_antennas=4)
    v = near_steering(cfg4, math.asin(0.5), math.inf, "taylor")
    phases = np.angle(v * np.sqrt(4))
    expected = np.array([0.0, math.pi / 2, math.pi, -math.pi / 2])
    np.testing.assert_allclose(
        np.exp(1j * phases), np.exp(1j * expected), atol=1e-12
    )


def test_far_steering_grid_orthogonality(cfg):
    grid = dft_grid(cfg.n_antennas)
    v1 = near_steering(cfg, math.asin(grid[10]), math.inf, "taylor")
    v2 = near_steering(cfg, math.asin(grid[200]), math.inf, "taylor")
    assert abs(np.vdot(v1, v2)) < 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.4, -1.2])
@pytest.mark.parametrize("mode", ["exact", "taylor"])
def test_steering_unit_norm(cfg, theta, mode):
    v = near_steering(cfg, theta, 10.0, mode)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def element_distance(cfg, theta, r, n, mode):
    """Distance r^(n) from antenna n (1-based) to a source at (theta, r)."""
    return r + float(_element_delay(math.sin(theta), r, (n - 1) * cfg.spacing, mode))


def test_element_distance_reference_antenna(cfg):
    for mode in ("exact", "taylor"):
        assert element_distance(cfg, 0.7, 5.0, 1, mode) == 5.0
        # so every response starts at phase zero
        assert near_steering(cfg, 0.7, 5.0, mode)[0] == 1 / 16.0


def test_element_distance_broadside_exact(cfg):
    n = 100
    got = element_distance(cfg, 0.0, 3.0, n, "exact")
    assert got == pytest.approx(math.hypot(3.0, (n - 1) * cfg.spacing), rel=1e-12)
    # the exact response carries that distance as its phase
    phase = -(2 * math.pi / cfg.wavelength) * (got - 3.0)
    assert near_steering(cfg, 0.0, 3.0, "exact")[n - 1] * 16.0 == pytest.approx(
        complex(math.cos(phase), math.sin(phase)), abs=1e-12
    )


def test_element_distance_taylor_accuracy(cfg):
    # frozen from direct evaluation of both branches at the far antenna
    exact = element_distance(cfg, math.pi / 4, 10.0, 256, "exact")
    taylor = element_distance(cfg, math.pi / 4, 10.0, 256, "taylor")
    assert abs(exact - taylor) == pytest.approx(1.00749e-4, rel=1e-3)
    assert abs(exact - taylor) < 1e-3 * 10.0


def test_element_distance_rejects_bad_inputs(cfg):
    with pytest.raises(ValueError):
        near_steering(cfg, 0.1, -2.0, "exact")
    with pytest.raises(ValueError):
        near_steering(cfg, 0.1, -2.0, "taylor")
    with pytest.raises(ValueError):
        near_steering(cfg, 0.1, 5.0, mode="cubic")
    with pytest.raises(ValueError):
        _element_delay(0.1, 5.0, 3 * cfg.spacing, "cubic")


def test_taylor_error_decreases_with_distance(cfg):
    errs = []
    for r in (10.0, 100.0, 1000.0):
        exact = element_distance(cfg, 0.5, r, 256, "exact")
        taylor = element_distance(cfg, 0.5, r, 256, "taylor")
        errs.append(abs(exact - taylor))
    assert errs[0] > errs[1] > errs[2]


def test_near_steering_first_entry(cfg):
    for mode in ("exact", "taylor"):
        v = near_steering(cfg, 0.9, 7.0, mode)
        assert v[0] == pytest.approx(1 / 16.0, abs=1e-15)


def test_near_steering_hadamard_factorization(cfg):
    # the second-order response factors into plane-wave times chirp
    theta, r = 0.35, 8.0
    v = near_steering(cfg, theta, r, "taylor")
    plane = near_steering(cfg, theta, math.inf, "taylor")
    factored = plane * b_vector(cfg, effective_distance(math.sin(theta), r))
    np.testing.assert_allclose(v, factored, atol=1e-12)


def test_near_steering_exact_vs_taylor(cfg):
    # frozen from numeric comparison of the two branches at theta=pi/6, r=10 m
    err = np.linalg.norm(
        near_steering(cfg, math.pi / 6, 10.0, "exact")
        - near_steering(cfg, math.pi / 6, 10.0, "taylor")
    )
    assert err == pytest.approx(0.083584, rel=1e-3)
    assert err < 0.1


def test_near_steering_taylor_far_limit(cfg):
    grid = dft_grid(cfg.n_antennas)
    theta = math.asin(grid[77])
    # the plane-wave response exp(+j*(2pi/lam)*(n-1)*d*sin(theta))/sqrt(N)
    n = np.arange(cfg.n_antennas)
    plane = np.exp(1j * (2 * math.pi / cfg.wavelength) * n * cfg.spacing * math.sin(theta)) / 16.0
    np.testing.assert_allclose(near_steering(cfg, theta, math.inf, "taylor"), plane, rtol=0, atol=1e-12)


def test_steering_kernel_broadcasts_over_distance(cfg):
    # an array of distances alone also gives one response per column
    r = np.array([3.0, 40.0, math.inf])
    responses = _steering(cfg, math.sin(0.4), r, "taylor")
    assert responses.shape == (cfg.n_antennas, 3)
    for j in range(3):
        assert responses[:, j].tobytes() == near_steering(cfg, 0.4, r[j], "taylor").tobytes()


_LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


@pytest.mark.skipif(not _LONG_DOUBLE_IS_WIDER, reason="np.longdouble is no wider than float64")
@pytest.mark.parametrize("n", [256, 2048, 8192])
def test_exact_steering_phase_against_long_double(n):
    # the cancellation-free form r delta / (sqrt(1 + delta) + 1), evaluated in
    # long double from the same float64 inputs, is the reference; the float64
    # phases stay within 16 eps of the largest phase, from the Fresnel distance
    # to far beyond the Rayleigh distance and up to endfire
    cfg = ArrayConfig(carrier_freq=100e9, n_antennas=n)
    fresnel, rayleigh = field_boundaries(cfg)
    eps = np.finfo(np.float64).eps
    two_pi = 8 * np.arctan(np.longdouble(1))
    offsets = (np.arange(n) * cfg.spacing).astype(np.longdouble)
    wavenumber = two_pi / np.longdouble(cfg.wavelength)
    for r in np.geomspace(fresnel, 1e4 * rayleigh, 9):
        for sin_t in (-0.999, -0.5, 0.0, 0.1, 0.7, 0.9999):
            v = near_steering(cfg, math.asin(sin_t), float(r), "exact")
            r_ld, sin_ld = np.longdouble(r), np.longdouble(math.sin(math.asin(sin_t)))
            delta = offsets * (offsets - 2 * r_ld * sin_ld) / r_ld**2
            phase = -wavenumber * r_ld * delta / (np.sqrt(1 + delta) + 1)
            error = np.angle(v).astype(np.longdouble) - phase
            error -= two_pi * np.round(error / two_pi)
            bound = 16 * eps * float(np.max(np.abs(phase)))
            assert float(np.max(np.abs(error))) <= bound, (r, sin_t)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-15, (r, sin_t)


def test_near_steering_rejects_bad_distance(cfg):
    with pytest.raises(ValueError):
        near_steering(cfg, 0.2, -1.0, "exact")
    with pytest.raises(ValueError):
        near_steering(cfg, 0.2, math.inf, "exact")


def test_b_vector_basics(cfg):
    ones = b_vector(cfg, math.inf)
    np.testing.assert_array_equal(ones, np.ones(cfg.n_antennas))
    chirp = b_vector(cfg, 6.0)
    assert chirp[0] == 1.0 + 0j
    np.testing.assert_allclose(np.abs(chirp), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        b_vector(cfg, -3.0)
    with pytest.raises(ValueError):
        b_vector(cfg, 0.0)


def test_b_vector_broadcasts_over_mu(cfg):
    mus = np.array([6.0, 20.0, math.inf, 1e4])
    chirps = b_vector(cfg, mus)
    assert chirps.shape == (cfg.n_antennas, mus.size)
    for i, mu in enumerate(mus):
        np.testing.assert_array_equal(chirps[:, i], b_vector(cfg, float(mu)))
    with pytest.raises(ValueError):
        b_vector(cfg, np.array([6.0, -1.0]))


def test_b_vector_third_entry_phase():
    # hand evaluation: phase = -(2 pi / lam) * (2 d)^2 / (2 mu) at n = 3
    cfg3 = ArrayConfig(carrier_freq=2.998e8 / 0.003, n_antennas=3, spacing=0.0015)
    chirp = b_vector(cfg3, 6.0)
    expected = -(2 * math.pi / 0.003) * (4 * 0.0015**2) / 12.0
    assert expected == pytest.approx(-2 * math.pi * 2.5e-4)
    assert np.angle(chirp[2]) == pytest.approx(expected, rel=1e-12)


def test_effective_distance_values():
    assert effective_distance(0.0, 4.2) == pytest.approx(4.2)
    assert effective_distance(math.sin(math.pi / 3), 5.0) == pytest.approx(20.0, rel=1e-12)
    rng = np.random.default_rng(3)
    thetas = rng.uniform(-1.5, 1.5, 20)
    mus = rng.uniform(1.0, 500.0, 20)
    r = mus * np.cos(thetas) ** 2
    batch = effective_distance(np.sin(thetas), r)
    np.testing.assert_allclose(batch, mus, rtol=1e-12)
    for i in range(20):
        assert effective_distance(math.sin(thetas[i]), float(r[i])) == batch[i]


def test_synthesize_single_path(cfg):
    spec = ChannelSpec(gains=(1.0,), thetas=(0.3,), distances=(12.0,))
    h = synthesize_channel(cfg, spec)
    np.testing.assert_allclose(h, near_steering(cfg, 0.3, 12.0, "exact"), atol=1e-15)
    assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)


def test_synthesize_linear_in_gains(cfg):
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = ChannelSpec(
            gains=tuple(complex(g) for g in rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            thetas=tuple(float(t) for t in rng.uniform(-1.2, 1.2, 3)),
            distances=tuple(float(r) for r in rng.uniform(3.0, 90.0, 3)),
        )
        scale = 2.5 - 1.25j
        scaled = replace(spec, gains=tuple(g * scale for g in spec.gains))
        np.testing.assert_allclose(
            synthesize_channel(cfg, scaled), scale * synthesize_channel(cfg, spec), atol=1e-12
        )
        # superposition across path subsets
        one = ChannelSpec(spec.gains[:1], spec.thetas[:1], spec.distances[:1])
        rest = ChannelSpec(spec.gains[1:], spec.thetas[1:], spec.distances[1:])
        np.testing.assert_allclose(
            synthesize_channel(cfg, spec),
            synthesize_channel(cfg, one) + synthesize_channel(cfg, rest),
            atol=1e-12,
        )


@pytest.mark.parametrize(
    "record",
    [
        dict(gains=(), thetas=(), distances=()),
        dict(gains=(1.0, 0.5), thetas=(0.1,), distances=(10.0,)),
        dict(gains=(1.0,), thetas=(0.1, 0.2), distances=(10.0,)),
        dict(gains=(1.0,), thetas=(0.1,), distances=(10.0, 20.0)),
        dict(gains=(complex("nan"),), thetas=(0.1,), distances=(10.0,)),
        dict(gains=(1.0, math.inf), thetas=(0.1, 0.2), distances=(10.0, 20.0)),
        dict(gains=(1.0,), thetas=(math.pi / 2,), distances=(10.0,)),
        dict(gains=(1.0,), thetas=(-math.pi / 2,), distances=(10.0,)),
        dict(gains=(1.0,), thetas=(2.0,), distances=(10.0,)),
        dict(gains=(1.0,), thetas=(0.1,), distances=(0.0,)),
        dict(gains=(1.0,), thetas=(0.1,), distances=(-3.0,)),
        dict(gains=(1.0,), thetas=(0.1,), distances=(math.inf,)),
    ],
    ids=[
        "empty", "fewer-thetas", "more-thetas", "more-distances", "gain-nan", "gain-inf", "theta-pi/2",
        "theta--pi/2", "theta-2", "distance-0", "distance-negative", "distance-inf",
    ],
)
def test_channel_spec_rejects_malformed_records(record):
    with pytest.raises(ValueError):
        ChannelSpec(**record)


def test_channel_spec_replace_revalidates(cfg):
    spec = sample_channel(cfg, 3, seed=4)
    with pytest.raises(ValueError):
        replace(spec, thetas=spec.thetas[:2])
    with pytest.raises(ValueError):
        replace(spec, thetas=(math.pi / 2,) + spec.thetas[1:])
    with pytest.raises(ValueError):
        replace(spec, distances=(math.inf,) + spec.distances[1:])
    moved = replace(spec, distances=(5.0,) + spec.distances[1:])
    assert moved.distances[0] == 5.0
    assert moved != spec


def test_sample_channel_determinism(cfg):
    a = sample_channel(cfg, 3, seed=42)
    b = sample_channel(cfg, 3, seed=42)
    assert a == b
    c = sample_channel(cfg, 3, seed=43)
    assert a != c


def test_sample_channel_single_path(cfg):
    spec = sample_channel(cfg, 1, seed=7)
    assert len(spec.gains) == len(spec.thetas) == len(spec.distances) == 1


def test_sample_channel_power_split(cfg):
    for seed in range(5):
        spec = sample_channel(cfg, 3, seed=seed, power_split_db=13.0)
        gains = np.array(spec.gains)
        ratio = abs(gains[0]) ** 2 / np.sum(np.abs(gains[1:]) ** 2)
        assert ratio == pytest.approx(10**1.3, abs=1e-9)


@pytest.mark.parametrize("power_split_db", [1e300, -1e300, 300.5, math.inf, math.nan])
def test_sample_channel_rejects_power_split_beyond_300_db(cfg, power_split_db):
    with pytest.raises(ValueError, match=r"power_split_db must lie in \[-300, 300\] dB"):
        sample_channel(cfg, 3, seed=1, power_split_db=power_split_db)


def test_sample_channel_structure_and_ranges(cfg):
    fresnel, rayleigh = field_boundaries(cfg)
    spec = sample_channel(cfg, 4, seed=5)
    assert len(spec.gains) == len(spec.thetas) == len(spec.distances) == 4
    assert all(isinstance(g, complex) for g in spec.gains)
    for theta, r in zip(spec.thetas, spec.distances):
        assert fresnel <= r <= 1.2 * rayleigh
        assert abs(theta) < math.pi / 2


def test_sample_channel_normalization():
    # the sparsity runner's path: split the power 13 dB, then scale to unit power
    rng = np.random.default_rng(9)
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / math.sqrt(2)
    _scale_gains(gains, 13.0, normalize=True)
    assert np.sum(np.abs(gains) ** 2) == pytest.approx(1.0, rel=1e-12)
    ratio = abs(gains[0]) ** 2 / np.sum(np.abs(gains[1:]) ** 2)
    assert ratio == pytest.approx(10**1.3, abs=1e-9)


def test_sample_channel_rejects_bad_args(cfg):
    with pytest.raises(ValueError):
        sample_channel(cfg, 0, seed=1)
    with pytest.raises(ValueError):
        sample_channel(cfg, 2, seed=1, distance_range=(0.5, 10.0))
