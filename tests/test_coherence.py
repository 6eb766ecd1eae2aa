import math

import numpy as np
import pytest

from nfcs import (
    ArrayConfig,
    analyze,
    b_vector,
    build_dft,
    build_dmu,
    coherence_approx,
    coherence_exact,
    field_boundaries,
    fresnel,
    near_steering,
    phase_pair,
    predicted_support,
    sparsity_bound,
    thresholds,
)
from nfcs.coherence import B_ZERO_TOL, _sublinear_cap, reduce_angle
from nfcs.dictionaries import dft_grid
from nfcs.geometry import _steering
from nfcs.harness import _fast_analysis_fractions
from nfcs.validation import POSITIVE, check


def fresnel_increment_bound_check(x: float, delta_x: float) -> bool:
    """Check |C(x+dx) - C(x)| < 1/x and the same for S."""
    check(x, "x", POSITIVE)
    check(delta_x, "delta_x", POSITIVE)
    c_hi, s_hi = fresnel(x + delta_x)
    c_lo, s_lo = fresnel(x)
    bound = 1.0 / x
    return bool(abs(c_hi - c_lo) < bound and abs(s_hi - s_lo) < bound)

# frozen from piecewise adaptive quadrature of cos(t^2), sin(t^2) between
# integrand sign changes (absolute error < 1e-12)
QUADRATURE_TABLE = {
    0.5: (0.4968840292147948, 0.04148102426854748),
    1.0: (0.904524237900272, 0.3102683017233811),
    2.0: (0.4614614624332164, 0.8047764893437562),
    5.0: (0.6114667663964624, 0.5279172811653227),
    50.0: (0.6201542745528246, 0.6190601186888826),
}


@pytest.fixture
def cfg():
    return ArrayConfig(carrier_freq=100e9, n_antennas=256)


class TestFresnel:
    def test_zero(self):
        c, s = fresnel(0.0)
        assert c == 0.0 and s == 0.0

    @pytest.mark.parametrize("x,expected", sorted(QUADRATURE_TABLE.items()))
    def test_against_quadrature(self, x, expected):
        c, s = fresnel(x)
        assert c == pytest.approx(expected[0], abs=1e-10)
        assert s == pytest.approx(expected[1], abs=1e-10)

    def test_odd_symmetry(self):
        xs = np.array([0.1, 0.7, 1.3, 4.0, 17.0])
        c_pos, s_pos = fresnel(xs)
        c_neg, s_neg = fresnel(-xs)
        np.testing.assert_array_equal(c_neg, -c_pos)
        np.testing.assert_array_equal(s_neg, -s_pos)

    def test_limit_at_large_argument(self):
        limit = math.sqrt(math.pi / 8)
        c, s = fresnel(50.0)
        # residual oscillation decays like 1/(2x)
        assert abs(c - limit) < 1.1 / (2 * 50.0)
        assert abs(s - limit) < 1.1 / (2 * 50.0)

    def test_is_the_rescaled_scipy_integral(self):
        # the lazy import changes nothing: the values are SciPy's normalised
        # integrals at x sqrt(2/pi), scaled by sqrt(pi/2), bit for bit
        from scipy.special import fresnel as fresnel_normalized

        xs = np.linspace(-40.0, 40.0, 4001)
        s_std, c_std = fresnel_normalized(xs * math.sqrt(2.0 / math.pi))
        c, s = fresnel(xs)
        assert c.tobytes() == (math.sqrt(math.pi / 2.0) * c_std).tobytes()
        assert s.tobytes() == (math.sqrt(math.pi / 2.0) * s_std).tobytes()

    def test_global_caps(self):
        # numerically verified envelope constants used by the support analysis
        xs = np.linspace(1e-6, 200.0, 200_001)
        c, s = fresnel(xs)
        assert c.max() < 0.98
        assert s.max() < 0.90


class TestParams:
    def test_zero_cases(self, cfg):
        a, b = phase_pair(cfg, math.sin(0.4), math.sin(0.4), 20.0, 20.0)
        assert a == 0.0 and b == 0.0 and reduce_angle(a) == 0.0
        a2, b2 = phase_pair(cfg, math.sin(0.9), math.sin(-0.2), 50.0, 50.0)
        assert b2 == 0.0 and a2 != 0.0

    def test_half_wavelength_reduction(self, cfg):
        a, b = phase_pair(cfg, math.sin(0.5), math.sin(-0.3), 30.0, 10.0)
        assert a == pytest.approx(math.pi * (math.sin(0.5) - math.sin(-0.3)), rel=1e-12)
        assert b == pytest.approx(
            (math.pi * cfg.wavelength / 4.0) * (1 / 10.0 - 1 / 30.0), rel=1e-12
        )

    def test_a_tilde_range(self, cfg):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a_tilde = reduce_angle(float(rng.uniform(-7, 7)))
            assert -math.pi <= a_tilde <= math.pi

    def test_admissible_quadratic_phase_is_bounded(self, cfg):
        # sources at or beyond the Fresnel distance keep |b| under the
        # (pi/1.24) (N-1)^(-1) sqrt(2/(N-1)) cap
        n = cfg.n_antennas
        cap = (math.pi / 1.24) / (n - 1) * math.sqrt(2.0 / (n - 1))
        fresnel_d, rayleigh = field_boundaries(cfg)
        rng = np.random.default_rng(8)
        for _ in range(500):
            s1, s2 = rng.uniform(-1, 1, 2)
            r1, r2 = rng.uniform(fresnel_d, 10 * rayleigh, 2)
            mu1 = r1 / (1 - s1**2)
            mu2 = r2 / (1 - s2**2)
            _, b = phase_pair(cfg, s1, s2, mu1, mu2)
            assert abs(b) < cap
        assert cap < math.pi

    def test_infinite_effective_distance(self, cfg):
        _, b = phase_pair(cfg, math.sin(0.1), math.sin(0.2), math.inf, math.inf)
        assert b == 0.0

    def test_an_array_of_distances_is_checked_by_its_extremes(self, cfg):
        # a scalar distance is checked by the rule itself, an array by its
        # least and greatest entry, where a nan shows
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError, match="^mu_0 must be positive or inf"):
                phase_pair(cfg, 0.0, 0.0, 20.0, np.array([10.0, bad, math.inf]))
            with pytest.raises(ValueError, match="^mu must be positive or inf"):
                phase_pair(cfg, np.zeros(2), 0.0, np.array([bad, 5.0]), 10.0)
        _, b = phase_pair(cfg, np.array([]), 0.0, np.array([]), 10.0)
        assert b.shape == (0,)


class TestExact:
    def test_aligned(self):
        assert coherence_exact(0.0, 0.0, 256) == pytest.approx(1.0)

    def test_orthogonal_grid_shift(self):
        n = 256
        assert coherence_exact(2 * math.pi / n, 0.0, n) == pytest.approx(0.0, abs=1e-12)

    def test_matches_inner_product(self, cfg):
        # |<chirped column, second-order steering vector>| equals the kernel
        mu = 20.0
        d = build_dmu(cfg, mu)
        grid = dft_grid(cfg.n_antennas)
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(0, cfg.n_antennas))
            sin0 = float(rng.uniform(-1, 1))
            r0 = float(rng.uniform(3.0, 90.0))
            theta0 = math.asin(sin0)
            mu0 = r0 / math.cos(theta0) ** 2
            vec = _steering(cfg, math.sin(theta0), r0, "taylor")
            direct = abs(np.vdot(d.matrix[:, m], vec))
            a, b = phase_pair(cfg, grid[m], math.sin(theta0), mu, mu0)
            assert coherence_exact(a, b, cfg.n_antennas) == pytest.approx(direct, abs=1e-12)


class TestApprox:
    def test_aligned(self):
        assert coherence_approx(0.0, 0.0, 256) == pytest.approx(1.0)

    def test_geometric_branch_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = float(rng.uniform(-6, 6))
            assert coherence_approx(a, 0.0, 256) == pytest.approx(coherence_exact(a, 0.0, 256), abs=1e-12)

    def test_sign_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            b = float(rng.uniform(1e-6, 8e-4))
            assert coherence_approx(a, b, 256) == coherence_approx(-a, -b, 256)

    def _mean_error(self, cfg, trials, seed):
        fresnel_d, rayleigh = field_boundaries(cfg)
        rng = np.random.default_rng(seed)
        errs = np.empty(trials)
        for i in range(trials):
            s1, s2 = rng.uniform(-1, 1, 2)
            r1, r2 = rng.uniform(fresnel_d, rayleigh, 2)
            a, b = phase_pair(cfg, s1, s2, r1 / (1 - s1**2), r2 / (1 - s2**2))
            n = cfg.n_antennas
            errs[i] = abs(coherence_approx(a, b, n) - coherence_exact(a, b, n))
        return errs.mean()

    def test_mean_error_small(self, cfg):
        assert self._mean_error(cfg, 300, seed=100) < 1e-2

    def test_error_shrinks_with_array_size(self):
        cfg_small = ArrayConfig(100e9, 256)
        cfg_large = ArrayConfig(100e9, 2560)
        e_small = self._mean_error(cfg_small, 1000, seed=200)
        e_large = self._mean_error(cfg_large, 1000, seed=200)
        assert e_large < e_small


@pytest.mark.parametrize("kernel", [coherence_exact, coherence_approx])
class TestKernelArguments:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_an_array_with_a_non_finite_phase_by_name(self, kernel, bad):
        # scalar arguments are covered by the library table of test_validation
        for k, name in enumerate("ab"):
            arrays = [np.array([0.5, 1.0]), np.zeros(2)]
            arrays[k][1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                kernel(*arrays, 8)

    def test_broadcasts_over_a_and_b(self, kernel):
        a = np.linspace(-3.0, 3.0, 4)[:, None]
        b = np.array([0.0, 2e-4, -5e-4])
        out = kernel(a, b, 64)
        assert out.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert out[i, j] == kernel(float(a[i, 0]), float(b[j]), 64)


class TestThresholds:
    def test_frozen_values(self):
        eta0, eta1, eta2 = thresholds(256, 0.01)
        # frozen from direct evaluation with math.acos
        assert eta0 == pytest.approx(0.2554821590477533, rel=1e-12)
        assert eta1 == pytest.approx(0.3516860609988696, rel=1e-12)
        assert eta2 == eta1

    def test_nonzero_b_widens_one_side(self):
        b_abs = 3e-4
        _, eta1, eta2 = thresholds(256, 0.01, b_abs)
        assert eta2 == pytest.approx(eta1 + 2 * 255 * b_abs / math.pi, rel=1e-12)

    def test_aperture_form_matches(self):
        # eta2 - eta1 = 2 (N-1) |b| / pi also equals D |1/mu0 - 1/mu|
        cfg = ArrayConfig(100e9, 256)
        mu0, mu = 6.0, 20.0
        _, b = phase_pair(cfg, 0.0, 0.0, mu, mu0)
        _, eta1, eta2 = thresholds(256, 0.01, abs(b))
        assert eta2 - eta1 == pytest.approx(cfg.aperture * abs(1 / mu0 - 1 / mu), rel=1e-12)

    def test_validity_floors(self):
        # between the two floors: only the binding geometric floor is named
        with pytest.raises(ValueError, match="geometric") as excinfo:
            thresholds(256, 0.0039)
        assert "Fresnel" not in str(excinfo.value)
        # below both floors: both are named
        with pytest.raises(ValueError, match="Fresnel"):
            thresholds(256, 0.003)
        with pytest.raises(ValueError, match="geometric"):
            thresholds(256, 0.003)
        with pytest.raises(ValueError):
            thresholds(256, 0.01, b_abs=-1e-3)


class TestPredictedSupport:
    def test_matched_window_on_grid(self, cfg):
        grid = dft_grid(cfg.n_antennas)
        k = 120
        delta = 0.05
        idx = predicted_support(cfg, math.asin(grid[k]), 20.0, 20.0, delta)
        eta0, _, _ = thresholds(cfg.n_antennas, delta)
        expected_count = math.ceil(eta0 * cfg.n_antennas)  # 13 for these values
        assert expected_count == 13
        assert len(idx) == expected_count
        assert np.array_equal(idx, np.arange(k - 6, k + 7))

    def test_wraparound_split(self, cfg):
        # oblique source near the grid edge splits the window across both ends
        theta0 = math.radians(-85.0)
        mu0 = 4.0 / math.cos(theta0) ** 2
        idx = predicted_support(cfg, theta0, mu0, 6.0, 0.01)
        assert idx[0] == 0 and idx[-1] == cfg.n_antennas - 1
        gaps = np.diff(idx)
        assert (gaps > 1).sum() == 1  # exactly one hole -> two edge clusters

    def test_asymmetry_follows_mismatch_sign(self, cfg):
        theta0 = 0.0
        delta = 0.01
        # dictionary farther than source: positive mismatch, wider left side
        idx_pos = predicted_support(cfg, theta0, 10.0, 40.0, delta)
        left = (idx_pos < 128).sum()
        right = (idx_pos >= 128).sum()
        assert left > right
        # flipped pair mirrors the support
        idx_neg = predicted_support(cfg, theta0, 40.0, 10.0, delta)
        np.testing.assert_array_equal(np.sort(255 - idx_neg), idx_pos)

    def test_contains_all_large_coefficients(self, cfg):
        # necessary-condition containment, checked against the exact kernel
        rng = np.random.default_rng(31)
        delta = 0.05
        grid = dft_grid(cfg.n_antennas)
        for _ in range(25):
            s0 = float(rng.uniform(-1, 1))
            r0 = float(rng.uniform(*field_boundaries(cfg)))
            theta0 = math.asin(s0)
            mu0 = r0 / math.cos(theta0) ** 2
            mu = float(rng.uniform(3.0, 100.0))
            vec = _steering(cfg, math.sin(theta0), r0, "taylor")
            alpha = np.abs(build_dmu(cfg, mu).matrix.conj().T @ vec)
            support = set(predicted_support(cfg, theta0, mu0, mu, delta).tolist())
            above = set(np.flatnonzero(alpha >= delta).tolist())
            assert above <= support


class TestSparsityBound:
    def test_matched_regime(self, cfg):
        k_bar = sparsity_bound(cfg, 0.01, 0.0)
        assert k_bar == 66  # ceil(N/pi * acos(1 - 2/(N delta)^2))
        eta0, _, _ = thresholds(256, 0.01)
        assert k_bar == math.ceil(256 * eta0)

    def test_mismatched_regime(self, cfg):
        _, b = phase_pair(cfg, 0.0, 0.0, 20.0, 6.0)
        k_bar = sparsity_bound(cfg, 0.01, b)
        assert k_bar == 96  # ceil(90.03 + 5.71)
        _, eta1, eta2 = thresholds(256, 0.01, abs(b))
        assert k_bar == math.ceil(256 * (eta1 + eta2) / 2)

    def test_sublinear_cap(self, cfg):
        assert _sublinear_cap(256) == pytest.approx((256 / 1.24) * math.sqrt(2.0 / 255.0), rel=1e-12)

    def test_mismatch_term_capped_for_admissible_sources(self, cfg):
        # the b-dependent part of k_bar never exceeds the sublinear cap
        fres, ray = field_boundaries(cfg)
        rng = np.random.default_rng(77)
        for _ in range(200):
            s1, s2 = rng.uniform(-1, 1, 2)
            r1, r2 = rng.uniform(fres, 5 * ray, 2)
            _, b = phase_pair(cfg, s1, s2, r1 / (1 - s1**2), r2 / (1 - s2**2))
            mismatch_term = 256 * 255 * abs(b) / math.pi
            assert mismatch_term <= _sublinear_cap(256) * (1 + 1e-12)

    @pytest.mark.parametrize("spacing_factor", [1.0, 2.0])
    def test_batch_equals_scalar(self, spacing_factor):
        # one vectorised call gives, bit for bit, what one call per draw gives,
        # across the b = 0 and the |b| < B_ZERO_TOL branch, and a call on
        # scalars returns Python scalars
        cfg = ArrayConfig(100e9, 256, spacing=spacing_factor * 2.998e-3 / 2)
        rng = np.random.default_rng(14)
        sin_m, sin_0 = rng.uniform(-1, 1, (2, 64))
        mu, mu_0 = rng.uniform(3.0, 100.0, (2, 64))
        mu[:3] = mu_0[:3]  # b = 0
        mu[3] = math.inf
        mu_0[3] = math.inf
        a, b = phase_pair(cfg, sin_m, sin_0, mu, mu_0)
        b[4] = 0.5 * B_ZERO_TOL
        b[5] = -0.5 * B_ZERO_TOL
        b[6] = -b[7]
        k_bar = sparsity_bound(cfg, 0.01, b)
        assert k_bar.dtype.kind == "i" and k_bar.shape == b.shape
        assert k_bar.min() < k_bar.max()
        exact = coherence_exact(a, b, 256)
        approx = coherence_approx(a, b, 256)
        assert exact.shape == approx.shape == b.shape
        for i in range(b.size):
            ai, bi = phase_pair(cfg, float(sin_m[i]), float(sin_0[i]), float(mu[i]), float(mu_0[i]))
            assert type(ai) is float and type(bi) is float and ai == a[i]
            if i not in (4, 5, 6):
                assert bi == b[i]
            ai, bi = float(a[i]), float(b[i])
            scalar = sparsity_bound(cfg, 0.01, bi)
            assert type(scalar) is int and scalar == k_bar[i]
            for kernel, batch in ((coherence_exact, exact), (coherence_approx, approx)):
                value = kernel(ai, bi, 256)
                assert type(value) is float and value == batch[i]

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_b(self, cfg, b):
        with pytest.raises(ValueError, match="finite"):
            sparsity_bound(cfg, 0.01, b)
        with pytest.raises(ValueError, match="finite"):
            sparsity_bound(cfg, 0.01, np.array([0.0, b]))


class TestEmpiricalSparsity:
    """Share of D_mu coefficients at or above delta, as the sparsity runner counts it."""

    def test_unit_vector(self):
        cfg = ArrayConfig(carrier_freq=100e9, n_antennas=128)
        atom = build_dmu(cfg, 20.0).matrix[:, 17]
        chirps = b_vector(cfg, np.array([20.0]))
        frac = _fast_analysis_fractions(build_dft(cfg), chirps, atom[:, None], 0.5)
        assert frac.tolist() == [1 / 128]

    def test_zero_vector(self):
        cfg = ArrayConfig(carrier_freq=100e9, n_antennas=64)
        chirps = b_vector(cfg, np.array([20.0, math.inf]))
        zero = np.zeros((64, 2), dtype=complex)
        assert _fast_analysis_fractions(build_dft(cfg), chirps, zero, 0.01).tolist() == [0.0, 0.0]

    def test_matches_analyze(self, cfg):
        # one batched DFT analysis equals analysing each draw with its own D_mu
        mus = np.array([6.0, 20.0, 80.0, math.inf])
        channels = np.stack(
            [near_steering(cfg, 0.3 * i - 0.4, 10.0 + 20.0 * i) for i in range(mus.size)], axis=1
        )
        frac = _fast_analysis_fractions(build_dft(cfg), b_vector(cfg, mus), channels, 0.01)
        for i, mu in enumerate(mus):
            beta = analyze(build_dmu(cfg, float(mu)), channels[:, i])
            assert frac[i] == np.count_nonzero(np.abs(beta) >= 0.01) / cfg.n_antennas
        assert 0 < frac.min() < frac.max() < 1


class TestFresnelIncrementBound:
    @pytest.mark.parametrize("x,dx", [(1.0, 100.0), (0.1, 5.0), (3.0, 0.5)])
    def test_examples(self, x, dx):
        assert fresnel_increment_bound_check(x, dx)

    def test_random_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            x = float(rng.uniform(0.05, 20.0))
            dx = float(rng.uniform(1e-6, 100.0))
            assert fresnel_increment_bound_check(x, dx)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fresnel_increment_bound_check(0.0, 1.0)
        with pytest.raises(ValueError):
            fresnel_increment_bound_check(1.0, -1.0)
