import math

import numpy as np
import pytest

from nfcs import (
    ArrayConfig,
    build_dmu,
    empirical_rip_probe,
    gen_pilots,
    sample_complexity,
    varrho_bound,
)
from nfcs.block_rip import RipProbeReport
from nfcs.coherence import sparsity_bound


CFG = ArrayConfig(100e9, 256)


class TestVarrhoBound:
    def test_reference_worst_case(self):
        # headline worst-case block sparsity at the working point
        assert varrho_bound(CFG, 0.01) == 7
        assert varrho_bound(ArrayConfig(100e9, 1024), 0.01) <= 7

    def test_matched_pair_shrinks_with_n(self):
        # equal effective distances: the bound approaches ceil(const/sqrt(N))
        assert varrho_bound(ArrayConfig(100e9, 65536), 0.01, mu_pair=(20.0, 20.0)) == 1
        assert varrho_bound(CFG, 0.01, mu_pair=(20.0, 20.0)) >= 1

    def test_requires_square(self):
        with pytest.raises(ValueError):
            varrho_bound(ArrayConfig(100e9, 200), 0.01)

    def test_mismatch_reads_the_array_spacing(self):
        # the quadratic phase of a mismatched pair grows with d^2 / lambda, so
        # doubling the spacing raises the bound; a matched pair does not move
        wide = ArrayConfig(100e9, 256, spacing=2 * CFG.spacing)
        assert varrho_bound(wide, 0.01, mu_pair=(6.0, 20.0)) > varrho_bound(CFG, 0.01, mu_pair=(6.0, 20.0))
        assert varrho_bound(wide, 0.01, mu_pair=(6.0, 6.0)) == varrho_bound(CFG, 0.01, mu_pair=(6.0, 6.0))

    def test_mismatched_pair(self):
        rho = varrho_bound(CFG, 0.01, mu_pair=(6.0, 20.0))
        assert rho == math.ceil(96 / 16)  # k_bar = 96 at this mismatch

    @pytest.mark.parametrize("mu_pair", [(-5.0, 10.0), (0.0, 10.0), (math.nan, 10.0), (10.0, -1.0)])
    def test_rejects_bad_distances(self, mu_pair):
        with pytest.raises(ValueError, match="must be positive"):
            varrho_bound(CFG, 0.01, mu_pair=mu_pair)

    def test_worst_case_matches_the_closed_form(self):
        # ceil(K_bar / sqrt(N)) equals the per-block form
        # ceil(2 sqrt(2) / (pi delta sqrt(N)) + (sqrt(2) / 1.24) sqrt(N / (N - 1)))
        for root in (2, 3, 16, 45, 512):
            n = root * root
            cfg = ArrayConfig(100e9, n)
            for delta in np.geomspace(1.0001 / n, 0.99, 60):
                closed = 2.0 * math.sqrt(2.0) / (math.pi * delta * root) + (
                    math.sqrt(2.0) / 1.24
                ) * math.sqrt(n / (n - 1))
                assert varrho_bound(cfg, float(delta)) == math.ceil(closed), (n, delta)

    def test_at_least_one(self):
        assert varrho_bound(ArrayConfig(100e9, 65536), 0.5, mu_pair=(5.0, 5.0)) >= 1

    def test_consistency_with_coefficient_bound(self):
        # rho * sqrt(N) dominates the coefficient-level bound k_bar across a
        # grid of thresholds and effective-distance pairs, at half-wavelength
        # and at full-wavelength spacing
        mus = np.linspace(3.0, 95.0, 10)
        deltas = np.linspace(0.006, 0.05, 10)
        for cfg in (CFG, ArrayConfig(100e9, 256, spacing=2 * CFG.spacing)):
            for delta in deltas:
                for mu0 in mus:
                    for mu in (6.0, 20.0, 80.0):
                        p_b = (math.pi * cfg.spacing**2 / cfg.wavelength) * (1 / mu0 - 1 / mu)
                        k_bar = sparsity_bound(cfg, float(delta), p_b)
                        rho = varrho_bound(cfg, float(delta), mu_pair=(float(mu0), float(mu)))
                        assert rho * 16 >= k_bar, (cfg.spacing, delta, mu0, mu)


class TestSampleComplexity:
    def test_reference_value(self):
        # frozen from direct evaluation of the bound at N=256, rho=7,
        # xi=0.5, kappa=1
        assert sample_complexity(256, 7, 0.5, 1.0) == 3811

    def test_exceeds_desk_scale_dimension(self):
        # the guarantee is not attainable as a recovery bound at N=256: it
        # asks for more measurements than unknowns
        assert sample_complexity(256, 7, 0.5, 1.0) > 256

    def test_monotone_in_kappa_and_rho(self):
        base = sample_complexity(256, 7, 0.5, 1.0)
        assert sample_complexity(256, 7, 0.5, 2.0) > base
        assert sample_complexity(256, 8, 0.5, 1.0) > base

    def test_decreasing_in_xi(self):
        values = [sample_complexity(256, 7, xi, 1.0) for xi in (0.1, 0.3, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_complexity(256, 7, 0.0, 1.0)
        with pytest.raises(ValueError):
            sample_complexity(256, 7, 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_complexity(256, 7, 0.5, 0.0)
        with pytest.raises(ValueError):
            sample_complexity(256, 0, 0.5, 1.0)


class TestRipProbe:
    def test_unitary_sensing_matrix(self):
        cfg = ArrayConfig(100e9, 64)
        dmu = build_dmu(cfg, 10.0)
        report = empirical_rip_probe(dmu.matrix, 8, k=2, trials=50, seed=0)
        assert report.xi_hat < 1e-10
        assert report.violation_rate == 0.0

    def test_gaussian_concentration(self):
        rng = np.random.default_rng(1)
        psi = (rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))) * math.sqrt(
            1 / 64
        )
        report = empirical_rip_probe(psi, 8, k=2, trials=300, seed=2)
        assert report.violation_rate < 0.10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_a_non_finite_psi(self, bad):
        # an all-NaN psi used to give xi_hat nan and violation rate 0, and an
        # all-inf one a matmul warning
        psi = np.eye(4, dtype=complex)
        psi[2, 1] = bad
        for matrix in (psi, np.full((4, 4), bad, dtype=complex)):
            with pytest.raises(ValueError, match="^psi must be finite$"):
                empirical_rip_probe(matrix, 1, k=1, trials=5, seed=3)

    def test_rejects_an_all_zero_psi(self):
        # every deviation of a zero psi is 1: it used to report xi_hat = 1
        with pytest.raises(ValueError, match="^psi must not be all zero$"):
            empirical_rip_probe(np.zeros((4, 8), dtype=complex), 2, k=1, trials=3, seed=1)

    def test_a_psi_past_the_float_range_deviates_by_inf(self):
        # ||Psi c||^2 is about 1e400: read in range and scaled back, it
        # overflows to inf without a warning; the matmul of the raw psi warned
        report = empirical_rip_probe(np.full((4, 8), 1e200, dtype=complex), 2, 1, 3, seed=1)
        assert report == RipProbeReport(xi_hat=math.inf, violation_rate=1.0)

    def test_a_chirped_reader_probes_as_its_formed_matrix(self):
        cfg = ArrayConfig(100e9, 64)
        reader = build_dmu(cfg, 10.0).sensing_operator(gen_pilots(24, 64, seed=8))
        got = empirical_rip_probe(reader, 8, k=2, trials=40, seed=9)
        want = empirical_rip_probe(reader.read(slice(None)), 8, k=2, trials=40, seed=9)
        assert np.float64(got.xi_hat).tobytes() == np.float64(want.xi_hat).tobytes()
        assert got.violation_rate == want.violation_rate

    def test_rejects_zero_trials(self):
        psi = np.eye(16, dtype=complex)
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials"):
                empirical_rip_probe(psi, 4, k=1, trials=trials, seed=3)

    def test_rejects_bad_block_size(self):
        # the block size must be positive and divide the 16 columns
        psi = np.eye(16, dtype=complex)
        for block_size in (3, 0, -4):
            with pytest.raises(ValueError, match="block size"):
                empirical_rip_probe(psi, block_size, k=1, trials=10, seed=3)

    @pytest.mark.parametrize("k", [0, -1, 1.5])
    def test_rejects_a_k_below_one_or_not_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            empirical_rip_probe(np.eye(16, dtype=complex), 4, k=k, trials=10, seed=4)

    def test_rejects_oversized_k(self):
        psi = np.eye(16, dtype=complex)
        with pytest.raises(ValueError):
            empirical_rip_probe(psi, 4, k=5, trials=10, seed=4)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        psi = rng.standard_normal((20, 40)) + 0j
        a = empirical_rip_probe(psi, 4, k=2, trials=64, seed=99)
        b = empirical_rip_probe(psi, 4, k=2, trials=64, seed=99)
        assert a == b

    def test_deviation_shrinks_with_measurements(self):
        # median max-deviation over seeds drops when T doubles
        medians = {}
        for t in (32, 64):
            values = []
            for seed in range(10):
                rng = np.random.default_rng((6, t, seed))
                psi = (
                    rng.standard_normal((t, 64)) + 1j * rng.standard_normal((t, 64))
                ) * math.sqrt(1 / (2 * t))
                values.append(
                    empirical_rip_probe(psi, 8, k=2, trials=200, seed=(7, seed)).xi_hat
                )
            medians[t] = np.median(values)
        assert medians[64] < medians[32]

