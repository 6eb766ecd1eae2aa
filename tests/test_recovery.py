import dataclasses
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtri

import nfcs
from nfcs import dictionaries, harness
from nfcs import (
    ArrayConfig,
    BlockOMP,
    build_dft,
    build_dmu,
    build_polar_baseline,
    gen_pilots,
    ls_estimate,
    make_problem,
    nmse,
    noise_variance,
    sample_channel,
)
from nfcs.dictionaries import Dictionary, SensingProduct, as_sensing, mutual_coherence
from nfcs.geometry import source_range
from nfcs.harness import preset_config, run
from nfcs.recovery import (
    _COND_LIMIT,
    RIDGE_SCALE,
    _best_prefix,
    _BorderedFactor,
    _least_squares,
    _log_poisson_tail,
    _risk_estimate,
)


@pytest.fixture
def cfg():
    return ArrayConfig(carrier_freq=100e9, n_antennas=256)


@pytest.fixture
def dmu(cfg):
    return build_dmu(cfg, 20.0)


def random_block_sparse_problem(seed, t=80, m=256, s=4, k=2, snr_db=None):
    """Gaussian sensing matrix with an exactly block-sparse coefficient vector."""
    rng = np.random.default_rng(seed)
    psi = (rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))) * math.sqrt(
        1 / (2 * m)
    )
    blocks = rng.choice(m // s, size=k, replace=False)
    beta = np.zeros(m, dtype=np.complex128)
    for b in blocks:
        beta[b * s : (b + 1) * s] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    y = psi @ beta
    if snr_db is not None:
        sigma2 = float(np.linalg.norm(y) ** 2) / (t * 10 ** (snr_db / 10))
        y = y + math.sqrt(sigma2 / 2) * (rng.standard_normal(t) + 1j * rng.standard_normal(t))
    return psi, beta, y, np.sort(blocks)


class TestPilots:
    def test_rademacher_magnitudes(self):
        f = gen_pilots(50, 256, "rademacher", seed=1)
        np.testing.assert_array_equal(np.abs(f), 1 / 16.0)
        assert f.dtype == np.complex128

    def test_gaussian_variance(self):
        f = gen_pilots(4000, 256, "gaussian", seed=2)
        var = np.mean(np.abs(f) ** 2)
        assert var == pytest.approx(1 / 256, rel=0.05)

    def test_determinism(self):
        a = gen_pilots(10, 32, "gaussian", seed=3)
        b = gen_pilots(10, 32, "gaussian", seed=3)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(80, 256), (100, 256), (400, 2048), (3, 5), (7, 3), (1, 5)])
    def test_gaussian_bytes_match_the_complex_expression(self, shape):
        # the pilots are drawn in chunks of rows, whose count need not divide
        # T; they must equal scale * (a + 1j * b) of two full-size draws bit
        # for bit and leave the generator where those draws leave it
        rng = np.random.default_rng([5, *shape])
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = math.sqrt(1.0 / (2.0 * shape[1])) * (a + 1j * b)
        chunked = np.random.default_rng([5, *shape])
        pilots = gen_pilots(*shape, "gaussian", seed=chunked)
        assert pilots.tobytes() == expected.tobytes()
        assert chunked.standard_normal(3).tobytes() == rng.standard_normal(3).tobytes()

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            gen_pilots(10, 32, "bernoulli", seed=0)
        with pytest.raises(ValueError):
            gen_pilots(0, 32, "gaussian", seed=0)


class TestMakeProblem:
    def test_noiseless(self, cfg):
        spec = sample_channel(cfg, 3, seed=5)
        prob = make_problem(cfg, spec, 64, snr_db=math.inf, seed=6)
        # no noise is drawn: the observations are the product itself
        assert prob.observations.tobytes() == (prob.pilots @ prob.channel).tobytes()
        assert prob.noise_var == 0.0

    def test_sensing_matrix_is_product(self, cfg, dmu):
        spec = sample_channel(cfg, 3, seed=9)
        prob = make_problem(cfg, spec, 40, snr_db=10.0, seed=10)
        # the noise is drawn after the pilots from the same generator
        rng = np.random.default_rng(10)
        pilots = gen_pilots(40, cfg.n_antennas, "gaussian", rng)
        noise = math.sqrt(prob.noise_var / 2.0) * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        assert prob.pilots.tobytes() == pilots.tobytes()
        assert prob.observations.tobytes() == (prob.pilots @ prob.channel + noise).tobytes()
        # one draw serves every dictionary: each senses the same pilots
        for dictionary in (dmu, build_dft(cfg)):
            sensed = dictionary.sensing_operator(prob.pilots).read(slice(None))
            np.testing.assert_allclose(sensed, prob.pilots @ dictionary.matrix, atol=1e-12)

    def test_snr_convention(self, cfg):
        # per-measurement signal power E|h^H f_t|^2 is ||h||^2 / N for the
        # CN(0, 1/N) pilot model; verified by Monte Carlo, then the variance
        # formula follows
        spec = sample_channel(cfg, 3, seed=13)
        prob = make_problem(cfg, spec, 30, snr_db=5.0, seed=14)
        h = prob.channel
        f = gen_pilots(200_000, cfg.n_antennas, "gaussian", seed=15)
        power = np.mean(np.abs(f @ h) ** 2)
        assert power == pytest.approx(np.linalg.norm(h) ** 2 / cfg.n_antennas, rel=0.02)
        expected_var = np.linalg.norm(h) ** 2 / (cfg.n_antennas * 10 ** 0.5)
        assert prob.noise_var == pytest.approx(expected_var, rel=1e-12)
        assert noise_variance(h, cfg.n_antennas, 5.0) == prob.noise_var

    def test_noise_variance_noiseless_sentinels(self):
        h = np.ones(4)
        assert noise_variance(h, 4, None) == 0.0
        assert noise_variance(h, 4, math.inf) == 0.0
        for snr_db in (-math.inf, math.nan):
            with pytest.raises(ValueError, match="snr_db"):
                noise_variance(h, 4, snr_db)

    def test_noise_variance_rejects_decibels_beyond_300(self):
        h = np.ones(4)
        for snr_db in (1e300, -1e300, 300.5, -300.5):
            with pytest.raises(ValueError, match=r"snr_db must lie in \[-300, 300\] dB"):
                noise_variance(h, 4, snr_db)
        assert noise_variance(h, 4, 300.0) == 4.0 / (4 * 10.0**30)
        assert noise_variance(h, 4, -300.0) == 4.0 / (4 * 10.0**-30)


class TestBlockOMP:
    def test_single_block_noiseless(self):
        psi, beta, y, blocks = random_block_sparse_problem(seed=0, t=16, m=64, s=4, k=1)
        est = BlockOMP(block_size=4).fit(psi, y)
        assert np.linalg.norm(y - psi @ est.coef_) < 1e-9
        np.testing.assert_allclose(est.coef_, beta, atol=1e-8)

    def test_noiseless_recovery_rate(self):
        hits = 0
        trials = 120
        for seed in range(trials):
            psi, beta, y, _ = random_block_sparse_problem(seed=seed)
            est = BlockOMP(block_size=4).fit(psi, y)
            if np.linalg.norm(est.coef_ - beta) / np.linalg.norm(beta) < 1e-6:
                hits += 1
        assert hits / trials >= 0.95

    def test_k_max_zero(self):
        psi, beta, y, _ = random_block_sparse_problem(seed=3)
        est = BlockOMP(block_size=4, k_max=0).fit(psi, y)
        np.testing.assert_array_equal(est.coef_, 0)
        assert est.support_.size == 0
        assert est.residual_norm_ == pytest.approx(np.linalg.norm(y))

    def test_residual_path_non_increasing(self):
        psi, beta, y, _ = random_block_sparse_problem(seed=4, k=4, snr_db=10.0)
        est = BlockOMP(block_size=4, noise_var=0.0, stop_alpha=None, k_max=15).fit(psi, y)
        path = est.residual_path_
        assert np.all(np.diff(path) <= 1e-9 * path[0])

    def test_support_is_block_aligned_and_distinct(self):
        psi, beta, y, _ = random_block_sparse_problem(seed=5, k=3, snr_db=15.0)
        est = BlockOMP(block_size=4, noise_var=1e-4).fit(psi, y)
        assert est.support_.size % 4 == 0
        assert np.unique(est.support_).size == est.support_.size
        blocks = np.unique(est.support_ // 4)
        assert blocks.size == est.support_.size // 4
        # each block contributes its four indices, in ascending block order
        np.testing.assert_array_equal(
            est.support_, np.concatenate([np.arange(4 * b, 4 * b + 4) for b in blocks])
        )

    def test_never_selects_block_twice(self):
        psi, beta, y, _ = random_block_sparse_problem(seed=6, k=2)
        est = BlockOMP(block_size=4, stop_alpha=None, k_max=10).fit(psi, y)
        assert est.n_iter_ <= 10

    def test_scale_equivariance(self):
        psi, beta, y, _ = random_block_sparse_problem(seed=7, k=2, snr_db=8.0)
        scale = 3.5
        base = BlockOMP(block_size=4, noise_var=1e-3).fit(psi, y)
        scaled = BlockOMP(block_size=4, noise_var=1e-3 * scale**2).fit(psi, scale * y)
        np.testing.assert_allclose(scaled.coef_, scale * base.coef_, rtol=1e-9)
        np.testing.assert_array_equal(scaled.support_, base.support_)

    def test_rejects_bad_partition(self):
        # the block size must be positive and divide the 256 columns
        psi, beta, y, _ = random_block_sparse_problem(seed=8)
        for block_size in (5, 0):
            with pytest.raises(ValueError, match="block size"):
                BlockOMP(block_size=block_size).fit(psi, y)

    def test_rank_deficient_ls_is_stabilised(self):
        # the second block repeats the first, so no Gram of both is
        # invertible; the first block explains y and the fit stops there
        rng = np.random.default_rng(9)
        base = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        psi = np.concatenate([base, base], axis=1)
        y = base @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        est = BlockOMP(block_size=4, stop_alpha=None, k_max=2).fit(psi, y)
        assert np.all(np.isfinite(est.coef_))
        assert est.residual_norm_ < 1e-4 * np.linalg.norm(y)

    @pytest.mark.parametrize("factored", [False, True], ids=["formed", "factored"])
    def test_stops_once_every_block_is_selected(self, factored):
        # noiseless with T > M and y outside the span of the columns; the
        # factored default k_max (N // block_size = 4) exceeds the 3 blocks
        rng = np.random.default_rng(31)
        pilots = rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8))
        matrix = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        if factored:
            X = Dictionary(matrix).sensing_operator(pilots)
        else:
            X = pilots @ matrix
        est = BlockOMP(block_size=2).fit(X, y)
        assert est.n_iter_ == 3
        assert sorted(est.support_) == list(range(6))
        assert est.stop_reason_ == "exhausted"

    def test_stop_reason_budget(self):
        psi, beta, y, _ = random_block_sparse_problem(seed=3, k=2)
        est = BlockOMP(block_size=4, k_max=1).fit(psi, y)
        assert est.n_iter_ == 1
        assert est.stop_reason_ == "budget"

    def test_stop_reason_residual(self):
        # one block explains the noiseless y exactly, two more are allowed
        psi, beta, y, _ = random_block_sparse_problem(seed=0, t=16, m=64, s=4, k=1)
        est = BlockOMP(block_size=4, k_max=3).fit(psi, y)
        assert est.n_iter_ == 1
        assert est.stop_reason_ == "residual"

    def test_stop_reason_significance(self):
        # y is orthogonal to every column: the best block's statistic is at
        # rounding level, far below any threshold
        rng = np.random.default_rng(41)
        q, _ = np.linalg.qr(rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5)))
        est = BlockOMP(block_size=2, noise_var=0.01).fit(q[:, :4], q[:, 4])
        assert est.n_iter_ == 0
        assert est.stop_reason_ == "significance"

    @pytest.mark.parametrize(
        "setting, value, match",
        [
            ("noise_var", math.nan, "noise_var must be finite and >= 0"),
            ("noise_var", math.inf, "noise_var must be finite and >= 0"),
            ("noise_var", -1.0, "noise_var must be finite and >= 0"),
            ("delta", 0.0, r"delta must lie in \(0, 1\]"),
            ("delta", math.nan, r"delta must lie in \(0, 1\]"),
            ("delta", 1.5, r"delta must lie in \(0, 1\]"),
            ("k_max", 2.5, "k_max must be an integer >= 0"),
            ("k_max", -1, "k_max must be an integer >= 0"),
            ("k_max", True, "k_max must be an integer >= 0"),
            ("block_size", 2.0, "block_size must be an integer"),
            ("block_size", True, "block_size must be an integer"),
        ],
    )
    def test_rejects_a_bad_setting(self, setting, value, match):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
        y = X[:, 3] + 0.1 * rng.standard_normal(20)
        with pytest.raises(ValueError, match=match):
            BlockOMP(**{"noise_var": 1e-2, setting: value}).fit(X, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_a_non_finite_y(self, bad):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
        y = X[:, 3].copy()
        y[7] = bad
        with pytest.raises(ValueError, match="y must be finite"):
            BlockOMP(noise_var=1e-2).fit(X, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_a_non_finite_formed_x(self, bad):
        # a NaN or inf entry must not reach eigh, which raises LinAlgError
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
        y = X[:, 3].copy()
        X[5, 9] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            BlockOMP(noise_var=1e-2).fit(X, y)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0**-1070])
    def test_an_out_of_range_scale_fits_as_in_range(self, scale):
        # ||y||^2 or the column energies under- or overflow; the fit scales y
        # and X by powers of two and scales its outputs back
        X = scale * np.eye(4)
        est = BlockOMP().fit(X, X[:, 2])
        assert est.coef_[2] == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(est.coef_) == 1
        np.testing.assert_array_equal(est.residual_path_, [scale, 0.0])
        assert est.stop_reason_ == "residual"

    @pytest.mark.parametrize(
        "x_scale, y_scale, product",
        [
            pytest.param(1e-200, 1.0, False, id="1e-200-1.0"),
            pytest.param(1.0, 1e150, False, id="1.0-1e+150"),
            pytest.param(1e150, 1e-100, False, id="1e+150-1e-100"),
            # the pilots P of a polar P A, whose ||P||_F^2 over- or underflows
            pytest.param(2.0**665, 1.0, True, id="pilots-2^665"),
            pytest.param(2.0**-665, 1.0, True, id="pilots-2^-665"),
        ],
    )
    def test_a_noisy_out_of_range_fit_scales_back_exactly(self, x_scale, y_scale, product):
        # a power of two moves no rounded result: the fit on 2^k X (or on
        # 2^k P A) and 2^j y, with the noise variance in the units of y, is
        # the in-range fit with its coefficients scaled by 2^(j-k) and its
        # residuals by 2^j
        rng = np.random.default_rng(21)
        if product:
            polar = build_polar_baseline(ArrayConfig(carrier_freq=100e9, n_antennas=16), 2)
            pilots = gen_pilots(20, 16, seed=rng)
            X = pilots @ polar.matrix
        else:
            X = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
        y = X[:, 3] - 0.5 * X[:, 8] + 0.05 * rng.standard_normal(20)
        k, j = np.frexp(x_scale)[1], np.frexp(y_scale)[1]

        def ldexp(z, e):
            return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)

        def sensing(e):
            return polar.sensing_operator(ldexp(pilots, e)) if product else ldexp(X, e)

        base = BlockOMP(2, noise_var=2.5e-3).fit(sensing(0), y)
        scaled = BlockOMP(2, noise_var=float(np.ldexp(2.5e-3, 2 * j))).fit(sensing(k), ldexp(y, j))
        assert base.support_.size == 4
        np.testing.assert_array_equal(scaled.support_, base.support_)
        assert scaled.stop_reason_ == base.stop_reason_
        np.testing.assert_array_equal(ldexp(scaled.coef_, k - j), base.coef_)
        np.testing.assert_array_equal(np.ldexp(scaled.residual_path_, -j), base.residual_path_)

    @pytest.mark.parametrize("noise_var", [0.0, 1e-2])
    def test_rejects_an_all_zero_sensing_matrix(self, noise_var):
        # no column to pick: the fit used to divide 0 by 0 and return NaN
        # coefficients; a zero X is rejected by the fit, zero pilots by the product
        with pytest.raises(ValueError, match="^X must not be all zero$"):
            BlockOMP(noise_var=noise_var).fit(np.zeros((6, 4)), np.ones(6))
        polar = build_polar_baseline(ArrayConfig(carrier_freq=100e9, n_antennas=16), 2)
        with pytest.raises(ValueError, match="^pilots must not be all zero$"):
            polar.sensing_operator(np.zeros((6, 16)))

    @pytest.mark.parametrize("noise_var", [0.0, 1e-2])
    def test_never_picks_a_block_the_residual_does_not_reach(self, noise_var):
        # once the residual is e_5, every block left scores 0 and none can
        # lower it: the fit used to pick the zero column, 0/0 in the
        # significance statistic and a zero Gram in the refit
        X = np.eye(6)[:, :4]
        X[:, 0] = 0.0
        est = BlockOMP(noise_var=noise_var).fit(X, 10.0 * X[:, 2] + np.eye(6)[5])
        np.testing.assert_array_equal(est.support_, [2])
        assert est.n_iter_ == 1
        assert est.stop_reason_ == "exhausted"
        np.testing.assert_array_equal(est.coef_, [0.0, 0.0, 10.0, 0.0])

    @pytest.mark.parametrize("length", [0, 5, 7])
    def test_rejects_a_y_of_another_length(self, length):
        with pytest.raises(ValueError, match=f"^X has 6 rows but y has length {length}$"):
            BlockOMP().fit(np.eye(6)[:, :4], np.ones(length))

    @pytest.mark.parametrize("noise_var", [0.0, 1e-2])
    def test_a_zero_y_stops_at_once(self, noise_var):
        est = BlockOMP(noise_var=noise_var).fit(np.eye(6)[:, :4], np.zeros(6))
        assert est.stop_reason_ == "residual"
        assert est.n_iter_ == 0
        np.testing.assert_array_equal(est.coef_, np.zeros(4))

    @pytest.mark.parametrize("delta", [5e-324, 1e-320, 1e-310])
    def test_a_subnormal_delta_takes_the_rank_capped_budget(self, delta):
        # the worst-case nonzero count is inf, which math.ceil cannot round;
        # the budget is the rank cap
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
        est = BlockOMP(4, noise_var=1e-2, delta=delta)
        assert est._default_k_max(16, 16, 1e-2) == 16 // 4
        est.fit(X, X[:, 3])
        assert est.n_iter_ >= 1


class TestOmpEquivalence:
    def test_one_sparse_exact(self):
        rng = np.random.default_rng(22)
        psi = (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64))) / math.sqrt(60)
        beta = np.zeros(64, dtype=complex)
        beta[17] = 2.0 - 1.0j
        est = BlockOMP(block_size=1).fit(psi, psi @ beta)
        np.testing.assert_allclose(est.coef_, beta, atol=1e-10)
        assert list(est.support_) == [17]

    def test_support_bounded_by_k_max(self):
        psi, beta, y, _ = random_block_sparse_problem(seed=23, k=4, snr_db=5.0)
        est = BlockOMP(block_size=1, k_max=6, stop_alpha=None, noise_var=0.0).fit(psi, y)
        assert est.support_.size <= 6


def _reference_fit(est, X, y):
    """The solver arithmetic before the in-place rewrite, kept as an oracle.

    Column energies by ``norm``, correlations by ``X^H r`` and every refit by
    ``inv`` of the Gram of the columns in block order; the stopping rules and
    the risk are those of ``BlockOMP``. Like it, the reference stops before
    a block that takes the columns past min(T, M) or whose Gram G it cannot
    certify by 0 < tr(G) tr(G^-1) <= _COND_LIMIT / 2. Returns
    ``(coef, support, n_iter, residual_path)``.
    """
    t, m = X.shape
    s = est.block_size
    nb = m // s
    sigma2 = float(est.noise_var)
    k_max = est.k_max if est.k_max is not None else est._default_k_max(min(t, m), m, sigma2)
    tol = math.sqrt(t * sigma2)
    block_energy = (np.linalg.norm(X, axis=0) ** 2).reshape(nb, s).mean(axis=1)
    use_score_stop = est.stop_alpha is not None and sigma2 > 0
    if use_score_stop:
        score_threshold = chdtri(2 * s, min(est.stop_alpha / nb, 1.0))
    y_norm2 = float(np.linalg.norm(y) ** 2)
    resid = y.copy()
    selected = np.zeros(nb, dtype=bool)
    chosen = []
    residual_path = [math.sqrt(y_norm2)]
    mean_col_energy = float(block_energy.mean())
    best_risk = _risk_estimate(y_norm2, 0, t, sigma2, 0.0, mean_col_energy)
    best = (np.array([], dtype=int), np.zeros(0, dtype=np.complex128))
    idx = np.array([], dtype=int)
    coef = np.zeros(0, dtype=np.complex128)
    rho = y_norm2
    for _ in range(k_max):
        if rho <= max(tol * tol, 1e-30 * y_norm2):
            break
        scores = (np.abs(np.conj(X.T) @ resid) ** 2).reshape(nb, s).sum(axis=1)
        scores[selected] = -np.inf
        pick = int(np.argmax(scores))
        if use_score_stop and rho > 0:
            if 2.0 * t * scores[pick] / (rho * block_energy[pick]) < score_threshold:
                break
        candidate = np.concatenate([np.arange(b * s, (b + 1) * s) for b in sorted(chosen + [pick])])
        if candidate.size > min(t, m):
            break
        sub = X[:, candidate]
        gram = np.conj(sub.T) @ sub
        try:
            gram_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            break
        if not 0 < np.trace(gram).real * np.trace(gram_inv).real <= 0.5 * _COND_LIMIT:
            break
        selected[pick] = True
        chosen.append(pick)
        idx = candidate
        coef = gram_inv @ (np.conj(sub.T) @ y)
        resid = y - sub @ coef
        rho = float(np.linalg.norm(resid) ** 2)
        residual_path.append(math.sqrt(rho))
        risk = _risk_estimate(
            rho, idx.size, t, sigma2, float(np.trace(gram_inv).real), mean_col_energy
        )
        if risk < best_risk:
            best_risk = risk
            best = (idx.copy(), coef.copy())
    if sigma2 > 0:
        idx, coef = best
    beta = np.zeros(m, dtype=np.complex128)
    beta[idx] = coef
    return beta, idx, len(chosen), np.asarray(residual_path)


def _assert_matches_reference(est, X, y, rtol=1e-10):
    """Same greedy decisions as the reference; values within ``rtol`` of their scale."""
    coef, support, n_iter, residual_path = _reference_fit(est, X, y)
    np.testing.assert_array_equal(est.support_, support)
    assert est.n_iter_ == n_iter
    np.testing.assert_allclose(est.coef_, coef, rtol=0, atol=rtol * max(np.abs(coef).max(), 1.0))
    np.testing.assert_allclose(
        est.residual_path_, residual_path, rtol=0, atol=rtol * residual_path[0]
    )


def _graded_problem(seed, cond):
    """Three blocks of two orthonormal columns, one scaled so the Gram has condition ``cond``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6)))
    scale = np.ones(6)
    scale[1] = 1.0 / math.sqrt(cond)
    X = q * scale
    beta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    return X, beta, X @ beta


class TestAgainstReferenceFit:
    """The in-place solver takes the decisions of the former cond + inv solver."""

    @pytest.mark.parametrize("t", [48, 128], ids=["T<M", "T=M"])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0, None], ids=["0dB", "10dB", "30dB", "noiseless"])
    @pytest.mark.parametrize("block_size", [1, 4, 16])
    def test_battery(self, block_size, snr_db, t):
        seed = (block_size, t, 99 if snr_db is None else int(snr_db))
        psi, beta, y, _ = random_block_sparse_problem(
            seed, t=t, m=128, s=block_size, k=max(1, 16 // block_size), snr_db=snr_db
        )
        noise_var = 0.0
        if snr_db is not None:
            noise_var = float(np.linalg.norm(psi @ beta) ** 2) / (t * 10 ** (snr_db / 10))
        est = BlockOMP(block_size=block_size, noise_var=noise_var).fit(psi, y)
        _assert_matches_reference(est, psi, y)

    @pytest.mark.parametrize("factor", [0.9, 1.1], ids=["below", "above"])
    def test_condition_at_ridge_threshold(self, factor):
        # the full Gram's condition lies just below or above _COND_LIMIT.
        # The certificate tr(G) tr(G^-1) >= cond G is conservative: with the
        # weak block it is about 5 cond G, past half the limit either way,
        # so both fits stop before the weak block (block 0, the third pick)
        X, beta, y = _graded_problem(5, factor * _COND_LIMIT)
        est = BlockOMP(block_size=2, k_max=3, stop_alpha=None).fit(X, y)
        gram = np.conj(X.T) @ X
        assert (np.linalg.cond(gram) > _COND_LIMIT) == (factor > 1)
        _assert_matches_reference(est, X, y)
        assert est.stop_reason_ == "dependent"
        np.testing.assert_array_equal(est.support_, [2, 3, 4, 5])
        np.testing.assert_allclose(est.coef_[2:], beta[2:], rtol=1e-9)

    @pytest.mark.parametrize("k_max", [1, 2])
    def test_a_duplicated_column_is_dependent(self, k_max):
        # block 0 holds one column twice, so its Gram is singular: the fit
        # stops at the first pick and returns no coefficient
        rng = np.random.default_rng(9)
        base = rng.standard_normal((20, 7)) + 1j * rng.standard_normal((20, 7))
        X = np.concatenate([base[:, :3], base[:, :1], base[:, 3:]], axis=1)
        y = base[:, :3] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        est = BlockOMP(block_size=4, stop_alpha=None, k_max=k_max).fit(X, y)
        _assert_matches_reference(est, X, y)
        assert est.stop_reason_ == "dependent"
        assert est.n_iter_ == 0
        np.testing.assert_array_equal(est.coef_, np.zeros(8))
        assert est.residual_norm_ == pytest.approx(np.linalg.norm(y), rel=1e-15)

    def test_large_array_high_snr_recovers_the_blocks(self):
        # N = 2048, T = 400, block 16 at 60 dB: the true block support is found
        m, t, s = 2048, 400, 16
        psi, beta, y, blocks = random_block_sparse_problem(77, t=t, m=m, s=s, k=3, snr_db=60.0)
        noise_var = float(np.linalg.norm(psi @ beta) ** 2) / (t * 10**6)
        est = BlockOMP(block_size=s, noise_var=noise_var).fit(psi, y)
        np.testing.assert_array_equal(np.unique(est.support_ // s), blocks)
        _assert_matches_reference(est, psi, y)


def _noise_var(psi, beta, snr_db):
    return float(np.linalg.norm(psi @ beta) ** 2) / (psi.shape[0] * 10 ** (snr_db / 10))


class TestBorderedRefit:
    """The bordered Cholesky refit takes the decisions of the reference fit."""

    def test_a_long_path(self):
        # block 32 at T = 100 and 30 dB: three blocks take p to 96 of the 100 rows
        psi, beta, y, _ = random_block_sparse_problem(41, t=100, m=512, s=32, k=3, snr_db=30.0)
        est = BlockOMP(block_size=32, noise_var=_noise_var(psi, beta, 30.0)).fit(psi, y)
        assert est.n_iter_ * 32 >= 96
        assert est.stop_reason_ != "dependent"
        _assert_matches_reference(est, psi, y)

    @pytest.mark.parametrize("factor", [0.9, 1.1], ids=["below", "above"])
    @pytest.mark.parametrize("seed, first", [(5, 3), (3, 2)], ids=["weak-last", "weak-second"])
    def test_stops_at_the_block_that_breaks_the_certificate(self, seed, first, factor):
        # block 0 holds the weak column, which gives the Gram a condition of
        # factor * _COND_LIMIT: tr(G) tr(G^-1) passes half the limit when the
        # block is picked (the third pick, or the second), and the fit stops
        # there with the blocks picked before it
        X, beta, y = _graded_problem(seed, factor * _COND_LIMIT)
        est = BlockOMP(block_size=2, k_max=3, stop_alpha=None).fit(X, y)
        assert est.stop_reason_ == "dependent"
        assert est.n_iter_ == first - 1
        assert 0 not in est.support_ // 2
        _assert_matches_reference(est, X, y)

    def test_a_well_conditioned_noisy_fit_is_never_dependent(self):
        psi, beta, y, _ = random_block_sparse_problem(43, t=80, m=256, s=4, k=4, snr_db=10.0)
        est = BlockOMP(block_size=4, noise_var=_noise_var(psi, beta, 10.0)).fit(psi, y)
        assert est.n_iter_ >= 4
        assert est.stop_reason_ != "dependent"
        _assert_matches_reference(est, psi, y)

    @pytest.mark.parametrize("factored", [False, True], ids=["formed", "factored"])
    @pytest.mark.parametrize("block_size", [1, 2, 16])
    @pytest.mark.parametrize("n", [64, 256])
    def test_an_identified_noiseless_fit_stops_at_the_rounding_floor(self, n, block_size, factored):
        # y = P A beta exactly, with k blocks of the coherent polar dictionary
        # and T = 0.3 N; a fit held to k blocks that finds them must bring the
        # residual to 1e-15 ||y||, the residual stop. The last refinement on
        # the least-squares residual does (an eigh refit left up to 1.8e-14
        # on a single block of 16 at N = 64)
        polar = build_polar_baseline(ArrayConfig(carrier_freq=100e9, n_antennas=n))
        s, t = block_size, int(0.3 * n)
        k = max(1, t // (8 * s))
        identified = 0
        for seed in range(10):
            rng = np.random.default_rng((n, s, seed))
            pilots = gen_pilots(t, n, "gaussian", rng)
            blocks = np.sort(rng.choice(polar.n_atoms // s, size=k, replace=False))
            beta = np.zeros(polar.n_atoms, dtype=np.complex128)
            values = rng.standard_normal(k * s) + 1j * rng.standard_normal(k * s)
            beta[(blocks[:, None] * s + np.arange(s)).ravel()] = values
            y = pilots @ (polar.matrix @ beta)
            X = polar.sensing_operator(pilots) if factored else pilots @ polar.matrix
            est = BlockOMP(block_size=s, k_max=k).fit(X, y)
            if np.array_equal(np.unique(est.support_ // s), blocks):
                identified += 1
                assert est.stop_reason_ == "residual"
                assert est.residual_norm_ <= 1e-15 * np.linalg.norm(y)
        assert identified >= 3


class TestBorderedFactor:
    def test_traces_match_the_gram_after_every_block(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((30, 12)) + 1j * rng.standard_normal((30, 12))
        factor = _BorderedFactor(30, 12)
        start = 0
        for width in (3, 1, 4, 2, 2):
            block = X[:, start : start + width]
            assert factor.add(block, np.vdot(block, block).real)
            start += width
            gram = np.conj(X[:, :start].T) @ X[:, :start]
            assert factor.size == start
            assert factor.gram_trace == pytest.approx(np.trace(gram).real, rel=1e-12)
            assert factor.inv_trace == pytest.approx(np.trace(np.linalg.inv(gram)).real, rel=1e-12)

    @pytest.mark.parametrize(
        "repeat", [(0, 1, 0), (1, 6, 3)], ids=["within-the-block", "of-an-earlier-column"]
    )
    def test_refuses_a_block_with_a_duplicated_column(self, repeat):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))
        factor = _BorderedFactor(30, 8)
        first = X[:, 5:8]
        assert factor.add(first, np.vdot(first, first).real)
        traces = factor.gram_trace, factor.inv_trace
        block = X[:, list(repeat)]
        assert not factor.add(block, np.vdot(block, block).real)
        assert factor.size == 3 and (factor.gram_trace, factor.inv_trace) == traces
        coef, resid = factor.refit(X[:, 6])
        np.testing.assert_allclose(coef, [0, 1, 0], atol=1e-12)

    def test_refuses_a_block_past_the_cap(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
        factor = _BorderedFactor(30, 4)
        assert factor.add(X[:, :3], np.vdot(X[:, :3], X[:, :3]).real)
        assert not factor.add(X[:, 3:], np.vdot(X[:, 3:], X[:, 3:]).real)
        assert factor.size == 3


def _polar_problem(n, t, block_size, snr_db, seed):
    """Polar dictionary, pilots and y = P A beta + noise with three nonzero blocks."""
    cfg = ArrayConfig(carrier_freq=100e9, n_antennas=n)
    polar = build_polar_baseline(cfg)
    rng = np.random.default_rng(seed)
    pilots = gen_pilots(t, n, "gaussian", rng)
    beta = np.zeros(polar.n_atoms, dtype=np.complex128)
    for b in rng.choice(polar.n_atoms // block_size, size=3, replace=False):
        values = rng.standard_normal(block_size) + 1j * rng.standard_normal(block_size)
        beta[b * block_size : (b + 1) * block_size] = values
    clean = pilots @ (polar.matrix @ beta)
    noise_var = 0.0
    if snr_db is not None:
        noise_var = float(np.linalg.norm(clean) ** 2) / (t * 10 ** (snr_db / 10))
    noise = math.sqrt(noise_var / 2) * (rng.standard_normal(t) + 1j * rng.standard_normal(t))
    return polar, pilots, clean + noise, noise_var


class TestFactoredFit:
    """Fitting P A on its factors takes the decisions of fitting the formed product."""

    @pytest.mark.parametrize("t_over_n", [0.3, 1.25], ids=["T<N", "T>N"])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0, None], ids=["0dB", "10dB", "30dB", "noiseless"])
    @pytest.mark.parametrize("block_size", [1, 2])
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_the_formed_fit(self, n, block_size, snr_db, t_over_n):
        t = int(t_over_n * n)
        seed = (n, block_size, t, 99 if snr_db is None else int(snr_db))
        polar, pilots, y, noise_var = _polar_problem(n, t, block_size, snr_db, seed)
        operator = polar.sensing_operator(pilots)
        assert isinstance(operator, SensingProduct)
        est = BlockOMP(block_size=block_size, noise_var=noise_var)
        factored = est.fit(operator, y)
        # the formed product does not show that its rank is at most N, so it
        # gets the factored fit's default budget, min(T, N) // s blocks
        k_max = est._default_k_max(min(t, n), polar.n_atoms, noise_var)
        formed = BlockOMP(block_size=block_size, noise_var=noise_var, k_max=k_max).fit(
            pilots @ polar.matrix, y
        )
        np.testing.assert_array_equal(factored.support_, formed.support_)
        assert factored.n_iter_ == formed.n_iter_
        # a noiseless fit that misses the support runs on to that budget or
        # to its first dependent block; N columns of the rank-N product can
        # have an ill-conditioned Gram (condition 6e8 at
        # [64-2-noiseless-T>N]), where the two solves agree only to 1.9e-9
        # of the scale
        rtol = 1e-10 if formed.support_.size < n else 1e-4
        scale = max(np.abs(formed.coef_).max(), 1.0)
        np.testing.assert_allclose(factored.coef_, formed.coef_, rtol=0, atol=rtol * scale)
        np.testing.assert_allclose(
            factored.residual_path_, formed.residual_path_, rtol=0, atol=1e-10 * formed.residual_path_[0]
        )

    @pytest.mark.parametrize("noise_var", [0.0, 1e-3], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_a_dense_dictionary_out_of_range_fits_as_its_formed_product(self, scale, noise_var):
        # the product of a dictionary whose sum of squares leaves the float
        # range reads a copy scaled into range; read as given, it stopped
        # "exhausted" on an empty support at 1e-200, and at 1e200 overflowed:
        # its noiseless fit ran to its budget, its noisy one could not bracket E
        # a draw whose formed fit finds the support, noisy or not
        rng = np.random.default_rng(30)
        n, m, t = 16, 48, 12
        atoms = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2 * n)
        dictionary = Dictionary(atoms * scale)
        pilots = gen_pilots(t, n, seed=rng)
        beta = np.zeros(m, dtype=np.complex128)
        beta[[5, 30]] = [1 + 1j, -0.5 + 2j]
        noise = rng.standard_normal(t) + 1j * rng.standard_normal(t)
        y = pilots @ (atoms @ beta) + math.sqrt(noise_var / 2) * noise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            product = BlockOMP(noise_var=noise_var).fit(dictionary.sensing_operator(pilots), y)
        formed = BlockOMP(noise_var=noise_var).fit(pilots @ dictionary.matrix, y)
        np.testing.assert_array_equal(formed.support_, [5, 30])
        np.testing.assert_array_equal(product.support_, formed.support_)
        assert product.stop_reason_ == formed.stop_reason_
        np.testing.assert_allclose(product.coef_, formed.coef_, rtol=0, atol=1e-9 * np.abs(formed.coef_).max())
        np.testing.assert_allclose(product.coef_ * scale, beta, rtol=0, atol=0.2)

    @pytest.mark.parametrize("factored", [False, True], ids=["formed", "factored"])
    def test_a_noiseless_miss_stops_at_the_first_dependent_block(self, factored):
        # the [256-2-noiseless-T>N] draw misses the support; it used to run on
        # to its budget of 128 blocks, ridging every Gram from the 74th on
        n, t, s = 256, 320, 2
        polar, pilots, y, _ = _polar_problem(n, t, s, None, (n, s, t, 99))
        k_max = BlockOMP(block_size=s)._default_k_max(min(t, n), polar.n_atoms, 0.0)
        X = polar.sensing_operator(pilots) if factored else pilots @ polar.matrix
        est = BlockOMP(block_size=s, k_max=k_max).fit(X, y)
        assert est.stop_reason_ == "dependent"
        assert est.n_iter_ == 73 < k_max
        assert est.support_.size == 2 * 73

    def test_noiseless_budget_stops_at_the_rank_of_the_pilots(self):
        # the [64-1-noiseless-T>N] draw misses the support; it used to run on
        # to T // s = 80 columns of a rank-64 operator, into ridged Grams
        n, t = 64, 80
        polar, pilots, y, _ = _polar_problem(n, t, 1, None, (n, 1, t, 99))
        est = BlockOMP(block_size=1).fit(polar.sensing_operator(pilots), y)
        assert est.n_iter_ == n
        assert est.support_.size <= n

    @pytest.mark.parametrize("block_size", [1, 3])
    def test_reads_what_the_formed_matrix_holds(self, block_size):
        # correlations, column energies and sub-matrices of P A from its
        # factors, and of a formed X through the same reader
        rng = np.random.default_rng(17)
        pilots = rng.standard_normal((10, 7)) + 1j * rng.standard_normal((10, 7))
        matrix = rng.standard_normal((7, 12)) + 1j * rng.standard_normal((7, 12))
        X = pilots @ matrix
        s = block_size
        formed = as_sensing(X, "X")
        factored = Dictionary(matrix).sensing_operator(pilots)
        # in range, neither reader scales what it holds
        assert factored.shift == formed.shift == 0
        assert factored.pilots is pilots and formed.pilots is None
        assert factored.shape == formed.shape == (10, 12)
        assert factored.rank_bound == 7 and formed.rank_bound == 10
        r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        np.testing.assert_allclose(factored.correlate(r), formed.correlate(r), rtol=1e-12)
        assert factored.mean_col_energy == pytest.approx(formed.mean_col_energy, rel=1e-12)
        assert formed.energy_bracket() == (formed.mean_col_energy,) * 2
        for b in range(12 // s):
            block = np.arange(b * s, (b + 1) * s)
            energy = np.linalg.norm(X[:, block], axis=0) ** 2
            for psi in (factored, formed):
                assert np.linalg.norm(psi.read(block), axis=0) ** 2 == pytest.approx(energy, rel=1e-12)
        # any index set: unsorted, repeated and across block edges
        idx = np.array([7, 1, 7, 11, 2, 4, 1])
        for psi in (factored, formed):
            np.testing.assert_allclose(psi.read(idx), pilots @ matrix[:, idx], rtol=1e-12)
        # a block read: a view of a formed X for a slice, and P A[:, cols]
        # formed in the leading entries of a flat buffer
        cols = slice(s, 4 * s)
        assert np.shares_memory(formed.read(cols), X)
        buffer = np.empty(10 * 12, dtype=complex)
        for psi in (factored, formed):
            for out in (None, buffer):
                np.testing.assert_allclose(psi.read(cols, out), X[:, cols], rtol=1e-12)
                np.testing.assert_allclose(psi.read(idx, out), X[:, idx], rtol=1e-12)
        assert np.shares_memory(factored.read(cols, buffer), buffer)

    def test_a_draw_serves_fits_at_several_block_sizes(self):
        # fits at block size 1, then 2, then 1 again on one product equal
        # fits on fresh products
        polar, pilots, y, noise_var = _polar_problem(64, 40, 2, 10.0, (64, 2, 40, 10))
        shared = polar.sensing_operator(pilots)
        for s in (1, 2, 1):
            est = BlockOMP(block_size=s, noise_var=noise_var)
            reused = est.fit(shared, y)
            fresh = BlockOMP(block_size=s, noise_var=noise_var).fit(polar.sensing_operator(pilots), y)
            assert reused.coef_.tobytes() == fresh.coef_.tobytes()
            np.testing.assert_array_equal(reused.support_, fresh.support_)
            assert reused.residual_path_.tobytes() == fresh.residual_path_.tobytes()
            assert reused.support_.size > 1

    def test_a_product_holds_no_state_of_its_reads(self):
        # a noisy fit and a mutual-coherence pass leave the product as it
        # was built, so two fits in two threads on one product equal fits
        # on fresh products byte for byte
        polar, pilots, y, noise_var = _polar_problem(64, 40, 1, 10.0, (64, 1, 40, 10))
        shared = polar.sensing_operator(pilots)
        # the same objects, and a copy of the entries of any dict it holds
        built = {name: dict(held) if isinstance(held, dict) else held for name, held in vars(shared).items()}
        BlockOMP(noise_var=noise_var).fit(shared, y)
        mutual_coherence(shared)
        assert vars(shared) == built

        others = [y, 2 * y[::-1]]
        fresh = [BlockOMP(noise_var=noise_var).fit(polar.sensing_operator(pilots), obs) for obs in others]
        threaded = [None, None]
        barrier = threading.Barrier(2)

        def fit(k):
            barrier.wait()
            threaded[k] = BlockOMP(noise_var=noise_var).fit(shared, others[k])

        workers = [threading.Thread(target=fit, args=(k,)) for k in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        for got, want in zip(threaded, fresh):
            assert got.coef_.tobytes() == want.coef_.tobytes()
            np.testing.assert_array_equal(got.support_, want.support_)
            assert got.residual_path_.tobytes() == want.residual_path_.tobytes()

    def test_chirped_dictionaries_form_their_sensing_matrix(self, cfg, dmu):
        pilots = gen_pilots(20, cfg.n_antennas, seed=3)
        sensed = dmu.sensing_operator(pilots)
        # the same reader as a dense dictionary's, over the formed X
        assert isinstance(sensed, SensingProduct) and sensed.pilots is None
        np.testing.assert_allclose(sensed.read(slice(None)), pilots @ dmu.matrix, rtol=0, atol=1e-12)

    def test_a_chirped_reader_is_scanned_once_for_every_block_size(self, cfg, dmu, monkeypatch):
        # the reader checks and scales X when it is built; a block-size sweep
        # used to scan the draw's T x N matrix again in every fit
        prob = make_problem(cfg, sample_channel(cfg, 3, seed=21), 40, snr_db=10.0, seed=22)
        scans = []
        scale = dictionaries.scale_into_range

        def spy(arr, name):
            scans.append((arr.shape, name))
            return scale(arr, name)

        monkeypatch.setattr(dictionaries, "scale_into_range", spy)
        reader = dmu.sensing_operator(prob.pilots)
        fits = [BlockOMP(s, noise_var=prob.noise_var).fit(reader, prob.observations) for s in (4, 8, 32)]
        assert scans == [((40, cfg.n_antennas), "pilots")]
        assert all(est.support_.size for est in fits)


class _Path:
    """A stand-in for the operator ``_best_prefix`` reads: a bracket, and an
    exact mean column energy whose reads are counted."""

    def __init__(self, bracket, energy):
        self._bracket = bracket
        self._energy = energy
        self.reads = 0

    def energy_bracket(self):
        return self._bracket

    @property
    def mean_col_energy(self):
        self.reads += 1
        return self._energy


def _exact_choice(path, t, sigma2, energy):
    risks = [_risk_estimate(rho, p, t, sigma2, trace, energy) for rho, p, trace in path]
    return risks.index(min(risks))


class TestPrefixBracket:
    """The prefix chosen from the energy bracket is the one the exact energy picks."""

    @pytest.mark.parametrize("t_over_n", [0.3, 1.25], ids=["T<N", "T>N"])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0], ids=["0dB", "10dB", "30dB"])
    @pytest.mark.parametrize("block_size", [1, 2])
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_the_exact_energy_choice(self, n, block_size, snr_db, t_over_n, monkeypatch):
        t = int(t_over_n * n)
        seed = (n, block_size, t, int(snr_db))
        polar, pilots, y, noise_var = _polar_problem(n, t, block_size, snr_db, seed)
        operator = polar.sensing_operator(pilots)
        bracketed = BlockOMP(block_size=block_size, noise_var=noise_var).fit(operator, y)
        # a bracket of zero width at the exact energy: the choice reads E
        monkeypatch.setattr(SensingProduct, "energy_bracket", lambda self: (self.mean_col_energy,) * 2)
        exact = BlockOMP(block_size=block_size, noise_var=noise_var).fit(operator, y)
        assert bracketed.coef_.tobytes() == exact.coef_.tobytes()
        np.testing.assert_array_equal(bracketed.support_, exact.support_)
        assert bracketed.residual_norm_ == exact.residual_norm_

    @pytest.mark.parametrize("energy", [1.5, 1.8])
    def test_crossing_inside_the_bracket_reads_the_exact_energy(self, energy):
        # risks at T = 10, sigma^2 = 1: the empty prefix's is 10 / E, the
        # one-column prefix's (a residual at the noise level) is tr G^-1 = 6;
        # the two lines cross at E = 10 / 6, inside the bracket [1, 2]
        path = [(20.0, 0, 0.0), (9.0, 1, 6.0)]
        psi = _Path((1.0, 2.0), energy)
        best = _best_prefix(path, 10, 1.0, psi)
        assert psi.reads == 1
        assert best == _exact_choice(path, 10, 1.0, energy) == (1 if energy < 10 / 6 else 0)

    def test_a_lead_at_both_ends_decides_without_the_energy(self):
        # the empty prefix's risk is 20 / E: the one-column prefix leads it
        # and the two-column one (7.5) at E = 1 and at E = 2, so at every E
        # in between
        path = [(30.0, 0, 0.0), (9.0, 1, 6.0), (8.0, 2, 7.5)]
        psi = _Path((1.0, 2.0), 1.5)
        assert _best_prefix(path, 10, 1.0, psi) == 1 == _exact_choice(path, 10, 1.0, 1.5)
        assert psi.reads == 0

    def test_a_tie_takes_the_first_prefix(self):
        # equal risks at every E: the first strict minimum, as without the bracket
        path = [(1.0, 0, 2.0), (0.5, 1, 2.0)]
        psi = _Path((1.0, 2.0), 1.5)
        assert _best_prefix(path, 10, 1.0, psi) == 0
        assert psi.reads == 1

    @pytest.mark.parametrize("shape", [(80, 256, 6), (40, 8, 2), (10, 7, 12)])
    def test_the_bracket_holds_the_computed_energy(self, shape):
        # polar at N = 256; an N x M matrix of rank M < N (lambda_min = 0);
        # a random 7 x 12 matrix
        t, n, rings = shape
        rng = np.random.default_rng(list(shape))
        if n == 256:
            dictionary = build_polar_baseline(ArrayConfig(carrier_freq=100e9, n_antennas=n), rings)
        else:
            dictionary = Dictionary(rng.standard_normal((n, rings)) + 1j * rng.standard_normal((n, rings)))
        for _ in range(20):
            pilots = rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
            psi = dictionary.sensing_operator(pilots)
            lo, hi = psi.energy_bracket()
            assert 0.0 <= lo <= psi.mean_col_energy <= hi

    def test_polar_build_leaves_the_row_gram_unbuilt(self):
        # neither the build, nor sensing a draw, nor a noiseless fit computes
        # the eigenvalue range of the row Gram; the first noisy fit reads it
        # for its bracket, and the Gram itself is not kept
        polar, pilots, y, noise_var = _polar_problem(64, 20, 1, 10.0, (64, 1, 20, 10))
        assert polar._row_gram_range is None
        operator = polar.sensing_operator(pilots)
        BlockOMP().fit(operator, y)
        assert polar._row_gram_range is None
        BlockOMP(noise_var=noise_var).fit(operator, y)
        eigs = np.linalg.eigvalsh(polar.matrix @ np.conj(polar.matrix.T))
        assert polar._row_gram_range == (eigs[0], eigs[-1])
        assert not [name for name, value in vars(polar).items() if np.shape(value) == (64, 64)]

    def test_desk_snr_sweep_rarely_computes_the_trace(self, monkeypatch):
        # the nmse_vs_snr desk grid for polar_omp alone (N = 256, T = 80,
        # 0/5/10 dB, 200 trials): the bracket decides all but a few of the
        # 600 noisy fits, and each undecided one computes the trace once
        counts = {"fits": 0, "traces": 0}
        fit, energy = BlockOMP.fit, SensingProduct.mean_col_energy.fget

        def counted_fit(self, X, y):
            counts["fits"] += isinstance(X, SensingProduct)
            return fit(self, X, y)

        def counted_energy(self):
            counts["traces"] += 1
            return energy(self)

        monkeypatch.setattr(BlockOMP, "fit", counted_fit)
        monkeypatch.setattr(SensingProduct, "mean_col_energy", property(counted_energy))
        config = preset_config("nmse_vs_snr", "desk", 1)
        # one worker: the counters are not updated under a lock
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        list(run(dataclasses.replace(config, methods=("polar_omp",))))
        assert counts["fits"] == 600
        assert counts["traces"] <= 0.01 * counts["fits"]


class TestRecoveryOnChannel:
    def test_block_omp_result_fields(self, cfg, dmu):
        spec = sample_channel(cfg, 3, seed=30)
        prob = make_problem(cfg, spec, 80, snr_db=10.0, seed=31)
        est = BlockOMP(block_size=4, noise_var=prob.noise_var)
        est.fit(dmu.sensing_operator(prob.pilots), prob.observations)
        assert est.n_iter_ >= 1
        assert est.support_.size % 4 == 0
        assert est.residual_norm_ < np.linalg.norm(prob.observations)
        h_hat = dmu.inverse_transform(est.coef_)
        assert nmse(prob.channel, h_hat) < 0.5

    def test_noiseless_identified_channel(self, cfg, dmu):
        # with T = N and noiseless observations the solver should drive the
        # NMSE to numerical zero
        spec = sample_channel(cfg, 1, seed=32)
        prob = make_problem(cfg, spec, cfg.n_antennas, snr_db=math.inf, seed=33)
        est = BlockOMP(block_size=4, noise_var=prob.noise_var)
        est.fit(dmu.sensing_operator(prob.pilots), prob.observations)
        assert nmse(prob.channel, dmu.inverse_transform(est.coef_)) < 1e-10


    def test_a_formed_x_fits_alike_in_any_memory_layout(self):
        # a picked block of a formed X is read as a view of it: C- or
        # Fortran-ordered, or strided, X gives the same coefficients, bit for
        # bit, over draws of the nmse_vs_snr desk grid at 5 dB
        config = preset_config("nmse_vs_snr", "desk", seed=1)
        cfg = config.array_config()
        dist_range = source_range(cfg, config.distance_min, config.distance_max)
        dmu = build_dmu(cfg, config.mu)
        for trial in range(20):
            draw = harness._draw(config, cfg, dist_range, (config.n_measurements, 5.0, None), trial)
            X = np.ascontiguousarray(dmu.sensing_operator(draw.pilots).read(slice(None)))
            wide = np.zeros((X.shape[0], 2 * X.shape[1]), dtype=X.dtype)
            wide[:, ::2] = X
            fits = [
                BlockOMP(config.block_size, noise_var=draw.noise_var).fit(layout, draw.observations).coef_
                for layout in (X, np.asfortranarray(X), wide[:, ::2])
            ]
            assert np.count_nonzero(fits[0])
            assert fits[0].tobytes() == fits[1].tobytes() == fits[2].tobytes()


class TestLeastSquares:
    @pytest.mark.parametrize("duplicate", [False, True], ids=["full-rank", "ridged"])
    def test_kernel_matches_the_solve(self, duplicate):
        # a repeated column makes the Gram singular, and the kernel solves
        # with the ridged Gram; np.linalg.solve of that Gram (condition 2e10)
        # is itself accurate only to about eps * cond, 4e-6 relative
        rng = np.random.default_rng(12)
        sub = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
        if duplicate:
            sub[:, 5] = sub[:, 0]
        y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        gram = np.conj(sub.T) @ sub
        if duplicate:
            gram = gram + RIDGE_SCALE * np.trace(gram).real / 6 * np.eye(6)
        expected = np.linalg.solve(gram, np.conj(sub.T) @ y)
        atol = (1e-6 if duplicate else 1e-12) * np.abs(expected).max()
        np.testing.assert_allclose(_least_squares(sub, y), expected, rtol=0, atol=atol)

    def test_noiseless_square(self, cfg):
        spec = sample_channel(cfg, 3, seed=40)
        prob = make_problem(cfg, spec, cfg.n_antennas, snr_db=math.inf, seed=41)
        h_hat = ls_estimate(prob)
        np.testing.assert_allclose(h_hat, prob.channel, atol=1e-8)

    def test_noiseless_overdetermined(self, cfg):
        spec = sample_channel(cfg, 3, seed=42)
        prob = make_problem(cfg, spec, 2 * cfg.n_antennas, snr_db=math.inf, seed=43)
        assert nmse(prob.channel, ls_estimate(prob)) < 1e-16

    def test_rejects_underdetermined(self, cfg):
        spec = sample_channel(cfg, 3, seed=44)
        prob = make_problem(cfg, spec, 128, snr_db=10.0, seed=45)
        with pytest.raises(ValueError):
            ls_estimate(prob)

    def test_nmse_improves_with_measurements(self, cfg):
        scores = {}
        for t in (256, 512):
            values = []
            for trial in range(30):
                spec = sample_channel(cfg, 3, seed=(46, trial))
                prob = make_problem(cfg, spec, t, snr_db=10.0, seed=(47, t, trial))
                values.append(nmse(prob.channel, ls_estimate(prob)))
            scores[t] = np.mean(values)
        assert scores[512] < scores[256]


class TestNmse:
    def test_values(self):
        h = np.array([1.0 + 0j, 2.0, -1.0])
        assert nmse(h, h) == 0.0
        assert nmse(h, np.zeros(3, dtype=complex)) == pytest.approx(1.0)
        assert nmse(h, 2 * h) == pytest.approx(1.0)

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            nmse(np.zeros(4, dtype=complex), np.ones(4, dtype=complex))

    @pytest.mark.parametrize("estimate_length", [1, 3])
    def test_rejects_an_estimate_of_another_length(self, estimate_length):
        # a length-1 estimate would broadcast and read 0; length 3 would
        # fail inside NumPy
        with pytest.raises(ValueError, match=f"h has length 4 but h_hat has length {estimate_length}"):
            nmse(np.ones(4), np.ones(estimate_length))


def _quantile_reference(s: int, alpha: float, n_blocks: int):
    """The u solving Q(u) = alpha / n_blocks for the Poisson tail Q of
    ``_log_poisson_tail``, to 60 digits with mpmath's regularised upper gamma."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        log_level = mpmath.log(mpmath.mpf(alpha) / n_blocks)
        return mpmath.findroot(
            lambda v: mpmath.log(mpmath.gammainc(s, v, mpmath.inf, regularized=True)) - log_level,
            mpmath.mpf(chdtri(2 * s, alpha / n_blocks)) / 2,
            tol=mpmath.mpf(10) ** -50,
        )


def _stop_levels():
    """(block size, alpha, n_blocks) of the significance stop: block sizes
    1..64, n_blocks = M / s for M in 64..8192 and alpha from 1e-3 to 1, plus
    a level of 1e-300."""
    levels = set()
    for s in (1, 2, 4, 8, 16, 32, 64):
        levels.add((s, 1e-300, 1))
        for m in (64, 128, 256, 512, 1024, 2048, 4096, 8192):
            for alpha in (1e-3, 0.01, 0.05, 0.1, 0.5, 1.0):
                levels.add((s, alpha, m // s))
    return sorted(levels)


class TestSignificanceStop:
    def test_forward_rule_matches_the_exact_decision(self):
        # the fit stops while Q(u) > alpha / n_blocks, which holds exactly for
        # u below the quantile; every u 4 to 40 ulp either side of it must be
        # judged so (only a u within 2 ulp of the quantile is misjudged)
        for s, alpha, n_blocks in [*_stop_levels(), (2048, 1e-3, 1)]:
            if alpha >= n_blocks:
                continue  # the fit skips the test
            log_level = math.log(alpha) - math.log(n_blocks)
            nearest = float(_quantile_reference(s, alpha, n_blocks))
            for toward, stops in ((0.0, True), (math.inf, False)):
                u = nearest
                for k in range(1, 41):
                    u = math.nextafter(u, toward)
                    if k >= 4:
                        assert (_log_poisson_tail(s, u) > log_level) == stops, (s, alpha, n_blocks, k)

    @pytest.mark.parametrize("s, u", [(2048, 8388608.0), (16, 6400.0)])
    def test_tail_past_the_exponent_range(self, s, u):
        # Cauchy-Schwarz bounds u by T s (here T = 4096 and T = 400), so a
        # strong block takes the sum past u = 700, where it starts from
        # exp(-700), and at s = 2048 through its 2^-960 rescaling
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            exact = float(mpmath.log(mpmath.gammainc(s, u, mpmath.inf, regularized=True)))
        got = _log_poisson_tail(s, u)
        assert math.isfinite(got)
        assert got == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("alpha, n_iter", [(1.0, 1), (0.999, 0)])
    def test_a_level_of_one_never_stops(self, alpha, n_iter):
        # one block (block_size = M) and y orthogonal to its columns: the
        # statistic is at rounding level, so every level below 1 stops the
        # fit before its first pick, while alpha / n_blocks = 1 never does
        rng = np.random.default_rng(41)
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        est = BlockOMP(block_size=3, stop_alpha=alpha, noise_var=0.01).fit(q[:, :3], q[:, 3])
        assert est.n_iter_ == n_iter

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, math.nan])
    def test_rejects_a_level_outside_0_1(self, alpha):
        psi, beta, y, _ = random_block_sparse_problem(seed=8, snr_db=10.0)
        with pytest.raises(ValueError, match="stop_alpha"):
            BlockOMP(block_size=4, stop_alpha=alpha, noise_var=1e-3).fit(psi, y)


def _run_child(code):
    """Run ``code`` in a fresh interpreter that imports the same nfcs as this
    test, installed or not, and return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(nfcs.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # nothing in nfcs reads SciPy, and only the NMSE sweeps start the thread
    # pool: importing the package and its command line, the Fresnel-integral
    # coherence and a small coherence-error run load neither
    code = (
        "import dataclasses, sys, nfcs, nfcs.cli\n"
        "from nfcs.harness import preset_config, run\n"
        "nfcs.coherence_approx([0.3, -1.0], [1e-3, 2e-2], 256)\n"
        "run(dataclasses.replace(preset_config('coherence_error', 'desk', 1), trials=5))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    assert _run_child(code) == "[]"


def test_coherence_error_runs_where_scipy_cannot_be_imported(tmp_path):
    code = (
        "import importlib.abc, sys\n"
        "class NoScipy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from nfcs.cli import main\n"
        f"print(main(['coherence-error', '--trials', '5', '--out', {str(tmp_path / 'rows.csv')!r}]))"
    )
    assert _run_child(code) == "0"
    # two metrics at each of the two desk array sizes
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8").count("coherence_approx") == 4
