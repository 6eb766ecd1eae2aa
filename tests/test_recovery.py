import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtri

import nfcs
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
from nfcs.dictionaries import SensingProduct
from nfcs.recovery import (
    _COND_LIMIT,
    RIDGE_SCALE,
    _FormedColumns,
    _least_squares,
    _ProductColumns,
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

    @pytest.mark.parametrize("shape", [(80, 256), (100, 256), (400, 2048), (3, 5)])
    def test_gaussian_bytes_match_the_complex_expression(self, shape):
        # the pilots are filled in place from two real draws; they must equal
        # scale * (a + 1j * b) of the same draws bit for bit
        rng = np.random.default_rng([5, *shape])
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = math.sqrt(1.0 / (2.0 * shape[1])) * (a + 1j * b)
        pilots = gen_pilots(*shape, "gaussian", seed=np.random.default_rng([5, *shape]))
        assert pilots.tobytes() == expected.tobytes()

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            gen_pilots(10, 32, "bernoulli", seed=0)
        with pytest.raises(ValueError):
            gen_pilots(0, 32, "gaussian", seed=0)


class TestMakeProblem:
    def test_noiseless(self, cfg):
        spec = sample_channel(cfg, 3, seed=5)
        prob = make_problem(cfg, spec, 64, snr_db=math.inf, seed=6)
        np.testing.assert_array_equal(prob.noise, 0)
        np.testing.assert_allclose(prob.observations, prob.pilots @ prob.channel, atol=1e-15)
        assert prob.noise_var == 0.0

    def test_sensing_matrix_is_product(self, cfg, dmu):
        spec = sample_channel(cfg, 3, seed=9)
        prob = make_problem(cfg, spec, 40, snr_db=10.0, seed=10)
        assert prob.observations.tobytes() == (prob.pilots @ prob.channel + prob.noise).tobytes()
        # one draw serves every dictionary: each senses the same pilots
        for dictionary in (dmu, build_dft(cfg)):
            np.testing.assert_allclose(
                dictionary.sensing_operator(prob.pilots), prob.pilots @ dictionary.matrix, atol=1e-12
            )

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
        # duplicated columns make the Gram matrix singular; the ridge keeps
        # the solve finite
        rng = np.random.default_rng(9)
        base = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        psi = np.concatenate([base, base], axis=1)
        y = base @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        est = BlockOMP(block_size=4, stop_alpha=None, k_max=2).fit(psi, y)
        assert np.all(np.isfinite(est.coef_))
        assert est.residual_norm_ < 1e-4 * np.linalg.norm(y)

    @pytest.mark.parametrize("factored", [False, True], ids=["formed", "factored"])
    def test_stops_once_every_block_is_selected(self, factored):
        # noiseless with T > M: the default k_max (T // block_size = 20)
        # exceeds the 3 blocks, and y lies outside the span of the columns
        rng = np.random.default_rng(31)
        pilots = rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8))
        matrix = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        if factored:
            X = SensingProduct(pilots, matrix, matrix @ np.conj(matrix.T))
        else:
            X = pilots @ matrix
        est = BlockOMP(block_size=2).fit(X, y)
        assert est.n_iter_ == 3
        assert sorted(est.support_) == list(range(6))


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
    ``cond`` plus ``inv``; the stopping rules and the risk are those of
    ``BlockOMP``. Returns ``(coef, support, n_iter, residual_path)``.
    """
    t, m = X.shape
    s = est.block_size
    nb = m // s
    sigma2 = float(est.noise_var)
    k_max = est.k_max if est.k_max is not None else est._default_k_max(t, m, sigma2)
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
    best_risk = BlockOMP._risk_estimate(y_norm2, 0, t, sigma2, None, mean_col_energy)
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
        selected[pick] = True
        chosen.append(pick)
        idx = np.concatenate([np.arange(b * s, (b + 1) * s) for b in sorted(chosen)])
        sub = X[:, idx]
        gram = np.conj(sub.T) @ sub
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            ridge = RIDGE_SCALE * float(np.trace(gram).real) / gram.shape[0]
            gram = gram + ridge * np.eye(gram.shape[0])
        gram_inv = np.linalg.inv(gram)
        coef = gram_inv @ (np.conj(sub.T) @ y)
        resid = y - sub @ coef
        rho = float(np.linalg.norm(resid) ** 2)
        residual_path.append(math.sqrt(rho))
        risk = BlockOMP._risk_estimate(
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

    @pytest.mark.parametrize("duplicate", [False, True], ids=["full-rank", "ridged"])
    def test_least_squares_trace_matches_inverse(self, duplicate):
        # tr(G^-1) feeds the risk estimate that picks the returned prefix
        rng = np.random.default_rng(12)
        sub = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
        if duplicate:
            sub[:, 5] = sub[:, 0]
        y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        gram = np.conj(sub.T) @ sub
        if duplicate:
            gram = gram + RIDGE_SCALE * np.trace(gram).real / 6 * np.eye(6)
        coef, trace = _least_squares(sub, y)
        assert trace == pytest.approx(np.trace(np.linalg.inv(gram)).real, rel=1e-6 if duplicate else 1e-12)
        if not duplicate:
            np.testing.assert_allclose(coef, np.linalg.solve(gram, np.conj(sub.T) @ y), atol=1e-12)

    @pytest.mark.parametrize("factor", [0.9, 1.1], ids=["below", "above"])
    def test_condition_at_ridge_threshold(self, factor):
        # the final Gram's condition lies just below or above the ridge limit;
        # the ridge visibly shrinks the coefficient of the weak column
        X, beta, y = _graded_problem(5, factor * _COND_LIMIT)
        est = BlockOMP(block_size=2, k_max=3, stop_alpha=None).fit(X, y)
        gram = np.conj(X.T) @ X
        assert (np.linalg.cond(gram) > _COND_LIMIT) == (factor > 1)
        _assert_matches_reference(est, X, y)
        weak_error = abs(est.coef_[1] - beta[1]) / abs(beta[1])
        assert (weak_error > 0.5) if factor > 1 else (weak_error < 1e-9)

    @pytest.mark.parametrize("k_max", [1, 2])
    def test_duplicated_column_takes_the_ridge(self, k_max):
        # block 0 holds one column twice, so its Gram is singular and ridged.
        # The reference inverts the ridged Gram (condition about 1e10) and is
        # accurate only to about 1e-6 there, so values are compared at 1e-5;
        # the new solve splits the duplicate's coefficient evenly to 1e-9.
        rng = np.random.default_rng(9)
        base = rng.standard_normal((20, 7)) + 1j * rng.standard_normal((20, 7))
        X = np.concatenate([base[:, :3], base[:, :1], base[:, 3:]], axis=1)
        y = base[:, :3] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        est = BlockOMP(block_size=4, stop_alpha=None, k_max=k_max).fit(X, y)
        _assert_matches_reference(est, X, y, rtol=1e-5)
        assert abs(est.coef_[0] - est.coef_[3]) < 1e-9 * abs(est.coef_[0])
        assert est.residual_norm_ < 1e-8 * np.linalg.norm(y)

    def test_large_array_high_snr_recovers_the_blocks(self):
        # N = 2048, T = 400, block 16 at 60 dB: the true block support is found
        m, t, s = 2048, 400, 16
        psi, beta, y, blocks = random_block_sparse_problem(77, t=t, m=m, s=s, k=3, snr_db=60.0)
        noise_var = float(np.linalg.norm(psi @ beta) ** 2) / (t * 10**6)
        est = BlockOMP(block_size=s, noise_var=noise_var).fit(psi, y)
        np.testing.assert_array_equal(np.unique(est.support_ // s), blocks)
        _assert_matches_reference(est, psi, y)


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
        formed = BlockOMP(block_size=block_size, noise_var=noise_var).fit(pilots @ polar.matrix, y)
        factored = BlockOMP(block_size=block_size, noise_var=noise_var).fit(operator, y)
        np.testing.assert_array_equal(factored.support_, formed.support_)
        assert factored.n_iter_ == formed.n_iter_
        # a noiseless fit that misses the support runs on to k_max = T // s;
        # for T > N that is more columns than rank(P) = N, so its Gram is
        # singular and ridged (condition about 1e10), and both solves are
        # accurate only to about 1e-5 there (measured 3e-6 to 9e-6)
        rtol = 1e-10 if formed.support_.size <= n else 1e-4
        scale = max(np.abs(formed.coef_).max(), 1.0)
        np.testing.assert_allclose(factored.coef_, formed.coef_, rtol=0, atol=rtol * scale)
        np.testing.assert_allclose(
            factored.residual_path_, formed.residual_path_, rtol=0, atol=1e-10 * formed.residual_path_[0]
        )

    @pytest.mark.parametrize("block_size", [1, 3])
    def test_reads_what_the_formed_matrix_holds(self, block_size):
        # correlations, column energies and sub-matrices of P A from its factors
        rng = np.random.default_rng(17)
        pilots = rng.standard_normal((10, 7)) + 1j * rng.standard_normal((10, 7))
        matrix = rng.standard_normal((7, 12)) + 1j * rng.standard_normal((7, 12))
        X = pilots @ matrix
        formed = _FormedColumns(X, block_size)
        factored = _ProductColumns(SensingProduct(pilots, matrix, matrix @ np.conj(matrix.T)), block_size)
        r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        np.testing.assert_allclose(factored.correlate(r), formed.correlate(r), rtol=1e-12)
        assert factored.mean_col_energy == pytest.approx(formed.mean_col_energy, rel=1e-12)
        for b in range(12 // block_size):
            assert factored.block_energy(b) == pytest.approx(formed.block_energy(b), rel=1e-12)
        idx = np.concatenate([np.arange(b * block_size, (b + 1) * block_size) for b in (0, 2, 3)])
        factored.block_energy(3)  # a block looked at first is still placed in index order
        np.testing.assert_allclose(factored.columns(idx), formed.columns(idx), rtol=1e-12)

    def test_row_gram_is_cached_and_read_only(self):
        polar = build_polar_baseline(ArrayConfig(carrier_freq=100e9, n_antennas=64))
        gram = polar.row_gram
        assert polar.row_gram is gram
        assert not gram.flags.writeable
        with pytest.raises(ValueError):
            gram[0, 0] = 0.0
        np.testing.assert_allclose(gram, polar.matrix @ np.conj(polar.matrix.T), atol=1e-12)

    def test_chirped_dictionaries_form_their_sensing_matrix(self, cfg, dmu):
        pilots = gen_pilots(20, cfg.n_antennas, seed=3)
        np.testing.assert_array_equal(dmu.sensing_operator(pilots), dmu.sense(pilots))


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


class TestLeastSquares:
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


def test_import_does_not_load_scipy_stats():
    # scipy.stats and scipy.linalg add import time and resident memory to
    # every run; the package needs only scipy.special and numpy.linalg
    code = "import nfcs, sys; print(sorted({'scipy.stats', 'scipy.linalg'} & set(sys.modules)))"
    # the child imports the same nfcs as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(nfcs.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "[]"
