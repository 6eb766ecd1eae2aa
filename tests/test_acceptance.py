"""Acceptance suite: one seeded, tolerance-pinned check per shipping criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
failure report). Monte Carlo checks run at desk scale with fixed seeds; the
seeds and operating points are part of the contract and documented inline.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from nfcs import (
    ArrayConfig,
    BlockOMP,
    b_vector,
    build_dmu,
    effective_distance,
    field_boundaries,
    fresnel,
    near_steering,
    predicted_support,
    sample_complexity,
    varrho_bound,
)
from nfcs.block_rip import empirical_rip_probe
from nfcs.coherence import _exact_magnitudes, thresholds
from nfcs.geometry import _steering
from nfcs.harness import emit, preset_config, run

SEED = 9
CFG = ArrayConfig(carrier_freq=100e9, n_antennas=256)


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# -----------------------------------------------------------------------
# 1. closed-form coherence accuracy


def test_criterion_1_coherence_approximation():
    start = time.monotonic()
    config = replace(
        preset_config("coherence_error", "desk", seed=SEED), n_list=(256, 1024), trials=1000
    )
    rows = run(config)
    means = {r.grid: r.value for r in rows if r.metric == "mean_abs_error"}
    elapsed = time.monotonic() - start
    ok = means["N=256"] < 1e-2 and means["N=1024"] < means["N=256"] and elapsed < 60
    report(
        "1 coherence approximation",
        ok,
        f"mean|err| N=256: {means['N=256']:.2e} (< 1e-2), "
        f"N=1024: {means['N=1024']:.2e} (decreasing), {elapsed:.1f}s",
    )
    assert means["N=256"] < 1e-2
    assert means["N=1024"] < means["N=256"]
    assert elapsed < 60


# -----------------------------------------------------------------------
# 2 & 3. sparsity level and multipath sparsity (shared Monte Carlo run)


@pytest.fixture(scope="module")
def sparsity_rows():
    config = replace(
        preset_config("sparsity_level", "desk", seed=SEED),
        n_list=(256, 512, 1024),
        trials=1000,
    )
    start = time.monotonic()
    rows = run(config)
    return rows, time.monotonic() - start


def test_criterion_2_sparsity_level(sparsity_rows):
    rows, elapsed = sparsity_rows
    v = {(r.grid, r.method, r.metric): r.value for r in rows}
    within = {n: v[(f"N={n}", "los", "within_bound_rate")] for n in (256, 512, 1024)}
    mean512 = v[("N=512", "los", "mean_fraction")]
    ok = all(w >= 0.99 for w in within.values()) and mean512 < 0.1 and elapsed < 120
    report(
        "2 sparsity level",
        ok,
        f"within-bound rates {within} (each >= 0.99), "
        f"mean fraction at N=512: {mean512:.4f} (< 0.1), {elapsed:.1f}s",
    )
    for w in within.values():
        assert w >= 0.99
    assert mean512 < 0.1
    assert elapsed < 120


def test_criterion_3_multipath_sparsity(sparsity_rows):
    rows, _ = sparsity_rows
    v = {(r.grid, r.method, r.metric): r.value for r in rows}
    checks = []
    for n in (256, 1024):
        los = v[(f"N={n}", "los", "mean_fraction")]
        multi = v[(f"N={n}", "multipath", "mean_fraction")]
        bound = v[(f"N={n}", "theory", "mean_bound_fraction")]
        checks.append((n, los, multi, bound))
    ok = all(multi >= los and multi <= bound and los <= bound for _, los, multi, bound in checks)
    detail = "; ".join(
        f"N={n}: los {los:.4f} <= multi {multi:.4f} <= bound {bound:.4f}"
        for n, los, multi, bound in checks
    )
    report("3 multipath sparsity", ok, detail)
    for _, los, multi, bound in checks:
        assert multi >= los
        assert multi <= bound
        assert los <= bound


# -----------------------------------------------------------------------
# 4. sensing-matrix mutual coherence ordering


def test_criterion_4_mutual_coherence():
    config = preset_config("mutual_coherence", "desk", seed=SEED)  # T=100, 100 pilots
    rows = run(config)
    med = {r.method: r.value for r in rows if r.metric == "median_mutual_coherence"}
    ok = med["dmu"] < med["polar"]
    report(
        "4 mutual coherence",
        ok,
        f"median chirped-unitary {med['dmu']:.4f} < median polar(6 rings) {med['polar']:.4f}",
    )
    assert med["dmu"] < med["polar"]


# -----------------------------------------------------------------------
# 5. block-size sweep


def test_criterion_5_block_size_sweep():
    config = preset_config("block_size_sweep", "desk", seed=SEED)  # T=100, 5 dB, 200 trials
    rows = run(config)
    v = {(r.grid, r.metric): r.value for r in rows}
    m = {s: v[(f"s={s},snr_db=5.0", "nmse_mean")] for s in (4, 8, 32)}
    e = {s: v[(f"s={s},snr_db=5.0", "nmse_stderr")] for s in (4, 8, 32)}
    se_48 = math.hypot(e[4], e[8])
    se_832 = math.hypot(e[8], e[32])
    ok = m[4] <= m[8] + se_48 and m[8] <= m[32] + se_832 and m[4] < m[32]
    report(
        "5 block size sweep",
        ok,
        f"NMSE s=4: {m[4]:.4f} <= s=8: {m[8]:.4f} <= s=32: {m[32]:.4f} "
        f"(1-SE slack), outer strict",
    )
    assert m[4] <= m[8] + se_48
    assert m[8] <= m[32] + se_832
    assert m[4] < m[32]


# -----------------------------------------------------------------------
# 6. estimation performance at T=80, 5 dB


@pytest.fixture(scope="module")
def nmse_at_5db():
    config = replace(
        preset_config("nmse_vs_snr", "desk", seed=SEED),
        snr_db_list=(5.0,),
        n_measurements=80,
        methods=("dmu_block_omp", "polar_omp"),
        trials=200,
    )
    start = time.monotonic()
    rows = run(config)
    return rows, time.monotonic() - start


def test_criterion_6_nmse_absolute(nmse_at_5db):
    rows, elapsed = nmse_at_5db
    v = {(r.method, r.metric): r.value for r in rows}
    dmu = v[("dmu_block_omp", "nmse_mean")]
    ok = dmu < 0.15 and elapsed < 600
    report(
        "6a NMSE level",
        ok,
        f"proposed method NMSE at 5 dB, T=80: {dmu:.4f} (< 0.15), {elapsed:.1f}s",
    )
    assert dmu < 0.15
    assert elapsed < 600


def test_criterion_6_ordering_vs_polar(nmse_at_5db):
    # Known-red comparison: with equally tuned adaptive solvers the polar
    # baseline beats the proposed method at this operating point (README,
    # "Tests and acceptance suite", gives the numbers and the known cause).
    # The assertion states the criterion faithfully rather than weakening it.
    rows, _ = nmse_at_5db
    v = {(r.method, r.metric): r.value for r in rows}
    dmu = v[("dmu_block_omp", "nmse_mean")]
    polar = v[("polar_omp", "nmse_mean")]
    ok = dmu < polar
    report(
        "6b NMSE ordering",
        ok,
        f"proposed {dmu:.4f} vs polar baseline {polar:.4f} (criterion: proposed strictly lower)",
    )
    assert dmu < polar


# -----------------------------------------------------------------------
# 7. dictionary/source effective-distance sweep


def test_criterion_7_mu0_sweep():
    # the desk preset runs at 12 dB with tight bins and common random numbers
    # across bins, where the mismatch cost dominates the trial noise
    config = replace(preset_config("nmse_vs_mu0", "desk", seed=SEED), trials=100)
    rows = run(config)
    means = {r.grid: r.value for r in rows if r.metric == "nmse_mean"}
    best = min(means, key=means.get)
    ok = best == "mu0=20.0"
    report(
        "7 effective-distance sweep",
        ok,
        "binned NMSE "
        + " ".join(f"{g.split('=')[1]}: {means[g]:.4f}" for g in sorted(means))
        + f" -> minimum at {best}",
    )
    assert best == "mu0=20.0"


# -----------------------------------------------------------------------
# 8. property suite


def test_criterion_8a_unitarity_and_norms():
    dmu = build_dmu(CFG, 20.0)
    gram_err = np.abs(np.conj(dmu.matrix.T) @ dmu.matrix - np.eye(256)).max()
    norm_errs = []
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        theta = float(rng.uniform(-1.5, 1.5))
        r = float(rng.uniform(3.0, 100.0))
        norm_errs.append(abs(np.linalg.norm(near_steering(CFG, theta, r)) - 1))
        norm_errs.append(abs(np.linalg.norm(_steering(CFG, math.sin(theta), r, "taylor")) - 1))
        norm_errs.append(abs(np.linalg.norm(_steering(CFG, math.sin(theta), math.inf, "taylor")) - 1))
    ok = gram_err < 1e-10 and max(norm_errs) < 1e-12
    report(
        "8a unitarity and norms",
        ok,
        f"gram deviation {gram_err:.2e} (< 1e-10), worst norm error {max(norm_errs):.2e} (< 1e-12)",
    )
    assert gram_err < 1e-10
    assert max(norm_errs) < 1e-12


def test_criterion_8b_chirp_factorization():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        theta = float(rng.uniform(-1.5, 1.5))
        r = float(rng.uniform(3.0, 100.0))
        lhs = _steering(CFG, math.sin(theta), r, "taylor")
        rhs = _steering(CFG, math.sin(theta), math.inf, "taylor") * b_vector(CFG, effective_distance(math.sin(theta), r))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst < 1e-12
    report("8b chirp factorization", ok, f"worst entry deviation {worst:.2e} (< 1e-12)")
    assert worst < 1e-12


def test_criterion_8c_fresnel_increment_bound():
    rng = np.random.default_rng(SEED + 2)
    x = rng.uniform(0.05, 20.0, 10_000)
    dx = rng.uniform(1e-9, 100.0, 10_000)
    c_hi, s_hi = fresnel(x + dx)
    c_lo, s_lo = fresnel(x)
    ok_c = np.abs(c_hi - c_lo) < 1.0 / x
    ok_s = np.abs(s_hi - s_lo) < 1.0 / x
    ok = bool(np.all(ok_c) and np.all(ok_s))
    report(
        "8c fresnel increment bound",
        ok,
        f"|C(x+d)-C(x)| and |S(x+d)-S(x)| < 1/x on 10^4 random pairs: "
        f"{int(ok_c.sum() + ok_s.sum())}/20000 hold",
    )
    assert ok


def test_criterion_8d_support_containment_matched():
    # matched quadratic phase: indices with |coherence| >= delta must fall in
    # the two-sided window (exhaustive phase-slope grid)
    n, delta = 256, 0.05
    eta0, _, _ = thresholds(n, delta)
    a_grid = np.linspace(-2 * math.pi, 2 * math.pi, 10_000)
    mags = _exact_magnitudes(a_grid, np.zeros_like(a_grid), n)
    a_tilde = np.mod(a_grid + math.pi, 2 * math.pi) - math.pi
    outside = np.abs(a_tilde) > eta0 * math.pi
    violations = int(np.count_nonzero(mags[outside] >= delta))
    ok = violations == 0
    report(
        "8d containment (matched)",
        ok,
        f"{violations} of {int(outside.sum())} outside-window grid points reach delta",
    )
    assert violations == 0


def test_criterion_8e_support_containment_mismatched():
    # mismatched quadratic phase: per-draw exhaustive containment of the
    # above-threshold entries inside the predicted index set
    delta = 0.05
    rng = np.random.default_rng(SEED + 3)
    failures = 0
    draws = 300
    dmu_cache = {}
    fres, ray = field_boundaries(CFG)
    for _ in range(draws):
        s0 = float(rng.uniform(-1, 1))
        r0 = float(rng.uniform(fres, ray))
        smu = float(rng.uniform(-1, 1))
        rmu = float(rng.uniform(fres, ray))
        theta0 = math.asin(s0)
        mu0 = r0 / (1 - s0**2)
        mu = rmu / (1 - smu**2)
        key = round(mu, 6)
        if key not in dmu_cache:
            dmu_cache[key] = build_dmu(CFG, mu)
        alpha = np.abs(
            dmu_cache[key].matrix.conj().T @ _steering(CFG, math.sin(theta0), r0, "taylor")
        )
        support = predicted_support(CFG, theta0, mu0, mu, delta)
        above = np.flatnonzero(alpha >= delta)
        if not np.isin(above, support).all():
            failures += 1
    ok = failures == 0
    report(
        "8e containment (mismatched)",
        ok,
        f"{failures} of {draws} draws leak above-threshold entries outside the predicted set",
    )
    assert failures == 0


def test_criterion_8f_noiseless_block_recovery():
    # oracle first: least squares on the true support reproduces the
    # coefficients exactly; greedy recovery must match it in >= 95% of trials
    trials, hits, oracle_ok = 500, 0, 0
    for seed in range(trials):
        rng = np.random.default_rng((SEED + 4, seed))
        psi = (
            rng.standard_normal((80, 256)) + 1j * rng.standard_normal((80, 256))
        ) * math.sqrt(1 / 512)
        blocks = rng.choice(64, size=2, replace=False)
        beta = np.zeros(256, dtype=complex)
        idx = np.concatenate([np.arange(b * 4, (b + 1) * 4) for b in np.sort(blocks)])
        beta[idx] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = psi @ beta
        oracle = np.zeros(256, dtype=complex)
        sub = psi[:, idx]
        oracle[idx] = np.linalg.solve(np.conj(sub.T) @ sub, np.conj(sub.T) @ y)
        if np.linalg.norm(oracle - beta) / np.linalg.norm(beta) < 1e-9:
            oracle_ok += 1
        est = BlockOMP(block_size=4).fit(psi, y)
        if np.linalg.norm(est.coef_ - beta) / np.linalg.norm(beta) < 1e-6:
            hits += 1
    rate = hits / trials
    ok = rate >= 0.95 and oracle_ok == trials
    report(
        "8f noiseless recovery",
        ok,
        f"greedy match rate {rate:.3f} (>= 0.95), oracle exact {oracle_ok}/{trials}",
    )
    assert oracle_ok == trials
    assert rate >= 0.95


def test_criterion_8g_rip_probe_concentration():
    rng = np.random.default_rng(SEED + 5)
    psi = (rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))) * math.sqrt(
        1 / 64
    )
    rep = empirical_rip_probe(psi, 8, k=2, trials=1000, seed=SEED + 6, target_xi=0.5)
    ok = rep.violation_rate <= 0.10
    report(
        "8g isometry probe",
        ok,
        f"fraction of trials with | ||Psi c||^2 - 1 | >= 0.5: {rep.violation_rate:.3f} (<= 0.10)",
    )
    assert rep.violation_rate <= 0.10


def test_criterion_8h_byte_identical_reruns(tmp_path):
    config = replace(
        preset_config("nmse_vs_snr", "desk", seed=SEED),
        snr_db_list=(5.0,),
        trials=5,
        n_antennas=64,
        n_measurements=32,
    )
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    emit(run(config), "csv", p1)
    emit(run(config), "csv", p2)
    ok = p1.read_bytes() == p2.read_bytes()
    report("8h reproducibility", ok, "two runs under one seed emit byte-identical files")
    assert ok


# -----------------------------------------------------------------------
# 9. measurement-bound formulas (formula-level only at desk scale)


def test_criterion_9_sample_complexity_formulas():
    rho = varrho_bound(CFG, 0.01)
    t_min = sample_complexity(256, rho, 0.5, 1.0)
    mono_kappa = sample_complexity(256, 7, 0.5, 2.0) > sample_complexity(256, 7, 0.5, 1.0)
    mono_rho = sample_complexity(256, 8, 0.5, 1.0) > sample_complexity(256, 7, 0.5, 1.0)
    xi_vals = [sample_complexity(256, 7, xi, 1.0) for xi in (0.1, 0.5, 0.9)]
    mono_xi = xi_vals[0] > xi_vals[1] > xi_vals[2]
    ok = rho <= 7 and t_min > 256 and mono_kappa and mono_rho and mono_xi
    report(
        "9 measurement bound",
        ok,
        f"block sparsity {rho} (<= 7); T_min {t_min} exceeds N=256 (guarantee "
        f"not attainable at desk scale); monotone in kappa/rho, decreasing in xi",
    )
    assert rho <= 7
    assert t_min > 256
    assert mono_kappa and mono_rho and mono_xi
