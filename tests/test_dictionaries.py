import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcs import (
    ArrayConfig,
    BlockOMP,
    analyze,
    build_dft,
    build_dmu,
    build_polar_baseline,
    dft_grid,
    field_boundaries,
    gen_pilots,
    mutual_coherence,
    sample_channel,
    synthesize_channel,
)
from nfcs import dictionaries
from nfcs.dictionaries import _COHERENCE_BLOCK, _HEAD_ROWS, Dictionary, _screen_margin
from nfcs.geometry import _steering


@pytest.fixture
def cfg():
    return ArrayConfig(carrier_freq=100e9, n_antennas=256)


def brute_force_coherence(matrix):
    """Independent double-loop oracle for the mutual coherence."""
    m = matrix.shape[1]
    best = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            u, v = matrix[:, i], matrix[:, j]
            val = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
            best = max(best, val)
    return best


def dense_coherence(matrix):
    """The full-Gram formula: every entry of the M x M Gram at once."""
    norms = np.linalg.norm(matrix, axis=0)
    gram = np.abs(np.conj(matrix.T) @ matrix) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def test_dft_grid():
    grid = dft_grid(4)
    np.testing.assert_allclose(grid, [-3 / 4, -1 / 4, 1 / 4, 3 / 4])
    g256 = dft_grid(256)
    assert np.all(np.diff(g256) == pytest.approx(2 / 256))


def test_dmu_unitary(cfg):
    d = build_dmu(cfg, 20.0)
    gram = np.conj(d.matrix.T) @ d.matrix
    assert np.abs(gram - np.eye(256)).max() < 1e-10
    outer = d.matrix @ np.conj(d.matrix.T)
    assert np.abs(outer - np.eye(256)).max() < 1e-10


def test_dmu_constant_modulus(cfg):
    d = build_dmu(cfg, 7.5)
    np.testing.assert_allclose(np.abs(d.matrix), 1 / 16.0, atol=1e-14)


def test_dmu_infinite_mu_is_dft(cfg):
    via_inf = build_dmu(cfg, math.inf)
    dft = build_dft(cfg)
    np.testing.assert_array_equal(via_inf.matrix, dft.matrix)
    assert dft.mu == math.inf
    # the plane-wave responses of the one steering kernel, bit for bit
    assert dft.matrix.tobytes() == _steering(cfg, dft_grid(256), math.inf, "taylor").tobytes()


def test_dmu_columns_are_steering_vectors(cfg):
    mu = 20.0
    d = build_dmu(cfg, mu)
    grid = dft_grid(256)
    for col in (0, 100, 255):
        theta = math.asin(grid[col])
        r = mu * math.cos(theta) ** 2
        expected = _steering(cfg, math.sin(theta), r, "taylor")
        np.testing.assert_allclose(d.matrix[:, col], expected, atol=1e-12)


def test_dictionary_requires_half_wavelength():
    cfg_bad = ArrayConfig(carrier_freq=100e9, n_antennas=16, spacing=0.002)
    with pytest.raises(ValueError):
        build_dmu(cfg_bad, 10.0)


def test_analyze_round_trip(cfg):
    d = build_dmu(cfg, 20.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        h = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        beta = analyze(d, h)
        assert np.linalg.norm(beta) == pytest.approx(np.linalg.norm(h), rel=1e-12)
        assert np.linalg.norm(d.inverse_transform(beta) - h) < 1e-10


def test_analyze_unit_coordinate(cfg):
    d = build_dmu(cfg, 20.0)
    k = 37
    expected = np.zeros(256)
    expected[k] = 1.0
    np.testing.assert_allclose(analyze(d, d.matrix[:, k]), expected, atol=1e-12)


def test_analyze_dimension_mismatch(cfg):
    d = build_dmu(cfg, 20.0)
    with pytest.raises(ValueError):
        analyze(d, np.ones(128, dtype=complex))


def test_transform_rows_and_single(cfg):
    d = build_dmu(cfg, 20.0)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 256)) + 1j * rng.standard_normal((3, 256))
    batch = d.transform(h)
    assert batch.shape == (3, 256)
    np.testing.assert_allclose(batch[1], d.transform(h[1]), atol=1e-14)
    back = d.inverse_transform(batch)
    np.testing.assert_allclose(back, h, atol=1e-10)


@pytest.mark.parametrize("shape", [(), (2, 3, 256)])
@pytest.mark.parametrize("method", ["transform", "inverse_transform"])
def test_transforms_reject_inputs_of_other_ranks(cfg, method, shape):
    # neither is a vector or a matrix of rows
    d = build_dmu(cfg, 20.0)
    with pytest.raises(ValueError, match=re.escape(f"X must be 1-D or 2-D, got shape {shape}")):
        getattr(d, method)(np.ones(shape, dtype=complex))


def _sparse_rows(rng, n_cols, supports):
    """Complex coefficient rows of ``n_cols`` entries, nonzero on each row's support."""
    rows = np.zeros((len(supports), n_cols), dtype=complex)
    for row, support in zip(rows, supports):
        row[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return rows


def test_dense_synthesis_of_a_sparse_vector_matches_the_full_product(cfg):
    polar = build_polar_baseline(cfg)
    (beta,) = _sparse_rows(np.random.default_rng(1), polar.n_atoms, [[7, 300, 301, 1500]])
    np.testing.assert_allclose(polar.inverse_transform(beta), polar.matrix @ beta, rtol=0, atol=1e-13)


def test_dense_synthesis_of_rows_with_different_supports(cfg):
    # each row's columns outside its own support add exact zeros
    polar = build_polar_baseline(cfg)
    supports = [[3], [3, 900], [1200, 1201, 1535], list(range(0, 1536, 97))]
    rows = _sparse_rows(np.random.default_rng(2), polar.n_atoms, supports)
    out = polar.inverse_transform(rows)
    assert out.shape == (4, cfg.n_antennas)
    np.testing.assert_allclose(out, rows @ polar.matrix.T, rtol=0, atol=1e-13)
    for row, alone in zip(rows, out):
        np.testing.assert_allclose(polar.inverse_transform(row), alone, rtol=0, atol=1e-13)


def test_dense_synthesis_of_a_zero_row_is_exactly_zero(cfg):
    polar = build_polar_baseline(cfg, 2)
    rows = _sparse_rows(np.random.default_rng(3), polar.n_atoms, [[], [5, 260]])
    out = polar.inverse_transform(rows)
    assert np.all(out[0] == 0) and np.all(out[1] != 0)
    assert not np.any(polar.inverse_transform(np.zeros(polar.n_atoms)))
    assert polar.inverse_transform(np.zeros((3, polar.n_atoms))).shape == (3, cfg.n_antennas)


def test_dense_synthesis_propagates_a_nan_coefficient(cfg):
    # as through the full product: the NaN's row is NaN, the other rows are not
    polar = build_polar_baseline(cfg, 2)
    rows = _sparse_rows(np.random.default_rng(4), polar.n_atoms, [[5, 260], [6]])
    rows[0, 100] = math.nan
    out = polar.inverse_transform(rows)
    assert np.all(np.isnan(out[0]))
    np.testing.assert_allclose(out[1], polar.matrix @ rows[1], rtol=0, atol=1e-13)


def test_dense_analysis_copies_no_conjugate_of_the_matrix(cfg):
    polar = build_polar_baseline(cfg)
    h = random_complex(np.random.default_rng(6), 3, cfg.n_antennas)
    single, peak = _traced_peak(lambda: polar.transform(h[0]))
    # conj(D) alone would be all of the matrix's bytes
    assert peak < polar.matrix.nbytes / 4
    expected = h @ np.conj(polar.matrix)
    np.testing.assert_allclose(single, expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(polar.transform(h), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_a_dense_dictionary_rejects_non_finite_entries(bad):
    matrix = np.eye(4, dtype=complex)
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        Dictionary(matrix)


SENSED_KINDS = {
    "dmu": lambda cfg: build_dmu(cfg, 20.0),
    "dft": build_dft,
    "polar": lambda cfg: build_polar_baseline(cfg, 2),
}


@pytest.mark.parametrize("kind", SENSED_KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf), 0.0])
def test_the_factored_product_rejects_non_finite_pilots(cfg, kind, bad):
    # every dictionary's reader checks the pilots alike: a chirped one used
    # to return a non-finite or zero X, read as it was
    dictionary = SENSED_KINDS[kind](cfg)
    pilots = gen_pilots(8, cfg.n_antennas, seed=1)
    if bad == 0:
        pilots[:] = 0.0
        match = "^pilots must not be all zero$"
    else:
        pilots[3, 100] = bad
        match = "^pilots must be finite$"
    with pytest.raises(ValueError, match=match):
        dictionary.sensing_operator(pilots)


@pytest.mark.parametrize("kind", ["dmu", "dft"])
def test_finite_pilots_whose_chirped_product_overflows_are_read_scaled(cfg, kind):
    # the chirped FFT of these pilots overflows (it warned, then raised "pilots
    # must be finite"); the reader forms it again from the pilots scaled by a
    # power of two and reads them as the polar product does
    dictionary = SENSED_KINDS[kind](cfg)
    pilots = 1e307 * (0.1 * np.conj(dictionary._chirp) + gen_pilots(24, cfg.n_antennas, seed=2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.fft.ifft(pilots * dictionary._chirp, axis=1, norm="ortho")).all()
    shift = dictionaries.unit_exponent(pilots)
    scaled = dictionary.sensing_operator(dictionaries.complex_ldexp(pilots, shift))
    reader = dictionary.sensing_operator(pilots)
    assert reader.shift == scaled.shift + shift
    assert reader.read(slice(None)).tobytes() == scaled.read(slice(None)).tobytes()
    rng = np.random.default_rng(3)
    y = scaled.read(np.r_[0:4, 12:16]).sum(axis=1) + 1e-4 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))
    fit = BlockOMP(4, noise_var=2e-8).fit(reader, y)
    fit_scaled = BlockOMP(4, noise_var=2e-8).fit(scaled, y)
    assert fit.support_.tolist() == fit_scaled.support_.tolist() == [0, 1, 2, 3, 12, 13, 14, 15]
    assert fit.coef_.tobytes() == dictionaries.complex_ldexp(fit_scaled.coef_, shift).tobytes()


def test_polar_single_ring_is_dft(cfg):
    polar = build_polar_baseline(cfg, n_rings=1)
    dft = build_dft(cfg)
    np.testing.assert_array_equal(polar.matrix, dft.matrix)


def test_polar_shape_and_norms(cfg):
    polar = build_polar_baseline(cfg, n_rings=6)
    assert polar.matrix.shape == (256, 6 * 256)
    np.testing.assert_allclose(np.linalg.norm(polar.matrix, axis=0), 1.0, atol=1e-12)
    # ring 0 sits at infinity: the plane-wave atoms of the DFT
    np.testing.assert_array_equal(polar.matrix[:, :256], build_dft(cfg).matrix)


def test_polar_ring_distances(cfg):
    fresnel, rayleigh = field_boundaries(cfg)
    lo, hi = 2.0 * fresnel, 0.5 * rayleigh
    polar = build_polar_baseline(cfg, n_rings=4, distance_range=(lo, hi))
    # rings 1..3 at 1/r = 1/hi, the midpoint of 1/hi and 1/lo, and 1/lo
    radii = [hi, 2.0 / (1.0 / hi + 1.0 / lo), lo]
    grid = dft_grid(cfg.n_antennas)
    for ring, radius in enumerate(radii, start=1):
        col = ring * 256 + 37
        expected = _steering(cfg, grid[37], radius, "taylor")
        np.testing.assert_allclose(polar.matrix[:, col], expected, atol=1e-12)


def test_polar_ring_columns_are_steering_vectors(cfg):
    # the default range runs from the Fresnel to the Rayleigh distance, so
    # ring 1 sits at the Rayleigh distance and ring 2 at the Fresnel distance
    polar = build_polar_baseline(cfg, n_rings=3)
    fresnel, rayleigh = field_boundaries(cfg)
    radii = [math.inf, rayleigh, fresnel]
    grid = dft_grid(cfg.n_antennas)
    for col in (256, 300, 511, 512, 700, 767):
        expected = _steering(cfg, grid[col % 256], radii[col // 256], "taylor")
        np.testing.assert_allclose(polar.matrix[:, col], expected, atol=1e-12)


def _traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_polar_build_holds_the_matrix_once(cfg):
    # each ring's responses are formed in its columns of the one N x 6N
    # matrix, a block of columns at a time, so the build holds the matrix
    # once, plus the real phase temporaries of one block (1.08x here)
    polar, peak = _traced_peak(lambda: build_polar_baseline(cfg))
    assert peak <= 1.1 * polar.matrix.nbytes


def test_dense_dmu_build_holds_the_matrix_once():
    # the chirped matrix is formed in place by the same column former, not
    # as b_mu[:, None] * F, which held F and the product (2.01x here)
    dmu = build_dmu(ArrayConfig(100e9, 1024), 200.0)
    matrix, peak = _traced_peak(lambda: dmu.matrix)
    assert peak <= 1.2 * matrix.nbytes


def test_row_gram_range_copies_no_conjugate_of_the_matrix(cfg):
    polar = build_polar_baseline(cfg)
    _, peak = _traced_peak(lambda: polar.row_gram_range)
    # the Gram is N x N, a sixth of the matrix; conj(D^H) alone would be all of it
    assert peak < 0.6 * polar.matrix.nbytes


def test_row_gram_range_matches_the_dense_gram(cfg):
    # the polar baseline spans four row blocks; the random matrices end on a
    # partial block and fit in one
    rng = np.random.default_rng(11)
    for dictionary in (
        build_polar_baseline(cfg),
        Dictionary(random_complex(rng, 150, 400)),
        Dictionary(random_complex(rng, 40, 90)),
    ):
        eigs = np.linalg.eigvalsh(dictionary.matrix @ np.conj(dictionary.matrix.T))
        lo, hi = dictionary.row_gram_range
        assert lo == pytest.approx(eigs[0], rel=1e-12)
        assert hi == pytest.approx(eigs[-1], rel=1e-12)


def test_polar_is_coherent():
    cfg64 = ArrayConfig(carrier_freq=100e9, n_antennas=64)
    polar = build_polar_baseline(cfg64, n_rings=3)
    assert mutual_coherence(polar.matrix) > 0.0


def test_polar_rejects_bad_args(cfg):
    with pytest.raises(ValueError):
        build_polar_baseline(cfg, n_rings=0)
    with pytest.raises(ValueError):
        build_polar_baseline(cfg, n_rings=3, distance_range=(5.0, 2.0))


def test_mutual_coherence_unitary(cfg):
    d = build_dmu(cfg, 20.0)
    assert mutual_coherence(d.matrix) < 1e-10


def test_mutual_coherence_repeated_column():
    col = np.exp(1j * np.linspace(0, 3, 32))
    matrix = np.stack([col, 2.0 * col, np.ones(32, complex)], axis=1)
    assert mutual_coherence(matrix) == pytest.approx(1.0, rel=1e-12)


def test_mutual_coherence_matches_brute_force():
    rng = np.random.default_rng(1234)
    matrix = rng.standard_normal((100, 256)) + 1j * rng.standard_normal((100, 256))
    assert mutual_coherence(matrix) == pytest.approx(brute_force_coherence(matrix), rel=1e-10)


def test_mutual_coherence_rejects_single_column():
    with pytest.raises(ValueError):
        mutual_coherence(np.ones((4, 1), dtype=complex))


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("n_cols", [2, 127, 128, 129, 300])
def test_mutual_coherence_block_sweep_matches_brute_force(n_cols):
    matrix = random_complex(np.random.default_rng(n_cols), 24, n_cols)
    assert mutual_coherence(matrix) == pytest.approx(brute_force_coherence(matrix), rel=1e-12)


@pytest.mark.parametrize(
    "i, j",
    [(10, 50), (127, 128), (260, 290), (5, 295)],
    ids=["inside-one-block", "straddling-127-128", "last-partial-block", "first-and-last-block"],
)
def test_mutual_coherence_finds_a_planted_duplicate(i, j):
    matrix = random_complex(np.random.default_rng(i * 1000 + j), 64, 300)
    assert mutual_coherence(matrix) < 0.8
    matrix[:, j] = 2.5 * np.exp(0.7j) * matrix[:, i]
    assert mutual_coherence(matrix) == pytest.approx(1.0, rel=1e-12)


SENSED = [(kind, seed, t) for kind in ("polar", "dmu") for seed in (0, 1, 2) for t in (100, 200)]


@pytest.mark.parametrize(
    "kind, seed, t",
    SENSED,
    ids=[f"{seed}-{t}" if kind == "polar" else f"{kind}-{seed}-{t}" for kind, seed, t in SENSED],
)
def test_mutual_coherence_matches_dense_gram_on_polar_sensing(cfg, kind, seed, t):
    # on D_mu the head screen rules out almost no row: the float64 pass
    # meets nearly every pair of real inputs
    dictionary = build_polar_baseline(cfg, n_rings=6) if kind == "polar" else build_dmu(cfg, 20.0)
    pilots = gen_pilots(t, cfg.n_antennas, "gaussian", np.random.default_rng(seed))
    sensing = pilots @ dictionary.matrix
    assert mutual_coherence(sensing) == pytest.approx(dense_coherence(sensing), rel=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mutual_coherence_rejects_non_finite_entries(bad):
    matrix = random_complex(np.random.default_rng(3), 8, 5)
    matrix[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        mutual_coherence(matrix)


def test_mutual_coherence_never_forms_the_gram():
    matrix = random_complex(np.random.default_rng(4), 100, 1536)
    tracemalloc.start()
    try:
        mutual_coherence(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6  # one 1536 x 1536 complex Gram is 37.7 MB


PRODUCTS = ["random", "scaled", "polar-100", "polar-200"]


@pytest.mark.parametrize("budget", ["default", "one column", "seven columns"])
@pytest.mark.parametrize("case", PRODUCTS)
def test_mutual_coherence_reads_a_sensing_product_as_its_formed_matrix(cfg, case, budget, monkeypatch):
    # P A is read a block of columns at a time and never formed: its blocks
    # round as the formed matrix's columns do, up to the grouping of the
    # matrix products. A formed matrix's blocks are views of it, so the
    # block width moves no bit of its value
    rng = np.random.default_rng(PRODUCTS.index(case))
    if case.startswith("polar"):
        dictionary = build_polar_baseline(cfg)
        pilots = gen_pilots(int(case[6:]), cfg.n_antennas, "gaussian", rng)
    else:
        atoms = random_complex(rng, 64, 300)
        if case == "scaled":
            # the most coherent pair, of column sums of squares far below
            # and far above the range: each column takes its own power of two
            atoms[:, 200] = (atoms[:, 7] + 0.01 * random_complex(rng, 64, 1)[:, 0]) * 2.0**300
            atoms[:, 7] *= 2.0**-300
        dictionary = Dictionary(atoms)
        pilots = random_complex(rng, 40, 64)
    formed = pilots @ dictionary.matrix
    expected = mutual_coherence(formed)
    t = pilots.shape[0]
    budgets = {"default": dictionaries._BLOCK_ENTRIES, "one column": t, "seven columns": 7 * t}
    monkeypatch.setattr(dictionaries, "_BLOCK_ENTRIES", budgets[budget])
    assert mutual_coherence(formed) == expected
    assert mutual_coherence(dictionary.sensing_operator(pilots)) == pytest.approx(expected, rel=1e-13)
    if case == "scaled":
        assert expected > 0.99


def test_a_sensing_product_with_a_zero_column_is_rejected():
    rng = np.random.default_rng(5)
    atoms = random_complex(rng, 64, 300)
    atoms[:, 123] = 0.0
    pilots = random_complex(rng, 40, 64) * 2.0**150
    for X in (pilots @ atoms, Dictionary(atoms).sensing_operator(pilots)):
        with pytest.raises(ValueError, match="zero columns"):
            mutual_coherence(X)


def test_a_product_that_overflows_when_formed_is_read_in_range():
    # 1e300 times pilots of entries near 2^150, whose sum of squares is in
    # range, overflows in the formed P A, which is rejected when it is read;
    # the dictionary's own sum of squares overflows, so its product reads
    # its columns scaled, and gives the coherence of P A formed in range
    rng = np.random.default_rng(5)
    atoms = random_complex(rng, 64, 300)
    atoms[:, 123] = 1e300
    pilots = random_complex(rng, 40, 64) * 2.0**150
    with np.errstate(over="ignore", invalid="ignore"):
        formed = pilots @ atoms
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        mutual_coherence(formed)
    expected = mutual_coherence(pilots * 2.0**-300 @ atoms)
    assert mutual_coherence(Dictionary(atoms).sensing_operator(pilots)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "fill, match", [(0.0, "^matrix must not be all zero$"), (math.nan, "^matrix must be finite$")]
)
def test_mutual_coherence_rejects_a_formed_matrix_when_it_reads_it(fill, match):
    # these used to reach the column checks: "undefined for zero columns"
    # and "needs finite columns"
    with pytest.raises(ValueError, match=match):
        mutual_coherence(np.full((5, 7), fill, dtype=complex))


def test_mutual_coherence_of_a_product_holds_less_than_the_product(cfg):
    # N = 256, T = 200: the 200 x 1536 complex P A would be 4.9 MB
    polar = build_polar_baseline(cfg)
    product = polar.sensing_operator(gen_pilots(200, cfg.n_antennas, "gaussian", np.random.default_rng(3)))
    _, peak = _traced_peak(lambda: mutual_coherence(product))
    assert peak < 200 * 1536 * 16


def test_mutual_coherence_of_a_formed_matrix_allocates_no_product_buffer():
    # a formed X is read as views; the pass used to allocate a product's
    # block buffer anyway, 2^16 // T columns of T rows (1.05 MB here, 1.42 MB
    # peak). The traced call is the second: the first imports NumPy modules
    n, t = 128, 200
    formed = gen_pilots(t, n, seed=3) @ build_polar_baseline(ArrayConfig(100e9, n)).matrix
    mutual_coherence(formed)
    value, peak = _traced_peak(lambda: mutual_coherence(formed))
    assert value == 0.9999714004012731
    assert peak < t * (dictionaries._BLOCK_ENTRIES // t) * 16


def test_the_mean_column_energy_of_a_product_is_summed_by_blocks(cfg):
    # N = 256, T = 100: the 100 x 1536 product P A would be 2.5 MB
    polar = build_polar_baseline(cfg)
    pilots = gen_pilots(100, cfg.n_antennas, seed=5)
    product = polar.sensing_operator(pilots)
    energy, peak = _traced_peak(lambda: product.mean_col_energy)
    formed = pilots @ polar.matrix
    assert peak < formed.nbytes
    assert math.isclose(energy, np.vdot(formed, formed).real / polar.n_atoms, rel_tol=1e-12)


def unitary(rng, n):
    """A random n x n unitary: the Q factor of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(random_complex(rng, n, n))
    return q


@pytest.mark.parametrize("n_rows", [1, 4, 40, 200])
def test_screen_margin_bounds_the_complex64_gram(n_rows):
    # the premise of the screen: |x_i^H x_j| of unit columns cast to
    # complex64 lies within _screen_margin(T) of its float64 value
    matrix = random_complex(np.random.default_rng(n_rows), n_rows, 300)
    unit = matrix / np.linalg.norm(matrix, axis=0)
    exact = np.abs(np.conj(unit.T) @ unit)
    cast = unit.astype(np.complex64)
    screened = np.abs(np.conj(cast.T) @ cast)
    assert np.abs(screened - exact).max() <= _screen_margin(n_rows)


@pytest.mark.parametrize("larger", [0, 1])
def test_mutual_coherence_resolves_a_planted_near_tie(larger):
    # two pairs 1e-9 apart, far below complex64 resolution, in different blocks
    rng = np.random.default_rng(77)
    matrix = random_complex(rng, 64, 300)
    q = unitary(rng, 64)[:, :4]
    top = 0.95
    for k, (i, j) in enumerate([(3, 140), (200, 299)]):
        c = top if k == larger else top - 1e-9
        matrix[:, i] = q[:, 2 * k]
        matrix[:, j] = 0.3j * (c * q[:, 2 * k] + math.sqrt(1 - c * c) * q[:, 2 * k + 1])
    got = mutual_coherence(matrix)
    assert got == pytest.approx(brute_force_coherence(matrix), rel=1e-12)
    assert got == pytest.approx(top, rel=1e-12)


def test_mutual_coherence_when_every_pair_ties():
    # x_j = a q_0 + b q_j: every pair has coherence a^2, so every pair is a candidate
    q = unitary(np.random.default_rng(8), 301)
    matrix = math.sqrt(0.3) * q[:, :1] + math.sqrt(0.7) * q[:, 1:]
    got = mutual_coherence(matrix)
    assert got == pytest.approx(brute_force_coherence(matrix), rel=1e-12)
    assert got == pytest.approx(0.3, rel=1e-12)


def test_mutual_coherence_all_candidate_worst_case():
    # a 1536 x 1536 unitary screens below twice the margin: the threshold is
    # negative and the exact pass sweeps the whole upper triangle in float64
    matrix = unitary(np.random.default_rng(9), 1536)
    tracemalloc.start()
    try:
        got = mutual_coherence(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got < 2 * _screen_margin(1536)
    assert got < 1e-10
    # rounding noise of the order of 1e-15: compared in absolute terms
    assert got == pytest.approx(dense_coherence(matrix), rel=0.0, abs=1e-14)
    # no copy of the whole matrix: two gathered T x 128 complex128 blocks
    # (3.1 MB each here) are the largest allocations
    assert peak < 12e6


def test_mutual_coherence_is_capped_at_one():
    # the float64 quotient of a (1 + 1e-9) multiple read 1 + 2^-52
    matrix = np.random.default_rng(0).standard_normal((50, 300))
    matrix[:, 7] = matrix[:, 200] * (1 + 1e-9)
    assert mutual_coherence(matrix) == 1.0
    matrix[:, 7] = matrix[:, 200]
    assert mutual_coherence(matrix) == 1.0


@pytest.mark.parametrize("n_rows", [17, 40, 200])
def test_the_head_bound_holds_within_the_screen_margin(n_rows):
    # |u_i^H u_j| <= |h_ij| + t_i t_j, with h_ij the complex64 product of the
    # head rows, is the premise of the head screen
    rng = np.random.default_rng(n_rows)
    matrix = random_complex(rng, n_rows, 300)
    matrix[:, 150:] = matrix[:, :150] + 0.2 * matrix[:, 150:]  # pairs near the bound
    unit = matrix / np.linalg.norm(matrix, axis=0)
    exact = np.abs(np.conj(unit.T) @ unit)
    head = unit[:_HEAD_ROWS].astype(np.complex64)
    tails = np.linalg.norm(unit[_HEAD_ROWS:], axis=0)
    bound = np.abs(np.conj(head.T) @ head) + np.outer(tails, tails)
    assert np.all(exact <= bound + _screen_margin(_HEAD_ROWS))
    # the sweep's float32 maxima of that bound, over j > i and i < j
    firsts = range(0, 300, _COHERENCE_BLOCK)
    row_bound, col_bound = dictionaries._screen_maxima(head, tails.astype(np.float32), firsts, [300] * len(firsts))
    upper = np.triu(exact, 1)
    assert np.all(upper.max(axis=1) <= row_bound + _screen_margin(_HEAD_ROWS) + 2.0**-21)
    assert np.all(upper.max(axis=0) <= col_bound + _screen_margin(_HEAD_ROWS) + 2.0**-21)


@pytest.mark.parametrize("head", ["zero", "shared"])
def test_mutual_coherence_when_the_head_rows_carry_nothing(head):
    # zero head rows, or head rows the same in every column: every pair's
    # bound reaches the maximum, so the head screen rules out no row
    rng = np.random.default_rng(21)
    matrix = random_complex(rng, 64, 300)
    matrix[:_HEAD_ROWS] = 0.0 if head == "zero" else matrix[:_HEAD_ROWS, :1]
    matrix[:, 250] = matrix[:, 30] + 0.05 * matrix[:, 250]
    got = mutual_coherence(matrix)
    assert got == pytest.approx(brute_force_coherence(matrix), rel=1e-12)
    assert got > 0.99


@pytest.mark.parametrize(
    "i, j, gap",
    [(3, 4, 1e-3), (10, 200, 1e-6), (127, 128, 1e-9), (0, 299, 1e-12)],
)
def test_mutual_coherence_finds_a_near_duplicate_that_differs_outside_the_head(i, j, gap):
    # the two columns share their head rows; their tails differ by ``gap``
    matrix = random_complex(np.random.default_rng(i + j), 40, 300)
    matrix[:, j] = matrix[:, i]
    matrix[_HEAD_ROWS:, j] += gap * random_complex(np.random.default_rng(j), 40 - _HEAD_ROWS, 1)[:, 0]
    assert mutual_coherence(matrix) == pytest.approx(brute_force_coherence(matrix), rel=1e-12)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    n_rows=st.sampled_from([1, 5, _HEAD_ROWS - 1, _HEAD_ROWS, _HEAD_ROWS + 1, 30, 64]),
    n_cols=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
    head=st.sampled_from(["random", "zero", "shared"]),
    gap=st.sampled_from([None, 0.0, 1e-9, 1e-4, 0.1]),
)
def test_the_head_screen_matches_brute_force_property(n_rows, n_cols, seed, head, gap):
    # T below, at and above the head rows; head rows that carry nothing; a
    # pair planted ``gap`` apart in the rows after the head
    rng = np.random.default_rng(seed)
    matrix = random_complex(rng, n_rows, n_cols)
    if n_rows > _HEAD_ROWS and head != "random":  # a zero head leaves no column zero
        matrix[:_HEAD_ROWS] = 0.0 if head == "zero" else matrix[:_HEAD_ROWS, :1]
    if gap is not None:
        i, j = rng.choice(n_cols, 2, replace=False)
        matrix[:, j] = matrix[:, i] * np.exp(1j * rng.uniform(0.0, 7.0))
        matrix[_HEAD_ROWS:, j] += gap * random_complex(rng, max(n_rows - _HEAD_ROWS, 0), 1)[:, 0]
    assert mutual_coherence(matrix) == pytest.approx(brute_force_coherence(matrix), rel=1e-12)


def _pairs_met(n_cols, starts, stops):
    """The pairs i < j that one ``_screen_maxima`` sweep with these spans meets."""
    count = 0
    for lo, start, stop in zip(range(0, n_cols, _COHERENCE_BLOCK), starts, stops):
        rows = np.arange(lo, min(lo + _COHERENCE_BLOCK, n_cols))
        count += int(np.clip(stop - np.maximum(rows + 1, start), 0, None).sum())
    return count


@pytest.mark.parametrize("t", [100, 200])
def test_the_polar_screen_runs_on_a_few_rows(cfg, t, monkeypatch):
    # the head screen of 16 rows, in angle order, meets each block's own
    # and next columns and a band beyond them, under 30% of all pairs; the
    # exact float64 pass then meets only the few columns that can hold the
    # maximum
    screens, passes = [], []
    sweep, exact = dictionaries._screen_maxima, dictionaries._exact_maximum

    def spy_sweep(screen, tails, starts, stops):
        screens.append((screen.shape, _pairs_met(screen.shape[1], starts, stops)))
        return sweep(screen, tails, starts, stops)

    def spy_exact(m, norms, candidates):
        passes.append(candidates.size)
        return exact(m, norms, candidates)

    monkeypatch.setattr(dictionaries, "_screen_maxima", spy_sweep)
    monkeypatch.setattr(dictionaries, "_exact_maximum", spy_exact)
    polar = build_polar_baseline(cfg, n_rings=6)
    sensing = gen_pilots(t, cfg.n_antennas, "gaussian", np.random.default_rng(7)) @ polar.matrix
    assert mutual_coherence(sensing) == pytest.approx(dense_coherence(sensing), rel=1e-13)
    assert [shape for shape, _ in screens] == [(_HEAD_ROWS, 1536)] * 2
    assert sum(pairs for _, pairs in screens) <= 0.3 * 1536 * 1535 / 2
    (n_candidates,) = passes
    assert 2 <= n_candidates <= 16


def _with_head_share(column, share):
    """``column`` with its head rows scaled to hold ``share`` of its unit energy."""
    head, tail = column[:_HEAD_ROWS], column[_HEAD_ROWS:]
    return np.concatenate(
        [head * math.sqrt(share) / np.linalg.norm(head), tail * math.sqrt(1 - share) / np.linalg.norm(tail)]
    )


@pytest.mark.parametrize("i, j", [(0, 599), (5, 300), (130, 520)])
@pytest.mark.parametrize("shares", [(0.25, 0.2501), (0.05, 0.45)], ids=["crowded", "spread"])
def test_the_band_finds_a_pair_far_apart_in_angle_order(i, j, shares, monkeypatch):
    # the heads hold from shares[0] to shares[1] of their column's energy,
    # rising in column order, so the angles sort in column order: crowded
    # within 1.2e-4 rad, or spread over 0.5 rad. Columns i and j, more than
    # two blocks apart in that order, share their shape, so their coherence
    # is cos(a_j - a_i), the angle bound itself. Columns 200 and 201 read
    # 1e-7 below it, so the neighbouring blocks give a tau just below the
    # maximum, and (spread) the band reaches j only from i's block's last row
    rng = np.random.default_rng(i + j)
    shares = np.linspace(*shares, 600)
    matrix = random_complex(rng, 64, 600)
    matrix[:, j] = np.exp(0.4j) * matrix[:, i]
    matrix = np.stack([_with_head_share(matrix[:, c], f) for c, f in enumerate(shares)], axis=1)
    top = math.sqrt(shares[i] * shares[j]) + math.sqrt((1 - shares[i]) * (1 - shares[j]))
    # column 201: column 200's head, and a tail at the cosine that gives top - 1e-7
    f0, f1 = shares[200], shares[201]
    c = (top - 1e-7 - math.sqrt(f0 * f1)) / math.sqrt((1 - f0) * (1 - f1))
    tail = matrix[_HEAD_ROWS:, 200] / np.linalg.norm(matrix[_HEAD_ROWS:, 200])
    other = matrix[_HEAD_ROWS:, 201] - np.vdot(tail, matrix[_HEAD_ROWS:, 201]) * tail
    matrix[:_HEAD_ROWS, 201] = matrix[:_HEAD_ROWS, 200] * math.sqrt(f1 / f0)
    matrix[_HEAD_ROWS:, 201] = math.sqrt(1 - f1) * (c * tail + math.sqrt(1 - c * c) * other / np.linalg.norm(other))
    spans = []
    sweep = dictionaries._screen_maxima

    def spy_sweep(screen, tails, starts, stops):
        spans.append(_pairs_met(screen.shape[1], starts, stops))
        return sweep(screen, tails, starts, stops)

    monkeypatch.setattr(dictionaries, "_screen_maxima", spy_sweep)
    got = mutual_coherence(matrix)
    assert got == pytest.approx(dense_coherence(matrix), rel=1e-13)
    assert got == pytest.approx(top, rel=1e-13)
    assert dense_coherence(np.delete(matrix, j, axis=1)) == pytest.approx(top - 1e-7, rel=1e-13)
    assert spans[1] > 0  # the band, not the neighbouring blocks, met the pair


@pytest.mark.parametrize("n_rows", [17, 40, 200])
def test_the_angle_bound_holds(n_rows):
    # |u_i^H u_j| <= s_i s_j + t_i t_j = cos(a_i - a_j), with a = atan2(s, t)
    # of the head and tail norms, is the premise of the band: pairs further
    # apart in angle than the threshold allows are skipped
    rng = np.random.default_rng(n_rows)
    matrix = random_complex(rng, n_rows, 300)
    matrix[:, 150:] = matrix[:, :150] + 0.2 * matrix[:, 150:]  # pairs near the bound
    matrix[:, 299] = 3j * matrix[:, 0]  # a pair at the bound
    unit = matrix / np.linalg.norm(matrix, axis=0)
    exact = np.abs(np.conj(unit.T) @ unit)
    head = np.linalg.norm(matrix[:_HEAD_ROWS], axis=0)
    tail = np.linalg.norm(matrix[_HEAD_ROWS:], axis=0)
    angles = np.arctan2(head, tail)
    i, j = np.triu_indices(300, 1)
    assert np.all(exact[i, j] <= np.cos(angles[i] - angles[j]) + 1e-15)  # float64 rounding


def test_mutual_coherence_of_columns_beyond_the_complex64_range():
    # a plain complex64 cast would overflow the 1e150 columns and flush the
    # 1e-150 ones to zero; the most coherent pair, 9 and 250, spans that range
    rng = np.random.default_rng(150)
    base = random_complex(rng, 24, 300)
    base[:, 250] = 0.8 * base[:, 9] + 0.2 * base[:, 250]
    matrix = base * np.tile([1e150, 1e-150, 1.0], 100)
    with np.errstate(over="ignore"):
        assert np.isinf(matrix[:, 9].astype(np.complex64)).any()
    assert not matrix[:, 250].astype(np.complex64).any()
    got = mutual_coherence(matrix)
    assert got == pytest.approx(brute_force_coherence(matrix), rel=1e-12)
    assert got == pytest.approx(mutual_coherence(base), rel=1e-12)


@pytest.mark.parametrize(
    "scale",
    [1e160, 1e-170, 1e-160, 1e300, 1e-300, 2.0**600, 2.0**-600],
    ids=["1e160", "1e-170", "1e-160", "1e300", "1e-300", "2^600", "2^-600"],
)
def test_mutual_coherence_is_scale_invariant_beyond_the_squared_range(scale):
    # the squares of these entries overflow or fall below the normal range;
    # a power-of-two scale leaves every rounded result unchanged
    matrix = random_complex(np.random.default_rng(0), 8, 5)
    unscaled = mutual_coherence(matrix)
    got = mutual_coherence(matrix * scale)
    if math.frexp(scale)[0] == 0.5:
        assert got == unscaled
    else:
        assert got == pytest.approx(unscaled, rel=1e-14)
    mixed = matrix.copy()
    mixed[:, 1] *= scale
    assert mutual_coherence(mixed) == pytest.approx(unscaled, rel=1e-14)


def test_mutual_coherence_of_zero_and_subnormal_columns():
    # a zero column stays an error after rescaling; a column of the smallest
    # subnormal is a scaled copy of a column of ones
    matrix = random_complex(np.random.default_rng(0), 8, 5)
    matrix[:, 2] = 0.0
    with pytest.raises(ValueError, match="zero columns"):
        mutual_coherence(matrix)
    matrix[:, 2] = 5e-324
    matrix[:, 3] = 1.0
    assert mutual_coherence(matrix) == pytest.approx(1.0, rel=1e-15)


def test_mutual_coherence_of_columns_whose_scales_span_past_the_float_range():
    # one power of two for the whole matrix would flush the 1e-300 columns to
    # zero; each column's own shift, read from the columns as given, keeps them
    rng = np.random.default_rng(0)
    matrix = np.c_[1e300 * rng.standard_normal((8, 3)), 1e-300 * rng.standard_normal((8, 2))] + 0j
    per_column = dictionaries.complex_ldexp(matrix, dictionaries.unit_exponent(matrix, axis=0))
    assert mutual_coherence(matrix) == mutual_coherence(per_column)
    # so do the columns of a dictionary, which its products read kept
    # scaled by one power of two
    pilots = random_complex(rng, 6, 8)
    expected = mutual_coherence(pilots @ per_column)
    assert mutual_coherence(Dictionary(matrix).sensing_operator(pilots)) == pytest.approx(expected, rel=1e-13)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(
    n_rows=st.integers(1, 40),
    n_cols=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    duplicate=st.booleans(),
)
def test_mutual_coherence_matches_brute_force_property(n_rows, n_cols, seed, duplicate):
    rng = np.random.default_rng(seed)
    matrix = random_complex(rng, n_rows, n_cols)
    if duplicate:
        i, j = rng.choice(n_cols, 2, replace=False)
        matrix[:, j] = matrix[:, i] * np.exp(1j * rng.uniform(0.0, 7.0))
    matrix *= 10.0 ** rng.uniform(-150.0, 150.0, n_cols)
    assert mutual_coherence(matrix) == pytest.approx(brute_force_coherence(matrix), rel=1e-12)


def test_parseval_on_sampled_channels(cfg):
    d = build_dmu(cfg, 20.0)
    for seed in range(10):
        spec = sample_channel(cfg, 3, seed=seed)
        h = synthesize_channel(cfg, spec)
        assert np.linalg.norm(analyze(d, h)) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_dictionary_matrix_immutable(cfg):
    for d in (build_dmu(cfg, 20.0), build_dft(cfg), build_polar_baseline(cfg, n_rings=3)):
        matrix = d.matrix  # the chirped kinds build it here, on first access
        assert d.matrix is matrix
        with pytest.raises(ValueError):
            d.matrix[0, 0] = 0.0
        with pytest.raises(ValueError):
            matrix[:, 1] *= 2.0


@pytest.mark.parametrize("n", [2, 255, 256, 2048])
@pytest.mark.parametrize("kind", ["dmu", "dft"])
def test_fft_products_match_dense_matrix(kind, n):
    # unit-scale inputs: pilots as gen_pilots draws them, unit-norm vectors;
    # the dense matrix itself carries rounding of order eps * N in its phases
    cfg_n = ArrayConfig(carrier_freq=100e9, n_antennas=n)
    d = build_dmu(cfg_n, 20.0) if kind == "dmu" else build_dft(cfg_n)
    dense = d.matrix
    rng = np.random.default_rng(n)
    pilots = gen_pilots(40, n, seed=rng)
    np.testing.assert_allclose(d.sensing_operator(pilots).read(slice(None)), pilots @ dense, rtol=0, atol=1e-12)
    rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    np.testing.assert_allclose(d.transform(rows), rows @ np.conj(dense), rtol=0, atol=1e-12)
    np.testing.assert_allclose(d.inverse_transform(rows), rows @ dense.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d.transform(rows[2]), np.conj(dense.T) @ rows[2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(d.inverse_transform(rows[2]), dense @ rows[2], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 255, 2048])
@pytest.mark.parametrize("kind", ["dmu", "dft"])
def test_sense_leaves_the_pilots_and_matches_the_out_of_place_fft(kind, n):
    # sensing_operator transforms its chirped copy of the pilots in place; the caller's
    # array is untouched and the bytes are those of a separate output array
    cfg_n = ArrayConfig(carrier_freq=100e9, n_antennas=n)
    d = build_dmu(cfg_n, 20.0) if kind == "dmu" else build_dft(cfg_n)
    pilots = gen_pilots(40, n, seed=n)
    before = pilots.copy()
    sensed = d.sensing_operator(pilots).read(slice(None))
    assert pilots.tobytes() == before.tobytes()
    expected = np.fft.ifft(pilots * d._chirp, axis=1, norm="ortho")
    assert sensed.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 255, 2048])
@pytest.mark.parametrize("kind", ["dmu", "dft"])
def test_sense_with_overwrite_forms_the_same_bytes_in_the_pilots(kind, n):
    # the chirp multiply and the FFT write into the pilots' own buffer: the
    # product is the copying call's to the bit, and its T x N output array
    # is not allocated
    cfg_n = ArrayConfig(carrier_freq=100e9, n_antennas=n)
    d = build_dmu(cfg_n, 20.0) if kind == "dmu" else build_dft(cfg_n)
    pilots = gen_pilots(40, n, seed=n)
    peaks = []
    for overwrite in (False, True):
        tracemalloc.start()
        try:
            sensed = d.sensing_operator(pilots, overwrite=overwrite).read(slice(None))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if not overwrite:
            expected = sensed
    assert sensed.tobytes() == expected.tobytes()
    assert np.shares_memory(sensed, pilots)
    assert peaks[0] - peaks[1] >= pilots.nbytes


def test_overwrite_leaves_read_only_and_dense_pilots_alone(cfg):
    pilots = gen_pilots(20, 256, seed=3)
    before = pilots.copy()
    pilots.setflags(write=False)
    dmu = build_dmu(cfg, 20.0)
    sensed = dmu.sensing_operator(pilots, overwrite=True).read(slice(None))
    assert sensed.tobytes() == dmu.sensing_operator(before).read(slice(None)).tobytes()
    # a dense dictionary's product reads the pilots for the whole fit
    pilots = before.copy()
    product = build_polar_baseline(cfg, 2).sensing_operator(pilots, overwrite=True)
    assert pilots.tobytes() == before.tobytes()
    assert np.shares_memory(product.pilots, pilots)


def _race(read, n_threads=4):
    """``read()`` from ``n_threads`` threads released together by a barrier,
    with the interpreter switching threads every microsecond."""
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def reader(k):
        barrier.wait()
        results[k] = read()

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def _counting(fn, calls):
    # a slow build: without the lock every reader would be inside it at once
    def counted(*args, **kwargs):
        calls.append(1)
        time.sleep(0.05)
        return fn(*args, **kwargs)

    return counted


def test_row_gram_range_is_built_once_by_racing_threads(cfg, monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", _counting(np.linalg.eigvalsh, calls))
    polar = build_polar_baseline(cfg, 2)
    results = _race(lambda: polar.row_gram_range)
    assert len(calls) == 1
    assert all(r is results[0] for r in results)


def test_chirped_matrix_is_built_once_by_racing_threads(cfg, monkeypatch):
    import nfcs.dictionaries as dictionaries

    calls = []
    monkeypatch.setattr(dictionaries, "_steering_columns", _counting(dictionaries._steering_columns, calls))
    dmu = build_dmu(cfg, 20.0)
    results = _race(lambda: dmu.matrix)
    assert len(calls) == 1
    assert all(r is results[0] for r in results)
    # the row Gram reads the matrix under the same (reentrant) lock
    assert _race(lambda: build_dmu(cfg, 20.0).row_gram_range)[0][1] == pytest.approx(1.0)
