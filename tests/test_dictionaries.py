import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcs import (
    ArrayConfig,
    analyze,
    build_dft,
    build_dmu,
    build_polar_baseline,
    dft_grid,
    export_dictionary,
    field_boundaries,
    gen_pilots,
    load_dictionary_matrix,
    mutual_coherence,
    near_steering,
    sample_channel,
    synthesize_channel,
)
from nfcs.dictionaries import _screen_margin


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
    assert dft.kind == "dft"


def test_dmu_columns_are_steering_vectors(cfg):
    mu = 20.0
    d = build_dmu(cfg, mu)
    grid = dft_grid(256)
    for col in (0, 100, 255):
        theta = math.asin(grid[col])
        r = mu * math.cos(theta) ** 2
        expected = near_steering(cfg, theta, r, mode="taylor")
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


def test_polar_single_ring_is_dft(cfg):
    polar = build_polar_baseline(cfg, n_rings=1)
    dft = build_dft(cfg)
    np.testing.assert_array_equal(polar.matrix, dft.matrix)


def test_polar_shape_and_norms(cfg):
    polar = build_polar_baseline(cfg, n_rings=6)
    assert polar.matrix.shape == (256, 6 * 256)
    np.testing.assert_allclose(np.linalg.norm(polar.matrix, axis=0), 1.0, atol=1e-12)
    assert polar.radii is not None and polar.radii.size == 6 * 256
    assert math.isinf(polar.radii[0])


def test_polar_ring_distances(cfg):
    fresnel, rayleigh = field_boundaries(cfg)
    polar = build_polar_baseline(cfg, n_rings=3, distance_range=(fresnel, rayleigh))
    radii = np.unique(polar.radii[np.isfinite(polar.radii)])
    inv = np.sort(1.0 / radii)
    np.testing.assert_allclose(inv, [1 / rayleigh, 1 / fresnel], rtol=1e-12)


def test_polar_ring_columns_are_steering_vectors(cfg):
    polar = build_polar_baseline(cfg, n_rings=3)
    grid = dft_grid(cfg.n_antennas)
    for col in (256, 300, 511, 512, 700, 767):
        expected = near_steering(cfg, math.asin(grid[col % 256]), polar.radii[col], "taylor")
        np.testing.assert_allclose(polar.matrix[:, col], expected, atol=1e-12)


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


@pytest.mark.parametrize("t", [100, 200])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutual_coherence_matches_dense_gram_on_polar_sensing(cfg, t, seed):
    polar = build_polar_baseline(cfg, n_rings=6)
    pilots = gen_pilots(t, cfg.n_antennas, "gaussian", np.random.default_rng(seed))
    sensing = polar.sense(pilots)
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
    # the complex64 copy of the normalised columns (18.9 MB here) is the one
    # allocation that scales with the input; beyond it the bound of
    # test_mutual_coherence_never_forms_the_gram holds
    assert peak < 12e6 + matrix.size * np.dtype(np.complex64).itemsize


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


def test_export_round_trip(cfg, tmp_path):
    d = build_dmu(cfg, 20.0)
    path = tmp_path / "dict.bin"
    export_dictionary(d, path)
    raw = path.read_bytes()
    assert raw[:4] == b"NFCS"
    assert int.from_bytes(raw[4:8], "little") == 256
    assert int.from_bytes(raw[8:12], "little") == 256
    assert len(raw) == 16 + 256 * 256 * 8  # header + complex64 payload
    loaded = load_dictionary_matrix(path)
    # complex64 round trip keeps single precision
    np.testing.assert_allclose(loaded, d.matrix, atol=1e-6)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(ValueError):
        load_dictionary_matrix(path)


def _exported(tmp_path):
    d = build_dmu(ArrayConfig(carrier_freq=100e9, n_antennas=4), 20.0)
    path = tmp_path / "dict.bin"
    export_dictionary(d, path)
    return path, path.read_bytes()


@pytest.mark.parametrize("size", [0, 3, 15])
def test_load_rejects_a_file_shorter_than_the_header(tmp_path, size):
    path = tmp_path / "short.bin"
    path.write_bytes((b"NFCS" + b"\x00" * 12)[:size])
    with pytest.raises(ValueError, match=f"expected a 16-byte header, got {size} bytes"):
        load_dictionary_matrix(path)


@pytest.mark.parametrize("change", [-128, -1, 1, 17])
def test_load_rejects_a_payload_of_the_wrong_size(tmp_path, change):
    path, raw = _exported(tmp_path)
    raw = raw[:change] if change < 0 else raw + b"\x00" * change
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"needs a 128-byte payload, got {128 + change} bytes"):
        load_dictionary_matrix(path)


def test_failed_export_keeps_the_old_file(cfg, tmp_path, monkeypatch):
    path, raw = _exported(tmp_path)

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="simulated"):
        export_dictionary(build_dft(cfg), path)
    assert path.read_bytes() == raw
    assert [p.name for p in tmp_path.iterdir()] == ["dict.bin"]


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
    np.testing.assert_allclose(d.sense(pilots), pilots @ dense, rtol=0, atol=1e-12)
    rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    np.testing.assert_allclose(d.transform(rows), rows @ np.conj(dense), rtol=0, atol=1e-12)
    np.testing.assert_allclose(d.inverse_transform(rows), rows @ dense.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d.transform(rows[2]), np.conj(dense.T) @ rows[2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(d.inverse_transform(rows[2]), dense @ rows[2], rtol=0, atol=1e-12)
