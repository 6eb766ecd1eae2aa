"""Golden tables that pin the steering and dictionary paths.

The CSVs in ``tests/golden/`` were emitted by the code as it stood before the
sparsity runner and the polar baseline were routed through
``geometry._element_delay``. Each one is the output of
``emit(run(ExperimentConfig(**GOLDEN[name])), "csv", path)``.

``sparsity_level`` must match byte for byte. The other two tables were
emitted while the chirped dictionaries were still dense matrices; their
sensing matrices are now formed by FFT, which moves the last bits of the
values (at most 1.8e-13 relative on ``nmse_vs_snr`` and 1.1e-14 on
``mutual_coherence``). Their rows are compared field by field: every label,
the trial count, the seed and the config hash exactly, the value within
``VALUE_RTOL``.

``mutual_coherence_desk`` has the desk shape (N = 256, T = 100 and 200) and
was emitted while ``mutual_coherence`` still swept the whole Gram in float64;
the head screen and the float64 pass over its candidates move its values by a
few ulps (at most 6e-16 relative when it was pinned, 4.4e-16 since).

``block_size_sweep``, ``nmse_vs_T`` and ``nmse_vs_mu0`` were emitted before
the NMSE sweeps drew each trial once for all block sizes. The first and the
last match byte for byte. ``nmse_vs_T`` was emitted while least squares
still went through LAPACK's ``lstsq``; it now shares BlockOMP's eigh kernel,
which moved its ``ls`` rows by at most 1.7e-12 relative, so it is compared
within ``VALUE_RTOL``. At this shape the kernel gives the same bytes with one
or two BLAS threads.

``coherence_error`` and ``rip_probe`` were emitted before the effective
distance, the (a, b) phase pair and the nonzero count were each written once
for the analytics; both match byte for byte.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nfcs
from nfcs.geometry import ArrayConfig, _element_delay, _steering, near_steering
from nfcs.harness import ExperimentConfig, emit, parse_rows, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BYTE_EXACT = ("sparsity_level", "block_size_sweep", "nmse_vs_mu0", "coherence_error", "rip_probe")
VALUE_RTOL = 1e-9

GOLDEN = {
    "sparsity_level": dict(kind="sparsity_level", seed=3, n_list=(256, 512), trials=40),
    "mutual_coherence": dict(kind="mutual_coherence", seed=3, t_list=(60,), trials=3),
    "mutual_coherence_desk": dict(kind="mutual_coherence", seed=3, t_list=(100, 200), trials=3),
    "nmse_vs_snr": dict(
        kind="nmse_vs_snr",
        seed=3,
        snr_db_list=(0.0, 10.0),
        n_measurements=80,
        methods=("dmu_block_omp", "polar_omp"),
        trials=3,
    ),
    "block_size_sweep": dict(
        kind="block_size_sweep",
        seed=3,
        block_size_list=(4, 8),
        snr_db_list=(0.0, 10.0),
        n_measurements=80,
        methods=("dmu_block_omp", "polar_omp"),
        trials=3,
    ),
    "nmse_vs_T": dict(
        kind="nmse_vs_T", seed=3, n_antennas=64, t_list=(64, 96), methods=("dft_omp", "ls"), trials=3
    ),
    "nmse_vs_mu0": dict(
        kind="nmse_vs_mu0",
        seed=3,
        mu0_bins=(6.0, 50.0),
        n_measurements=100,
        snr_db=12.0,
        mu0_bin_tolerance=1.1,
        trials=3,
    ),
    "coherence_error": dict(kind="coherence_error", seed=3, n_list=(64, 256), trials=40),
    "rip_probe": dict(
        kind="rip_probe", seed=3, n_antennas=64, t_list=(32, 64), rip_block_size=8, rip_k=2, trials=50
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emit_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    emit(run(ExperimentConfig(**GOLDEN[name])), "csv", str(out))
    golden = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    if name in BYTE_EXACT:
        assert out.read_bytes() == golden
        return
    got = parse_rows(out.read_text())
    expected = parse_rows(golden.decode())
    assert len(got) == len(expected)
    for row, ref in zip(got, expected):
        assert replace(row, value=ref.value) == ref
        assert row.value == pytest.approx(ref.value, rel=VALUE_RTOL, abs=0.0)


def test_least_squares_rows_do_not_depend_on_the_blas_thread_count():
    code = (
        "import sys; from nfcs.harness import ExperimentConfig, emit, run; "
        f"sys.stdout.write(emit(run(ExperimentConfig(**{GOLDEN['nmse_vs_T']!r})), 'csv', '-'))"
    )
    src = str(Path(nfcs.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert b",ls," in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", ["exact", "taylor"])
def test_element_delay_batch_equals_scalar_columns(mode):
    cfg = ArrayConfig(carrier_freq=100e9, n_antennas=512)
    offsets = np.arange(cfg.n_antennas) * cfg.spacing
    rng = np.random.default_rng(5)
    sin_t = rng.uniform(-1.0, 1.0, 16)
    r = rng.uniform(3.0, 400.0, 16)
    if mode == "taylor":
        r[-1] = math.inf
    batch = _element_delay(sin_t, r, offsets[:, None], mode)
    assert batch.shape == (cfg.n_antennas, 16)
    # the steering kernel batched over the same sources, at the sines that
    # near_steering takes of their angles
    theta = [math.asin(s) for s in sin_t]
    responses = _steering(cfg, np.array([math.sin(t) for t in theta]), r, mode)
    assert responses.shape == (cfg.n_antennas, 16)
    for j in range(16):
        column = _element_delay(float(sin_t[j]), float(r[j]), offsets, mode)
        assert batch[:, j].tobytes() == column.tobytes()
        if mode == "exact":
            single = near_steering(cfg, theta[j], float(r[j]))
        else:
            single = _steering(cfg, math.sin(theta[j]), float(r[j]), mode)
        assert responses[:, j].tobytes() == single.tobytes()
