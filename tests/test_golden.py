"""Golden tables that pin the steering and dictionary paths byte for byte.

The CSVs in ``tests/golden/`` were emitted by the code as it stood before the
sparsity runner and the polar baseline were routed through
``geometry._element_delay``. Each one is the output of
``emit(run(ExperimentConfig(**GOLDEN[name])), "csv", path)``; a change of
arithmetic anywhere on those paths shows up as a byte difference here.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from nfcs.geometry import ArrayConfig, _element_delay
from nfcs.harness import ExperimentConfig, emit, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = {
    "sparsity_level": dict(kind="sparsity_level", seed=3, n_list=(256, 512), trials=40),
    "mutual_coherence": dict(kind="mutual_coherence", seed=3, t_list=(60,), trials=3),
    "nmse_vs_snr": dict(
        kind="nmse_vs_snr",
        seed=3,
        snr_db_list=(0.0, 10.0),
        n_measurements=80,
        methods=("dmu_block_omp", "polar_omp"),
        trials=3,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emit_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    emit(run(ExperimentConfig(**GOLDEN[name])), "csv", str(out))
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


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
    for j in range(16):
        column = _element_delay(float(sin_t[j]), float(r[j]), offsets, mode)
        assert batch[:, j].tobytes() == column.tobytes()
