import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import pytest

from nfcs.harness import ResultRow, emit

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "table_drift.py"


@pytest.fixture(scope="module")
def table_drift():
    spec = importlib.util.spec_from_file_location("table_drift", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


ROWS = [
    ResultRow("nmse_vs_snr", method, f"snr={snr}dB", "nmse", value, 100, 1, "abc123")
    for method, values in (("dmu_block_omp", (0.21, 0.13)), ("polar_omp", (0.17, 0.11)))
    for snr, value in zip((0, 5), values)
] + [ResultRow("nmse_vs_snr", "ls", "snr=0dB", "nmse", math.nan, 100, 1, "abc123")]


def _tables(tmp_path, new_rows, name="nmse-vs-snr.csv"):
    """Directories ``old`` and ``new``, each with one table and an unchanged second one."""
    dirs = []
    for label, rows in (("old", ROWS), ("new", new_rows)):
        out = tmp_path / label
        out.mkdir(parents=True)
        emit(rows, "csv", str(out / name))
        emit(ROWS[:1], "csv", str(out / "other.csv"))
        dirs.append(str(out))
    return dirs


def test_unchanged_tables_pass(tmp_path, table_drift, capsys):
    assert table_drift(_tables(tmp_path, ROWS)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "nmse-vs-snr.csv: 0 of 5 values moved, max relative drift 0",
        "other.csv: 0 of 1 values moved, max relative drift 0",
    ]


def test_last_bit_drift_is_counted_and_passes(tmp_path, table_drift, capsys):
    moved = list(ROWS)
    moved[3] = replace(moved[3], value=0.11 * (1 + 3e-12))
    assert table_drift(_tables(tmp_path, moved)) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "nmse-vs-snr.csv: 1 of 5 values moved (polar_omp), max relative drift 3e-12"


@pytest.mark.parametrize(
    "change",
    [
        dict(value=0.11 * (1 + 2e-9)),
        dict(method="dft_omp"),
        dict(grid="snr=10dB"),
        dict(trials=99),
        dict(seed=2),
        dict(config_hash="abc124"),
    ],
    ids=lambda change: next(iter(change)),
)
def test_a_changed_row_fails(tmp_path, table_drift, capsys, change):
    changed = list(ROWS)
    changed[3] = replace(changed[3], **change)
    assert table_drift(_tables(tmp_path, changed)) == 1
    assert "nmse-vs-snr.csv: FAIL: " in capsys.readouterr().out


def test_a_missing_row_or_table_fails(tmp_path, table_drift, capsys):
    assert table_drift(_tables(tmp_path / "rows", ROWS[:-1])) == 1
    assert "nmse-vs-snr.csv: FAIL: 5 rows became 4" in capsys.readouterr().out
    old, new = _tables(tmp_path / "tables", ROWS, name="renamed.csv")
    Path(new, "renamed.csv").rename(Path(new, "nmse-vs-snr.csv"))
    assert table_drift([old, new]) == 1
    out = capsys.readouterr().out
    assert f"renamed.csv: FAIL: missing from {new}" in out
    assert f"nmse-vs-snr.csv: FAIL: missing from {old}" in out
    (tmp_path / "empty").mkdir()
    assert table_drift([str(tmp_path / "empty"), str(tmp_path / "empty")]) == 1
