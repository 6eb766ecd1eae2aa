"""Smoke tests of the benchmark itself, at two trials per grid point.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    text = "\n".join(lines[:-1])
    for m in SPEC["end_to_end"]:
        line = re.search(rf"^\s+{re.escape(m['name'])}\s+(\S+)\s+{re.escape(m['unit'])}\s",
                         text, re.M)
        assert line, f"{m['name']} not printed with unit {m['unit']}"
        assert float(line.group(1)) > 0
    if trace:
        for name, unit in expected.items():
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", text, re.M)


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_absent_target_is_noted_not_fatal(monkeypatch):
    import nfcs.harness

    monkeypatch.setitem(tracing.TARGETS, "harness.renamed", ("nfcs.harness", "no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer.notes) == 1 and tracer.notes[0].startswith("harness.renamed:")
        assert nfcs.harness.run.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(nfcs.harness.run, "__wrapped__")


def test_self_time_excludes_child_spans():
    spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
             ["leaf", 2.0, 3.0, 1]]
    summary = tracing.summarize(spans)
    assert summary["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert summary["leaf"]["self_s"] == 1.0
