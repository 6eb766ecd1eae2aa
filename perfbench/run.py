"""Benchmark of the nfcs Monte Carlo harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src``. One
run starts a measuring process (``worker.py``) with BLAS pinned to one
thread, which runs the workload's passes through ``nfcs.harness.run`` with
tracing off for ``--seconds`` seconds, checks every pass's rows against the
committed reference tables and times the estimator probe. With ``--trace 1``
it then alternates untraced passes with passes that have spans around the
library's public functions, for a quarter as long. Set-up time is the
median of several fresh interpreters (``setup_probe.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A machine record and the raw samples go to
``.perfbench_out/`` in the repository root.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: the only count that is at most nproc on every machine,
# and the steadiest on a shared box.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = {
    "run_s": "s",
    "trials_per_s": "1/s",
    "estimate_ms_p50": "ms",
    "estimate_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for span in tracing.TARGETS:
        units.update({f"{span}.calls": "count", f"{span}.busy_s": "s", f"{span}.self_s": "s"})
    units.update({
        f"{tracing.FIT}.iters": "count",
        f"{tracing.FIT}.us_per_iter": "us",
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER = per_layer_units()


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_level(n: int):
    """Highest listed percentile with at least TAIL_BEYOND of ``n`` samples beyond it."""
    return next((q for q in TAIL_LEVELS if n * (100.0 - q) / 100.0 >= TAIL_BEYOND), None)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def source_record() -> dict:
    """Digest of the package sources, plus the git commit when there is one."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nfcs").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_child(args, deadline: float) -> str:
    """Standard output of a child process; raises RuntimeError if it fails."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def measure(args, deadline: float):
    worker = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        worker.append("--smoke")
    if args.trace:
        worker += ["--spans-out", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    result = json.loads(run_child(worker, deadline).strip().splitlines()[-1])
    repeats = 1 if args.smoke else SETUP_REPEATS
    result["setup_s"] = [
        [float(v) for v in run_child([str(HERE / "setup_probe.py"), args.workload],
                                     deadline).split()[-2:]]
        for _ in range(repeats)
    ]
    return result


def scaled(timings) -> list:
    """Times multiplied by their speed factors: ``[[wall, factor], ...]`` to seconds."""
    return [wall * factor for wall, factor in timings]


def end_to_end(res) -> tuple:
    """End-to-end metric values and a one-line explanation of each."""
    untraced = res["passes"]["untraced"]
    passes = scaled(untraced)
    run_s = statistics.median(passes)
    est_ms = [1e3 * s for s in scaled(zip(res["estimate_s"], res["estimate_factor"]))]
    level = tail_level(len(est_ms))
    tail = percentile(est_ms, level) if level is not None else max(est_ms)
    tail_label = f"p{level:g}" if level is not None else "max"
    setup = scaled(res["setup_s"])
    values = {
        "run_s": run_s,
        "trials_per_s": res["draws"] / run_s,
        "estimate_ms_p50": statistics.median(est_ms),
        "estimate_ms_tail": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    why = {
        "run_s": f"median of {len(passes)} passes, max {max(passes):.4f} s; wall median "
                 f"{statistics.median(w for w, _ in untraced):.4f} s at speed factor "
                 f"{statistics.median(f for _, f in untraced):.3f}",
        "trials_per_s": f"{res['draws']} draws per pass / run_s",
        "estimate_ms_p50": f"{len(est_ms)} estimates over {res['estimate_problems']} problems",
        "estimate_ms_tail": f"{tail_label}, {len(est_ms)} samples",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "peak RSS of the measuring process after one pass",
    }
    return values, why


def per_layer(res) -> dict:
    """Medians over traced passes of each span's calls, busy and self time.

    Span times are wall seconds. The tracing overhead is the median
    difference between each traced pass and the untraced pass just before
    it, speed-scaled like ``run_s``.
    """
    layers = res["layers"]
    values = {}
    for span in tracing.TARGETS:
        for field in ("calls", "busy_s", "self_s"):
            values[f"{span}.{field}"] = statistics.median(
                p["spans"].get(span, {}).get(field, 0) for p in layers)
    values[f"{tracing.FIT}.iters"] = statistics.median(p["fit_iters"] for p in layers)
    values[f"{tracing.FIT}.us_per_iter"] = statistics.median(
        1e6 * p["spans"][tracing.FIT]["busy_s"] / p["fit_iters"] if p["fit_iters"] else 0.0
        for p in layers)
    untraced = scaled(res["passes"]["paired"])
    traced = scaled(res["passes"]["traced"])
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(untraced)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="untraced measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two trials per grid point, no reference check (tests the benchmark)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "nfcs" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'nfcs'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        res = measure(args, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in res["notes"]:
        print(f"note: {note}", file=sys.stderr)

    record = {"args": vars(args), "machine": res["machine"], "source": source_record()}
    print("machine " + json.dumps({**record["machine"], **record["source"]}))
    passes = res["passes"]
    completed = bool(passes["untraced"]) and (not args.trace or bool(passes.get("traced")))
    metrics = {}
    if completed:
        values, why = end_to_end(res)
        print(f"{args.workload} seed {args.seed}: {res['draws']} draws per pass, "
              f"BLAS threads {BLAS_THREADS}")
        for name, unit in END_TO_END.items():
            print(f"  {name:<18} {values[name]:>12.6g} {unit:<5} {why[name]}")
            metrics[name] = {"value": values[name], "unit": unit}
        rows_failed, rows = res["rows_failed"], res["rows_attempted"]
        print(f"  {'failed_frac':<18} {rows_failed / max(rows, 1):>12.6g} {'':<5} "
              f"{rows_failed} of {rows} result rows outside tolerance")
        if args.trace:
            layer = per_layer(res)
            print(f"  traced: {len(passes['traced'])} passes; per-layer medians per pass")
            for name, unit in PER_LAYER.items():
                print(f"    {name:<48} {layer[name]:>12.6g} {unit}")
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
    record.update(metrics=metrics, raw=res)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    failed = res["failed"]
    print(json.dumps({
        "correct": completed and failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
