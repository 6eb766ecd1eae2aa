"""Measuring process of the benchmark; ``run.py`` starts it with BLAS pinned.

It runs the workload's passes through ``nfcs.harness.run`` (plus ``emit``,
as the command line does), checks every pass's rows, times the estimator
probe and, with ``--trace 1``, repeats the passes with spans installed. The
last line of its standard output is one JSON object with the raw samples.
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

import nfcs
from nfcs import harness

import tracing
import workloads
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
NMSE_RTOL = 1e-3
RTOL = 1e-9
ATOL = 1e-12


def _key(row):
    return (row[0], row[1], row[2], row[3])


def _as_rows(result_rows):
    """ResultRow objects as (experiment, method, grid, metric, value, trials, seed) lists.

    The config hash is left out: it changes whenever a field is added to
    ExperimentConfig, which does not change any result.
    """
    return [[r.experiment, r.method, r.grid, r.metric, r.value, r.trials, r.seed]
            for r in result_rows]


def failing_keys(rows, expected, exact=False) -> set:
    """Keys of expected rows that ``rows`` misses or gets wrong, plus extra keys.

    With ``exact`` every field must be identical; otherwise values may differ
    by the stated tolerance: relative 1e-3 for the NMSE metrics (one solver
    tie broken differently in one trial), relative 1e-9 for all others
    (reassociated floating-point sums), on top of an absolute 1e-12.
    """
    got = {_key(r): r for r in rows}
    bad = set(got) - {_key(e) for e in expected}
    for e in expected:
        r = got.get(_key(e))
        if r is None or r[5:] != e[5:]:
            bad.add(_key(e))
            continue
        if exact:
            ok = r[4] == e[4]
        else:
            rtol = NMSE_RTOL if e[3].startswith("nmse_") else RTOL
            ok = abs(r[4] - e[4]) <= ATOL + rtol * abs(e[4])
        if not ok:
            bad.add(_key(e))
    return bad


class Checker:
    """Counts result rows attempted and failed over all passes of a run.

    Every pass is compared exactly with the first untraced pass (runs repeat
    bit for bit, and spans change nothing). Where a reference table exists
    for the seed, every pass is also compared with it within tolerance.
    """

    def __init__(self, reference):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, rows):
        if self.first is None:
            self.first = rows
        bad = failing_keys(rows, self.first, exact=True)
        expected = self.first
        if self.reference is not None:
            bad |= failing_keys(rows, self.reference)
            expected = self.reference
        self.attempted += len(expected)
        self.failed += min(len(bad), len(expected))

    def raised(self):
        expected = self.reference if self.reference is not None else self.first
        n = len(expected) if expected else 1
        self.attempted += n
        self.failed += n


def one_pass(configs):
    """Rows of one pass: run and emit every config, as the command line does."""
    rows = []
    for config in configs:
        out = harness.run(config)
        harness.emit(out, "csv", "-")
        rows.extend(out)
    return _as_rows(rows)


def checked_pass(configs, checker, notes, speed):
    """``[wall seconds, speed factor]`` of one checked pass, or None when it raised."""
    try:
        rows, wall, factor = speed.timed(lambda: one_pass(configs))
    except Exception:  # a failing pass is a result: its rows count as failed
        checker.raised()
        notes.append("pass raised:\n" + traceback.format_exc())
        return None
    checker.check(rows)
    return [wall, factor]


def timed_passes(configs, seconds, checker, notes, speed, after_pass=None):
    """Checked passes for ``seconds`` (at least MIN_PASSES); stops at the first error.

    ``after_pass`` is called after each pass with the share of ``seconds``
    elapsed so far.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() < start + seconds:
        timing = checked_pass(configs, checker, notes, speed)
        if timing is None:
            break
        passes.append(timing)
        if after_pass is not None:
            after_pass((time.perf_counter() - start) / seconds if seconds > 0 else 1.0)
    return passes


class EstimateProbe:
    """Latency of one "pilots in, channel out" estimate: ``BlockOMP.fit`` + ``inverse_transform``.

    Problems share one pilot matrix (a deployed array reuses its pilot
    sequence), so the sensing matrix is formed once, outside the timing.
    Channels and noise are drawn from the seed through the public API. Each
    problem is timed once, in chunks spread over the measuring window so
    that a slow spell of the machine touches passes and estimates alike.
    """

    def __init__(self, name, point, seed, speed):
        self.speed = speed
        n, t = point["n_antennas"], point["n_measurements"]
        cfg = nfcs.ArrayConfig(carrier_freq=100e9, n_antennas=n)
        self.block_size = point["block_size"]
        self.dictionary = nfcs.build_dmu(cfg, point["mu"])
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        pilots = nfcs.gen_pilots(t, n, "gaussian", rng)
        self.psi = pilots @ self.dictionary.matrix
        self.problems = []
        for i in range(point["problems"]):
            snr_db = point["snr_db_list"][i % len(point["snr_db_list"])]
            h = nfcs.synthesize_channel(cfg, nfcs.sample_channel(cfg, 3, rng, power_split_db=13.0))
            sigma2 = nfcs.noise_variance(h, n, snr_db)
            noise = math.sqrt(sigma2 / 2.0) * (rng.standard_normal(t) + 1j * rng.standard_normal(t))
            self.problems.append((pilots @ h + noise, sigma2, h))
        self.samples = []
        self.factors = []
        self.nonfinite = 0

    def run_until(self, share: float):
        """Time estimates until ``share`` of all samples are taken, as one speed-probed chunk."""
        target = min(len(self.problems), math.ceil(len(self.problems) * share))
        if target > len(self.samples):
            count = target - len(self.samples)
            _, _, factor = self.speed.timed(lambda: self._run(target))
            self.factors.extend([factor] * count)

    def _run(self, target):
        while len(self.samples) < target:
            y, sigma2, h = self.problems[len(self.samples)]
            start = time.perf_counter()
            est = nfcs.BlockOMP(block_size=self.block_size, noise_var=sigma2).fit(self.psi, y)
            h_hat = self.dictionary.inverse_transform(est.coef_)
            self.samples.append(time.perf_counter() - start)
            if not math.isfinite(nfcs.nmse(h, h_hat)):
                self.nonfinite += 1


def machine_record() -> dict:
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": vendor,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nfcs": getattr(nfcs, "__version__", "unknown"),
    }


def load_reference(name):
    path = HERE / "reference" / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", help="file for the spans of the traced passes")
    args = parser.parse_args(argv)
    name, seed = args.workload, args.seed
    notes = []

    def build(s):
        return [harness.ExperimentConfig(**c) for c in workloads.configs(name, s, args.smoke)]

    configs = build(seed)
    speed = SpeedProbe()
    tables = {} if args.smoke else load_reference(name)
    if args.smoke:
        notes.append("smoke run: reference tables not checked")
    checker = Checker(tables.get(str(seed)))
    warmup = checked_pass(configs, checker, notes, speed)
    passes = {"warmup": [] if warmup is None else [warmup]}
    # one full pass has run: its peak memory, before anything else allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_check = Checker(None)
    if tables and str(seed) not in tables:
        # no table for this seed: check one pass at a seed that has one
        ref_seed = seed % len(workloads.REFERENCE_SEEDS)
        notes.append(f"no reference for seed {seed}; checked one pass at seed {ref_seed}")
        ref_check = Checker(tables[str(ref_seed)])
        checked_pass(build(ref_seed), ref_check, notes, speed)

    probe = EstimateProbe(name, workloads.estimate_point(name, args.smoke), seed, speed)
    passes["untraced"] = timed_passes(configs, args.seconds, checker, notes, speed,
                                      probe.run_until)
    probe.run_until(1.0)

    layers, spans_by_pass = [], []
    if args.trace:
        # untraced and traced passes alternate, so the tracing overhead
        # compares passes made under the same conditions
        tracer = tracing.Tracer()
        passes["paired"], passes["traced"] = [], []
        start = time.perf_counter()
        while (len(passes["traced"]) < MIN_PASSES
               or time.perf_counter() < start + args.seconds / 4):
            untraced = checked_pass(configs, checker, notes, speed)
            tracer.install()
            try:
                traced = checked_pass(configs, checker, notes, speed)
            finally:
                tracer.uninstall()
            if untraced is None or traced is None:
                break
            passes["paired"].append(untraced)
            passes["traced"].append(traced)
            layers.append({"spans": tracing.summarize(tracer.spans),
                           "fit_iters": tracer.fit_iters})
            spans_by_pass.append(tracer.spans)
            tracer.reset()
        notes.extend(dict.fromkeys(tracer.notes))
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"passes": spans_by_pass}, fh)

    rows_attempted = checker.attempted + ref_check.attempted
    rows_failed = checker.failed + ref_check.failed
    result = {
        "workload": name,
        "seed": seed,
        "draws": sum(workloads.draws(c) for c in workloads.configs(name, seed, args.smoke)),
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "estimate_s": probe.samples,
        "estimate_factor": probe.factors,
        "estimate_problems": len(probe.problems),
        "rows_attempted": rows_attempted,
        "rows_failed": rows_failed,
        "attempted": rows_attempted + len(probe.problems),
        "failed": rows_failed + probe.nonfinite,
        "layers": layers,
        "notes": notes,
        "machine": machine_record(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
