"""Wall time and peak RSS of each experiment kind of a preset, each kind in
a fresh interpreter.

For each kind given (all of them by default, named as the ``nfcs``
subcommands), it runs ``nfcs <kind> --preset P --seed S`` in a new Python
process that imports ``nfcs`` from ``--src``, and prints one line per kind:
the wall seconds of that process, from spawn to exit, its peak resident set
size in MB (``ru_maxrss`` of the child, from ``os.wait4``; Linux reports it
in KiB) and its minor page faults (``ru_minflt``), each a fresh page the
kernel had to map, which a run that returns memory to the system and takes
it back pays for in time. With ``--out DIR`` each table is written to
``DIR/<kind>.<preset>.csv``, so that the tables of two checkouts can be
compared with ``cmp``; without it they are discarded. Linux only. Run from
the repository root:

    python scripts/peak_rss.py --preset desk sparsity-level coherence-error
    python scripts/peak_rss.py --preset paper --src ../parent/src --out parent
"""

import argparse
import os
import sys
import time

_CHILD = "import sys; from nfcs.cli import main; sys.exit(main(sys.argv[1:]))"


def measure(kind: str, preset: str, seed: int, src: str, out: str) -> tuple:
    """(wall seconds, peak RSS in MB, minor page faults) of one ``nfcs`` run
    in a fresh interpreter."""
    argv = [sys.executable, "-c", _CHILD, kind, "--preset", preset, "--seed", str(seed), "--out", out]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise SystemExit(f"nfcs {kind} --preset {preset} exited with {code}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kinds", nargs="*", help="nfcs subcommands (default: every kind)")
    parser.add_argument("--preset", default="desk")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", default="src", help="directory that holds the nfcs package")
    parser.add_argument("--out", help="directory for the tables (default: discard them)")
    args = parser.parse_args(argv)
    kinds = args.kinds
    if not kinds:
        sys.path.insert(0, os.path.abspath(args.src))
        from nfcs.harness import EXPERIMENT_KINDS

        kinds = [kind.lower().replace("_", "-") for kind in EXPERIMENT_KINDS]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    print(f"{'kind':<18} {'wall_s':>8} {'peak_rss_mb':>12} {'minor_faults':>13}")
    for kind in kinds:
        out = os.path.join(args.out, f"{kind}.{args.preset}.csv") if args.out else os.devnull
        wall, rss, faults = measure(kind, args.preset, args.seed, args.src, out)
        print(f"{kind:<18} {wall:8.3f} {rss:12.1f} {faults:13d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
