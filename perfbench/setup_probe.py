"""Set-up time in a fresh interpreter: ``import nfcs`` plus the workload's dictionaries.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD`` with ``src`` on the path.
Prints the elapsed seconds and the speed factor measured right after them
(see ``speed.py``); ``run.py`` starts it several times and reports the
median of their products.
"""

import statistics
import sys
import time

import workloads

START = time.perf_counter()

import nfcs  # noqa: E402  (the import is what is being timed)


def main(name: str) -> None:
    for kind, n, param in workloads.setup_builds(name):
        cfg = nfcs.ArrayConfig(carrier_freq=100e9, n_antennas=n)
        if kind == "dmu":
            nfcs.build_dmu(cfg, param)
        elif kind == "dft":
            nfcs.build_dft(cfg)
        else:
            nfcs.build_polar_baseline(cfg, param, nfcs.field_boundaries(cfg))
    elapsed = time.perf_counter() - START
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    print(elapsed, REFERENCE_S / statistics.median(probe.seconds() for _ in range(3)))


if __name__ == "__main__":
    main(sys.argv[1])
