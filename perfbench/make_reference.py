"""Regenerate the reference tables ``reference/<workload>.json``.

Each table holds the rows of one pass per seed in ``REFERENCE_SEEDS``. Run
it from the repository root at the commit whose results the tables pin,
with the same BLAS pinning as the benchmark:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]
"""

import json
import sys

import run
import workloads
from worker import one_pass, harness


def main(names) -> None:
    for name in names or workloads.NAMES:
        seeds = {}
        for seed in workloads.REFERENCE_SEEDS:
            configs = [harness.ExperimentConfig(**c) for c in workloads.configs(name, seed)]
            seeds[str(seed)] = one_pass(configs)
        table = {"source": run.source_record(), "seeds": seeds}
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path} ({len(seeds)} seeds)")


if __name__ == "__main__":
    main(sys.argv[1:])
