"""Value drift between the result tables of two directories.

For each ``*.csv`` table in OLD_DIR, the table of the same name in NEW_DIR
is read row by row, and one line is printed per table: how many values
moved, the largest relative drift and the methods whose values moved. The
script exits 1 when neither directory holds a table, when a table is in
only one of them, when the row counts differ, when a row's labels
(experiment, method, grid, metric), trials, seed or ``config_hash``
differ, or when a value moved by more than 1e-9 relative (the
``VALUE_RTOL`` of ``tests/test_golden.py``). NaN next to NaN has not moved. Write the tables of two checkouts with
``scripts/peak_rss.py --out DIR``, then, from the repository root:

    python scripts/table_drift.py parent change
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nfcs import parse_rows  # noqa: E402

RTOL = 1e-9


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def table_drift(old_text: str, new_text: str) -> tuple:
    """``(moved, rows, max relative drift, methods moved, faults)`` of one
    table against its old text; ``faults`` lists what fails the check."""
    old, new = parse_rows(old_text), parse_rows(new_text)
    if len(old) != len(new):
        return 0, len(old), 0.0, [], [f"{len(old)} rows became {len(new)}"]
    moved, drift, methods, faults = 0, 0.0, [], []
    for a, b in zip(old, new):
        if replace(b, value=a.value) != a:
            faults.append(f"row {a} became {b}")
        elif not _same(a.value, b.value):
            moved += 1
            drift = max(drift, abs(b.value - a.value) / abs(a.value) if a.value else math.inf)
            if a.method not in methods:
                methods.append(a.method)
            if not math.isclose(b.value, a.value, rel_tol=RTOL):
                faults.append(f"value of {a.method} {a.grid} {a.metric} moved from {a.value!r} to {b.value!r}")
    return moved, len(old), drift, methods, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    args = parser.parse_args(argv)
    old_names = {p.name for p in args.old_dir.glob("*.csv")}
    new_names = {p.name for p in args.new_dir.glob("*.csv")}
    if not old_names | new_names:
        print(f"FAIL: no tables in {args.old_dir} or {args.new_dir}")
        return 1
    failed = False
    for name in sorted(old_names ^ new_names):
        where = args.new_dir if name in old_names else args.old_dir
        print(f"{name}: FAIL: missing from {where}")
        failed = True
    for name in sorted(old_names & new_names):
        moved, rows, drift, methods, faults = table_drift(
            (args.old_dir / name).read_text(), (args.new_dir / name).read_text()
        )
        where = f" ({', '.join(methods)})" if methods else ""
        print(f"{name}: {moved} of {rows} values moved{where}, max relative drift {drift:.2g}")
        for fault in faults:
            print(f"{name}: FAIL: {fault}")
        failed = failed or bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
