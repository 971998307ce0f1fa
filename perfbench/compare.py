"""Compare two sets of benchmark run records, workload by workload.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the ``*-trace0.json`` records that run.py writes to
``perfbench/out/``.  For every end-to-end metric the median and quartiles of
each side are printed with the change of the medians and the metric's bound
from BENCHMARK.json.  Runs made on different table backends are not
comparable: the script refuses them with exit code 2.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = {r["stamp"]["backend"] for side in (before, after)
                for records in side.values() for r in records}
    if len(backends) > 1:
        print(f"refusing to compare runs on different table backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = 0
    for workload in sorted(set(before) & set(after)):
        print(f"{workload}: {len(before[workload])} runs before, {len(after[workload])} after")
        for m in metrics:
            name = m["name"]
            b = summary([r["metrics"][name]["value"] for r in before[workload]])
            a = summary([r["metrics"][name]["value"] for r in after[workload]])
            change = a[1] / b[1] - 1.0
            regressed = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += regressed
            print(f"  {name:12s} before {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                  f"after {a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}]  change {change:+.1%}  "
                  f"bound {m['bound']:.0%}{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
