"""Record golden.json: the outputs every benchmark sample is checked against.

    python3 perfbench/record_golden.py

Runs all 24 checks at the parameters pinned in pinned.json and every swept
(system, order) pair, and stores the sha256 of each check's payload() JSON and
the pass/first_failure readings table of each pair.  Record only on a commit
whose outputs are known to be right: the benchmark fails any difference.
"""

import json
import os
import sys

import run
from child import digest


def main() -> int:
    os.environ["CATSCHETT_CONFIG"] = str(run.HERE / "pinned.json")
    os.environ["CATSCHETT_PURE"] = "1"
    sys.path.insert(0, str(run.SRC))
    from catschett.checks import run_check

    checks = {c: digest(run_check(c).payload()) for c in run.VERIFY_MAPS + run.SERIES}
    _, items, _ = run.WORKLOADS["series-sweep"]
    sweep = {f"{s}@{o}": run_check(s, order=o).readings for s, o in items}
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump({"checks": checks, "sweep": sweep}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
