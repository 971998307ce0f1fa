"""End-to-end benchmark of the catschett verification harness.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-maps --seed 1 --seconds 40 --trace 0

Workloads (the seed only shuffles the order of a fixed set of work items):

* ``verify-maps``: the 14 enumerative checks.  Time goes to the transport maps
  and their ``avoids`` domain guards; this is the workload a guard or
  object-list change must move.
* ``verify-series``: the 10 series checks at order 12 with a cold table cache.
  Time goes to ``kernels.stat_table`` enumeration; no guard is called, so a
  guard change must leave it unchanged.
* ``series-sweep``: set-up evaluates every series system once at order 12,
  which fills the table cache; the timed part evaluates each (system, order)
  pair for orders 4..11 exactly once.  Time goes to series algebra, which is
  under 2% of ``verify-series``; the top order is left out of the timed part
  so no pair is evaluated twice in a process and memoising a pair gains nothing.

A run starts one child process, which sets up and then takes timed samples,
each in a fork of itself, one at a time (so at most two cores are busy).
Samples repeat while the next one is expected to end within ``--seconds`` of
the start of the run; there is always at least one.  Check parameters are pinned by
``pinned.json`` (passed as CATSCHETT_CONFIG) and echoed parameters must match
it; outputs must match ``golden.json``.  With ``--trace 1`` one more child
takes one sample under the layer tracer and the per-layer metrics are printed
instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with the stamp (commit,
Python, nproc, seed, table backend) and every sample is written to
``perfbench/out/``.  The exit code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

VERIFY_MAPS = ("thm1.2i", "thm1.2ii", "thm1.3", "thm1.4", "thm1.5", "thm2.3", "thm2.13",
               "lem2.2", "lem2.8", "lem2.10", "lem2.18", "prop2.11", "cor2.6", "schett-routes")
SERIES = ("lem3.1", "eq:ee", "eq:eo", "eq:o", "eq:G", "eq:LE", "alg:gf1", "alg:gf2",
          "thm1.6i", "bbs")
TOP_ORDER = 12
SWEEP_ORDERS = range(4, TOP_ORDER)

# name -> (warm-up items run in set-up, timed items, set-up-only processes per run).
# Set-up-only processes add set-up samples where set-up is cheap.
WORKLOADS = {
    "verify-maps": ((), tuple((c, None) for c in VERIFY_MAPS), 4),
    "verify-series": ((), tuple((c, None) for c in SERIES), 4),
    "series-sweep": (tuple((s, TOP_ORDER) for s in SERIES),
                     tuple((s, o) for s in SERIES for o in SWEEP_ORDERS), 0),
}

RUN_LIMIT_S = 170.0  # every child is killed past this point of the run


class ChildError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spawn(warmup, items, until: float | None, deadline: float,
          trace: Path | None = None) -> dict:
    """Run one child process to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["CATSCHETT_CONFIG"] = str(HERE / "pinned.json")
    env["CATSCHETT_PURE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    spec = {"src": str(SRC), "warmup": [list(w) for w in warmup],
            "items": [list(i) for i in items], "until": until,
            "trace": str(trace) if trace else None}
    timeout = deadline - _now()
    if timeout <= 0:
        raise ChildError("run time limit reached before the child could start")
    spec["spawned"] = _now()
    # own session, so a timeout kills the child's sample forks with it
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildError(f"child did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"child exited with {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def failures(report: dict, pinned: dict, golden: dict) -> list[str]:
    """Describe every result whose parameters or outputs differ from the pinned/golden ones."""
    bad = []
    bound_ok = report["enumeration_bound"] == pinned["enumeration_bound"]
    for rec in (rec for sample in report["samples"] for rec in sample["results"]):
        check, order = rec["check"], rec["order"]
        if order is None:
            want_params = pinned["checks"][check]
            ok = rec["payload_sha256"] == golden["checks"].get(check)
            label = check
        else:
            want_params = {"order": order}
            label = f"{check}@{order}"
            ok = (label in golden["sweep"]
                  and rec["readings_sha256"] == digest(golden["sweep"][label]))
        if not bound_ok:
            bad.append(f"{label}: enumeration_bound {report['enumeration_bound']} is not the "
                       f"pinned {pinned['enumeration_bound']}")
        elif rec["params"] != want_params:
            bad.append(f"{label}: params {rec['params']} are not the pinned {want_params}")
        elif not ok:
            bad.append(f"{label}: output differs from golden.json")
    return bad


def stamp(seed: int, backend: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "seed": seed, "backend": backend}


def metric_name(raw: str) -> str:
    return raw.replace(":", "_")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = load_json(ROOT / "BENCHMARK.json")
    pinned = load_json(HERE / "pinned.json")
    golden = load_json(HERE / "golden.json")
    warmup, items, setup_probes = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    start = _now()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)

    order = list(items)
    rng.shuffle(order)
    traced = None
    try:
        report = spawn(warmup, order, start + args.seconds, deadline)
        setups = [report["setup_s"]]
        for _ in range(setup_probes):
            setups.append(spawn(warmup, (), None, deadline)["setup_s"])
        if args.trace:
            rng.shuffle(order)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            traced = spawn(warmup, order, 0.0, deadline, trace=trace_path)  # one sample
    except ChildError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    checked = [report] + ([traced] if traced else [])
    backends = {r["backend"] for r in checked}
    if len(backends) != 1:
        print(f"children ran on different table backends: {sorted(backends)}", file=sys.stderr)
        return 1
    attempted = sum(len(sample["results"]) for r in checked for sample in r["samples"])
    problems = [line for r in checked for line in failures(r, pinned, golden)]

    samples = {key: [t[key] for t in report["samples"]]
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    values = {key: statistics.median(vals) for key, vals in samples.items()}
    values["ok_ratio"] = (attempted - len(problems)) / attempted
    wanted = bench["end_to_end"]
    if traced is not None:
        layers = traced["samples"][0]["layers"]
        # a check outside this workload has no span: it took no time
        values = {f"checks.{metric_name(c)}.s": 0.0 for c in VERIFY_MAPS + SERIES}
        values.update((metric_name(k), v) for k, v in layers.items())
        values["trace.overhead_s"] = (traced["samples"][0]["wall_s"]
                                      - statistics.median(samples["wall_s"]))
        wanted = bench["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("metrics not measured: " + ", ".join(missing), file=sys.stderr)
        return 1

    for line in problems:
        print("FAILED " + line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"stamp": stamp(args.seed, backends.pop()), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace,
              "samples": samples, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"stamp": record["stamp"], "samples": len(report["samples"]),
                      "record": str((OUT / name).relative_to(ROOT))}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
