"""One measured process of the benchmark: set up, run the given work items, report.

Invoked by run.py with one JSON argument:
  {"src": <dir holding the catschett package>, "spawned": <CLOCK_MONOTONIC at spawn>,
   "warmup": [[check, order], ...], "items": [[check, order or null], ...],
   "until": <CLOCK_MONOTONIC time by which sampling ends, or null>,
   "trace": <trace output path or null>}
After set-up, each timed sample runs every item once in a fork of the set-up
process, one fork at a time: a sample starts from the set-up state (warm
caches included) and nothing it memoises reaches the next sample.  Samples
repeat while the next one is expected to end by "until"; there is at least
one.  With "until": null only set-up is measured.  The last line of standard
output is one JSON object.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj) -> str:
    """sha256 of the compact JSON text of obj, keys in insertion order."""
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _record(check: str, order, result) -> dict:
    return {
        "check": check,
        "order": order,
        "params": result.params,
        "payload_sha256": digest(result.payload()),
        "readings_sha256": digest(result.readings),
    }


def _timed(run, items, tracer, trace_path, setup_rss_mb: float) -> dict:
    if tracer is not None:
        tracer.timed = True
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    results = [(check, order, run(check, order)) for check, order in items]
    out = {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": _cpu_s() - cpu0,
        # the fork starts at the set-up process's current size, not at its peak
        "peak_rss_mb": max(setup_rss_mb, _peak_rss_mb()),
        "results": [_record(check, order, r) for check, order, r in results],
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.dump(trace_path)
    return out


def _in_fork(fn) -> str:
    """Run fn in a forked copy of this process and return its result as JSON text."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
            status = 0
        except Exception:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"timed sample failed with wait status {status}")
    return text


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import catschett
    from catschett import config, kernels
    from catschett.checks import run_check

    src = Path(spec["src"]).resolve()
    if src not in Path(catschett.__file__).resolve().parents:
        print(f"catschett imported from {catschett.__file__}, not from {src}", file=sys.stderr)
        return 2

    def run(check: str, order):
        if tracer is None:
            return run_check(check, order=order)
        with tracer.span("checks." + check, "checks." + check):
            return run_check(check, order=order)

    for check, order in spec["warmup"]:
        run(check, order)
    setup_s = _now() - spec["spawned"]
    items = spec["items"]
    setup_rss_mb = _peak_rss_mb()
    # kept as text until every fork has run, so the set-up process does not grow
    texts = []
    while spec["until"] is not None:
        t0 = _now()
        texts.append(_in_fork(lambda: _timed(run, items, tracer, spec["trace"], setup_rss_mb)))
        now = _now()
        if now + (now - t0) > spec["until"]:
            break
    samples = [json.loads(t) for t in texts]
    print(json.dumps({
        "setup_s": setup_s,
        "backend": getattr(kernels, "backend_name", lambda: "pure")(),
        "enumeration_bound": config.enumeration_bound(),
        "samples": samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
