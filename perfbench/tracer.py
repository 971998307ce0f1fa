"""Layer tracer: times calls into catschett's public functions from outside the package.

Each traced function belongs to a layer (a metric group such as ``objects.avoids``
or ``statistics``).  Wrapping a function replaces it in every catschett module
that binds it, so ``avoids`` is timed whether ``checks`` or ``bijections`` calls
it.  Generators are timed on every ``next()``.

A span's self time is its duration minus the time covered by its child spans.
Spans of hot per-object layers are aggregated per (name, parent); the others are
also kept individually as (name, start, end, parent) and written out at exit.
Layer counts (``calls``, ``yielded``, ``rejected``) and ``s`` only include spans
whose parent belongs to another layer, so a layer calling itself (recursion, or
one public function calling another in the same module) is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from contextlib import contextmanager

CALL, GEN = "call", "gen"

# (layer, "module:qualname" or "module:*" for every public function the module defines,
#  wrap kind, hot).  Hot layers are called per object and are only aggregated.
TARGETS = (
    ("objects.avoids", "catschett.objects.permutations:avoids", CALL, True),
    ("objects.avoiders", "catschett.objects.permutations:avoiders", GEN, True),
    ("objects.trees", "catschett.objects.trees:binary_trees", GEN, True),
    ("objects.trees", "catschett.objects.trees:plane_trees", GEN, True),
    ("objects.paths", "catschett.objects.paths:dyck_paths", GEN, True),
    ("objects.paths", "catschett.objects.paths:walk_pairs", GEN, True),
    ("objects.paths", "catschett.objects.paths:motzkin2_paths", GEN, True),
    ("objects.paths", "catschett.objects.paths:laguerre_histories", GEN, True),
    ("objects.baxter", "catschett.objects.permutations:baxter_permutations", GEN, True),
    ("statistics", "catschett.statistics:*", CALL, True),
    ("bijections", "catschett.bijections:*", CALL, True),
    ("kernels.stat_table", "catschett.kernels:stat_table", CALL, False),
    ("serieslab.series_mul", "catschett.serieslab.series:TruncatedSeries.__mul__", CALL, True),
    ("serieslab.laurent_mul", "catschett.serieslab.laurent:LaurentPoly2.__mul__", CALL, True),
    ("serieslab.families", "catschett.serieslab.families:*", CALL, False),
    ("serieslab.residuals", "catschett.serieslab.residuals:system_readings", CALL, False),
    ("serieslab.residuals", "catschett.serieslab.residuals:first_failure", CALL, False),
    ("serieslab.residuals", "catschett.serieslab.residuals:coefficient_series", CALL, False),
    ("serieslab.appendix_load", "catschett.serieslab.residuals:load_appendix_coefficients",
     CALL, False),
    ("schett", "catschett.schett:*", CALL, False),
)

# layers whose distinct argument tuples are counted
KEYED = ("kernels.stat_table",)


class MissingBinding(LookupError):
    """A traced target no longer exists; raised with every missing name."""

    def __init__(self, names: list[str]):
        super().__init__("traced bindings not found: " + ", ".join(names))
        self.names = names


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, layer, start, covered by children]
        self.layers: dict[str, dict] = {}
        self.aggregates: dict[tuple, list] = {}  # (name, parent name) -> [count, total_s, self_s]
        self.spans: list[tuple] = []
        self.hot: set[str] = set()
        self.keys: dict[str, set] = {}
        self.new_keys_timed: dict[str, int] = {}
        self.timed = False

    def add_layer(self, layer: str, hot: bool = False) -> None:
        self.layers.setdefault(layer, {"calls": 0, "yielded": 0, "rejected": 0,
                                       "s": 0.0, "self_s": 0.0})
        if hot:
            self.hot.add(layer)

    def enter(self, name: str, layer: str) -> None:
        self.stack.append([name, layer, self.clock(), 0.0])

    def exit(self, *events: str) -> None:
        end = self.clock()
        name, layer, start, covered = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        parent_name = None
        if parent is not None:
            parent[3] += duration
            parent_name = parent[0]
        agg = self.aggregates.get((name, parent_name))
        if agg is None:
            agg = self.aggregates[name, parent_name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        counters = self.layers[layer]
        counters["self_s"] += duration - covered
        if parent is None or parent[1] != layer:
            counters["s"] += duration
            for event in events:
                counters[event] += 1
        if layer not in self.hot:
            self.spans.append((name, start, end, parent_name))

    @contextmanager
    def span(self, name: str, layer: str):
        """Span around a block of the benchmark's own code."""
        self.add_layer(layer)
        self.enter(name, layer)
        try:
            yield
        finally:
            self.exit("calls")

    def note_key(self, layer: str, key) -> None:
        seen = self.keys.setdefault(layer, set())
        if key not in seen:
            seen.add(key)
            if self.timed:
                self.new_keys_timed[layer] = self.new_keys_timed.get(layer, 0) + 1

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <layer>.calls/.yielded/.rejected/.s/.self_s, plus key counts."""
        out: dict[str, float] = {}
        for layer, counters in self.layers.items():
            for key, value in counters.items():
                out[f"{layer}.{key}"] = value
        for layer in KEYED:
            if layer in self.layers:
                out[f"{layer}.distinct"] = len(self.keys.get(layer, ()))
                out[f"{layer}.new_keys_timed"] = self.new_keys_timed.get(layer, 0)
        return out

    def dump(self, path) -> None:
        """Write kept spans, aggregates and layer counters as JSON."""
        body = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "aggregates": [{"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
                           for (n, p), (c, t, s) in sorted(self.aggregates.items(), key=str)],
            "layers": self.layers,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


class _TimedIterator:
    __slots__ = ("tracer", "name", "layer", "it")

    def __init__(self, tracer: Tracer, name: str, layer: str, it):
        self.tracer, self.name, self.layer, self.it = tracer, name, layer, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        tracer.enter(self.name, self.layer)
        try:
            item = next(self.it)
        except BaseException:  # StopIteration included: the span closes, nothing was yielded
            tracer.exit()
            raise
        tracer.exit("yielded")
        return item


def _wrap(tracer: Tracer, fn, name: str, layer: str, kind: str):
    keyed = layer in KEYED
    if kind == GEN:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name, layer)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                tracer.exit("calls")
            return _TimedIterator(tracer, name + ":next", layer, it)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                tracer.note_key(layer, args + tuple(sorted(kwargs.items())))
            tracer.enter(name, layer)
            try:
                out = fn(*args, **kwargs)
            except ValueError:  # the maps' domain guards reject input with ValueError
                tracer.exit("calls", "rejected")
                raise
            except BaseException:
                tracer.exit("calls")
                raise
            tracer.exit("calls")
            return out
    return traced


def _resolve(spec: str) -> list[tuple[str, object, object]]:
    """(display name, owner, function) for a target spec; empty when it is missing."""
    module_name, _, qualname = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if qualname == "*":
        return [(f"{module_name}.{attr}", None, obj) for attr, obj in sorted(vars(module).items())
                if inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == module_name]
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    if fn is None or not callable(fn):
        return []
    return [(f"{module_name}.{qualname}", owner if inspect.isclass(owner) else None, fn)]


def _catschett_modules(package: str) -> list:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, targets=TARGETS, package: str = "catschett"):
    """Wrap every target in every module of ``package`` that binds it; return the undo function.

    Raises MissingBinding naming each target that cannot be found, before
    patching anything, so a layer is never reported as silently idle.
    """
    modules = _catschett_modules(package)
    resolved = []
    missing = []
    for layer, spec, kind, hot in targets:
        found = _resolve(spec)
        if not found:
            missing.append(spec)
        resolved.append((layer, kind, hot, found))
    if missing:
        raise MissingBinding(missing)
    patched = []  # (owner, attribute, original)
    for layer, kind, hot, found in resolved:
        tracer.add_layer(layer, hot)
        for display, cls, fn in found:
            wrapper = _wrap(tracer, fn, display.removeprefix(package + "."), layer, kind)
            for owner in [cls] if cls is not None else modules:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        patched.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return uninstall
