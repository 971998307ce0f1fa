"""Tests of the benchmark's layer tracer.  Run: python3 -m pytest perfbench/tests -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_nested_spans():
    tr = tracing.Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    tr.add_layer("x")
    tr.add_layer("y")
    tr.enter("a", "x")      # 0 .. 10
    tr.enter("b", "y")      # 1 .. 3
    tr.exit("calls")
    tr.enter("c", "x")      # 4 .. 8, same layer as its parent
    tr.enter("d", "y")      # 5 .. 6
    tr.exit("calls")
    tr.exit("calls")
    tr.exit("calls")
    agg = tr.aggregates
    assert agg["a", None] == [1, 10, 4]        # 10 minus b (2) and c (4)
    assert agg["b", "a"] == [1, 2, 2]
    assert agg["c", "a"] == [1, 4, 3]          # 4 minus d (1)
    assert agg["d", "c"] == [1, 1, 1]
    m = tr.metrics()
    # c's parent is in its own layer: it adds self time but no call and no layer time
    assert (m["x.calls"], m["x.s"], m["x.self_s"]) == (1, 10, 7)
    assert (m["y.calls"], m["y.s"], m["y.self_s"]) == (2, 3, 3)
    assert tr.stack == []


def test_wrapping_patches_every_binding_module():
    from catschett import bijections, checks
    from catschett.objects import permutations

    original = permutations.avoids
    tr = tracing.Tracer()
    uninstall = tracing.install(tr, [("objects.avoids", "catschett.objects.permutations:avoids",
                                 tracing.CALL, True)])
    try:
        assert checks.avoids is bijections.avoids is permutations.avoids
        assert checks.avoids is not original
        bijections.upsilon((2, 1, 3))
        checks.avoids((1, 2), (2, 3, 1))
        assert tr.metrics()["objects.avoids.calls"] == 2
    finally:
        uninstall()
    assert checks.avoids is bijections.avoids is original


def test_missing_binding_is_reported_by_name():
    from catschett import checks

    original = checks.avoids
    targets = [
        ("objects.avoids", "catschett.objects.permutations:avoids", tracing.CALL, True),
        ("gone", "catschett.objects.permutations:no_such_function", tracing.CALL, False),
        ("gone", "catschett.no_such_module:*", tracing.CALL, False),
    ]
    with pytest.raises(tracing.MissingBinding) as info:
        tracing.install(tracing.Tracer(), targets)
    assert info.value.names == ["catschett.objects.permutations:no_such_function",
                                "catschett.no_such_module:*"]
    assert checks.avoids is original  # nothing was patched


def test_recursive_generator_counts_outer_items_once():
    from catschett.objects import trees

    tr = tracing.Tracer()
    uninstall = tracing.install(tr, [("objects.trees", "catschett.objects.trees:binary_trees",
                                 tracing.GEN, True)])
    try:
        assert len(list(trees.binary_trees(4))) == 14
    finally:
        uninstall()
    m = tr.metrics()
    assert (m["objects.trees.calls"], m["objects.trees.yielded"]) == (1, 14)
    assert m["objects.trees.self_s"] <= m["objects.trees.s"]


def test_rejected_calls_are_counted():
    from catschett import bijections

    tr = tracing.Tracer()
    uninstall = tracing.install(tr, [("bijections", "catschett.bijections:*", tracing.CALL, True)])
    try:
        with pytest.raises(ValueError):
            bijections.upsilon((2, 3, 1))
    finally:
        uninstall()
    m = tr.metrics()
    assert (m["bijections.calls"], m["bijections.rejected"]) == (1, 1)


def test_every_declared_layer_metric_is_produced():
    from catschett.checks import run_check

    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        tr.timed = True
        assert run_check("thm1.3", n=3).passed
    finally:
        uninstall()
    produced = {run.metric_name(k) for k in tr.metrics()}
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    harness = {n for n in declared if n.startswith("checks.")} | {"trace.overhead_s"}
    assert declared - harness <= produced
    assert {f"checks.{run.metric_name(c)}.s" for c in run.VERIFY_MAPS + run.SERIES} == \
        {n for n in declared if n.startswith("checks.")}
