"""Statistic tables: the prefix-state counters against enumeration, and the shared cache."""

import pytest

from catschett import kernels
from catschett.objects.permutations import catalan
from table_oracle import _KINDS, stat_table_pure


def test_table_kinds_listing():
    assert set(kernels.TABLE_KINDS) == {
        "runs321", "compdyck", "lpkpk231", "lpk321", "mndmna231", "mnemnw321"}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        kernels.stat_table("nope", 3)
    for kind in kernels.TABLE_KINDS:
        with pytest.raises(ValueError):
            kernels.stat_table(kind, -1)


def test_tables_total_catalan():
    for kind in ("runs321", "compdyck", "lpkpk231", "lpk321"):
        for n in range(1, 8):
            assert sum(kernels.stat_table(kind, n).values()) == catalan(n)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_backend_parity_small(kind):
    # every counted kind against the enumeration oracle
    for n in range(11):
        assert dict(kernels.stat_table(kind, n)) == stat_table_pure(kind, n)


def test_tables_are_read_only():
    table = kernels.stat_table("runs321", 5)
    before = dict(table)
    key = next(iter(before))
    with pytest.raises(TypeError):
        table[key] = 0
    with pytest.raises(TypeError):
        table[(99, 99, 0, 0)] = 1
    assert dict(kernels.stat_table("runs321", 5)) == before


def test_empty_size_conventions():
    assert kernels.stat_table("runs321", 0) == {}
    assert kernels.stat_table("compdyck", 0) == {}
    assert kernels.stat_table("mndmna231", 0) == {(0, 0, 0): 1}
    assert kernels.stat_table("mnemnw321", 0) == {(0, 0): 1}
