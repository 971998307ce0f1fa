"""Statistic tables: the prefix-state counters against enumeration, and the shared cache."""

import hashlib

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


# sha256 of the lines "<n> <sorted rows of the size-n table>" for n = 0..14, recorded
# while every size was counted by a pass of its own
TABLE_DIGESTS = {
    "compdyck": "e7b1856a8ba5e6ac6bdc994cd98ae6949abe31059382b842e9a28ae4e81bd40b",
    "lpk321": "80c83190d84f4667e1186d956f468785572fe8a6580aa07e9cae774d744bcdee",
    "lpkpk231": "9dd3d211021bcfadfe1600cd038e60537a5840533f30da4be91bb69e832b4b16",
    "mndmna231": "ce5981b85616de81edd5a5aa131136bf00751e453ae277933d838f528ec4d1a3",
    "mnemnw321": "b8fd038f9cc1a232d40f2ff285dcb9b0b65c73fca826c5c42a116e93bba81da8",
    "runs321": "e7b1856a8ba5e6ac6bdc994cd98ae6949abe31059382b842e9a28ae4e81bd40b",
}


def test_tables_are_pinned():
    assert tuple(TABLE_DIGESTS) == kernels.TABLE_KINDS
    for kind, expected in TABLE_DIGESTS.items():
        text = "\n".join(f"{n} {sorted(kernels.stat_table(kind, n).items())}" for n in range(15))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, kind


@pytest.mark.parametrize("kind", kernels.TABLE_KINDS)
def test_one_pass_matches_a_fresh_pass_to_every_size(kind):
    # a pass to 14 reads every smaller size off the same walk or split
    count = kernels._COUNTED[kind]
    tables = count(14)
    assert len(tables) == 15
    for k in range(15):
        assert count(k) == tables[:k + 1], k
        assert kernels.stat_table(kind, k) == tables[k], k
