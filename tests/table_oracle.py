"""Brute-force oracle for ``catschett.kernels.stat_table``: every table by exhaustive enumeration."""

from catschett.objects.paths import dyck_composition, dyck_paths
from catschett.objects.permutations import avoiders, inverse
from catschett.statistics import (
    ascending_run_composition,
    lpk_even,
    lpk_odd,
    mna,
    mnd,
    mne,
    mnw,
    pk_even,
    pk_odd,
)


def _bump(table: dict, key: tuple) -> None:
    table[key] = table.get(key, 0) + 1


def _runs321(n: int) -> dict:
    # key: (odd parts, even parts, first part parity, last part parity) of the run composition
    table: dict = {}
    if n == 0:
        return table
    for p in avoiders(n, (3, 2, 1)):
        comp = ascending_run_composition(p)
        odd = sum(1 for c in comp if c % 2)
        _bump(table, (odd, len(comp) - odd, comp[0] % 2, comp[-1] % 2))
    return table


def _compdyck(n: int) -> dict:
    table: dict = {}
    if n == 0:
        return table
    for word in dyck_paths(n):
        comp = dyck_composition(word)
        odd = sum(1 for c in comp if c % 2)
        _bump(table, (odd, len(comp) - odd, comp[0] % 2, comp[-1] % 2))
    return table


def _lpkpk(n: int, pattern: tuple) -> dict:
    table: dict = {}
    for p in avoiders(n, pattern):
        _bump(table, (lpk_even(p), lpk_odd(p), pk_even(p), pk_odd(p)))
    return table


def _mndmna231(n: int) -> dict:
    table: dict = {}
    for p in avoiders(n, (2, 3, 1)):
        _bump(table, (mnd(p), mna(p), mna(inverse(p))))
    return table


def _mnemnw321(n: int) -> dict:
    table: dict = {}
    for p in avoiders(n, (3, 2, 1)):
        _bump(table, (mne(p), mnw(inverse(p))))
    return table


_KINDS = {
    "runs321": _runs321,
    "compdyck": _compdyck,
    "lpkpk231": lambda n: _lpkpk(n, (2, 3, 1)),
    "lpk321": lambda n: _lpkpk(n, (3, 2, 1)),
    "mndmna231": _mndmna231,
    "mnemnw321": _mnemnw321,
}


def stat_table_pure(kind: str, n: int) -> dict:
    """Tabulate a joint statistic distribution by direct enumeration; returns key tuple -> count."""
    if kind not in _KINDS:
        raise ValueError(f"unknown table kind: {kind}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _KINDS[kind](n)
