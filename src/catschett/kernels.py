"""Statistic tables: exact counting by prefix state, enumeration only for the kinds not counted.

The four series kinds are counted without listing objects, in the manner of generating
trees (West, Discrete Math. 146, 1995): a prefix is reduced to the little state that
decides how it can be extended and what it adds to the statistic.  ``_kernels_py``
enumerates every kind and is the oracle these counters are tested against.
"""

from collections import Counter
from functools import lru_cache
from types import MappingProxyType

from catschett import _kernels_py

TABLE_KINDS = tuple(sorted(_kernels_py._KINDS))


def _count321(n: int, start: tuple, step) -> Counter:
    """Count 321-avoiders of [n] by a statistic state carried along the prefix.

    Each entry of a 321-avoider is either a new maximum or the smallest unused value,
    and the latter only while an unused value lies below the maximum.  So a prefix is
    known by its length, its maximum m and whether its last entry was a new maximum,
    and descents are exactly the steps "new maximum, then smallest unused value".
    ``step(s, pos, top)`` gives the state after the entry at 0-based position pos:
    top is 0 for an ascent (or the first entry) and the descent top m otherwise.
    """
    states = Counter({(0, False, start): 1})
    for pos in range(n):
        nxt: Counter = Counter()
        for (m, after_max, s), c in states.items():
            up = step(s, pos, 0)
            for v in range(m + 1, n + 1):
                nxt[v, True, up] += c
            if m > pos:
                nxt[m, False, step(s, pos, m if after_max else 0)] += c
        states = nxt
    out: Counter = Counter()
    for (_m, _after_max, s), c in states.items():
        out[s] += c
    return out


# A composition is read part by part with the state (parity of the open part, parity of
# the first part or -1, odd parts, even parts); both 321 runs and Dyck segments use it.
_NO_PARTS = (0, -1, 0, 0)


def _grow(s: tuple) -> tuple:
    """Add one element to the open part."""
    r, first, odd, even = s
    return r ^ 1, first, odd, even


def _cut(s: tuple) -> tuple:
    """Close the open part and open a new one of size 1."""
    r, first, odd, even = s
    return 1, r if first < 0 else first, odd + r, even + 1 - r


def _close_parts(counts: Counter) -> dict:
    """Close the last part: (odd parts, even parts, first part parity, last part parity)."""
    out: Counter = Counter()
    for (r, first, odd, even), c in counts.items():
        out[odd + r, even + 1 - r, r if first < 0 else first, r] += c
    return dict(out)


def _run_step(s: tuple, pos: int, top: int) -> tuple:
    # ascending runs: a descent closes a run
    return _cut(s) if top else _grow(s)


def _runs321(n: int) -> dict:
    return _close_parts(_count321(n, _NO_PARTS, _run_step)) if n else {}


def _peak_step(s: tuple, pos: int, top: int) -> tuple:
    # a descent top is a left peak at 1-based position pos, and a peak unless pos == 1
    if not top:
        return s
    le, lo, pe, po = s
    odd = top & 1
    inner = pos >= 2
    return le + 1 - odd, lo + odd, pe + inner * (1 - odd), po + inner * odd


def _lpk321(n: int) -> dict:
    return dict(_count321(n, (0, 0, 0, 0), _peak_step))


def _compdyck(n: int) -> dict:
    """Segment compositions of Dyck paths, read one step at a time.

    A maximal east run of length at least 2 ends the current part just before its
    last east step, so the part is known when a north step closes the run.  State:
    (height, east run length capped at 2, composition state).
    """
    if n == 0:
        return {}
    states = Counter({(0, 0, _NO_PARTS): 1})
    for t in range(2 * n):
        nxt: Counter = Counter()
        for (h, run, s), c in states.items():
            if t + h < 2 * n:  # fewer than n east steps so far
                nxt[h + 1, min(run + 1, 2), _grow(s)] += c
            if h:
                nxt[h - 1, 0, _cut(_grow(s)) if run == 2 else s] += c
        states = nxt
    return _close_parts(Counter({s: c for (_h, _run, s), c in states.items()}))


def _lpkpk231(n: int) -> dict:
    """Split each 231-avoider at its greatest letter: p = alpha size beta with alpha < beta.

    alpha keeps its own left peaks and peaks.  beta's first entry follows the greatest
    letter, so only beta's interior peaks count, as left peaks and peaks alike, with
    their value parities flipped when |alpha| is odd.  The greatest letter is a left
    peak when beta is nonempty, and a peak when alpha is nonempty too.
    """
    tables = [Counter({(0, 0, 0, 0): 1})]
    for size in range(1, n + 1):
        table: Counter = Counter()
        odd = size & 1
        for a in range(size):
            beta: Counter = Counter()
            for (_le, _lo, pe, po), c in tables[size - 1 - a].items():
                beta[(po, pe) if a & 1 else (pe, po)] += c
            top = a < size - 1
            inner = top and a > 0
            for (le, lo, pe, po), c in tables[a].items():
                for (qe, qo), d in beta.items():
                    table[le + qe + top * (1 - odd), lo + qo + top * odd,
                          pe + qe + inner * (1 - odd), po + qo + inner * odd] += c * d
        tables.append(table)
    return dict(tables[n])


_COUNTED = {
    "runs321": _runs321,
    "compdyck": _compdyck,
    "lpkpk231": _lpkpk231,
    "lpk321": _lpk321,
}


@lru_cache(maxsize=None)
def stat_table(kind: str, n: int) -> MappingProxyType:
    """Joint statistic distribution (key tuple -> count) for one object family at size n.

    The table is cached and shared, so it is returned as a read-only mapping.
    """
    if kind not in _COUNTED:
        return MappingProxyType(_kernels_py.stat_table_pure(kind, n))
    if n < 0:
        raise ValueError("n must be nonnegative")
    return MappingProxyType(_COUNTED[kind](n))
