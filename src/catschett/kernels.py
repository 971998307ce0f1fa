"""Statistic tables: every kind is counted exactly by prefix state.

The tables are counted without listing objects, in the manner of generating trees
(West, Discrete Math. 146, 1995): a prefix is reduced to the little state that decides
how it can be extended and what it adds to the statistic.  The tests hold every kind to
a brute-force enumeration of the same objects.
"""

from operator import itemgetter
from types import MappingProxyType


def marginal(rows, key) -> dict:
    """Counts of ``rows`` (key tuple -> count) summed over the rows with equal ``key(row)``.

    Rows whose key is None are dropped.
    """
    out: dict = {}
    for row, c in rows.items():
        k = key(row)
        if k is not None:
            out[k] = out.get(k, 0) + c
    return out


def _count321(n: int, start: tuple, step) -> list[dict]:
    """Count 321-avoiders of [k] for every k <= n by a statistic state carried along the prefix.

    Each entry of a 321-avoider is either a new maximum or the smallest unused value,
    and the latter only while an unused value lies below the maximum.  So a prefix is
    known by its length, its maximum m and whether its last entry was a new maximum,
    and descents are exactly the steps "new maximum, then smallest unused value".
    ``step(s, pos, top)`` gives the state after the entry at 0-based position pos:
    top is 0 for an ascent (or the first entry) and the descent top m otherwise.
    Values run to n, and a prefix of length k with maximum k is a whole 321-avoider
    of [k], so every size is read off the one walk as it passes.
    """
    states = {(0, False, start): 1}
    tables = [{start: 1}]
    for pos in range(n):
        nxt: dict = {}
        get = nxt.get
        for (m, after_max, s), c in states.items():
            up = step(s, pos, 0)
            for v in range(m + 1, n + 1):
                key = (v, True, up)
                nxt[key] = get(key, 0) + c
            if m > pos:
                key = (m, False, step(s, pos, m if after_max else 0))
                nxt[key] = get(key, 0) + c
        states = nxt
        size = pos + 1
        tables.append(marginal(states, lambda st: st[2] if st[0] == size else None))
    return tables


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


def _close(s: tuple) -> tuple:
    """Close the last part: (odd parts, even parts, first part parity, last part parity)."""
    r, first, odd, even = s
    return odd + r, even + 1 - r, r if first < 0 else first, r


def _run_step(s: tuple, pos: int, top: int) -> tuple:
    # ascending runs: a descent closes a run
    return _cut(s) if top else _grow(s)


def _runs321(n: int) -> list[dict]:
    # the empty permutation has no run composition
    return [{}] + [marginal(t, _close) for t in _count321(n, _NO_PARTS, _run_step)[1:]]


def _peak_step(s: tuple, pos: int, top: int) -> tuple:
    # a descent top is a left peak at 1-based position pos, and a peak unless pos == 1
    if not top:
        return s
    le, lo, pe, po = s
    odd = top & 1
    inner = pos >= 2
    return le + 1 - odd, lo + odd, pe + inner * (1 - odd), po + inner * odd


def _lpk321(n: int) -> list[dict]:
    return _count321(n, (0, 0, 0, 0), _peak_step)


def _compdyck(n: int) -> list[dict]:
    """Segment compositions of Dyck paths of every size <= n, read one step at a time.

    A maximal east run of length at least 2 ends the current part just before its
    last east step, so the part is known when a north step closes the run.  State:
    (height, east run length capped at 2, composition state).  The walk keeps the
    prefixes of Dyck paths of size n, and a prefix of 2k steps back at height 0 is a
    whole path of size k.
    """
    tables: list[dict] = [{}]
    states = {(0, 0, _NO_PARTS): 1}
    for t in range(2 * n):
        nxt: dict = {}
        get = nxt.get
        for (h, run, s), c in states.items():
            if t + h < 2 * n:  # fewer than n east steps so far
                key = (h + 1, min(run + 1, 2), _grow(s))
                nxt[key] = get(key, 0) + c
            if h:
                key = (h - 1, 0, _cut(_grow(s)) if run == 2 else s)
                nxt[key] = get(key, 0) + c
        states = nxt
        if t & 1:
            tables.append(marginal(states, lambda st: None if st[0] else _close(st[2])))
    return tables


def _lpkpk231(n: int) -> list[dict]:
    """Split each 231-avoider at its greatest letter: p = alpha size beta with alpha < beta.

    alpha keeps its own left peaks and peaks.  beta's first entry follows the greatest
    letter, so only beta's interior peaks count, as left peaks and peaks alike, with
    their value parities flipped when |alpha| is odd.  The greatest letter is a left
    peak when beta is nonempty, and a peak when alpha is nonempty too.
    """
    tables = [{(0, 0, 0, 0): 1}]
    peaks: list[tuple[dict, dict]] = []  # per size: beta's (even, odd) peaks, then flipped
    for size in range(1, n + 1):
        last = tables[-1]
        peaks.append((marginal(last, itemgetter(2, 3)), marginal(last, itemgetter(3, 2))))
        table: dict = {}
        get = table.get
        odd = size & 1
        for a in range(size):
            beta = peaks[size - 1 - a][a & 1]
            top = a < size - 1
            inner = top and a > 0
            for (le, lo, pe, po), c in tables[a].items():
                for (qe, qo), d in beta.items():
                    key = (le + qe + top * (1 - odd), lo + qo + top * odd,
                           pe + qe + inner * (1 - odd), po + qo + inner * odd)
                    table[key] = get(key, 0) + c * d
        tables.append(table)
    return tables


# The two sides of the split in ``_mndmna231``, each reduced to what it passes on.
def _alpha_side(s: tuple) -> tuple:
    d, u, w, fd, la, fi, li = s
    return d, u + la, w, fd, li, fi


def _beta_side(s: tuple) -> tuple:
    d, u, w, fd, la, fi, li = s
    return d + fd, u, w, 0, la, li if fi == 2 else fi


def _beta_first(s: tuple) -> tuple:
    # beta's first descending run begins p when alpha is empty
    d, u, w, fd, la, fi, li = s
    return d + fd, u, w, fd ^ 1, la, li if fi == 2 else fi


def _mndmna231(n: int) -> list[dict]:
    """(mnd, mna, mna of the inverse) over 231-avoiders, split as p = alpha size beta.

    A maximal run of length L holds floor(L/2) pairwise non-adjacent descents (or
    ascents), so only run parities at the seams matter.  The greatest letter joins
    beta's first descending run, which begins p when alpha is empty, and ends alpha's
    last ascending run.  With a = |alpha|, the inverse is alpha^-1 (beta^-1 + a + 1)
    (a + 1): alpha^-1's last ascending run merges with beta^-1's first, and a + 1 is a
    run of its own unless beta is empty.
    State: (mnd, mna, inverse mna, parity of the first descending run, of the last
    ascending run, of the inverse's first and last ascending runs), where the inverse's
    first-run parity is 2 for the identity, whose inverse is a single run.
    Each state table is reduced to what it passes on as alpha, as beta and as a first
    beta once, when the next size first reads it.
    """
    tables = [{(0, 0, 0, 0, 0, 2, 0): 1}]
    alphas: list[dict] = []
    betas: list[dict] = []
    firsts: list[dict] = []
    for size in range(1, n + 1):
        last = tables[-1]
        alphas.append(marginal(last, _alpha_side))
        betas.append(marginal(last, _beta_side))
        firsts.append(marginal(last, _beta_first))
        table: dict = {}
        get = table.get
        for (d, u, w, fd, la, fi, li), c in last.items():  # beta empty
            key = (d, u + la, w + li, fd if size > 1 else 1, la ^ 1, fi, li ^ 1)
            table[key] = get(key, 0) + c
        for a in range(size - 1):
            beta = betas[size - 1 - a] if a else firsts[size - 1]
            for (d, u, w, fd, li, fi), c in alphas[a].items():
                for (qd, qu, qw, qfd, qla, qfi), e in beta.items():
                    key = (d + qd, u + qu, w + qw + (li & qfi), fd | qfd,
                           qla, li ^ qfi if fi == 2 else fi, 1)
                    table[key] = get(key, 0) + c * e
        tables.append(table)
    return [marginal(t, itemgetter(0, 1, 2)) for t in tables]


def _mnemnw321(n: int) -> list[dict]:
    """(mne, mnw of the inverse) over 321-avoiders, walking new maxima and fillers.

    As in ``_count321``, each entry is a new maximum v > m or the smallest unused value
    (a filler).  The excedances are the new maxima v placed at a position i < v.  The
    values v >= 2 with p^-1(v) >= v are the fillers and the new maxima placed at i = v;
    the values m+1..v-1 skipped by a new maximum are exactly the later fillers, so the
    values up to v are settled when v is placed and both greedy counts can be read off
    in order.  State after a prefix with maximum m: (m, mne, greedy took the prefix's
    last position, mnw, greedy took value m), where value 0 counts as taken so that
    value 1 is never taken.  No step depends on n, so the prefixes of length i with
    maximum i are read off as the whole avoiders of [i].
    """
    states = {(0, 0, False, 0, True): 1}
    tables = [{(0, 0): 1}]
    for i in range(1, n + 1):
        nxt: dict = {}
        get = nxt.get
        for (m, e, tp, w, tv), c in states.items():
            if m >= i:  # an unused value lies below m: the filler
                key = (m, e, False, w, tv)
                nxt[key] = get(key, 0) + c
            for v in range(m + 1, n + 1):
                x = v > i and not tp
                k = v - 1 - m  # skipped values, all later fillers; greedy takes every other
                t = (k - tv) & 1  # greedy took value v - 1
                y = v == i and not t
                key = (v, e + x, x, w + (k + 1 - tv) // 2 + y, y)
                nxt[key] = get(key, 0) + c
        states = nxt
        tables.append(marginal(states, lambda st: (st[1], st[3]) if st[0] == i else None))
    return tables


_COUNTED = {
    "runs321": _runs321,
    "compdyck": _compdyck,
    "lpkpk231": _lpkpk231,
    "lpk321": _lpk321,
    "mndmna231": _mndmna231,
    "mnemnw321": _mnemnw321,
}

# (kind, n) -> read-only table; a counting pass to n stores every size up to n
_TABLES: dict[tuple[str, int], MappingProxyType] = {}


def stat_table(kind: str, n: int) -> MappingProxyType:
    """Joint statistic distribution (key tuple -> count) for one object family at size n.

    One pass counts every size up to n, and each size is cached and shared, so tables
    are returned as read-only mappings.
    """
    if kind not in _COUNTED:
        raise ValueError(f"unknown table kind: {kind}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = _TABLES.get((kind, n))
    if table is None:
        for size, rows in enumerate(_COUNTED[kind](n)):
            _TABLES.setdefault((kind, size), MappingProxyType(rows))
        table = _TABLES[kind, n]
    return table
