"""Generating series of parity statistics, each a marginal of one counted table."""

from operator import itemgetter

from catschett import config
from catschett.kernels import marginal, stat_table
from catschett.serieslab.laurent import LaurentPoly2
from catschett.serieslab.series import TruncatedSeries


def _block(first: int, last: int):
    """Key: (odd parts, even parts) when the first and last parts have these parities."""
    return lambda k: (k[0], k[1]) if k[2] == first and k[3] == last else None


_XY = itemgetter(0, 1)

# name -> (table kind, sizes read, key: table row -> (x exponent, y exponent), or None
# for a row the series leaves out), in the order the command line lists them
SERIES = {
    # x marks odd ascending runs and y even ones, over 321-avoiders
    "G": ("runs321", "all", _XY),
    # the same over Dyck segments, split by (first, last part) parity
    "EE": ("compdyck", "all", _block(0, 0)),
    "EO": ("compdyck", "all", _block(0, 1)),
    "OE": ("compdyck", "all", _block(1, 0)),
    "OO": ("compdyck", "all", _block(1, 1)),
    # x marks even left peaks and y odd ones, over 231-avoiders
    "M": ("lpkpk231", "all", _XY),
    # left peaks (LE, LO) and interior peaks (E, O) by parity, at even and odd sizes
    "LE": ("lpkpk231", "even", _XY),
    "LO": ("lpkpk231", "odd", _XY),
    "E": ("lpkpk231", "even", itemgetter(2, 3)),
    "O": ("lpkpk231", "odd", itemgetter(2, 3)),
    # G at y = 1 and at y = x
    "A": ("runs321", "all", lambda k: (k[0], 0)),
    "B": ("runs321", "all", lambda k: (k[0] + k[1], 0)),
}

# sizes read -> (first size, step)
_SIZES = {"all": (1, 1), "odd": (1, 2), "even": (2, 2)}


def series(name: str, order: int) -> TruncatedSeries:
    """The named series truncated at t^order: [t^n] is the marginal of the size-n table."""
    if name not in SERIES:
        raise ValueError(f"unknown series: {name!r}")
    config.require_bounded("order", order, low=0)
    kind, sizes, key = SERIES[name]
    first, step = _SIZES[sizes]
    coeffs = [LaurentPoly2.zero()] * (order + 1)
    # largest size first: its counting pass caches every smaller size
    for n in reversed(range(first, order + 1, step)):
        coeffs[n] = LaurentPoly2(marginal(stat_table(kind, n), key))
    return TruncatedSeries(order, coeffs)


def mna_distribution(nmax: int) -> dict[int, dict[int, int]]:
    """Counts of 321-avoiders of size n by maximum non-overlapping ascents, via mna = (n - oar)/2."""
    a = series("A", nmax)
    rows = {n: marginal(a.coefficient(n).terms, lambda k: (n - k[0]) // 2)
            for n in range(1, nmax + 1)}
    return {n: dict(sorted(row.items())) for n, row in rows.items()}
