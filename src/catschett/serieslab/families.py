"""Generating series of parity statistics, assembled from exhaustive tables."""

from catschett import config
from catschett.kernels import stat_table
from catschett.serieslab.laurent import LaurentPoly2
from catschett.serieslab.series import TruncatedSeries


def _check_order(order: int) -> None:
    bound = config.enumeration_bound()
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > bound:
        raise ValueError(f"order {order} exceeds the configured enumeration bound {bound}")


def _assemble(order: int, kind: str, select, sizes=None) -> TruncatedSeries:
    coeffs = [LaurentPoly2.zero() for _ in range(order + 1)]
    for n in range(1, order + 1) if sizes is None else sizes:
        terms: dict[tuple[int, int], int] = {}
        for key, cnt in stat_table(kind, n).items():
            mono = select(key)
            if mono is not None:
                terms[mono] = terms.get(mono, 0) + cnt
        coeffs[n] = LaurentPoly2(terms)
    return TruncatedSeries(order, coeffs)


def compute_G(order: int, source: str = "perm") -> TruncatedSeries:
    """x marks odd ascending runs and y even ones, over 321-avoiders ("perm") or Dyck segments ("dyck")."""
    _check_order(order)
    if source not in ("perm", "dyck"):
        raise ValueError(f"unknown source: {source}")
    kind = "runs321" if source == "perm" else "compdyck"
    return _assemble(order, kind, lambda k: (k[0], k[1]))


def compute_EE_EO_OE_OO(order: int) -> tuple[TruncatedSeries, ...]:
    """The run series over Dyck segments split by (initial, terminal part) parity: EE, EO, OE, OO."""
    _check_order(order)
    out = []
    for first, last in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out.append(
            _assemble(
                order,
                "compdyck",
                lambda k, f=first, l=last: (k[0], k[1]) if k[2] == f and k[3] == l else None,
            )
        )
    return tuple(out)


def compute_M(order: int) -> TruncatedSeries:
    """x marks even left peaks and y odd ones, over 231-avoiders."""
    _check_order(order)
    return _assemble(order, "lpkpk231", lambda k: (k[0], k[1]))


def compute_LE_LO_E_O(order: int) -> tuple[TruncatedSeries, ...]:
    """Left-peak and interior-peak parity series over 231-avoiders, split by even/odd length."""
    _check_order(order)
    even = range(2, order + 1, 2)
    odd = range(1, order + 1, 2)
    le = _assemble(order, "lpkpk231", lambda k: (k[0], k[1]), sizes=even)
    lo = _assemble(order, "lpkpk231", lambda k: (k[0], k[1]), sizes=odd)
    e = _assemble(order, "lpkpk231", lambda k: (k[2], k[3]), sizes=even)
    o = _assemble(order, "lpkpk231", lambda k: (k[2], k[3]), sizes=odd)
    return le, lo, e, o


def compute_A(order: int) -> TruncatedSeries:
    """The y=1 specialization: x marks odd ascending runs over 321-avoiders."""
    return compute_G(order).subs_y_one()


def compute_B(order: int) -> TruncatedSeries:
    """The y=x specialization: x marks all ascending runs over 321-avoiders."""
    return compute_G(order).subs_y_x()


def mna_distribution(nmax: int) -> dict[int, dict[int, int]]:
    """Counts of 321-avoiders of size n by maximum non-overlapping ascents, via mna = (n - oar)/2."""
    _check_order(nmax)
    a = compute_A(nmax)
    rows: dict[int, dict[int, int]] = {}
    for n in range(1, nmax + 1):
        row: dict[int, int] = {}
        for xe, _, cnt in a.coefficient(n).sorted_terms():
            row[(n - xe) // 2] = row.get((n - xe) // 2, 0) + cnt
        rows[n] = dict(sorted(row.items()))
    return rows
