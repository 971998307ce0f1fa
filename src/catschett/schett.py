"""Catalan-Schett and classical Schett polynomials computed by independent routes."""

from __future__ import annotations

from catschett.kernels import marginal, stat_table
from catschett.objects.permutations import all_permutations
from catschett.objects.trees import (
    binary_trees,
    increasing_tree_shape,
    left_chain_orders,
    right_chain_orders,
)
from catschett.serieslab.laurent import LaurentPoly2


def _odd_chain_counts(t) -> tuple[int, int]:
    olc = sum(1 for k in left_chain_orders(t) if k % 2)
    orc = sum(1 for k in right_chain_orders(t) if k % 2)
    return olc, orc


def catalan_schett_trees(n: int) -> LaurentPoly2:
    """Sum x^olc y^orc over binary trees with n nodes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms: dict[tuple[int, int], int] = {}
    for t in binary_trees(n):
        key = _odd_chain_counts(t)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly2(terms)


def catalan_schett_perm231(n: int) -> LaurentPoly2:
    """Sum x^odr(p) y^oar(inverse p) over 231-avoiders of [n].

    A maximal run of length L holds floor(L/2) pairwise non-adjacent descents, so
    odr = n - 2 mnd, and likewise oar = n - 2 mna; the terms are read off the
    counted (mnd, mna, mna of the inverse) table.
    """
    table = stat_table("mndmna231", n)
    return LaurentPoly2(marginal(table, lambda k: (n - 2 * k[0], n - 2 * k[2])))


def catalan_schett_perm321(n: int) -> LaurentPoly2:
    """Sum x^(n-2 mne(p)) y^(n-2 mnw(inverse p)) over 321-avoiders of [n].

    The terms are read off the counted (mne, mnw of the inverse) table.
    """
    table = stat_table("mnemnw321", n)
    return LaurentPoly2({(n - 2 * e, n - 2 * w): c for (e, w), c in table.items()})


_ROUTES = {
    "trees": catalan_schett_trees,
    "perm231": catalan_schett_perm231,
    "perm321": catalan_schett_perm321,
}
ROUTES = tuple(_ROUTES)


def catalan_schett(n: int, route: str = "trees") -> LaurentPoly2:
    """Compute the degree-n Catalan-Schett polynomial by the named route."""
    if route not in _ROUTES:
        raise ValueError(f"unknown route: {route!r} (expected one of {sorted(_ROUTES)})")
    return _ROUTES[route](n)


def schett_classical(n: int) -> LaurentPoly2:
    """Sum x^olc y^orc over shapes of increasing binary trees on [n]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms: dict[tuple[int, int], int] = {}
    for p in all_permutations(n):
        key = _odd_chain_counts(increasing_tree_shape(p))
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly2(terms)
