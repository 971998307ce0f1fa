"""Catalan-Schett polynomials: frozen low degrees, route agreement, specializations."""

import pytest

from catschett.objects.permutations import avoiders, catalan, inverse
from catschett.schett import catalan_schett
from catschett.serieslab.laurent import LaurentPoly2
from catschett.statistics import mne, mnw, oar, odr

FROZEN = {
    1: {(1, 1): 1},
    2: {(2, 0): 1, (0, 2): 1},
    3: {(3, 1): 1, (1, 3): 1, (1, 1): 3},
    4: {(4, 0): 1, (2, 2): 8, (0, 4): 1, (2, 0): 2, (0, 2): 2},
    5: {(5, 1): 1, (3, 3): 5, (1, 5): 1, (3, 1): 15, (1, 3): 15, (1, 1): 5},
    6: {(6, 0): 1, (4, 2): 27, (2, 4): 27, (0, 6): 1, (4, 0): 8, (2, 2): 54,
        (0, 4): 8, (2, 0): 3, (0, 2): 3},
}


def test_frozen_low_degree_polynomials():
    for n, terms in FROZEN.items():
        assert catalan_schett(n, "trees") == LaurentPoly2(terms)


def test_three_routes_agree():
    for n in range(8):
        trees = catalan_schett(n, "trees")
        assert catalan_schett(n, "perm231") == trees
        assert catalan_schett(n, "perm321") == trees


@pytest.mark.parametrize("route, pattern, key", [
    ("perm231", (2, 3, 1), lambda n, p: (odr(p), oar(inverse(p)))),
    ("perm321", (3, 2, 1), lambda n, p: (n - 2 * mne(p), n - 2 * mnw(inverse(p)))),
], ids=["perm231", "perm321"])
def test_permutation_routes_match_enumeration(route, pattern, key):
    # the permutation routes read counted tables; hold them to a tally over the avoiders
    for n in range(11):
        terms: dict[tuple[int, int], int] = {}
        for p in avoiders(n, pattern):
            k = key(n, p)
            terms[k] = terms.get(k, 0) + 1
        assert catalan_schett(n, route) == LaurentPoly2(terms)


def test_catalan_specialization():
    for n in range(9):
        assert sum(catalan_schett(n, "trees").terms.values()) == catalan(n)


def test_unknown_route_rejected():
    with pytest.raises(ValueError):
        catalan_schett(3, "nope")


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        catalan_schett(-1, "trees")
