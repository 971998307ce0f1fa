"""Lattice-path object layer: Dyck paths, walks, Motzkin paths, histories."""

import hashlib
import itertools
import math

import pytest

from catschett.objects.permutations import catalan
from catschett.objects.paths import (
    ascending_step_runs,
    dyck_composition,
    dyck_paths,
    is_dyck_path,
    is_motzkin2_path,
    is_walk_pair,
    is_walk_triple,
    is_zigzag,
    laguerre_histories,
    laguerre_weight_caps,
    motzkin2_paths,
    parse_laguerre_history,
    parse_walk_pair,
    parse_walk_triple,
    platform_multiset,
    serialize_laguerre_history,
    serialize_walk_pair,
    serialize_walk_triple,
    walk_pairs,
)
from oracles import walk_from_positions


def test_dyck_counts():
    for n in range(10):
        assert sum(1 for _ in dyck_paths(n)) == catalan(n)


def test_dyck_membership():
    assert is_dyck_path("EN")
    assert is_dyck_path("")
    assert not is_dyck_path("NE")
    assert not is_dyck_path("EE")
    assert not is_dyck_path("ENENE")


def test_platform_multiset_spot_values():
    assert sorted(platform_multiset("EEEENNENNNENEENNEN")) == [1, 1, 1, 2, 4]
    assert platform_multiset("ENENEN") == (1, 1, 1)
    assert platform_multiset("") == ()


def test_composition_spot_values():
    assert dyck_composition("EEEENNENNNENEENNEN") == (3, 4, 2)
    assert dyck_composition("EENNEENN") == (1, 2, 1)
    assert dyck_composition("ENENEN") == (3,)
    assert dyck_composition("ENEN") == (2,)
    assert dyck_composition("") == ()


def test_composition_parts_sum_to_size():
    for n in range(9):
        for w in dyck_paths(n):
            comp = dyck_composition(w)
            assert sum(comp) == n
            assert all(part >= 1 for part in comp)


def test_zigzag():
    assert is_zigzag("ENEN")
    assert not is_zigzag("EENN")


def test_ascending_step_runs():
    assert ascending_step_runs("EENN") == (2,)
    assert ascending_step_runs("ENEEN") == (1, 2)


def test_walk_pair_counts():
    assert sum(1 for _ in walk_pairs(1)) == 1
    for n in range(1, 9):
        assert sum(1 for _ in walk_pairs(n)) == catalan(n)


def test_walk_pair_membership():
    for n in range(1, 7):
        for mu, nu in walk_pairs(n):
            assert is_walk_pair(mu, nu)
    assert not is_walk_pair("E", "N")


def test_walk_from_positions():
    assert walk_from_positions({1, 3}, 4) == "ENEN"
    assert walk_from_positions(set(), 0) == ""


def test_walk_pair_serialization():
    for n in range(1, 6):
        for pair in walk_pairs(n):
            assert parse_walk_pair(serialize_walk_pair(pair)) == pair
    with pytest.raises(ValueError):
        parse_walk_pair("EN")


def test_walk_triple_serialization():
    triple = ("EENE", "EEEN", "EEEN")
    text = serialize_walk_triple(triple)
    assert parse_walk_triple(text) == triple
    assert is_walk_triple("", "", "")


def test_motzkin2_counts():
    # two-colored Motzkin paths of length n-1 are counted by catalan(n)
    for n in range(1, 9):
        assert sum(1 for _ in motzkin2_paths(n - 1)) == catalan(n)


def test_motzkin2_membership():
    assert is_motzkin2_path("HTTHUDUD")
    assert is_motzkin2_path("")
    assert not is_motzkin2_path("DU")
    assert not is_motzkin2_path("U")


def test_laguerre_counts():
    assert sum(1 for _ in laguerre_histories(4)) == 24
    for n in range(7):
        assert sum(1 for _ in laguerre_histories(n)) == math.factorial(n)


def test_laguerre_serialization():
    for h in laguerre_histories(4):
        assert parse_laguerre_history(serialize_laguerre_history(h)) == h


# sha256 of the lines "<n> <object text>" over the listed sizes, in generation order,
# recorded before the families became step tables
SEQUENCE_DIGESTS = {
    "dyck": (dyck_paths, str, range(10),
             "14593dd656ae9b88e3b33cc5ceda82ba618ca6498c0ce447130f59cafcf09998"),
    "motzkin2": (motzkin2_paths, str, range(10),
                 "45916a6e7074891e0f197062a5cb44b91b062f78a1d6312d66050e47d57dd248"),
    "walkpair": (walk_pairs, serialize_walk_pair, range(1, 10),
                 "dffdbaaf17ac223461e39a23d089f8c0d2ff90006d134af364db4fe5c315b690"),
    "laguerre": (laguerre_histories, serialize_laguerre_history, range(8),
                 "9769d91f2bb25c242c3e4f9719d16cd3c8a34a65e0edf3c22c9ca5161eca6d27"),
}


@pytest.mark.parametrize("family", sorted(SEQUENCE_DIGESTS))
def test_generation_order_is_pinned(family):
    generate, render, sizes, expected = SEQUENCE_DIGESTS[family]
    text = "\n".join(f"{n} {render(x)}" for n in sizes for x in generate(n))
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def _words(alphabet, max_len):
    for k in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=k):
            yield "".join(letters)


def _ballot(word, up, down, alphabet):
    """Brute force: only alphabet letters, no prefix with more down than up letters, equal totals."""
    return (set(word) <= set(alphabet)
            and all(word[:i].count(down) <= word[:i].count(up) for i in range(len(word) + 1))
            and word.count(down) == word.count(up))


def _east_counts(walk):
    return [walk[:i].count("E") for i in range(len(walk) + 1)]


def _dominates(mu, nu):
    """Brute force: equal length, only E/N, nu's east count never behind mu's and equal at the end."""
    if len(mu) != len(nu) or not set(mu + nu) <= {"E", "N"}:
        return False
    low, high = _east_counts(mu), _east_counts(nu)
    return all(a <= b for a, b in zip(low, high)) and low[-1] == high[-1]


def test_dyck_validator_matches_prefix_counts():
    for w in _words("ENX", 8):
        assert is_dyck_path(w) == _ballot(w, "E", "N", "EN"), w


def test_motzkin2_validator_matches_prefix_counts():
    for w in _words("DHTUX", 6):
        assert is_motzkin2_path(w) == _ballot(w, "U", "D", "UDHT"), w


def test_walk_pair_validator_matches_prefix_counts():
    walks = list(_words("ENX", 5))
    for mu in walks:
        for nu in walks:
            assert is_walk_pair(mu, nu) == _dominates(mu, nu), (mu, nu)


def test_walk_triple_validator_matches_prefix_counts():
    walks = list(_words("ENX", 3))
    for top, middle, bottom in itertools.product(walks, repeat=3):
        expected = _dominates(top, middle) and _dominates(middle, bottom)
        assert is_walk_triple(top, middle, bottom) == expected, (top, middle, bottom)


def test_laguerre_weight_caps_match_recomputed_heights():
    for w in _words("DHTU", 6):
        heights = [w[:i].count("U") - w[:i].count("D") for i in range(len(w))]
        expected = tuple(h if ch in "UH" else h - 1 for ch, h in zip(w, heights))
        assert laguerre_weight_caps(w) == expected, w
    with pytest.raises(KeyError):
        laguerre_weight_caps("UXD")
