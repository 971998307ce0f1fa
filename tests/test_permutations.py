"""Permutation object layer: counting, avoidance, serialization."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catschett.bijections import (
    eta,
    eta_inv,
    fz_history,
    fz_history_inv,
    phi_classic,
    psi_cap,
    psi_cap_inv,
    psi_fz,
    psi_fz_inv,
    psi_kratt,
    psi_kratt_inv,
    theta,
    theta_inv,
    upsilon,
    vartheta_inv,
)
from catschett.objects.permutations import (
    VINCULAR_PATTERNS,
    all_permutations,
    avoiders,
    avoids,
    baxter_permutations,
    catalan,
    check_permutation,
    complement,
    contains,
    identity,
    inverse,
    is_baxter,
    parse_permutation,
    refined_catalan,
    reverse,
    reverse_complement,
    serialize_permutation,
    standardize,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)

PATTERNS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))

perms = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple))


def test_catalan_values():
    for n, c in enumerate(CATALAN):
        assert catalan(n) == c


def test_refined_catalan_spot_values():
    assert refined_catalan(3, 1) == 4
    for n in range(9):
        assert refined_catalan(n, 0) == 1


def test_refined_catalan_rows_sum_to_catalan():
    for n in range(10):
        assert sum(refined_catalan(n, k) for k in range(n // 2 + 1)) == catalan(n)


def test_avoiders_of_size_three():
    assert set(avoiders(3, (2, 3, 1))) == {
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)}


def test_avoiders_empty_size():
    for pattern in PATTERNS:
        assert list(avoiders(0, pattern)) == [()]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_avoider_counts_are_catalan(pattern):
    for n in range(9):
        assert sum(1 for _ in avoiders(n, pattern)) == catalan(n)


def test_avoiders_match_filter_oracle():
    # unsorted: the generator itself must list the avoiders lexicographically, as
    # all_permutations does; avoids is held to contains by the exhaustive test below
    for pattern in PATTERNS:
        for n in range(9):
            brute = [p for p in all_permutations(n) if avoids(p, pattern)]
            assert list(avoiders(n, pattern)) == brute, (n, pattern)


# sha256 of the lines "<n> <permutation text>" for n <= 11, in generation order,
# recorded before the avoider walks were replaced by bottom-up generation
AVOIDER_DIGESTS = {
    (1, 2, 3): "b92bdbc5d0025b080892c000b498d6c8874507b060ac09be8186331e103f579f",
    (1, 3, 2): "8591e4b26fd0ba3241961fc419d6a6b0389d6f8dfd2d87bc137abe45b2512029",
    (2, 1, 3): "b381b8228240e831bb7581610417b0fe3f54d0ec1dcf4c3817a0f282dd0d8148",
    (2, 3, 1): "02eb0244f0dadfd31de333985eca75b8ffdd7382eb03aed09c1af4ef03742818",
    (3, 1, 2): "d1535b3103b32d996469e2b08675c4b4720f8448993e7a0cc6748d83838ee588",
    (3, 2, 1): "75aa4e9f18e52e6cb9fb81170dcab0d9fb56879fa4a4f98b92036606ec76d299",
}


@pytest.mark.parametrize("pattern", PATTERNS)
def test_avoider_generation_order_is_pinned(pattern):
    text = "\n".join(f"{n} {serialize_permutation(p)}" for n in range(12)
                     for p in avoiders(n, pattern))
    assert hashlib.sha256(text.encode()).hexdigest() == AVOIDER_DIGESTS[pattern]


def test_avoidance_spot_values():
    assert avoids((1, 4, 3, 2, 9, 5, 7, 6, 8), (2, 3, 1))
    assert not avoids((2, 3, 1), (2, 3, 1))
    assert avoids((2, 4, 5, 1, 3, 6, 8, 7, 9), (3, 2, 1))


@pytest.mark.parametrize("pattern", PATTERNS)
def test_avoids_matches_subset_scan_exhaustively(pattern):
    for n in range(9):
        for p in all_permutations(n):
            assert avoids(p, pattern) == (not contains(p, pattern)), (p, pattern)


@st.composite
def distinct_words(draw):
    """Distinct integers of length <= 40, biased towards avoiders and near-avoiders."""
    n = draw(st.integers(min_value=0, max_value=40))
    shape = draw(st.sampled_from(("stack", "two-increasing", "any")))
    if shape == "stack":
        # pushing 1..n through a stack at random outputs a 312-avoider
        word, stack, nxt = [], [], 1
        while len(word) < n:
            if nxt <= n and (not stack or draw(st.booleans())):
                stack.append(nxt)
                nxt += 1
            else:
                word.append(stack.pop())
    elif shape == "two-increasing":
        # a merge of two increasing runs avoids 321
        in_first = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        first = [v for v, f in zip(range(1, n + 1), in_first) if f]
        second = [v for v, f in zip(range(1, n + 1), in_first) if not f]
        word = []
        while first or second:
            take_first = first and (not second or draw(st.booleans()))
            word.append((first if take_first else second).pop(0))
    else:
        word = list(draw(st.permutations(range(1, n + 1))))
    if draw(st.booleans()):
        word.reverse()
    if draw(st.booleans()):
        word = [n + 1 - v for v in word]
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        word[i], word[j] = word[j], word[i]
    # relabel order-isomorphically onto arbitrary distinct integers, [1, n] not required
    values = sorted(draw(st.sets(st.integers(min_value=-10**6, max_value=10**6),
                                 min_size=n, max_size=n)))
    return tuple(values[v - 1] for v in word)


@settings(deadline=None)
@given(distinct_words())
def test_avoids_matches_subset_scan_on_distinct_words(word):
    for pattern in PATTERNS:
        assert avoids(word, pattern) == (not contains(word, pattern)), (word, pattern)


def test_avoids_input_contract():
    for pattern in PATTERNS + VINCULAR_PATTERNS:
        for word in ((1, 1), (2, 1, 2), (5, 3, 1, 3)):
            with pytest.raises(ValueError, match="distinct"):
                avoids(word, pattern)
    for pattern in ((1, 2), (1, 2, 3, 4), (1, 1, 2), "2-14-3"):
        with pytest.raises(ValueError, match="unsupported"):
            avoids((1, 2, 3), pattern)
    assert avoids((), (2, 3, 1)) and avoids((7,), (3, 2, 1))
    assert not avoids((2, 5, 1, 4), "2-41-3") and not avoids((3, 1, 4, 2), "3-14-2")
    with pytest.raises(ValueError, match="nonnegative"):
        avoiders(-1, (2, 3, 1))
    for pattern in ((1, 2), (1, 2, 3, 4), (1, 1, 2), "2-41-3"):
        with pytest.raises(ValueError, match="unsupported"):
            avoiders(3, pattern)


def test_321_avoiders_are_refused_past_one_byte_per_value():
    # the builder holds values in bytes; the size is refused on the call, before any yield
    for pattern in ((3, 2, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="n <= 255"):
            avoiders(256, pattern)


def _occurs_vincular(p, tag):
    # positions i < j, j+1 < k whose values, with j and j+1 adjacent, standardize to the tag
    target = tuple(int(ch) for ch in tag if ch != "-")
    n = len(p)
    return any(standardize((p[i], p[j], p[j + 1], p[k])) == target
               for j in range(n - 1) for i in range(j) for k in range(j + 2, n))


@pytest.mark.parametrize("tag", VINCULAR_PATTERNS)
def test_vincular_avoidance_matches_position_scan_exhaustively(tag):
    for n in range(9):
        for p in all_permutations(n):
            assert avoids(p, tag) == (not _occurs_vincular(p, tag)), (p, tag)


# one input outside each guarded map's domain, with the exact message it raised
# before the maps became single scans
GUARD_MESSAGES = (
    (upsilon, (2, 3, 1), "not 231-avoiding: (2, 3, 1)"),
    (phi_classic, (2, 3, 1), "not 231-avoiding: (2, 3, 1)"),
    (theta, (1, 1), "not a permutation of [2]: (1, 1)"),
    (theta_inv, ("EN", "NE"), "not a dominated walk pair: ('EN', 'NE')"),
    (psi_kratt, (3, 2, 1), "not 321-avoiding: (3, 2, 1)"),
    (psi_kratt_inv, "NE", "not a Dyck path: 'NE'"),
    (eta, (2, 2, 1), "not a permutation of [3]: (2, 2, 1)"),
    (eta, (3, 2, 1), "not 321-avoiding: (3, 2, 1)"),
    (eta_inv, (3, 1, 2), "not 312-avoiding: (3, 1, 2)"),
    (fz_history, (1, 3), "not a permutation of [2]: (1, 3)"),
    (lambda h: fz_history_inv(*h), ("UD", (1, 0)), "not a valid weighted history: 'UD' (1, 0)"),
    (psi_fz, (3, 1, 2), "not 312-avoiding: (3, 1, 2)"),
    (psi_fz_inv, (2, 3, 1), "not 231-avoiding: (2, 3, 1)"),
    (psi_cap, (3, 2, 1), "not 321-avoiding: (3, 2, 1)"),
    (psi_cap_inv, (2, 3, 1), "not 231-avoiding: (2, 3, 1)"),
    (vartheta_inv, (2, 3, 1), "not 231-avoiding: (2, 3, 1)"),
)


def test_map_guards_reject_pattern_occurrences():
    for guarded, bad, message in GUARD_MESSAGES:
        with pytest.raises(ValueError) as caught:
            guarded(bad)
        assert str(caught.value) == message, (guarded, bad)


def test_baxter_spot_values():
    assert not is_baxter((2, 4, 1, 3))
    assert is_baxter((1,))
    for n in range(7):
        for p in avoiders(n, (2, 3, 1)):
            assert is_baxter(p)


def test_baxter_counts():
    expected = (1, 2, 6, 22, 92, 422, 2074)
    for n, b in enumerate(expected, start=1):
        assert sum(1 for _ in baxter_permutations(n)) == b


def test_inverse_spot_values():
    assert inverse(()) == ()
    assert inverse((2, 1)) == (2, 1)
    assert inverse(identity(5)) == identity(5)


@given(perms)
def test_inverse_is_an_involution(p):
    q = inverse(p)
    assert inverse(q) == p
    assert tuple(p[q[i] - 1] for i in range(len(p))) == identity(len(p))


def test_reverse_complement_spot_values():
    assert reverse_complement((1, 3, 2)) == (2, 1, 3)
    assert reverse_complement(identity(6)) == identity(6)


@given(perms)
def test_reverse_complement_involutive_and_preserves_321(p):
    assert reverse_complement(reverse_complement(p)) == p
    if avoids(p, (3, 2, 1)):
        assert avoids(reverse_complement(p), (3, 2, 1))


def test_reverse_and_complement():
    assert reverse((1, 3, 2)) == (2, 3, 1)
    assert complement((1, 3, 2)) == (3, 1, 2)


def test_standardize():
    assert standardize((4, 9, 2)) == (2, 3, 1)
    assert standardize(()) == ()


def test_serialization_round_trip():
    for n in range(6):
        for p in avoiders(n, (3, 2, 1)):
            assert parse_permutation(serialize_permutation(p)) == p


def test_parse_rejects_non_permutations():
    with pytest.raises(ValueError):
        parse_permutation("1 1 2")
    with pytest.raises(ValueError):
        parse_permutation("1 3")
    with pytest.raises(ValueError, match="column 2"):
        parse_permutation("3 x 1")


def test_check_permutation():
    assert check_permutation([2, 1]) == (2, 1)
    with pytest.raises(ValueError):
        check_permutation([0, 1])
