"""Permutation, tree, and path statistics: frozen examples and cross-formula identities."""

from hypothesis import given
from hypothesis import strategies as st

from catschett.objects.permutations import avoiders, inverse
from catschett.statistics import (
    ascending_run_multiset,
    ascent_set,
    descending_run_multiset,
    descent_bottoms,
    descent_set,
    dyck_profile,
    excedance_set,
    gap_multiset,
    iar,
    idr,
    left_peak_values,
    lpk_even,
    lpk_odd,
    mark_count,
    max_nonadjacent,
    mna,
    mnd,
    mne,
    mnw,
    modified_descent_tops,
    odr,
    peak_values,
    permutation_profile,
    pk_odd,
    tree_chain_profile,
    weak_excedance_set_shifted,
)
from oracles import identity

perms = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple))

P1 = (3, 1, 8, 9, 7, 2, 4, 5, 6)
P2 = (2, 4, 5, 1, 3, 6, 8, 7, 9)
P3 = (3, 2, 7, 1, 6, 5, 4)
P4 = (1, 3, 4, 2, 7, 5, 9, 6, 8)
P5 = (1, 4, 3, 2, 9, 5, 7, 6, 8)


def test_descent_sets():
    assert sorted(descent_set(P1)) == [1, 4, 5]
    assert descent_set(identity(6)) == frozenset()
    assert sorted(descent_set(P2)) == [3, 7]


def test_run_multisets():
    assert sorted(descending_run_multiset(P1)) == [1, 1, 1, 1, 2, 3]
    assert sorted(ascending_run_multiset(P1)) == [1, 1, 3, 4]
    assert descending_run_multiset(identity(5)) == (1, 1, 1, 1, 1)
    assert ascending_run_multiset(identity(5)) == (5,)
    assert descending_run_multiset((2, 1)) == (2,)
    assert ascending_run_multiset((2, 1)) == (1, 1)


def test_run_parity_counts():
    prof = permutation_profile(P1)
    assert (prof["odr"], prof["edr"], prof["oar"], prof["ear"]) == (5, 1, 3, 1)


def test_gap_multiset_edges():
    assert gap_multiset(set(), 0) == ()
    assert gap_multiset(set(), 5) == (5,)
    assert gap_multiset({1, 4, 5}, 9) == (4, 3, 1, 1)


def test_mnd_mna_spot_values():
    assert mnd(P1) == 2
    assert mnd(identity(7)) == 0
    assert mnd((2, 1)) == 1
    assert mna((2, 1)) == 0


@given(perms)
def test_mnd_formulas_agree(p):
    n = len(p)
    assert mnd(p) == sum(k // 2 for k in descending_run_multiset(p))
    assert mnd(p) == (n - odr(p)) // 2
    assert mnd(p) == max_nonadjacent(descent_set(p))


@given(perms)
def test_mna_formulas_agree(p):
    assert mna(p) == sum(k // 2 for k in ascending_run_multiset(p))
    assert mna(p) == max_nonadjacent(ascent_set(p))


def test_left_peaks():
    assert sorted(left_peak_values(P3)) == [3, 6, 7]
    assert (lpk_odd(P3), lpk_even(P3)) == (2, 1)
    assert left_peak_values(identity(5)) == frozenset()
    assert sorted(left_peak_values((1, 3, 2))) == [3]
    assert pk_odd((1, 3, 2)) == 1


def test_interior_peaks_subset_of_left_peaks():
    for n in range(8):
        for p in avoiders(n, (2, 3, 1)):
            assert peak_values(p) <= left_peak_values(p)


def test_excedances():
    assert sorted(excedance_set(P4)) == [2, 3, 5, 7]
    assert sorted(weak_excedance_set_shifted(inverse(P4))) == [1, 4, 5, 7]
    assert mnw(inverse(P4)) == 3
    assert mne(P2) == 3
    assert excedance_set(identity(4)) == frozenset()
    assert mne(identity(4)) == 0


def test_descent_bottoms_and_tops():
    assert sorted(modified_descent_tops(P5)) == [2, 3, 6, 8]
    assert sorted(descent_bottoms(P5)) == [2, 3, 5, 6]
    assert descent_bottoms(identity(4)) == frozenset()
    assert modified_descent_tops(identity(4)) == frozenset()


def test_initial_runs():
    assert idr((3, 1, 2)) == 2
    assert idr((3, 2, 1)) == 3
    assert idr(identity(5)) == 1
    assert iar(identity(5)) == 5


def test_lpk_position_value_agreement_on_321_avoiders():
    # on 321-avoiders the left-peak values are the values at descent positions
    for n in range(8):
        for p in avoiders(n, (3, 2, 1)):
            assert left_peak_values(p) == frozenset(p[i - 1] for i in descent_set(p))


def test_tree_profile_spot_values():
    single = (None, None)
    prof = tree_chain_profile(single)
    assert prof["LC"] == [1] and prof["RC"] == [1]
    assert prof["X"] == 0 and prof["Y"] == 0
    left_path = (((None, None), None), None)
    assert tree_chain_profile(left_path)["X"] == 1


def test_mark_count_spot_values():
    assert mark_count(()) == 0
    star = ((), (), ())
    assert mark_count(star) == 0
    path2 = (((),),)
    assert mark_count(path2) == 1


def test_dyck_profile_spot_values():
    prof = dyck_profile("EEEENNENNNENEENNEN")
    assert sorted(prof["PT"]) == [1, 1, 1, 2, 4]
    assert prof["Comp"] == [3, 4, 2]
    assert (prof["op"], prof["ep"]) == (1, 2)
    assert (prof["first"], prof["last"]) == (3, 2)


def test_profile_keys_are_json_ready():
    import json
    json.dumps(permutation_profile(P1))
    json.dumps(tree_chain_profile((None, None)))
    json.dumps(dyck_profile("EN"))
