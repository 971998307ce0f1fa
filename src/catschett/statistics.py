"""Permutation, tree, and path statistics built on descent and chain structure."""

from __future__ import annotations

from itertools import compress, count
from operator import gt, lt, sub

from catschett.objects.paths import (
    ascending_step_runs,
    dyck_composition,
    is_zigzag,
    platform_multiset,
)
from catschett.objects.permutations import Perm, inverse
from catschett.objects.trees import (
    BinaryTree,
    PlaneTree,
    left_arm,
    left_chain_orders,
    right_arm,
    right_chain_orders,
)


def descent_set(p: Perm) -> frozenset[int]:
    """Positions i with p_i > p_{i+1}."""
    return frozenset(compress(count(1), map(gt, p, p[1:])))


def ascent_set(p: Perm) -> frozenset[int]:
    """Positions i with p_i < p_{i+1}."""
    return frozenset(compress(count(1), map(lt, p, p[1:])))


def gap_multiset(positions, n: int) -> tuple[int, ...]:
    """Successive gaps of a subset of [n-1] against 0 and n, sorted descending."""
    s = sorted(positions)
    if s and not 1 <= s[0] <= s[-1] <= n - 1:
        raise ValueError(f"positions must lie in [1, {n - 1}]: {s}")
    if n == 0:
        return ()
    return tuple(sorted(map(sub, s + [n], [0] + s), reverse=True))


def descending_run_multiset(p: Perm) -> tuple[int, ...]:
    """Multiset of maximal descending-run lengths."""
    return gap_multiset(ascent_set(p), len(p))


def ascending_run_multiset(p: Perm) -> tuple[int, ...]:
    """Multiset of maximal ascending-run lengths."""
    return gap_multiset(descent_set(p), len(p))


def odr(p: Perm) -> int:
    """Number of odd maximal descending runs."""
    return sum(1 for k in descending_run_multiset(p) if k % 2)


def edr(p: Perm) -> int:
    """Number of even maximal descending runs."""
    return sum(1 for k in descending_run_multiset(p) if k % 2 == 0)


def oar(p: Perm) -> int:
    """Number of odd maximal ascending runs."""
    return sum(1 for k in ascending_run_multiset(p) if k % 2)


def ear(p: Perm) -> int:
    """Number of even maximal ascending runs."""
    return sum(1 for k in ascending_run_multiset(p) if k % 2 == 0)


def max_nonadjacent(positions) -> int:
    """Greedy maximum size of a subset with no two consecutive integers."""
    count = 0
    last = None
    for v in sorted(positions):
        if last is None or v > last + 1:
            count += 1
            last = v
    return count


def mnd(p: Perm) -> int:
    """Maximum number of pairwise non-adjacent descents."""
    return max_nonadjacent(descent_set(p))


def mna(p: Perm) -> int:
    """Maximum number of pairwise non-adjacent ascents."""
    return max_nonadjacent(ascent_set(p))


def idr(p: Perm) -> int:
    """Length of the initial descending run."""
    k = 0
    for a, b in zip((None,) + p, p):
        if a is not None and a < b:
            break
        k += 1
    return k


def iar(p: Perm) -> int:
    """Length of the initial ascending run."""
    k = 0
    prev = 0
    for v in p:
        if v < prev:
            break
        k += 1
        prev = v
    return k


def left_peak_values(p: Perm) -> frozenset[int]:
    """Values p_i with p_{i-1} < p_i > p_{i+1}, reading p_0 = 0 and i < n."""
    n = len(p)
    out = set()
    prev = 0
    for i in range(n - 1):
        if prev < p[i] > p[i + 1]:
            out.add(p[i])
        prev = p[i]
    return frozenset(out)


def peak_values(p: Perm) -> frozenset[int]:
    """Values p_i with p_{i-1} < p_i > p_{i+1} at interior positions 2..n-1."""
    n = len(p)
    return frozenset(p[i] for i in range(1, n - 1) if p[i - 1] < p[i] > p[i + 1])


def lpk_even(p: Perm) -> int:
    """Number of even left peak values."""
    return sum(1 for v in left_peak_values(p) if v % 2 == 0)


def lpk_odd(p: Perm) -> int:
    """Number of odd left peak values."""
    return sum(1 for v in left_peak_values(p) if v % 2)


def pk_even(p: Perm) -> int:
    """Number of even interior peak values."""
    return sum(1 for v in peak_values(p) if v % 2 == 0)


def pk_odd(p: Perm) -> int:
    """Number of odd interior peak values."""
    return sum(1 for v in peak_values(p) if v % 2)


def excedance_set(p: Perm) -> frozenset[int]:
    """Positions i with p_i > i."""
    return frozenset(i for i, v in enumerate(p, start=1) if v > i)


def weak_excedance_set_shifted(p: Perm) -> frozenset[int]:
    """Positions i >= 2 with p_i >= i, each shifted down by one."""
    return frozenset(i - 1 for i, v in enumerate(p, start=1) if i >= 2 and v >= i)


def mne(p: Perm) -> int:
    """Maximum number of pairwise non-adjacent excedance positions."""
    return max_nonadjacent(excedance_set(p))


def mnw(p: Perm) -> int:
    """Maximum number of pairwise non-adjacent shifted weak excedance positions."""
    return max_nonadjacent(weak_excedance_set_shifted(p))


def descent_bottoms(p: Perm) -> frozenset[int]:
    """Values p_{i+1} over descents i."""
    return frozenset(compress(p[1:], map(gt, p, p[1:])))


def modified_descent_tops(p: Perm) -> frozenset[int]:
    """Values p_i - 1 over descents i."""
    return frozenset(p[i - 1] - 1 for i in range(1, len(p)) if p[i - 1] > p[i])


def permutation_profile(p: Perm) -> dict:
    """Bundle the descent, run, peak, and excedance statistics of a permutation."""
    q = inverse(p)
    return {
        "n": len(p),
        "DES": sorted(descent_set(p)),
        "ASC": sorted(ascent_set(p)),
        "DR": list(descending_run_multiset(p)),
        "AR": list(ascending_run_multiset(p)),
        "odr": odr(p),
        "edr": edr(p),
        "oar": oar(p),
        "ear": ear(p),
        "mnd": mnd(p),
        "mna": mna(p),
        "idr": idr(p),
        "iar": iar(p),
        "LPK": sorted(left_peak_values(p)),
        "lpk_e": lpk_even(p),
        "lpk_o": lpk_odd(p),
        "PK": sorted(peak_values(p)),
        "pk_e": pk_even(p),
        "pk_o": pk_odd(p),
        "EXC": sorted(excedance_set(p)),
        "WEXC_shifted": sorted(weak_excedance_set_shifted(p)),
        "mne": mne(p),
        "mnw": mnw(p),
        "DB": sorted(descent_bottoms(p)),
        "DT_modified": sorted(modified_descent_tops(p)),
        "inverse": list(q),
    }


def tree_chain_profile(t: BinaryTree) -> dict:
    """Bundle the chain statistics of a binary tree."""
    lc = left_chain_orders(t)
    rc = right_chain_orders(t)
    n = sum(lc)
    return {
        "nodes": n,
        "LC": list(lc),
        "RC": list(rc),
        "olc": sum(1 for k in lc if k % 2),
        "orc": sum(1 for k in rc if k % 2),
        "X": sum(k // 2 for k in lc),
        "Y": sum(k // 2 for k in rc),
        "larm": left_arm(t),
        "rarm": right_arm(t),
    }


def mark_count(t: PlaneTree) -> int:
    """Number of non-root internal nodes with at least one leaf child."""
    marks = 0
    below = list(t)  # the non-root nodes not yet visited
    while below:
        node = below.pop()
        if node:
            marks += () in node
            below += node
    return marks


def dyck_profile(word: str) -> dict:
    """Bundle the platform and segment statistics of a Dyck path."""
    comp = dyck_composition(word)
    return {
        "east": sum(comp),
        "PT": list(platform_multiset(word)),
        "Comp": list(comp),
        "op": sum(1 for k in comp if k % 2),
        "ep": sum(1 for k in comp if k % 2 == 0),
        "first": comp[0] if comp else 0,
        "last": comp[-1] if comp else 0,
        "runs": list(ascending_step_runs(word)),
        "zigzag": is_zigzag(word),
    }
