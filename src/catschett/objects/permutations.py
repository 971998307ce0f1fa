"""Permutations in one-line notation as 1-based tuples, with pattern-restricted generators."""

from __future__ import annotations

import math
from itertools import combinations, permutations as _permutations
from typing import Iterable, Iterator

Perm = tuple[int, ...]

CLASSICAL_PATTERNS: tuple[Perm, ...] = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
)

VINCULAR_PATTERNS: tuple[str, str] = ("2-41-3", "3-14-2")


def catalan(n: int) -> int:
    """Return the n-th Catalan number."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def refined_catalan(n: int, k: int) -> int:
    """Count 231-avoiding permutations of [n] with exactly k pairwise non-adjacent descents."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if 2 * k + 1 > n + 1:
        return 0
    return math.comb(n + 1, 2 * k + 1) * math.comb(n + k, k) // (n + 1)


def check_permutation(word: Iterable[int]) -> Perm:
    """Validate a sequence as a permutation of [n] and return it as a tuple."""
    p = tuple(word)
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of [{n}]: {p}")
    return p


def serialize_permutation(p: Perm) -> str:
    """Render a permutation as space-separated values."""
    return " ".join(str(v) for v in p)


def parse_permutation(text: str) -> Perm:
    """Parse space-separated values into a permutation."""
    word = []
    col = 0
    for tok in text.split():
        col = text.index(tok, col)
        try:
            word.append(int(tok))
        except ValueError:
            raise ValueError(f"expected an integer at column {col}: {text!r}") from None
        col += len(tok)
    return check_permutation(tuple(word))


def identity(n: int) -> Perm:
    """Return the identity permutation of [n]."""
    return tuple(range(1, n + 1))


def inverse(p: Perm) -> Perm:
    """Return the group inverse."""
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v - 1] = i + 1
    return tuple(q)


def reverse(p: Perm) -> Perm:
    """Reverse the one-line word."""
    return p[::-1]


def complement(p: Perm) -> Perm:
    """Replace each value v by n+1-v."""
    n = len(p)
    return tuple(n + 1 - v for v in p)


def reverse_complement(p: Perm) -> Perm:
    """Compose reversal with complementation."""
    return complement(reverse(p))


def direct_sum(p: Perm, q: Perm) -> Perm:
    """Concatenate p with q shifted up by len(p)."""
    k = len(p)
    return p + tuple(v + k for v in q)


def standardize(word: Iterable[int]) -> Perm:
    """Relabel distinct values order-isomorphically onto [k]."""
    w = tuple(word)
    if len(set(w)) != len(w):
        raise ValueError(f"values must be distinct: {w}")
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[v] for v in w)


def contains(p: Perm, pattern: Perm) -> bool:
    """Test classical pattern containment by scanning value subsequences.

    O(n^k): the brute-force oracle for any pattern length; ``avoids`` is the fast test.
    """
    k = len(pattern)
    if k == 0:
        return True
    target = standardize(pattern)
    return any(standardize(sub) == target for sub in combinations(p, k))


def _occurs_2_41_3(p: Perm) -> bool:
    # positions i < j, j+1 < k with p[j+1] < p[i] < p[k] < p[j] (0-based, j and j+1 adjacent)
    n = len(p)
    for j in range(1, n - 2):
        hi, lo = p[j], p[j + 1]
        if hi < lo:
            continue
        for i in range(j):
            if not lo < p[i] < hi:
                continue
            for k in range(j + 2, n):
                if p[i] < p[k] < hi:
                    return True
    return False


def _occurs_3_14_2(p: Perm) -> bool:
    # positions i < j, j+1 < k with p[j] < p[k] < p[i] < p[j+1]
    n = len(p)
    for j in range(1, n - 2):
        lo, hi = p[j], p[j + 1]
        if lo > hi:
            continue
        for i in range(j):
            if not lo < p[i] < hi:
                continue
            for k in range(j + 2, n):
                if lo < p[k] < p[i]:
                    return True
    return False


def _avoids_231(word: Iterable[int]) -> bool:
    # Knuth's stack sort: a value popped by a larger incoming value becomes the
    # floor, and any later value below the floor closes a 231.
    stack: list[int] = []
    floor = -math.inf
    for v in word:
        if v < floor:
            return False
        while stack and stack[-1] < v:
            floor = stack.pop()
        stack.append(v)
    return True


def _avoids_321(word: Iterable[int]) -> bool:
    # A word avoids 321 iff its values that are not left-to-right maxima increase.
    high = low = -math.inf
    for v in word:
        if v > high:
            high = v
        elif v < low:
            return False
        else:
            low = v
    return True


# Each length-3 scan reduces to 231 or 321 by reversal and complementation; the
# complement is taken by negation, so any sequence of distinct numbers works.
_CLASSICAL_SCANS = {
    (1, 2, 3): lambda w: _avoids_321(-v for v in w),
    (1, 3, 2): lambda w: _avoids_231(reversed(w)),
    (2, 1, 3): lambda w: _avoids_231(-v for v in w),
    (2, 3, 1): _avoids_231,
    (3, 1, 2): lambda w: _avoids_231(-v for v in reversed(w)),
    (3, 2, 1): _avoids_321,
}

_VINCULAR_SCANS = {
    "2-41-3": lambda w: not _occurs_2_41_3(w),
    "3-14-2": lambda w: not _occurs_3_14_2(w),
}


def avoids(p: Perm, pattern) -> bool:
    """Test avoidance of a length-3 classical pattern or a vincular tag in O(n).

    ``p`` is any sequence of distinct numbers; a repeated value raises ValueError.
    """
    if isinstance(pattern, str):
        scan = _VINCULAR_SCANS.get(pattern)
        if scan is None:
            raise ValueError(f"unsupported vincular pattern: {pattern!r}")
    else:
        pat = tuple(pattern)
        scan = _CLASSICAL_SCANS.get(pat)
        if scan is None:
            raise ValueError(f"unsupported classical pattern: {pat}")
    w = tuple(p)
    if len(set(w)) != len(w):
        raise ValueError(f"values must be distinct: {w}")
    return scan(w)


def is_baxter(p: Perm) -> bool:
    """Test the two vincular avoidance conditions defining Baxter permutations."""
    return not _occurs_2_41_3(p) and not _occurs_3_14_2(p)


def all_permutations(n: int) -> Iterator[Perm]:
    """Generate all permutations of [n] in lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _permutations(range(1, n + 1))


def baxter_permutations(n: int) -> Iterator[Perm]:
    """Generate all Baxter permutations of [n]."""
    return (p for p in all_permutations(n) if is_baxter(p))


# Each avoider generator walks prefixes value by value, pruning any candidate that
# would complete the forbidden pattern; the pruning state is exact, so every leaf
# at depth n is an avoider and the walk visits no dead subtrees beyond one level.


def _avoiders_231(n: int) -> Iterator[Perm]:
    used = [False] * (n + 2)
    prefix: list[int] = []

    def extend(floor: int) -> Iterator[Perm]:
        # floor: any later value below it would close a 231 with an earlier ascent
        if len(prefix) == n:
            yield tuple(prefix)
            return
        below = 0
        for v in range(1, n + 1):
            if used[v]:
                below = v
                continue
            if v < floor:
                continue
            used[v] = True
            prefix.append(v)
            yield from extend(below if below > floor else floor)
            prefix.pop()
            used[v] = False

    return extend(0)


def _avoiders_132(n: int) -> Iterator[Perm]:
    used = [False] * (n + 2)
    prefix: list[int] = []

    def extend(banned: int, low: int) -> Iterator[Perm]:
        # banned: bitmask of values strictly inside some earlier (small, large) pair
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v] or (banned >> v) & 1:
                continue
            nb = banned
            if prefix and v > low:
                nb |= ((1 << v) - (1 << (low + 1)))
            used[v] = True
            prefix.append(v)
            yield from extend(nb, v if not low or v < low else low)
            prefix.pop()
            used[v] = False

    return extend(0, 0)


def _avoiders_312(n: int) -> Iterator[Perm]:
    used = [False] * (n + 2)
    prefix: list[int] = []

    def extend(banned: int, high: int) -> Iterator[Perm]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v] or (banned >> v) & 1:
                continue
            nb = banned
            if prefix and v < high:
                nb |= ((1 << high) - (1 << (v + 1)))
            used[v] = True
            prefix.append(v)
            yield from extend(nb, v if v > high else high)
            prefix.pop()
            used[v] = False

    return extend(0, 0)


def _avoiders_321(n: int) -> Iterator[Perm]:
    used = [False] * (n + 2)
    prefix: list[int] = []

    def extend(floor: int, high: int) -> Iterator[Perm]:
        # floor: largest value already placed below an earlier larger value
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v] or v < floor:
                continue
            used[v] = True
            prefix.append(v)
            if v < high:
                yield from extend(v if v > floor else floor, high)
            else:
                yield from extend(floor, v)
            prefix.pop()
            used[v] = False

    return extend(0, 0)


def _avoiders_123(n: int) -> Iterator[Perm]:
    used = [False] * (n + 2)
    prefix: list[int] = []

    def extend(ceil: int, low: int) -> Iterator[Perm]:
        # ceil: smallest value already placed above an earlier smaller value
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v] or v > ceil:
                continue
            used[v] = True
            prefix.append(v)
            if low and v > low:
                yield from extend(v if v < ceil else ceil, low)
            else:
                yield from extend(ceil, v if not low or v < low else low)
            prefix.pop()
            used[v] = False

    return extend(n + 1, 0)


def _avoiders_213(n: int) -> Iterator[Perm]:
    used = [False] * (n + 2)
    prefix: list[int] = []

    def extend(ceil: int) -> Iterator[Perm]:
        # ceil: any later value above it would close a 213 with an earlier inversion
        if len(prefix) == n:
            yield tuple(prefix)
            return
        above = [0] * (n + 2)
        nxt = n + 1
        for v in range(n, 0, -1):
            above[v] = nxt
            if used[v]:
                nxt = v
        for v in range(1, n + 1):
            if used[v] or v > ceil:
                continue
            used[v] = True
            prefix.append(v)
            yield from extend(above[v] if above[v] < ceil else ceil)
            prefix.pop()
            used[v] = False

    return extend(n + 1)


_AVOIDER_DISPATCH = {
    (1, 2, 3): _avoiders_123,
    (1, 3, 2): _avoiders_132,
    (2, 1, 3): _avoiders_213,
    (2, 3, 1): _avoiders_231,
    (3, 1, 2): _avoiders_312,
    (3, 2, 1): _avoiders_321,
}


def avoiders(n: int, pattern) -> Iterator[Perm]:
    """Generate all permutations of [n] avoiding a length-3 classical pattern, lexicographically."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pat = tuple(pattern)
    if pat not in _AVOIDER_DISPATCH:
        raise ValueError(f"unsupported classical pattern: {pat}")
    return _AVOIDER_DISPATCH[pat](n)


def first_letter_decompose(p: Perm) -> tuple[int, Perm, Perm]:
    """Split a 231-avoider as p = (k . p1) directsum p2 around its first letter k."""
    if not p:
        raise ValueError("cannot decompose the empty permutation")
    k = p[0]
    p1 = p[1:k]
    p2 = tuple(v - k for v in p[k:])
    if sorted(p1) != list(range(1, k)) or sorted(p2) != list(range(1, len(p) - k + 1)):
        raise ValueError(f"not 231-avoiding at the first letter: {p}")
    return k, p1, p2


def first_letter_compose(k: int, p1: Perm, p2: Perm) -> Perm:
    """Rebuild (k . p1) directsum p2 from the first-letter split."""
    if k != len(p1) + 1:
        raise ValueError("first letter must exceed the low block by one")
    return (k,) + tuple(p1) + tuple(v + k for v in p2)


def greatest_letter_decompose(p: Perm) -> tuple[Perm, int, Perm]:
    """Split a 231-avoider as (alpha, n, beta) around its greatest letter, blocks standardized."""
    if not p:
        raise ValueError("cannot decompose the empty permutation")
    n = len(p)
    m = p.index(n)
    alpha = p[:m]
    a = len(alpha)
    if sorted(alpha) != list(range(1, a + 1)):
        raise ValueError(f"not 231-avoiding at the greatest letter: {p}")
    beta = tuple(v - a for v in p[m + 1:])
    return alpha, n, beta
