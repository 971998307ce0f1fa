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


_SCANS = {(2, 3, 1): _avoids_231, (3, 2, 1): _avoids_321}

# The other four length-3 patterns, each with its base (231 or 321) and the
# involution carrying it there; it carries avoiders of the one onto avoiders of
# the other.  complement maps v to n+1-v, which reverses the order of any distinct
# numbers, so the scans still take any such sequence.
_SYMMETRIES = {
    (1, 2, 3): ((3, 2, 1), complement),
    (1, 3, 2): ((2, 3, 1), reverse),
    (2, 1, 3): ((2, 3, 1), complement),
    (3, 1, 2): ((2, 3, 1), reverse_complement),
}


# 3-14-2 is 2-41-3 read backwards, and reversal keeps the middle pair adjacent.
_VINCULAR_SCANS = {
    "2-41-3": lambda w: not _occurs_2_41_3(w),
    "3-14-2": lambda w: not _occurs_2_41_3(w[::-1]),
}


def avoids(p: Perm, pattern) -> bool:
    """Test avoidance of a length-3 classical pattern in O(n), or of a vincular tag in O(n^3).

    ``p`` is any sequence of distinct numbers; a repeated value raises ValueError.
    """
    transform = None
    if isinstance(pattern, str):
        scan = _VINCULAR_SCANS.get(pattern)
        if scan is None:
            raise ValueError(f"unsupported vincular pattern: {pattern!r}")
    else:
        pat = tuple(pattern)
        base, transform = _SYMMETRIES.get(pat, (pat, None))
        scan = _SCANS.get(base)
        if scan is None:
            raise ValueError(f"unsupported classical pattern: {pat}")
    w = tuple(p)
    if len(set(w)) != len(w):
        raise ValueError(f"values must be distinct: {w}")
    return scan(transform(w) if transform else w)


def is_baxter(p: Perm) -> bool:
    """Test the two vincular avoidance conditions defining Baxter permutations."""
    return not _occurs_2_41_3(p) and not _occurs_2_41_3(p[::-1])


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


_WALKS = {(2, 3, 1): _avoiders_231, (3, 2, 1): _avoiders_321}


def avoiders(n: int, pattern) -> Iterator[Perm]:
    """Generate all permutations of [n] avoiding a length-3 classical pattern, lexicographically.

    231 and 321 are walked lazily; the other four classes are the images of those
    walks under their symmetry, sorted, so they are built in full first.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pat = tuple(pattern)
    base, transform = _SYMMETRIES.get(pat, (pat, None))
    walk = _WALKS.get(base)
    if walk is None:
        raise ValueError(f"unsupported classical pattern: {pat}")
    if transform is None:
        return walk(n)
    return iter(sorted(map(transform, walk(n))))


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
