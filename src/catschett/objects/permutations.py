"""Permutations in one-line notation as 1-based tuples, with pattern-restricted generators."""

from __future__ import annotations

import math
from itertools import permutations as _permutations
from typing import Iterable, Iterator

from catschett.objects.trees import catalan_family

Perm = tuple[int, ...]

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


def avoids(p: Perm, pattern) -> bool:
    """Test avoidance of a length-3 classical pattern in O(n).

    ``p`` is any sequence of distinct numbers; a repeated value raises ValueError.
    """
    scan, _, transform = _pattern(pattern)
    w = tuple(p)
    if len(set(w)) != len(w):
        raise ValueError(f"values must be distinct: {w}")
    return scan(w if transform is None else transform(w))


def is_baxter(p: Perm) -> bool:
    """Test the two vincular avoidance conditions defining Baxter permutations."""
    # 3-14-2 is 2-41-3 read backwards, and reversal keeps the middle pair adjacent
    return not _occurs_2_41_3(p) and not _occurs_2_41_3(p[::-1])


def all_permutations(n: int) -> Iterator[Perm]:
    """Generate all permutations of [n] in lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _permutations(range(1, n + 1))


def baxter_permutations(n: int) -> Iterator[Perm]:
    """Generate all Baxter permutations of [n]."""
    return (p for p in all_permutations(n) if is_baxter(p))


# Each avoider generator makes the sizes below n from its family's decomposition,
# keeping them as lists, and streams size n, so the largest size is never held.


def _avoiders_231(n: int) -> Iterator[Perm]:
    """231-avoiders of [n] by the first-letter split p = (k . p1) directsum p2.

    p1 avoids 231 on [k-1] and p2 on [n-k]; ordering by k, then p1, then p2 is
    lexicographic.  p2's values are raised by k once per k.
    """
    return catalan_family(n, (), lambda k, p1, p2: (k, *p1, *p2),
                          lift=lambda k, p2: tuple([v + k for v in p2]))


def _avoiders_321(n: int) -> Iterator[Perm]:
    """321-avoiders of [n], read by new maxima and smallest pending values.

    After a prefix with current maximum m, the j pending values below m must
    follow in increasing order, so the next entry is the smallest pending value
    or a new maximum; a new maximum m + i leaves i - 1 more values pending.  The
    completions, standardised, depend only on (j, r) with r values above m, and
    those with j + r = s are built from those with j + r = s - 1.  Size n reads
    each state with j + r = n - 1 once, so those are streamed as well.

    Completions are held as bytes, one value a byte, so n is at most 255.
    """
    if n > 255:
        raise ValueError(f"321-avoiders are built for n <= 255, got {n}")
    # placing value k first shifts the values >= k of a next-state completion up by one
    shifts = [bytes.maketrans(bytes(range(k, 255)), bytes(range(k + 1, 256)))
              for k in range(n + 1)]
    layer: dict[int, Iterable[bytes]] = {0: [b""]}  # j -> completions with j + r = s
    for s in range(1, n):
        states = {j: _completions_321(layer, shifts, j, s - j) for j in range(s + 1)}
        layer = states if s == n - 1 else {j: list(c) for j, c in states.items()}
    return map(tuple, _completions_321(layer, shifts, 0, n))


def _completions_321(layer: dict[int, Iterable[bytes]], shifts: list[bytes],
                     j: int, r: int) -> Iterator[bytes]:
    if j == r == 0:
        yield b""
    if j:  # the smallest pending value, 1
        for c in layer[j - 1]:
            yield b"\x01" + c.translate(shifts[1])
    for k in range(j + 1, j + r + 1):  # the new maximum k
        head, shift = bytes((k,)), shifts[k]
        for c in layer[k - 1]:
            yield head + c.translate(shift)


# Each length-3 classical pattern with its base's scan and builder (231 or 321)
# and the involution carrying it to the base, None for the bases themselves; it
# carries avoiders of the one onto avoiders of the other.  complement maps v to
# n+1-v, which reverses the order of any distinct numbers, so the scans still
# take any such sequence.
_PATTERNS = {
    (1, 2, 3): (_avoids_321, _avoiders_321, complement),
    (1, 3, 2): (_avoids_231, _avoiders_231, reverse),
    (2, 1, 3): (_avoids_231, _avoiders_231, complement),
    (2, 3, 1): (_avoids_231, _avoiders_231, None),
    (3, 1, 2): (_avoids_231, _avoiders_231, reverse_complement),
    (3, 2, 1): (_avoids_321, _avoiders_321, None),
}

CLASSICAL_PATTERNS: tuple[Perm, ...] = tuple(sorted(_PATTERNS))


def _pattern(pattern) -> tuple:
    # the table row of a classical pattern; anything else is refused
    key = tuple(pattern)
    row = _PATTERNS.get(key)
    if row is None:
        raise ValueError(f"unsupported classical pattern: {key}")
    return row


def avoiders(n: int, pattern) -> Iterator[Perm]:
    """Generate all permutations of [n] avoiding a length-3 classical pattern, lexicographically.

    231-avoiders are built by the first-letter split and 321-avoiders by new maxima
    and smallest pending values; both stream size n.  The other four classes are
    the images of those under their symmetry, sorted, so they are built in full.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _, build, transform = _pattern(pattern)
    if transform is None:
        return build(n)
    return iter(sorted(map(transform, build(n))))
