"""Brute-force pattern oracles and small helpers shared by the tests."""

from itertools import combinations


def identity(n: int) -> tuple[int, ...]:
    """The identity permutation of [n]."""
    return tuple(range(1, n + 1))


def standardize(word) -> tuple[int, ...]:
    """Relabel distinct values order-isomorphically onto [k]."""
    w = tuple(word)
    if len(set(w)) != len(w):
        raise ValueError(f"values must be distinct: {w}")
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[v] for v in w)


def contains(word, patterns, rank=standardize) -> frozenset:
    """The classical patterns among ``patterns``, all of one length k, that occur in ``word``.

    Every k-subsequence of ``word`` is standardized in turn; the scan stops once
    every pattern has been seen, since no later subsequence can change the answer.
    ``rank`` is ``standardize`` or a cached copy of it.
    """
    wanted = set(patterns)
    k = len(next(iter(wanted)))
    seen: set = set()
    for sub in combinations(word, k):
        shape = rank(sub)
        if shape in wanted:
            seen.add(shape)
            if len(seen) == len(wanted):
                break
    return frozenset(seen)


def contains_vincular(word, tags, rank=standardize) -> frozenset:
    """The vincular tags among ``tags`` (such as "2-41-3") that occur in ``word``.

    A tag a-bc-d occurs at positions i < j, j + 1 < k whose values, with j and j + 1
    adjacent, standardize to abcd; the scan stops once every tag has been seen.
    """
    wanted = {tuple(int(ch) for ch in tag if ch != "-"): tag for tag in tags}
    seen: set = set()
    n = len(word)
    for j in range(n - 1):
        for i in range(j):
            for k in range(j + 2, n):
                tag = wanted.get(rank((word[i], word[j], word[j + 1], word[k])))
                if tag is not None:
                    seen.add(tag)
                    if len(seen) == len(wanted):
                        return frozenset(seen)
    return frozenset(seen)
