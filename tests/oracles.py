"""Brute-force pattern oracles, definitions of fast statistics, and small helpers shared by the tests."""

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


# ---------- statistic sets and gamma's walks by definition ----------

def descent_set(p) -> frozenset[int]:
    """Positions i with p_i > p_{i+1}."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def ascent_set(p) -> frozenset[int]:
    """Positions i with p_i < p_{i+1}."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] < p[i])


def descent_bottoms(p) -> frozenset[int]:
    """Values p_{i+1} over descents i."""
    return frozenset(p[i] for i in range(1, len(p)) if p[i - 1] > p[i])


def modified_descent_tops(p) -> frozenset[int]:
    """Values p_i - 1 over descents i."""
    return frozenset(p[i - 1] - 1 for i in range(1, len(p)) if p[i - 1] > p[i])


def walk_from_positions(positions, m: int) -> str:
    """Length-m east/north word with east steps exactly at the given 1-based positions."""
    pos = set(positions)
    bad = [i for i in pos if not 1 <= i <= m]
    if bad:
        raise ValueError(f"positions out of range 1..{m}: {sorted(bad)}")
    return "".join("E" if i in pos else "N" for i in range(1, m + 1))


def gamma_walks(p) -> tuple[str, str, str]:
    """gamma's walk triple: east steps at MDT(q), DES(p) and DB(q), where q = p^-1."""
    n = len(p)
    q = [0] * n
    for i, v in enumerate(p, start=1):
        q[v - 1] = i
    return (walk_from_positions(modified_descent_tops(q), n - 1),
            walk_from_positions(descent_set(p), n - 1),
            walk_from_positions(descent_bottoms(q), n - 1))
