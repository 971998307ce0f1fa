"""Lattice paths and weighted histories encoded as step strings."""

from __future__ import annotations

from itertools import product
from typing import Iterator

DYCK_STEPS = frozenset("EN")
MOTZKIN_STEPS = frozenset("UDHT")  # T renders the second flavor of level step


def is_dyck_path(word: str, n: int | None = None) -> bool:
    """Test the east/north ballot condition with equal totals."""
    e = nn = 0
    for ch in word:
        if ch == "E":
            e += 1
        elif ch == "N":
            nn += 1
            if nn > e:
                return False
        else:
            return False
    return e == nn and (n is None or e == n)


def dyck_paths(n: int) -> Iterator[str]:
    """Generate all Dyck paths with n east and n north steps, lexicographically."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    word: list[str] = []

    def extend(e: int, nn: int) -> Iterator[str]:
        if e == n and nn == n:
            yield "".join(word)
            return
        if e < n:
            word.append("E")
            yield from extend(e + 1, nn)
            word.pop()
        if nn < e:
            word.append("N")
            yield from extend(e, nn + 1)
            word.pop()

    return extend(0, 0)


def platform_multiset(word: str) -> tuple[int, ...]:
    """Multiset of maximal east-run lengths, sorted descending."""
    return tuple(sorted(ascending_step_runs(word), reverse=True))


def is_zigzag(word: str) -> bool:
    """Test that every maximal east run has length one."""
    return all(k == 1 for k in platform_multiset(word))


def east_heights(word: str) -> tuple[int, ...]:
    """North steps preceding each east step, in east order."""
    heights: list[int] = []
    nn = 0
    for ch in word:
        if ch == "N":
            nn += 1
        else:
            heights.append(nn)
    return tuple(heights)


def dyck_composition(word: str) -> tuple[int, ...]:
    """East counts of the segments cut just before the last step of each long east run."""
    runs: list[tuple[int, int]] = []  # (first east index, length), east steps numbered from 1
    idx = 0
    k = 0
    for ch in word:
        if ch == "E":
            idx += 1
            k += 1
        elif k:
            runs.append((idx - k + 1, k))
            k = 0
    if k:
        runs.append((idx - k + 1, k))
    total = idx
    if total == 0:
        return ()
    # the cut falls just before the last east step of each long run
    boundaries = [first + length - 2 for first, length in runs if length >= 2]
    parts: list[int] = []
    prev = 0
    for b in boundaries:
        parts.append(b - prev)
        prev = b
    parts.append(total - prev)
    return tuple(parts)


def ascending_step_runs(word: str) -> tuple[int, ...]:
    """Lengths of the maximal east runs in step order."""
    runs: list[int] = []
    k = 0
    for ch in word:
        if ch == "E":
            k += 1
        elif k:
            runs.append(k)
            k = 0
    if k:
        runs.append(k)
    return tuple(runs)


def walk_from_positions(positions, m: int) -> str:
    """Length-m east/north word with east steps exactly at the given 1-based positions."""
    pos = set(positions)
    bad = [i for i in pos if not 1 <= i <= m]
    if bad:
        raise ValueError(f"positions out of range 1..{m}: {sorted(bad)}")
    return "".join("E" if i in pos else "N" for i in range(1, m + 1))


def hor_set(walk: str) -> frozenset[int]:
    """1-based positions of east steps."""
    return frozenset(i for i, ch in enumerate(walk, start=1) if ch == "E")


def ver_set(walk: str) -> frozenset[int]:
    """1-based positions of north steps."""
    return frozenset(i for i, ch in enumerate(walk, start=1) if ch == "N")


def is_walk_pair(mu: str, nu: str) -> bool:
    """Test equal length, equal east totals, and eastwise dominance of nu over mu."""
    if len(mu) != len(nu):
        return False
    if any(ch not in DYCK_STEPS for ch in mu + nu):
        return False
    d = 0
    for a, b in zip(mu, nu):
        d += (b == "E") - (a == "E")
        if d < 0:
            return False
    return d == 0


def walk_pairs(n: int) -> Iterator[tuple[str, str]]:
    """Generate all dominated east/north walk pairs of length n-1."""
    if n < 1:
        raise ValueError("n must be positive")
    m = n - 1
    mu: list[str] = []
    nu: list[str] = []

    def extend(d: int, left: int) -> Iterator[tuple[str, str]]:
        if left == 0:
            if d == 0:
                yield "".join(mu), "".join(nu)
            return
        for a, b in (("E", "E"), ("E", "N"), ("N", "E"), ("N", "N")):
            nd = d + (b == "E") - (a == "E")
            if nd < 0 or nd > left - 1:
                continue
            mu.append(a)
            nu.append(b)
            yield from extend(nd, left - 1)
            mu.pop()
            nu.pop()

    return extend(0, m)


def serialize_walk_pair(pair: tuple[str, str]) -> str:
    """Render a walk pair as mu|nu."""
    return f"{pair[0]}|{pair[1]}"


def parse_walk_pair(text: str) -> tuple[str, str]:
    """Parse mu|nu into a validated walk pair."""
    parts = text.strip().split("|")
    if len(parts) != 2:
        raise ValueError(f"expected two walks separated by '|': {text!r}")
    mu, nu = parts
    if not is_walk_pair(mu, nu):
        raise ValueError(f"not a dominated walk pair: {text!r}")
    return mu, nu


def serialize_walk_triple(triple: tuple[str, str, str]) -> str:
    """Render a walk triple as top|middle|bottom."""
    return "|".join(triple)


def is_walk_triple(top: str, middle: str, bottom: str) -> bool:
    """Test equal length, equal east totals, and the eastwise dominance chain."""
    if not len(top) == len(middle) == len(bottom):
        return False
    if any(ch not in DYCK_STEPS for ch in top + middle + bottom):
        return False
    dt = dm = db = 0
    for a, b, c in zip(top, middle, bottom):
        dt += a == "E"
        dm += b == "E"
        db += c == "E"
        if not db >= dm >= dt:
            return False
    return dt == dm == db


def parse_walk_triple(text: str) -> tuple[str, str, str]:
    """Parse top|middle|bottom into a validated walk triple."""
    parts = text.strip().split("|")
    if len(parts) != 3:
        raise ValueError(f"expected three walks separated by '|': {text!r}")
    top, middle, bottom = parts
    if not is_walk_triple(top, middle, bottom):
        raise ValueError(f"not a dominated walk triple: {text!r}")
    return top, middle, bottom


def is_motzkin2_path(word: str) -> bool:
    """Test that up/down/level steps stay nonnegative and end at height zero."""
    h = 0
    for ch in word:
        if ch == "U":
            h += 1
        elif ch == "D":
            h -= 1
            if h < 0:
                return False
        elif ch not in MOTZKIN_STEPS:
            return False
    return h == 0


def motzkin2_paths(m: int) -> Iterator[str]:
    """Generate all two-flavored Motzkin paths with m steps."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    word: list[str] = []

    def extend(h: int, left: int) -> Iterator[str]:
        if left == 0:
            if h == 0:
                yield "".join(word)
            return
        for ch in "DHTU":
            if ch == "U":
                nh = h + 1
            elif ch == "D":
                nh = h - 1
            else:
                nh = h
            if nh < 0 or nh > left - 1:
                continue
            word.append(ch)
            yield from extend(nh, left - 1)
            word.pop()

    return extend(0, m)


def motzkin2_heights(word: str) -> tuple[int, ...]:
    """Height before each step."""
    heights: list[int] = []
    h = 0
    for ch in word:
        heights.append(h)
        if ch == "U":
            h += 1
        elif ch == "D":
            h -= 1
    return tuple(heights)


def is_laguerre_history(word: str, weights: tuple[int, ...]) -> bool:
    """Test a Motzkin word with per-step weights below height, strictly for down/second-level steps."""
    if not is_motzkin2_path(word) or len(word) != len(weights):
        return False
    for ch, h, w in zip(word, motzkin2_heights(word), weights):
        cap = h if ch in "UH" else h - 1
        if not 0 <= w <= cap:
            return False
    return True


def laguerre_histories(n: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Generate all weighted histories of length n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for word in motzkin2_paths(n):
        heights = motzkin2_heights(word)
        ranges = [
            range(h + 1) if ch in "UH" else range(h)
            for ch, h in zip(word, heights)
        ]
        for weights in product(*ranges):
            yield word, weights


def serialize_laguerre_history(history: tuple[str, tuple[int, ...]]) -> str:
    """Render a weighted history as word|w1,w2,...."""
    word, weights = history
    return f"{word}|{','.join(str(w) for w in weights)}"


def parse_laguerre_history(text: str) -> tuple[str, tuple[int, ...]]:
    """Parse word|w1,w2,... into a validated weighted history."""
    parts = text.strip().split("|")
    if len(parts) != 2:
        raise ValueError(f"expected word and weights separated by '|': {text!r}")
    word, weight_text = parts
    if weight_text:
        try:
            weights = tuple(int(tok) for tok in weight_text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad weight list: {text!r}") from exc
    else:
        weights = ()
    if not is_laguerre_history(word, weights):
        raise ValueError(f"not a valid weighted history: {text!r}")
    return word, weights
