"""Lattice paths and weighted histories encoded as step strings."""

from __future__ import annotations

from itertools import product
from typing import Iterator

# Each lattice-word family is a table from its letters to the height change each
# makes; a word of the family keeps its height >= 0 and ends at height 0.  Table
# order is generation order.
DYCK_STEPS = {"E": 1, "N": -1}
MOTZKIN_STEPS = {"D": -1, "H": 0, "T": 0, "U": 1}  # T renders the second flavor of level step
# a walk pair (mu, nu) read as one word of step pairs; the height is nu's east lead over mu
WALK_PAIR_STEPS = {"EE": 0, "EN": -1, "NE": 1, "NN": 0}


def _walk(steps: dict[str, int], length: int) -> Iterator[str]:
    """Every word of ``length`` letters of ``steps`` that stays >= 0 and ends at 0, in table order."""
    moves = list(steps.items())[::-1]  # pushed in reverse, popped in table order
    stack = [("", 0, length)]
    while stack:
        prefix, h, left = stack.pop()
        if not left:
            yield prefix
            continue
        left -= 1
        for letter, dh in moves:
            if 0 <= h + dh <= left:
                stack.append((prefix + letter, h + dh, left))


def _scan(steps: dict[str, int], word) -> bool:
    """Test that every letter of ``word`` is in ``steps``, the height stays >= 0 and ends at 0."""
    h = 0
    try:
        for letter in word:
            h += steps[letter]
            if h < 0:
                return False
    except KeyError:
        return False
    return h == 0


def is_dyck_path(word: str) -> bool:
    """Test the east/north ballot condition with equal totals."""
    return _scan(DYCK_STEPS, word)


def dyck_paths(n: int) -> Iterator[str]:
    """Generate all Dyck paths with n east and n north steps, lexicographically."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _walk(DYCK_STEPS, 2 * n)


def platform_multiset(word: str) -> tuple[int, ...]:
    """Multiset of maximal east-run lengths, sorted descending."""
    return tuple(sorted(ascending_step_runs(word), reverse=True))


def is_zigzag(word: str) -> bool:
    """Test that every maximal east run has length one."""
    return all(k == 1 for k in platform_multiset(word))


def dyck_composition(word: str) -> tuple[int, ...]:
    """East counts of the segments cut just before the last step of each long east run."""
    parts: list[int] = []
    east = cut = 0
    for k in ascending_step_runs(word):
        east += k
        if k >= 2:
            parts.append(east - 1 - cut)
            cut = east - 1
    if east:
        parts.append(east - cut)
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


def hor_set(walk: str) -> frozenset[int]:
    """1-based positions of east steps."""
    return frozenset(i for i, ch in enumerate(walk, start=1) if ch == "E")


def ver_set(walk: str) -> frozenset[int]:
    """1-based positions of north steps."""
    return frozenset(i for i, ch in enumerate(walk, start=1) if ch == "N")


def is_walk_pair(mu: str, nu: str) -> bool:
    """Test equal length, equal east totals, and eastwise dominance of nu over mu."""
    return len(mu) == len(nu) and _scan(WALK_PAIR_STEPS, map(str.__add__, mu, nu))


def walk_pairs(n: int) -> Iterator[tuple[str, str]]:
    """Generate all dominated east/north walk pairs of length n-1."""
    if n < 1:
        raise ValueError("n must be positive")
    return ((w[0::2], w[1::2]) for w in _walk(WALK_PAIR_STEPS, n - 1))


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
    return is_walk_pair(top, middle) and is_walk_pair(middle, bottom)


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
    return _scan(MOTZKIN_STEPS, word)


def motzkin2_paths(m: int) -> Iterator[str]:
    """Generate all two-flavored Motzkin paths with m steps."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _walk(MOTZKIN_STEPS, m)


def laguerre_weight_caps(word: str) -> tuple[int, ...]:
    """Largest weight of each step of a history: the height before it, less one after D or T."""
    caps: list[int] = []
    h = 0
    for letter in word:
        caps.append(h if letter in "UH" else h - 1)
        h += MOTZKIN_STEPS[letter]
    return tuple(caps)


def is_laguerre_history(word: str, weights: tuple[int, ...]) -> bool:
    """Test a Motzkin word with per-step weights below height, strictly for down/second-level steps."""
    if not is_motzkin2_path(word) or len(word) != len(weights):
        return False
    return all(0 <= w <= cap for w, cap in zip(weights, laguerre_weight_caps(word)))


def laguerre_histories(n: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Generate all weighted histories of length n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for word in motzkin2_paths(n):
        for weights in product(*(range(cap + 1) for cap in laguerre_weight_caps(word))):
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
