"""Bijections between pattern-restricted permutations, trees, paths, and histories."""

from __future__ import annotations

from functools import lru_cache

from catschett.objects.paths import (
    is_dyck_path,
    is_laguerre_history,
    is_motzkin2_path,
    is_walk_pair,
    laguerre_weight_caps,
    walk_from_positions,
)
from catschett.objects.permutations import (
    Perm,
    all_permutations,
    avoiders,
    avoids,
    check_permutation,
    inverse,
    is_baxter,
)
from catschett.objects.trees import BinaryTree, PlaneTree
from catschett.statistics import (
    descent_bottoms,
    descent_set,
    modified_descent_tops,
)


def _require(condition: bool, template: str, *args) -> None:
    # the message is formatted only when the guard fails
    if not condition:
        raise ValueError(template.format(*args))


def _require_avoider(p: Perm, pattern: tuple[int, ...]) -> None:
    check_permutation(p)
    if not avoids(p, pattern):
        raise ValueError(f"not {''.join(map(str, pattern))}-avoiding: {p}")


# ---------- 231-avoiders and binary trees, run-transporting ----------

def upsilon(p: Perm) -> BinaryTree:
    """Map a 231-avoider to a binary tree carrying runs onto chains."""
    _require_avoider(p, (2, 3, 1))
    return _upsilon(p, 0, len(p), 0)


def _upsilon(p: Perm, lo: int, hi: int, base: int) -> BinaryTree:
    # the block p[lo:hi] holds the values base+1..base+hi-lo; split at its first letter k
    if lo == hi:
        return None
    k = p[lo] - base
    high = _upsilon(p, lo + k, hi, base + k)
    if k == 1:
        return (None, high)
    ul, ur = _upsilon(p, lo + 1, lo + k, base)
    return ((ul, high), ur)


def upsilon_inv(t: BinaryTree) -> Perm:
    """Invert the run-transporting tree map."""
    out: list[int] = []
    _upsilon_inv(t, 0, out)
    return tuple(out)


def _upsilon_inv(t: BinaryTree, base: int, out: list[int]) -> None:
    # appends (k . low) directsum high, values shifted by base; k is known once low is written
    while t is not None:
        left, right = t
        at = len(out)
        out.append(0)
        if left is None:
            high = right
        else:
            ul, high = left
            _upsilon_inv((ul, right), base, out)
        k = len(out) - at
        out[at] = base + k
        base += k
        t = high


# ---------- 231-avoiders and binary trees, greatest-letter recursion ----------

def phi_classic(p: Perm) -> BinaryTree:
    """Map a 231-avoider to a binary tree by splitting at the greatest letter."""
    _require_avoider(p, (2, 3, 1))
    return _phi_classic(p)


def _phi_classic(p: Perm) -> BinaryTree:
    # one stack pass: the stack holds the right spine built so far, each entry a
    # letter with its finished left subtree; a larger letter closes the entries below it
    spine: list[tuple[int, BinaryTree]] = []
    for v in p:
        below = None
        while spine and spine[-1][0] < v:
            below = (spine.pop()[1], below)
        spine.append((v, below))
    tree = None
    while spine:
        tree = (spine.pop()[1], tree)
    return tree


def phi_classic_inv(t: BinaryTree) -> Perm:
    """Invert the greatest-letter tree map."""
    # positions follow the in-order walk and values the post-order walk, since
    # alpha's letters lie below beta's and both below the greatest letter
    out: list[int] = []
    if t is not None:
        _phi_classic_fill(t, out, 0)
    return tuple(out)


def _phi_classic_fill(t: tuple, out: list[int], done: int) -> int:
    # appends t's letters; done nodes were finished (post-order) before t; returns the new count
    left, right = t
    if left is not None:
        done = _phi_classic_fill(left, out, done)
    at = len(out)
    out.append(0)
    if right is not None:
        done = _phi_classic_fill(right, out, done)
    out[at] = done + 1
    return done + 1


# ---------- binary trees and dominated walk pairs ----------

def viennot_v(t: BinaryTree) -> tuple[str, str]:
    """Map a binary tree to a dominated walk pair via second-visit edge labels."""
    mu: list[str] = []
    nu: list[str] = []
    if t is not None:
        _v_words(t, mu, nu)
    return "".join(mu), "".join(nu)


def _v_words(t: tuple, mu: list[str], nu: list[str]) -> None:
    # mu = mu(a) N mu(b) E and nu = nu(a) N E nu(b), each letter only for a present child
    a, b = t
    if a is not None:
        _v_words(a, mu, nu)
        mu.append("N")
        nu.append("N")
    if b is not None:
        nu.append("E")
        _v_words(b, mu, nu)
        mu.append("E")


def viennot_v_inv(pair: tuple[str, str]) -> BinaryTree:
    """Invert the walk-pair tree map."""
    mu, nu = pair
    _require(is_walk_pair(mu, nu), "not a dominated walk pair: {}", pair)
    tree = _v_parse(mu, nu)
    _require(tree is not None, "walk pair has no tree preimage: {}", pair)
    return tree


def _v_parse(mu: str, nu: str) -> BinaryTree:
    # a successful parse mirrors the forward recursion, so it is the unique preimage;
    # dominance zeros only propose split points and failures backtrack
    m = len(mu)
    if m == 0:
        return (None, None)
    if mu[-1] == "N":
        if nu[-1] != "N":
            return None
        sub = _v_parse(mu[:-1], nu[:-1])
        return None if sub is None else (sub, None)
    d = 0
    zeros = [0]
    for q in range(1, m):
        d += (nu[q - 1] == "E") - (mu[q - 1] == "E")
        if d == 0:
            zeros.append(q)
    for q in reversed(zeros):
        if q == 0:
            if nu[0] != "E":
                continue
            sub = _v_parse(mu[:-1], nu[1:])
            if sub is not None:
                return (None, sub)
            continue
        if mu[q - 1] != "N" or nu[q - 1] != "N" or nu[q] != "E":
            continue
        left = _v_parse(mu[:q - 1], nu[:q - 1])
        if left is None:
            continue
        right = _v_parse(mu[q:m - 1], nu[q + 1:])
        if right is None:
            continue
        return (left, right)
    return None


def theta(p: Perm) -> tuple[str, str]:
    """Map a 231-avoider to a dominated walk pair through the greatest-letter tree."""
    return viennot_v(phi_classic(p))


def theta_inv(pair: tuple[str, str]) -> Perm:
    """Invert the walk-pair map on 231-avoiders."""
    return phi_classic_inv(viennot_v_inv(pair))


# ---------- binary trees and Dyck paths ----------

def tau(t: BinaryTree) -> str:
    """Map a binary tree to a Dyck path by east-left-north-right reading."""
    if t is None:
        return ""
    return "E" + tau(t[0]) + "N" + tau(t[1])


def tau_inv(word: str) -> BinaryTree:
    """Invert the east-left-north-right reading."""
    _require(is_dyck_path(word), "not a Dyck path: {!r}", word)
    tree, pos = _tau_parse(word, 0)
    _require(pos == len(word), "trailing steps at {}: {!r}", pos, word)
    return tree


def _tau_parse(word: str, pos: int) -> tuple[BinaryTree, int]:
    if pos >= len(word) or word[pos] == "N":
        return None, pos
    left, pos = _tau_parse(word, pos + 1)
    # the matching north step closes the left subtree
    right, pos = _tau_parse(word, pos + 1)
    return (left, right), pos


# ---------- 321-avoiders and Dyck paths ----------

def psi_kratt(p: Perm) -> str:
    """Map a 321-avoider to the Dyck path of its capped suffix-minimum heights."""
    _require_avoider(p, (3, 2, 1))
    n = len(p)
    # east step i (0-based) sits at height h = min(i, min(p[i:]) - 1), so it is
    # step i + h of the word, after i easts and h norths
    word = ["N"] * (2 * n)
    low = n
    for i in range(n - 1, -1, -1):
        if p[i] <= low:
            low = p[i] - 1
        word[i + (i if i < low else low)] = "E"
    return "".join(word)


def psi_kratt_inv(word: str) -> Perm:
    """Invert the capped-heights map; run-final east steps carry the forced low values."""
    _require(is_dyck_path(word), "not a Dyck path: {!r}", word)
    # the east steps after the h-th north step stand at height h; the last of each
    # such run takes the value h + 1 and the others take the unused values in order
    runs = word.split("N")
    free = [v for v, run in enumerate(runs[:-1], start=1) if not run]
    p: list[int] = []
    used = 0
    for h, run in enumerate(runs):
        if run:
            k = len(run) - 1
            p += free[used:used + k]
            used += k
            p.append(h + 1)
    return check_permutation(p)


# ---------- 321-avoiders and dominated walk pairs, excedance-transporting ----------

_LETTER_FROM_FLAGS = {(1, 0): "U", (1, 1): "T", (0, 1): "D", (0, 0): "H"}


def lin_fu_phi(p: Perm) -> str:
    """Map a 321-avoider to a two-flavored Motzkin path via excedance flags."""
    _require_avoider(p, (3, 2, 1))
    n = len(p)
    q = inverse(p)
    pos = [1 if p[i - 1] > i else 0 for i in range(1, n + 1)]
    val = [1 if i > q[i - 1] else 0 for i in range(1, n + 1)]
    word = "".join(_LETTER_FROM_FLAGS[(pos[i - 1], val[i])] for i in range(1, n))
    return word


def lin_fu_phi_inv(word: str) -> Perm:
    """Invert the excedance-flag map by filling flagged slots increasingly."""
    _require(is_motzkin2_path(word), "not a two-flavored Motzkin path: {!r}", word)
    return _lin_fu_phi_inv(word)


def _lin_fu_phi_inv(word: str) -> Perm:
    n = len(word) + 1
    pos = [0] * (n + 1)
    val = [0] * (n + 1)
    for i, ch in enumerate(word, start=1):
        pos[i] = 1 if ch in "UT" else 0
        val[i + 1] = 1 if ch in "TD" else 0
    exc_positions = [i for i in range(1, n + 1) if pos[i]]
    exc_values = [i for i in range(1, n + 1) if val[i]]
    _require(len(exc_positions) == len(exc_values), "unbalanced flags: {!r}", word)
    p = [0] * n
    for i, v in zip(exc_positions, exc_values):
        p[i - 1] = v
    rest_positions = [i for i in range(1, n + 1) if not pos[i]]
    rest_values = [v for v in range(1, n + 1) if not val[v]]
    for i, v in zip(rest_positions, rest_values):
        p[i - 1] = v
    result = check_permutation(p)
    _require(avoids(result, (3, 2, 1)), "flags do not code a 321-avoider: {!r}", word)
    return result


_PAIR_FROM_LETTER = {"U": ("N", "E"), "D": ("E", "N"), "H": ("N", "N"), "T": ("E", "E")}
_MU_FROM_LETTER = str.maketrans({ch: pair[0] for ch, pair in _PAIR_FROM_LETTER.items()})
_NU_FROM_LETTER = str.maketrans({ch: pair[1] for ch, pair in _PAIR_FROM_LETTER.items()})


def varsigma(word: str) -> tuple[str, str]:
    """Rewrite a two-flavored Motzkin path as a dominated walk pair."""
    _require(is_motzkin2_path(word), "not a two-flavored Motzkin path: {!r}", word)
    return _varsigma(word)


def _varsigma(word: str) -> tuple[str, str]:
    return word.translate(_MU_FROM_LETTER), word.translate(_NU_FROM_LETTER)


_LETTER_FROM_PAIR = {v: k for k, v in _PAIR_FROM_LETTER.items()}


def varsigma_inv(pair: tuple[str, str]) -> str:
    """Rewrite a dominated walk pair as a two-flavored Motzkin path."""
    mu, nu = pair
    _require(is_walk_pair(mu, nu), "not a dominated walk pair: {}", pair)
    return "".join(_LETTER_FROM_PAIR[(a, b)] for a, b in zip(mu, nu))


def phi_cap(p: Perm) -> tuple[str, str]:
    """Map a 321-avoider to a dominated walk pair carrying excedances to east sets."""
    return _varsigma(lin_fu_phi(p))  # lin_fu_phi writes a Motzkin path


def phi_cap_inv(pair: tuple[str, str]) -> Perm:
    """Invert the excedance-transporting walk-pair map."""
    return _lin_fu_phi_inv(varsigma_inv(pair))  # a walk pair rewrites to a Motzkin path


# ---------- 321-avoiders and 312-avoiders ----------

def eta(p: Perm) -> Perm:
    """Map a 321-avoider to a 312-avoider, fixing left-to-right maxima."""
    _require_avoider(p, (3, 2, 1))
    return _simion_schmidt(p, pick_largest=True)


def eta_inv(p: Perm) -> Perm:
    """Invert the left-to-right-maxima rewriting."""
    _require_avoider(p, (3, 1, 2))
    return _simion_schmidt(p, pick_largest=False)


def _simion_schmidt(p: Perm, pick_largest: bool) -> Perm:
    n = len(p)
    used = [False] * (n + 1)
    out = list(p)  # left-to-right maxima keep their places
    rest = []  # (position, running maximum) of every other entry
    cur_max = 0
    for i, v in enumerate(p):
        if v > cur_max:
            cur_max = v
            used[v] = True
        else:
            rest.append((i, cur_max))
    for i, running_max in rest:
        choices = range(running_max - 1, 0, -1) if pick_largest else range(1, running_max)
        for c in choices:
            if not used[c]:
                out[i] = c
                used[c] = True
                break
        else:
            raise ValueError(f"no available value below {running_max} at position {i + 1}")
    return check_permutation(out)


# ---------- permutations and weighted histories ----------

def fz_history(p: Perm) -> tuple[str, tuple[int, ...]]:
    """Map a permutation to its valley-peak history with nesting weights."""
    check_permutation(p)
    return _fz_history(p)


def _fz_history(p: Perm) -> tuple[str, tuple[int, ...]]:
    n = len(p)
    q = inverse(p)
    framed = (0, *p, n + 1)  # framed[j] is the letter at position j, with 0 and n+1 outside
    word = []
    weights = []
    # bit m of ``straddling`` marks the descent at positions (m, m+1) whose bottom is
    # below the current value and whose top is above it; the weight of value i at
    # position j counts those with m + 1 < j
    straddling = 0
    for i, j in enumerate(q, start=1):
        left, right = framed[j - 1], framed[j + 1]
        if right < i:
            straddling &= ~(1 << j)
        if left > i < right:
            ch = "U"
        elif left < i > right:
            ch = "D"
        elif left < i < right:
            ch = "H"
        else:
            ch = "T"
        word.append(ch)
        weights.append((straddling & ((1 << (j - 1)) - 1)).bit_count())
        if left > i:
            straddling |= 1 << (j - 1)
    return "".join(word), tuple(weights)


def fz_history_inv(word: str, weights) -> Perm:
    """Rebuild a permutation from its valley-peak history by slot insertion."""
    weights = tuple(weights)
    _require(is_laguerre_history(word, weights),
             "not a valid weighted history: {!r} {}", word, weights)
    return _slot_insert(word, weights)


def _slot_insert(word: str, weights: tuple[int, ...]) -> Perm:
    # the letters placed so far, cut at the open slots: slot w lies between
    # blocks[w] and blocks[w + 1], and value i fills slot weights[i - 1]
    blocks: list[list[int]] = [[], []]
    for i, (ch, w) in enumerate(zip(word, weights), start=1):
        if ch == "U":  # i with a slot on each side
            blocks.insert(w + 1, [i])
        elif ch == "H":  # i with a slot after it
            blocks[w].append(i)
        elif ch == "T":  # i with a slot before it
            blocks[w + 1].insert(0, i)
        else:  # i closes the slot
            blocks[w].append(i)
            blocks[w].extend(blocks.pop(w + 1))
    _require(len(blocks) == 2, "slot bookkeeping failed: {!r}", word)
    return check_permutation(blocks[0] + blocks[1])


# The composites below guard their own input and chain the cores: eta carries
# 321-avoiders onto 312-avoiders, and psi_fz_inv writes 312-avoiders.  The
# weights each core builds are a history's caps or zeros, so slot insertion
# takes them unscanned; every built permutation is still checked.

def psi_fz(p: Perm) -> Perm:
    """Map a 312-avoider to the 231-avoider with the same valley-peak word."""
    _require_avoider(p, (3, 1, 2))
    return _psi_fz(p)


def _psi_fz(p: Perm) -> Perm:
    word, weights = _fz_history(p)
    _require(not any(weights), "unexpected nesting weights: {}", p)
    return _slot_insert(word, laguerre_weight_caps(word))


def psi_fz_inv(p: Perm) -> Perm:
    """Invert the valley-peak-word rewriting toward 312-avoiders."""
    _require_avoider(p, (2, 3, 1))
    return _psi_fz_inv(p)


def _psi_fz_inv(p: Perm) -> Perm:
    word, weights = _fz_history(p)
    _require(weights == laguerre_weight_caps(word), "unexpected nesting weights: {}", p)
    return _slot_insert(word, (0,) * len(word))


def psi_cap(p: Perm) -> Perm:
    """Map a 321-avoider to a 231-avoider preserving left peak values."""
    _require_avoider(p, (3, 2, 1))
    return _psi_fz(_simion_schmidt(p, pick_largest=True))


def psi_cap_inv(p: Perm) -> Perm:
    """Invert the left-peak-preserving map."""
    _require_avoider(p, (2, 3, 1))
    return _simion_schmidt(_psi_fz_inv(p), pick_largest=False)


# ---------- plane trees and 231-avoiders ----------

def vartheta(t: PlaneTree) -> Perm:
    """Map a plane tree to a 231-avoider by splitting at the first leaf."""
    out: list[int] = []
    _vartheta(t, 0, out)
    return tuple(out)


def _vartheta(t: PlaneTree, base: int, out: list[int]) -> None:
    # appends (k . low) directsum high, values shifted by base, where k is the node
    # count of t_low, one more than the length of low
    while t:
        if () in t:
            w = t.index(())
            t_low = t[:w]
            t_high = t[w + 1:]
        else:
            # walk first children down to the first leaf; merge its neighborhood
            spine = []
            node = t
            while node[0]:
                spine.append(node)
                node = node[0]
            t_low = t[1:] + ((),) + node[1:]
            t_high = tuple(u[1:] for u in spine[1:])
        at = len(out)
        out.append(0)
        _vartheta(t_low, base, out)
        k = len(out) - at
        out[at] = base + k
        base += k
        t = t_high


def vartheta_inv(p: Perm) -> PlaneTree:
    """Invert the first-leaf splitting map."""
    _require_avoider(p, (2, 3, 1))
    return _vartheta_inv(p, 0, len(p), 0)


def _vartheta_inv(p: Perm, lo: int, hi: int, base: int) -> PlaneTree:
    # the block p[lo:hi] holds the values base+1..base+hi-lo; split at its first letter k
    if lo == hi:
        return ()
    k = p[lo] - base
    t_low = _vartheta_inv(p, lo + 1, lo + k, base)
    t_high = _vartheta_inv(p, lo + k, hi, base + k)
    if () not in t_low:
        return t_low + ((),) + t_high
    w = t_low.index(())
    node: PlaneTree = ((),) + t_low[w + 1:]
    for child in reversed(t_high):
        node = (node, *child)
    return (node,) + t_low[:w]


# ---------- Baxter permutations and walk triples ----------

def gamma(p: Perm) -> tuple[str, str, str]:
    """Map a Baxter permutation to the walk triple of its descent-derived sets."""
    check_permutation(p)
    _require(is_baxter(p), "not a Baxter permutation: {}", p)
    n = len(p)
    q = inverse(p)
    top = walk_from_positions(modified_descent_tops(q), n - 1)
    middle = walk_from_positions(descent_set(p), n - 1)
    bottom = walk_from_positions(descent_bottoms(q), n - 1)
    return top, middle, bottom


@lru_cache(maxsize=None)
def _gamma_by_triple(n: int) -> dict[tuple[str, str, str], Perm]:
    table: dict[tuple[str, str, str], Perm] = {}
    for p in all_permutations(n):
        if is_baxter(p):
            table[gamma(p)] = p
    return table


def gamma_inv(triple: tuple[str, str, str]) -> Perm:
    """Invert the walk-triple map by exhaustive lookup over Baxter permutations."""
    top, middle, bottom = triple
    _require(len(top) == len(middle) == len(bottom), "walks must have equal length")
    n = len(middle) + 1
    table = _gamma_by_triple(n)
    key = (top, middle, bottom)
    _require(key in table, "not in the walk-triple image: {}", triple)
    return table[key]


@lru_cache(maxsize=None)
def _gamma_restricted(n: int) -> dict[tuple[str, str], Perm]:
    # over 231-avoiders the bottom walk repeats the middle one
    table: dict[tuple[str, str], Perm] = {}
    for p in avoiders(n, (2, 3, 1)):
        top, middle, bottom = gamma(p)
        if middle != bottom:
            raise AssertionError(f"bottom differs from middle on a 231-avoider: {p}")
        table[(top, middle)] = p
    return table


def gamma_theta(p: Perm) -> Perm:
    """Carry a 231-avoider through the walk-pair map into the walk-triple preimage."""
    _require_avoider(p, (2, 3, 1))
    mu, nu = viennot_v(_phi_classic(p))  # theta, guarded above
    table = _gamma_restricted(len(p))
    key = (mu, nu)
    _require(key in table, "walk pair escapes the restricted image: {}", p)
    return table[key]
