"""Bijections between pattern-restricted permutations, trees, paths, and histories."""

from __future__ import annotations

from functools import lru_cache

from catschett.objects.paths import (
    is_dyck_path,
    is_laguerre_history,
    is_motzkin2_path,
    is_walk_pair,
)
from catschett.objects.permutations import (
    Perm,
    avoids,
    baxter_permutations,
    check_permutation,
    inverse,
    is_baxter,
)
from catschett.objects.trees import BinaryTree, PlaneTree


def _require(condition: bool, template: str, *args) -> None:
    # the message is formatted only when the guard fails
    if not condition:
        raise ValueError(template.format(*args))


def _require_avoider(p: Perm, pattern: tuple[int, ...]) -> None:
    # a 321-avoider is accepted in one scan; other patterns, and every
    # refusal, go through check_permutation and avoids
    if pattern == (3, 2, 1) and _scans_as_321_avoider(p):
        return
    check_permutation(p)
    if not avoids(p, pattern):
        raise ValueError(f"not {''.join(map(str, pattern))}-avoiding: {p}")


def _scans_as_321_avoider(p) -> bool:
    """Test in one pass that ``p`` is a 321-avoiding permutation of [n].

    Each entry must be a new maximum at most n or the least value not yet
    placed; the entries that are not maxima then increase.  False, also for an
    entry the scan cannot read, leaves the verdict and its wording to the
    two-pass test.
    """
    try:
        n = len(p)
        placed = [False] * (n + 2)
        high = 0
        low = 1
        for v in p:
            if v > high:
                if v > n:
                    return False
                high = v
            elif v != low:
                return False
            placed[v] = True
            while placed[low]:
                low += 1
    except (TypeError, IndexError):
        return False
    return True


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


def theta(p: Perm) -> tuple[str, str]:
    """Map a 231-avoider to a dominated walk pair through the greatest-letter tree."""
    tree = phi_classic(p)
    # a size-n walk pair has words of n - 1 letters, so the empty pair is size 1's
    _require(tree is not None, "the empty permutation has no walk pair")
    return viennot_v(tree)


def theta_inv(pair: tuple[str, str]) -> Perm:
    """Invert the walk-pair map on 231-avoiders by one stack pass."""
    mu, nu = pair
    _require(is_walk_pair(mu, nu), "not a dominated walk pair: {}", pair)
    # A stack fed 1..n writes w = p^-1.  The push of v is followed by another
    # push exactly when v is in DES(p), the east set of nu, and the i-th letter
    # written by another pop exactly when i is in DES(p^-1), the east set of mu.
    n = len(nu) + 1
    stack: list[int] = []
    w: list[int] = []
    for v in range(1, n + 1):
        stack.append(v)
        if v < n and nu[v - 1] == "E":
            continue
        w.append(stack.pop())
        while len(w) < n and mu[len(w) - 1] == "E":
            w.append(stack.pop())
    return inverse(w)


# ---------- binary trees and Dyck paths ----------

def tau(t: BinaryTree) -> str:
    """Map a binary tree to a Dyck path by east-left-north-right reading."""
    # a node writes E and goes left, keeping its right child; a None writes the
    # N of the nearest node still open and goes to that node's right child
    word: list[str] = []
    rights: list[BinaryTree] = []
    while True:
        if t is not None:
            word.append("E")
            rights.append(t[1])
            t = t[0]
        elif rights:
            word.append("N")
            t = rights.pop()
        else:
            return "".join(word)


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
    # a size-n path has n - 1 letters, so the empty word is size 1's
    _require(n > 0, "the empty permutation has no Motzkin path")
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
    # Letter i flags position i as an excedance (U, T) and value i + 1 as an
    # excedance value (T, D); the flagged positions take the flagged values in
    # increasing order, and the other positions the other values.
    # Neither output guard below fires on a valid word; both stay as guards.  A Motzkin
    # path has as many U as D steps, so the U/T slot flags balance the T/D value flags;
    # and the flagged and unflagged slots each take their values increasingly, so p
    # merges two increasing sequences and holds no 321.
    _require(word.count("U") == word.count("D"), "unbalanced flags: {!r}", word)
    exc_values = iter([v for v, ch in enumerate(word, start=2) if ch in "TD"])
    rest_values = iter([1] + [v for v, ch in enumerate(word, start=2) if ch not in "TD"])
    p = [next(exc_values) if ch in "UT" else next(rest_values) for ch in word]
    p.append(next(rest_values))  # position n is never an excedance
    if not _scans_as_321_avoider(p):
        _require(avoids(check_permutation(p), (3, 2, 1)),
                 "flags do not code a 321-avoider: {!r}", word)
    return tuple(p)


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
    # Left-to-right maxima keep their places; every other entry takes the largest
    # (or smallest) value below the running maximum not yet taken.  The values
    # between two successive maxima are never maxima, so they join the free values
    # when the second maximum is read, and the free values form a stack (largest
    # first) or a queue (smallest first).
    out = list(p)
    free: list[int] = []
    head = 0  # the queue's front; the stack pops from the back and keeps it at 0
    cur_max = 0
    # at 0-based index i of a permutation, i + 1 <= cur_max leaves cur_max - i >= 1 free values
    for i, v in enumerate(p):
        if v > cur_max:
            free += range(cur_max + 1, v)
            cur_max = v
        elif pick_largest:
            out[i] = free.pop()
        else:
            out[i] = free[head]
            head += 1
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
# 321-avoiders onto 312-avoiders, and psi_fz_inv writes 312-avoiders.  Every
# built permutation is still checked.
#
# The history of a 312-avoider has every weight 0, and that of a 231-avoider has
# every weight at its cap, so both cores insert slots without weights.  Value i
# is classified by its framed neighbours as in _fz_history: U (both larger),
# D (both smaller), H (rising through i) or T (falling through i).

def psi_fz(p: Perm) -> Perm:
    """Map a 312-avoider to the 231-avoider with the same valley-peak word."""
    _require_avoider(p, (3, 1, 2))
    return _psi_fz(p)


def _psi_fz(p: Perm) -> Perm:
    # Slot insertion at the caps fills only the last slot but one, so the last
    # slot stays empty and the open slots sit between a stack of blocks: U pushes
    # [i], H appends i to the top block, T puts i in front of it, and D pops the
    # top and appends i, then the popped block, to the new top.
    framed = (0, *p, len(p) + 1)
    blocks: list[list[int]] = [[]]
    for i, j in enumerate(inverse(p), start=1):
        if framed[j - 1] > i:
            if framed[j + 1] > i:  # U
                blocks.append([i])
            else:  # T
                blocks[-1].insert(0, i)
        elif framed[j + 1] > i:  # H
            blocks[-1].append(i)
        else:  # D
            top = blocks.pop()
            blocks[-1].append(i)
            blocks[-1] += top
    return check_permutation(blocks[0])


def psi_fz_inv(p: Perm) -> Perm:
    """Invert the valley-peak-word rewriting toward 312-avoiders."""
    _require_avoider(p, (2, 3, 1))
    return _psi_fz_inv(p)


def _psi_fz_inv(p: Perm) -> Perm:
    # Slot insertion at weight 0 fills only the first slot, so the letters form a
    # head list and a stack of blocks, each held reversed: U pushes [i], T puts i
    # in front of the top block, H appends i to the head, and D appends i, then
    # the popped top block, to the head.
    framed = (0, *p, len(p) + 1)
    head: list[int] = []
    blocks: list[list[int]] = []
    for i, j in enumerate(inverse(p), start=1):
        if framed[j - 1] > i:
            if framed[j + 1] > i:  # U
                blocks.append([i])
            else:  # T
                blocks[-1].append(i)
        else:
            head.append(i)
            if framed[j + 1] < i:  # D
                head += reversed(blocks.pop())
    return check_permutation(head)


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
    # a size-n triple has walks of n - 1 letters, so the empty walks are size 1's
    _require(p, "the empty permutation has no walk triple")
    return _gamma(p)


def _gamma(p: Perm) -> tuple[str, str, str]:
    # east steps: the middle walk at DES(p); with q = p^-1, the top walk at
    # q_i - 1 and the bottom walk at q_{i+1} over the descents i of q
    n = len(p)
    q = inverse(p)
    top = ["N"] * (n - 1)
    middle = top[:]
    bottom = top[:]
    for i in range(n - 1):
        if p[i] > p[i + 1]:
            middle[i] = "E"
        a, b = q[i], q[i + 1]
        if a > b:
            top[a - 2] = "E"
            bottom[b - 1] = "E"
    return "".join(top), "".join(middle), "".join(bottom)


# The largest size the walk-triple lookup covers: its table filters all n! permutations.
GAMMA_INV_MAX_SIZE = 9


# One walk-triple table per size.  It holds only Baxter permutations, so it runs
# the unguarded core.

@lru_cache(maxsize=2)
def _gamma_table(n: int) -> dict[tuple[str, str, str], Perm]:
    return {_gamma(p): p for p in baxter_permutations(n)}


def gamma_inv(triple: tuple[str, str, str]) -> Perm:
    """Invert the walk-triple map by exhaustive lookup over Baxter permutations."""
    top, middle, bottom = triple
    _require(len(top) == len(middle) == len(bottom), "walks must have equal length")
    n = len(middle) + 1
    _require(n <= GAMMA_INV_MAX_SIZE, "walk-triple lookup covers sizes up to {}, got size {}",
             GAMMA_INV_MAX_SIZE, n)
    table = _gamma_table(n)
    key = (top, middle, bottom)
    _require(key in table, "not in the walk-triple image: {}", triple)
    return table[key]


def gamma_theta(p: Perm) -> Perm:
    """Carry a 231-avoider through the walk-pair map into the walk-triple preimage."""
    _require_avoider(p, (2, 3, 1))
    _require(p, "the empty permutation has no walk triple")
    mu, nu = viennot_v(_phi_classic(p))  # theta, guarded above
    # The 231-avoider q with walk triple (mu, nu, nu) is written as theta_inv
    # writes one, a stack fed 1..n writing w = q^-1, but mu is the top walk: a
    # popped value u is followed by another pop exactly when u - 1 is in
    # MDT(q^-1), the east set of mu.
    n = len(p)
    stack: list[int] = []
    w: list[int] = []
    for v in range(1, n + 1):
        stack.append(v)
        if v < n and nu[v - 1] == "E":
            continue
        u = stack.pop()
        w.append(u)
        while u > 1 and mu[u - 2] == "E":
            u = stack.pop()
            w.append(u)
    return inverse(w)
