"""Bijections: frozen images, round-trips, and statistic transports."""

import hashlib
from functools import lru_cache
from itertools import product

import pytest

from catschett import bijections, config
from catschett.bijections import (
    eta,
    eta_inv,
    fz_history,
    fz_history_inv,
    gamma,
    gamma_inv,
    gamma_theta,
    lin_fu_phi,
    lin_fu_phi_inv,
    phi_cap,
    phi_cap_inv,
    phi_classic,
    phi_classic_inv,
    psi_cap,
    psi_cap_inv,
    psi_fz,
    psi_fz_inv,
    psi_kratt,
    psi_kratt_inv,
    tau,
    tau_inv,
    theta,
    theta_inv,
    upsilon,
    upsilon_inv,
    varsigma,
    varsigma_inv,
    vartheta,
    vartheta_inv,
    viennot_v,
    viennot_v_inv,
)
from catschett.objects.paths import (
    dyck_composition,
    dyck_paths,
    hor_set,
    is_laguerre_history,
    is_motzkin2_path,
    laguerre_histories,
    laguerre_weight_caps,
    motzkin2_paths,
    platform_multiset,
    serialize_laguerre_history,
    serialize_walk_pair,
    serialize_walk_triple,
    ver_set,
    walk_pairs,
)
from catschett.objects.permutations import (
    all_permutations,
    avoiders,
    avoids,
    baxter_permutations,
    check_permutation,
    inverse,
    serialize_permutation,
)
from catschett.objects.trees import (
    binary_trees,
    left_chain_orders,
    plane_trees,
    serialize_binary_tree,
    serialize_plane_tree,
)
from catschett.statistics import ascent_set, descent_set, left_peak_values
from oracles import identity

FIG_PERM_231 = (1, 4, 3, 2, 9, 5, 7, 6, 8)
FIG_PERM_321 = (2, 4, 5, 1, 3, 6, 8, 7, 9)
FIG_PERM_EXC = (1, 3, 4, 2, 7, 5, 9, 6, 8)
FIG_TREE = (None, (((None, None), ((None, None), ((None, (None, None)), None))), None))


def test_upsilon_frozen_image():
    assert upsilon(FIG_PERM_231) == FIG_TREE
    assert sorted(left_chain_orders(FIG_TREE)) == [1, 1, 2, 2, 3]
    assert upsilon((1,)) == (None, None)
    assert upsilon((2, 1)) == ((None, None), None)


def test_upsilon_round_trip():
    for n in range(8):
        for p in avoiders(n, (2, 3, 1)):
            assert upsilon_inv(upsilon(p)) == p


def test_theta_frozen_image():
    assert theta(FIG_PERM_231) == ("NEENNENE", "NEENENEN")
    assert theta((1,)) == ("", "")


def test_theta_round_trip_and_transport():
    for n in range(1, 8):
        for p in avoiders(n, (2, 3, 1)):
            mu, nu = theta(p)
            assert theta_inv((mu, nu)) == p
            assert hor_set(nu) == descent_set(p)
            assert ver_set(mu) == ascent_set(inverse(p))


def test_viennot_round_trip():
    for n in range(1, 11):
        images = set()
        for t in binary_trees(n):
            pair = viennot_v(t)
            assert viennot_v_inv(pair) == t
            images.add(pair)
        pairs = set(walk_pairs(n))
        assert images == pairs
        for pair in pairs:
            assert viennot_v(viennot_v_inv(pair)) == pair


def test_phi_classic_round_trip():
    for n in range(8):
        for p in avoiders(n, (2, 3, 1)):
            assert phi_classic_inv(phi_classic(p)) == p


def test_tau_frozen_image():
    assert tau((None, None)) == "EN"


def test_tau_round_trip_and_platform_transport():
    for n in range(8):
        for t in binary_trees(n):
            w = tau(t)
            assert tau_inv(w) == t
            assert sorted(left_chain_orders(t)) == sorted(platform_multiset(w))


def test_psi_kratt_frozen_image():
    w = psi_kratt(FIG_PERM_321)
    assert w == "EEEENNENNNENEENNEN"
    assert sorted(platform_multiset(w)) == [1, 1, 1, 2, 4]
    assert dyck_composition(w) == (3, 4, 2)
    assert psi_kratt(identity(4)) == "ENENENEN"


def test_psi_kratt_round_trip():
    for n in range(9):
        for p in avoiders(n, (3, 2, 1)):
            assert psi_kratt_inv(psi_kratt(p)) == p


def test_lin_fu_frozen_image():
    assert lin_fu_phi(FIG_PERM_EXC) == "HTTHUDUD"
    assert lin_fu_phi((1,)) == ""


def test_lin_fu_round_trip():
    for n in range(1, 9):
        for p in avoiders(n, (3, 2, 1)):
            assert lin_fu_phi_inv(lin_fu_phi(p)) == p


def test_varsigma_round_trip():
    for n in range(1, 8):
        for p in avoiders(n, (3, 2, 1)):
            word = lin_fu_phi(p)
            assert varsigma_inv(varsigma(word)) == word


def test_phi_cap_transport():
    mu, nu = phi_cap(FIG_PERM_EXC)
    assert sorted(hor_set(nu)) == [2, 3, 5, 7]
    assert sorted(ver_set(mu)) == [1, 4, 5, 7]
    assert phi_cap_inv((mu, nu)) == FIG_PERM_EXC
    mu_id, nu_id = phi_cap(identity(5))
    assert hor_set(nu_id) == frozenset()


def test_eta_frozen_image():
    assert eta((4, 1, 2, 7, 3, 9, 5, 6, 8, 12, 13, 10, 11)) == \
        (4, 3, 2, 7, 6, 9, 8, 5, 1, 12, 13, 11, 10)
    assert eta(identity(5)) == identity(5)


def test_eta_round_trip():
    for n in range(9):
        for p in avoiders(n, (3, 2, 1)):
            q = eta(p)
            assert eta_inv(q) == p


def test_fz_frozen_image():
    assert fz_history((5, 2, 4, 1, 3, 9, 7, 6, 8)) == \
        ("UUHDDUTHD", (0, 0, 2, 1, 0, 0, 0, 1, 0))
    word, weights = fz_history(identity(5))
    assert word == "HHHHH"
    assert weights == (0, 0, 0, 0, 0)


def test_fz_round_trip_on_all_permutations():
    for n in range(7):
        for p in all_permutations(n):
            word, weights = fz_history(p)
            assert fz_history_inv(word, weights) == p


def test_psi_fz_frozen_image():
    assert psi_fz((4, 3, 2, 7, 6, 8, 9, 5, 1)) == (9, 5, 1, 4, 3, 2, 7, 6, 8)


def test_psi_fz_round_trip_and_left_peaks():
    for n in range(9):
        for p in avoiders(n, (3, 1, 2)):
            q = psi_fz(p)
            assert psi_fz_inv(q) == p
            assert left_peak_values(q) == left_peak_values(p)


def test_psi_cap_preserves_left_peaks():
    for n in range(8):
        for p in avoiders(n, (3, 2, 1)):
            q = psi_cap(p)
            assert left_peak_values(q) == left_peak_values(p)
            assert psi_cap_inv(q) == p


def test_vartheta_frozen_images():
    assert vartheta(((),)) == (1,)
    assert vartheta((((),),)) == (2, 1)
    assert vartheta(((), ())) == (1, 2)
    assert vartheta(((((), ()),))) == (3, 1, 2)


def test_vartheta_round_trip():
    for n in range(8):
        for t in plane_trees(n):
            assert vartheta_inv(vartheta(t)) == t


def test_gamma_injective_small():
    for n in range(1, 7):
        triples = [gamma(b) for b in baxter_permutations(n)]
        assert len(set(triples)) == len(triples)
        for b in baxter_permutations(n):
            assert gamma_inv(gamma(b)) == b


def test_gamma_rejects_non_baxter():
    with pytest.raises(ValueError):
        gamma((2, 4, 1, 3))


def test_gamma_theta_contract():
    from catschett.statistics import modified_descent_tops
    for n in range(1, 7):
        for p in avoiders(n, (2, 3, 1)):
            q = gamma_theta(p)
            assert descent_set(q) == descent_set(p)
            assert modified_descent_tops(inverse(q)) == descent_set(inverse(p))


def test_gamma_theta_refuses_sizes_above_its_bound(monkeypatch):
    # every size the packaged config lets cor2.6 reach is covered, and a larger
    # one is refused before the restricted table lists a single avoider
    def listed(n, pattern):
        raise AssertionError(f"avoiders({n}, {pattern}) called")

    size = bijections.GAMMA_THETA_MAX_SIZE + 1
    assert size > config.enumeration_bound()
    monkeypatch.setattr(bijections, "avoiders", listed)
    with pytest.raises(ValueError, match=f"up to {size - 1}, got size {size}$"):
        gamma_theta(tuple(range(1, size + 1)))


def _avoiding(pattern):
    return lambda n: avoiders(n, pattern)


def _fz_history_inv(history):
    return fz_history_inv(*history)


def _from_size_1(domain):
    # the domain without its size-0 objects, for a map whose image family starts at size 1
    return lambda n: domain(n) if n else iter(())


def _baxter_triples(n):
    # gamma's images
    return map(gamma, baxter_permutations(n))


A231, A321, A312 = _avoiding((2, 3, 1)), _avoiding((3, 2, 1)), _avoiding((3, 1, 2))
A231_1, A321_1, BAXTER_1 = _from_size_1(A231), _from_size_1(A321), _from_size_1(baxter_permutations)
PAIRS_1, TRIPLES_1 = _from_size_1(walk_pairs), _from_size_1(_baxter_triples)
PERM, BTREE, PTREE = serialize_permutation, serialize_binary_tree, serialize_plane_tree
PAIR, TRIPLE, HISTORY = serialize_walk_pair, serialize_walk_triple, serialize_laguerre_history

# sha256 of the lines "<n> <x> <f(x)>" over every x of size n <= top, in generation
# order, recorded before the maps became single scans; the fz pair stops at n = 8,
# where its domain, every permutation, already has 46,234 objects.  The lin_fu,
# varsigma, Phi and gamma_theta entries were recorded before the composites began
# to chain private cores, and the gamma pair before its lookup tables called an
# unguarded core.  The theta, lin_fu_phi, phi_cap, gamma and gamma_theta entries
# leave size 0 out, which these maps refuse, and were re-recorded over sizes 1..top
# from the code before they refused it.
MAP_DIGESTS = {
    "upsilon": (A231, upsilon, PERM, BTREE, 9,
                "bff35dd81f4d6aa38035d7c5679eb3ee74d6f8cde9091b855d2c15235fa75ab1"),
    "upsilon_inv": (binary_trees, upsilon_inv, BTREE, PERM, 9,
                    "37d975db72a0011d7ba5a41919250f3bb761a2c696a64594af66b71221927c7a"),
    "phi_classic": (A231, phi_classic, PERM, BTREE, 9,
                    "cb45a463b14879580d3b8a26f6610636284b2780c836ffa328bcdf9c4fd85407"),
    "phi_classic_inv": (binary_trees, phi_classic_inv, BTREE, PERM, 9,
                        "6d6bf68ed023b0a9d9596379c1945b38ff1591982f043f62c0af4de4058db465"),
    "viennot_v": (binary_trees, viennot_v, BTREE, PAIR, 9,
                  "c8551e350156a2adf4b6e59afb9098ad59f8d8e5232d2504e458b3c254d3f4f2"),
    "theta": (A231_1, theta, PERM, PAIR, 9,
              "2f5c0059ca8bf30d6a97a5e3e852709c1587562955fec5d4bfff711134b2eb97"),
    "theta_inv": (PAIRS_1, theta_inv, PAIR, PERM, 9,
                  "ea52e50841298a1e2034b835ec65a33a52fa6099a537d9fc580c96c4c342d23e"),
    "psi_kratt": (A321, psi_kratt, PERM, str, 10,
                  "22de838502d7a96d2c3d7fd9097a50c97bae49639f12a6fdb46e39ed32e35c4c"),
    "psi_kratt_inv": (dyck_paths, psi_kratt_inv, str, PERM, 10,
                      "47adada3c63a1ba7db2f937bafd87bb85779e3fed430d139f9b19d7578f97a1e"),
    "eta": (A321, eta, PERM, PERM, 9,
            "6ed05e2b1376fedbf3ed64a0da0f8bc8c2db5b3043f01572db27b3111b1dfaba"),
    "eta_inv": (A312, eta_inv, PERM, PERM, 9,
                "b586e108f0d4496f921c0eca0cc46da5dcca93ec9529c8b6842411aeb653c963"),
    "fz_history": (all_permutations, fz_history, PERM, HISTORY, 8,
                   "9e820add147af7b0ac4d5401ad3225dca334c587f07f2ba7ce2d93b2e41492f6"),
    "fz_history_inv": (laguerre_histories, _fz_history_inv, HISTORY, PERM, 8,
                       "09362fddd20cd657e5830be5c56e976c74b62db7b50f28c2a8ceaa4d2844596d"),
    "psi_fz": (A312, psi_fz, PERM, PERM, 9,
               "2846702e1a16b91278f926e3e24071cb39bfd2d0617ee8c265ad42b86d611894"),
    "psi_fz_inv": (A231, psi_fz_inv, PERM, PERM, 9,
                   "3ded1c1dcb345f6ea7e6eedbd714cc71698a8dfb5aa5608eda90f392932d484f"),
    "psi_cap": (A321, psi_cap, PERM, PERM, 9,
                "be70fec743eabacf1bb23a39da78dc244d4990b4fac421d99b7148c1d5be3393"),
    "psi_cap_inv": (A231, psi_cap_inv, PERM, PERM, 9,
                    "afdad6cc55488d7b90b1c21dc53b431b98df7880565844b3087f506b5d927c7e"),
    "vartheta": (plane_trees, vartheta, PTREE, PERM, 9,
                 "d270881a4394df898e537df522de0135bdfec61dba5e6b0de1efd73a54501d03"),
    "vartheta_inv": (A231, vartheta_inv, PERM, PTREE, 9,
                     "acf9bb51f6ca0357d323e7469dded05bf5ac9c9b34e27bc2153ceffa4ba2046d"),
    "lin_fu_phi": (A321_1, lin_fu_phi, PERM, str, 9,
                   "9dd95af8575f32e53bdfa7b4a0ba0ba8cfb61772b80ada43014acfa0a1b8ffe5"),
    "lin_fu_phi_inv": (motzkin2_paths, lin_fu_phi_inv, str, PERM, 9,
                       "37bf1d0c3d07e9489298c97e36a212422f80b325f21b7c52e59ebcee268481bc"),
    "varsigma": (motzkin2_paths, varsigma, str, PAIR, 9,
                 "2e9a9226026fa5a3dcab4458d155f6a1160c89f3cf3891c799a3cda0ebc50919"),
    "varsigma_inv": (PAIRS_1, varsigma_inv, PAIR, str, 9,
                     "759ce3b1bd3fe93d6aacbdfaa71c88485db1c9e3566d79a39ad5d32c1bd3cc5a"),
    "phi_cap": (A321_1, phi_cap, PERM, PAIR, 9,
                "73f3eefa9d3948b6708cbf3137968e0295fa19b447519c4d57e400f43f79e8f9"),
    "phi_cap_inv": (PAIRS_1, phi_cap_inv, PAIR, PERM, 9,
                    "c88240d1aa165d39cc5d1a6c6699ed3024b56964bf22f56606c540a89660a415"),
    "gamma_theta": (A231_1, gamma_theta, PERM, PERM, 8,
                    "441969213b0297cb23b93f41acdafc828db85687198280dfda7fc7b7979c9803"),
    "gamma": (BAXTER_1, gamma, PERM, TRIPLE, 7,
              "ff4aa31fe712f6a1ae1b6579a38db69f8ad80a8741641010cf2591085d8ba751"),
    "gamma_inv": (TRIPLES_1, gamma_inv, TRIPLE, PERM, 7,
                  "a88b949654d6ed5d35c0d32228766d5574245b7b27d88e10b535f5e05d9057f0"),
}


@pytest.mark.parametrize("name", sorted(MAP_DIGESTS))
def test_map_images_are_pinned(name):
    domain, forward, render_x, render_y, top, expected = MAP_DIGESTS[name]
    text = "\n".join(f"{n} {render_x(x)} {render_y(forward(x))}" for n in range(top + 1) for x in domain(n))
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# ---------- the composites chain private cores: differential gate ----------

def _guard(p, pattern):
    check_permutation(p)
    if not avoids(p, pattern):
        raise ValueError(f"not {''.join(map(str, pattern))}-avoiding: {p}")


def _psi_fz_chain(p):
    # psi_fz as it read over the public history maps
    _guard(p, (3, 1, 2))
    word, weights = fz_history(p)
    if any(weights):
        raise ValueError(f"unexpected nesting weights: {p}")
    return fz_history_inv(word, laguerre_weight_caps(word))


def _psi_fz_inv_chain(p):
    _guard(p, (2, 3, 1))
    word, weights = fz_history(p)
    if weights != laguerre_weight_caps(word):
        raise ValueError(f"unexpected nesting weights: {p}")
    return fz_history_inv(word, (0,) * len(word))


def _fz_history_by_definition(p):
    # value i at position j: its letter compares it with its framed neighbours, and its
    # weight counts the descents p[m] > i > p[m + 1] with m + 1 < j
    check_permutation(p)
    framed = (0, *p, len(p) + 1)
    word, weights = [], []
    for i in range(1, len(p) + 1):
        j = framed.index(i)
        left, right = framed[j - 1], framed[j + 1]
        word.append("U" if left > i < right else "D" if left < i > right
                    else "H" if left < i < right else "T")
        weights.append(sum(1 for m in range(1, j - 1) if framed[m] > i > framed[m + 1]))
    return "".join(word), tuple(weights)


@lru_cache(maxsize=None)
def _histories_inverted(n):
    return {fz_history(p): p for p in all_permutations(n)}


def _fz_history_inv_by_lookup(word, weights):
    weights = tuple(weights)
    if not is_laguerre_history(word, weights):
        raise ValueError(f"not a valid weighted history: {word!r} {weights}")
    return _histories_inverted(len(word))[word, weights]


def _varsigma_by_letters(word):
    if not is_motzkin2_path(word):
        raise ValueError(f"not a two-flavored Motzkin path: {word!r}")
    pairs = {"U": "NE", "D": "EN", "H": "NN", "T": "EE"}
    return "".join(pairs[ch][0] for ch in word), "".join(pairs[ch][1] for ch in word)


@lru_cache(maxsize=None)
def _lin_fu_inverted(m):
    return {lin_fu_phi(p): p for p in avoiders(m + 1, (3, 2, 1))}


def _lin_fu_phi_inv_by_lookup(word):
    if not is_motzkin2_path(word):
        raise ValueError(f"not a two-flavored Motzkin path: {word!r}")
    return _lin_fu_inverted(len(word))[word]


@lru_cache(maxsize=None)
def _restricted_triples(n):
    return {gamma(q)[:2]: q for q in avoiders(n, (2, 3, 1))}


def _gamma_theta_chain(p):
    _guard(p, (2, 3, 1))
    return _restricted_triples(len(p))[theta(p)]


NON_PERMUTATIONS = ((1, 1), (2,), (0, 1), (1, 3), (2, 2, 1), (1, 2, 4), (3, 1, 2, 2),
                    [2, 1, 3], [3, 1, 2], [2, 3, 1])
PERMUTATION_INPUTS = (*(p for n in range(8) for p in all_permutations(n)), *NON_PERMUTATIONS)
MOTZKIN_WORDS = tuple("".join(w) for m in range(7) for w in product("UDHT", repeat=m))
MOTZKIN_INPUTS = (*MOTZKIN_WORDS, "X", "UXD", "ud", "UDE")
PAIR_INPUTS = (*((w[:m], w[m:]) for m in range(7) for w in map("".join, product("EN", repeat=2 * m))),
               ("E", ""), ("EN", "E"), ("X", "N"), ("NE", "EN"), ("ENN", "NEN"))
HISTORY_INPUTS = (*((w, laguerre_weight_caps(w)) for w in MOTZKIN_WORDS),
                  *((w, (0,) * len(w)) for w in MOTZKIN_WORDS),
                  *(h for n in range(7) for h in laguerre_histories(n)),
                  ("UD", (0,)), ("UD", (0, 0, 0)), ("UHD", [0, 1, 0]), ("UHD", (0, -1, 0)))

# each rewired map with the chain of public stages, or the definition, it must agree with
DIFFERENTIAL = {
    "psi_cap": (psi_cap, lambda p: psi_fz(eta(p)), PERMUTATION_INPUTS),
    "psi_cap_inv": (psi_cap_inv, lambda p: eta_inv(psi_fz_inv(p)), PERMUTATION_INPUTS),
    "psi_fz": (psi_fz, _psi_fz_chain, PERMUTATION_INPUTS),
    "psi_fz_inv": (psi_fz_inv, _psi_fz_inv_chain, PERMUTATION_INPUTS),
    "fz_history": (fz_history, _fz_history_by_definition, PERMUTATION_INPUTS),
    "fz_history_inv": (lambda h: fz_history_inv(*h),
                       lambda h: _fz_history_inv_by_lookup(*h), HISTORY_INPUTS),
    "phi_cap": (phi_cap, lambda p: varsigma(lin_fu_phi(p)), PERMUTATION_INPUTS),
    "phi_cap_inv": (phi_cap_inv, lambda x: lin_fu_phi_inv(varsigma_inv(x)), PAIR_INPUTS),
    "varsigma": (varsigma, _varsigma_by_letters, MOTZKIN_INPUTS),
    "lin_fu_phi_inv": (lin_fu_phi_inv, _lin_fu_phi_inv_by_lookup, MOTZKIN_INPUTS),
    "gamma_theta": (gamma_theta, _gamma_theta_chain, PERMUTATION_INPUTS),
}


def _outcome(f, x):
    try:
        return "value", f(x)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_rewired_map_matches_its_stage_chain(name):
    fast, oracle, inputs = DIFFERENTIAL[name]
    outcomes = set()
    for x in inputs:
        expected = _outcome(oracle, x)
        assert _outcome(fast, x) == expected, (name, x)
        outcomes.add(expected[0])
    assert outcomes == {"value", "ValueError"}  # both sides of each guard were reached


# ---------- the composites check their input once ----------

def _counting(monkeypatch, name):
    calls = []
    original = getattr(bijections, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bijections, name, counted)
    return calls


def test_composites_validate_their_input_once(monkeypatch):
    avoid_calls = _counting(monkeypatch, "avoids")
    motzkin_scans = _counting(monkeypatch, "is_motzkin2_path")
    history_scans = _counting(monkeypatch, "is_laguerre_history")
    p321, p231 = FIG_PERM_321, psi_cap(FIG_PERM_321)
    gamma_theta(FIG_PERM_231)  # fills the restricted-image table, which calls no guard
    for f, x in ((psi_cap, p321), (psi_cap_inv, p231), (gamma_theta, FIG_PERM_231)):
        avoid_calls.clear()
        f(x)
        assert len(avoid_calls) == 1, f.__name__
    pair = phi_cap(FIG_PERM_EXC)
    motzkin_scans.clear()
    assert phi_cap_inv(pair) == FIG_PERM_EXC
    assert motzkin_scans == []
    p312 = eta(p321)
    history_scans.clear()
    assert psi_fz_inv(psi_fz(p312)) == p312
    assert psi_cap_inv(psi_cap(p321)) == p321
    assert history_scans == []
