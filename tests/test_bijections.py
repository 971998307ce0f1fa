"""Bijections: frozen images, round-trips, and statistic transports."""

import hashlib

import pytest

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
    laguerre_histories,
    platform_multiset,
    serialize_laguerre_history,
    serialize_walk_pair,
    ver_set,
    walk_pairs,
)
from catschett.objects.permutations import (
    all_permutations,
    avoiders,
    baxter_permutations,
    identity,
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
    for n in range(1, 8):
        images = set()
        for t in binary_trees(n):
            pair = viennot_v(t)
            assert viennot_v_inv(pair) == t
            images.add(pair)
        assert images == set(walk_pairs(n))


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


def _avoiding(pattern):
    return lambda n: avoiders(n, pattern)


def _fz_history_inv(history):
    return fz_history_inv(*history)


A231, A321, A312 = _avoiding((2, 3, 1)), _avoiding((3, 2, 1)), _avoiding((3, 1, 2))
PERM, BTREE, PTREE = serialize_permutation, serialize_binary_tree, serialize_plane_tree
PAIR, HISTORY = serialize_walk_pair, serialize_laguerre_history

# sha256 of the lines "<n> <x> <f(x)>" over every x of size n <= top, in generation
# order, recorded before the maps became single scans; the fz pair stops at n = 8,
# where its domain, every permutation, already has 46,234 objects
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
    "theta": (A231, theta, PERM, PAIR, 9,
              "85ccea726efe790136e85c00861de56816d592b43524f12002de1ff36cd72fe5"),
    "theta_inv": (walk_pairs, theta_inv, PAIR, PERM, 9,
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
}


@pytest.mark.parametrize("name", sorted(MAP_DIGESTS))
def test_map_images_are_pinned(name):
    domain, forward, render_x, render_y, top, expected = MAP_DIGESTS[name]
    sizes = range(1, top + 1) if domain is walk_pairs else range(top + 1)
    text = "\n".join(f"{n} {render_x(x)} {render_y(forward(x))}" for n in sizes for x in domain(n))
    assert hashlib.sha256(text.encode()).hexdigest() == expected
