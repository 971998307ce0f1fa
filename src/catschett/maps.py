"""Transport-map registry: each map declared once with its domain, inverse and text forms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from catschett.bijections import (
    eta,
    eta_inv,
    fz_history,
    fz_history_inv,
    gamma,
    gamma_inv,
    lin_fu_phi,
    lin_fu_phi_inv,
    phi_cap,
    phi_cap_inv,
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
)
from catschett.objects.paths import (
    motzkin2_paths,
    parse_laguerre_history,
    parse_walk_pair,
    parse_walk_triple,
    serialize_laguerre_history,
    serialize_walk_pair,
    serialize_walk_triple,
)
from catschett.objects.permutations import (
    all_permutations,
    avoiders,
    baxter_permutations,
    parse_permutation,
    serialize_permutation,
)
from catschett.objects.trees import (
    binary_trees,
    parse_binary_tree,
    parse_plane_tree,
    plane_trees,
    serialize_binary_tree,
    serialize_plane_tree,
)


@dataclass(frozen=True)
class TransportMap:
    """A bijection from a size-graded family, with its inverse and the text form of each side."""

    domain: Callable[[int], Iterable]  # the domain objects of size n
    forward: Callable
    inverse: Callable
    parse_domain: Callable[[str], object]
    render_domain: Callable[[object], str]
    parse_image: Callable[[str], object]
    render_image: Callable[[object], str]


ALIASES = {
    "υ": "upsilon", "θ": "theta", "τ": "tau", "ψ": "psi", "φ": "phi",
    "ς": "varsigma", "Φ": "Phi", "η": "eta", "ψfz": "psifz", "Ψ": "Psi",
    "ϑ": "vartheta", "γ": "gamma",
}


def _avoiding(pattern: tuple[int, ...]) -> Callable[[int], Iterable]:
    return lambda n: avoiders(n, pattern)


def transport_maps() -> dict[str, TransportMap]:
    """Every map by name, in the CLI's order.

    Built on each call from this module's current bindings, so a function
    rebound here (by a tracer or a test) is the one the callers run.
    """
    perm = (parse_permutation, serialize_permutation)
    btree = (parse_binary_tree, serialize_binary_tree)
    pair = (parse_walk_pair, serialize_walk_pair)
    word = (str, str)  # Dyck and Motzkin words are their own text form
    a231, a321 = _avoiding((2, 3, 1)), _avoiding((3, 2, 1))
    return {
        "upsilon": TransportMap(a231, upsilon, upsilon_inv, *perm, *btree),
        "theta": TransportMap(a231, theta, theta_inv, *perm, *pair),
        "tau": TransportMap(binary_trees, tau, tau_inv, *btree, *word),
        "psi": TransportMap(a321, psi_kratt, psi_kratt_inv, *perm, *word),
        "phi": TransportMap(a321, lin_fu_phi, lin_fu_phi_inv, *perm, *word),
        "varsigma": TransportMap(motzkin2_paths, varsigma, varsigma_inv, *word, *pair),
        "Phi": TransportMap(a321, phi_cap, phi_cap_inv, *perm, *pair),
        "eta": TransportMap(a321, eta, eta_inv, *perm, *perm),
        "psifz": TransportMap(_avoiding((3, 1, 2)), psi_fz, psi_fz_inv, *perm, *perm),
        "Psi": TransportMap(a321, psi_cap, psi_cap_inv, *perm, *perm),
        "vartheta": TransportMap(plane_trees, vartheta, vartheta_inv,
                                 parse_plane_tree, serialize_plane_tree, *perm),
        "gamma": TransportMap(baxter_permutations, gamma, gamma_inv,
                              *perm, parse_walk_triple, serialize_walk_triple),
        "fz": TransportMap(all_permutations, fz_history,
                           lambda h: fz_history_inv(*h),
                           *perm, parse_laguerre_history, serialize_laguerre_history),
    }


def transport_map(name: str) -> TransportMap:
    """The map registered under ``name`` or one of its aliases; KeyError if none."""
    return transport_maps()[ALIASES.get(name, name)]
