"""Transport-map registry: text forms, round trips, names and aliases."""

import pytest

from catschett import cli, maps

NAMES = ("upsilon", "theta", "tau", "psi", "phi", "varsigma", "Phi", "eta", "psifz",
         "Psi", "vartheta", "gamma", "fz")

# the aliases of the first twelve names, in the same order (fz has none)
ALIASES = ("υ", "θ", "τ", "ψ", "φ", "ς", "Φ", "η", "ψfz", "Ψ", "ϑ", "γ")


@pytest.mark.parametrize("name", NAMES)
def test_registered_map_round_trips_through_text(name):
    tmap = maps.transport_maps()[name]
    for n in range(1, 6):
        domain = list(tmap.domain(n))
        assert domain, (name, n)
        for x in domain:
            assert tmap.parse_domain(tmap.render_domain(x)) == x
            y = tmap.forward(x)
            assert tmap.parse_image(tmap.render_image(y)) == y
            assert tmap.inverse(y) == x


def test_cli_map_names_follow_the_registry():
    assert tuple(maps.transport_maps()) == NAMES
    assert maps.ALIASES == dict(zip(ALIASES, NAMES))
    assert cli.MAP_NAMES == NAMES + ALIASES


@pytest.mark.parametrize("alias, name", zip(ALIASES, NAMES))
def test_every_alias_resolves(alias, name):
    # domains are closures built per call, so compare the map functions
    tmap, named = maps.transport_map(alias), maps.transport_map(name)
    assert (tmap.forward, tmap.inverse) == (named.forward, named.inverse)


def test_unknown_map_name_raises():
    with pytest.raises(KeyError):
        maps.transport_map("nope")

