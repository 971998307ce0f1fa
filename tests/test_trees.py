"""Tree object layer: generation counts, chain orders, arms, serialization."""

import hashlib

import pytest

from catschett.objects.permutations import catalan
from catschett.objects.trees import (
    binary_trees,
    left_arm,
    left_chain_orders,
    parse_binary_tree,
    parse_plane_tree,
    plane_node_count,
    plane_trees,
    right_arm,
    right_chain_orders,
    serialize_binary_tree,
    serialize_plane_tree,
)


# sha256 of the lines "<n> <tree text>" over the listed sizes, in generation order,
# recorded before the trees were built bottom-up
TREE_DIGESTS = {
    "binary": (binary_trees, serialize_binary_tree, 11,
               "f84ad5ff29eca58661df77bce238744af012a155c4742c0b32d57851b470e352"),
    "plane": (plane_trees, serialize_plane_tree, 10,
              "9a3b16ec7de840218dcb32e6a607fc1af51c67bf8f24ce12002c344c1a12250d"),
}


@pytest.mark.parametrize("family", sorted(TREE_DIGESTS))
def test_tree_generation_order_is_pinned(family):
    generate, render, stop, expected = TREE_DIGESTS[family]
    text = "\n".join(f"{n} {render(t)}" for n in range(stop) for t in generate(n))
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_binary_tree_counts():
    for n in range(9):
        assert sum(1 for _ in binary_trees(n)) == catalan(n)


def test_plane_tree_counts():
    for n in range(9):
        assert sum(1 for _ in plane_trees(n)) == catalan(n)


def test_single_node_chains():
    t = (None, None)
    assert left_chain_orders(t) == (1,)
    assert right_chain_orders(t) == (1,)
    assert left_arm(t) == 1
    assert right_arm(t) == 1


def test_left_path_chains():
    t = (((None, None), None), None)
    assert left_chain_orders(t) == (3,)
    assert sum(k // 2 for k in left_chain_orders(t)) == 1


def test_chain_orders_partition_nodes():
    for n in range(8):
        for t in binary_trees(n):
            assert sum(left_chain_orders(t)) == n
            assert sum(right_chain_orders(t)) == n


def test_arm_bounds():
    for n in range(1, 8):
        for t in binary_trees(n):
            assert 1 <= left_arm(t) <= n
            assert 1 <= right_arm(t) <= n


def test_binary_serialization_round_trip():
    for n in range(7):
        for t in binary_trees(n):
            assert parse_binary_tree(serialize_binary_tree(t)) == t


def test_plane_serialization_round_trip():
    for n in range(7):
        for t in plane_trees(n):
            assert parse_plane_tree(serialize_plane_tree(t)) == t


def test_binary_parse_diagnostics():
    with pytest.raises(ValueError, match="column"):
        parse_binary_tree("(. .) junk")
    with pytest.raises(ValueError):
        parse_binary_tree("(. ")


def test_plane_parse_diagnostics():
    with pytest.raises(ValueError, match="column"):
        parse_plane_tree("(()")
    with pytest.raises(ValueError, match="column"):
        parse_plane_tree("()extra")


def test_plane_node_count():
    assert plane_node_count(()) == 1
    assert plane_node_count(((), ())) == 3

