"""Binary trees as nested (left, right) pairs and plane trees as tuples of children."""

from __future__ import annotations

from typing import Iterator, Optional

# a binary tree is None (empty) or a pair (left, right) of binary trees
BinaryTree = Optional[tuple]

# a plane tree is a tuple of child plane trees; a leaf is ()
PlaneTree = tuple


def catalan_family(n: int, empty, join, lift=None) -> Iterator:
    """Generate the size-n objects of a Catalan family by its level recurrence.

    An object of size m >= 1 is ``join(k, a, b)`` for k in 1..m, where a has size
    k - 1 and b has size m - k, ordered by k, then a, then b; ``lift(k, b)``, when
    given, rewrites each b once per k before it is joined.  Size 0 is ``empty``
    alone.  The sizes below n are built bottom-up and shared; size n is streamed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    levels = [[empty]]
    for m in range(1, n):
        levels.append(list(_level(levels, m, join, lift)))
    return _level(levels, n, join, lift)


def _level(levels: list[list], m: int, join, lift) -> Iterator:
    if m == 0:
        yield levels[0][0]
    for k in range(1, m + 1):
        bs = levels[m - k] if lift is None else [lift(k, b) for b in levels[m - k]]
        for a in levels[k - 1]:
            for b in bs:
                yield join(k, a, b)


def binary_trees(n: int) -> Iterator[BinaryTree]:
    """Generate all binary trees with n nodes by the Catalan recurrence.

    A tree is a root over a left subtree of k - 1 nodes and a right one of n - k,
    ordered by k, then left, then right.
    """
    return catalan_family(n, None, lambda k, left, right: (left, right))


def serialize_binary_tree(t: BinaryTree) -> str:
    """Render a binary tree as dots and parenthesized pairs."""
    if t is None:
        return "."
    return f"({serialize_binary_tree(t[0])} {serialize_binary_tree(t[1])})"


def parse_binary_tree(text: str) -> BinaryTree:
    """Parse the dot/pair rendering of a binary tree."""
    tree, pos = _parse_binary(text, 0)
    if text[pos:].strip():
        raise ValueError(f"trailing text at column {pos}: {text!r}")
    return tree


def _parse_binary(text: str, pos: int) -> tuple[BinaryTree, int]:
    while pos < len(text) and text[pos] == " ":
        pos += 1
    if pos >= len(text):
        raise ValueError(f"unexpected end of tree text: {text!r}")
    if text[pos] == ".":
        return None, pos + 1
    if text[pos] != "(":
        raise ValueError(f"expected '.' or '(' at column {pos}: {text!r}")
    left, pos = _parse_binary(text, pos + 1)
    right, pos = _parse_binary(text, pos)
    while pos < len(text) and text[pos] == " ":
        pos += 1
    if pos >= len(text) or text[pos] != ")":
        raise ValueError(f"expected ')' at column {pos}: {text!r}")
    return (left, right), pos + 1


def _chain_orders(t: BinaryTree, child: int) -> tuple[int, ...]:
    """Multiset of orders of the maximal chains through ``child`` (0 left, 1 right), descending."""
    orders: list[int] = []
    other = 1 - child
    stack = [] if t is None else [t]
    while stack:
        node = stack.pop()
        k = 0
        while node is not None:
            k += 1
            if node[other] is not None:
                stack.append(node[other])
            node = node[child]
        orders.append(k)
    return tuple(sorted(orders, reverse=True))


def left_chain_orders(t: BinaryTree) -> tuple[int, ...]:
    """Multiset of orders of maximal left chains, sorted descending."""
    return _chain_orders(t, 0)


def right_chain_orders(t: BinaryTree) -> tuple[int, ...]:
    """Multiset of orders of maximal right chains, sorted descending."""
    return _chain_orders(t, 1)


def left_arm(t: BinaryTree) -> int:
    """Order of the left chain through the root."""
    k = 0
    while t is not None:
        k += 1
        t = t[0]
    return k


def right_arm(t: BinaryTree) -> int:
    """Order of the right chain through the root."""
    k = 0
    while t is not None:
        k += 1
        t = t[1]
    return k


def plane_trees(n: int) -> Iterator[PlaneTree]:
    """Generate all plane trees with n edges by the first-subtree recurrence.

    A tree is its first subtree, of k - 1 edges, followed by the other children
    of the root, a tree of n - k edges, ordered by k, then first, then rest.
    """
    return catalan_family(n, (), lambda k, first, rest: (first, *rest))


def plane_node_count(t: PlaneTree) -> int:
    """Count the nodes of a plane tree."""
    return 1 + sum(plane_node_count(c) for c in t)


def serialize_plane_tree(t: PlaneTree) -> str:
    """Render a plane tree as nested parentheses, one pair per node."""
    return "(" + "".join(serialize_plane_tree(c) for c in t) + ")"


def parse_plane_tree(text: str) -> PlaneTree:
    """Parse the nested-parentheses rendering of a plane tree."""
    tree, pos = _parse_plane(text.strip(), 0)
    if text.strip()[pos:]:
        raise ValueError(f"trailing text at column {pos}: {text!r}")
    return tree


def _parse_plane(text: str, pos: int) -> tuple[PlaneTree, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ValueError(f"expected '(' at column {pos}: {text!r}")
    pos += 1
    children: list[PlaneTree] = []
    while pos < len(text) and text[pos] == "(":
        child, pos = _parse_plane(text, pos)
        children.append(child)
    if pos >= len(text) or text[pos] != ")":
        raise ValueError(f"expected ')' at column {pos}: {text!r}")
    return tuple(children), pos + 1
