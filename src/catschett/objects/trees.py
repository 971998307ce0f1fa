"""Binary trees as nested (left, right) pairs and plane trees as tuples of children."""

from __future__ import annotations

from typing import Iterator, Optional

# a binary tree is None (empty) or a pair (left, right) of binary trees
BinaryTree = Optional[tuple]

# a plane tree is a tuple of child plane trees; a leaf is ()
PlaneTree = tuple


def binary_trees(n: int) -> Iterator[BinaryTree]:
    """Generate all binary trees with n nodes by the Catalan recurrence.

    A tree is a root over a left subtree of k nodes and a right one of n - 1 - k,
    ordered by k, then left, then right.  The sizes below n are built bottom-up
    and shared as subtrees; size n is streamed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    levels: list[list[BinaryTree]] = [[None]]
    for m in range(1, n):
        levels.append(list(_rooted_pairs(levels, m)))
    return _rooted_pairs(levels, n)


def _rooted_pairs(levels: list[list[BinaryTree]], m: int) -> Iterator[BinaryTree]:
    if m == 0:
        yield None
    for k in range(m):
        rights = levels[m - 1 - k]
        for left in levels[k]:
            for right in rights:
                yield (left, right)


def binary_node_count(t: BinaryTree) -> int:
    """Count the nodes of a binary tree."""
    if t is None:
        return 0
    return 1 + binary_node_count(t[0]) + binary_node_count(t[1])


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


def increasing_tree_shape(word) -> BinaryTree:
    """Binary-tree shape of the minimum-rooted split of a word with distinct letters."""
    w = tuple(word)
    if not w:
        return None
    m = w.index(min(w))
    return (increasing_tree_shape(w[:m]), increasing_tree_shape(w[m + 1:]))


def plane_trees(n: int) -> Iterator[PlaneTree]:
    """Generate all plane trees with n edges by the first-subtree recurrence.

    A tree is its first subtree, of k - 1 edges, followed by the other children
    of the root, a tree of n - k edges, ordered by k, then first, then rest.  The
    sizes below n are built bottom-up and shared as subtrees; size n is streamed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    levels: list[list[PlaneTree]] = [[()]]
    for m in range(1, n):
        levels.append(list(_first_subtree_joins(levels, m)))
    return _first_subtree_joins(levels, n)


def _first_subtree_joins(levels: list[list[PlaneTree]], m: int) -> Iterator[PlaneTree]:
    if m == 0:
        yield ()
    for k in range(1, m + 1):
        rests = levels[m - k]
        for first in levels[k - 1]:
            for rest in rests:
                yield (first, *rest)


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
