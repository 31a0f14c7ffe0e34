"""Full binary trees and their jump statistics.

A full binary tree is either a leaf or an internal vertex with exactly two
children.  The text form is ``.`` for a leaf and ``[L,R]`` for an internal
vertex.

Four statistics are tracked per tree:

* ``internal``  — number of internal vertices (the size ``n``).
* ``jumps``     — jumps taken by a depth-first walk that enters at the root
  and exits past the rightmost leaf: a leaf costs nothing when it is a left
  child (the walk steps across to the sibling), while finishing a left
  subtree that is itself internal costs one jump to get back up and over.
* ``depth``     — depth of the rightmost leaf.
* ``jumpdist``  — total distance covered by jumps: leaving an exhausted
  left subtree L costs a climb from L's rightmost leaf back up over L's
  root, i.e. distance depth(L) measured within L, plus whatever the walk
  already paid inside the two subtrees.

All four obey simple compositional rules over ``[L,R]`` (see
``compute_stats``), and the identity ``jumpdist + depth == internal`` holds
for every tree.

Trees of one size are listed two ways, both exhaustive and both applying
the rules once per tree to its children's statistics (``_compose``):

* ``enumerate_trees`` and ``enumerate_trees_with_stats`` stream every tree
  with its statistics in memory linear in the size.
* The brute-force series enumerators, the oracles for the solvers, build
  no trees: for each size below the top one they keep a level of compact
  records, one int per tree, and compose each record of the next size from
  a left and a right record.  The top size streams into its counts.

Everything here is iterative with explicit stacks; trees hundreds of
thousands of vertices deep parse, format, and measure without touching the
interpreter's recursion limit.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import chain
from typing import Iterator, NamedTuple

from .algebra import Poly2, Series

DEFAULT_ENUMERATION_CAP = 16


class TreeParseError(ValueError):
    """Malformed tree text; ``position`` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EnumerationCapError(RuntimeError):
    """Refused to enumerate a size past the configured cap."""


class TreeStats(NamedTuple):
    internal: int
    jumps: int
    depth: int
    jumpdist: int


class Node:
    """Internal vertex with two children; leaves are the LEAF singleton."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Node, Leaf)):
            return NotImplemented
        # iterative comparison: deep trees must not recurse
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            a_node, b_node = isinstance(a, Node), isinstance(b, Node)
            if a_node != b_node:
                return False
            if a_node:
                stack.append((a.left, b.left))
                stack.append((a.right, b.right))
        return True

    def __hash__(self) -> int:
        return hash(format_tree(self))

    def __repr__(self) -> str:
        return f"parse_tree({format_tree(self)!r})"


class Leaf:
    """The unique leaf; compare with ``is LEAF``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Leaf):
            return True
        if isinstance(other, Node):
            return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(".")

    def __repr__(self) -> str:
        return "LEAF"


LEAF = Leaf()

_LEAF_STATS = TreeStats(0, 0, 0, 0)


def parse_tree(text: str) -> Node | Leaf:
    """Parse ``.`` / ``[L,R]`` text into a tree.

    Whitespace is allowed between tokens.  Errors carry the offending
    position.  Iterative; input depth is limited by memory only.
    """
    pos = 0
    n = len(text)
    # frames: [left_child or None] per open '['
    frames: list[list] = []
    done = None  # completed subtree waiting to be attached

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    while True:
        if done is None:
            if pos >= n:
                raise TreeParseError("expected '.' or '['", pos)
            ch = text[pos]
            if ch == ".":
                done = LEAF
                pos += 1
            elif ch == "[":
                frames.append([None])
                pos += 1
                pos = skip_ws(pos)
                continue
            else:
                raise TreeParseError(f"expected '.' or '[', found {ch!r}", pos)
        # attach the completed subtree
        if not frames:
            break
        pos = skip_ws(pos)
        frame = frames[-1]
        if frame[0] is None:
            if pos >= n or text[pos] != ",":
                raise TreeParseError("expected ','", pos)
            frame[0] = done
            done = None
            pos += 1
            pos = skip_ws(pos)
        else:
            if pos >= n or text[pos] != "]":
                raise TreeParseError("expected ']'", pos)
            done = Node(frame[0], done)
            frames.pop()
            pos += 1
    pos = skip_ws(pos)
    if pos != n:
        raise TreeParseError(f"trailing input {text[pos]!r}", pos)
    return done


def format_tree(tree: Node | Leaf) -> str:
    """Render a tree back to ``.`` / ``[L,R]`` text, iteratively."""
    out: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Node):
            stack.extend(("]", item.right, ",", item.left, "["))
        elif isinstance(item, Leaf):
            out.append(".")
        else:
            raise TypeError(f"not a tree: {item!r}")
    return "".join(out)


def compute_stats(tree: Node | Leaf) -> TreeStats:
    """Measure one tree, iteratively.

    Over a leaf all four statistics are 0.  Over ``[L,R]``:

    * internal = internal(L) + internal(R) + 1
    * jumps    = jumps(R)                      if L is a leaf
                 jumps(L) + jumps(R) + 1       otherwise
    * depth    = depth(R) + 1
    * jumpdist = jumpdist(L) + jumpdist(R) + depth(L)
    """
    if isinstance(tree, Leaf):
        return _LEAF_STATS
    if not isinstance(tree, Node):
        raise TypeError(f"not a tree: {tree!r}")
    # post-order over an explicit stack; finished subtrees keyed by id,
    # leaves handled inline (LEAF is shared, so it never enters the dict)
    results: dict[int, TreeStats] = {}
    stack: list[tuple[Node, bool]] = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            if isinstance(node.right, Node):
                stack.append((node.right, False))
            if isinstance(node.left, Node):
                stack.append((node.left, False))
            continue
        left, right = node.left, node.right
        ls = results[id(left)] if isinstance(left, Node) else _LEAF_STATS
        rs = results[id(right)] if isinstance(right, Node) else _LEAF_STATS
        if isinstance(left, Node):
            results.pop(id(left), None)
        if isinstance(right, Node):
            results.pop(id(right), None)
        jumps = rs.jumps if ls.internal == 0 else ls.jumps + rs.jumps + 1
        results[id(node)] = TreeStats(
            internal=ls.internal + rs.internal + 1,
            jumps=jumps,
            depth=rs.depth + 1,
            jumpdist=ls.jumpdist + rs.jumpdist + ls.depth,
        )
    return results[id(tree)]


def catalan(n: int) -> int:
    """Number of full binary trees with n internal vertices."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of size {n} exceeds the cap of {cap} "
            f"({catalan(n)} trees); raise the cap explicitly to proceed")


def enumerate_trees(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Node | Leaf]:
    """Yield every full binary tree with n internal vertices.

    Order is deterministic: by left-subtree size ascending, then
    recursively within each side.  Sizes past the cap are refused before
    any work happens.
    """
    for tree, _ in enumerate_trees_with_stats(n, cap):
        yield tree


def enumerate_trees_with_stats(
    n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[Node | Leaf, TreeStats]]:
    """Yield (tree, stats) pairs in enumerate_trees order.

    Stats are composed from the children's stats during construction, so a
    full sweep costs O(1) extra per tree.  This is the measurement route
    independent of compute_stats: the two are cross-checked in tests.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_cap(n, cap)
    yield from _enumerate_with_stats(n)


_LEAF_PAIR = (LEAF, _LEAF_STATS)


def _compose(ls: TreeStats, rs: TreeStats) -> TreeStats:
    """Statistics of ``[L,R]`` from those of L and R (rules in compute_stats).

    Each statistic is R's value plus a term that depends on L alone, so
    ``_compose(ls, rs)`` equals rs plus ``_compose(ls, _LEAF_STATS)`` field
    by field; the memoized levels rely on this.
    """
    return TreeStats(ls.internal + rs.internal + 1,
                     rs.jumps if ls.internal == 0 else ls.jumps + rs.jumps + 1,
                     rs.depth + 1,
                     ls.jumpdist + rs.jumpdist + ls.depth)


def _enumerate_with_stats(n: int) -> Iterator[tuple[Node | Leaf, TreeStats]]:
    if n == 0:
        yield _LEAF_PAIR
        return
    for i in range(n):
        for left, ls in _enumerate_with_stats(i):
            for right, rs in _enumerate_with_stats(n - 1 - i):
                yield Node(left, right), _compose(ls, rs)


# A level record packs (jumps, depth, jumpdist) of one tree into one int, a
# field of _FIELD bits each.  Every statistic of a size-n tree is at most n,
# far below 2**_FIELD for any size that can be enumerated, so fields never
# carry into each other and adding two records adds them field by field.
_FIELD = 8
_MASK = (1 << _FIELD) - 1


def _pack(st: TreeStats) -> int:
    return st.jumps | st.depth << _FIELD | st.jumpdist << 2 * _FIELD


def _unpack(n: int, record: int) -> TreeStats:
    return TreeStats(n, record & _MASK, record >> _FIELD & _MASK,
                     record >> 2 * _FIELD)


def _level_records(n: int, levels: list[array]) -> Iterator[int]:
    """One record per tree of size n, composed from the stored levels[k],
    k < n: the record of ``[L,R]`` is R's record plus that of ``[L,.]``."""
    if n == 0:
        return iter((_pack(_LEAF_STATS),))
    return chain.from_iterable(
        map(_pack(_compose(_unpack(i, left), _LEAF_STATS)).__add__,
            levels[n - 1 - i])
        for i in range(n) for left in levels[i])


def _weight_enumerator(n_max: int, cap: int, key) -> Series:
    """Series whose x^n coefficient counts the trees of size n by
    key(stats) = (t exponent, q exponent).  Sizes below n_max are kept as
    levels, one 4-byte record per tree; size n_max streams into its counts.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_cap(n_max, cap)
    levels: list[array] = []
    coeffs = []
    for n in range(n_max + 1):
        records = _level_records(n, levels)
        if n < n_max:
            levels.append(array("I", records))
            records = levels[n]
        terms: Counter = Counter()
        for record, count in Counter(records).items():
            terms[key(_unpack(n, record))] += count
        coeffs.append(Poly2(terms))
    return Series(coeffs)


def brute_force_enumerator(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Series:
    """Weight enumerator by exhaustive listing: the x^n coefficient is the
    sum of t^depth * q^jumps over every tree with n internal vertices.

    Exponential in n_max; this is the ground truth the series solvers are
    measured against.  Still one record per tree, composed from its
    children's records by the enumeration's rules; the records of each
    smaller size are memoized, so no tree is built and no subtree walked
    twice.
    """
    return _weight_enumerator(n_max, cap, lambda st: (st.depth, st.jumps))


def brute_force_jumpdist_enumerator(
    n_max: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Series:
    """Like brute_force_enumerator but the x^n coefficient sums q^jumpdist
    (no depth marker).  Ground truth for the jump-distance solver; it
    counts jumpdist itself, never depth, so it stays independent of the
    complement rule that solve_K uses."""
    return _weight_enumerator(n_max, cap, lambda st: (0, st.jumpdist))
