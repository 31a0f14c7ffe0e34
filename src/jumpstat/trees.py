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
  with its statistics in memory linear in the size.  They walk the right
  spine as a list of frames, one per vertex, so only left subtrees nest
  generators; a left subtree of the root has size 1 or more only after all
  Cat(n-1) trees with a leaf there, so no walk that finishes nests deeply.
* The brute-force series enumerators, the oracles for the solvers, build
  no trees: for each size below the top one they keep a level of compact
  records, one int per tree, and compose each record of the next size from
  a left and a right record, as the right record plus an offset that
  depends on the left record alone.  Each offset is composed once per
  distinct left record; every tree still gets its own record, and no
  multiplicity is counted.  The top size streams into its counts.

Everything here is iterative with explicit stacks; trees hundreds of
thousands of vertices deep parse, format, and measure without touching the
interpreter's recursion limit, and the first tree of any admitted size
streams at once.  A Node may share a subtree with another
Node; ``compute_stats`` measures it wherever it occurs, and, like
``format_tree``, raises ``TypeError`` on any item that is not a tree.
Equality and hash go through ``format_tree``: two trees are equal when
their texts are, however their subtrees are shared, and ``==`` on a
malformed tree raises ``TypeError`` as ``hash`` does.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import chain
from typing import Iterator, NamedTuple

from .algebra import Poly2, Series

# Default size caps, each about 8-27 s of CPU on a 2-vCPU x86 VM: the
# oracles' at 16 (`verify 1` took 4.8 s at 15), and `enumerate`'s at 13, as
# it builds and prints 14 us a tree (500 s and 1.7 GB at 16).
DEFAULT_ENUMERATION_CAP = 16
STREAMING_CAP = 13


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
        return format_tree(self) == format_tree(other)

    def __hash__(self) -> int:
        return hash(format_tree(self))

    def __repr__(self) -> str:
        return f"parse_tree({format_tree(self)!r})"


class Leaf:
    """The unique leaf; compare with ``is LEAF``."""

    __slots__ = ()

    __eq__ = Node.__eq__
    __hash__ = Node.__hash__

    def __repr__(self) -> str:
        return "LEAF"


LEAF = Leaf()

_LEAF_STATS = TreeStats(0, 0, 0, 0)


def parse_tree(text: str) -> Node | Leaf:
    """Parse ``.`` / ``[L,R]`` text into a tree.

    Whitespace is allowed between tokens.  Errors carry the offending
    position.  Iterative; input depth is limited by memory only.
    """
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    # one entry per open '[': None until its left subtree is stored
    frames: list = []
    pos = skip_ws(0)
    while True:
        # open frames down to one leaf
        while pos < n and text[pos] == "[":
            frames.append(None)
            pos = skip_ws(pos + 1)
        if pos >= n:
            raise TreeParseError("expected '.' or '['", pos)
        if text[pos] != ".":
            raise TreeParseError(f"expected '.' or '[', found {text[pos]!r}",
                                 pos)
        tree = LEAF
        pos = skip_ws(pos + 1)
        # close every frame that holds its left subtree, then store this
        # subtree as the next frame's left one
        while frames and frames[-1] is not None:
            if pos >= n or text[pos] != "]":
                raise TreeParseError("expected ']'", pos)
            tree = Node(frames.pop(), tree)
            pos = skip_ws(pos + 1)
        if not frames:
            break
        if pos >= n or text[pos] != ",":
            raise TreeParseError("expected ','", pos)
        frames[-1] = tree
        pos = skip_ws(pos + 1)
    if pos != n:
        raise TreeParseError(f"trailing input {text[pos]!r}", pos)
    return tree


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

    Any item that is neither a Node nor a leaf raises ``TypeError``.
    """
    # a right-first pre-order read backwards is a post-order, so every
    # subtree is finished before its parent, with the left one's stats
    # under the right one's on the value stack; a subtree that several
    # parents share is measured wherever it occurs
    order: list = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, Node):
            stack.extend((item.left, item.right))
        elif not isinstance(item, Leaf):
            raise TypeError(f"not a tree: {item!r}")
        order.append(item)
    values: list[TreeStats] = []
    for item in reversed(order):
        if isinstance(item, Node):
            rs = values.pop()
            ls = values.pop()
            jumps = rs.jumps if ls.internal == 0 else ls.jumps + rs.jumps + 1
            values.append(TreeStats(
                internal=ls.internal + rs.internal + 1,
                jumps=jumps,
                depth=rs.depth + 1,
                jumpdist=ls.jumpdist + rs.jumpdist + ls.depth,
            ))
        else:
            values.append(_LEAF_STATS)
    return values.pop()


def catalan(n: int) -> int:
    """Number of full binary trees with n internal vertices."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


# A refusal writes the tree count of the size it refuses up to this size,
# a count of 57 digits; past it the count would be long, and at sizes near
# 10^5 slow to compute and past the interpreter's limit to print.
_COUNTED_SIZE = 100


def _count_note(n: int) -> str:
    """`` (Cat(n) trees)`` for a size whose count is short, else ``""``."""
    return f" ({catalan(n)} trees)" if n <= _COUNTED_SIZE else ""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of size {n} exceeds the cap of {cap}"
            f"{_count_note(n)}; raise the cap explicitly to proceed")


def enumerate_trees(n: int, cap: int = STREAMING_CAP) -> Iterator[Node | Leaf]:
    """Yield every full binary tree with n internal vertices.

    Order is deterministic: by left-subtree size ascending, then
    recursively within each side.  Sizes past the cap are refused before
    any work happens.
    """
    for tree, _ in enumerate_trees_with_stats(n, cap):
        yield tree


def enumerate_trees_with_stats(
    n: int, cap: int = STREAMING_CAP
) -> Iterator[tuple[Node | Leaf, TreeStats]]:
    """Yield (tree, stats) pairs in enumerate_trees order.

    Stats are composed from the children's stats during construction, so a
    full sweep costs O(1) extra per tree.  This is the measurement route
    independent of compute_stats: the two are cross-checked in tests.  The
    walk keeps one frame per vertex of the right spine, and only left
    subtrees nest generators, so a size of thousands yields its first tree,
    the comb, without recursing.
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
    # the right spine from the root down, one frame per vertex: [its size,
    # its left size, the left subtrees still to come, the current left
    # subtree with its stats]; the right subtree of a frame is the spine
    # below it, so only left subtrees nest generators
    frames: list[list] = []
    size = n
    while True:
        # a fresh right subtree of the given size starts as the comb
        while size:
            frames.append([size, 0, iter(()), _LEAF_PAIR])
            size -= 1
        tree, st = _LEAF_PAIR
        for frame in reversed(frames):
            left, ls = frame[3]
            tree, st = Node(left, tree), _compose(ls, st)
        yield tree, st
        # step the deepest frame to its next left subtree, or its first of
        # the next left size; a frame with neither is done
        while frames:
            frame = frames[-1]
            m, i, lefts, _ = frame
            pair = next(lefts, None)
            if pair is None and i + 1 < m:
                i += 1
                lefts = _enumerate_with_stats(i)
                pair = next(lefts)
            if pair is not None:
                frame[1:] = i, lefts, pair
                size = m - 1 - i
                break
            frames.pop()
        else:
            return


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
    k < n: the record of ``[L,R]`` is R's record plus the offset of L, the
    record of ``[L,.]``.  The offset depends on L's record alone, so it is
    composed once per distinct record of each left size."""
    if n == 0:
        return iter((_pack(_LEAF_STATS),))
    offsets = [{left: _pack(_compose(_unpack(i, left), _LEAF_STATS))
                for left in set(levels[i])} for i in range(n)]
    return chain.from_iterable(
        map(offsets[i][left].__add__, levels[n - 1 - i])
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
    twice, and the left record's part of the composition is done once per
    distinct left record.
    """
    return _weight_enumerator(n_max, cap, lambda st: (st.depth, st.jumps))

