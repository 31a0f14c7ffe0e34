from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpstat.trees import (LEAF, EnumerationCapError, Leaf, Node,
                            TreeParseError, TreeStats, brute_force_enumerator,
                            catalan, compute_stats, enumerate_trees,
                            enumerate_trees_with_stats, format_tree,
                            parse_tree)
from reference import (brute_force_jumpdist_enumerator, degree_q, degree_t,
                       recursive_trees_with_stats)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_parse_format_roundtrip():
    for text in [".", "[.,.]", "[[.,.],.]", "[.,[.,.]]",
                 "[[.,[.,.]],[[.,.],.]]"]:
        assert format_tree(parse_tree(text)) == text


def test_parse_accepts_whitespace():
    assert parse_tree(" [ . , [ ., . ] ] ") == parse_tree("[.,[.,.]]")


@pytest.mark.parametrize("text,position", [
    ("", 0),
    ("x", 0),
    ("[.,.", 4),
    ("[.,]", 3),
    ("[.;.]", 2),
    ("[.,.]]", 5),
    ("..", 1),
    ("[[.,.],.]extra", 9),
])
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(TreeParseError) as info:
        parse_tree(text)
    assert info.value.position == position


# The earlier two-state form of parse_tree, kept as the reference that the
# one-pass form must match tree for tree and error for error.
def _reference_parse_tree(text: str) -> Node | Leaf:
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


PARSE_ALPHABET = "[].,  x\t"


def _shared_tree(picks):
    """The last of a pool of trees in which each new vertex takes two
    earlier entries as its children, so subtrees are shared at random
    depths; a pick that would pass 30 internal vertices is skipped."""
    pool, sizes = [LEAF], [0]
    for i, j in picks:
        left, right = i % len(pool), j % len(pool)
        size = sizes[left] + sizes[right] + 1
        if size <= 30:
            pool.append(Node(pool[left], pool[right]))
            sizes.append(size)
    return pool[-1]


shared_trees = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                        max_size=40).map(_shared_tree)


@st.composite
def edited_tree_texts(draw):
    # one deletion, insertion or replacement in a well-formed text
    text = format_tree(draw(shared_trees))
    i = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 1))
    return text[:i] + draw(st.sampled_from(["", *PARSE_ALPHABET])) \
        + text[i + cut:]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except TreeParseError as exc:
        return type(exc), str(exc), exc.position


@given(st.one_of(st.text(PARSE_ALPHABET, max_size=24), edited_tree_texts()))
def test_parse_matches_the_reference_parser(text):
    assert _parse_outcome(parse_tree, text) \
        == _parse_outcome(_reference_parse_tree, text)


def test_stats_of_small_trees():
    cases = {
        ".": (0, 0, 0, 0),
        "[.,.]": (1, 0, 1, 0),
        "[[.,.],.]": (2, 1, 1, 1),
        "[.,[.,.]]": (2, 0, 2, 0),
        "[[.,.],[.,.]]": (3, 1, 2, 1),
        "[.,[.,[.,.]]]": (3, 0, 3, 0),
        "[[.,[.,.]],.]": (3, 1, 1, 2),
        "[[[.,.],.],.]": (3, 2, 1, 2),
    }
    for text, expected in cases.items():
        assert compute_stats(parse_tree(text)) == TreeStats(*expected)


def test_stats_type_error():
    with pytest.raises(TypeError):
        compute_stats("[.,.]")


def test_tree_equality_ignores_sharing():
    sub = parse_tree("[.,.]")
    assert Node(sub, sub) == parse_tree("[[.,.],[.,.]]")
    assert compute_stats(Node(sub, sub)) == TreeStats(3, 1, 2, 1)
    assert parse_tree("[[.,.],.]") != parse_tree("[.,[.,.]]")
    assert LEAF != parse_tree("[.,.]")


# The earlier pairwise walk of Node.__eq__, kept as the reference that
# equality by text must match on every well-formed pair of trees.
def _reference_eq(self, other: object) -> bool:
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


small_trees = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       max_size=4).map(_shared_tree)
tree_pairs = st.one_of(
    st.tuples(shared_trees, shared_trees),
    st.tuples(small_trees, small_trees),
    shared_trees.map(lambda t: (t, parse_tree(format_tree(t)))))


@given(tree_pairs)
def test_equality_matches_the_reference_walk(pair):
    a, b = pair
    assert (a == b) == _reference_eq(a, b)
    assert (b == a) == _reference_eq(b, a)
    if a == b:
        assert hash(a) == hash(b)


def test_equality_refuses_a_malformed_tree_as_hash_does():
    # the pairwise walk read the None child as a leaf and returned True
    with pytest.raises(TypeError, match="^not a tree: None$"):
        hash(Node(None, LEAF))
    with pytest.raises(TypeError, match="^not a tree: None$"):
        Node(None, LEAF) == Node(LEAF, LEAF)
    assert Node(LEAF, LEAF) != "[.,.]" and LEAF != "."


def test_deep_combs_do_not_recurse():
    depth = 100_000
    right_comb = "[.," * depth + "." + "]" * depth
    tree = parse_tree(right_comb)
    st = compute_stats(tree)
    assert st == TreeStats(depth, 0, depth, 0)
    assert format_tree(tree) == right_comb
    assert tree == parse_tree(right_comb)

    left_comb = "[" * depth + "." + ",.]" * depth
    st = compute_stats(parse_tree(left_comb))
    # every left child except the deepest leaf is internal: one jump each,
    # and each jump climbs out of a subtree whose rightmost leaf sits at
    # depth 1, so the distances also sum to depth-1
    assert st == TreeStats(depth, depth - 1, 1, depth - 1)


def test_a_subtree_shared_at_two_depths_is_measured_where_it_occurs():
    sub = Node(LEAF, LEAF)
    assert compute_stats(Node(sub, Node(sub, LEAF))) \
        == compute_stats(parse_tree("[[.,.],[[.,.],.]]"))


@given(shared_trees)
def test_shared_subtrees_measure_as_their_reparsed_copy(tree):
    assert compute_stats(tree) == compute_stats(parse_tree(format_tree(tree)))


@pytest.mark.parametrize("tree,item", [
    (Node(LEAF, Node("x", None)), "None"),
    (Node(3, LEAF), "3"),
], ids=["right-child", "left-child"])
def test_stats_refuses_a_non_tree_item_as_format_tree_does(tree, item):
    for walk in (format_tree, compute_stats):
        with pytest.raises(TypeError, match=f"^not a tree: {item}$"):
            walk(tree)


def test_measuring_a_deep_comb_peaks_below_4_mb():
    # the walk keeps its items in order and then a stack of finished
    # stats; 100k-vertex combs peak at 1.6 MB (left) and 2.4 MB (right)
    depth = 100_000
    for text in ("[" * depth + "." + ",.]" * depth,
                 "[.," * depth + "." + "]" * depth):
        tree = parse_tree(text)
        tracemalloc.start()
        try:
            compute_stats(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000


def test_enumeration_order_is_by_left_size():
    got = [format_tree(t) for t in enumerate_trees(3)]
    assert got == [
        "[.,[.,[.,.]]]",
        "[.,[[.,.],.]]",
        "[[.,.],[.,.]]",
        "[[.,[.,.]],.]",
        "[[[.,.],.],.]",
    ]


@pytest.mark.parametrize("n", range(10))
def test_the_spine_walk_follows_the_recursive_order(n):
    walked = [(format_tree(t), st) for t, st in enumerate_trees_with_stats(n)]
    assert walked == [(format_tree(t), st)
                      for t, st in recursive_trees_with_stats(n)]


def test_the_first_tree_of_a_deep_size_is_the_comb():
    # its right spine is 3000 vertices long, far past the recursion limit
    tree, st = next(enumerate_trees_with_stats(3000, cap=3000))
    assert st == TreeStats(3000, 0, 3000, 0)
    assert format_tree(tree) == "[.," * 3000 + "." + "]" * 3000


def test_enumeration_counts_match_catalan():
    for n in range(10):
        assert sum(1 for _ in enumerate_trees(n)) == catalan(n)


def test_enumeration_is_duplicate_free():
    seen = {format_tree(t) for t in enumerate_trees(6)}
    assert len(seen) == catalan(6)


def test_catalan_values():
    assert [catalan(n) for n in range(13)] == CATALAN
    assert catalan(16) == 35357670
    with pytest.raises(ValueError):
        catalan(-1)


def test_enumeration_cap_refuses_early():
    with pytest.raises(EnumerationCapError):
        next(enumerate_trees(17))
    with pytest.raises(EnumerationCapError):
        next(enumerate_trees_with_stats(5, cap=4))
    with pytest.raises(EnumerationCapError):
        brute_force_enumerator(17)
    # explicit cap raise is honored
    assert sum(1 for _ in enumerate_trees(5, cap=5)) == 42


@pytest.mark.parametrize("n", [10**5, 10**7, 10**20])
def test_a_huge_size_is_refused_without_its_tree_count(n):
    # Cat(10^20) cannot be computed, and Cat(10^5) has too many digits to
    # print; the refusal compares with the cap and writes no count
    message = f"size {n} exceeds the cap of 13; raise"
    with pytest.raises(EnumerationCapError, match=message):
        next(enumerate_trees(n))
    with pytest.raises(EnumerationCapError, match=f"size {n} exceeds"):
        brute_force_enumerator(n)


@pytest.mark.parametrize("n, note", [
    (100, f" ({catalan(100)} trees)"), (101, "")])
def test_a_refusal_writes_the_tree_count_only_where_it_is_short(n, note):
    with pytest.raises(EnumerationCapError) as refused:
        next(enumerate_trees(n, cap=n - 1))
    assert str(refused.value) == (
        f"enumeration of size {n} exceeds the cap of {n - 1}{note}; raise "
        "the cap explicitly to proceed")


def test_stats_routes_agree(stat_counts_small):
    # enumeration composes stats from children; compute_stats walks each
    # tree from scratch; they must agree everywhere
    for n in range(9):
        for tree, st in enumerate_trees_with_stats(n):
            assert compute_stats(tree) == st


def test_jumpdist_plus_depth_is_internal(stat_counts_small):
    for n, counter in stat_counts_small.items():
        for st in counter:
            assert st.jumpdist + st.depth == st.internal
            assert st.jumps <= st.jumpdist


def test_brute_force_enumerator_small_coefficients():
    series = brute_force_enumerator(4)
    assert series.coefficient(0) == 1
    assert str(series.coefficient(2)) == "t*q + t^2"
    at1 = series.coefficient(3).substitute("t", 1)
    assert str(at1) == "1 + 3*q + q^2"


def _assert_matches_streamed_trees(series, key):
    # sizes below the top come from the stored levels, the top one streams
    for n in range(series.order + 1):
        expected = Counter(key(st) for _, st in enumerate_trees_with_stats(n))
        assert dict(series.coefficient(n).items()) == expected, n


def test_brute_force_enumerator_matches_counts():
    _assert_matches_streamed_trees(brute_force_enumerator(10, cap=10),
                                   lambda st: (st.depth, st.jumps))


def test_brute_force_jumpdist_enumerator():
    _assert_matches_streamed_trees(brute_force_jumpdist_enumerator(10, cap=10),
                                   lambda st: (0, st.jumpdist))


def test_brute_force_levels_are_compact():
    # 82,500 trees of size below 12 are stored; a list of TreeStats would
    # take about 7 MB, four bytes a tree about 0.3 MB
    brute_force_enumerator(2)
    tracemalloc.start()
    try:
        brute_force_enumerator(12, cap=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_enumerator_degree_bounds():
    series = brute_force_enumerator(7)
    for n in range(1, 8):
        poly = series.coefficient(n)
        assert degree_t(poly) <= n
        assert degree_q(poly) <= max(0, n - 1)
        assert poly.substitute("t", 1).substitute("q", 1) == catalan(n)
