from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from jumpstat.trees import (LEAF, EnumerationCapError, Node, TreeParseError,
                            TreeStats, brute_force_enumerator,
                            brute_force_jumpdist_enumerator, catalan,
                            compute_stats, enumerate_trees,
                            enumerate_trees_with_stats, format_tree,
                            parse_tree)

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


def test_enumeration_order_is_by_left_size():
    got = [format_tree(t) for t in enumerate_trees(3)]
    assert got == [
        "[.,[.,[.,.]]]",
        "[.,[[.,.],.]]",
        "[[.,.],[.,.]]",
        "[[.,[.,.]],.]",
        "[[[.,.],.],.]",
    ]


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
        assert poly.degree_t() <= n
        assert poly.degree_q() <= max(0, n - 1)
        assert poly.substitute("t", 1).substitute("q", 1) == catalan(n)
