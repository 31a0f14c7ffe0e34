"""Test-only helpers that the package itself never calls.

``degree_t`` and ``degree_q`` read a polynomial's exact degrees,
``brute_force_jumpdist_enumerator`` is the exhaustive oracle for K,
``recursive_trees_with_stats`` is the oracle for the order of the tree
enumeration, and ``poly_divmod`` and ``poly_gcd`` are Euclid over
``Fraction`` coefficients, the oracle for the integer reduction of
``RationalFunctionN``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from jumpstat.algebra import Poly2, Series, _digits, _exact_meta
from jumpstat.guess import _strip
from jumpstat.trees import (_LEAF_PAIR, DEFAULT_ENUMERATION_CAP, Node,
                            _compose, _weight_enumerator)


def degree_t(poly: Poly2) -> int:
    """Largest t-exponent, or -1 for the zero polynomial."""
    return _exact_meta(_digits(poly._v, poly._w), poly._s)[2] if poly else -1


def degree_q(poly: Poly2) -> int:
    """Largest q-exponent, or -1 for the zero polynomial."""
    return _exact_meta(_digits(poly._v, poly._w), poly._s)[3] if poly else -1


def brute_force_jumpdist_enumerator(
        n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Series:
    """Like ``trees.brute_force_enumerator`` but the x^n coefficient sums
    q^jumpdist (no depth marker).  Ground truth for the jump-distance
    solver; it counts jumpdist itself, never depth, so it stays
    independent of the complement rule by which verdict 6 compares K with
    the depth series."""
    return _weight_enumerator(n_max, cap, lambda st: (0, st.jumpdist))


def recursive_trees_with_stats(n: int) -> Iterator[tuple]:
    """(tree, stats) pairs of size n by left size ascending, then each left
    subtree with every right subtree, recursively on both sides: one nested
    generator per vertex of the right spine."""
    if n == 0:
        yield _LEAF_PAIR
        return
    for i in range(n):
        for left, ls in recursive_trees_with_stats(i):
            for right, rs in recursive_trees_with_stats(n - 1 - i):
                yield Node(left, right), _compose(ls, rs)


def poly_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of polynomial division over the rationals,
    coefficients ascending; b has a nonzero leading coefficient."""
    a = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = Fraction(a[-1]) / lead
        quot[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return _strip(quot), _strip(a)


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """A gcd over the rationals, by Euclid's algorithm."""
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a
