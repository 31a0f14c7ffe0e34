"""Test-only helpers that the package itself never calls.

``degree_t`` and ``degree_q`` read a polynomial's exact degrees, and
``brute_force_jumpdist_enumerator`` is the exhaustive oracle for K.
"""

from __future__ import annotations

from jumpstat.algebra import Poly2, Series, _digits, _exact_meta
from jumpstat.trees import DEFAULT_ENUMERATION_CAP, _weight_enumerator


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
    independent of the complement rule by which solve_K's cross-check
    reads the depth series."""
    return _weight_enumerator(n_max, cap, lambda st: (0, st.jumpdist))
