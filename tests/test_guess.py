from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import islice
from math import isqrt
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jumpstat import guess
from jumpstat.guess import (AmbiguousFitError, FitError, GuessError, Limit,
                            NoFitError, RationalFunctionN, _clean_points,
                            _first_miss, _nullity_mod_p,
                            _reconstruction_steps, _strip, fit_rational,
                            guess_rational)
from jumpstat.moments import moment_table
from reference import poly_divmod, poly_gcd

F = Fraction
P = (1 << 61) - 1
P2 = (1 << 61) - 31   # the second largest prime below 2^61

MEAN_POINTS = [(n, F(n - 1, 2)) for n in range(1, 9)]


# --- RationalFunctionN normalization and rendering ---------------------------

def test_common_polynomial_factor_is_divided_out():
    rf = RationalFunctionN((0, 1, 1), (0, 1))   # n(n+1) / n
    assert rf.numerator == (1, 1)
    assert rf.denominator == (1,)
    assert rf.render() == "n + 1"
    assert rf.degrees() == (1, 0)


def test_content_and_sign_normalization():
    assert RationalFunctionN((-2, 2), (4,)).render() == "(n - 1)/2"
    neg_den = RationalFunctionN((1,), (-2,))
    assert (neg_den.numerator, neg_den.denominator) == ((-1,), (2,))
    assert neg_den.render() == "-1/2"


def test_fraction_coefficients_are_cleared():
    rf = RationalFunctionN((F(1, 2), F(1, 2)), (1,))
    assert rf == RationalFunctionN((1, 1), (2,))
    assert rf.render() == "(n + 1)/2"
    assert hash(rf) == hash(RationalFunctionN((2, 2), (4,)))


def test_zero_numerator():
    rf = RationalFunctionN((0,), (3,))
    assert rf.degrees() == (-1, 0)
    assert rf.evaluate(17) == 0
    assert rf.render() == "0"


# The earlier polynomial writer of RationalFunctionN.render, kept as the
# reference that the shared signed-sum writer must match text for text.
def _reference_render_poly(coeffs: Sequence[int]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "n" if e == 1 else f"n^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _reference_render(rf: RationalFunctionN) -> str:
    num = _reference_render_poly(rf.numerator)
    den = _reference_render_poly(rf.denominator)
    if den == "1":
        return num
    if len(rf.numerator) > 1:
        num = f"({num})"
    if len(rf.denominator) > 1:
        den = f"({den})"
    return f"{num}/{den}"


# zero, a unit, a small magnitude or a 30-digit one, of either sign
text_coeffs = st.one_of(
    st.just(0), st.sampled_from([1, -1]), st.integers(-9, 9),
    st.builds(operator.mul, st.sampled_from([1, -1]),
              st.integers(10 ** 29, 10 ** 30 - 1)))


@given(st.lists(text_coeffs, max_size=5),
       st.lists(text_coeffs, min_size=1, max_size=4).filter(any))
def test_render_matches_the_reference_writer(num, den):
    rf = RationalFunctionN(num, den)
    assert rf.render() == _reference_render(rf)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunctionN((1,), (0, 0))


def test_evaluate_and_poles():
    rf = RationalFunctionN((-1, 0, 1), (-4, 8))   # (n^2 - 1)/(8n - 4)
    assert rf.evaluate(3) == F(2, 5)
    assert rf.render() == "(n^2 - 1)/(8*n - 4)"
    pole = RationalFunctionN((1,), (-1, 1))
    with pytest.raises(ZeroDivisionError):
        pole.evaluate(1)


def test_limit_three_ways():
    assert RationalFunctionN((1,), (0, 1)).limit_at_infinity() == \
        Limit("zero", F(0))
    assert RationalFunctionN((7,), (1,)).limit_at_infinity() == \
        Limit("finite", F(7))
    assert RationalFunctionN((3, -2, -11, 6), (3, -2, -3, 2)) \
        .limit_at_infinity() == Limit("finite", F(3))
    divergent = RationalFunctionN((-1, 1), (2,)).limit_at_infinity()
    assert divergent == Limit("divergent", None)
    assert divergent.to_json() == {"kind": "divergent", "value": None}
    assert Limit("zero", F(0)).to_json() == {"kind": "zero", "value": "0"}


# --- the reference: fraction-free elimination over the integers --------------

def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (matrix, pivot columns).

    Entries stay integers: the Bareiss two-step condensation divides each
    update exactly by the previous pivot.
    """
    mat = [row[:] for row in rows]
    m = len(mat)
    u = len(mat[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(u):
        pr = next((i for i in range(r, m) if mat[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, m):
            row_i = mat[i]
            mic = row_i[c]
            row_r = mat[r]
            for j in range(c + 1, u):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat, pivots


def _nullspace(rows: list[list[int]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of an integer matrix."""
    mat, pivots = _bareiss_echelon(rows)
    u = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(u) if c not in pivot_set):
        v = [Fraction(0)] * u
        v[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = mat[r]
            s = Fraction(0)
            for j in range(pc + 1, u):
                if v[j]:
                    s += row[j] * v[j]
            v[pc] = -s / row[pc]
        basis.append(v)
    return basis


def _fit_rows(pts: Sequence[tuple[int, Fraction]], deg_num: int,
              deg_den: int) -> list[list[int]]:
    """Integer matrix of p(n_i) * den(a_i) - q(n_i) * num(a_i) = 0 in the
    coefficients of p (degree <= deg_num) then q (degree <= deg_den)."""
    rows = []
    for n, a in pts:
        powers = [n ** j for j in range(max(deg_num, deg_den) + 1)]
        row = [a.denominator * powers[j] for j in range(deg_num + 1)]
        row += [-a.numerator * powers[j] for j in range(deg_den + 1)]
        rows.append(row)
    return rows


def _eliminated_fit(pts: list[tuple[int, Fraction]], deg_num: int,
                   deg_den: int) -> RationalFunctionN:
    """The fit at (deg_num, deg_den) from the nullspace of the fit matrix,
    for cleaned points: the reference of ``fit_rational``'s lift."""
    basis = _nullspace(_fit_rows(pts, deg_num, deg_den))
    if not basis:
        raise NoFitError(f"no fit at degrees ({deg_num}, {deg_den})")
    if len(basis) > 1:
        raise AmbiguousFitError(
            f"{len(basis)} independent fits at degrees ({deg_num}, {deg_den})")
    vec = basis[0]
    num = vec[: deg_num + 1]
    den = vec[deg_num + 1:]
    if not _strip(den):
        raise NoFitError("solution has a zero denominator polynomial")
    candidate = RationalFunctionN(num, den)
    miss = _first_miss(candidate, pts)
    if miss is not None:
        raise NoFitError(f"candidate fails to reproduce the point n={miss}")
    return candidate


def _outcome(fit, pts, dn, dd):
    try:
        return fit(pts, dn, dd)
    except FitError as exc:
        return type(exc), str(exc)


# --- fitting at fixed degrees -------------------------------------------------

def test_fit_recovers_linear_over_constant():
    rf = fit_rational(MEAN_POINTS, 1, 0)
    assert rf == RationalFunctionN((-1, 1), (2,))


def test_fit_recovers_variance_formula_from_table():
    table = moment_table("jumps", max_moment=2, n_max=12)
    points = [(n, table.row(n).central_moment(2)) for n in range(2, 13)]
    rf = fit_rational(points, 2, 1)
    assert rf == RationalFunctionN((-1, 0, 1), (-4, 8))


def test_fit_constant():
    rf = fit_rational([(n, F(5, 3)) for n in range(4)], 0, 0)
    assert rf == RationalFunctionN((5,), (3,))


def test_overparametrized_fit_is_ambiguous():
    with pytest.raises(AmbiguousFitError):
        fit_rational(MEAN_POINTS, 2, 1)


def test_no_fit_for_non_rational_data():
    primes = [(1, 2), (2, 3), (3, 5), (4, 7), (5, 11), (6, 13)]
    with pytest.raises(NoFitError):
        fit_rational(primes, 1, 0)
    # the reference elimination agrees
    assert _nullspace([[1, n, -a] for n, a in primes]) == []


def test_fit_rational_never_reruns_the_screen(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("fit_rational ran the mod-p screen")

    monkeypatch.setattr(guess, "_reconstruction_steps", never)
    monkeypatch.setattr(guess, "_nullity_mod_p", never)
    primes = [(1, 2), (2, 3), (3, 5), (4, 7), (5, 11), (6, 13)]
    with pytest.raises(NoFitError):
        fit_rational(primes, 1, 0)
    assert fit_rational(MEAN_POINTS, 1, 0) == RationalFunctionN((-1, 1), (2,))


def test_reduced_candidate_with_a_pole_at_a_fit_point_is_refused():
    # the nullspace is (n - 1)/(n - 1)^2, which reduces to 1/(n - 1): the
    # point (1, 0) satisfies the linear system but sits on the pole
    points = [(1, 0)] + [(n, F(1, n - 1)) for n in range(2, 7)]
    with pytest.raises(NoFitError, match=r"point n=1$"):
        fit_rational(points, 1, 2)


def test_candidate_reproduction_guard_catches_cancellation():
    # the unique nullspace solution is (n-1)/(n-1): at n=1 the equation
    # degenerates to 0 = 0, so any value passes the linear system there,
    # but the reduced candidate (the constant 1) does not reproduce it
    points = [(1, 9), (2, 1), (3, 1), (4, 1)]
    with pytest.raises(NoFitError, match="reproduce"):
        fit_rational(points, 1, 1)


@pytest.fixture
def lift_primes(monkeypatch):
    """The primes at which values are interpolated while the test runs."""
    primes = []
    interpolate = guess._interpolation_mod_p

    def counted(pts, p):
        primes.append(p)
        return interpolate(pts, p)

    monkeypatch.setattr(guess, "_interpolation_mod_p", counted)
    return primes


@pytest.mark.parametrize("case", [
    test_reduced_candidate_with_a_pole_at_a_fit_point_is_refused,
    test_candidate_reproduction_guard_catches_cancellation])
def test_pole_and_cancellation_are_decided_by_the_lift(lift_primes, case):
    # the first prime's pair solves the linear system: no other is needed
    case()
    assert lift_primes == [P]


@pytest.mark.parametrize("rf, degrees, primes", [
    # eight 61-bit primes reconstruct up to about 244 bits; this takes 11,
    # and reconstruction is tried at 8, then 16
    (RationalFunctionN((3 ** 200, 1), (5 ** 130, 7)), (1, 1), 16),
    # 3^2000 takes 104 primes; reconstruction is tried at 64, then 128
    (RationalFunctionN((3 ** 2000, 1, 5 ** 900), (1, 5 ** 1300, 1)), (2, 2),
     128)], ids=["hundreds-of-bits", "thousands-of-bits"])
def test_coefficients_wider_than_eight_primes_are_lifted(lift_primes, rf,
                                                         degrees, primes):
    pts = [(n, rf.evaluate(n)) for n in range(1, sum(degrees) + 3)]
    assert fit_rational(pts, *degrees) == _eliminated_fit(pts, *degrees) == rf
    assert lift_primes == list(islice(guess._lift_primes(), primes))


@pytest.mark.parametrize("rf, degrees, primes", [
    # every value is 1 mod P, where the constant 1 fits and the monic
    # denominator n + 1/P has no image; P2 has another shape and no
    # larger nullity, so the lift restarts there and takes four primes
    (RationalFunctionN((1,), (1, P)), (0, 1), 5),
    # the same at (1, 1), where P has nullity 2 and P2 nullity 1
    (RationalFunctionN((0, 1), (P * 3 ** 100, 1)), (1, 1), 9),
    # here P2 has nullity 2 and is left out: P and P3..P9 are lifted
    (RationalFunctionN((0, 1), (P2 * 3 ** 100, 1)), (1, 1), 9)],
    ids=["restart-at-equal-nullity", "restart-at-lower-nullity",
         "higher-nullity-skipped"])
def test_unlucky_primes_are_left_out_of_the_lift(lift_primes, rf, degrees,
                                                  primes):
    pts = [(n, rf.evaluate(n)) for n in range(1, 8)]
    assert fit_rational(pts, *degrees) == _eliminated_fit(pts, *degrees) == rf
    assert lift_primes == list(islice(guess._lift_primes(), primes))


def test_the_largest_paper_fit_needs_no_elimination():
    # the jump-distance central moment of order 10 is of degrees (19, 19)
    table = moment_table("jumpdist", max_moment=10, n_max=60)
    points = [(n, table.row(n).central_moment(10)) for n in range(2, 61)]
    rf = fit_rational(points[:54], 19, 19)
    assert rf.degrees() == (19, 19)
    assert all(rf.evaluate(n) == a for n, a in points[54:])


def test_lift_primes_are_distinct_61_bit_primes_screen_prime_first():
    # the eight largest primes below 2^61
    assert list(islice(guess._lift_primes(), 8)) == [
        P, *((1 << 61) - d for d in (31, 45, 229, 259, 283, 339, 391))]
    assert guess._SCREEN_PRIME == P
    # a Carmichael number and a strong pseudoprime to the bases 2, 3, 5, 7
    assert not any(map(guess._is_prime, (561, 3215031751, (1 << 61) + 1)))
    assert [n for n in range(2000) if guess._is_prime(n)] == [
        n for n in range(2, 2000)
        if all(n % d for d in range(2, isqrt(n) + 1))]


def test_fit_input_validation():
    with pytest.raises(ValueError, match="at least 4"):
        fit_rational([(1, 1), (2, 2), (3, 3)], 1, 1)
    with pytest.raises(ValueError, match="duplicate"):
        fit_rational([(1, 1), (1, 2), (3, 3), (4, 4)], 1, 0)
    with pytest.raises(ValueError):
        fit_rational(MEAN_POINTS, -1, 0)


# --- degree search with holdout ----------------------------------------------

def test_guess_mean_formula():
    result = guess_rational(MEAN_POINTS, holdout=2)
    assert result.formula == RationalFunctionN((-1, 1), (2,))
    assert result.degrees == (1, 0)
    assert result.fit_points == 6
    assert result.holdout_points == 2
    assert result.to_json()["formula"]["text"] == "(n - 1)/2"
    assert result.to_json()["limit"]["kind"] == "divergent"


def test_guess_reciprocal():
    points = [(n, F(1, n + 1)) for n in range(1, 10)]
    result = guess_rational(points, holdout=3)
    assert result.formula == RationalFunctionN((1,), (1, 1))
    assert result.degrees == (0, 1)


def test_guess_variance_from_real_table():
    table = moment_table("jumps", max_moment=2, n_max=40)
    points = [(n, table.row(n).central_moment(2)) for n in range(2, 41)]
    result = guess_rational(points)
    assert result.formula == RationalFunctionN((-1, 0, 1), (-4, 8))
    assert (result.fit_points, result.holdout_points) == (34, 5)


def test_guess_rejects_non_rational_data():
    values = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
    points = list(enumerate(values))
    with pytest.raises(GuessError) as exc:
        guess_rational(points, holdout=4, max_total_degree=6)
    attempted = exc.value.attempted
    assert attempted[0] == (0, 0)
    assert (1, 1) in attempted
    assert len(attempted) == len(set(attempted))


def test_holdout_rejects_fit_that_does_not_extend():
    # first six points lie on n + 1; the held-out tail does not
    points = [(n, n + 1) for n in range(1, 7)] + [(7, 100), (8, 200), (9, 300)]
    with pytest.raises(GuessError) as exc:
        guess_rational(points, holdout=3, max_total_degree=4)
    assert (1, 0) in exc.value.attempted


def test_holdout_pole_rejects_the_candidate_and_the_search_moves_on():
    # the fit points lie on 1/(n - 10), which has its pole at the first
    # held-out point: the candidate is refused there, not evaluated
    points = [(n, F(1, n - 10)) for n in range(1, 10)]
    points += [(10, 0), (11, 1), (12, F(1, 2))]
    pole = RationalFunctionN((1,), (-10, 1))
    assert fit_rational(points[:9], 0, 1) == pole
    with pytest.raises(GuessError) as exc:
        guess_rational(points, holdout=3)
    assert (0, 1) in exc.value.attempted


def test_one_screen_pass_per_guess(monkeypatch):
    calls = []
    screen = guess._reconstruction_steps

    def counted(pts):
        calls.append(len(pts))
        return screen(pts)

    monkeypatch.setattr(guess, "_reconstruction_steps", counted)
    guess_rational(MEAN_POINTS, holdout=2)
    assert calls == [6]
    # (1, 0) passes the screen and fits, and the holdout rejects it
    points = [(n, n + 1) for n in range(1, 7)] + [(7, 100), (8, 200), (9, 300)]
    with pytest.raises(GuessError):
        guess_rational(points, holdout=3, max_total_degree=4)
    assert calls == [6, 6]


def test_guess_input_validation():
    with pytest.raises(ValueError, match="holdout"):
        guess_rational(MEAN_POINTS, holdout=0)
    with pytest.raises(ValueError, match="cannot support"):
        guess_rational([(1, 1), (2, 2), (3, 3)], holdout=2)


# integer points on (n^2 + 1)/(n + 3)
SMOOTH_POINTS = [(n, F(n * n + 1, n + 3)) for n in range(2, 12)]


@pytest.mark.parametrize("n", [F(5, 2), 2.5])
def test_non_integral_sample_point_is_refused_by_name(n):
    # truncated to 2, it would be fitted as a second point at n = 2, or
    # reported by guess_rational's inner fit as a duplicate of it
    points = SMOOTH_POINTS + [(n, 7)]
    message = re.escape(f"sample point n={n} is not an integer")
    with pytest.raises(ValueError, match=message):
        fit_rational(points, 2, 1)
    with pytest.raises(ValueError, match=message):
        guess_rational(points)


def test_a_float_value_or_coefficient_is_refused_by_name():
    # read exactly, 0.1 is 3602879701896397/36028797018963968: a line
    # sampled in floats would fit no line, and a coefficient would be kept
    # as that binary fraction
    line = [(n, 0.1 * n) for n in range(2, 8)]
    message = re.escape("sample value at n=2 is a float, not an exact "
                        "number: 0.2")
    with pytest.raises(ValueError, match=message):
        fit_rational(line, 1, 0)
    with pytest.raises(ValueError, match=message):
        guess_rational(line)
    for numerator, denominator, value in (([0.1], [1], "0.1"),
                                          ([1], [2.0], "2.0")):
        with pytest.raises(ValueError, match=re.escape(
                f"coefficient is a float, not an exact number: {value}")):
            RationalFunctionN(numerator, denominator)
    # exact values of the same line still fit it
    assert fit_rational([(n, F(n, 10)) for n in range(2, 8)], 1, 0) == \
        RationalFunctionN((0, 1), (10,))


def test_a_non_finite_sample_point_is_refused_by_name():
    # int() of these raises OverflowError or a ValueError without the point
    for n in (float("inf"), float("-inf"), float("nan")):
        points = SMOOTH_POINTS + [(n, 7)]
        message = re.escape(f"sample point n={n} is not an integer")
        with pytest.raises(ValueError, match=message):
            fit_rational(points, 2, 1)
        with pytest.raises(ValueError, match=message):
            guess_rational(points)


def test_duplicates_are_found_after_conversion_to_int():
    with pytest.raises(ValueError, match=r"duplicate sample point n=2$"):
        fit_rational(SMOOTH_POINTS + [(2.0, 7)], 2, 1)
    integral = [(float(n), a) for n, a in SMOOTH_POINTS]
    assert fit_rational(integral, 2, 1) == RationalFunctionN((1, 0, 1),
                                                              (3, 1))


# --- exact linear algebra, property-based -------------------------------------

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9),
                 min_size=cols, max_size=cols),
        min_size=1, max_size=6))


@given(matrices)
def test_nullspace_vectors_annihilate_and_count(rows):
    basis = _nullspace(rows)
    for v in basis:
        for row in rows:
            assert sum(e * x for e, x in zip(row, v)) == 0
    # rank-nullity: check against a rational Gauss elimination
    rank = 0
    work = [[F(e) for e in row] for row in rows]
    for c in range(len(rows[0])):
        pr = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        piv = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / piv[c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], piv)]
        rank += 1
    assert len(basis) == len(rows[0]) - rank


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polys = st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                 max_size=3)


# --- the mod-p screen against Gaussian elimination mod p ----------------------

def _rank_mod_p(rows: list[list[int]]) -> int:
    """Rank of an integer matrix modulo P, by Gaussian elimination: the
    oracle for the nullity that rational reconstruction reads off."""
    mat = [[e % P for e in row] for row in rows]
    rank = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        piv = mat[rank]
        inv = pow(piv[c], -1, P)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv % P
            if f:
                mat[i] = [(a - f * b) % P for a, b in zip(mat[i], piv)]
        rank += 1
    return rank


def _admissible_pairs(m: int):
    return [(dn, total - dn) for total in range(m - 1)
            for dn in range(total + 1)]


def _assert_nullity_matches_oracle(points) -> int:
    pts = _clean_points(points)
    steps = _reconstruction_steps(pts)
    assert steps is not None
    pairs = _admissible_pairs(len(pts))
    for dn, dd in pairs:
        oracle = dn + dd + 2 - _rank_mod_p(_fit_rows(pts, dn, dd))
        assert _nullity_mod_p(steps, dn, dd) == oracle, (pts, dn, dd)
    return len(pairs)


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
sample_points = st.lists(st.integers(min_value=-25, max_value=40),
                         min_size=2, max_size=12, unique=True)


@st.composite
def point_sets(draw):
    """Points from random rationals, small rational functions (poles
    dropped), all zeros, or a few repeated values."""
    ns = draw(sample_points)
    kind = draw(st.sampled_from(["random", "function", "zeros", "repeats"]))
    if kind == "random":
        return [(n, draw(small_rationals)) for n in ns]
    if kind == "zeros":
        return [(n, F(0)) for n in ns]
    if kind == "repeats":
        pool = draw(st.lists(small_rationals, min_size=1, max_size=3))
        return [(n, draw(st.sampled_from(pool))) for n in ns]
    num = draw(polys)
    den = draw(polys.filter(any))
    points = []
    for n in ns:
        d = sum(c * n ** j for j, c in enumerate(den))
        if d:
            points.append((n, F(sum(c * n ** j for j, c in enumerate(num)), d)))
    assume(len(points) >= 2)
    return points


@given(point_sets())
def test_reconstruction_nullity_matches_gaussian_elimination(points):
    _assert_nullity_matches_oracle(points)


@pytest.mark.parametrize("stat", ["jumps", "jumpdist"])
def test_reconstruction_nullity_on_every_moment_column(stat):
    table = moment_table(stat, max_moment=10, n_max=18)
    columns = [("raw", r) for r in range(1, 11)]
    columns += [("central", r) for r in range(2, 11)]
    checked = 0
    for kind, r in columns:
        checked += _assert_nullity_matches_oracle(
            [(n, table.row(n).value(kind, r)) for n in range(2, 19)])
    assert checked == len(columns) * 136


@given(point_sets(), st.data())
def test_mod_p_screen_is_sound(points, data):
    # a pair the screen rejects has no exact fit either
    pts = _clean_points(points)
    dn, dd = data.draw(st.sampled_from(_admissible_pairs(len(pts))))
    steps = _reconstruction_steps(pts)
    if steps is not None and _nullity_mod_p(steps, dn, dd) == 0:
        assert _nullspace(_fit_rows(pts, dn, dd)) == []


def _mul_mod_p(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % P
    return out


def _rem_mod_p(a, monic):
    """a mod a monic polynomial, by schoolbook long division mod P, with
    no zero leading coefficient."""
    a = a[:]
    d = len(monic) - 1
    for top in range(len(a) - 1, d - 1, -1):
        f = a[top]
        for i, c in enumerate(monic):
            a[top - d + i] = (a[top - d + i] - f * c) % P
    rem = [c % P for c in a[:d]]
    while rem and not rem[-1]:
        rem.pop()
    return rem


@given(point_sets())
def test_newton_interpolation_against_the_product_and_the_values(points):
    pts = _clean_points(points)
    big_m, interp = guess._interpolation_mod_p(pts, P)
    product = [1]
    for n, _ in pts:
        product = _mul_mod_p(product, [-n % P, 1])
    assert big_m == product
    assert len(interp) <= len(pts) and (not interp or interp[-1])
    for n, a in pts:
        at_n = sum(c * pow(n, j, P) for j, c in enumerate(interp)) % P
        assert at_n == a.numerator * pow(a.denominator, -1, P) % P


@given(point_sets())
def test_every_euclidean_step_is_a_congruence_with_lemma_degrees(points):
    pts = _clean_points(points)
    big_m, interp = guess._interpolation_mod_p(pts, P)
    steps = list(guess._euclid_mod_p(big_m, interp, P))
    assert steps[-1][0] == [] and all(r for r, _ in steps[:-1])
    previous = big_m
    for r, t in steps:
        assert not t or t[-1]
        # r_j = s_j M + t_j A, so t_j A = r_j mod M
        assert _rem_mod_p(_mul_mod_p(t, interp or [0]), big_m) == r
        # deg t_j = deg M - deg r_(j-1) (von zur Gathen & Gerhard,
        # Lemma 3.10)
        assert len(t) - 1 == len(pts) - (len(previous) - 1)
        previous = r


@given(point_sets())
def test_lifted_fit_agrees_with_the_elimination_at_every_degree_pair(points):
    pts = _clean_points(points)
    pairs = _admissible_pairs(len(pts))
    assert [_outcome(fit_rational, pts, dn, dd) for dn, dd in pairs] == \
        [_outcome(_eliminated_fit, pts, dn, dd) for dn, dd in pairs]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


exact_polys = st.lists(st.integers(min_value=-3, max_value=3) | rationals,
                       min_size=1, max_size=3)


@given(num=exact_polys.filter(any), den=exact_polys.filter(any),
       factor=st.lists(st.integers(min_value=-3, max_value=3) | rationals,
                       min_size=2, max_size=3).filter(lambda f: f[-1]),
       scale=st.sampled_from([F(1), F(1, 3), F(P), F(-2 * P, 5)]),
       lead=st.sampled_from([1, -1, P, -P]))
def test_planted_common_factors_divide_out_as_with_the_fraction_gcd(
        num, den, factor, scale, lead):
    # P in the scale or in the factor's leading coefficient gives the
    # mod-P certificate a leading coefficient that vanishes mod P; the
    # factor then loses degree mod P and must not pass for coprimality
    num = [scale * c for c in num]
    factor[-1] *= lead
    planted = (_poly_mul(num, factor), _poly_mul(den, factor))
    with mock.patch.object(guess, "_coprime_mod_p", return_value=False):
        by_integer_gcd = RationalFunctionN(*planted)
    # the oracle's quotients are coprime: normalise them without reducing
    g = poly_gcd(*planted)
    with mock.patch.object(guess, "_coprime_mod_p", return_value=True):
        by_fraction_gcd = RationalFunctionN(
            *(poly_divmod(p, g)[0] for p in planted))
    assert RationalFunctionN(*planted) == by_integer_gcd == \
        by_fraction_gcd == RationalFunctionN(num, den)


# --- when the screen does not apply, the lift takes the next prime -----------

def test_value_with_denominator_divisible_by_p_falls_back():
    rf = RationalFunctionN((1,), (0, 1))   # 1/n: its value at n = -P is -1/P
    points = [(-P, F(-1, P))] + [(n, F(1, n)) for n in range(1, 9)]
    assert _reconstruction_steps(_clean_points(points)) is None
    assert fit_rational(points, 0, 1) == rf
    with pytest.raises(NoFitError):
        fit_rational(points, 1, 0)
    result = guess_rational(points, holdout=3)
    assert (result.formula, result.degrees) == (rf, (0, 1))


def test_sample_points_congruent_mod_p_fall_back():
    rf = RationalFunctionN((-1, 0, 1), (-4, 8))   # (n^2 - 1)/(8n - 4)
    points = [(n, rf.evaluate(n)) for n in [1 - P, *range(1, 10)]]
    assert _reconstruction_steps(_clean_points(points)) is None
    assert fit_rational(points, 2, 1) == rf
    with pytest.raises(AmbiguousFitError):
        fit_rational(points, 3, 2)
    result = guess_rational(points, holdout=3)
    assert (result.formula, result.degrees) == (rf, (2, 1))
    with pytest.raises(GuessError) as exc:
        guess_rational(points, holdout=3, max_total_degree=2)
    assert exc.value.attempted == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                   (0, 2)]


@pytest.mark.parametrize("rf, n, degrees", [
    # 1 - P * P2 is congruent to the sample point 1 mod both primes
    (RationalFunctionN((-1, 0, 1), (-4, 8)), 1 - P * P2, (2, 1)),
    # the value -1/(P * P2) has no image mod either prime
    (RationalFunctionN((1,), (0, 1)), -P * P2, (0, 1))],
    ids=["congruent-points", "value-denominator"])
def test_two_primes_without_an_interpolant_are_skipped(lift_primes, rf, n,
                                                       degrees):
    pts = _clean_points([(n, rf.evaluate(n))]
                        + [(k, rf.evaluate(k)) for k in range(1, 10)])
    assert fit_rational(pts, *degrees) == _eliminated_fit(pts, *degrees) == rf
    assert lift_primes == list(islice(guess._lift_primes(), 3))
    pairs = _admissible_pairs(len(pts))
    assert [_outcome(fit_rational, pts, dn, dd) for dn, dd in pairs] == \
        [_outcome(_eliminated_fit, pts, dn, dd) for dn, dd in pairs]


@settings(max_examples=40)
@given(num=polys, den=polys)
def test_fit_round_trips_random_rational_functions(num, den):
    assume(any(num) and any(den))
    rf = RationalFunctionN(num, den)
    points = []
    for n in range(1, 14):
        try:
            points.append((n, rf.evaluate(n)))
        except ZeroDivisionError:
            continue
    dn, dd = rf.degrees()
    if dn < 0:
        dn = 0
    assume(len(points) >= dn + dd + 2)
    fitted = fit_rational(points, dn, dd)
    assert fitted == rf
    result = guess_rational(points, holdout=3, max_total_degree=dn + dd)
    assert result.formula == rf
