from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jumpstat import guess
from jumpstat.guess import (AmbiguousFitError, GuessError, Limit, NoFitError,
                            RationalFunctionN, _clean_points, _fit_rows,
                            _nullity_mod_p, _nullspace, _reconstruction_steps,
                            fit_rational, guess_rational)
from jumpstat.moments import moment_table

F = Fraction
P = (1 << 61) - 1

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
    # the exact elimination alone, without the mod-p screen, agrees
    assert _nullspace([[1, n, -a] for n, a in primes]) == []


def test_fit_rational_is_the_exact_elimination_alone(monkeypatch):
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


# --- when the screen does not apply, the exact elimination decides -----------

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
