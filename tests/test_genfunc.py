from __future__ import annotations

import json
import re
import sys
import tracemalloc
from math import comb
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpstat import algebra, genfunc, moments
from jumpstat.algebra import (Poly2, Series, _digits, _exact_meta,
                              _slot_width, dot, fixed_point_solve)
from jumpstat.genfunc import (SOLVERS, FirstFailure, SelfCheckError,
                              Verdict, catalan_radical, inner_radicand,
                              jumpdist_radical, jumps_radical,
                              printed_radicand, solve_catalan, solve_F,
                              solve_H, solve_Jdepth, solve_K,
                              verify_F_closed_form, verify_theorem)
from jumpstat.moments import q_log_derivative_power
from jumpstat.trees import EnumerationCapError, catalan
from reference import brute_force_jumpdist_enumerator

T = Poly2.term(1, et=1)
Q = Poly2.term(1, eq=1)


def test_solve_catalan_counts_trees():
    f = solve_catalan(20)
    for n in range(21):
        assert f.coefficient(n) == catalan(n)


def _check_catalan(order: int) -> None:
    # C(2n, n)/(n + 1) is independent of the solver
    f = solve_catalan(order)
    for n in range(order + 1):
        assert f.coefficient(n) == comb(2 * n, n) // (n + 1), n


def test_solve_catalan_matches_the_closed_form_to_order_200():
    # 200 is the order that `moments jumpdist --nmax 200` solves
    _check_catalan(200)


def test_catalan_radical_identity():
    f = solve_catalan(20)
    residual = f.shift_x() * 2 - 1 + catalan_radical(20)
    assert residual.is_zero()


def test_solve_F_small_coefficients():
    F = solve_F(8)
    assert F.coefficient(0) == Poly2.one()
    assert F.coefficient(1) == T
    assert F.coefficient(2) == Poly2({(1, 1): 1, (2, 0): 1})


def test_solve_F_depth_zero_slice_is_leaf_only():
    F = solve_F(10)
    at0 = F.substitute("t", 0)
    assert at0.coefficient(0) == Poly2.one()
    for n in range(1, 11):
        assert at0.coefficient(n).is_zero()


def test_solve_F_matches_exhaustive_counts(stat_counts_small):
    F = solve_F(8)
    for n in range(9):
        expected = {}
        for stats, mult in stat_counts_small[n].items():
            key = (stats.depth, stats.jumps)
            expected[key] = expected.get(key, 0) + mult
        assert dict(F.coefficient(n).items()) == expected


def test_solve_F_satisfies_the_trivariate_equation():
    # the equation solve_F no longer iterates, checked as a residual
    F = solve_F(24)
    at0 = F.substitute("t", 0)
    at1 = F.substitute("t", 1)
    rhs = (1 + (at0 * F).shift_x() * T
           + ((at1 - at0) * F).shift_x() * (T * Q))
    assert (F - rhs).is_zero()


@pytest.mark.parametrize("order", [0, 1, 2, 12])
def test_solve_F_at_t_one_is_solve_H(order):
    assert solve_F(order).substitute("t", 1) == solve_H(order)


def _check_narayana_H(order: int) -> None:
    # [x^n q^k] H = C(n,k) * C(n,k+1) / n for n >= 1
    H = solve_H(order)
    assert H.coefficient(0) == 1
    for n in range(1, order + 1):
        expected = Poly2({(0, k): comb(n, k) * comb(n, k + 1) // n
                          for k in range(n)})
        assert H.coefficient(n) == expected, n


def test_solve_H_coefficients_are_narayana_numbers():
    _check_narayana_H(100)


def _square_term(S: list[Poly2]) -> Poly2:
    """x^(n-1) of S^2 from its first n terms, each S_i*S_j (i < j) formed once."""
    k = len(S) // 2
    half = dot(S[:k], S[::-1])
    return half + half + (S[k] * S[k] if len(S) % 2 else 0)


def _repacked(p: Poly2) -> Poly2:
    # exact bounds: the dots' upper bounds would compound from step to
    # step, and the products widen with them
    return Poly2(dict(p.items()))


# the quadratic equations the solvers' recurrences come from, each solved
# as a fixed point; x^n of x*H*((1 - q) + q*H) reads H only up to x^(n-1)
_QUADRATIC_STEPS = {
    "f": lambda f: _repacked(_square_term(f)) if f else Poly2.one(),
    "H": lambda H: _repacked(H[-1] * (1 - Q) + _square_term(H) * Q) if H
    else Poly2.one(),
}


def _check_quadratic(name: str, order: int) -> None:
    # f = 1 + x*f^2 and H = 1 + x*H + q*x*(H - 1)*H, term for term, and
    # every stored bound of the solved series is exact
    solved = genfunc.SOLVERS[name].__wrapped__(order)
    reference = fixed_point_solve(_QUADRATIC_STEPS[name], order)
    assert solved.order == reference.order == order
    for n, (c, r) in enumerate(zip(solved.coefficients(),
                                   reference.coefficients())):
        assert c == r, n
        assert c._meta == _exact_meta(_digits(c._v, c._w), c._s), n


@pytest.mark.parametrize("order", [0, 1, 2, 3, 60])
@pytest.mark.parametrize("name", ["f", "H"])
def test_f_and_H_recurrences_match_their_quadratic_equations(name, order):
    _check_quadratic(name, order)


def _ballot(n: int, d: int) -> int:
    # trees of size n >= 1 whose rightmost leaf has depth d, 1 <= d <= n
    return d * comb(2 * n - d, n) // (2 * n - d)


def _check_ballot_J(order: int) -> None:
    # [x^n t^d] J = d / (2n - d) * C(2n - d, n) for 1 <= d <= n
    J = solve_Jdepth(order)
    assert J.coefficient(0) == 1
    for n in range(1, order + 1):
        expected = Poly2({(d, 0): _ballot(n, d) for d in range(1, n + 1)})
        assert J.coefficient(n) == expected, n


def test_solve_Jdepth_coefficients_are_ballot_numbers():
    # 200 is the order `moments jumpdist --nmax 200` solves
    _check_ballot_J(200)


@pytest.mark.parametrize("solver, order", [
    (solver, order) for solver in (solve_F, solve_Jdepth)
    for order in (0, 1, 5, 32, 40)] + [(solve_Jdepth, 200)])
def test_inverse_lays_out_F_and_J_in_catalan_slots(solver, order):
    # J inverts 1 - x*t*f, so the l1 majorant of the inverse is Cat(n)
    # exactly; F sums the powers of x*G, whose coefficients are at most
    # Cat(order).  Both lay their slots just wide enough for Cat(order):
    # a looser majorant or bound fails
    width = _slot_width(catalan(order).bit_length())
    assert {c._w for c in solver.__wrapped__(order).coefficients() if c} == {width}


def _F_by_inverse(H: Series) -> Series:
    # F = 1/(1 - x*t*G) with G = 1 + q*(H - 1), by Series.inverse
    G = 1 + (H - 1) * Q
    return (1 - (G * T).shift_x()).truncate(H.order).inverse()


@pytest.mark.parametrize("order", [0, 1, 2, 5, 32, 40])
def test_solve_F_matches_the_inverse_of_one_minus_xtG(order):
    # term for term, and each stored bound is an upper bound
    F, reference = solve_F(order), _F_by_inverse(solve_H(order))
    for n in range(order + 1):
        c = F.coefficient(n)
        assert c == reference.coefficient(n), n
        exact = _exact_meta(_digits(c._v, c._w), c._s)
        assert all(map(ge, c._meta, exact)), (n, c._meta, exact)


def test_a_corrupt_H_fails_both_F_constructions_at_the_same_index(monkeypatch):
    # G reaches F one power of x later, so a term added to H at x^b makes
    # F fail theorem 2 at x^(b + 1), and one at the order never shows
    order = 20
    H = solve_H(order)
    for b in range(order + 1):
        bad = H + Series.from_x_coefficients([0] * b + [1], order)
        monkeypatch.setattr(genfunc, "solve_H", lambda _: bad)
        for F in (solve_F.__wrapped__(order), _F_by_inverse(bad)):
            monkeypatch.setattr(genfunc, "solve_F", lambda _: F)
            verdict = verify_F_closed_form(order)
            if b < order:
                assert verdict.first_failure.n == b + 1, b
            else:
                assert verdict.passed


def _check_complemented_ballot_K(order: int) -> None:
    # jumpdist = internal - depth, so [x^n q^(n - d)] K = [x^n t^d] J
    K = solve_K(order)
    assert K.coefficient(0) == 1
    for n in range(1, order + 1):
        expected = Poly2({(0, n - d): _ballot(n, d) for d in range(1, n + 1)})
        assert K.coefficient(n) == expected, n


def test_solve_K_coefficients_are_complemented_ballot_numbers():
    _check_complemented_ballot_K(200)


def _trivariate_F_coefficients(n: int) -> dict[tuple[int, int], int]:
    # Lagrange inversion of A = x(1 + A)(1 + qA), A = H - 1, and
    # [t^d] F = (x(1 + qA))^d: the nonzero terms of [x^n] F are
    # [t^n] = 1 and, for 1 <= d < n and 1 <= k <= n - d,
    # [x^n t^d q^k] F = d / (n - d) * C(n - d, k) * C(n - 1, k - 1)
    terms = {(n, 0): 1}
    for d in range(1, n):
        for k in range(1, n - d + 1):
            terms[(d, k)] = d * comb(n - d, k) * comb(n - 1, k - 1) // (n - d)
    return terms


def _check_F_lagrange(order: int) -> int:
    """Compare every coefficient of F with the oracle, zeros included;
    return the number of nonzero terms."""
    F = solve_F(order)
    nonzero = 0
    for n in range(order + 1):
        expected = _trivariate_F_coefficients(n)
        assert dict(F.coefficient(n).items()) == expected, n
        nonzero += len(expected)
    return nonzero


def test_solve_F_matches_the_integer_oracle_to_order_60():
    assert _check_F_lagrange(60) == 36051


def _check_catalan_radical(order: int) -> None:
    # [x^n] sqrt(1 - 4x) = -2 * Cat(n - 1) for n >= 1
    root = catalan_radical(order)
    assert root.coefficient(0) == 1
    for n in range(1, order + 1):
        assert root.coefficient(n) == -2 * comb(2 * n - 2, n - 1) // n, n


def _check_jumpdist_radical(order: int) -> None:
    # [x^n] sqrt(1 - 4qx) = -2 * Cat(n - 1) * q^n for n >= 1
    root = jumpdist_radical(order)
    assert root.coefficient(0) == 1
    for n in range(1, order + 1):
        assert root.coefficient(n) == Poly2.term(
            -2 * comb(2 * n - 2, n - 1) // n, eq=n), n


def _check_jumps_radical(order: int) -> None:
    # [x^1] = -1 - q and, with the Narayana numbers N(m, k) =
    # C(m, k) * C(m, k - 1) / m, [x^n q^k] = -2 * N(n - 1, k) for n >= 2
    root = jumps_radical(order)
    assert root.coefficient(0) == 1
    if order:
        assert root.coefficient(1) == -1 - Q
    for n in range(2, order + 1):
        m = n - 1
        expected = Poly2({(0, k): -2 * comb(m, k) * comb(m, k - 1) // m
                          for k in range(1, n)})
        assert root.coefficient(n) == expected, n


_RADICAL_CHECKS = {"catalan_radical": _check_catalan_radical,
                   "jumpdist_radical": _check_jumpdist_radical,
                   "jumps_radical": _check_jumps_radical}


@pytest.mark.parametrize("name", list(_RADICAL_CHECKS))
def test_radicals_match_their_integer_formulas(name):
    _RADICAL_CHECKS[name](30)


# each oracle and the cap it runs at: a radical at the cap of the solver
# whose self-check takes its root
_ORACLE_CHECKS = {"f": (_check_catalan, "f"), "F": (_check_F_lagrange, "F"),
                  "H": (_check_narayana_H, "H"), "J": (_check_ballot_J, "J"),
                  "K": (_check_complemented_ballot_K, "K"),
                  "catalan_radical": (_check_catalan_radical, "f"),
                  "jumpdist_radical": (_check_jumpdist_radical, "K"),
                  "jumps_radical": (_check_jumps_radical, "H")}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(_ORACLE_CHECKS))
def test_every_solver_matches_its_oracle_at_its_order_cap(name):
    # the largest coefficients a solver can be asked for are where its
    # width rule and re-packing are exercised hardest
    check, cap = _ORACLE_CHECKS[name]
    check(genfunc.ORDER_CAPS[cap])


@pytest.mark.slow
def test_F_satisfies_its_closed_form_at_its_order_cap():
    # theorem 2's residual multiplies every F_n, the widest coefficients of
    # any series, by the literal factors of _linear_residual
    order = genfunc.ORDER_CAPS["F"]
    assert verify_theorem("2", order) == Verdict("2", order, True)


@pytest.mark.slow
def test_H_matches_its_quadratic_equation_at_its_order_cap():
    _check_quadratic("H", genfunc.ORDER_CAPS["H"])


@pytest.mark.slow
def test_f_satisfies_identity_0_at_its_order_cap():
    # the fixed-point half squares f with Series.__mul__, which shares
    # nothing with the recurrence
    order = genfunc.ORDER_CAPS["f"]
    assert verify_theorem("0", order) == Verdict("0", order, True)


@pytest.mark.parametrize(
    "solver", [solve_catalan, solve_F, solve_H, solve_Jdepth, solve_K])
def test_solver_coefficients_are_ints(solver):
    values = [v for c in solver(12).coefficients() for _, v in c.items()]
    assert values and all(type(v) is int for v in values)


def test_radicand_factorization_is_exact():
    t_sq = Poly2({(2, 0): 1})
    assert printed_radicand(6) == inner_radicand(6) * t_sq


def test_solve_H_small_coefficients():
    H = solve_H(6)
    assert H.coefficient(2) == 1 + Q
    assert H.coefficient(3) == 1 + Q * 3 + Q * Q
    at1 = H.substitute("q", 1)
    for n in range(7):
        assert at1.coefficient(n) == catalan(n)


def test_solve_Jdepth_small_coefficients():
    J = solve_Jdepth(6)
    assert J.coefficient(0) == Poly2.one()
    assert J.coefficient(2) == T + T * T
    assert J.coefficient(3) == T * 2 + T * T * 2 + T * T * T
    # forgetting depth recovers the plain counter
    at1 = J.substitute("t", 1)
    for n in range(7):
        assert at1.coefficient(n) == catalan(n)


def test_solve_K_small_coefficients():
    K = solve_K(6)
    assert K.coefficient(2) == 1 + Q
    # the five trees of size 3 have jump distances 0, 1, 1, 2, 2: their
    # q-weights sum to 1 + 2q + 2q^2 (total jump distance 6 across all five)
    assert K.coefficient(3) == 1 + Q * 2 + Q * Q * 2
    assert q_log_derivative_power(K, 1)[1][3] == 6


def test_solve_K_matches_exhaustive_counts():
    K = solve_K(9)
    oracle = brute_force_jumpdist_enumerator(9, cap=9)
    for n in range(10):
        assert K.coefficient(n) == oracle.coefficient(n)


def test_jumps_radical_squares_back():
    root = jumps_radical(12)
    assert root * root == inner_radicand(12)
    rootq = jumpdist_radical(12)
    assert rootq * rootq == Series.from_x_coefficients(
        [Poly2.one(), Poly2.term(-4, eq=1)], 12)


@pytest.mark.parametrize("theorem", ["0", "1", "2", "3", "4", "5", "6"])
def test_verify_theorem_passes(theorem):
    verdict = verify_theorem(theorem, 18)
    assert verdict.passed
    assert verdict.first_failure is None
    assert verdict.to_json() == {
        "theorem": theorem, "order": 18, "pass": True, "first_failure": None}


@pytest.mark.parametrize("theorem", ["0", "1", "2", "3", "4", "5", "6"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_verify_theorem_low_orders(theorem, order):
    assert verify_theorem(theorem, order).passed


def test_every_solver_refuses_a_negative_order_alike():
    refusals = set()
    for solver in genfunc.SOLVERS.values():
        with pytest.raises(Exception) as refused:
            solver(-1)
        refusals.add((type(refused.value), str(refused.value)))
    assert refusals == {(ValueError, "order must be >= 0")}


def test_verify_theorem_accepts_ints_and_rejects_junk():
    assert verify_theorem(0, 5).passed
    with pytest.raises(ValueError):
        verify_theorem("7", 10)
    with pytest.raises(ValueError):
        verify_theorem("2", -1)


def test_oracle_size_above_the_ceiling_is_refused_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(genfunc, "brute_force_enumerator", never)
    monkeypatch.setattr(genfunc, "solve_F", never)
    with pytest.raises(EnumerationCapError,
                       match=r"ceiling of 16; --oracle-cap must be at most 16"):
        verify_theorem("1", 40, oracle_cap=17)
    monkeypatch.undo()
    # the ceiling bounds the enumerated size, min(order, oracle_cap)
    assert verify_theorem("1", 5, oracle_cap=17).passed


def test_a_huge_oracle_size_is_refused_without_its_tree_count():
    # Cat(10^20) cannot be computed: the refusal leaves the count out
    with pytest.raises(EnumerationCapError) as refused:
        verify_theorem("1", 10**20, oracle_cap=10**20)
    assert str(refused.value) == (
        f"oracle size {10**20} exceeds the ceiling of 16; --oracle-cap must "
        "be at most 16")


def test_a_negative_oracle_cap_is_refused_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(genfunc, "brute_force_enumerator", never)
    monkeypatch.setattr(genfunc, "solve_F", never)
    with pytest.raises(ValueError, match="oracle_cap must be >= 0"):
        verify_theorem("1", 40, oracle_cap=-1)


def test_verify_oracle_cap_limits_comparison():
    # with a tiny cap only the first few coefficients are compared, so
    # this stays fast even at a large series order
    verdict = verify_theorem("1", 25, oracle_cap=5)
    assert verdict.passed


def test_id_1_solves_F_only_as_far_as_it_compares(monkeypatch):
    # F is asked for once, at min(order, oracle_cap), and an order above
    # F's cap is still refused by F's door before any solve
    asked = []

    def spy(order):
        asked.append(order)
        return solve_F(order)

    monkeypatch.setattr(genfunc, "solve_F", spy)
    for order, oracle_cap in [(120, 12), (25, 5), (4, 12), (0, 12)]:
        asked.clear()
        assert verify_theorem("1", order, oracle_cap=oracle_cap).passed
        assert asked == [min(order, oracle_cap)], (order, oracle_cap)
    asked.clear()
    with pytest.raises(genfunc.ResourceCapError) as refused:
        verify_theorem("1", 121)
    assert str(refused.value) == \
        "series F at order 121 exceeds the cap of order 120"
    assert asked == []


def test_verify_F_closed_form_at_zero_order():
    assert verify_F_closed_form(0).passed


def test_first_failure_reads_each_residual_up_to_its_first_nonzero():
    def residual():
        yield from [Poly2.zero(), Poly2.zero(), Poly2.term(3, eq=1)]
        raise AssertionError("read past the first nonzero coefficient")

    assert genfunc._first_failure([Poly2.zero()] * 3, residual()) == \
        FirstFailure(2, Poly2.term(3, eq=1))
    assert genfunc._first_failure([Poly2.zero()] * 4, iter(())) is None


def test_a_passing_theorem_2_check_holds_less_than_F():
    # the residual is read one x-power at a time: when it was built as
    # whole series, the check at 60 peaked at 2.6 times F's packed ints.
    # F is solved first, so the check reads it from the solver's cache
    F = solve_F(60)
    size = sum(sys.getsizeof(c._v) for c in F.coefficients())
    tracemalloc.start()
    try:
        assert verify_F_closed_form(60).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= size


def test_a_sum_keeps_the_layout_of_the_operand_with_the_most_terms():
    # x^100 of K holds 101 terms in (w, s) = (200, 101); that of
    # sqrt(1 - 4qx) is one term in the radical's whole-order layout, whose
    # int is the longer.  Only the one-term operand is re-packed.
    K_n = solve_K(200).coefficient(100)
    r_n = jumpdist_radical(200).coefficient(100)
    total = K_n + r_n
    assert (total._w, total._s) == (K_n._w, K_n._s) == (200, 101)
    terms = dict(K_n.items())
    for key, c in r_n.items():
        terms[key] = terms.get(key, 0) + c
    assert total.items() == sorted((k, c) for k, c in terms.items() if c)


def test_failing_verdict_reports_first_failure(monkeypatch):
    # 2q*x^2 added to F meets the x^0 factor 2 - 2t of the cross-multiplied
    # closed form, so the residual first fails at x^2 with 4q - 4tq
    wrong = solve_F(4) + Series.from_x_coefficients(
        [0, 0, Poly2.term(2, eq=1)], 4)
    monkeypatch.setattr(genfunc, "solve_F", lambda _: wrong)
    verdict = verify_F_closed_form(4)
    assert not verdict.passed
    assert verdict.first_failure == FirstFailure(
        2, Poly2({(0, 1): 4, (1, 1): -4}))
    assert verdict.to_json()["first_failure"] == {
        "n": 2, "residual_terms": [{"et": 0, "eq": 1, "num": 4, "den": 1},
                                   {"et": 1, "eq": 1, "num": -4, "den": 1}]}


def test_solvers_are_cached():
    assert solve_F(12) is solve_F(12)
    assert solve_catalan(15) is solve_catalan(15)


_SOLVERS = {"f": solve_catalan, "F": solve_F, "H": solve_H, "J": solve_Jdepth,
            "K": solve_K}
_SOLVED: dict = {}


def _solved(name: str, order: int) -> Series:
    """The uncached solve of an admitted order."""
    if (name, order) not in _SOLVED:
        _SOLVED[name, order] = _SOLVERS[name].__wrapped__(order)
    return _SOLVED[name, order]


def _refusal(name: str, order: int) -> tuple[type, str] | None:
    """The type and text of the error that refuses an order, or None."""
    cap = genfunc.ORDER_CAPS[name]
    if order < 0:
        return ValueError, "order must be >= 0"
    if order > cap:
        return (genfunc.ResourceCapError,
                f"series {name} at order {order} exceeds the cap of order {cap}")
    return None


@pytest.mark.parametrize("name", sorted(_SOLVERS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_prefix_cache_serves_what_the_solver_returns(name, data):
    # orders up to the highest solved are prefixes of it, memoised per
    # order until a higher one replaces it; any other admitted order runs
    # the solver, and a refused one, the cap + 1 included, is not counted
    solver = _SOLVERS[name]
    orders = data.draw(st.lists(st.integers(-2, 40) | st.just(
        genfunc.ORDER_CAPS[name] + 1), min_size=1, max_size=8))
    solver.cache_clear()
    top, served, dropped = -1, {}, {}
    for order in orders:
        hits, misses = solver.cache_info()
        refusal = _refusal(name, order)
        if refusal is not None:
            with pytest.raises(refusal[0]) as refused:
                solver(order)
            assert str(refused.value) == refusal[1]
            assert solver.cache_info() == (hits, misses)
            continue
        hit = order <= top
        got = solver(order)
        assert got == _solved(name, order)
        if order in served:
            assert got is served[order]
        elif order in dropped:
            assert got is not dropped[order]
        if order > top:
            top, served, dropped = order, {}, served
        served[order] = got
        assert solver.cache_info() == (hits + hit, misses + (not hit))
    solver.cache_clear()
    assert solver.cache_info() == (0, 0)
    if top >= 0:
        solver(top)
        assert solver.cache_info() == (0, 1)


def test_a_solver_binds_its_order_by_name_before_the_lookup():
    solve_H.cache_clear()
    top = solve_H(9)
    assert solve_H(order=9) is top and solve_H(order=4) is solve_H(4)
    with pytest.raises(TypeError):
        solve_H()
    with pytest.raises(TypeError):
        solve_H(4, order=4)
    assert solve_H.cache_info() == (3, 1)


# every builder behind the prefix cache, with its arguments' names in order
@pytest.mark.parametrize("builder,names", [
    *[(solver, ("order",)) for solver in SOLVERS.values()],
    *[(table, ("max_moment", "n_max")) for table in moments._TABLES.values()],
], ids=[*SOLVERS, *moments._TABLES])
def test_a_cached_builder_binds_by_name_as_a_call_would(builder, names):
    args = (4, 5)[-len(names):]
    top = builder(*args)
    assert builder(**dict(zip(names, args))) is top
    # the first argument by position, the rest by name
    assert builder(args[0], **dict(zip(names[1:], args[1:]))) is top
    info = builder.cache_info()
    for bad_args, bad_names in [((), {}), (args, {"bogus": 1}),
                                ((*args, 6), {}),
                                (args, {names[0]: args[0]})]:
        with pytest.raises(TypeError):
            builder(*bad_args, **bad_names)
    assert builder.cache_info() == info


def _refused_keys() -> list[tuple]:
    """(case id, cached builder, refused key, error type, message) for
    every builder behind the prefix cache."""
    cases = [(name, solver, (order,), *_refusal(name, order))
             for name, solver in SOLVERS.items()
             for order in (-1, genfunc.ORDER_CAPS[name] + 1)]
    error, top = genfunc.ResourceCapError, moments.MOMENT_CAP
    for stat, name in (("jumps", "H"), ("jumpdist", "K")):
        table, cap = moments._TABLES[stat], genfunc.ORDER_CAPS[name]
        cases += [
            (stat, table, (0, 5), ValueError, "max_moment must be >= 1"),
            (stat, table, (top + 1, 5), error, f"moment at order {top + 1} "
             f"exceeds the cap of order {top}"),
            (stat, table, (4, -1), ValueError, "n_max must be >= 0"),
            (stat, table, (4, cap + 1), error, f"series {name} at order "
             f"{cap + 1} exceeds the cap of order {cap}")]
    return cases


@pytest.mark.parametrize(
    "builder, key, error, message", [case[1:] for case in _refused_keys()],
    ids=[f"{case[0]}:{','.join(map(str, case[2]))}"
         for case in _refused_keys()])
def test_a_refused_key_is_never_counted_looked_up_or_built(builder, key,
                                                           error, message):
    # with a covering value cached, the refusal reads as the solver's or
    # moment_table's own did, and the builder's code is never entered
    builder(*(4, 5)[-len(key):])
    info = builder.cache_info()
    build = builder.__wrapped__
    code, entered = getattr(build, "func", build).__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            entered.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with pytest.raises(error) as refused:
            builder(*key)
    finally:
        sys.setprofile(previous)
    assert str(refused.value) == message
    assert builder.cache_info() == info
    assert entered == []


def test_the_session_ranges_slice_the_order_32_series():
    # a paper session re-guesses at n_max 29 and 26 after its order-32 solves
    for solver in (solve_H, solve_K):
        solver.cache_clear()
        top = solver(32)
        assert [solver(n) for n in (29, 26)] == [top.truncate(29),
                                                   top.truncate(26)]
        assert solver.cache_info().misses == 1


@pytest.mark.parametrize("order, checked", [(200, 40), (12, 12)])
def test_K_reads_the_depth_series_only_up_to_the_cross_check(
        monkeypatch, order, checked):
    orders = []

    def spy(n):
        orders.append(n)
        return solve_Jdepth(n)

    monkeypatch.setattr(genfunc, "solve_Jdepth", spy)
    solve_K.__wrapped__(order)
    assert orders == [checked]


def _corrupt_row_100(monkeypatch) -> None:
    """Patch ``genfunc._value_rows`` to add 1 at x^100 q^7 of its rows."""
    rows = genfunc._value_rows

    def corrupt(stat, n_max):
        out = rows(stat, n_max)
        out[100][7] += 1
        return out

    monkeypatch.setattr(genfunc, "_value_rows", corrupt)


def test_a_catalan_triangle_row_above_the_cross_check_fails_theorem_6(
        monkeypatch):
    # J no longer sees x^100, so only the closed form can
    _corrupt_row_100(monkeypatch)
    with pytest.raises(SelfCheckError, match=r"^jump-distance series failed "
                       r"its closed form at x\^100: "):
        solve_K.__wrapped__(200)


def test_a_narayana_row_above_the_cross_check_fails_theorem_3(monkeypatch):
    # theorem 3's x^n reads H_(n-1), so the bad row 100 fails at x^101
    _corrupt_row_100(monkeypatch)
    with pytest.raises(SelfCheckError, match=r"^jumps series failed its "
                       r"closed form at x\^101: "):
        solve_H.__wrapped__(200)


def test_theorem_3_keeps_every_coefficient_of_H_in_its_layout(monkeypatch):
    # x^n of the residual is the dot of (H_(n-1), r_n) with (2q, 1), whose
    # width-rule bound H_n's spare bits hold, so no H_n is re-packed; H is
    # t-free, so only its slot width could change
    H = solve_H.__wrapped__(200)
    own = {id(c) for c in H.coefficients()}
    conv, seen, moved = algebra._conv, [], []

    def spy(p, w, s):
        if id(p) in own:
            seen.append(p)
            if p._v and p._w != w:
                moved.append(p)
        return conv(p, w, s)

    monkeypatch.setattr(algebra, "_conv", spy)
    assert genfunc._first_failure(genfunc._theorem3_residual(H, 200)) is None
    assert len(seen) >= 200 and not moved


# a depth term moved at x^5; a q term, and a depth above the size, have no
# jump distance n - depth and so differ from the complement at their power
@pytest.mark.parametrize("n, term", [(5, T * T), (2, Q), (1, T * T)],
                         ids=["moved_depth", "q_term", "depth_above_size"])
def test_a_wrong_depth_coefficient_fails_the_cross_check(monkeypatch, n, term):
    J = solve_Jdepth(40) + Series.from_x_coefficients([0] * n + [term], 40)
    monkeypatch.setattr(genfunc, "solve_Jdepth", J.truncate)
    with pytest.raises(SelfCheckError, match=rf"^jump-distance series "
                       rf"coefficient x\^{n} differs from the complement of "
                       rf"the depth series$"):
        solve_K.__wrapped__(200)


# id: its series' solver, the (e_t, e_q) exponents of the single terms
# added at x^m, and how many powers later its check first fails: 1 where
# the form has no x^0 factor (d0 = 0), so x^m reads the series at x^(m-1)
_FAULTS = {
    "0": (solve_catalan, lambda m: [(0, 0)], 0),
    "2": (solve_F, lambda m: [(a, b) for a in range(m + 1)
                              for b in range(m + 1 - a)], 0),
    "3": (solve_H, lambda m: [(0, b) for b in range(m + 1)], 1),
    "5": (solve_Jdepth, lambda m: [(a, 0) for a in range(m + 1)], 0),
    "6": (solve_K, lambda m: [(0, b) for b in range(m + 1)], 0),
}
# id 1 reads F against the enumeration, id 4 J against its product form
_FAULTS["1"], _FAULTS["4"] = _FAULTS["2"], _FAULTS["5"]
# the ids that report a failed identity as a failing Verdict
_VERDICT_IDS = ("0", "1", "2", "4")


def _faulty_verdict(monkeypatch, theorem: str, wrong: Series,
                    order: int) -> Verdict:
    """Id ``theorem``'s verdict with its solver returning ``wrong``."""
    with monkeypatch.context() as patched:
        patched.setattr(genfunc, _FAULTS[theorem][0].__name__,
                        lambda n: wrong)
        return verify_theorem(theorem, order)


def _named_power(monkeypatch, theorem: str, wrong: Series,
                 order: int) -> int | None:
    """The x-power that id ``theorem`` names as the first failure of
    ``wrong``: its verdict's for ids 0, 1, 2 and 4, its solver's
    SelfCheckError's for the self-checked ids; None if it passes."""
    if theorem in _VERDICT_IDS:
        failure = _faulty_verdict(monkeypatch, theorem, wrong,
                                  order).first_failure
        return failure and failure.n
    solver = _FAULTS[theorem][0]
    with monkeypatch.context() as patched:
        name = f"_theorem{theorem}_residual"
        residual = getattr(genfunc, name)
        patched.setattr(genfunc, name, lambda S, n: residual(wrong, n))
        try:
            solver.__wrapped__(order)
        except SelfCheckError as error:
            return int(re.search(r" at x\^(\d+): ", str(error))[1])
    return None


@pytest.mark.parametrize("theorem, order", [("0", 12), ("1", 6), ("2", 6),
                                            ("3", 12), ("4", 12), ("5", 12),
                                            ("6", 12)])
def test_every_check_names_the_first_power_a_single_term_breaks(
        monkeypatch, theorem, order):
    # up to x^order included: a check must read every coefficient it returns
    solver, exponents, lag = _FAULTS[theorem]
    series = solver(order)
    for m in range(order + 1):
        for et, eq in exponents(m):
            wrong = series + Series.from_x_coefficients(
                [0] * m + [Poly2.term(1, et=et, eq=eq)], order)
            assert _named_power(monkeypatch, theorem, wrong,
                                order) == m + lag, (m, et, eq)


def test_a_negative_catalan_coefficient_fails_id_0_at_its_power(monkeypatch):
    # f_m - (C_m + 1) = -1, so the square of f takes a negative coefficient
    f = solve_catalan(12)
    for m in range(13):
        wrong = f - Series.from_x_coefficients(
            [0] * m + [catalan(m) + 1], 12)
        failure = _faulty_verdict(monkeypatch, "0", wrong, 12).first_failure
        assert (failure.n, failure.residual) == \
            (m, Poly2.constant(-catalan(m) - 1)), m
        ints = [c.constant_value() for c in wrong.coefficients()]
        assert [c.constant_value() for c in (wrong * wrong).coefficients()] \
            == [sum(ints[i] * ints[n - i] for i in range(n + 1))
                for n in range(13)], m


# one single-term fault per case, with its failing verdict as recorded
# before id 0's square, id 4's product or J's construction changed
@pytest.mark.parametrize("theorem, order, m, term, recorded", [
    ("0", 12, 5, Poly2.constant(-43), '{"theorem": "0", "order": 12, '
     '"pass": false, "first_failure": {"n": 5, "residual_terms": '
     '[{"et": 0, "eq": 0, "num": -43, "den": 1}]}}'),
    ("1", 6, 6, Poly2.term(1, et=2, eq=3), '{"theorem": "1", "order": 6, '
     '"pass": false, "first_failure": {"n": 6, "residual_terms": '
     '[{"et": 2, "eq": 3, "num": 1, "den": 1}]}}'),
    ("4", 12, 7, Poly2.term(1, et=5), '{"theorem": "4", "order": 12, '
     '"pass": false, "first_failure": {"n": 7, "residual_terms": '
     '[{"et": 5, "eq": 0, "num": 1, "den": 1}]}}'),
], ids=["0-negative", "1", "4"])
def test_a_single_term_fault_gives_its_recorded_verdict(
        monkeypatch, theorem, order, m, term, recorded):
    wrong = _FAULTS[theorem][0](order) + Series.from_x_coefficients(
        [0] * m + [term], order)
    verdict = _faulty_verdict(monkeypatch, theorem, wrong, order)
    assert json.dumps(verdict.to_json()) == recorded


def test_verdict_is_frozen():
    verdict = Verdict("0", 4, True)
    with pytest.raises(AttributeError):
        verdict.passed = False


def test_self_check_error_is_runtime_error():
    assert issubclass(SelfCheckError, RuntimeError)


def _clear_self_checking_caches():
    for solver in (solve_H, solve_Jdepth, solve_K):
        solver.cache_clear()


def test_self_checking_ids_raise_instead_of_failing(monkeypatch):
    # ids 3, 5 and 6 report their solver's self-check, which raises when
    # the radical its closed form reads is wrong
    for theorem, radical, what in (("3", "jumps_radical", "jumps series"),
                                   ("5", "catalan_radical", "depth series"),
                                   ("6", "jumpdist_radical",
                                    "jump-distance series")):
        _clear_self_checking_caches()
        try:
            with monkeypatch.context() as patched:
                patched.setattr(genfunc, radical,
                                lambda order: Series.one(order))
                with pytest.raises(SelfCheckError, match=what):
                    verify_theorem(theorem, 8)
        finally:
            _clear_self_checking_caches()


@pytest.mark.parametrize("theorem", ["3", "5", "6"])
def test_verify_theorem_evaluates_each_identity_once(monkeypatch, theorem):
    # the solver's self-check is the only evaluation of the identity
    residual = getattr(genfunc, f"_theorem{theorem}_residual")
    orders = []

    def counted(series, order):
        orders.append(order)
        return residual(series, order)

    monkeypatch.setattr(genfunc, f"_theorem{theorem}_residual", counted)
    _clear_self_checking_caches()
    try:
        assert verify_theorem(theorem, 10).passed
    finally:
        _clear_self_checking_caches()
    assert orders == [10]


# --- the linear self-checks of ids 5 and 6 against the printed forms --------

def _printed_theorem5_residual(J: Series, order: int) -> Series:
    # the paper's form, (t*sqrt(1-4x) - t + 2)*J - 2: a series product
    return (genfunc.catalan_radical(order) * T + (2 - T)) * J - 2


def _printed_theorem6_residual(K: Series, order: int) -> Series:
    # the paper's form, (sqrt(1-4qx) - 1 + 2q)*K - 2q: a series product
    return (genfunc.jumpdist_radical(order) + (2 * Q - 1)) * K - 2 * Q


_FORMS = {"5": (solve_Jdepth, genfunc._theorem5_residual,
                _printed_theorem5_residual, "catalan_radical", T),
          "6": (solve_K, genfunc._theorem6_residual,
                _printed_theorem6_residual, "jumpdist_radical", Q)}


def _first_failures(theorem: str, series: Series, order: int) -> tuple:
    # the linear form yields its coefficients, the printed one is a Series
    _, linear, printed, _, _ = _FORMS[theorem]
    return tuple(next((n for n, c in enumerate(coefficients) if c), None)
                 for coefficients in (linear(series, order),
                                      printed(series, order).coefficients()))


@pytest.mark.parametrize("theorem", ["5", "6"])
def test_linear_and_printed_forms_vanish_on_the_solved_series(theorem):
    solver = _FORMS[theorem][0]
    for order in range(61):
        assert _first_failures(theorem, solver(order), order) == (None, None)


@pytest.mark.parametrize("theorem", ["5", "6"])
def test_every_single_term_corruption_fails_both_forms_at_its_index(
        monkeypatch, theorem):
    # every t^d of J, or q^b of K, with d, b <= m at every x^m up to 24
    solver, _, _, radical, marker = _FORMS[theorem]
    order = 24
    series, root = solver(order), getattr(genfunc, radical)(order)
    monkeypatch.setattr(genfunc, radical, lambda n: root)
    for m in range(order + 1):
        for e in range(m + 1):
            wrong = series + Series.from_x_coefficients(
                [0] * m + [Poly2.term(1, et=e) if marker == T
                           else Poly2.term(1, eq=e)], order)
            assert _first_failures(theorem, wrong, order) == (m, m), (m, e)


@pytest.mark.parametrize("theorem", ["5", "6"])
def test_a_wrong_radical_fails_both_forms_at_the_same_index(monkeypatch,
                                                            theorem):
    solver, _, _, radical, _ = _FORMS[theorem]
    order = 16
    series, right = solver(order), getattr(genfunc, radical)
    wrongs = [(1, lambda n: Series.one(n))] + [
        (m, lambda n, m=m: right(n) + Series.from_x_coefficients(
            [0] * m + [Poly2.term(2, eq=m if theorem == "6" else 0)], n))
        for m in (0, 1, 5, order)]
    for m, wrong in wrongs:
        monkeypatch.setattr(genfunc, radical, wrong)
        assert _first_failures(theorem, series, order) == (m, m)
