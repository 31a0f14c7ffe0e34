from __future__ import annotations

from math import comb

import pytest

from jumpstat import genfunc
from jumpstat.algebra import Poly2, Series
from jumpstat.genfunc import (FirstFailure, SelfCheckError, Verdict,
                              catalan_radical, inner_radicand,
                              jumpdist_radical, jumps_radical,
                              printed_radicand, solve_catalan, solve_F,
                              solve_H, solve_Jdepth, solve_K,
                              verify_F_closed_form, verify_theorem)
from jumpstat.moments import q_log_derivative_power
from jumpstat.trees import (EnumerationCapError,
                            brute_force_jumpdist_enumerator, catalan)

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


_ORACLE_CHECKS = {"f": _check_catalan, "F": _check_F_lagrange,
                  "H": _check_narayana_H, "J": _check_ballot_J,
                  "K": _check_complemented_ballot_K}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(_ORACLE_CHECKS))
def test_every_solver_matches_its_oracle_at_its_order_cap(name):
    # the largest coefficients a solver can be asked for are where its
    # width rule and re-packing are exercised hardest
    _ORACLE_CHECKS[name](genfunc.ORDER_CAPS[name])


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
    total = q_log_derivative_power(K, 1).coefficient(3).substitute("q", 1)
    assert total == 6


def test_solve_K_matches_exhaustive_counts():
    K = solve_K(9)
    oracle = brute_force_jumpdist_enumerator(9, cap=9)
    for n in range(10):
        assert K.coefficient(n) == oracle.coefficient(n)


def test_jumps_radical_squares_back():
    root = jumps_radical(12)
    assert root * root == inner_radicand(12)
    rootq = jumpdist_radical(12)
    assert (rootq * rootq).prefix_equal(
        Series.from_x_coefficients([Poly2.one(), Poly2.term(-4, eq=1)], 12))


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


def test_verify_F_closed_form_at_zero_order():
    assert verify_F_closed_form(0).passed


def test_verify_F_closed_form_rejects_short_series():
    with pytest.raises(ValueError):
        verify_F_closed_form(10, F=solve_F(5))


def test_failing_verdict_reports_first_failure():
    # 2q*x^2 added to F meets the x^0 factor 2 - 2t of the cross-multiplied
    # closed form, so the residual first fails at x^2 with 4q - 4tq
    wrong = solve_F(4) + Series.from_x_coefficients(
        [0, 0, Poly2.term(2, eq=1)], 4)
    verdict = verify_F_closed_form(4, F=wrong)
    assert not verdict.passed
    assert verdict.first_failure == FirstFailure(
        2, Poly2({(0, 1): 4, (1, 1): -4}))
    assert verdict.to_json()["first_failure"] == {
        "n": 2, "residual_terms": [{"et": 0, "eq": 1, "num": 4, "den": 1},
                                   {"et": 1, "eq": 1, "num": -4, "den": 1}]}


def test_solvers_are_cached():
    assert solve_F(12) is solve_F(12)
    assert solve_catalan(15) is solve_catalan(15)


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
