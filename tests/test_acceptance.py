"""End-to-end acceptance gates, one test per numbered criterion.

Every comparison is exact (tolerance zero).  Each test computes its
outcome, files one PASS/FAIL line (replayed in the terminal summary), and
then asserts the criterion.

Criterion 5 includes the tabulated claim (tag 8.3) that the skewness of
the jump-distance statistic is positive from size 4 on.  That claim is
false: the statistic is negatively skewed at every size >= 3, while its
squared skewness does match the tagged closed form.  The sign test
asserts the proven sign against brute-force enumeration and the limit
law, and asserts that the closed-form checker still refuses the clause
as tabulated, so the discrepancy stays on record.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, factorial

import pytest

from jumpstat import moments
from jumpstat.algebra import Poly2, Series
from jumpstat.genfunc import (solve_catalan, solve_F, verify_F_closed_form,
                              verify_theorem)
from jumpstat.guess import RationalFunctionN, guess_rational
from jumpstat.moments import (REFERENCE_FORMULAS, check_closed_forms,
                              moment_table)
from jumpstat.trees import brute_force_enumerator, catalan, enumerate_trees

F = Fraction

REFS = {ref.tag: ref for ref in REFERENCE_FORMULAS}


@pytest.fixture(scope="module")
def jumps_table():
    return moment_table("jumps", max_moment=10, n_max=60)


@pytest.fixture(scope="module")
def jumpdist_table():
    return moment_table("jumpdist", max_moment=10, n_max=60)


def test_criterion_1_catalan_counts(acceptance_report):
    start = time.monotonic()
    count_ok = all(
        sum(1 for _ in enumerate_trees(n)) == comb(2 * n, n) // (n + 1)
        for n in range(13))
    series_ok = all(solve_catalan(30).coefficient(n) == comb(2 * n, n) // (n + 1)
                    for n in range(31))
    elapsed = time.monotonic() - start
    ok = count_ok and series_ok and elapsed < 120
    acceptance_report(
        "1", ok,
        f"enumerated counts for n=0..12 and series coefficients for n<=30 "
        f"equal (2n)!/(n!(n+1)!) in {elapsed:.1f}s (bound 120s)")
    assert ok, (count_ok, series_ok, elapsed)


def test_criterion_2_oracle_equivalence(acceptance_report):
    oracle = brute_force_enumerator(12, cap=12)
    solved = solve_F(12)
    bad = [n for n in range(13)
           if solved.coefficient(n) != oracle.coefficient(n)]
    ok = not bad
    acceptance_report(
        "2", ok,
        "solved trivariate series equals the exhaustive enumerator exactly "
        "for all n <= 12")
    assert ok, bad


def test_criterion_3_identities_at_order_40(acceptance_report):
    start = time.monotonic()
    verdicts = {tid: verify_theorem(tid, 40)
                for tid in ("0", "2", "3", "4", "5", "6")}
    elapsed = time.monotonic() - start
    failed = sorted(tid for tid, v in verdicts.items() if not v.passed)
    ok = not failed and elapsed < 300
    acceptance_report(
        "3", ok,
        f"identities 0 and 2..6 hold exactly at series order 40 "
        f"in {elapsed:.1f}s (bound 300s)")
    assert ok, (failed, elapsed)


def test_criterion_4_jump_moments(acceptance_report, jumps_table):
    mean = RationalFunctionN((-1, 1), (2,))          # (n-1)/2
    variance = RationalFunctionN((-1, 0, 1), (-4, 8))  # (n^2-1)/(8n-4)
    bad = []
    for n in range(2, 61):
        row = jumps_table.row(n)
        if row.raw_moment(1) != mean.evaluate(n):
            bad.append(("mean", n))
        if row.central_moment(2) != variance.evaluate(n):
            bad.append(("variance", n))
        for tag, r in (("7.3", 4), ("7.4", 6), ("7.5", 8)):
            if row.scaled_even[r] != REFS[tag].formula.evaluate(n):
                bad.append((tag, n))
    ok = not bad
    acceptance_report(
        "4", ok,
        "jump mean (n-1)/2, variance (n^2-1)/(8n-4), and scaled moments "
        "4/6/8 (tags 7.3-7.5) match exactly for n = 2..60")
    assert ok, bad[:5]


def test_criterion_5_jumpdist_moment_values(acceptance_report, jumpdist_table):
    mean = RationalFunctionN((0, -1, 1), (2, 1))     # n(n-1)/(n+2)
    variance = RationalFunctionN((0, -2, -2, 4), (12, 16, 7, 1))
    bad = []
    for n in range(2, 61):
        row = jumpdist_table.row(n)
        if row.raw_moment(1) != mean.evaluate(n):
            bad.append(("mean", n))
        if row.central_moment(2) != variance.evaluate(n):
            bad.append(("variance", n))
        if row.scaled_even[4] != REFS["8.4"].formula.evaluate(n):
            bad.append(("8.4", n))
        if row.scaled_odd_squared[3][1] != REFS["8.3"].formula.evaluate(n):
            bad.append(("8.3 squared", n))
    ok = not bad
    acceptance_report(
        "5 (values)", ok,
        "jump-distance mean n(n-1)/(n+2), variance "
        "2n(2n^2-n-1)/(n^3+7n^2+16n+12), kurtosis (tag 8.4) and squared "
        "skewness (tag 8.3) match exactly for n = 2..60")
    assert ok, bad[:5]


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _mu3_sign(counter) -> int:
    """Sign of the third central moment of jumpdist over one size's trees."""
    count = sum(counter.values())
    mean = F(sum(st.jumpdist * mult for st, mult in counter.items()), count)
    return _sign(sum((st.jumpdist - mean) ** 3 * mult
                     for st, mult in counter.items()))


def test_criterion_5_skewness_sign_clause(acceptance_report, jumpdist_table,
                                          stat_counts_full):
    # 8.3's numerator factors as 9n(n-2)^2(n+3), so mu_3 has no root past
    # n = 2 and keeps the sign it has at n = 3 (negative, not the positive
    # sign 8.3 tabulates from n = 4 on)
    signs = {n: jumpdist_table.row(n).scaled_odd_squared[3][0]
             for n in range(2, 61)}
    table_bad = sorted(n for n, s in signs.items()
                       if s != (0 if n == 2 else -1))

    brute_bad = sorted(n for n in range(2, 13)
                       if _mu3_sign(stat_counts_full[n]) != signs[n])

    # jumpdist = n - depth, so the centered statistic tends to minus the
    # centered limiting depth law: skewness -> -mu_3 / mu_2^(3/2) of that law
    depth_mu = _depth_limit_central_moments(3)
    limit_sign = _sign(-depth_mu[3])
    limit_squared = depth_mu[3] ** 2 / depth_mu[2] ** 3
    tabulated = REFS["8.3"].formula.limit_at_infinity()
    limit_ok = (limit_sign == -1
                and (tabulated.kind, tabulated.value) == ("finite",
                                                          limit_squared)
                and limit_squared == F(9, 4))

    checks = {c.tag: c for c in check_closed_forms(jumpdist_table)}
    refused = checks["8.3"]
    refusal_ok = (not refused.passed
                  and refused.first_mismatch_n == 4
                  and refused.detail == "sign -1 where positive is required"
                  and all(checks[tag].passed for tag in ("8.1", "8.2", "8.4")))

    ok = not table_bad and not brute_bad and limit_ok and refusal_ok
    acceptance_report(
        "5 (sign clause)", ok,
        "jump-distance skewness sign is 0 at n=2 and -1 for every n in "
        "3..60, agreeing with brute-force mu_3 for n <= 12 and with the "
        f"limit law (skewness -> -3/2, square {limit_squared} = limit of "
        "8.3); the tabulated positive-sign clause of 8.3 is refused by "
        f"the checker at n={refused.first_mismatch_n} "
        f"({refused.detail}) while 8.1, 8.2 and 8.4 pass")
    assert ok, (table_bad, brute_bad, limit_ok, refusal_ok)


def test_criterion_6_guessing_round_trip(acceptance_report, jumps_table,
                                         jumpdist_table):
    outcomes = {}
    for ref in REFERENCE_FORMULAS:
        table = jumps_table if ref.stat == "jumps" else jumpdist_table
        points = [(n, table.row(n).value(ref.kind, ref.r))
                  for n in range(2, 41)]
        result = guess_rational(points, holdout=5)
        outcomes[ref.tag] = result.formula == ref.formula
    ok = all(outcomes.values())
    bad = sorted(tag for tag, good in outcomes.items() if not good)
    acceptance_report(
        "6", ok,
        "guessing recovers all nine tagged closed forms (8.3 via its "
        "square) from exact data at n = 2..40 with a 5-point holdout, "
        "as identical normalized rational functions")
    assert ok, bad


def _depth_limit_central_moments(max_r: int) -> dict[int, Fraction]:
    """Central moments of the limiting law of the rightmost-leaf depth.

    The fraction of size-n trees with rightmost-leaf depth d tends to
    d/2^(d+1), whose power sums sum(d^k * d/2^(d+1)) are the ordered Bell
    numbers a(k+1) (by Stirling decomposition of d^k, each summand
    telescopes to an integer).  Central moments follow by the binomial
    transform about the mean a(2) = 3.
    """
    bells = [F(1)]
    for m in range(1, max_r + 2):
        bells.append(sum(comb(m, k) * bells[m - k] for k in range(1, m + 1)))
    raw = [bells[k + 1] for k in range(max_r + 1)]
    mean = raw[1]
    return {r: sum(comb(r, k) * (-mean) ** (r - k) * raw[k]
                   for k in range(r + 1))
            for r in range(2, max_r + 1)}


def test_criterion_7_limits(acceptance_report, jumps_table, jumpdist_table):
    bad = []
    for tag, expected in (("7.3", F(3)), ("7.4", F(15)), ("7.5", F(105)),
                          ("8.2", F(4)), ("8.4", F(25, 4)),
                          ("8.3", F(9, 4))):
        limit = REFS[tag].formula.limit_at_infinity()
        if (limit.kind, limit.value) != ("finite", expected):
            bad.append((tag, limit))
    # guessed scaled jump moments of order 2r tend to the normal moments
    for r in range(1, 6):
        points = [(n, jumps_table.row(n).scaled_even[2 * r])
                  for n in range(2, 61)]
        result = guess_rational(points, max_total_degree=30)
        expected = F(factorial(2 * r), 2 ** r * factorial(r))
        limit = result.formula.limit_at_infinity()
        if (limit.kind, limit.value) != ("finite", expected):
            bad.append((f"jumps scaled {2 * r}", limit))
    # the jump-distance central moments 5..10 are not tabulated anywhere;
    # the guessed formulas are validated by the holdout plus their limits,
    # which an independent derivation pins down exactly: the centered
    # statistic converges to minus the centered limiting depth law, so
    # mu_r tends to (-1)^r times that law's r-th central moment
    depth_mu = _depth_limit_central_moments(10)
    degrees = {}
    for r in range(5, 11):
        points = [(n, jumpdist_table.row(n).central_moment(r))
                  for n in range(2, 61)]
        result = guess_rational(points, max_total_degree=40)
        degrees[r] = result.degrees
        expected = (-1) ** r * depth_mu[r]
        limit = result.formula.limit_at_infinity()
        if (limit.kind, limit.value) != ("finite", expected):
            bad.append((f"jumpdist central {r}", limit))
    ok = not bad
    acceptance_report(
        "7", ok,
        "tagged-formula limits are 3, 15, 105 (jumps 4/6/8), 4, 25/4, 9/4 "
        "(jump-distance variance, kurtosis, squared skewness); guessed "
        "jump scaled moments of order 2r tend to (2r)!/(2^r r!) for "
        "r = 1..5; guessed jump-distance central moments 5..10 (degrees "
        f"{sorted(degrees.values())}) pass their holdouts and tend to the "
        "limiting depth law's signed central moments")
    assert ok, bad


def test_criterion_8_falsification_sensitivity(acceptance_report,
                                               monkeypatch):
    # one spurious series coefficient breaks the closed-form verdict
    mutated = solve_F(12) + Series.from_x_coefficients(
        [0, 0, Poly2.term(1, et=1, eq=1)], 12)
    with monkeypatch.context() as mp:
        mp.setattr("jumpstat.genfunc.solve_F", lambda order: mutated)
        verdict = verify_F_closed_form(12)
    series_ok = not verdict.passed and verdict.first_failure.n == 2

    table = moment_table("jumps", max_moment=2, n_max=12)

    # one changed reference-formula coefficient fails its check
    broken = REFS["7.1"]._replace(
        formula=RationalFunctionN((-1, 2), (2,)))
    patched = tuple(broken if ref.tag == "7.1" else ref
                    for ref in REFERENCE_FORMULAS)
    with monkeypatch.context() as mp:
        mp.setattr(moments, "REFERENCE_FORMULAS", patched)
        checks = {c.tag: c for c in check_closed_forms(table)}
        formula_ok = (not checks["7.1"].passed
                      and checks["7.1"].first_mismatch_n == 2
                      and checks["7.2"].passed)

    # one corrupted table entry fails exactly the column it sits in
    rows = list(table.rows)
    rows[7] = rows[7]._replace(central=(rows[7].central[0] + 1,))
    corrupted = table._replace(rows=tuple(rows))
    checks = {c.tag: c for c in check_closed_forms(corrupted)}
    table_ok = (not checks["7.2"].passed
                and checks["7.2"].first_mismatch_n == 7
                and checks["7.1"].passed)

    ok = series_ok and formula_ok and table_ok
    acceptance_report(
        "8", ok,
        "three single-coefficient mutations (series term, reference "
        "formula, table entry) each flip exactly their own verdict to FAIL")
    assert ok, (series_ok, formula_ok, table_ok)
