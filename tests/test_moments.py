from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb
from operator import le, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpstat import moments
from jumpstat.algebra import Poly2
from jumpstat.genfunc import (ORDER_CAPS, SOLVERS, ResourceCapError,
                              SelfCheckError, solve_H, solve_Jdepth, solve_K)
from jumpstat.moments import (CROSS_CHECK_ORDER, MOMENT_CAP,
                              REFERENCE_FORMULAS, MomentRow,
                              check_closed_forms, moment_table,
                              q_log_derivative_power)
from jumpstat.trees import catalan, enumerate_trees_with_stats

F = Fraction


def test_q_log_derivative_turns_counts_into_power_sums():
    # size 3: jump counts 0, 1, 1, 1, 2 over the five trees
    sums = q_log_derivative_power(solve_H(6), 2)
    assert len(sums) == 3
    assert [s[3] for s in sums] == [5, 5, 7]
    assert sums[0] == [catalan(n) for n in range(7)]
    # the leaf's only term is q^0, and 0^0 = 1
    assert [s[0] for s in sums] == [1, 0, 0]
    # size 3: jump distances 0, 1, 1, 2, 2
    sums_k = q_log_derivative_power(solve_K(6), 1)
    assert (sums_k[1][2], sums_k[1][3]) == (1, 6)


@pytest.mark.parametrize("solve,field", [(solve_H, "jumps"),
                                         (solve_K, "jumpdist")])
def test_q_log_derivative_matches_the_enumerated_power_sums(solve, field):
    sums = q_log_derivative_power(solve(10), 6)
    for n in range(11):
        values = Counter(getattr(st, field)
                         for _, st in enumerate_trees_with_stats(n))
        for j in range(7):
            assert sums[j][n] == sum(m * v ** j for v, m in values.items()), \
                (n, j)


def test_moment_table_decodes_each_coefficient_once(monkeypatch):
    calls = 0
    decode = Poly2.q_coefficients

    def spy(self):
        nonlocal calls
        calls += 1
        return decode(self)

    solve_K(30)   # solved (and cached) before the spy: count the table only
    monkeypatch.setattr(Poly2, "q_coefficients", spy)
    moment_table("jumpdist", 10, 30)
    assert calls == 31


def test_q_log_derivative_rejects_t_marker_and_bad_r():
    with pytest.raises(ValueError, match="t marker"):
        q_log_derivative_power(solve_Jdepth(4), 1)
    with pytest.raises(ValueError):
        q_log_derivative_power(solve_H(4), -1)


def test_jumps_table_small_rows():
    table = moment_table("jumps", max_moment=4, n_max=8)
    row = table.row(3)
    assert row.count == 5
    assert row.raw == (F(1), F(7, 5), F(11, 5), F(19, 5))
    assert row.central == (F(2, 5), F(0), F(2, 5))
    assert row.scaled_even == {2: F(1), 4: F(5, 2)}
    assert row.scaled_odd_squared == {3: (0, F(0))}
    assert row.variance_defined
    assert row.raw_moment(2) == F(7, 5)
    assert row.central_moment(4) == F(2, 5)
    with pytest.raises(IndexError):
        row.raw_moment(5)
    with pytest.raises(IndexError):
        row.central_moment(1)


def test_row_value_selects_one_column_per_kind():
    table = moment_table("jumpdist", max_moment=4, n_max=5)
    row = table.row(4)
    assert row.value("raw", 2) == row.raw_moment(2)
    assert row.value("central", 3) == row.central_moment(3)
    assert row.value("scaled", 4) == row.scaled_even[4]
    assert row.value("scaled_squared", 3) == row.scaled_odd_squared[3][1]
    # undefined scaled columns read as None, untabulated orders raise
    assert table.row(1).value("scaled", 4) is None
    assert table.row(1).value("scaled_squared", 3) is None
    with pytest.raises(IndexError):
        row.value("raw", 5)
    with pytest.raises(ValueError):
        row.value("skew", 3)


def test_variance_undefined_for_tiny_sizes():
    table = moment_table("jumps", max_moment=4, n_max=3)
    for n in (0, 1):
        row = table.row(n)
        assert not row.variance_defined
        assert row.scaled_even == {}
        assert row.scaled_odd_squared == {}
    assert table.row(2).variance_defined


@pytest.mark.parametrize("n", [-1, -6, 6])
def test_row_refuses_a_size_outside_the_table(n):
    # a negative n must not count from the end of the rows
    table = moment_table("jumps", 2, 5)
    with pytest.raises(IndexError, match=rf"^row n={n} outside 0..n_max=5$"):
        table.row(n)
    assert [table.row(k).n for k in (0, 5)] == [0, 5]


def test_jumpdist_table_small_rows():
    table = moment_table("jumpdist", max_moment=4, n_max=6)
    assert table.row(2).raw_moment(1) == F(1, 2)
    assert table.row(2).central_moment(2) == F(1, 4)
    row3 = table.row(3)
    assert row3.raw_moment(1) == F(6, 5)
    assert row3.central_moment(2) == F(14, 25)
    assert row3.central_moment(3) == F(-18, 125)
    assert row3.scaled_odd_squared[3] == (-1, F(81, 686))
    row4 = table.row(4)
    assert row4.central_moment(2) == F(6, 7)
    assert row4.scaled_odd_squared[3] == (-1, F(7, 24))


@pytest.mark.parametrize("stat,field", [("jumps", "jumps"),
                                        ("jumpdist", "jumpdist")])
def test_raw_moments_match_exhaustive_power_sums(stat, field,
                                                 stat_counts_small):
    table = moment_table(stat, max_moment=6, n_max=8)
    for n in range(9):
        row = table.row(n)
        b = catalan(n)
        assert row.count == b
        for r in range(1, 7):
            total = sum(mult * getattr(stats, field) ** r
                        for stats, mult in stat_counts_small[n].items())
            assert row.raw_moment(r) == F(total, b)


def test_central_moments_match_distribution_directly(stat_counts_small):
    for stat in ("jumps", "jumpdist"):
        table = moment_table(stat, max_moment=6, n_max=8)
        for n in range(9):
            values = [(getattr(stats, stat), mult)
                      for stats, mult in stat_counts_small[n].items()]
            b = catalan(n)
            mean = F(sum(v * m for v, m in values), b)
            for r in range(2, 7):
                direct = sum(m * (v - mean) ** r for v, m in values) / b
                assert table.row(n).central_moment(r) == direct, (stat, n, r)


def test_moment_values_are_exact_fractions():
    # a float slipping in through / would fail here
    for row in moment_table("jumpdist", 6, 12).rows:
        values = [*row.raw, *row.central, *row.scaled_even.values(),
                  *(v for _, v in row.scaled_odd_squared.values())]
        assert all(type(v) is Fraction for v in values), row.n
    assert row.scaled_even and row.scaled_odd_squared


def test_moment_table_input_validation():
    with pytest.raises(ValueError):
        moment_table("depth")
    with pytest.raises(ValueError):
        moment_table("jumps", max_moment=0)
    with pytest.raises(ValueError):
        moment_table("jumps", n_max=-1)


@pytest.mark.parametrize("stat", ["jumps", "jumpdist"])
def test_a_moment_order_above_the_cap_is_refused_before_any_work(
        monkeypatch, stat):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("solve_H", "solve_K", "q_log_derivative_power"):
        monkeypatch.setattr(moments, name, never)
    with pytest.raises(ResourceCapError,
                       match=rf"cap of order {MOMENT_CAP}$") as exc:
        moment_table(stat, max_moment=MOMENT_CAP + 1, n_max=5)
    assert (exc.value.cap, exc.value.limit) == (MOMENT_CAP, "moment")
    monkeypatch.undo()
    assert moment_table(stat, max_moment=MOMENT_CAP, n_max=3).max_moment \
        == MOMENT_CAP


def _never(*args, **kwargs):
    raise AssertionError("work started")


def test_refusals_come_before_the_table_cache(monkeypatch):
    # with covering tables cached, a refused request is neither served as
    # a slice (n_max -1 as no rows) nor looked up nor built
    for stat in moments.STATS:
        moment_table(stat, 4, 10)
    infos = {stat: tables.cache_info()
             for stat, tables in moments._TABLES.items()}
    for name in ("_value_rows", "solve_H", "solve_K",
                 "q_log_derivative_power"):
        monkeypatch.setattr(moments, name, _never)
    refused = [(("depth", 4, 5), ValueError,
                r"^unknown statistic 'depth', expected one of ")]
    for stat, series in (("jumps", "H"), ("jumpdist", "K")):
        cap = ORDER_CAPS[series]
        refused += [
            ((stat, 4, -1), ValueError, r"^n_max must be >= 0$"),
            ((stat, 0, 5), ValueError, r"^max_moment must be >= 1$"),
            ((stat, MOMENT_CAP + 1, 5), ResourceCapError,
             rf"^moment at order {MOMENT_CAP + 1} exceeds the cap of "
             rf"order {MOMENT_CAP}$"),
            ((stat, 4, cap + 1), ResourceCapError,
             rf"^series {series} at order {cap + 1} exceeds the cap of "
             rf"order {cap}$")]
    for args, error, message in refused:
        with pytest.raises(error, match=message):
            moment_table(*args)
        assert {stat: tables.cache_info()
                for stat, tables in moments._TABLES.items()} == infos, args


def _texts(table) -> tuple[str, str, str]:
    return (table.to_json_text(), table.to_csv(),
            json.dumps([c.to_json() for c in check_closed_forms(table)]))


_BUILT: dict = {}


def _built_cold(key: tuple[str, int, int]):
    """The table built with every table and solver cache cleared, and its
    JSON, CSV and checks as text."""
    if key not in _BUILT:
        for cache in (*moments._TABLES.values(), *SOLVERS.values()):
            cache.cache_clear()
        table = moment_table(*key)
        _BUILT[key] = table, _texts(table)
    return _BUILT[key]


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_table_cache_serves_what_a_cold_build_returns(data):
    # a table covered by the last one built for its statistic is served
    # as its slice, memoised per key until a miss replaces that table;
    # sizes run past CROSS_CHECK_ORDER
    pool = data.draw(st.lists(st.tuples(
        st.sampled_from(moments.STATS), st.integers(1, 10),
        st.integers(0, CROSS_CHECK_ORDER + 4)), min_size=1, max_size=5))
    keys = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    expected = {key: _built_cold(key) for key in keys}
    for tables in moments._TABLES.values():
        tables.cache_clear()
    top, served = {}, {}
    for key in keys:
        stat, max_moment, n_max = key
        tables = moments._TABLES[stat]
        hits, misses = tables.cache_info()
        hit = stat in top and all(map(le, (max_moment, n_max), top[stat]))
        got = moment_table(*key)
        table, texts = expected[key]
        assert got == table and _texts(got) == texts
        assert tables.cache_info() == (hits + hit, misses + (not hit))
        if key in served:
            assert got is served[key]
        if not hit:
            top[stat] = max_moment, n_max
            served = {k: v for k, v in served.items() if k[0] != stat}
        served[key] = got


@pytest.mark.parametrize("max_moment,n_max", [(0, 3), (5, 3), (4, -1),
                                              (4, 7), (5, 7)])
def test_truncate_refuses_what_the_table_does_not_hold(max_moment, n_max):
    table = moment_table("jumps", 4, 6)
    with pytest.raises(ValueError, match=rf"^cannot cut a table of "
                       rf"max_moment 4 and n_max 6 to {max_moment} and "
                       rf"{n_max}$"):
        table.truncate(max_moment, n_max)
    assert table.truncate(4, 6) == table


def test_jumps_closed_forms_all_pass():
    table = moment_table("jumps", max_moment=8, n_max=30)
    checks = {c.tag: c for c in check_closed_forms(table)}
    assert set(checks) == {"7.1", "7.2", "7.3", "7.4", "7.5"}
    for check in checks.values():
        assert check.passed, check
        assert (check.checked_from, check.checked_to) == (2, 30)


def test_check_only_covers_tabulated_orders():
    table = moment_table("jumps", max_moment=4, n_max=10)
    assert {c.tag for c in check_closed_forms(table)} == {"7.1", "7.2", "7.3"}


def test_jumpdist_closed_forms_sign_clause_fails():
    table = moment_table("jumpdist", max_moment=4, n_max=30)
    checks = {c.tag: c for c in check_closed_forms(table)}
    assert set(checks) == {"8.1", "8.2", "8.3", "8.4"}
    for tag in ("8.1", "8.2", "8.4"):
        assert checks[tag].passed, checks[tag]
    bad = checks["8.3"]
    assert not bad.passed
    # the squared values agree everywhere (n=2 and 3 survive); what breaks
    # is the sign requirement, exactly where it starts applying
    assert bad.first_mismatch_n == 4
    assert bad.detail == "sign -1 where positive is required"


def test_check_reports_value_mismatch_on_corrupted_table():
    table = moment_table("jumps", max_moment=2, n_max=6)
    rows = list(table.rows)
    bad_raw = (rows[5].raw[0] + 1,) + rows[5].raw[1:]
    rows[5] = rows[5]._replace(raw=bad_raw)
    corrupted = table._replace(rows=tuple(rows))
    checks = {c.tag: c for c in check_closed_forms(corrupted)}
    assert not checks["7.1"].passed
    assert checks["7.1"].first_mismatch_n == 5
    assert checks["7.1"].detail.startswith("value 3 != 2")
    # the variance column is untouched
    assert checks["7.2"].passed


def test_check_clamps_start_to_two():
    table = moment_table("jumps", max_moment=2, n_max=5)
    for check in check_closed_forms(table):
        assert check.checked_from == 2
        assert check.passed


def test_csv_layout():
    table = moment_table("jumps", max_moment=4, n_max=3)
    lines = table.to_csv().splitlines()
    assert lines[0] == ("n,b_n,m_1,m_2,m_3,m_4,mu_2,mu_3,mu_4,"
                        "scaled_2,scaled_3_sign,scaled_3_sq,scaled_4")
    assert lines[1] == "0,1,0,0,0,0,0,0,0,,,,"
    assert lines[4] == "3,5,1,7/5,11/5,19/5,2/5,0,2/5,1,0,0,5/2"
    assert len(lines) == 5


def test_json_layout():
    table = moment_table("jumpdist", max_moment=3, n_max=4)
    data = json.loads(table.to_json_text())
    assert data["stat"] == "jumpdist"
    assert data["max_moment"] == 3
    assert data["n_max"] == 4
    assert len(data["rows"]) == 5
    row = data["rows"][3]
    assert row == {
        "n": 3, "b_n": 5,
        "raw": ["6/5", "2", "18/5"],
        "central": ["14/25", "-18/125"],
        "scaled_even": {"2": "1"},
        "scaled_odd_squared": {"3": {"sign": -1, "value": "81/686"}},
        "variance_defined": True,
    }


def test_reference_formula_json_carries_limit():
    by_tag = {ref.tag: ref for ref in REFERENCE_FORMULAS}
    kurt = by_tag["7.3"].to_json()
    assert kurt["theorem"] == "7.3"
    assert kurt["limit"] == {"kind": "finite", "value": "3"}
    assert by_tag["8.1"].to_json()["limit"] == {"kind": "divergent",
                                                "value": None}
    assert by_tag["8.3"].sign_positive_from == 4


def test_moment_row_is_frozen():
    row = moment_table("jumps", max_moment=1, n_max=2).row(2)
    assert isinstance(row, MomentRow)
    with pytest.raises(AttributeError):
        row.count = 9


def test_moment_row_stores_raw_and_central_only():
    assert list(MomentRow._fields) == ["n", "count", "raw", "central"]


def test_scaled_columns_follow_a_replaced_central():
    row = moment_table("jumpdist", max_moment=4, n_max=4).row(4)
    mu2, mu3, mu4 = F(2), F(3), F(-8)
    new = row._replace(central=(mu2, mu3, mu4))
    assert new.scaled_even == {2: F(1), 4: F(-2)}
    assert new.scaled_odd_squared == {3: (1, F(9, 8))}
    assert new.variance_defined
    flat = row._replace(central=(F(0), F(1), F(1)))
    assert not flat.variance_defined
    assert flat.scaled_even == {} and flat.scaled_odd_squared == {}
    assert flat.value("scaled", 4) is None


def test_scaled_values_of_the_wrong_parity_or_order_are_none():
    table = moment_table("jumps", max_moment=4, n_max=6)
    row = table.row(5)
    assert row.value("scaled", 4) is not None
    assert row.value("scaled_squared", 3) is not None
    for r in (-1, 0, 1, 3, 5, 6):
        assert row.value("scaled", r) is None
    for r in (-1, 1, 2, 4, 5):
        assert row.value("scaled_squared", r) is None
    row1 = moment_table("jumps", max_moment=1, n_max=3).row(3)
    assert not row1.variance_defined
    assert row1.value("scaled", 2) is None


_NONZERO = st.fractions().filter(bool)


@given(mu2=_NONZERO.map(abs),
       rest=st.lists(st.one_of(st.just(F(0)), _NONZERO),
                     max_size=MOMENT_CAP - 2))
@example(mu2=F(3, 7), rest=[F(0), F(-5, 2), F(0)])
@settings(max_examples=80, deadline=None)
def test_scaled_columns_match_their_fraction_definition(mu2, rest):
    row = MomentRow(0, 1, (), (mu2, *rest))
    for r, mu in enumerate((mu2, *rest), 2):
        got = row.scaled(r)
        if r % 2 == 0:
            assert got == mu / mu2 ** (r // 2) and type(got) is Fraction
        else:
            sign, value = got
            assert type(sign) is int and sign == (mu > 0) - (mu < 0)
            assert value == mu ** 2 / mu2 ** r and type(value) is Fraction


@pytest.mark.parametrize("a,b", [(1, 0), (-1, 7), (3, -5), (-2, -3)])
def test_shifted_sums_match_the_direct_power_sums(a, b):
    # one column per value list, repeated values and negatives included
    columns = [[], [0], [4, 4, 4], [-3, 1, 1, 2, -3], [5, -7, 0, 0, 11, 2]]
    sums = [[sum(v ** k for v in vs) for vs in columns]
            for k in range(MOMENT_CAP + 1)]
    av = [a * (i + 1) for i in range(len(columns))]
    bv = [b - i for i in range(len(columns))]
    out = moments._shifted_sums(sums, av, bv)
    assert out == [[sum((x * v + y) ** r for v in vs)
                    for x, y, vs in zip(av, bv, columns)]
                   for r in range(MOMENT_CAP + 1)]


@given(rows=st.lists(st.lists(st.integers(), max_size=30), min_size=1,
                     max_size=30),
       r=st.integers(0, MOMENT_CAP))
@example(rows=[[], [7], [-3], [0, -1, 2**70]], r=MOMENT_CAP)
@settings(max_examples=60, deadline=None)
def test_power_sums_match_their_definition(rows, r):
    assert moments._power_sums(rows, r) == [
        [sum(k ** j * a for k, a in enumerate(row)) for row in rows]
        for j in range(r + 1)]


# --- power sums against integer formulas ----------------------------------

def _narayana_counts(n: int) -> dict[int, int]:
    """{k: N(n, k)}: a tree of size n >= 1 has k jumps for
    N(n, k) = C(n, k) C(n, k+1) / n of its shapes, the Narayana numbers.
    The leaf has 0 jumps."""
    if n == 0:
        return {0: 1}
    return {k: comb(n, k) * comb(n, k + 1) // n for k in range(n)}


def _ballot_counts(n: int) -> dict[int, int]:
    """{n - d: b(n, d)}: a tree of size n >= 1 has rightmost depth d, so
    jump distance n - d, for the ballot number
    b(n, d) = d C(2n - d, n) / (2n - d) of its shapes."""
    if n == 0:
        return {0: 1}
    return {n - d: d * comb(2 * n - d, n) // (2 * n - d)
            for d in range(1, n + 1)}


def _narayana_sums(n: int, r_max: int) -> list[int]:
    """sum(k^r * N(n, k)) for r = 0..r_max, with 0^0 = 1."""
    return [sum(v ** r * c for v, c in _narayana_counts(n).items())
            for r in range(r_max + 1)]


def _ballot_sums(n: int, r_max: int) -> list[int]:
    """sum((n - d)^r * b(n, d)) for r = 0..r_max, with 0^0 = 1."""
    return [sum(v ** r * c for v, c in _ballot_counts(n).items())
            for r in range(r_max + 1)]


_FORMULA_SUMS = {"jumps": _narayana_sums, "jumpdist": _ballot_sums}
_FORMULA_COUNTS = {"jumps": _narayana_counts, "jumpdist": _ballot_counts}


def _count_shift_central(counts: dict[int, int], r_max: int) -> list[F]:
    """mu_r for r = 2..r_max as sum(m * (c*v - s_1)^r) / c^(r+1), with c
    the tree count, s_1 the first power sum and m the count of value v:
    the central moments without reducing the mean first."""
    c = sum(counts.values())
    s1 = sum(v * m for v, m in counts.items())
    deviations = [c * v - s1 for v in counts]
    terms = [m * d for m, d in zip(counts.values(), deviations)]
    out = []
    for r in range(2, r_max + 1):
        terms = list(map(mul, terms, deviations))
        out.append(F(sum(terms), c ** (r + 1)))
    return out


def _assert_central_matches_the_count_shift(stat: str, max_moment: int,
                                            n_max: int) -> None:
    table = moment_table(stat, max_moment, n_max)
    for n, row in enumerate(table.rows):
        want = _count_shift_central(_FORMULA_COUNTS[stat](n), max_moment)
        assert list(row.central) == want, n


def _table_power_sums(table) -> list[list[int]]:
    """rows[n][r] = s_r(n), read back from the table as count * m_r."""
    out = []
    for row in table.rows:
        sums = [row.count] + [row.count * m for m in row.raw]
        assert all(s.denominator == 1 for s in sums[1:]), row.n
        out.append([int(s) for s in sums])
    return out


def test_integer_formulas_match_the_enumerated_power_sums(stat_counts_small):
    for stat, formula in _FORMULA_SUMS.items():
        for n in range(9):
            values = Counter()
            for stats, mult in stat_counts_small[n].items():
                values[getattr(stats, stat)] += mult
            assert formula(n, 4) == [sum(m * v ** r for v, m in values.items())
                                     for r in range(5)], (stat, n)


@pytest.mark.parametrize("stat", ["jumps", "jumpdist"])
def test_central_moments_match_the_count_shift_to_n_200(stat):
    # far above the enumerator, which stops at n = 12
    _assert_central_matches_the_count_shift(stat, 10, 200)


@pytest.mark.parametrize("stat", ["jumps", "jumpdist"])
def test_central_shift_multiplies_by_the_reduced_mean_only(monkeypatch,
                                                           stat):
    # the shift scales each value by the denominator of the mean in
    # lowest terms, (n - 1)/2 or n(n - 1)/(n + 2), not by the tree count,
    # so its sums stay small
    multipliers = []
    shifted = moments._shifted_sums

    def spy(sums, a, b):
        multipliers.append(a)
        return shifted(sums, a, b)

    monkeypatch.setattr(moments, "_shifted_sums", spy)
    moment_table(stat, 10, 200)
    assert len(multipliers) == 1
    assert len(multipliers[0]) == 201
    for n, q in enumerate(multipliers[0]):
        assert 1 <= q <= (2 if stat == "jumps" else n + 2), (n, q)


@pytest.mark.parametrize("stat", ["jumps", "jumpdist"])
def test_power_sums_match_the_integer_formulas_to_n_200(stat):
    # far above the cross-check against the two-marker series, which
    # stops at CROSS_CHECK_ORDER
    sums = _table_power_sums(moment_table(stat, max_moment=10, n_max=200))
    for n, row in enumerate(sums):
        assert row == _FORMULA_SUMS[stat](n, 10), n


@pytest.mark.parametrize("stat,solve", [("jumps", solve_H),
                                        ("jumpdist", solve_K)])
@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("max_moment", [1, MOMENT_CAP])
def test_edge_tables_match_the_two_marker_series(stat, solve, n_max,
                                                 max_moment):
    table = moment_table(stat, max_moment=max_moment, n_max=n_max)
    want = q_log_derivative_power(solve(n_max), max_moment)
    assert _table_power_sums(table) == [list(col) for col in zip(*want)]


@pytest.mark.parametrize("stat,solve", [("jumps", solve_H),
                                        ("jumpdist", solve_K)])
def test_value_rows_are_the_q_coefficients_of_the_two_marker_series(
        stat, solve):
    # the whole distribution of each size, not only its first power sums
    assert moments._value_rows(stat, 60) == [
        c.q_coefficients() for c in solve(60).coefficients()]


@pytest.mark.slow
@pytest.mark.parametrize("stat,solve,n_max", [("jumps", solve_H, 200),
                                              ("jumpdist", solve_K, 400)])
def test_power_sums_at_the_caps_match_the_integer_formulas(stat, solve,
                                                           n_max):
    # the worst requests a table admits.  The math.comb oracles state the
    # same closed forms as the value rows; the series solved at the cap
    # do not
    sums = _table_power_sums(moment_table(stat, MOMENT_CAP, n_max))
    for n, row in enumerate(sums):
        assert row == _FORMULA_SUMS[stat](n, MOMENT_CAP), n
    want = q_log_derivative_power(solve(n_max), MOMENT_CAP)
    assert sums == [list(col) for col in zip(*want)]


@pytest.mark.slow
@pytest.mark.parametrize("stat,n_max", [("jumps", 200), ("jumpdist", 400)])
def test_central_moments_at_the_caps_match_the_count_shift(stat, n_max):
    _assert_central_matches_the_count_shift(stat, MOMENT_CAP, n_max)


@pytest.mark.parametrize("stat", ["jumps", "jumpdist"])
def test_a_power_sum_that_disagrees_with_the_two_marker_series_raises(
        monkeypatch, stat):
    solved = q_log_derivative_power

    def off_by_one(series, r):
        sums = solved(series, r)
        sums[3][17] += 1
        return sums

    monkeypatch.setattr(moments, "q_log_derivative_power", off_by_one)
    with pytest.raises(SelfCheckError,
                       match=rf"{stat} power sum s_3 at x\^17 is "):
        moment_table(stat, max_moment=4, n_max=60)


@pytest.mark.parametrize("stat", ["jumps", "jumpdist"])
def test_a_row_that_miscounts_its_trees_raises(monkeypatch, stat):
    # above the cross-check, so only the count check of every row can
    # see it
    bad = CROSS_CHECK_ORDER + 5
    monkeypatch.setattr(moments, "catalan",
                        lambda n: catalan(n) + (n == bad))
    with pytest.raises(SelfCheckError,
                       match=rf"^{stat} value row at x\^{bad} counts "):
        moment_table(stat, max_moment=4, n_max=60)
