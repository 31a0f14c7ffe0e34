from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from jumpstat import moments
from jumpstat.genfunc import ResourceCapError, solve_H, solve_Jdepth, solve_K
from jumpstat.moments import (MOMENT_CAP, REFERENCE_FORMULAS, MomentRow,
                              check_closed_forms, moment_table,
                              q_log_derivative_power)
from jumpstat.trees import catalan

F = Fraction


def test_q_log_derivative_turns_counts_into_power_sums():
    H = solve_H(6)
    # size 3: jump counts 0, 1, 1, 1, 2 over the five trees
    first = q_log_derivative_power(H, 1)
    assert first.coefficient(3).substitute("q", 1).constant_value() == 5
    second = q_log_derivative_power(H, 2)
    assert second.coefficient(3).substitute("q", 1).constant_value() == 7
    assert q_log_derivative_power(H, 0) == H
    # the leaf's q^0 term vanishes for r > 0 and must not be stored as 0
    assert first.coefficient(0) == 0 and not first.coefficient(0).items()
    K = solve_K(6)
    first_k = q_log_derivative_power(K, 1)
    assert first_k.coefficient(2).substitute("q", 1).constant_value() == 1


@pytest.mark.parametrize("solve", [solve_H, solve_K])
def test_q_log_derivative_powers_compose(solve):
    # (q d/dq)^(a+b) = (q d/dq)^b (q d/dq)^a: k^(a+b) = k^a * k^b per term
    S = solve(8)
    for a in range(4):
        for b in range(4):
            assert q_log_derivative_power(S, a + b) == q_log_derivative_power(
                q_log_derivative_power(S, a), b), (a, b)


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
    rows[5] = dataclasses.replace(rows[5], raw=bad_raw)
    corrupted = dataclasses.replace(table, rows=tuple(rows))
    checks = {c.tag: c for c in check_closed_forms(corrupted)}
    assert not checks["7.1"].passed
    assert checks["7.1"].first_mismatch_n == 5
    assert checks["7.1"].detail.startswith("value 3 != 2")
    # the variance column is untouched
    assert checks["7.2"].passed


def test_check_clamps_start_to_two():
    table = moment_table("jumps", max_moment=2, n_max=5)
    for check in check_closed_forms(table, n_from=0):
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
