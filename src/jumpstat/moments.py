"""Exact moment tables for the jump statistics, and their closed forms.

A table rests on the power sums s_r(n) = sum(k^r * row_n[k]), where
row_n[k] is the number of trees of size n with value k: the x^n
coefficient of the weight series H(x,q) or K(x,q), read as a list of
q-coefficients.  Both rows are classical integer distributions, built
on plain ints (``genfunc._value_rows``, which H and K are packed from):

* Jumps.  row_n[k] is the Narayana number C(n,k) * C(n,k+1) / n for
  k < n (and row_0 = [1], the leaf), so row_n starts at 1 and
  row_n[k+1] = row_n[k] * (n-k-1) * (n-k) / ((k+1) * (k+2)).
* Jump distance.  row_n is row n of Catalan's triangle: row_0 = row_1 =
  [1], and from n = 2 on row_n is the running sum of row_(n-1) + [0].
  A tree of size n >= 1 with rightmost depth d has jump distance n - d,
  and the ballot numbers d * C(2n-d, n) / (2n-d) count those trees.

``moment_table`` checks that every row counts catalan(n) trees, and
compares the sums at small n with ``q_log_derivative_power``, which reads
them off the two-marker series H or K with one decode of each
coefficient.  The power sums come from suffix sums of each row, which
give the binomial moments sum(C(k, i) * row_n[k]) by additions alone,
and the Stirling numbers of the second kind, which turn those into
powers.  One binomial shift, ``_shifted_sums``, turns the power sums
s_k of a value v into those of a*v + b: (a*E + b)^r applied to s_0,
where E shifts s_k to s_(k+1).  With c = s_0 the tree count and
p/q = s_1/c the mean in lowest terms (q is 1 or 2 for jumps and at most
n + 2 for jump distance), it gives the moment about the mean as one
exact quotient of integers, mu_r = sum((q*value - p)^r) / (c * q^r).
The raw moment is m_r = s_r / c.  A row stores only these two;
``MomentRow.scaled`` divides by powers of the variance, even orders as
mu_2k / mu_2^k, odd orders as the pair (sign of mu_r, mu_r^2 / mu_2^r)
so everything stays rational, each built as one quotient of integers.
Where mu_2 = 0 (sizes 0 and 1) the scaled columns are undefined.

``REFERENCE_FORMULAS`` holds the nine closed forms the tables are checked
against, tagged 7.1-7.5 (jumps) and 8.1-8.4 (jump distance).  The odd one
out is 8.3: it is stored squared, together with the paper's claim that
the skewness is positive from n=4 on.  That claim is false: the
numerator of 8.3 factors as 9n(n-2)^2(n+3), so mu_3, a rational
function of n with no pole at n > 2, has no root past n=2 and is
negative at every n >= 3.  The clause is kept only as the paper
tabulates it, so the checker refuses it.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .algebra import Series
from .genfunc import (CROSS_CHECK_ORDER, STATS, ResourceCapError,
                      SelfCheckError, _admit_order, _prefix_cached,
                      _value_rows, solve_H, solve_K)
from .guess import RationalFunctionN
from .trees import catalan

DEFAULT_MAX_MOMENT = 4
DEFAULT_N_MAX = 60

# The largest moment order a table accepts.  It was sized when a table
# solved H or K at n_max: the worst admitted request took about 19 s of
# CPU, inside the 8-27 s band that sized ``genfunc.ORDER_CAPS``.  From
# the value rows, a table to order 24 takes 0.19-0.21 s for jumpdist at
# n_max 400 (0.1 s of it power sums, the rest the shift about the mean
# and the Fractions of its rows) and 0.05-0.06 s for jumps at n_max 200
# (0.02-0.04 s of power sums), in one process on a shared 2-vCPU x86 VM;
# ``moments jumpdist --nmax 400 --max-moment 24 --check`` takes
# 0.37-0.41 s of CPU as a fresh process there.  The cap, and the n caps
# of H and K that a table still obeys, are kept so that every refusal
# reads as before.
MOMENT_CAP = 24


def q_log_derivative_power(series: Series, r: int) -> list[list[int]]:
    """The power sums of a t-free series for every order j = 0..r:
    sums[j][n] = sum(k^j * [q^k x^n]), the value at q = 1 of (q*d/dq)^j
    applied to the x^n coefficient.  Each coefficient is decoded once.

    The input must be free of the t marker (take it out first by
    substitution); anything else is an upstream mistake worth an error.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    rows = []
    for n, c in enumerate(series.coefficients()):
        try:
            rows.append(c.q_coefficients())
        except ValueError:
            raise ValueError(
                f"series still carries the t marker at x^{n}: {c}") from None
    return _power_sums(rows, r)


def _power_sums(rows: list[list[int]], r: int) -> list[list[int]]:
    """sums[j][n] = sum(k^j * rows[n][k]) for j = 0..r, with 0^0 = 1.

    By additions only, each row gives its binomial moments
    b_i = sum(C(k, i) * row[k]): b_i is the (i+1)-th suffix sum of the
    row at index i.  Then k^j = sum(S(j, i) * i! * C(k, i)), with S the
    Stirling numbers of the second kind, turns them into power sums."""
    onto = [[1]]   # onto[j][i] = S(j, i) * i!, the maps of j onto i things
    for _ in range(r):
        prev = onto[-1] + [0]
        onto.append([i * (prev[i] + prev[i - 1]) for i in range(len(prev))])
    binomial = []
    for row in rows:
        tail, b = row[::-1], []   # reversed, so suffix sums are prefix sums
        for _ in range(r + 1):
            tail = list(accumulate(tail))
            b.append(tail.pop() if tail else 0)
        binomial.append(b)
    return [[sum(map(mul, s, b)) for b in binomial] for s in onto]


class MomentRow(NamedTuple):
    n: int
    count: int
    raw: tuple[Fraction, ...]                       # m_1 .. m_R
    central: tuple[Fraction, ...]                   # mu_2 .. mu_R

    def raw_moment(self, r: int) -> Fraction:
        if not 1 <= r <= len(self.raw):
            raise IndexError(f"raw moment {r} not tabulated")
        return self.raw[r - 1]

    def central_moment(self, r: int) -> Fraction:
        if not 2 <= r <= len(self.central) + 1:
            raise IndexError(f"central moment {r} not tabulated")
        return self.central[r - 2]

    @property
    def variance_defined(self) -> bool:
        return bool(self.central) and self.central[0] > 0

    def scaled(self, r: int) -> Fraction | tuple[int, Fraction] | None:
        """mu_r / mu_2^(r/2) for even r, (sign of mu_r, mu_r^2 / mu_2^r)
        for odd r; None where mu_2 is 0 or r is not tabulated."""
        if not (self.variance_defined and 2 <= r <= len(self.central) + 1):
            return None
        c, d = self.central[0].as_integer_ratio()
        a, b = self.central[r - 2].as_integer_ratio()
        if r % 2 == 0:
            return Fraction(a * d ** (r // 2), b * c ** (r // 2))
        return (a > 0) - (a < 0), Fraction(a * a * d ** r, b * b * c ** r)

    @property
    def scaled_even(self) -> dict[int, Fraction]:
        return {r: v for r in range(2, len(self.central) + 2, 2)
                if (v := self.scaled(r)) is not None}

    @property
    def scaled_odd_squared(self) -> dict[int, tuple[int, Fraction]]:
        return {r: v for r in range(3, len(self.central) + 2, 2)
                if (v := self.scaled(r)) is not None}

    def value(self, kind: str, r: int) -> Fraction | None:
        """One moment column by ReferenceFormula kind: "raw", "central",
        "scaled" (even r) or "scaled_squared" (odd r, the squared value
        only).  None where a scaled column is undefined."""
        if kind == "raw":
            return self.raw_moment(r)
        if kind == "central":
            return self.central_moment(r)
        if kind not in ("scaled", "scaled_squared"):
            raise ValueError(f"unknown moment kind {kind!r}")
        got = self.scaled(r) if r % 2 == (kind == "scaled_squared") else None
        return got if kind == "scaled" or got is None else got[1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "b_n": self.count,
            "raw": [str(v) for v in self.raw],
            "central": [str(v) for v in self.central],
            "scaled_even": {str(r): str(v)
                            for r, v in self.scaled_even.items()},
            "scaled_odd_squared": {
                str(r): {"sign": s, "value": str(v)}
                for r, (s, v) in self.scaled_odd_squared.items()},
            "variance_defined": self.variance_defined,
        }


class MomentTable(NamedTuple):
    stat: str
    max_moment: int
    n_max: int
    rows: tuple[MomentRow, ...]   # index == n, 0..n_max

    def row(self, n: int) -> MomentRow:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"row n={n} outside 0..n_max={self.n_max}")
        return self.rows[n]

    def truncate(self, max_moment: int, n_max: int) -> MomentTable:
        """The table at a lower moment order or size: rows 0..n_max, each
        with the moments of order up to max_moment.  No moment depends on
        the order or size it was tabulated to, so this equals the table
        built at (max_moment, n_max)."""
        if not (1 <= max_moment <= self.max_moment
                and 0 <= n_max <= self.n_max):
            raise ValueError(
                f"cannot cut a table of max_moment {self.max_moment} and "
                f"n_max {self.n_max} to {max_moment} and {n_max}")
        rows = tuple(MomentRow(row.n, row.count, row.raw[:max_moment],
                               row.central[:max_moment - 1])
                     for row in self.rows[: n_max + 1])
        return MomentTable(self.stat, max_moment, n_max, rows)

    def to_json(self) -> dict:
        return {"stat": self.stat, "max_moment": self.max_moment,
                "n_max": self.n_max,
                "rows": [row.to_json() for row in self.rows]}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def to_csv(self) -> str:
        """One row per size; exact values as p/q strings, blanks where a
        scaled column is undefined."""
        header = ["n", "b_n"]
        header += [f"m_{r}" for r in range(1, self.max_moment + 1)]
        header += [f"mu_{r}" for r in range(2, self.max_moment + 1)]
        for r in range(2, self.max_moment + 1):
            if r % 2 == 0:
                header.append(f"scaled_{r}")
            else:
                header += [f"scaled_{r}_sign", f"scaled_{r}_sq"]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in self.rows:
            record = [row.n, row.count]
            record += [str(v) for v in row.raw]
            record += [str(v) for v in row.central]
            for r in range(2, self.max_moment + 1):
                v = row.scaled(r)
                if r % 2 == 0:
                    record.append("" if v is None else str(v))
                else:
                    record += ["", ""] if v is None else [v[0], str(v[1])]
            writer.writerow(record)
        return out.getvalue()


def _shifted_sums(sums: list[list[int]], a: list[int],
                  b: list[int]) -> list[list[int]]:
    """out[r][n] = sum((a[n] * v + b[n])^r) for r < len(sums), from the
    power sums sums[k][n] = sum(v^k): (a*E + b)^r applied to sums[0],
    where E shifts sums[k] to sums[k + 1]."""
    out = [sums[0]]
    while len(sums) > 1:
        sums = [[x * e + y * c for x, y, c, e in zip(a, b, lo, hi)]
                for lo, hi in zip(sums, sums[1:])]
        out.append(sums[0])
    return out


def moment_table(stat: str, max_moment: int = DEFAULT_MAX_MOMENT,
                 n_max: int = DEFAULT_N_MAX) -> MomentTable:
    """Exact moments of one statistic for every size 0..n_max.

    The power sums come from the value rows of the module docstring.
    Every row must count catalan(n) trees, and up to
    min(n_max, CROSS_CHECK_ORDER) the sums must equal those of H or K
    solved at that order, packed from the same rows, so theorem 3 or 6
    and the round trip through packing cover those rows; a mismatch
    raises SelfCheckError.  A max_moment above MOMENT_CAP raises
    ResourceCapError, and so does an n_max above H's or K's ``ORDER_CAPS``
    entry, before the table cache counts the call (``_admit_table``).

    Each statistic keeps the last table it built, in the solvers' prefix
    cache (``genfunc._prefix_cached``) keyed by (max_moment, n_max).  A
    request at most that table's max_moment and n_max is a hit, served as
    its ``truncate`` and memoised, so a repeated request returns the same
    object; the table covering it passed both checks over the hit's range.
    Any other request builds afresh and replaces the kept table.
    """
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}, expected one of {STATS}")
    return _TABLES[stat](max_moment, n_max)


def _admit_table(stat: str, max_moment: int, n_max: int) -> None:
    """``moment_table``'s checks of its sizes, run by the table cache."""
    if max_moment < 1:
        raise ValueError("max_moment must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if max_moment > MOMENT_CAP:
        raise ResourceCapError("moment", max_moment, MOMENT_CAP, "moment")
    _admit_order("H" if stat == "jumps" else "K", n_max)


def _build_table(stat: str, max_moment: int, n_max: int) -> MomentTable:
    """``moment_table`` for admitted arguments, without its cache."""
    # sums[r][n] = sum of value^r over the trees of size n
    sums = _power_sums(_value_rows(stat, n_max), max_moment)
    for n, count in enumerate(sums[0]):
        if count != catalan(n):
            raise SelfCheckError(
                f"{stat} value row at x^{n} counts {count} trees, "
                f"catalan({n}) is {catalan(n)}")
    order = min(n_max, CROSS_CHECK_ORDER)
    series = solve_H(order) if stat == "jumps" else solve_K(order)
    for r, want in enumerate(q_log_derivative_power(series, max_moment)):
        for n, (got, expected) in enumerate(zip(sums[r], want)):
            if got != expected:
                raise SelfCheckError(
                    f"{stat} power sum s_{r} at x^{n} is {got}, the "
                    f"two-marker series gives {expected}")

    # with the mean p/q in lowest terms, mu_r = central[r][n] / (count *
    # q^r): central[r][n] sums (q * value - p)^r over the trees of size n
    counts = sums[0]
    means = [Fraction(s1, count) for s1, count in zip(sums[1], counts)]
    central = _shifted_sums(sums, [m.denominator for m in means],
                            [-m.numerator for m in means])
    rows = tuple(
        MomentRow(n, count,
                  (means[n], *(Fraction(s[n], count) for s in sums[2:])),
                  tuple(Fraction(c[n], count * means[n].denominator ** r)
                        for r, c in enumerate(central[2:], 2)))
        for n, count in enumerate(counts))
    return MomentTable(stat, max_moment, n_max, rows)


# statistic -> its table builder behind the prefix cache; ``cache_info()``
# and ``cache_clear()`` as for the solvers
_TABLES = {stat: _prefix_cached(partial(_build_table, stat),
                                partial(_admit_table, stat)) for stat in STATS}


# --- reference closed forms ---------------------------------------------------

class ReferenceFormula(NamedTuple):
    """One tabulated closed form for a moment column.

    kind is "raw", "central", "scaled" (even r, mu_r / mu_2^(r/2)) or
    "scaled_squared" (odd r, the square of the scaled moment).  For
    "scaled_squared", sign_positive_from gives the size from which the
    unsquared quantity must be positive.  Only 8.3 sets it, to 4, as the
    paper tabulates; the jump-distance skewness is in fact negative at
    every n >= 3, so that check fails at n=4.
    """

    tag: str
    stat: str
    kind: str
    r: int
    formula: RationalFunctionN
    sign_positive_from: int | None = None

    def to_json(self) -> dict:
        return {"theorem": self.tag, "stat": self.stat, "kind": self.kind,
                "r": self.r, "formula": self.formula.to_json(),
                "limit": self.formula.limit_at_infinity().to_json()}


REFERENCE_FORMULAS: tuple[ReferenceFormula, ...] = (
    ReferenceFormula("7.1", "jumps", "raw", 1,
                     RationalFunctionN((-1, 1), (2,))),
    ReferenceFormula("7.2", "jumps", "central", 2,
                     RationalFunctionN((-1, 0, 1), (-4, 8))),
    ReferenceFormula("7.3", "jumps", "scaled", 4,
                     RationalFunctionN((3, -2, -11, 6), (3, -2, -3, 2))),
    ReferenceFormula("7.4", "jumps", "scaled", 6,
                     RationalFunctionN((15, -16, -82, -20, 391, -300, 60),
                                       (15, -16, -26, 32, 7, -16, 4))),
    ReferenceFormula("7.5", "jumps", "scaled", 8,
                     RationalFunctionN(
                         (105, -142, -1167, 3178, -6937, 23070, -38933,
                          27006, -7980, 840),
                         (105, -142, -255, 418, 135, -402, 75, 118, -60, 8))),
    ReferenceFormula("8.1", "jumpdist", "raw", 1,
                     RationalFunctionN((0, -1, 1), (2, 1))),
    ReferenceFormula("8.2", "jumpdist", "central", 2,
                     RationalFunctionN((0, -2, -2, 4), (12, 16, 7, 1))),
    ReferenceFormula("8.3", "jumpdist", "scaled_squared", 3,
                     RationalFunctionN((0, 108, -72, -9, 9),
                                       (-32, -48, 46, 30, 4)),
                     sign_positive_from=4),
    ReferenceFormula("8.4", "jumpdist", "scaled", 4,
                     RationalFunctionN((-48, -172, -34, -45, 58, 25),
                                       (0, -40, -58, 60, 34, 4))),
)


class FormulaCheck(NamedTuple):
    """Outcome of comparing one reference formula against a table."""

    tag: str
    passed: bool
    checked_from: int
    checked_to: int
    first_mismatch_n: int | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {"theorem": self.tag, "pass": self.passed,
                "checked_from": self.checked_from,
                "checked_to": self.checked_to,
                "first_mismatch_n": self.first_mismatch_n,
                "detail": self.detail}


def check_closed_forms(table: MomentTable) -> list[FormulaCheck]:
    """Compare every applicable reference formula against the table.

    Applicable means: same statistic, moment order within the table, and
    at least one size in 2..n_max.  Comparison runs over that range and
    is exact; for 8.3 both the squared value (everywhere) and the sign
    (from its threshold on) are required to agree.
    """
    n_from = 2
    checks = []
    for ref in REFERENCE_FORMULAS:
        if (ref.stat != table.stat or ref.r > table.max_moment
                or n_from > table.n_max):
            continue
        mismatch, detail = None, ""
        for n in range(n_from, table.n_max + 1):
            expected = ref.formula.evaluate(n)
            row = table.row(n)
            got = row.value(ref.kind, ref.r)
            if ref.kind != "scaled_squared":
                if got is None or got != expected:
                    detail = f"value {got} != {expected}"
            elif got is None:
                detail = "scaled moment undefined"
            elif got != expected:
                detail = f"squared value {got} != {expected}"
            elif (ref.sign_positive_from is not None
                  and n >= ref.sign_positive_from
                  and (sign := row.scaled(ref.r)[0]) != 1):
                detail = f"sign {sign} where positive is required"
            if detail:
                mismatch = n
                break
        checks.append(FormulaCheck(ref.tag, mismatch is None, n_from,
                                   table.n_max, mismatch, detail))
    return checks
