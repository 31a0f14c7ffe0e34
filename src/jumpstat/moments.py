"""Exact moment tables for the jump statistics, and their closed forms.

For a statistic with weight series sum(c_n(q) * x^n), applying the
operator q*d/dq a total of r times multiplies each q^k term by k^r, so
the sum of the coefficient values at x^n is s_r = sum(value^r) over all
trees of size n.  With c = s_0 the tree count, the raw moment is
m_r = s_r / c, and the moment about the mean is one exact quotient of
integers,

    mu_r = sum(binomial(r, k) * c^k * s_k * (-s_1)^(r-k), k=0..r) / c^(r+1),

the sum over trees of (c*value - s_1)^r divided by c^(r+1).

Scaled moments divide by the appropriate power of the variance: even
orders as mu_2k / mu_2^k, odd orders as the pair (sign of mu_r,
mu_r^2 / mu_2^r) so everything stays rational.  Rows where mu_2 = 0
(sizes 0 and 1) mark the scaled columns undefined.

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
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .algebra import Poly2, Series
from .genfunc import ResourceCapError, SelfCheckError, solve_H, solve_K
from .guess import RationalFunctionN
from .trees import catalan

DEFAULT_MAX_MOMENT = 4
DEFAULT_N_MAX = 60

# The largest moment order a table accepts.  On a 2-vCPU x86 VM a table
# to order 24 took 8.7 s of CPU for jumpdist at n_max 400 and 1.7 s for
# jumps at n_max 200 with the series cached; with the solve (12.4 s for
# K, 12.0 s for H) the worst admitted request takes about 21 s, inside
# the band that sized ``genfunc.ORDER_CAPS``.
MOMENT_CAP = 24

STATS = ("jumps", "jumpdist")


def q_log_derivative_power(series: Series, r: int) -> Series:
    """Apply (q * d/dq) to every coefficient r times: each q^k term times k^r.

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
    powers = [k ** r for k in range(max(map(len, rows)))]  # 0^0 = 1
    return Series([Poly2._from_q_coefficients(list(map(mul, row, powers)))
                   for row in rows])


@dataclass(frozen=True)
class MomentRow:
    n: int
    count: int
    raw: tuple[Fraction, ...]                       # m_1 .. m_R
    central: tuple[Fraction, ...]                   # mu_2 .. mu_R
    scaled_even: dict[int, Fraction]                # r -> mu_r / mu_2^(r/2)
    scaled_odd_squared: dict[int, tuple[int, Fraction]]  # r -> (sign, value)
    variance_defined: bool

    def raw_moment(self, r: int) -> Fraction:
        if not 1 <= r <= len(self.raw):
            raise IndexError(f"raw moment {r} not tabulated")
        return self.raw[r - 1]

    def central_moment(self, r: int) -> Fraction:
        if not 2 <= r <= len(self.central) + 1:
            raise IndexError(f"central moment {r} not tabulated")
        return self.central[r - 2]

    def value(self, kind: str, r: int) -> Fraction | None:
        """One moment column by ReferenceFormula kind: "raw", "central",
        "scaled" (even r) or "scaled_squared" (odd r, the squared value
        only).  None where a scaled column is undefined."""
        if kind == "raw":
            return self.raw_moment(r)
        if kind == "central":
            return self.central_moment(r)
        if kind == "scaled":
            return self.scaled_even.get(r)
        if kind == "scaled_squared":
            pair = self.scaled_odd_squared.get(r)
            return None if pair is None else pair[1]
        raise ValueError(f"unknown moment kind {kind!r}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "b_n": self.count,
            "raw": [str(v) for v in self.raw],
            "central": [str(v) for v in self.central],
            "scaled_even": {str(r): str(v)
                            for r, v in sorted(self.scaled_even.items())},
            "scaled_odd_squared": {
                str(r): {"sign": s, "value": str(v)}
                for r, (s, v) in sorted(self.scaled_odd_squared.items())},
            "variance_defined": self.variance_defined,
        }


@dataclass(frozen=True)
class MomentTable:
    stat: str
    max_moment: int
    n_max: int
    rows: tuple[MomentRow, ...]   # index == n, 0..n_max

    def row(self, n: int) -> MomentRow:
        return self.rows[n]

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
                if r % 2 == 0:
                    v = row.scaled_even.get(r)
                    record.append("" if v is None else str(v))
                else:
                    sv = row.scaled_odd_squared.get(r)
                    record += ["", ""] if sv is None else [sv[0], str(sv[1])]
            writer.writerow(record)
        return out.getvalue()


def moment_table(stat: str, max_moment: int = DEFAULT_MAX_MOMENT,
                 n_max: int = DEFAULT_N_MAX) -> MomentTable:
    """Exact moments of one statistic for every size 0..n_max.

    The underlying series is solved at order n_max (and so runs through
    its own closed-form verification); the tree counts it implies are
    additionally cross-checked against the direct binomial formula.  A
    max_moment above MOMENT_CAP raises ResourceCapError, and so does an
    n_max above the series' ``ORDER_CAPS`` entry, before any work.
    """
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}, expected one of {STATS}")
    if max_moment < 1:
        raise ValueError("max_moment must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if max_moment > MOMENT_CAP:
        raise ResourceCapError("moment", max_moment, MOMENT_CAP, "moment")
    series = solve_H(n_max) if stat == "jumps" else solve_K(n_max)

    # sums[r][n] = sum of value^r over the trees of size n
    sums = [[c.substitute("q", 1).constant_value()
             for c in q_log_derivative_power(series, r).coefficients()]
            for r in range(max_moment + 1)]

    rows = []
    for n in range(n_max + 1):
        count, s1 = sums[0][n], sums[1][n]
        if count != catalan(n):
            raise SelfCheckError(
                f"series tree count at x^{n} is {count}, expected {catalan(n)}")
        m = [Fraction(s[n], count) for s in sums]   # m[0] = 1
        central = [
            Fraction(sum(comb(r, k) * count ** k * sums[k][n] * (-s1) ** (r - k)
                         for k in range(r + 1)), count ** (r + 1))
            for r in range(2, max_moment + 1)]
        mu2 = central[0] if central else 0
        scaled_even: dict[int, Fraction] = {}
        scaled_odd: dict[int, tuple[int, Fraction]] = {}
        if mu2 > 0:
            for r in range(2, max_moment + 1):
                mu_r = central[r - 2]
                if r % 2 == 0:
                    scaled_even[r] = mu_r / mu2 ** (r // 2)
                else:
                    sign = (mu_r > 0) - (mu_r < 0)
                    scaled_odd[r] = (sign, mu_r ** 2 / mu2 ** r)
        rows.append(MomentRow(
            n=n, count=count, raw=tuple(m[1:]), central=tuple(central),
            scaled_even=scaled_even, scaled_odd_squared=scaled_odd,
            variance_defined=mu2 > 0))
    return MomentTable(stat=stat, max_moment=max_moment, n_max=n_max,
                       rows=tuple(rows))


# --- reference closed forms ---------------------------------------------------

@dataclass(frozen=True)
class ReferenceFormula:
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


@dataclass(frozen=True)
class FormulaCheck:
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


def check_closed_forms(table: MomentTable, n_from: int = 2) -> list[FormulaCheck]:
    """Compare every applicable reference formula against the table.

    Applicable means: same statistic and moment order within the table.
    Comparison runs over n_from..n_max and is exact; for 8.3 both the
    squared value (everywhere) and the sign (from its threshold on) are
    required to agree.
    """
    n_from = max(n_from, 2)
    checks = []
    for ref in REFERENCE_FORMULAS:
        if ref.stat != table.stat or ref.r > table.max_moment:
            continue
        passed = True
        mismatch = None
        detail = ""
        for n in range(n_from, table.n_max + 1):
            expected = ref.formula.evaluate(n)
            row = table.row(n)
            got = row.value(ref.kind, ref.r)
            if ref.kind == "scaled_squared":
                if got is None:
                    passed, mismatch = False, n
                    detail = "scaled moment undefined"
                    break
                if got != expected:
                    passed, mismatch = False, n
                    detail = f"squared value {got} != {expected}"
                    break
                sign = row.scaled_odd_squared[ref.r][0]
                if (ref.sign_positive_from is not None
                        and n >= ref.sign_positive_from and sign != 1):
                    passed, mismatch = False, n
                    detail = f"sign {sign} where positive is required"
                    break
            else:
                if got is None or got != expected:
                    passed, mismatch = False, n
                    detail = f"value {got} != {expected}"
                    break
        checks.append(FormulaCheck(ref.tag, passed, n_from, table.n_max,
                                   mismatch, detail))
    return checks
