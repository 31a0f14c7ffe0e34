"""Exact moment tables for the jump statistics, and their closed forms.

A table rests on the power sums s_r(n) = sum(value^r) over the trees of
size n.  For a weight series sum(c_n(q) * x^n), with [q^k] c_n the
number of trees of size n with value k, s_r(n) is the value at q = 1 of
(q*d/dq)^r c_n.  Differentiating the marker equation at marker = 1
(Flajolet & Sedgewick, *Analytic Combinatorics*, Section III.2) turns
these into one-marker integer series in x, solved order by order in r:

* Jumps.  H = 1 + x*H + q*x*(H - 1)*H, and T_r = sum(s_r(n) * x^n).
  With T_0 = f, the tree counter, and P_j = sum(C(j,i) * T_i * T_(j-i)),

      T_r = x * (sum(C(r,j) * (P_j - T_j), j < r)
                 + sum(C(r,i) * T_i * T_(r-i), 0 < i < r) + 2f * T_r),

  linear in T_r.  As 1 - 2x*f = sqrt(1 - 4x), T_r is the first two sums
  of the bracket times x * sum(C(2n,n) * x^n) = x / sqrt(1 - 4x).
* Jump distance.  The depth series J = 1 + x*t*f*J gives the depth power
  sums D_0 = f and D_k = x*f*(sum(C(k,i) * D_i, i < k) + D_k), that is
  D_k = (f - 1) * sum(C(k,i) * D_i, i < k).  Jump distance is n - depth.

``moment_table`` checks each of these linear equations exactly, and
compares the sums at small n with ``q_log_derivative_power``, which reads
them off the two-marker series H or K with one decode of each
coefficient.  One binomial shift, ``_shifted_sums``, turns the power sums
s_k of a value v into those of a*v + b: (a*E + b)^r applied to s_0, where
E shifts s_k to s_(k+1).  It gives jump distance as n - depth, and with
c = s_0 the tree count, the moment about the mean as one exact quotient
of integers, mu_r = sum((c*value - s_1)^r) / c^(r+1).  The raw moment is
m_r = s_r / c.  A row stores only these two; ``MomentRow.scaled`` divides
by powers of the variance, even orders as mu_2k / mu_2^k, odd orders as
the pair (sign of mu_r, mu_r^2 / mu_2^r) so everything stays rational.
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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from operator import mul

from .algebra import Series, _digits, _pack, _slot_width
from .genfunc import (ResourceCapError, SelfCheckError, _capped,
                      _prefix_cached, solve_H, solve_K)
from .guess import RationalFunctionN
from .trees import catalan

DEFAULT_MAX_MOMENT = 4
DEFAULT_N_MAX = 60

# The largest moment order a table accepts.  It was sized when a table
# solved H or K at n_max: the worst admitted request took about 19 s of
# CPU, inside the 8-27 s band that sized ``genfunc.ORDER_CAPS``.  From
# the one-marker series, a table to order 24 took 1.7-3.3 s for jumpdist
# at n_max 400 (1.0-1.9 s of it power sums, most of the rest the Fraction
# reduction of its rows) and 0.75-1.3 s for jumps at n_max 200, on a
# shared 2-vCPU x86 VM.  The cap, and the n caps of H and K that a table
# still obeys, are kept so that every refusal reads as before.
MOMENT_CAP = 24

# The highest order at which a table's power sums are compared with the
# two-marker series.  Forty covers every table of a paper session (n_max
# 32 at most) and keeps each cold solve at a few hundredths of a second.
# A paper session ends with 2 misses of ``solve_H`` and 1 of ``solve_K``:
# its two tables read the order-32 series its identities solved, and its
# re-guess tables, at moment orders up to 8 and n_max 32, 29 and 26, are
# slices of those two tables, so they reach no solver.
CROSS_CHECK_ORDER = 40

STATS = ("jumps", "jumpdist")


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
    ks = range(max(map(len, rows)))
    powers = [1] * len(ks)   # k^j, with 0^0 = 1
    sums = []
    for _ in range(r + 1):
        sums.append([sum(map(mul, row, powers)) for row in rows])
        powers = list(map(mul, powers, ks))
    return sums


@dataclass(frozen=True)
class MomentRow:
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
        mu2, mu = self.central[0], self.central[r - 2]
        if r % 2 == 0:
            return mu / mu2 ** (r // 2)
        return (mu > 0) - (mu < 0), mu ** 2 / mu2 ** r

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


@dataclass(frozen=True)
class MomentTable:
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


def _one_marker_sums(stat: str, max_moment: int, n_max: int) -> list[list[int]]:
    """sums[r][n] for r <= max_moment and n <= n_max, from the one-marker
    recurrences of the module docstring.

    Every series is nonnegative and packed into one int, slot n holding
    [x^n], in one slot width for the table.  That width holds
    catalan(n_max + 1) * (n_max + 1)^max_moment, a bound on every
    coefficient at x^0..x^n_max of every product, sum and multiple below
    (each is at most [x^(n + 1)] of some T_r or D_k), so a product is one
    bignum multiply cut to n_max + 1 slots by a mask: what spills past
    the mask never reaches a slot below it.  Each linear equation is
    checked exactly on the packed ints.
    """
    R, N = max_moment, n_max
    w = _slot_width((catalan(N + 1) * (N + 1) ** R).bit_length())
    mask = (1 << (w * (N + 1))) - 1
    binomials = [[comb(r, i) for i in range(r + 1)] for r in range(R + 1)]
    f = _pack([catalan(n) for n in range(N + 1)], w)

    def unpacked(v: int) -> list[int]:
        digits = _digits(v, w)
        return digits + [0] * (N + 1 - len(digits))

    def check(lhs: int, rhs: int, what: str) -> None:
        # slots are nonnegative and below 2^(w-1), so the lowest set bit
        # of the difference lies in the first slot where the sides differ
        if lhs != rhs:
            d = lhs - rhs
            hit = ((d & -d).bit_length() - 1) // w
            raise SelfCheckError(
                f"{stat} moment series {what} failed its equation at x^{hit}")

    if stat == "jumps":
        central = _pack([comb(2 * n, n) for n in range(N + 1)], w)
        T = [f]
        gaps = [(f * f & mask) - f]     # P_j - T_j, all nonnegative
        for r in range(1, R + 1):
            row = binomials[r]
            # Q_r = sum C(r,i) T_i T_(r-i) over 0 < i < r, each pair once
            q = 2 * sum(row[i] * (T[i] * T[r - i] & mask)
                        for i in range(1, (r + 1) // 2))
            if r % 2 == 0:
                q += row[r // 2] * (T[r // 2] * T[r // 2] & mask)
            bracket = sum(map(mul, row, gaps)) + q
            t = (central * bracket << w) & mask
            ft = f * t & mask
            check(t, (bracket + 2 * ft << w) & mask, f"T_{r}")
            T.append(t)
            gaps.append(q + 2 * ft - t)
        return [unpacked(t) for t in T]

    D = [f]
    for k in range(1, R + 1):
        below = sum(map(mul, binomials[k], D))
        d = (f - 1) * below & mask
        check(d, (f * (below + d) << w) & mask, f"D_{k}")
        D.append(d)
    # jumpdist = n - depth
    return _shifted_sums([unpacked(d) for d in D], [-1] * (N + 1),
                         list(range(N + 1)))


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

    The power sums come from the one-marker series of the module
    docstring, each checked against its linear equation.  Up to
    min(n_max, CROSS_CHECK_ORDER) they are also compared with the
    two-marker series H or K solved at that order, which verifies its
    own closed form; a mismatch raises SelfCheckError.  A max_moment
    above MOMENT_CAP raises ResourceCapError, and so does an n_max
    above H's or K's ``ORDER_CAPS`` entry, before any work.

    Each statistic keeps the last table it built, in the solvers' prefix
    cache (``genfunc._prefix_cached``) keyed by (max_moment, n_max).  A
    request at most that table's max_moment and n_max is a hit, served as
    its ``truncate`` and memoised, so a repeated request returns the same
    object; the table covering it passed both checks over the hit's range.
    Any other request builds afresh and replaces the kept table.
    """
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}, expected one of {STATS}")
    if max_moment < 1:
        raise ValueError("max_moment must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if max_moment > MOMENT_CAP:
        raise ResourceCapError("moment", max_moment, MOMENT_CAP, "moment")
    _capped("H" if stat == "jumps" else "K", n_max)
    return _TABLES[stat](max_moment, n_max)


def _build_table(stat: str, max_moment: int, n_max: int) -> MomentTable:
    """``moment_table`` for admitted arguments, without its cache."""
    # sums[r][n] = sum of value^r over the trees of size n
    sums = _one_marker_sums(stat, max_moment, n_max)
    order = min(n_max, CROSS_CHECK_ORDER)
    series = solve_H(order) if stat == "jumps" else solve_K(order)
    for r, want in enumerate(q_log_derivative_power(series, max_moment)):
        for n, (got, expected) in enumerate(zip(sums[r], want)):
            if got != expected:
                raise SelfCheckError(
                    f"{stat} power sum s_{r} at x^{n} is {got}, the "
                    f"two-marker series gives {expected}")

    # mu_r = central[r][n] / count^(r+1): central[r][n] sums
    # (count * value - s_1)^r over the trees of size n
    counts = sums[0]
    central = _shifted_sums(sums, counts, [-s1 for s1 in sums[1]])
    rows = tuple(
        MomentRow(n, count, tuple(Fraction(s[n], count) for s in sums[1:]),
                  tuple(Fraction(c[n], count ** (r + 1))
                        for r, c in enumerate(central[2:], 2)))
        for n, count in enumerate(counts))
    return MomentTable(stat, max_moment, n_max, rows)


# statistic -> its table builder behind the prefix cache; ``cache_info()``
# and ``cache_clear()`` as for the solvers
_TABLES = {stat: _prefix_cached(partial(_build_table, stat)) for stat in STATS}


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
