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
  D_k = (f - 1) * sum(C(k,i) * D_i, i < k).  Jump distance is n - depth,
  so s_r(n) = sum(C(r,k) * n^(r-k) * (-1)^k * [x^n] D_k, k = 0..r).

``moment_table`` checks each of these linear equations exactly, and
compares the sums at small n with ``q_log_derivative_power``, which reads
them off the two-marker series H or K with one decode of each
coefficient.  With c = s_0 the tree count, the raw moment is
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

from .algebra import Series, _digits, _pack, _slot_width
from .genfunc import (ResourceCapError, SelfCheckError, _capped, solve_H,
                      solve_K)
from .guess import RationalFunctionN
from .trees import catalan

DEFAULT_MAX_MOMENT = 4
DEFAULT_N_MAX = 60

# The largest moment order a table accepts.  It was sized when a table
# solved H or K at n_max: the worst admitted request took about 19 s of
# CPU, inside the 8-27 s band that sized ``genfunc.ORDER_CAPS``.  From
# the one-marker series, a table to order 24 took 2.7-4.6 s for jumpdist
# at n_max 400 (0.9-1.4 s of it power sums, most of the rest the central
# moments of its Fraction rows) and 1.1-1.3 s for jumps at n_max 200, on
# a 2-vCPU x86 VM.  The cap, and the n caps of H and K that a table
# still obeys, are kept so that every refusal reads as before.
MOMENT_CAP = 24

# The highest order at which a table's power sums are compared with the
# two-marker series.  Forty covers every table of a paper session (n_max
# 32 at most), so the session reuses the series that its verifications
# solved, and keeps each cold solve at a few hundredths of a second.
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
        if lhs != rhs:
            hit = next(n for n, (a, b) in enumerate(zip(unpacked(lhs),
                                                        unpacked(rhs)))
                       if a != b)
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
    # jumpdist = n - depth: sums[r][n] is (n - E)^r applied to the depth
    # sums d_k = [x^n]D_k, where E shifts d_k to d_(k+1)
    v = [unpacked(d) for d in D]
    sums = [v[0]]
    for _ in range(R):
        v = [[n * c - e for n, (c, e) in enumerate(zip(a, b))]
             for a, b in zip(v, v[1:])]
        sums.append(v[0])
    return sums


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

    rows = []
    for n in range(n_max + 1):
        count, s1 = sums[0][n], sums[1][n]
        m = [Fraction(s[n], count) for s in sums]   # m[0] = 1
        # count^k and (-s1)^j, each power computed once per row
        cpow, spow = [1], [1]
        for _ in range(max_moment + 1):
            cpow.append(cpow[-1] * count)
            spow.append(spow[-1] * -s1)
        central = [
            Fraction(sum(comb(r, k) * cpow[k] * sums[k][n] * spow[r - k]
                         for k in range(r + 1)), cpow[r + 1])
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
