"""Exact rational-function fitting over integer sample points.

Given exact values a_i at distinct integers n_i, find polynomials p, q
with p(n_i) = a_i * q(n_i) for all i.  That linear system is homogeneous
in the unknown coefficients, so fitting is a nullspace computation, done
in exact arithmetic:

* a fraction-free (Bareiss) elimination over the integers finds the rank
  and an echelon form; nullspace vectors come from back-substitution over
  Fractions.  No floating point anywhere.
* before eliminating, the points are screened modulo the prime 2^61 - 1
  by rational reconstruction (von zur Gathen & Gerhard, *Modern Computer
  Algebra*, 5.7-5.9): one extended Euclidean pass of prod(n - n_i)
  against the interpolant of the values gives the nullity mod p of the
  fit matrix at every degree pair at once.  Nullity 0 mod p forces full
  rank over the rationals (reduction can only lose rank), so most
  hopeless degree pairs are rejected without big-integer work.  The
  screen can only reject, never accept; every returned fit comes from the
  exact elimination and is re-verified against every input point.  When
  the pass does not apply (a value's denominator or the difference of two
  sample points is divisible by p) nothing is screened.

``guess_rational`` wraps the fit in a degree search (increasing total
degree, smaller denominator degree first) with a mandatory holdout: the
largest sample points take no part in the fit and must be reproduced
exactly before a candidate is accepted.  The first acceptance wins, so
results are deterministic for a given point set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

DEFAULT_HOLDOUT = 5
DEFAULT_MAX_TOTAL_DEGREE = 24

_SCREEN_PRIME = (1 << 61) - 1


class FitError(Exception):
    """Base for fit failures at a fixed degree pair."""


class NoFitError(FitError):
    """No rational function of the requested degrees passes through the
    points."""


class AmbiguousFitError(FitError):
    """More than one reduced rational function fits: degrees too high for
    the number of points."""


class GuessError(Exception):
    """Degree search exhausted without an accepted candidate."""

    def __init__(self, message: str, attempted: list[tuple[int, int]]):
        super().__init__(message)
        self.attempted = attempted


# --- small exact polynomial helpers (coefficients ascending in n) -----------

def _strip(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


def _poly_eval(coeffs: Sequence, n) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * n + c
    return Fraction(acc)


def _poly_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    a = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = Fraction(a[-1]) / lead
        quot[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return _strip(quot), _strip(a)


def _poly_gcd(a: tuple, b: tuple) -> tuple:
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


@dataclass(frozen=True)
class Limit:
    """Behavior of a rational function of n as n grows without bound."""

    kind: str  # "zero" | "finite" | "divergent"
    value: Fraction | None  # set for zero and finite, None for divergent

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "value": None if self.value is None else str(self.value)}


class RationalFunctionN:
    """A reduced rational function of the integer variable n.

    Stored as integer coefficient tuples, ascending powers.  Construction
    normalizes: common polynomial factors are divided out, denominators
    are cleared, the joint content is reduced to 1, and the denominator's
    leading coefficient is made positive.  Two equal functions therefore
    compare equal as tuples.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Sequence, denominator: Sequence):
        num = _strip([Fraction(c) for c in numerator])
        den = _strip([Fraction(c) for c in denominator])
        if not den:
            raise ZeroDivisionError("denominator polynomial is zero")
        if num:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num = _poly_divmod(num, g)[0]
                den = _poly_divmod(den, g)[0]
        scale = 1
        for c in (*num, *den):
            scale = scale * c.denominator // gcd(scale, c.denominator)
        inum = [int(c * scale) for c in num]
        iden = [int(c * scale) for c in den]
        content = 0
        for c in (*inum, *iden):
            content = gcd(content, c)
        if iden[-1] < 0:
            content = -content
        self.numerator = tuple(c // content for c in inum)
        self.denominator = tuple(c // content for c in iden)

    def degrees(self) -> tuple[int, int]:
        """(numerator degree, denominator degree); zero numerator is -1."""
        return len(self.numerator) - 1, len(self.denominator) - 1

    def evaluate(self, n: int) -> Fraction:
        den = _poly_eval(self.denominator, n)
        if den == 0:
            raise ZeroDivisionError(f"pole at n={n}")
        return _poly_eval(self.numerator, n) / den

    def limit_at_infinity(self) -> Limit:
        """Three-way limit as n -> infinity."""
        dn, dd = self.degrees()
        if dn < dd:
            return Limit("zero", Fraction(0))
        if dn == dd:
            return Limit("finite",
                         Fraction(self.numerator[-1], self.denominator[-1]))
        return Limit("divergent", None)

    def render(self) -> str:
        num = _render_poly(self.numerator)
        den = _render_poly(self.denominator)
        if den == "1":
            return num
        if len(self.numerator) > 1:
            num = f"({num})"
        if len(self.denominator) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def to_json(self) -> dict:
        return {"numerator": list(self.numerator),
                "denominator": list(self.denominator),
                "text": self.render()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunctionN):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        return f"RationalFunctionN({self.render()!r})"


def _render_poly(coeffs: Sequence[int]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "n" if e == 1 else f"n^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# --- exact nullspace ---------------------------------------------------------

def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (matrix, pivot columns).

    Entries stay integers: the Bareiss two-step condensation divides each
    update exactly by the previous pivot.
    """
    mat = [row[:] for row in rows]
    m = len(mat)
    u = len(mat[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(u):
        pr = next((i for i in range(r, m) if mat[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, m):
            row_i = mat[i]
            mic = row_i[c]
            row_r = mat[r]
            for j in range(c + 1, u):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat, pivots


def _nullspace(rows: list[list[int]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of an integer matrix."""
    mat, pivots = _bareiss_echelon(rows)
    u = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(u) if c not in pivot_set):
        v = [Fraction(0)] * u
        v[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = mat[r]
            s = Fraction(0)
            for j in range(pc + 1, u):
                if v[j]:
                    s += row[j] * v[j]
            v[pc] = -s / row[pc]
        basis.append(v)
    return basis


def _fit_rows(pts: Sequence[tuple[int, Fraction]], deg_num: int,
              deg_den: int) -> list[list[int]]:
    """Integer matrix of p(n_i) * den(a_i) - q(n_i) * num(a_i) = 0 in the
    coefficients of p (degree <= deg_num) then q (degree <= deg_den)."""
    rows = []
    for n, a in pts:
        powers = [n ** j for j in range(max(deg_num, deg_den) + 1)]
        row = [a.denominator * powers[j] for j in range(deg_num + 1)]
        row += [-a.numerator * powers[j] for j in range(deg_den + 1)]
        rows.append(row)
    return rows


def _rem_mod_p(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b mod p; both ascending and without a zero
    leading coefficient, and so is the result (empty for zero)."""
    p = _SCREEN_PRIME
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) > db:
        f = a.pop() * inv % p
        if f:
            shift = len(a) - db
            for i in range(db):
                a[shift + i] = (a[shift + i] - f * b[i]) % p
    while a and not a[-1]:
        a.pop()
    return a


def _reconstruction_steps(pts: Sequence[tuple[int, Fraction]]
                          ) -> list[tuple[int, int]] | None:
    """(deg r_j, deg t_j) for j >= 1 over the extended Euclidean algorithm
    of M = prod(n - n_i) against the interpolant A of the values, mod p,
    where r_j = s_j M + t_j A; the final zero remainder has degree -1.

    None when a value's denominator is 0 mod p or two sample points are
    congruent mod p: the values then define no interpolant mod p.
    """
    p = _SCREEN_PRIME
    xs = [n % p for n, _ in pts]
    if len(set(xs)) < len(xs) or any(a.denominator % p == 0 for _, a in pts):
        return None
    m = len(xs)
    big_m = [1]
    for x in xs:
        big_m = [(lo - x * hi) % p for lo, hi in zip([0, *big_m], [*big_m, 0])]
    # Lagrange: A = sum of y_i * Q_i / Q_i(x_i), with Q_i = M / (n - x_i)
    interp = [0] * m
    for (_, a), x in zip(pts, xs):
        y = a.numerator * pow(a.denominator, -1, p) % p
        if not y:
            continue
        quot = [0] * m
        acc = 0
        for k in range(m, 0, -1):
            acc = (big_m[k] + x * acc) % p
            quot[k - 1] = acc
        at_x = 0
        for c in reversed(quot):
            at_x = (at_x * x + c) % p
        scale = y * pow(at_x, -1, p) % p
        interp = [(c + scale * q) % p for c, q in zip(interp, quot)]
    while interp and not interp[-1]:
        interp.pop()
    # deg t_j = deg M - deg r_(j-1) (von zur Gathen & Gerhard, Lemma 3.10)
    steps = []
    r0, r1 = big_m, interp
    while r1:
        steps.append((len(r1) - 1, m - (len(r0) - 1)))
        r0, r1 = r1, _rem_mod_p(r0, r1)
    steps.append((-1, m - (len(r0) - 1)))
    return steps


def _nullity_mod_p(steps: list[tuple[int, int]], deg_num: int,
                   deg_den: int) -> int:
    """Nullity mod p of the fit matrix at (deg_num, deg_den), read from
    the steps of ``_reconstruction_steps`` over m points, for
    deg_num + deg_den + 2 <= m.

    The fits mod p are the pairs with num = A * den mod M.  Take the first
    step with deg r_j <= deg_num; every such pair is c * (r_j, t_j) for a
    polynomial c (von zur Gathen & Gerhard, Theorem 5.16), so the fits
    form a space of dimension min(deg_num - deg r_j, deg_den - deg t_j) + 1.
    """
    deg_r, deg_t = next(step for step in steps if step[0] <= deg_num)
    room = deg_den - deg_t
    if deg_r >= 0:  # a zero r_j puts no bound on deg c
        room = min(room, deg_num - deg_r)
    return max(0, room + 1)


def _clean_points(points: Iterable) -> list[tuple[int, Fraction]]:
    pts = []
    seen = set()
    for n, a in points:
        if n in seen:
            raise ValueError(f"duplicate sample point n={n}")
        seen.add(n)
        pts.append((int(n), Fraction(a)))
    pts.sort()
    return pts


def fit_rational(points: Iterable, deg_num: int,
                 deg_den: int) -> RationalFunctionN:
    """Fit one rational function of exactly bounded degrees.

    Raises NoFitError when the nullspace is trivial (or a candidate fails
    to reproduce a point), AmbiguousFitError when the solution space has
    dimension above one.  A unique candidate is re-verified against every
    input point before being returned.
    """
    if deg_num < 0 or deg_den < 0:
        raise ValueError("degrees must be >= 0")
    pts = _clean_points(points)
    u = deg_num + deg_den + 2
    if len(pts) < u:
        raise ValueError(
            f"need at least {u} points for degrees ({deg_num}, {deg_den}), "
            f"got {len(pts)}")
    steps = _reconstruction_steps(pts)
    if steps is not None and _nullity_mod_p(steps, deg_num, deg_den) == 0:
        raise NoFitError(f"no fit at degrees ({deg_num}, {deg_den})")
    basis = _nullspace(_fit_rows(pts, deg_num, deg_den))
    if not basis:
        raise NoFitError(f"no fit at degrees ({deg_num}, {deg_den})")
    if len(basis) > 1:
        raise AmbiguousFitError(
            f"{len(basis)} independent fits at degrees ({deg_num}, {deg_den})")
    vec = basis[0]
    num = vec[: deg_num + 1]
    den = vec[deg_num + 1:]
    if not _strip(den):
        raise NoFitError("solution has a zero denominator polynomial")
    candidate = RationalFunctionN(num, den)
    for n, a in pts:
        if _poly_eval(candidate.denominator, n) == 0 or candidate.evaluate(n) != a:
            raise NoFitError(
                f"candidate fails to reproduce the point n={n}")
    return candidate


@dataclass(frozen=True)
class GuessResult:
    formula: RationalFunctionN
    degrees: tuple[int, int]
    fit_points: int
    holdout_points: int

    def to_json(self) -> dict:
        return {"formula": self.formula.to_json(),
                "degrees": list(self.degrees),
                "fit_points": self.fit_points,
                "holdout_points": self.holdout_points,
                "limit": self.formula.limit_at_infinity().to_json()}


def guess_rational(points: Iterable, *, holdout: int = DEFAULT_HOLDOUT,
                   max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE
                   ) -> GuessResult:
    """Search degrees for a rational function matching the points.

    The ``holdout`` largest points never enter a fit; a candidate must
    reproduce all of them exactly (poles included) or the search moves
    on.  Degree pairs are tried in increasing total degree, and within a
    total in increasing denominator degree.  The first acceptance wins.
    One mod-p reconstruction pass over the fit points screens every pair;
    only the pairs it cannot reject reach ``fit_rational``.
    """
    if holdout < 1:
        raise ValueError("holdout must be >= 1: unvalidated fits are guesses")
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    pts = _clean_points(points)
    if len(pts) <= holdout + 1:
        raise ValueError(
            f"{len(pts)} points cannot support a fit with holdout {holdout}")
    fit_pts = pts[:-holdout]
    held = pts[-holdout:]
    attempted: list[tuple[int, int]] = []
    steps = _reconstruction_steps(fit_pts)
    # a pair of total degree D is fitted only from D + 2 or more points
    for total in range(min(max_total_degree, len(fit_pts) - 2) + 1):
        for deg_den in range(total + 1):
            deg_num = total - deg_den
            attempted.append((deg_num, deg_den))
            # the screen fit_rational would make, read from the one pass
            if steps is not None and _nullity_mod_p(steps, deg_num,
                                                    deg_den) == 0:
                continue
            try:
                candidate = fit_rational(fit_pts, deg_num, deg_den)
            except FitError:
                continue
            try:
                if all(candidate.evaluate(n) == a for n, a in held):
                    return GuessResult(candidate, candidate.degrees(),
                                       len(fit_pts), len(held))
            except ZeroDivisionError:
                continue
    raise GuessError(
        f"no rational function up to total degree {max_total_degree} "
        f"fits the data and the {len(held)}-point holdout",
        attempted)
