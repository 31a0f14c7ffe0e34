"""Exact rational-function fitting over integer sample points.

Given exact values a_i at distinct integers n_i, find polynomials p, q
with p(n_i) = a_i * q(n_i) for all i.  That linear system is homogeneous
in the unknown coefficients, so fitting is a nullspace computation, done
in exact arithmetic.  No floating point anywhere.

``fit_rational`` and the screen of ``guess_rational`` work modulo 61-bit
primes on M = prod(n - n_i) and the interpolant A of the values, built
together in Newton form in one pass over the points.  One routine,
``_euclid_mod_p``, runs the extended Euclidean algorithm of M against A
step by step (von zur Gathen & Gerhard, *Modern Computer Algebra*,
5.7-5.10: Cauchy interpolation); the coprimality check of
``RationalFunctionN`` runs it too.  Off the primes, every polynomial has
integer coefficients; only sample values and values at n are fractions.

* ``fit_rational`` fits one degree pair: the first Euclidean step with
  deg r_j <= deg_num gives the fits mod each prime; the Chinese remainder
  theorem and rational reconstruction lift it to an integer pair, over
  as many primes below 2^61 as it takes.  Nothing is returned on trust.
  Every answer has one of three certificates: a prime with no fit
  (reduction can only lose rank, so there is none over the rationals); a
  lifted candidate that reproduces every point, which proves itself and
  fixes the dimension of the solution space; or a lifted pair that solves
  the linear system while its reduced form misses a point (a pole or a
  cancellation there), which fixes that dimension.  Only finitely many
  primes are unlucky, so one of the three always comes.
* ``guess_rational`` screens its degree pairs first, modulo the prime
  2^61 - 1: the degrees of the Euclidean steps give the nullity mod p of
  the fit matrix at every degree pair at once.  Nullity 0 mod p forces
  full rank over the rationals, so the screen rejects most hopeless
  pairs without big-integer work, and only pairs that the exact fit
  would reject too.  When the pass does not apply (a value's denominator
  or the difference of two sample points is divisible by p) nothing is
  screened.

``guess_rational`` wraps the fit in a degree search (increasing total
degree, smaller denominator degree first) with a mandatory holdout: the
largest sample points take no part in the fit and must be reproduced
exactly before a candidate is accepted.  The first acceptance wins, so
results are deterministic for a given point set.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import _power, _signed_sum

DEFAULT_HOLDOUT = 5
DEFAULT_MAX_TOTAL_DEGREE = 24

_SCREEN_PRIME = (1 << 61) - 1
# the primes below 2^61 in decreasing order, as far as ``_lift_primes``
# has been asked for them in this process
_PRIMES = [_SCREEN_PRIME]


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

def _exact(value, what: str) -> Fraction:
    """``Fraction(value)``, refusing a float: it would be read as its
    binary expansion, 0.1 as 3602879701896397/36028797018963968."""
    if isinstance(value, float):
        raise ValueError(f"{what} is a float, not an exact number: {value!r}")
    return Fraction(value)


def _strip(coeffs: Sequence) -> tuple:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


def _poly_eval(coeffs: Sequence[int], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _primitive(coeffs: list[int]) -> list[int]:
    content = gcd(*coeffs)
    return [c // content for c in coeffs]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^k * a mod b for some k >= 0: each step scales a by lc(b) and
    takes a multiple of b off its leading term (Knuth, TAOCP Vol. 2,
    4.6.1).  b is nonzero."""
    while len(a) >= len(b):
        f, pad = a[-1], [0] * (len(a) - len(b))
        a = [c * b[-1] - f * e for c, e in zip(a[:-1], pad + b)]
        while a and not a[-1]:
            a.pop()
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials that b divides over the integers."""
    quot = []
    while len(a) >= len(b):
        f, pad = a[-1] // b[-1], [0] * (len(a) - len(b))
        quot.append(f)
        a = [c - f * e for c, e in zip(a[:-1], pad + b)]
    return quot[::-1]


class Limit(NamedTuple):
    """Behavior of a rational function of n as n grows without bound."""

    kind: str  # "zero" | "finite" | "divergent"
    value: Fraction | None  # set for zero and finite, None for divergent

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "value": None if self.value is None else str(self.value)}


class RationalFunctionN:
    """A reduced rational function of the integer variable n.

    Stored as integer coefficient tuples, ascending powers.  Construction
    normalizes: denominators are cleared, common polynomial factors are
    divided out, the joint content is reduced to 1, and the denominator's
    leading coefficient is made positive.  Two equal functions therefore
    compare equal as tuples.  A float coefficient is refused.

    All on integers: a prime certifies most pairs coprime; any other
    pair is divided by the gcd from primitive pseudo-remainders, with
    integer quotients by Gauss's lemma.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Sequence, denominator: Sequence):
        num = [_exact(c, "coefficient") for c in numerator]
        den = [_exact(c, "coefficient") for c in denominator]
        scale = lcm(*(c.denominator for c in num + den))
        num, den = ([c.numerator * (scale // c.denominator) for c in _strip(p)]
                    for p in (num, den))
        if not den:
            raise ZeroDivisionError("denominator polynomial is zero")
        if num and not _coprime_mod_p(num, den):
            g, h = _primitive(num), _primitive(den)
            while h:
                g, h = h, _primitive(_pseudo_remainder(g, h))
            num, den = _exact_quotient(num, g), _exact_quotient(den, g)
        content = gcd(*num, *den)
        if den[-1] < 0:
            content = -content
        self.numerator = tuple(c // content for c in num)
        self.denominator = tuple(c // content for c in den)

    def degrees(self) -> tuple[int, int]:
        """(numerator degree, denominator degree); zero numerator is -1."""
        return len(self.numerator) - 1, len(self.denominator) - 1

    def evaluate(self, n: int) -> Fraction:
        den = _poly_eval(self.denominator, n)
        if den == 0:
            raise ZeroDivisionError(f"pole at n={n}")
        return Fraction(_poly_eval(self.numerator, n), den)

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
    return _signed_sum((coeffs[e], _power("n", e))
                       for e in reversed(range(len(coeffs))))


# --- exact fitting modulo primes --------------------------------------------

def _euclid_mod_p(r0: list[int], r1: list[int], p: int
                  ) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (r_j, t_j) for j >= 1 over the extended Euclidean algorithm of
    r0 against r1 mod p, where r_j = s_j r0 + t_j r1, through the first
    zero remainder.  Polynomials are ascending lists without a zero
    leading coefficient (empty for zero); r0 is nonzero and
    deg r0 >= deg r1."""
    t0, t1 = [], [1]
    while True:
        yield r1, t1
        if not r1:
            return
        # divide r0 by r1; each quotient term f * n^shift also takes
        # f * n^shift * t1 off t0, so that t ends as t0 - quot * t1
        r = r0[:]
        d = len(r1) - 1
        t = t0 + [0] * (len(r) - d - 1 + len(t1) - len(t0))
        inv = pow(r1[-1], -1, p)
        while len(r) > d:
            f = r.pop() * inv % p
            shift = len(r) - d
            if f:
                r[shift:] = [(c - f * b) % p for c, b in zip(r[shift:], r1)]
                t[shift:shift + len(t1)] = [
                    (c - f * b) % p for c, b in zip(t[shift:], t1)]
        while r and not r[-1]:
            r.pop()
        r0, r1, t0, t1 = r1, r, t1, t


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """True when two nonzero integer polynomials are certified coprime
    over the rationals by one prime p: p divides neither leading
    coefficient and gcd(a, b) mod p is a constant.  By Gauss's lemma a
    common factor over the rationals is an integer polynomial whose
    leading coefficient divides both, so it would keep its degree mod p.
    False means no certificate, not a common factor."""
    p = _SCREEN_PRIME
    if not a[-1] % p or not b[-1] % p:
        return False
    if len(a) < len(b):
        a, b = b, a
    steps = list(_euclid_mod_p([c % p for c in a], [c % p for c in b], p))
    # the last step's remainder is zero, the one before it is the gcd
    return len(steps[-2][0]) == 1


def _interpolation_mod_p(pts: Sequence[tuple[int, Fraction]], p: int
                         ) -> tuple[list[int], list[int]] | None:
    """M = prod(n - n_i) and the interpolant A of the values, mod p.

    None when a value's denominator is 0 mod p or two sample points are
    congruent mod p: the values then define no interpolant mod p.
    """
    xs = [n % p for n, _ in pts]
    dens = [a.denominator % p for _, a in pts]
    if len(set(xs)) < len(xs) or not all(dens):
        return None
    # Newton form: after each point, M is the product over the points so
    # far and A interpolates them; the value num/den at the next point x
    # adds (num - den*A(x)) / (den*M(x)) times M.  A keeps deg M
    # coefficients (leading zeros too) and M is monic, so one Horner loop
    # evaluates both.
    big_m, interp = [1], []
    for x, num, den in zip(xs, [a.numerator % p for _, a in pts], dens):
        at_x, m_at_x = 0, 1
        for c, b in zip(reversed(interp), reversed(big_m[:-1])):
            at_x = (at_x * x + c) % p
            m_at_x = (m_at_x * x + b) % p
        g = (num - den * at_x) * pow(den * m_at_x, -1, p) % p
        interp = [(c + g * b) % p for c, b in zip([*interp, 0], big_m)]
        big_m = [(lo - x * hi) % p for lo, hi in zip([0, *big_m], [*big_m, 0])]
    while interp and not interp[-1]:
        interp.pop()
    return big_m, interp


def _reconstruction_steps(pts: Sequence[tuple[int, Fraction]]
                          ) -> list[tuple[int, int]] | None:
    """(deg r_j, deg t_j) for j >= 1 over the extended Euclidean algorithm
    of M = prod(n - n_i) against the interpolant A of the values, mod
    2^61 - 1, where r_j = s_j M + t_j A; the final zero remainder has
    degree -1.  None where ``_interpolation_mod_p`` gives None.
    """
    p = _SCREEN_PRIME
    interpolation = _interpolation_mod_p(pts, p)
    if interpolation is None:
        return None
    return [(len(r) - 1, len(t) - 1)
            for r, t in _euclid_mod_p(*interpolation, p)]


def _nullity(deg_r: int, deg_t: int, deg_num: int, deg_den: int) -> int:
    """Dimension of the pairs c * (r, t), for polynomials c, with degrees
    at most (deg_num, deg_den); a zero r (degree -1) puts no bound on
    deg c."""
    room = deg_den - deg_t
    if deg_r >= 0:
        room = min(room, deg_num - deg_r)
    return max(0, room + 1)


def _nullity_mod_p(steps: list[tuple[int, int]], deg_num: int,
                   deg_den: int) -> int:
    """Nullity mod p of the fit matrix at (deg_num, deg_den), read from
    the steps of ``_reconstruction_steps`` over m points, for
    deg_num + deg_den + 2 <= m.

    The fits mod p are the pairs with num = A * den mod M.  Take the first
    step with deg r_j <= deg_num; every such pair is c * (r_j, t_j) for a
    polynomial c (von zur Gathen & Gerhard, Theorem 5.16).
    """
    deg_r, deg_t = next(step for step in steps if step[0] <= deg_num)
    return _nullity(deg_r, deg_t, deg_num, deg_den)


def _rational_reconstruction(residues: list[int], modulus: int
                             ) -> list[int] | None:
    """The rationals a/b = x mod modulus, one per residue x, with |a| and
    b at most sqrt(modulus / 2) (von zur Gathen & Gerhard, 5.10), times
    the lcm of their denominators; None when a residue has no such
    preimage."""
    bound = isqrt(modulus >> 1)
    out = []
    for x in residues:
        r0, r1 = modulus, x
        t0, t1 = 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if abs(t1) > bound:
            return None
        out.append((r1, t1))
    scale = lcm(*(t for _, t in out))
    return [r * (scale // t) for r, t in out]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: these bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lift_primes() -> Iterator[int]:
    """The primes below 2^61 in decreasing order, the screen's prime
    first; each is searched for once per process."""
    k = 0
    while True:
        if k == len(_PRIMES):
            n = _PRIMES[-1] - 2
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[k]
        k += 1


def _first_miss(candidate: RationalFunctionN,
                pts: Sequence[tuple[int, Fraction]]) -> int | None:
    """The first sample point the candidate does not reproduce exactly,
    a pole there included; None when it reproduces them all."""
    for n, a in pts:
        den = _poly_eval(candidate.denominator, n)
        if (den == 0 or _poly_eval(candidate.numerator, n) * a.denominator
                != a.numerator * den):
            return n
    return None


def _clean_points(points: Iterable) -> list[tuple[int, Fraction]]:
    pts: dict[int, Fraction] = {}
    for n, a in points:
        try:
            k = int(n)
        except (OverflowError, ValueError):   # inf, nan
            k = None
        if k != n:
            raise ValueError(f"sample point n={n} is not an integer")
        if k in pts:
            raise ValueError(f"duplicate sample point n={k}")
        pts[k] = _exact(a, f"sample value at n={k}")
    return sorted(pts.items())


def fit_rational(points: Iterable, deg_num: int,
                 deg_den: int) -> RationalFunctionN:
    """Fit one rational function of exactly bounded degrees.

    The fits are the pairs (P, Q) of degrees at most (deg_num, deg_den)
    with P(n_i) = a_i * Q(n_i) at every point.  Raises NoFitError when
    there is none, or when there is one up to a constant factor but its
    reduced form fails to reproduce a point (a pole or a cancellation
    there); AmbiguousFitError when they span more than one dimension.

    Mod a prime p the fits are the multiples c * (r, t) of the first
    Euclidean step with deg r <= deg_num, so the shape (deg r, deg t)
    gives their dimension, the nullity mod p, which is at least the
    exact one.  The primes below 2^61 are taken in decreasing order,
    skipping those where the values have no interpolant:

    * nullity 0 at any prime proves that there is no fit;
    * a prime whose nullity is above the current shape's is skipped, and
      one of another shape and no larger nullity restarts the lift;
    * otherwise (r, t) / lc(t) joins the lift by the Chinese remainder
      theorem, and at 1, 2, 4, 8, ... primes of the shape, rational
      reconstruction proposes a pair over the rationals.  If its reduced
      form rho/tau reproduces every point, then P * tau - Q * rho
      vanishes at more points than its degree for every fit (P, Q), so
      the fits are exactly the multiples of (rho, tau).  Otherwise, if
      the pair itself solves the linear system, its multiples are as
      many independent fits as the nullity mod p, which is then exact.
      A pair that does neither takes another prime.

    This ends.  If there is no fit, every prime that divides neither a
    fixed nonzero maximal minor of the system, nor a value's denominator,
    nor the difference of two points has nullity 0.  If there is one, let
    (R, T) be the first Euclidean step over the rationals with
    deg R <= deg_num, T monic.  A prime that also divides neither a fixed
    nonzero minor of the system's rank, nor a denominator in R and T, nor
    the numerator of R's leading coefficient keeps the rank, so the fits
    mod p are spanned by the images of n^k * (R, T); their first step is
    the image of (R, T), of the same shape, with the least nullity any
    prime can have.  Only finitely many primes are unlucky.  After the
    last one the lift restarts at most once and then gathers images of
    (R, T) alone.  Reconstruction returns (R, T), which solves the
    system, at the first power-of-two count of those primes whose product
    exceeds twice the square of every numerator and denominator in it.
    """
    if deg_num < 0 or deg_den < 0:
        raise ValueError("degrees must be >= 0")
    pts = _clean_points(points)
    u = deg_num + deg_den + 2
    if len(pts) < u:
        raise ValueError(
            f"need at least {u} points for degrees ({deg_num}, {deg_den}), "
            f"got {len(pts)}")
    shape = None
    for p in _lift_primes():
        interpolation = _interpolation_mod_p(pts, p)
        if interpolation is None:
            continue
        r, t = next(step for step in _euclid_mod_p(*interpolation, p)
                    if len(step[0]) - 1 <= deg_num)
        nullity = _nullity(len(r) - 1, len(t) - 1, deg_num, deg_den)
        if nullity == 0:
            raise NoFitError(f"no fit at degrees ({deg_num}, {deg_den})")
        if shape != (len(r), len(t)):
            if shape is not None and nullity > shape_nullity:
                continue
            shape, shape_nullity = (len(r), len(t)), nullity
            modulus, count, lifted = 1, 0, [0] * (len(r) + len(t))
        inv, inv_modulus = pow(t[-1], -1, p), pow(modulus, -1, p)
        lifted = [x + modulus * ((y * inv - x) * inv_modulus % p)
                  for x, y in zip(lifted, r + t)]
        modulus *= p
        count += 1
        if count & (count - 1):
            continue
        coeffs = _rational_reconstruction(lifted, modulus)
        if coeffs is None:
            continue
        num, den = coeffs[:len(r)], coeffs[len(r):]
        candidate = RationalFunctionN(num, den)
        miss = _first_miss(candidate, pts)
        if miss is None:
            nullity = _nullity(*candidate.degrees(), deg_num, deg_den)
        else:
            # a pair that solves the linear system makes the nullity mod p
            # exact
            if any(_poly_eval(num, n) * a.denominator
                   != a.numerator * _poly_eval(den, n) for n, a in pts):
                continue
        if nullity > 1:
            raise AmbiguousFitError(f"{nullity} independent fits at "
                                    f"degrees ({deg_num}, {deg_den})")
        if miss is not None:
            raise NoFitError(
                f"candidate fails to reproduce the point n={miss}")
        return candidate


class GuessResult(NamedTuple):
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
            if steps is not None and _nullity_mod_p(steps, deg_num,
                                                    deg_den) == 0:
                continue
            try:
                candidate = fit_rational(fit_pts, deg_num, deg_den)
            except FitError:
                continue
            if _first_miss(candidate, held) is None:
                return GuessResult(candidate, candidate.degrees(),
                                   len(fit_pts), len(held))
    raise GuessError(
        f"no rational function up to total degree {max_total_degree} "
        f"fits the data and the {len(held)}-point holdout",
        attempted)
