"""Series solvers for the jump statistics, with verification.

Five series are produced, all as truncated power series in x with exact
polynomial coefficients in the markers t (rightmost-leaf depth) and q:

* ``solve_catalan`` — f, the plain tree counter (no markers).
* ``solve_F``       — F, trees weighted t^depth * q^jumps.
* ``solve_H``       — H = F at t=1, trees weighted q^jumps.
* ``solve_Jdepth``  — J, trees weighted t^depth (jumps ignored).
* ``solve_K``       — K, trees weighted q^jumpdist.

The paper's equation for F has F(x,0,q) = 1, since only the leaf has
rightmost-leaf depth 0.  Substituting that splits it in two: H solves
the one-marker quadratic H = 1 + xH + qx(H-1)H, the shape of f = 1 + xf^2,
and F = 1/(1 - xt*G) with G = 1 + q(H-1) is built from H exactly as
J = 1/(1 - xt*f) is built from f.

Each series satisfies an algebraic identity with a square-root term.  The
verifiers never divide by marker-bearing denominators: every identity is
cross-multiplied into the form (polynomial)*series + (polynomial + radical)
= 0 and checked coefficient by coefficient, which is exact at any order.

``verify_theorem`` runs the identity for one of the ids 0..6 and returns a
machine-readable Verdict.  Ids 3, 5 and 6 report the self-checks of the
solvers for H, J and K, which check their identity once per solve and
raise SelfCheckError on failure, so a corrupted series can never leak
into the moment pipeline.

Verdict ids:

* 0 — f: fixed point f = 1 + x*f^2 and radical 2x*f - 1 + sqrt(1-4x) = 0.
* 1 — F equals the exhaustive enumerator up to the oracle cap.
* 2 — F: cross-multiplied closed form (with radical), including the check
      that the printed radicand equals t^2 * (the t-free inner radicand).
* 3 — H: cross-multiplied closed form 2qx*H + (-qx + R + x - 1) = 0 where
      R = sqrt(q^2x^2 - 2qx^2 - 2qx + x^2 - 2x + 1).
* 4 — J: functional equation J = 1 + x*t*J(x,1)*J(x,t).
* 5 — J: cross-multiplied closed form (t*sqrt(1-4x) - t + 2)*J = 2.
* 6 — K: cross-multiplied closed form (sqrt(1-4qx) - 1 + 2q)*K = 2q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import Poly2, Series, dot, fixed_point_solve
from .trees import (DEFAULT_ENUMERATION_CAP, EnumerationCapError,
                    brute_force_enumerator, catalan)

DEFAULT_ORACLE_CAP = 12

_T = Poly2.term(1, et=1)
_Q = Poly2.term(1, eq=1)
_ONE_MINUS_Q = 1 - _Q

THEOREM_IDS = ("0", "1", "2", "3", "4", "5", "6")


class SelfCheckError(RuntimeError):
    """A solver's own verification failed: the series is corrupt."""


class ResourceCapError(RuntimeError):
    """Refused a request above a resource cap, before any work.  ``limit``
    names what is capped: "order" for a series order, "moment" for a
    moment order."""

    def __init__(self, what: str, order: int, cap: int, limit: str):
        super().__init__(f"{what} at order {order} exceeds the cap "
                         f"of order {cap}")
        self.cap, self.limit = cap, limit


# The largest order each solver accepts.  A solve at order N holds about
# N^3/6 terms for F and N^2/2 for H, J and K (N for f, whose N-th
# coefficient has about 2N bits).  Each cap is an order at which one
# solve, self-check included, took 8-27 s of CPU on a 2-vCPU x86 VM
# (see CHANGES.md); the cost grows about as N^5 for F and H.
ORDER_CAPS = {"f": 2000, "F": 120, "H": 200, "J": 400, "K": 400}


def _capped(name: str, order: int) -> None:
    if order > ORDER_CAPS[name]:
        raise ResourceCapError(f"series {name}", order, ORDER_CAPS[name],
                               "order")


@dataclass(frozen=True)
class FirstFailure:
    """Lowest x-index where an identity's residual is nonzero."""

    n: int
    residual: Poly2

    def to_json(self) -> dict:
        return {"n": self.n, "residual_terms": self.residual.to_json_terms()}


@dataclass(frozen=True)
class Verdict:
    theorem: str
    order: int
    passed: bool
    first_failure: FirstFailure | None = None

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "order": self.order,
            "pass": self.passed,
            "first_failure":
                self.first_failure.to_json() if self.first_failure else None,
        }


def _first_failure(*residuals: Series) -> FirstFailure | None:
    """Lowest nonzero coefficient of the first residual that has one."""
    for residual in residuals:
        hit = residual.first_nonzero()
        if hit is not None:
            return FirstFailure(*hit)
    return None


def _self_checked(series: Series, residual: Series, what: str) -> Series:
    """The series if its closed-form residual vanishes, else SelfCheckError."""
    hit = _first_failure(residual)
    if hit is not None:
        raise SelfCheckError(
            f"{what} series failed its closed form at x^{hit.n}: {hit.residual}")
    return series


# --- radicals ---------------------------------------------------------------

def _x_poly(coeffs: list, order: int) -> Series:
    """Literal x-polynomial as a series; terms above the order are cut."""
    return Series.from_x_coefficients(coeffs[: order + 1], order)


def catalan_radical(order: int) -> Series:
    """sqrt(1 - 4x)."""
    return _x_poly([1, -4], order).sqrt()


def jumps_radical(order: int) -> Series:
    """sqrt(1 - 2(q+1)x + (q-1)^2 x^2), the t-free inner radicand's root."""
    return inner_radicand(order).sqrt()


def inner_radicand(order: int) -> Series:
    """1 - 2(q+1)x + (q-1)^2 x^2; times t^2 this is the printed radicand."""
    lin = Poly2({(0, 0): -2, (0, 1): -2})           # -2(q+1)
    quad = Poly2({(0, 0): 1, (0, 1): -2, (0, 2): 1})  # (q-1)^2
    return _x_poly([Poly2.one(), lin, quad], order)


def printed_radicand(order: int) -> Series:
    """q^2t^2x^2 - 2qt^2x^2 - 2qt^2x + t^2x^2 - 2t^2x + t^2, transcribed
    term by term so the factorization t^2 * inner_radicand is an assertion
    about the formula, not an assumption."""
    c0 = Poly2({(2, 0): 1})                               # t^2
    c1 = Poly2({(2, 1): -2, (2, 0): -2})                  # -2qt^2x - 2t^2x
    c2 = Poly2({(2, 2): 1, (2, 1): -2, (2, 0): 1})        # (q^2-2q+1)t^2x^2
    return _x_poly([c0, c1, c2], order)


def jumpdist_radical(order: int) -> Series:
    """sqrt(1 - 4qx)."""
    return _x_poly([Poly2.one(), Poly2.term(-4, eq=1)], order).sqrt()


# --- solvers ----------------------------------------------------------------

@lru_cache(maxsize=8)
def solve_catalan(order: int) -> Series:
    """f = 1 + x*f^2, the tree counter.  Coefficients are plain integers."""
    _capped("f", order)
    return fixed_point_solve(
        lambda f: dot(f, f[::-1]) if f else Poly2.one(), order)


def _theorem3_residual(H: Series, order: int) -> Series:
    # 2qx*H + (-qx + R + x - 1), R = sqrt(inner radicand) at t=1
    two_qx = _x_poly([Poly2.zero(), Poly2.term(2, eq=1)], order)
    lin = _x_poly(
        [Poly2.constant(-1), Poly2({(0, 0): 1, (0, 1): -1})], order)
    return two_qx * H + lin + jumps_radical(order)


@lru_cache(maxsize=4)
def solve_H(order: int) -> Series:
    """H(x,q) = F(x,1,q), trees weighted q^jumps, solved from its own
    equation H = 1 + x*H + q*x*(H - 1)*H.

    Verified against its own closed form before being returned; failure
    means the solver stack is broken, so it raises instead of returning.
    """
    _capped("H", order)
    # x^n of x*H*((1 - q) + q*H) reads H only up to x^(n-1)
    H = fixed_point_solve(
        lambda H: (H[-1] * _ONE_MINUS_Q + dot(H, H[::-1]) * _Q) if H
        else Poly2.one(), order)
    return _self_checked(H, _theorem3_residual(H, order), "jumps")


@lru_cache(maxsize=4)
def solve_F(order: int) -> Series:
    """F(x,t,q) = 1 + xt*F(x,0,q)*F(x,t,q) + xtq*(F(x,1,q) - F(x,0,q))*F(x,t,q).

    With F(x,0,q) = 1 and F(x,1,q) = H this is t-linear, so F is the
    inverse of 1 - x*t*G with G = 1 + q*(H - 1): the construction of J
    with G in place of f.
    """
    _capped("F", order)
    G = 1 + (solve_H(order) - 1) * _Q
    return (1 - (G * _T).shift_x()).inverse().truncate(order)


def verify_F_closed_form(order: int, F: Series | None = None) -> Verdict:
    """Cross-multiplied closed form for F:

        2*(qtx + t^2x - tx - t + 1)*F + (-qtx + tx + t - 2) + t*R = 0,
        R = sqrt(inner radicand).

    Also asserts, by exact expansion, that the printed radicand equals
    t^2 * inner radicand; a mismatch there fails the verdict at the first
    differing x-index.
    """
    if F is None:
        F = solve_F(order)
    elif F.order < order:
        raise ValueError(f"series order {F.order} is below requested {order}")
    factor_diff = printed_radicand(order) - inner_radicand(order) * Poly2({(2, 0): 1})
    # 2*(qtx + t^2x - tx - t + 1): x^0 -> 2 - 2t, x^1 -> 2qt + 2t^2 - 2t
    den = _x_poly(
        [Poly2({(0, 0): 2, (1, 0): -2}),
         Poly2({(1, 1): 2, (2, 0): 2, (1, 0): -2})], order)
    # -qtx + tx + t - 2: x^0 -> t - 2, x^1 -> t - qt
    lin = _x_poly(
        [Poly2({(1, 0): 1, (0, 0): -2}),
         Poly2({(1, 0): 1, (1, 1): -1})], order)
    residual = den * F + lin + jumps_radical(order) * _T
    hit = _first_failure(factor_diff, residual)
    return Verdict("2", order, hit is None, hit)


def _theorem5_residual(J: Series, order: int) -> Series:
    # (t*sqrt(1-4x) - t + 2)*J - 2
    front = catalan_radical(order) * _T + Series.constant(
        Poly2({(1, 0): -1, (0, 0): 2}), order)
    return front * J - 2


@lru_cache(maxsize=4)
def solve_Jdepth(order: int) -> Series:
    """J(x,t), trees weighted t^depth: the inverse of 1 - x*t*f(x).

    Verified against its closed form before being returned.
    """
    _capped("J", order)
    f = solve_catalan(order)
    J = (1 - (f * _T).shift_x()).inverse().truncate(order)
    return _self_checked(J, _theorem5_residual(J, order), "depth")


def _theorem6_residual(K: Series, order: int) -> Series:
    # (sqrt(1-4qx) - 1 + 2q)*K - 2q
    front = jumpdist_radical(order) + Series.constant(
        Poly2({(0, 0): -1, (0, 1): 2}), order)
    return front * K - Series.constant(Poly2.term(2, eq=1), order)


@lru_cache(maxsize=4)
def solve_K(order: int) -> Series:
    """K(x,q), trees weighted q^jumpdist.

    Built from the depth series by the complement rule
    jumpdist = internal - depth: the x^n coefficient sum(a_d * t^d) of J
    becomes sum(a_d * q^(n-d)).  Exponents out of range mean the depth
    series is corrupt.  Verified against its closed form before return.
    """
    _capped("K", order)
    J = solve_Jdepth(order)
    coeffs = []
    for n, poly in enumerate(J.coefficients()):
        row = [0] * (n + 1)
        for (et, eq), v in poly.items():
            if eq != 0 or et > n:
                raise SelfCheckError(
                    f"depth series coefficient x^{n} has a bad term "
                    f"t^{et}*q^{eq}")
            row[n - et] = v
        coeffs.append(Poly2._from_q_coefficients(row))
    K = Series(coeffs)
    return _self_checked(K, _theorem6_residual(K, order), "jump-distance")


# --- verdicts ---------------------------------------------------------------

# ids whose identity the solver itself checks on every solve
_SELF_CHECKED = {"3": solve_H, "5": solve_Jdepth, "6": solve_K}


def verify_theorem(theorem: int | str, order: int,
                   oracle_cap: int = DEFAULT_ORACLE_CAP) -> Verdict:
    """Run one identity check and report a Verdict.

    Ids 0, 1, 2 and 4 report a failed identity as a failing Verdict.  Ids
    3, 5 and 6 report the self-checks of ``solve_H``, ``solve_Jdepth`` and
    ``solve_K``, which raise SelfCheckError when their identity fails, so
    for those ids a failure raises.  Unknown ids and bad arguments (a
    negative order or oracle_cap) raise ValueError before any work.

    For id 1 the exhaustive enumeration is compared up to
    min(order, oracle_cap); everything else runs at the full order.  A
    size above DEFAULT_ENUMERATION_CAP raises EnumerationCapError, and an
    order above a solver's ``ORDER_CAPS`` entry raises ResourceCapError,
    both before any work happens.
    """
    tid = str(theorem)
    if tid not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}, expected 0..6")
    if order < 0:
        raise ValueError("order must be >= 0")
    if oracle_cap < 0:
        raise ValueError("oracle_cap must be >= 0")

    if tid in _SELF_CHECKED:
        _SELF_CHECKED[tid](order)
        return Verdict(tid, order, True)
    if tid == "2":
        return verify_F_closed_form(order)

    if tid == "0":
        f = solve_catalan(order)
        hit = _first_failure(f - (1 + (f * f).shift_x()),
                             f.shift_x() * 2 - 1 + catalan_radical(order))
    elif tid == "1":
        upto = min(order, oracle_cap)
        if upto > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"oracle size {upto} ({catalan(upto)} trees) exceeds the "
                f"ceiling of {DEFAULT_ENUMERATION_CAP}; --oracle-cap must be "
                f"at most {DEFAULT_ENUMERATION_CAP}")
        F = solve_F(order)
        # the cap was asked for explicitly, so it doubles as the refusal cap
        hit = _first_failure(F - brute_force_enumerator(upto, cap=upto))
    else:  # id 4
        J = solve_Jdepth(order)
        hit = _first_failure(J - 1 - (J.substitute("t", 1) * J).shift_x() * _T)
    return Verdict(tid, order, hit is None, hit)
