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
and F = 1/(1 - xt*G) with G = 1 + q(H-1) is built from H, as
J = 1/(1 - xt*f) is built from f.  G is quadratic too, so the powers of
x*G follow a three-term recurrence (the one behind the Catalan triangle
for the powers of f), and F is summed as sum(t^d (xG)^d) from it with
shifts and adds; J is the inverse of its series.

f is algebraic, so its coefficients are P-recursive (Stanley 1980;
Flajolet & Sedgewick, App. B.4): f_n, the Catalan number, is stepped by
(n + 1)*f_n = 2(2n - 1)*f_(n-1) on plain ints by ``fixed_point_solve``.
H_n and K_n have row n of a classical distribution as q-coefficients,
built on plain ints by ``_value_rows``, whose rows the moment tables sum
too: the Narayana numbers (trees by jumps) by their product rule, and
Catalan's triangle (the ballot numbers, trees by jump distance) by
running sums.  The quadratics f = 1 + x*f^2 and H = 1 + xH + qx(H-1)H
are the tests' reference.  Id 0 checks f, and theorems 3 and 6 check H
and K at every order; K is also compared up to x^CROSS_CHECK_ORDER (40)
with J by the complement rule jumpdist = internal - depth, so J is
solved at most to that order for K.

Each solver sits behind one prefix cache, ``_prefix_cached``, keyed by the
tuple of its arguments, which refuses a negative order or one above
``ORDER_CAPS`` before counting it.  A key up to the cached key in every
place is a hit, served as ``truncate(*key)`` of the cached value and
memoised per key; any other key is a miss that builds afresh and replaces
the cached value.  A series of order N is its value mod x^(N+1), so a
solver serves every lower order as the prefix of the highest it has
solved.  ``moments`` caches its tables by (max_moment, n_max) the same way.

Each series satisfies an algebraic identity with a square-root term.  The
verifiers never divide by marker-bearing denominators.  Ids 2, 3, 5 and 6
and id 0's radical half are read lazily: each is cross-multiplied into the
form (d0 + d1*x)*S + lin + radical = 0, whose x^n coefficient is one
``dot`` of (S_n, S_(n-1), lin_n + radical_n) with (d0, d1, 1), computed
when read up to the first nonzero one.  Id 0's fixed-point half, ids 1
and 4, and id 2's radicand factorisation build whole residual series.

``verify_theorem`` runs the identity for one of the ids 0..6 and returns a
machine-readable Verdict.  Each verdict reads its series from its solver,
whose door refuses a bad order, and solves only the terms it compares:
id 1 solves F to min(order, oracle cap).  Ids 3, 5 and 6 report the
self-checks of the solvers for H, J and K, which check their identity
once per solve and raise SelfCheckError on failure, so a corrupted series
can never leak into the moment pipeline.

Verdict ids:

* 0 — f: fixed point f = 1 + x*f^2 and radical 2x*f - 1 + sqrt(1-4x) = 0.
* 1 — F equals the exhaustive enumerator up to the oracle cap.
* 2 — F: cross-multiplied closed form (with radical), including the check
      that the printed radicand equals t^2 * (the t-free inner radicand).
* 3 — H: cross-multiplied closed form 2qx*H + (-qx + R + x - 1) = 0 where
      R = sqrt(q^2x^2 - 2qx^2 - 2qx + x^2 - 2x + 1).
* 4 — J: functional equation J = 1 + x*t*J(x,1)*J(x,t).
* 5 — J: 2*(1 - t + t^2x)*J + (t - 2) + t*sqrt(1-4x) = 0, theorem 2 at q=1.
* 6 — K: 2*(q - 1 + x)*K + (1 - 2q) + sqrt(1-4qx) = 0.

Ids 5 and 6 are the paper's A*S = c times A's conjugate B (R -> -R): A*B =
(2-t)^2 - t^2(1-4x) = 4(1-t+t^2x) for J, (2q-1)^2 - (1-4qx) = 4q(q-1+x) for
K.  No factor is a zero divisor, so both forms first fail at the same x^m.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial, wraps
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .algebra import (Poly2, Series, _pack, _slot_width, dot,
                      fixed_point_solve)
from .trees import (DEFAULT_ENUMERATION_CAP, EnumerationCapError,
                    _count_note, brute_force_enumerator, catalan)

DEFAULT_ORACLE_CAP = 12

_T = Poly2.term(1, et=1)
_Q = Poly2.term(1, eq=1)
_ONE_MINUS_Q = 1 - _Q

THEOREM_IDS = ("0", "1", "2", "3", "4", "5", "6")
_CacheInfo = namedtuple("CacheInfo", "hits misses")
_Sliceable = TypeVar("_Sliceable")


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


# The largest order each solver accepts; every recorded refusal names its
# cap, so the caps stay.  A solve at order N holds about N^3/6 terms for F
# and N^2/2 for H, J and K (N for f, whose N-th coefficient has about 2N
# bits).  Each cap cost 8-27 s of CPU per solve on a 2-vCPU x86 VM; now f
# takes 12-14 ms at 2000 (`verify 0` 5-7 s, nearly all its f*f), H 0.08 s
# at 200 with its theorem-3 check, `verify 6` (K, its checks and J at 40)
# 0.25-0.4 s at 400 in a fresh process, and F 0.2-0.3 s at 120, where its
# theorem-2 check takes 0.15 s and peaks at 4.3 MB of live memory with F
# solved (60.5 MB with whole series).
ORDER_CAPS = {"f": 2000, "F": 120, "H": 200, "J": 400, "K": 400}


# The highest order at which a series is compared with a second
# construction of it: K with the complement of J, and a moment table's
# power sums with H or K, packed from the same rows, which checks theorem
# 3 or 6 on the rows up to 40 and their round trip through packing.  It
# stays as the benchmark's traced table runs require a
# ``moments.q_log_derivative`` span and its guess runs a ``solve_K`` one.
# Forty covers every table of a paper session (n_max 32 at most), whose
# re-guess tables are slices of its two order-32 tables, and keeps each
# cold solve of J at a few hundredths of a second.
CROSS_CHECK_ORDER = 40


def _admit_order(name: str, order: int) -> None:
    """Refuse an order of series ``name`` below 0 or above its cap."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > (cap := ORDER_CAPS[name]):
        raise ResourceCapError(f"series {name}", order, cap, "order")


class FirstFailure(NamedTuple):
    """Lowest x-index where an identity's residual is nonzero."""

    n: int
    residual: Poly2

    def to_json(self) -> dict:
        return {"n": self.n, "residual_terms": self.residual.to_json_terms()}


class Verdict(NamedTuple):
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


def _first_failure(*residuals: Iterable[Poly2]) -> FirstFailure | None:
    """Lowest nonzero coefficient of the first residual that has one.  A
    residual is its x-coefficients from x^0 up, read only up to that one."""
    for residual in residuals:
        for n, c in enumerate(residual):
            if c:
                return FirstFailure(n, c)
    return None


def _self_checked(series: Series, residual: Iterable, what: str) -> Series:
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

def _prefix_cached(build: Callable[..., _Sliceable],
                   admit: Callable[..., None]) -> Callable[..., _Sliceable]:
    """``build``, a function or a ``functools.partial`` of one, behind the
    prefix cache of the module docstring.  Its arguments, bound
    positionally, are the key; ``admit(*key)``, run first, raises for a
    refused key and passes no negative place.  ``truncate(*key)`` of the
    value built for a covering key must equal ``build(*key)``.  Only a call
    by name or of another arity than the code object's binds through
    ``inspect``, which raises the ``TypeError`` of a bad call."""
    top, cache, hits, misses = None, {}, 0, 0
    arity = (getattr(build, "func", build).__code__.co_argcount
             - len(getattr(build, "args", ())))

    @wraps(build)
    def cached(*key, **by_name) -> _Sliceable:
        nonlocal top, cache, hits, misses
        if by_name or len(key) != arity:
            from inspect import signature
            key = signature(build).bind(*key, **by_name).args
        admit(*key)
        if top is not None and all(k <= t for k, t in zip(key, top)):
            hits += 1
            if key not in cache:
                cache[key] = cache[top].truncate(*key)
        else:
            misses += 1
            cache = {key: build(*key)}
            top = key
        return cache[key]

    def cache_clear() -> None:
        nonlocal top, cache, hits, misses
        top, cache, hits, misses = None, {}, 0, 0

    cached.cache_info = lambda: _CacheInfo(hits, misses)
    cached.cache_clear = cache_clear
    return cached


@partial(_prefix_cached, admit=partial(_admit_order, "f"))
def solve_catalan(order: int) -> Series:
    """f = 1 + x*f^2, the tree counter, whose coefficients are the Catalan
    numbers: plain integers stepped by (n + 1)*f_n = 2(2n - 1)*f_(n-1)
    from f_0 = 1.  The quadratic is the tests' reference, and id 0 checks
    both it and the radical form."""
    return fixed_point_solve(
        lambda f: Poly2.constant(2 * (2 * len(f) - 1) * f[-1].constant_value()
                                 // (len(f) + 1)) if f else Poly2.one(),
        order)


def _linear_residual(S: Series, d0: Poly2 | int, d1: Poly2 | int, lin: list,
                     radical: Series) -> Iterator[Poly2]:
    """The x-coefficients of (d0 + d1*x)*S + lin + radical up to the
    radical's order, each computed when read: x^n is the one ``dot`` of
    (S_n, S_(n-1), lin_n + radical_n) with (d0, d1, 1), in S_n's layout."""
    factors = [d if isinstance(d, Poly2) else Poly2.constant(d)
               for d in (d0, d1, 1)]
    rest = (_x_poly(lin, radical.order) + radical).coefficients()
    for terms in zip(S.coefficients(), S.shift_x().coefficients(), rest):
        yield dot(terms, factors)


def _theorem3_residual(H: Series, order: int) -> Iterator[Poly2]:
    # 2qx*H + (-qx + R + x - 1), R = sqrt(inner radicand) at t=1.  With
    # no x^0 factor, x^n reads H_(n-1) only, so the residual runs to
    # x^(order+1), over H padded with a zero, to read H_order too
    return _linear_residual(Series([*H.coefficients(), Poly2.zero()]), 0,
                            2 * _Q, [-1, _ONE_MINUS_Q],
                            jumps_radical(order + 1))


STATS = ("jumps", "jumpdist")   # the statistics ``_value_rows`` dispatches on


def _value_rows(stat: str, n_max: int) -> list[list[int]]:
    """rows[n][k] = the number of trees of size n with value k, for
    n <= n_max, on plain ints: the Narayana numbers by their product rule
    for jumps, Catalan's triangle by running sums for jump distance (the
    ``moments`` module docstring); ``solve_H``, ``solve_K`` and the tables
    read them."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        if stat == "jumps":
            row = [1]
            for k in range(n - 1):
                row.append(row[-1] * (n - k - 1) * (n - k)
                           // ((k + 1) * (k + 2)))
        else:
            row = list(accumulate(rows[-1] + [0])) if n > 1 else [1]
        rows.append(row)
    return rows


@partial(_prefix_cached, admit=partial(_admit_order, "H"))
def solve_H(order: int) -> Series:
    """H(x,q) = F(x,1,q), trees weighted q^jumps: the x^n coefficient has
    the Narayana numbers of row n (``_value_rows``) as its q-coefficients.
    The equation H = 1 + x*H + q*x*(H - 1)*H is the tests' reference.

    Verified against its own closed form, theorem 3, before being
    returned; failure means the solver stack is broken, so it raises
    instead of returning.
    """
    rows = _value_rows("jumps", order)
    # 4 spare bits keep x^n of the theorem-3 residual, the dot of
    # (H_(n-1), r_n) with (2q, 1), in H_(n-1)'s layout: the width rule adds
    # 3 bits, 2q's stored bound, and 1 for 2 term pairs (r_n = -2q*H_(n-1)
    # from x^2 on adds less).  The rows pass through the driver only as the
    # benchmark's traced runs require its algebra.fixed_point span; it can
    # go once they no longer do (ROADMAP item 1a)
    H = fixed_point_solve(
        lambda known: Poly2._packed(rows[len(known)], max(len(known), 1), 4),
        order)
    return _self_checked(H, _theorem3_residual(H, order), "jumps")


@partial(_prefix_cached, admit=partial(_admit_order, "F"))
def solve_F(order: int) -> Series:
    """F(x,t,q) = 1 + xt*F(x,0,q)*F(x,t,q) + xtq*(F(x,1,q) - F(x,0,q))*F(x,t,q).

    With F(x,0,q) = 1 and F(x,1,q) = H this is t-linear, so F = 1/(1 - t*A)
    = sum(t^d * A^d) with A = x*G and G = 1 + q*(H - 1).  H = 1 + x*H*G
    gives G = 1 + x*G*(G + q - 1), so A^2 = (1 - (q - 1)x)*A - x and the
    powers of A follow A^(d+1) = A^d + x*A^d - x*q*A^d - x*A^(d-1).  The
    columns C_d = A^d / x^d, series as A has no x^0 term, follow
    C_(d+1) = (C_d - C_(d-1)) / x + (1 - q)*C_d from C_0 = 1 and C_1 = G.

    Each column, cut at x^(N-d), is one packed int with x^m*q^j in slot
    m*N + j, so a column costs two shifts, three adds and a mask, and no
    multiply: the x^0 terms of C_d and C_(d-1) are both 1, so their
    difference shifts down by N slots exactly.  Every coefficient of A^d is
    nonnegative and at most Cat(N), which the slots hold, and none below
    x^(N+1) reaches q^N, so x-block n - d of C_d is the t^d row of F_n.
    Each column is copied into the rows of F as soon as it is computed;
    F_n's int, in t-stride N, is read from its row when C_n has been.
    """
    H, N = solve_H(order), order
    if not N:
        return Series([Poly2.one()])
    w = _slot_width(catalan(N).bit_length())
    row, block = N * (w >> 3), N * w    # bytes and bits of one x-power
    G = 1 + (H.truncate(N - 1) - 1) * _Q
    digits = [0] * (N * N)
    for m, g in enumerate(G.coefficients()):
        for j, c in enumerate(g.q_coefficients()):
            digits[m * N + j] = c
    prev, col = 1, _pack(digits, w)
    rows = [bytearray((n + 1) * row) for n in range(N + 1)]
    F = [Poly2._make(1, w, N, (1, 1, 0, 0))]
    for d in range(1, N + 1):
        with memoryview(col.to_bytes((N + 1 - d) * row, "little")) as data:
            for n in range(d, N + 1):
                rows[n][d * row: (d + 1) * row] = \
                    data[(n - d) * row: (n - d + 1) * row]
        F.append(Poly2._make(int.from_bytes(rows[d], "little"), w, N,
                             (catalan(d).bit_length(), d * d, d, d - 1)))
        rows[d] = None
        prev, col = col, (((col - prev) >> block) + col - (col << w)
                          & (1 << (block * (N - d))) - 1)
    return Series(F)


def verify_F_closed_form(order: int) -> Verdict:
    """Cross-multiplied closed form for ``solve_F(order)``:

        2*(qtx + t^2x - tx - t + 1)*F + (-qtx + tx + t - 2) + t*R = 0,
        R = sqrt(inner radicand).

    Also asserts, by exact expansion, that the printed radicand equals
    t^2 * inner radicand; a mismatch there fails the verdict at the first
    differing x-index.
    """
    F = solve_F(order)
    factor_diff = printed_radicand(order) - inner_radicand(order) * Poly2({(2, 0): 1})
    hit = _first_failure(factor_diff.coefficients(), _linear_residual(
        F, 2 - 2 * _T, 2 * _T * (_Q + _T - 1), [_T - 2, _T * _ONE_MINUS_Q],
        jumps_radical(order) * _T))
    return Verdict("2", order, hit is None, hit)


def _theorem5_residual(J: Series, order: int) -> Iterator[Poly2]:
    # 2*(1 - t + t^2x)*J + (t - 2) + t*sqrt(1-4x), theorem 2's at q=1
    return _linear_residual(J, 2 - 2 * _T, 2 * _T * _T, [_T - 2],
                            catalan_radical(order) * _T)


@partial(_prefix_cached, admit=partial(_admit_order, "J"))
def solve_Jdepth(order: int) -> Series:
    """J(x,t), trees weighted t^depth: the inverse of 1 - x*t*f(x).

    Verified against its closed form before being returned.
    """
    f = solve_catalan(order)
    J = (1 - (f * _T).shift_x()).truncate(order).inverse()
    return _self_checked(J, _theorem5_residual(J, order), "depth")


def _theorem6_residual(K: Series, order: int) -> Iterator[Poly2]:
    # 2*(q - 1 + x)*K + (1 - 2q) + sqrt(1-4qx)
    return _linear_residual(K, 2 * _Q - 2, 2, [1 - 2 * _Q],
                            jumpdist_radical(order))


@partial(_prefix_cached, admit=partial(_admit_order, "K"))
def solve_K(order: int) -> Series:
    """K(x,q), trees weighted q^jumpdist: the x^n coefficient has row n of
    Catalan's triangle (``_value_rows``) as its q-coefficients.

    Verified against its closed form, theorem 6, before return, and up to
    x^CROSS_CHECK_ORDER against the depth series J by the complement rule
    jumpdist = internal - depth: J's x^n coefficient has row n's entry k
    at t^(n-k), and the first power where J differs from that series
    raises.
    """
    rows = _value_rows("jumpdist", order)
    # 6 spare bits keep x^n of the theorem-6 residual, the dot of (K_n,
    # K_(n-1), r_n) with (2q - 2, 2, 1), in K_n's layout: the width rule
    # adds 4 bits, 2q - 2's stored bound, and 2 for the 4 term pairs, as
    # bits(K_(n-1)) and bits(r_n) are at most bits(K_n) + 2 to order 400
    K = Series([Poly2._packed(row, n + 1, 6) for n, row in enumerate(rows)])
    _self_checked(K, _theorem6_residual(K, order), "jump-distance")
    J = solve_Jdepth(min(order, CROSS_CHECK_ORDER))
    # row n read backwards, padded to n + 1 entries: entry k at t^(n-k)
    complement = Series([Poly2._packed([0] * (n + 1 - len(row)) + row[::-1], 1)
                         for n, row in enumerate(rows[:J.order + 1])])
    hit = _first_failure((J - complement).coefficients())
    if hit is not None:
        raise SelfCheckError(
            f"jump-distance series coefficient x^{hit.n} differs from the "
            f"complement of the depth series")
    return K


# --- verdicts ---------------------------------------------------------------

# the one table from series name to solver
SOLVERS = {"f": solve_catalan, "F": solve_F, "H": solve_H, "J": solve_Jdepth,
           "K": solve_K}

# self-checked id -> the series whose solver checks its identity
_SELF_CHECKED = {"3": "H", "5": "J", "6": "K"}


def verify_theorem(theorem: int | str, order: int,
                   oracle_cap: int = DEFAULT_ORACLE_CAP) -> Verdict:
    """Run one identity check and report a Verdict.

    Ids 0, 1, 2 and 4 report a failed identity as a failing Verdict.  Ids
    3, 5 and 6 report the self-checks of ``solve_H``, ``solve_Jdepth`` and
    ``solve_K``, which raise SelfCheckError when their identity fails, so
    for those ids a failure raises.  An unknown id or a negative
    oracle_cap raises ValueError before any work.  So does a negative
    order, and one above its series' ``ORDER_CAPS`` entry raises
    ResourceCapError: each id calls its solver before any other work, and
    the solver's door (``_admit_order``) refuses the order.

    For id 1 the exhaustive enumeration is compared up to
    min(order, oracle_cap), and F, once the order passes F's door, is
    solved only that far; everything else runs at the full order.  An
    oracle size above DEFAULT_ENUMERATION_CAP raises EnumerationCapError
    before any work.
    """
    tid = str(theorem)
    if tid not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}, expected 0..6")
    if oracle_cap < 0:
        raise ValueError("oracle_cap must be >= 0")

    upto = min(order, oracle_cap)
    if tid == "1" and upto > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"oracle size {upto}{_count_note(upto)} exceeds the "
            f"ceiling of {DEFAULT_ENUMERATION_CAP}; --oracle-cap must be "
            f"at most {DEFAULT_ENUMERATION_CAP}")

    if tid in _SELF_CHECKED:
        SOLVERS[_SELF_CHECKED[tid]](order)
        return Verdict(tid, order, True)
    if tid == "2":
        return verify_F_closed_form(order)

    if tid == "0":
        f = solve_catalan(order)
        hit = _first_failure((f - (1 + (f * f).shift_x())).coefficients(),
                             _linear_residual(f, 0, 2, [-1],
                                              catalan_radical(order)))
    elif tid == "1":
        _admit_order("F", order)   # the refusal solve_F(order) would give
        F = solve_F(upto)
        hit = _first_failure((F - brute_force_enumerator(upto)).coefficients())
    else:  # id 4
        J = solve_Jdepth(order)
        hit = _first_failure(
            (J - 1 - (J.substitute("t", 1) * J).shift_x() * _T).coefficients())
    return Verdict(tid, order, hit is None, hit)
