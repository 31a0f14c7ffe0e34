"""Exact polynomial and truncated power series arithmetic.

Two layers:

* ``Poly2`` — a polynomial in the two markers ``t`` and ``q`` with
  integer coefficients.  This is the coefficient ring.
* ``Series`` — a power series in ``x`` truncated at a fixed order, whose
  coefficients are ``Poly2`` values.  A series of order N represents its
  value modulo x^(N+1); arithmetic on operands of different orders
  truncates to the smaller order, so precision loss is always explicit.

Every series the package builds counts trees, so every coefficient is an
``int`` and all arithmetic is exact integer arithmetic.  The two
operations that would divide stay in the ring or refuse: ``sqrt`` halves
exactly and raises on an odd coefficient, and ``inverse`` needs an x^0
term of 1 or -1.  Serialization still reports each coefficient as a
numerator over the denominator 1.

Packed coefficients (two-dimensional Kronecker substitution; Harvey,
JSC 2009).  A ``Poly2`` is one int, its value at q = 2^w and
t = 2^(w*S): the term c*t^a*q^b fills slot a*S + b of w bits.  Slots are
balanced, |c| < 2^(w-1), so the int decodes uniquely whatever the signs.
In one layout (w, S) the product of two packed ints, and a sum of such
products, is the packed result whenever its coefficients fit a slot and
its q-exponents stay below S: one C bignum multiply per pair of
polynomials, where a term loop would do one per pair of terms.  When
either factor stores at most four terms, as the theorem residuals'
literal factors do, the product is that many shifted adds of the other's
int instead (``_product``), the same int at O(size) cost.

The width rule.  Each ``Poly2`` carries upper bounds on the bit length
of its coefficients, its term count and its two degrees, so choosing a
layout never decodes.  The one packer, ``Poly2._packed``, stores the
exact bounds of its digits; the zero polynomial's drop out of every max.
A coefficient of sum(a_i * b_i) is at most count * (2^top - 1), with
top the largest bits(a_i) + bits(b_i) and count the sum of
min(terms(a_i), terms(b_i)), since a term of a product takes one term of
each factor; its slot is that bit length plus a sign bit, rounded up to
whole bytes.  Each sum or ``dot`` checks this bound first.  It keeps the
layout of its operand with the most stored terms if that one fits, so
only operands with fewer terms are re-packed, and else packs them all
wider, so nothing wraps.  A theorem residual is one ``dot`` per x-power,
in its series' layout; ``Series.__mul__`` picks one layout for all of its
products.  ``inverse`` and ``sqrt`` fix theirs before the first
coefficient from an l1 majorant of their recurrences, computed on plain
ints; ``sqrt`` decodes each coefficient once, to halve it exactly.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import add, mul
from typing import Callable, Iterable, Mapping, Sequence

_MARKERS = ("t", "q")

# bounds (bits, terms, t-degree, q-degree) of the zero polynomial: they
# drop out of every max, so a zero factor adds nothing to a product bound
_ZERO = (-(1 << 40), 0, -(1 << 40), -(1 << 40))

# ``_product`` applies a factor whose stored term bound is at most
# _FEW_TERMS as shifted adds.  The literal factors of the theorem
# residuals store 1 to 3 terms.  On a 2-vCPU x86 VM, times F_16 (256
# terms, t-stride 40) a literal of 2 to 4 terms took 35-54 us as shifted
# adds and 186-249 us as one multiply, and a constant 26 against 21 us.
_FEW_TERMS = 4


def _slot_width(bits: int) -> int:
    """Smallest multiple of 8 above ``bits``: room for a sign bit."""
    return ((bits >> 3) + 1) << 3


def _pack(digits: list[int], w: int) -> int:
    """The int with digits[k] in slot k.  Each slot is written as the
    unsigned digit c + 2^(w-1), and that offset is taken off the whole."""
    if len(digits) - digits.count(0) < 8:   # few terms: shift them in
        return sum(c << (k * w) for k, c in enumerate(digits) if c)
    wb, half = w >> 3, 1 << (w - 1)
    return (int.from_bytes(b"".join([(c + half).to_bytes(wb, "little")
                                     for c in digits]), "little")
            - int.from_bytes(half.to_bytes(wb, "little") * len(digits), "little"))


def _digits(v: int, w: int) -> list[int]:
    """Every slot of ``v`` up to the last nonzero one: ``_pack`` undone."""
    if not v:
        return []
    if not v & ((1 << w) - 1):   # skip the empty low slots
        low = ((v & -v).bit_length() - 1) // w
        return [0] * low + _digits(v >> (low * w), w)
    wb, half = w >> 3, 1 << (w - 1)
    size = v.bit_length() // w + 1
    end = size * wb
    buf = (v + int.from_bytes(half.to_bytes(wb, "little") * size, "little")
           ).to_bytes(end, "little")
    digits = [int.from_bytes(buf[i: i + wb], "little") - half
              for i in range(0, end, wb)]
    while not digits[-1]:
        digits.pop()
    return digits


def _spread(terms: Iterable[tuple[tuple[int, int], int]], tdeg: int,
            s: int) -> list[int]:
    """The digits of ((e_t, e_q), c) terms in t-stride ``s``."""
    digits = [0] * ((tdeg + 1) * s)
    for (et, eq), c in terms:
        digits[et * s + eq] = c
    return digits


def _restride(digits: list[int], s0: int, s: int) -> list[int]:
    """Digits in t-stride s0, which end in a nonzero one, in t-stride s."""
    if s0 == s or len(digits) <= s0:   # t-free digits read alike in both
        return digits
    return _spread(((divmod(k, s0), c) for k, c in enumerate(digits) if c),
                   (len(digits) - 1) // s0, s)


def _exact_meta(digits: list[int], s: int) -> tuple:
    """The bounds of the digits, which end in a nonzero one, in t-stride s."""
    if not digits:
        return _ZERO
    qdeg = (len(digits) - 1 if len(digits) <= s
            else max(k % s for k, c in enumerate(digits) if c))
    return (max(map(abs, digits)).bit_length(), len(digits) - digits.count(0),
            (len(digits) - 1) // s, qdeg)


def _dot_meta(a: list[tuple], b: list[tuple]) -> tuple:
    """Bounds of sum(a_i * b_i), by the width rule, from the bounds of
    the factors, paired up to the shorter list."""
    if not a or not b:
        return _ZERO
    ba, ta, da, qa = zip(*a)
    bb, tb, db, qb = zip(*b)
    count = sum(map(min, ta, tb))
    if not count:
        return _ZERO
    top = max(map(add, ba, bb))
    tdeg, qdeg = max(map(add, da, db)), max(map(add, qa, qb))
    return (((count << top) - count).bit_length(),
            min(sum(map(mul, ta, tb)), (tdeg + 1) * (qdeg + 1)), tdeg, qdeg)


def _target(polys: Sequence[Poly2], bits: int, stride: int) -> tuple[int, int]:
    """Layout for a result of up to ``bits``-bit coefficients and q-degree
    below ``stride``: that of the operand with the most stored terms, if it
    is wide enough, so only operands with fewer terms are re-packed; else
    the narrowest that fits.  A t-free polynomial's int ignores the stride."""
    nonzero = [p for p in polys if p._v]
    if nonzero:
        best = max(nonzero, key=lambda p: p._meta[1])
        flat = not any(p._meta[2] for p in nonzero)
        if best._w > bits and (best._s >= stride or flat):
            return best._w, max(best._s, stride)
    return _slot_width(bits), stride


def _conv(p: Poly2, w: int, s: int) -> int:
    """The int of ``p`` in layout (w, s), which it must fit."""
    if not p._v:
        return 0
    if p._w == w and (p._s == s or not p._meta[2]):
        return p._v
    return _pack(_restride(_digits(p._v, p._w), p._s, s), w)


def _split(v: int) -> tuple[int, int]:
    """(v >> z, z) for the z trailing zero bits of v: a packed int with
    empty low slots multiplies at the size of the rest."""
    z = (v & -v).bit_length() - 1 if v else 0
    return v >> z, z


def _split_dot(xs: Sequence[tuple[int, int]], ys: Sequence[tuple[int, int]]) -> int:
    """sum(x * y) over the pairs of split ints; the shift that every
    product shares is applied once, to the sum."""
    low = min((zx + zy for (x, zx), (y, zy) in zip(xs, ys) if x and y),
              default=0)
    return sum((x * y) << (zx + zy - low)
               for (x, zx), (y, zy) in zip(xs, ys) if x and y) << low


def _power(var: str, e: int) -> list[str]:
    """The factor texts of var^e: none for e == 0."""
    return [var if e == 1 else f"{var}^{e}"] if e else []


def _signed_sum(terms: Iterable[tuple[int, list[str]]]) -> str:
    """Text of a sum of (coefficient, factor texts) terms, zero ones left
    out: the first term's sign, ``+ `` or ``- `` before each later one,
    and no magnitude 1 before a factor; ``0`` for an empty sum."""
    parts = []
    for c, factors in terms:
        if not c:
            continue
        mag = abs(c)
        body = "*".join(factors if mag == 1 and factors else [str(mag), *factors])
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


class Poly2:
    """Polynomial in the markers t and q with integer coefficients, held
    as one packed int; see the module docstring.  ``items()`` decodes it
    into ((e_t, e_q), coefficient) pairs of the nonzero terms, in
    increasing (e_t, e_q) order.  Instances are immutable.
    """

    __slots__ = ("_v", "_w", "_s", "_meta")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (et, eq), value in terms.items():
                if et < 0 or eq < 0:
                    raise ValueError(f"negative exponent ({et}, {eq})")
                if not isinstance(value, int):
                    raise TypeError("coefficient must be an int, got "
                                    f"{type(value).__name__}")
                if value:
                    clean[(et, eq)] = value
        s = max((eq for _, eq in clean), default=0) + 1
        tdeg = max((et for et, _ in clean), default=0)
        p = Poly2._packed(_spread(clean.items(), tdeg, s), s)
        self._v, self._w, self._s, self._meta = p._v, p._w, p._s, p._meta

    @classmethod
    def _make(cls, v: int, w: int, s: int, meta: tuple) -> Poly2:
        """``v`` in layout (w, s) with the upper bounds ``meta``; every zero
        polynomial gets one layout and the bounds ``_ZERO``."""
        out = cls.__new__(cls)
        if not v:
            w, s, meta = 8, 1, _ZERO
        out._v, out._w, out._s, out._meta = v, w, s, meta
        return out

    @classmethod
    def _packed(cls, digits: list[int], s: int, room: int = 0) -> Poly2:
        """The polynomial with int coefficient digits[k] at t^(k // s) *
        q^(k % s), in the narrowest slots with ``room`` spare bits, with
        its exact bounds; s must exceed the q-degree."""
        end = len(digits)
        while end and not digits[end - 1]:
            end -= 1
        digits = digits[:end]
        meta = _exact_meta(digits, s)
        w = _slot_width(max(meta[0], 0) + room)
        return cls._make(_pack(digits, w), w, s, meta)

    @classmethod
    def zero(cls) -> Poly2:
        return cls()

    @classmethod
    def one(cls) -> Poly2:
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, value: int) -> Poly2:
        return cls({(0, 0): value})

    @classmethod
    def term(cls, coeff: int, et: int = 0, eq: int = 0) -> Poly2:
        return cls({(et, eq): coeff})

    def q_coefficients(self) -> list[int]:
        """[coefficient of q^k for k = 0 .. q-degree] of a t-free
        polynomial, zeros included; ValueError if a t term is present."""
        digits = _digits(self._v, self._w)
        if len(digits) > self._s:
            raise ValueError(f"polynomial carries the t marker: {self}")
        return digits

    def items(self) -> list[tuple[tuple[int, int], int]]:
        s = self._s
        return [(divmod(k, s), c)
                for k, c in enumerate(_digits(self._v, self._w)) if c]

    def coefficient(self, et: int, eq: int) -> int:
        return dict(self.items()).get((et, eq), 0)

    def is_zero(self) -> bool:
        return not self._v

    def is_constant(self) -> bool:
        # any term past slot 0 makes |v| at least 2^(w-1)
        return self._v.bit_length() < self._w

    def constant_value(self) -> int:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._v

    def __bool__(self) -> bool:
        return bool(self._v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly2):
            if self._w == other._w and self._s == other._s:
                return self._v == other._v
            return self.items() == other.items()
        if isinstance(other, int):
            return self._v == other and other.bit_length() < self._w
        return NotImplemented

    def __neg__(self) -> Poly2:
        return Poly2._make(-self._v, self._w, self._s, self._meta)

    def __add__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        if not other._v:
            return self
        if not self._v:
            return other
        ba, ta, da, qa = self._meta
        bb, tb, db, qb = other._meta
        tdeg, qdeg = max(da, db), max(qa, qb)
        bits = max(ba, bb) + 1
        w, s = _target((self, other), bits, qdeg + 1)
        return Poly2._make(_conv(self, w, s) + _conv(other, w, s), w, s,
                           (bits, min(ta + tb, (tdeg + 1) * (qdeg + 1)),
                            tdeg, qdeg))

    __radd__ = __add__

    def __sub__(self, other: Poly2 | int) -> Poly2:
        if not isinstance(other, (Poly2, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> Poly2:
        return Poly2.constant(other) - self

    def __mul__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return dot((self,), (other,))

    __rmul__ = __mul__

    def substitute(self, marker: str, value: int) -> Poly2:
        """Set one marker to 0 or 1, collapsing its exponents away: on the
        decoded digits cut into q-rows, one for each power of t, t -> 0
        keeps row 0 and t -> 1 sums the rows; q -> 0 takes the head of each
        row and q -> 1 its sum."""
        if marker not in _MARKERS:
            raise ValueError(f"unknown marker {marker!r}, expected 't' or 'q'")
        if value not in (0, 1):
            raise ValueError(f"substitution value must be 0 or 1, got {value!r}")
        s = self._s
        digits = _digits(self._v, self._w)
        rows = [digits[k: k + s] for k in range(0, len(digits), s)]
        if marker == "q":
            return Poly2._packed([row[0] if value == 0 else sum(row)
                                  for row in rows], 1)
        if value == 0:
            return Poly2._packed(rows[0] if rows else [], s)
        return Poly2._packed(list(map(sum, zip_longest(*rows, fillvalue=0))), s)

    def to_json_terms(self) -> list[dict[str, int]]:
        """Deterministic term list: [{'et':, 'eq':, 'num':, 'den': 1}, ...].

        ``den`` is always 1; it is kept so the JSON schema stays stable.
        """
        return [{"et": et, "eq": eq, "num": c, "den": 1}
                for (et, eq), c in self.items()]

    def __str__(self) -> str:
        return _signed_sum((c, _power("t", et) + _power("q", eq))
                           for (et, eq), c in self.items())

    def __repr__(self) -> str:
        return f"Poly2({self})"


class Series:
    """Power series in x truncated at a fixed order, with Poly2 coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Poly2]):
        if not coeffs:
            raise ValueError("a series needs at least the x^0 coefficient")
        if not all(isinstance(c, Poly2) for c in coeffs):
            raise TypeError("series coefficients must be Poly2")
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls([Poly2.zero()] * (order + 1))

    @classmethod
    def one(cls, order: int) -> Series:
        return cls([Poly2.one()] + [Poly2.zero()] * order)

    @classmethod
    def constant(cls, value: Poly2 | int, order: int) -> Series:
        head = value if isinstance(value, Poly2) else Poly2.constant(value)
        return cls([head] + [Poly2.zero()] * order)

    @classmethod
    def from_x_coefficients(cls, coeffs: Sequence[Poly2 | int], order: int) -> Series:
        """Series with the given x-coefficients, zero-padded to the order."""
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the order admits")
        out = [c if isinstance(c, Poly2) else Poly2.constant(c) for c in coeffs]
        out.extend(Poly2.zero() for _ in range(order + 1 - len(out)))
        return cls(out)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> Poly2:
        """Coefficient of x^n; n must not exceed the order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient x^{n} not tracked at order {self.order}")
        return self._coeffs[n]

    def coefficients(self) -> tuple[Poly2, ...]:
        return self._coeffs

    def truncate(self, order: int) -> Series:
        if order < 0:
            raise ValueError(f"cannot truncate to negative order {order}")
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self._coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Series):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def _coerce(self, other) -> Series | None:
        if isinstance(other, Series):
            return other
        if isinstance(other, (Poly2, int)):
            return Series.constant(other, self.order)
        return None

    def __add__(self, other) -> Series:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Series([a + b for a, b in zip(self._coeffs, rhs._coeffs)])

    __radd__ = __add__

    def __sub__(self, other) -> Series:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Series([a - b for a, b in zip(self._coeffs, rhs._coeffs)])

    def __rsub__(self, other) -> Series:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other) -> Series:
        if isinstance(other, (Poly2, int)):
            return Series([c * other for c in self._coeffs])
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self._coeffs[: order + 1], other._coeffs[: order + 1]
        ma, mb = [c._meta for c in a], [c._meta for c in b]
        metas = [_dot_meta(ma, mb[m::-1]) for m in range(order + 1)]
        # every operand is packed, so each must fit the layout too
        fit = metas + ma + mb
        w, s = _target(a + b, max(0, *(m[0] for m in fit)),
                       max(0, *(m[3] for m in fit)) + 1)
        av = [_split(_conv(c, w, s)) for c in a]
        bv = [_split(_conv(c, w, s)) for c in b]
        return Series([Poly2._make(_split_dot(av, bv[m::-1]), w, s, metas[m])
                       for m in range(order + 1)])

    __rmul__ = __mul__

    def shift_x(self) -> Series:
        """Multiply by x.  The result's order grows by one: every tracked
        coefficient of the operand is still exact in the product."""
        return Series((Poly2.zero(),) + self._coeffs)

    def substitute(self, marker: str, value: int) -> Series:
        return Series([c.substitute(marker, value) for c in self._coeffs])

    def sqrt(self) -> Series:
        """Square root of a series with constant term exactly 1.

        J.C.P. Miller's recurrence for powers of a series (Knuth, TAOCP
        Vol. 2, 4.7) at the power 1/2, with d the radicand's x-degree:
        n*(2*y_n) = sum((3k - 2n) * s_k * y_(n-k), 0 < k <= min(n, d)).
        The sum is divided by n exactly and each term of 2*y_n halved
        exactly; an odd term means the root has no integer coefficients,
        and raises ValueError naming its x-index.

        The layout is fixed before y_1 from an l1 majorant, as in
        ``inverse``: V_0 = 1 and V_n = ceil(sum(|3k - 2n| * |s_k|_1 *
        V_(n-k)) / 2n) bound |y_n|_1, so 2 * max V_n bounds every slot of
        every 2*y_n and, as |s_n|_1 <= 2*V_n, of every s_k; q-degrees are
        at most n * max(qdeg(s_k) / k).  Each y_n keeps the exact bounds of
        the one decode that halves it.
        """
        if self._coeffs[0] != 1:
            raise ValueError("sqrt needs constant term exactly 1, got "
                             f"{self._coeffs[0]}")
        order = self.order
        tail = [(c._s, _digits(c._v, c._w)) for c in self._coeffs[1:]]
        d = max((k for k, (_, dg) in enumerate(tail, 1) if dg), default=0)
        tail = tail[:d]
        norms = [sum(map(abs, dg)) for _, dg in tail]
        majorant = [1]
        for n in range(1, order + 1):
            v = sum(abs(3 * k - 2 * n) * norms[k - 1] * majorant[n - k]
                    for k in range(1, min(n, d) + 1))
            majorant.append(-(-v // (2 * n)))
        w = _slot_width(max(majorant).bit_length() + 1)
        s = max([order * _exact_meta(dg, s0)[3] // k
                 for k, (s0, dg) in enumerate(tail, 1) if dg], default=0) + 1
        sv = [_split(_pack(_restride(dg, s0, s), w)) for s0, dg in tail]
        y = [Poly2._make(1, w, s, (1, 1, 0, 0))]
        yv = [(1, 0)]   # y, split
        for n in range(1, order + 1):
            twice = sum(((3 * k - 2 * n) * a * b) << (za + zb)
                        for k, (a, za), (b, zb)
                        in zip(range(1, n + 1), sv, reversed(yv))) // n
            digits = _digits(twice, w)
            meta = _exact_meta(digits, s)
            if any(c & 1 for c in digits):
                raise ValueError("sqrt has no integer coefficient at x^"
                                 f"{n}: ({Poly2._make(twice, w, s, meta)})/2")
            half = twice >> 1
            y.append(Poly2._make(half, w, s, (max(meta[0] - 1, 0),) + meta[1:]))
            yv.append(_split(half))
        return Series(y)

    def inverse(self) -> Series:
        """Multiplicative inverse of a series whose x^0 term is 1 or -1,
        the units of the coefficient ring; each is its own inverse:
        u_n = -u_0 * sum(s_k * u_(n-k), 0 < k <= n).

        The layout is fixed before u_1 from an l1 majorant, |p|_1 being
        the sum of the absolute values of the terms of p: V_0 = 1 and
        V_n = sum(|s_k|_1 * V_(n-k), 0 < k <= n) bound |u_n|_1, so the
        largest V_n bounds every slot of every u_n and, as |s_k|_1 <= V_k,
        of every s_k.  Each u_n stores bits(V_n) and the width rule's
        term and degree bounds, so nothing is re-packed or decoded.  For
        J, which inverts 1 - x*t*f, V_n = Cat(n).
        """
        head = self._coeffs[0]
        if head != 1 and head != -1:
            raise ValueError(f"inverse needs an x^0 term of 1 or -1, got {head}")
        negate = head.constant_value() == 1
        tail = [(c._s, _digits(c._v, c._w)) for c in self._coeffs[1:]]
        s_bounds = [_exact_meta(d, s0) for s0, d in tail]
        norms = [sum(map(abs, d)) for _, d in tail]
        majorant, u_bounds = [1], [(1, 1, 0, 0)]
        for _ in tail:
            v = sum(map(mul, norms, majorant[::-1]))
            majorant.append(v)
            u_bounds.append((v.bit_length(),)
                            + _dot_meta(s_bounds, u_bounds[::-1])[1:]
                            if v else _ZERO)
        w = _slot_width(max(majorant).bit_length())
        s = max(0, *(m[3] for m in s_bounds + u_bounds)) + 1
        sv = [_split(_pack(_restride(d, s0, s), w)) for s0, d in tail]
        u, uv = [head._v], [(head._v, 0)]   # u, and u split
        for _ in tail:
            v = _split_dot(sv, uv[::-1])
            u.append(-v if negate else v)
            uv.append(_split(u[-1]))
        return Series([Poly2._make(v, w, s, m) for v, m in zip(u, u_bounds)])

    def to_json(self) -> list[dict]:
        """[{'n': 0, 'terms': [{'et':, 'eq':, 'num':, 'den':}, ...]}, ...]"""
        return [{"n": n, "terms": c.to_json_terms()}
                for n, c in enumerate(self._coeffs)]

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self._coeffs):
            if c.is_zero():
                continue
            body = str(c)
            if "+" in body or "- " in body:
                body = f"({body})"
            if n == 0:
                parts.append(body)
            elif body == "1":
                parts.append("x" if n == 1 else f"x^{n}")
            else:
                parts.append(f"{body}*x" if n == 1 else f"{body}*x^{n}")
        if not parts:
            parts.append("0")
        return " + ".join(parts) + f" + O(x^{self.order + 1})"

    def __repr__(self) -> str:
        return f"Series(order={self.order}, {self})"


def _product(x: Poly2, y: Poly2, w: int, s: int) -> int:
    """The int of x * y in layout (w, s), which both factors and the
    product fit.  A literal factor, one of at most _FEW_TERMS terms by its
    stored bound (y first, as ``dot`` and ``Series`` pass the literal
    second), times the other is the sum of c * (v << (e_t*s + e_q)*w)
    over the literal's terms c*t^e_t*q^e_q, v the other's int: the same
    int as the multiply, from O(size) shifted adds, and only the literal
    is decoded."""
    if y._meta[1] <= _FEW_TERMS:
        x, y = y, x
    if x._meta[1] <= _FEW_TERMS:
        v = _conv(y, w, s)
        return sum(c * (v << (et * s + eq) * w) for (et, eq), c in x.items())
    return _conv(x, w, s) * _conv(y, w, s)


def dot(a: Sequence[Poly2], b: Sequence[Poly2]) -> Poly2:
    """Sum of a[i] * b[i] over the common length of a and b: one bignum
    multiply, or for a literal factor a few shifted adds (``_product``),
    per pair with no zero factor, in one layout (``_target``)."""
    pairs = [(x, y) for x, y in zip(a, b) if x._v and y._v]
    if not pairs:
        return Poly2.zero()
    xs, ys = zip(*pairs)
    meta = _dot_meta([x._meta for x in xs], [y._meta for y in ys])
    w, s = _target(xs + ys, meta[0], meta[3] + 1)
    return Poly2._make(sum(_product(x, y, w, s) for x, y in pairs), w, s, meta)


def fixed_point_solve(step: Callable[[list[Poly2]], Poly2],
                      order: int) -> Series:
    """Solve a series coefficient by coefficient, for x^0 up to the order.

    ``step(known)`` receives the list of the n coefficients solved so far
    (x^0 .. x^(n-1)) and returns the x^n coefficient; it must not modify
    the list.  Each coefficient is computed once and never revised
    (online solving, van der Hoeven 2002).  A step may read all of them,
    for a fixed-point equation S = 1 + x*B(S), as x^n of x*B(S) reads only
    x^0 .. x^(n-1); the last few, for a P-recurrence in n; or only their
    count n, for a table of coefficients built ahead.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    known: list[Poly2] = []
    for _ in range(order + 1):
        known.append(step(known))
    return Series(known)
