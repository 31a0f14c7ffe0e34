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
polynomials, where a term loop would do one per pair of terms.

The width rule.  Each ``Poly2`` carries bounds on the bit length of its
coefficients, its term count and its two degrees.  A coefficient of
sum(a_i * b_i) is at most count * (2^top - 1), with top the largest
bits(a_i) + bits(b_i) and count the sum of min(terms(a_i), terms(b_i)),
since a term of a product takes one term of each factor; its slot is
that bit length plus a sign bit, rounded up to whole bytes.  Each
product checks this bound first and packs its operands wider when their
layout is too narrow, so nothing wraps.  ``Series.__mul__`` picks one
layout for all of its products; ``inverse``, ``sqrt`` and
``fixed_point_solve`` keep one for the whole solve, re-check it before
each coefficient from the exact bounds of the coefficients solved so
far, and re-pack with room to grow when it would overflow.
"""

from __future__ import annotations

from operator import add, mul
from typing import Callable, Iterable, Mapping, Sequence

_MARKERS = ("t", "q")

# bounds (bits, terms, t-degree, q-degree, exact) of the zero polynomial;
# of a sum with no nonzero product; and of a zero factor in a product
# bound, which drops out of every max
_ZERO_META = (0, 0, 0, 0, True)
_NO_META = (0, 0, 0, 0, False)
_ABSENT = (-(1 << 40), 0, -(1 << 40), -(1 << 40), True)


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


def _exact_meta(digits: list[int], s: int) -> tuple:
    if not digits:
        return _ZERO_META
    qdeg = (len(digits) - 1 if len(digits) <= s
            else max(k % s for k, c in enumerate(digits) if c))
    return (max(map(abs, digits)).bit_length(), len(digits) - digits.count(0),
            (len(digits) - 1) // s, qdeg, True)


def _metas(polys: Iterable[Poly2]) -> list[tuple]:
    return [p._meta if p._v else _ABSENT for p in polys]


def _dot_meta(a: list[tuple], b: list[tuple]) -> tuple:
    """Bounds of sum(a_i * b_i), by the width rule, from the bounds of
    the factors, paired up to the shorter list."""
    if not a or not b:
        return _NO_META
    ba, ta, da, qa, _ = zip(*a)
    bb, tb, db, qb, _ = zip(*b)
    count = sum(map(min, ta, tb))
    if not count:
        return _NO_META
    top = max(map(add, ba, bb))
    tdeg, qdeg = max(map(add, da, db)), max(map(add, qa, qb))
    return (((count << top) - count).bit_length(),
            min(sum(map(mul, ta, tb)), (tdeg + 1) * (qdeg + 1)), tdeg, qdeg,
            False)


def _target(polys: Sequence[Poly2], bits: int, stride: int) -> tuple[int, int]:
    """Layout for a result of up to ``bits``-bit coefficients and q-degree
    below ``stride``: the largest operand's, when it is wide enough, so
    that only smaller ones are re-packed; else the narrowest that fits.
    The stride of a t-free polynomial does not change its int."""
    nonzero = [p for p in polys if p._v]
    if nonzero:
        best = max(nonzero, key=lambda p: p._v.bit_length())
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
    if p._s == s:
        return _pack(_digits(p._v, p._w), w)
    terms = p.items()
    return _pack(_spread(terms, terms[-1][0][0], s), w)


def _relaid(p: Poly2, w: int, s: int) -> Poly2:
    if p._w == w and p._s == s:
        return p
    return Poly2._make(_conv(p, w, s), w, s, p._meta)


def _tight(p: Poly2) -> Poly2:
    """``p`` with exact bounds, decoding it once if they are not."""
    if not p._meta[4]:
        p._meta = _exact_meta(_digits(p._v, p._w), p._s)
    return p


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


def _grown(bits: int, qdeg: int, w: int, s: int, n: int,
           order: int) -> tuple[int, int]:
    """Layout for step n of an online solve up to ``order`` whose next
    coefficient needs ``bits`` and q-degree ``qdeg``.  A dimension that
    falls short grows to twice the need, or to the need scaled from n to
    the order when that is less, so a solve re-packs a few times, not at
    every step."""
    if bits >= w:
        w = _slot_width(min(2 * bits, bits * (order + 1) // n))
    if qdeg >= s:
        s = min(2 * qdeg, qdeg * (order + 1) // n) + 1
    return w, s


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
        self._v, self._w, self._s, self._meta = 0, 8, 1, _ZERO_META
        if clean:
            bits = max(map(abs, clean.values())).bit_length()
            tdeg = max(et for et, _ in clean)
            s = max(eq for _, eq in clean) + 1
            self._w, self._s = _slot_width(bits), s
            self._v = _pack(_spread(clean.items(), tdeg, s), self._w)
            self._meta = (bits, len(clean), tdeg, s - 1, True)

    @classmethod
    def _make(cls, v: int, w: int, s: int, meta: tuple) -> Poly2:
        out = cls.__new__(cls)
        out._v, out._w, out._s, out._meta = v, w, s, meta
        return out

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

    @classmethod
    def _from_q_coefficients(cls, coeffs: list[int]) -> Poly2:
        """sum(coeffs[k] * q^k), trusting that the coefficients are ints.
        The slot has room for the sum of the coefficients; see
        ``substitute``."""
        terms = len(coeffs) - coeffs.count(0)
        if not terms:
            return cls()
        while not coeffs[-1]:
            coeffs = coeffs[:-1]
        bits = max(map(abs, coeffs)).bit_length()
        w = _slot_width(((terms << bits) - terms).bit_length())
        return cls._make(_pack(coeffs, w), w, len(coeffs),
                         (bits, terms, 0, len(coeffs) - 1, True))

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

    def degree_t(self) -> int:
        """Largest t-exponent, or -1 for the zero polynomial."""
        return _tight(self)._meta[2] if self._v else -1

    def degree_q(self) -> int:
        """Largest q-exponent, or -1 for the zero polynomial."""
        return _tight(self)._meta[3] if self._v else -1

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
        ba, ta, da, qa, _ = self._meta
        bb, tb, db, qb, _ = other._meta
        tdeg, qdeg = max(da, db), max(qa, qb)
        bits = max(ba, bb) + 1
        w, s = _target((self, other), bits, qdeg + 1)
        return Poly2._make(_conv(self, w, s) + _conv(other, w, s), w, s,
                           (bits, min(ta + tb, (tdeg + 1) * (qdeg + 1)),
                            tdeg, qdeg, False))

    __radd__ = __add__

    def __sub__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
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
        """Set one marker to 0 or 1, collapsing its exponents away."""
        if marker not in _MARKERS:
            raise ValueError(f"unknown marker {marker!r}, expected 't' or 'q'")
        if value not in (0, 1):
            raise ValueError(f"substitution value must be 0 or 1, got {value!r}")
        pos = _MARKERS.index(marker)
        bits, terms = self._meta[:2]
        if (value and not self._meta[3 - pos]
                and ((terms << bits) - terms).bit_length() < self._w):
            # A one-marker polynomial at 1 is the sum of its coefficients,
            # which a slot has room for here.  Since 2^w = 1 modulo
            # 2^w - 1, adding the two halves of the int repeatedly folds
            # it into one slot congruent to that sum.
            v, w, m = self._v, self._w, (1 << self._w) - 1
            size = v.bit_length() // w + 1
            while size > 1:
                size = (size + 1) >> 1
                v = (v >> (size * w)) + (v & ((1 << (size * w)) - 1))
            v %= m
            v = v - m if v >> (w - 1) else v
            return Poly2._make(v, _slot_width(v.bit_length()), 1,
                               (v.bit_length(), 1, 0, 0, True) if v else _ZERO_META)
        acc: dict[tuple[int, int], int] = {}
        for key, v in self.items():
            if value == 0 and key[pos] != 0:
                continue
            new = (0, key[1]) if pos == 0 else (key[0], 0)
            acc[new] = acc.get(new, 0) + v
        return Poly2({key: v for key, v in acc.items() if v})

    def to_json_terms(self) -> list[dict[str, int]]:
        """Deterministic term list: [{'et':, 'eq':, 'num':, 'den': 1}, ...].

        ``den`` is always 1; it is kept so the JSON schema stays stable.
        """
        return [{"et": et, "eq": eq, "num": c, "den": 1}
                for (et, eq), c in self.items()]

    def __str__(self) -> str:
        parts = []
        for (et, eq), coeff in self.items():
            factors = []
            if et:
                factors.append("t" if et == 1 else f"t^{et}")
            if eq:
                factors.append("q" if eq == 1 else f"q^{eq}")
            mag = coeff if coeff > 0 else -coeff
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

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
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self._coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def first_nonzero(self) -> tuple[int, Poly2] | None:
        """Index and value of the lowest nonzero coefficient, or None."""
        for n, c in enumerate(self._coeffs):
            if not c.is_zero():
                return n, c
        return None

    def prefix_equal(self, other: Series) -> bool:
        """Equality up to the smaller of the two orders."""
        upto = min(self.order, other.order)
        return self._coeffs[: upto + 1] == other._coeffs[: upto + 1]

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
        upto = min(self.order, rhs.order)
        return Series([self._coeffs[n] + rhs._coeffs[n] for n in range(upto + 1)])

    __radd__ = __add__

    def __sub__(self, other) -> Series:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        upto = min(self.order, rhs.order)
        return Series([self._coeffs[n] - rhs._coeffs[n] for n in range(upto + 1)])

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
        ma, mb = _metas(a), _metas(b)
        metas = [_dot_meta(ma, mb[m::-1]) for m in range(order + 1)]
        # every operand is packed, so each must fit the layout too
        fit = metas + ma + mb
        w, s = _target(a + b, max(m[0] for m in fit), max(m[3] for m in fit) + 1)
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

        Coefficients come from expanding y*y = s: the x^n coefficient of
        y*y is 2*y_n + sum(y_i * y_{n-i}, 0 < i < n), so 2*y_n is
        s_n - sum(y_i * y_{n-i}, 0 < i < n).  Each of its terms is halved
        exactly; an odd term means the root has no integer coefficients,
        and raises ValueError naming its x-index.
        """
        if self._coeffs[0] != 1:
            raise ValueError("sqrt needs constant term exactly 1, got "
                             f"{self._coeffs[0]}")
        order = self.order
        y: list[Poly2] = [Poly2.one()]     # all in the layout (w, s)
        vals: list[tuple[int, int]] = []   # y, split
        bounds: list[tuple] = []           # of y_1 .. y_(n-1)
        w = s = 0
        for n in range(1, order + 1):
            sn = _tight(self._coeffs[n])
            bits, terms, _, qdeg, _ = _dot_meta(bounds, bounds[::-1])
            if sn._v:
                bits = max(bits, sn._meta[0]) + 1 if terms else sn._meta[0]
                qdeg = max(qdeg, sn._meta[3])
            if bits >= w or qdeg >= s:
                w, s = _grown(bits, qdeg, w, s, n, order)
                y = [_relaid(c, w, s) for c in y]
                vals = [_split(c._v) for c in y]
            twice = _conv(sn, w, s) - _split_dot(vals[1:n], vals[n - 1:0:-1])
            digits = _digits(twice, w)
            meta = _exact_meta(digits, s)
            if any(c & 1 for c in digits):
                raise ValueError("sqrt has no integer coefficient at x^"
                                 f"{n}: ({Poly2._make(twice, w, s, meta)})/2")
            y.append(Poly2._make(twice >> 1, w, s,
                                 (max(meta[0] - 1, 0),) + meta[1:]))
            vals.append(_split(twice >> 1))
            bounds += _metas(y[-1:])
        return Series(y)

    def inverse(self) -> Series:
        """Multiplicative inverse of a series whose x^0 term is 1 or -1,
        the units of the coefficient ring; each is its own inverse:
        u_n = -u_0 * sum(s_k * u_(n-k), 0 < k <= n)."""
        head = self._coeffs[0]
        if head != 1 and head != -1:
            raise ValueError(f"inverse needs an x^0 term of 1 or -1, got {head}")
        negate = head.constant_value() == 1
        order, s_all = self.order, self._coeffs
        u: list[Poly2] = [_tight(head)]    # all in the layout (w, s)
        sv: list[tuple[int, int]] = []     # s_1 .., split, in the layout
        uv: list[tuple[int, int]] = []     # u, split
        s_bounds, u_bounds = _metas(_tight(c) for c in s_all[1:]), _metas(u)
        w = s = 0
        for n in range(1, order + 1):
            meta = _dot_meta(s_bounds, u_bounds[::-1])
            if meta[0] >= w or meta[3] >= s:
                w, s = _grown(meta[0], meta[3], w, s, n, order)
                sv = [_split(_conv(c, w, s)) for c in s_all[1:n]]
                u = [_relaid(c, w, s) for c in u]
                uv = [_split(c._v) for c in u]
            # s_n pairs with u_0 = +-1, so the bound covers it
            sv.append(_split(_conv(s_all[n], w, s)))
            v = _split_dot(sv, uv[::-1])
            u.append(_tight(Poly2._make(-v if negate else v, w, s, meta)))
            uv.append(_split(u[-1]._v))
            u_bounds += _metas(u[-1:])
        return Series(u)

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


def dot(a: Sequence[Poly2], b: Sequence[Poly2]) -> Poly2:
    """Sum of a[i] * b[i] over the common length of a and b: one bignum
    multiply per pair with no zero factor, in one layout (``_target``)."""
    pairs = [(x, y) for x, y in zip(a, b) if x._v and y._v]
    if not pairs:
        return Poly2.zero()
    xs, ys = zip(*pairs)
    meta = _dot_meta([x._meta for x in xs], [y._meta for y in ys])
    w, s = _target(xs + ys, meta[0], meta[3] + 1)
    return Poly2._make(sum(_conv(x, w, s) * _conv(y, w, s) for x, y in pairs),
                       w, s, meta)


def fixed_point_solve(step: Callable[[list[Poly2]], Poly2],
                      order: int) -> Series:
    """Solve a series coefficient by coefficient, for x^0 up to the order.

    ``step(known)`` receives the list of the n coefficients solved so far
    (x^0 .. x^(n-1)) and returns the x^n coefficient; it must not modify
    the list.  For an equation S = 1 + x*B(S) the x^n coefficient of
    x*B(S) reads only x^0 .. x^(n-1), so each coefficient is computed once
    and never revised (online solving, van der Hoeven 2002).

    Before each step the known coefficients are put in one layout wide
    enough for the convolution of the prefix with itself, the product a
    quadratic step takes; the step's own products re-check their bounds.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    known: list[Poly2] = []
    bounds: list[tuple] = []
    w = s = 0
    for n in range(order + 1):
        if known:
            meta = _dot_meta(bounds, bounds[::-1])
            last = known[-1]._meta
            bits, qdeg = max(meta[0], last[0]), max(meta[3], last[3])
            if bits >= w or qdeg >= s:
                w, s = _grown(bits, qdeg, w, s, n, order)
                known = [_relaid(c, w, s) for c in known]
            else:
                known[-1] = _relaid(known[-1], w, s)
        known.append(_tight(step(known)))
        bounds += _metas(known[-1:])
    return Series(known)
