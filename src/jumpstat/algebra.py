"""Exact polynomial and truncated power series arithmetic.

Two layers:

* ``Poly2`` — a sparse polynomial in the two markers ``t`` and ``q`` with
  integer coefficients.  This is the coefficient ring.
* ``Series`` — a power series in ``x`` truncated at a fixed order, whose
  coefficients are ``Poly2`` values.  A series of order N represents its
  value modulo x^(N+1); arithmetic on operands of different orders
  truncates to the smaller order, so precision loss is always explicit.

Every product of two polynomials, and every convolution of series
coefficients, goes through ``dot``: the one loop that multiplies terms.

Every series the package builds counts trees, so every coefficient is an
``int`` and all arithmetic is exact integer arithmetic.  The two
operations that would divide stay in the ring or refuse: ``sqrt`` halves
exactly and raises on an odd coefficient, and ``inverse`` needs an x^0
term of 1 or -1.  Serialization still reports each coefficient as a
numerator over the denominator 1.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

_MARKERS = ("t", "q")


class Poly2:
    """Sparse polynomial in the markers t and q with integer coefficients.

    Terms map exponent pairs (e_t, e_q) to nonzero coefficients; zero
    coefficients are never stored, so the zero polynomial has no terms.
    Instances are immutable by convention: no method mutates ``_terms``.
    """

    __slots__ = ("_terms",)

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
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, int], int]) -> Poly2:
        """Wrap terms without checking or copying them: the caller built the
        dict from valid terms, nonnegative exponents and nonzero ints."""
        out = cls.__new__(cls)
        out._terms = terms
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

    def items(self) -> Iterable[tuple[tuple[int, int], int]]:
        return self._terms.items()

    def coefficient(self, et: int, eq: int) -> int:
        return self._terms.get((et, eq), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def constant_value(self) -> int:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((0, 0), 0)

    def degree_t(self) -> int:
        """Largest t-exponent, or -1 for the zero polynomial."""
        return max((et for et, _ in self._terms), default=-1)

    def degree_q(self) -> int:
        """Largest q-exponent, or -1 for the zero polynomial."""
        return max((eq for _, eq in self._terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly2):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __neg__(self) -> Poly2:
        return Poly2({key: -v for key, v in self._terms.items()})

    def __add__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for key, v in other._terms.items():
            s = acc.get(key, 0) + v
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
        return Poly2._trusted(acc)

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
            if not other:
                return Poly2.zero()
            return Poly2({key: v * other for key, v in self._terms.items()})
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
        acc: dict[tuple[int, int], int] = {}
        for key, v in self._terms.items():
            if value == 0 and key[pos] != 0:
                continue
            new = (0, key[1]) if pos == 0 else (key[0], 0)
            s = acc.get(new, 0) + v
            if s:
                acc[new] = s
            elif new in acc:
                del acc[new]
        return Poly2._trusted(acc)

    def to_json_terms(self) -> list[dict[str, int]]:
        """Deterministic term list: [{'et':, 'eq':, 'num':, 'den': 1}, ...].

        ``den`` is always 1; it is kept so the JSON schema stays stable.
        """
        return [{"et": et, "eq": eq, "num": self._terms[(et, eq)], "den": 1}
                for (et, eq) in sorted(self._terms)]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (et, eq) in sorted(self._terms):
            coeff = self._terms[(et, eq)]
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
        return " ".join(parts)

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
        a, b = self._coeffs, other._coeffs
        return Series([dot(a[: m + 1], b[m::-1]) for m in range(order + 1)])

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
        y: list[Poly2] = [Poly2.one()]
        for n in range(1, self.order + 1):
            twice = self._coeffs[n] - dot(y[1:], y[:0:-1])
            if any(v & 1 for _, v in twice.items()):
                raise ValueError(
                    f"sqrt has no integer coefficient at x^{n}: ({twice})/2")
            y.append(Poly2({key: v >> 1 for key, v in twice.items()}))
        return Series(y)

    def inverse(self) -> Series:
        """Multiplicative inverse of a series whose x^0 term is 1 or -1,
        the units of the coefficient ring; each is its own inverse."""
        head = self._coeffs[0]
        if head != 1 and head != -1:
            raise ValueError(f"inverse needs an x^0 term of 1 or -1, got {head}")
        minus_unit = -head.constant_value()
        u: list[Poly2] = [head]
        for n in range(1, self.order + 1):
            u.append(dot(self._coeffs[1: n + 1], u[::-1]) * minus_unit)
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
    """Sum of a[i] * b[i] over the common length of a and b.

    This is the one term-product loop: every term of every product is
    accumulated into a single dict, so no intermediate Poly2 is built per
    product and no partial sum is copied.
    """
    acc: dict[tuple[int, int], int] = {}
    for pa, pb in zip(a, b):
        for (at, aq), av in pa._terms.items():
            for (bt, bq), bv in pb._terms.items():
                key = (at + bt, aq + bq)
                s = acc.get(key, 0) + av * bv
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
    return Poly2._trusted(acc)


def fixed_point_solve(step: Callable[[list[Poly2]], Poly2],
                      order: int) -> Series:
    """Solve a series coefficient by coefficient, for x^0 up to the order.

    ``step(known)`` receives the list of the n coefficients solved so far
    (x^0 .. x^(n-1)) and returns the x^n coefficient; it must not modify
    the list.  For an equation S = 1 + x*B(S) the x^n coefficient of
    x*B(S) reads only x^0 .. x^(n-1), so each coefficient is computed once
    and never revised (online solving, van der Hoeven 2002).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    known: list[Poly2] = []
    for _ in range(order + 1):
        known.append(step(known))
    return Series(known)
