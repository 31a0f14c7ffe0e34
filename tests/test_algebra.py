from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpstat.algebra import Poly2, Series, dot, fixed_point_solve
from jumpstat.trees import catalan


def poly(terms):
    return Poly2(terms)


def consts(series):
    return [c.constant_value() for c in series.coefficients()]


# --- Poly2 -------------------------------------------------------------------

def test_poly_zero_terms_are_dropped():
    p = poly({(0, 0): 0, (1, 2): 3})
    assert list(p.items()) == [((1, 2), 3)]
    assert poly({(1, 1): 2}) - poly({(1, 1): 2}) == Poly2.zero()
    assert not Poly2.zero()


def test_poly_arithmetic():
    p = poly({(1, 1): 1})          # t*q
    q = poly({(2, 0): 1})          # t^2
    assert p + q == poly({(1, 1): 1, (2, 0): 1})
    assert (1 + p) * (1 + p) == poly({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    assert 2 * p - p == p
    assert p * 3 + p * -2 == p
    assert (p - p) * q == Poly2.zero()


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 0.5])
def test_poly_rejects_non_integer_coefficients(value):
    with pytest.raises(TypeError):
        poly({(0, 0): value})
    with pytest.raises(TypeError):
        Poly2.one() * value


def test_poly_substitute():
    p = poly({(1, 1): 1, (2, 0): 1})   # t*q + t^2
    assert p.substitute("t", 1) == poly({(0, 1): 1, (0, 0): 1})
    assert p.substitute("t", 0) == Poly2.zero()
    assert p.substitute("q", 0) == poly({(2, 0): 1})
    assert p.substitute("q", 1) == poly({(1, 0): 1, (2, 0): 1})
    with pytest.raises(ValueError):
        p.substitute("x", 1)
    with pytest.raises(ValueError):
        p.substitute("t", 2)


def test_poly_degrees_and_constant():
    p = poly({(2, 1): 1, (0, 3): -3})
    assert p.degree_t() == 2 and p.degree_q() == 3
    assert Poly2.zero().degree_t() == -1
    assert type(Poly2.constant(-7).constant_value()) is int
    assert Poly2.constant(-7).constant_value() == -7
    assert type(p.coefficient(0, 3)) is int and p.coefficient(0, 3) == -3
    assert type(p.coefficient(5, 5)) is int and p.coefficient(5, 5) == 0
    with pytest.raises(ValueError):
        p.constant_value()


def test_poly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        poly({(-1, 0): 1})


def test_poly_rendering():
    assert str(poly({(1, 1): 1, (2, 0): 1})) == "t*q + t^2"
    assert str(poly({(0, 0): -1, (1, 0): 5})) == "-1 + 5*t"
    assert str(Poly2.zero()) == "0"


# --- Series ------------------------------------------------------------------

def test_series_mul_truncates_to_smaller_order():
    a = Series.from_x_coefficients([1, 1], 4)       # 1 + x
    b = Series.from_x_coefficients([1, -1], 2)      # 1 - x
    prod = a * b
    assert prod.order == 2
    assert consts(prod) == [1, 0, -1]


def test_series_shift_x_extends_order():
    a = Series.from_x_coefficients([1, 2], 3)
    shifted = a.shift_x()
    assert shifted.order == 4
    assert consts(shifted) == [0, 1, 2, 0, 0]


def test_series_identity_and_scalars():
    a = Series.from_x_coefficients([3, 1, 4], 2)
    assert a * Series.one(2) == a
    assert a * 1 == a
    assert (a * -2).coefficient(0) == Poly2.constant(-6)
    assert (1 - a).coefficient(0) == Poly2.constant(-2)
    assert (a - a).is_zero()


def test_series_coefficient_bounds():
    a = Series.one(3)
    with pytest.raises(IndexError):
        a.coefficient(4)
    with pytest.raises(ValueError):
        a.truncate(5)
    with pytest.raises(ValueError):
        Series([])


def test_series_substitute_collapses_markers():
    t = Poly2.term(1, et=1)
    a = Series.from_x_coefficients([Poly2.one(), t, t * t], 2)
    at1 = a.substitute("t", 1)
    assert consts(at1) == [1, 1, 1]
    assert consts(a.substitute("t", 0)) == [1, 0, 0]


def test_sqrt_of_one_minus_4x():
    s = Series.from_x_coefficients([1, -4], 6).sqrt()
    assert consts(s) == [1, -2, -2, -4, -10, -28, -84]
    assert (s * s).prefix_equal(Series.from_x_coefficients([1, -4], 6))


def test_sqrt_with_marker_coefficients():
    q = Poly2.term(1, eq=1)
    radicand = Series.from_x_coefficients([Poly2.one(), q * -4], 8)
    root = radicand.sqrt()
    assert root.coefficient(1) == q * -2
    assert root.coefficient(2) == q * q * -2
    assert (root * root) == radicand


def test_sqrt_refuses_an_odd_coefficient():
    # 1 + x would need the root 1 + x/2 + ...
    with pytest.raises(ValueError, match=r"x\^1:"):
        Series.from_x_coefficients([1, 1], 3).sqrt()
    # (1 + x)^2 + x^2: 2*y_2 = 2 - 1 is odd
    with pytest.raises(ValueError, match=r"x\^2:"):
        Series.from_x_coefficients([1, 2, 2], 3).sqrt()


def test_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError):
        Series.from_x_coefficients([4, 1], 3).sqrt()
    with pytest.raises(ValueError):
        Series.from_x_coefficients([Poly2.term(1, eq=1)], 3).sqrt()


def test_inverse_of_geometric():
    inv = Series.from_x_coefficients([1, -1], 5).inverse()
    assert consts(inv) == [1, 1, 1, 1, 1, 1]


def test_inverse_roundtrip_with_markers():
    t = Poly2.term(1, et=1)
    s = Series.from_x_coefficients([Poly2.constant(-1), t, t * t], 7)
    assert s * s.inverse() == Series.one(7)


def test_inverse_preconditions():
    with pytest.raises(ValueError):
        Series.zero(3).inverse()
    # 2 is not a unit of the integers: no integer series inverts it
    with pytest.raises(ValueError):
        Series.from_x_coefficients([2, 1], 3).inverse()
    # a marker-bearing constant term must be rejected, not divided by
    with pytest.raises(ValueError):
        Series.constant(Poly2.term(2, eq=1), 3).inverse()


def test_first_nonzero():
    s = Series.from_x_coefficients([0, 0, 3], 4)
    assert s.first_nonzero() == (2, Poly2.constant(3))
    assert Series.zero(3).first_nonzero() is None


def test_series_json_shape():
    s = Series.from_x_coefficients([Poly2.one(), Poly2.term(-3, et=1)], 1)
    assert s.to_json() == [
        {"n": 0, "terms": [{"et": 0, "eq": 0, "num": 1, "den": 1}]},
        {"n": 1, "terms": [{"et": 1, "eq": 0, "num": -3, "den": 1}]},
    ]


# --- the product kernel and the fixed points ----------------------------------

def test_dot_sums_pairwise_products_over_the_common_length():
    t, q = Poly2.term(1, et=1), Poly2.term(1, eq=1)
    assert dot([t, q, Poly2.one()], [q, t]) == Poly2({(1, 1): 2})
    assert dot([], [t]) == Poly2.zero()
    assert dot([t + q], [t - q]) == t * t - q * q
    assert dot([Poly2.zero(), t], [q, Poly2.zero()]).is_zero()


def catalan_step(f):
    # x^n of x*f^2 reads f only up to x^(n-1)
    return dot(f, f[::-1]) if f else Poly2.one()


def test_fixed_point_catalan():
    assert consts(fixed_point_solve(catalan_step, 6)) == \
        [1, 1, 2, 5, 14, 42, 132]


def test_fixed_point_constant_map():
    def step(known):
        return Poly2.zero() if known else Poly2.one()

    assert fixed_point_solve(step, 5) == Series.one(5)


def test_fixed_point_result_is_a_fixed_point():
    solved = fixed_point_solve(catalan_step, 8)
    # checked with Series arithmetic, independent of the step's indexing
    assert Series.one(8) + (solved * solved).shift_x().truncate(8) == solved


@pytest.mark.parametrize("order", [0, 1, 6])
def test_fixed_point_calls_step_once_per_coefficient(order):
    seen = []

    def step(known):
        seen.append(len(known))
        return catalan_step(known)

    solved = fixed_point_solve(step, order)
    assert seen == list(range(order + 1))
    assert solved.order == order
    assert consts(solved) == [1, 1, 2, 5, 14, 42, 132][: order + 1]


def test_fixed_point_rejects_negative_order():
    def step(known):
        raise AssertionError("step must not run")

    with pytest.raises(ValueError):
        fixed_point_solve(step, -1)


# --- algebraic laws on random small values ------------------------------------

# small values, and values near +-2^70 so that products are bignums
small = st.integers(-4, 4)
coeffs = small | small.map(lambda d: 2**70 + d) | small.map(lambda d: d - 2**70)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(Poly2)
series3 = st.lists(polys, min_size=4, max_size=4).map(Series)


def naive_series_product(a, b):
    """x-convolution as a sum of single-term Poly2 products over i + j = m."""
    order = min(a.order, b.order)
    out = []
    for m in range(order + 1):
        acc = Poly2.zero()
        for i in range(m + 1):
            for (at, aq), av in a.coefficient(i).items():
                for (bt, bq), bv in b.coefficient(m - i).items():
                    acc = acc + Poly2.term(av * bv, at + bt, aq + bq)
        out.append(acc)
    return Series(out)


sparse_polys = st.one_of(
    st.just(Poly2.zero()),
    st.dictionaries(exponents, coeffs, max_size=4).map(Poly2))
sparse_series = st.integers(0, 5).flatmap(
    lambda n: st.lists(sparse_polys, min_size=n + 1, max_size=n + 1)).map(Series)


@given(sparse_series, sparse_series)
@settings(max_examples=80)
def test_series_product_matches_naive_convolution(a, b):
    assert a * b == naive_series_product(a, b)


@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + Poly2.zero() == a
    assert a * Poly2.one() == a


@given(series3, series3, series3)
@settings(max_examples=50)
def test_series_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(series3)
@settings(max_examples=50)
def test_sqrt_squares_back(tail):
    y = Series.one(4) + tail.shift_x()
    assert (y * y).sqrt() == y


@given(series3, st.sampled_from([1, -1]))
@settings(max_examples=50)
def test_inverse_multiplies_back(tail, head):
    s = Series.constant(head, 4) + tail.shift_x()
    assert s * s.inverse() == Series.one(4)


# --- the packed kernel against a naive dict convolution ----------------------

# Each polynomial below is a plain dict {(e_t, e_q): coefficient}, and the
# reference arithmetic loops over pairs of terms; it shares nothing with
# the packed layout of Poly2.

def naive_mul(a, b):
    out = {}
    for (at, aq), av in a.items():
        for (bt, bq), bv in b.items():
            key = (at + bt, aq + bq)
            out[key] = out.get(key, 0) + av * bv
    return {k: v for k, v in out.items() if v}


def naive_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def naive_dot(xs, ys):
    out = {}
    for x, y in zip(xs, ys):
        out = naive_add(out, naive_mul(x, y))
    return out


def naive_series_mul(a, b):
    order = min(len(a), len(b)) - 1
    return [naive_dot(a[: m + 1], b[m::-1]) for m in range(order + 1)]


def naive_inverse(s):
    head = s[0][(0, 0)]
    u = [dict(s[0])]
    for n in range(1, len(s)):
        acc = naive_dot(s[1: n + 1], u[::-1])
        u.append({k: -head * v for k, v in acc.items()})
    return u


def naive_sqrt(s):
    """The root's coefficients, or the index of the first odd one."""
    y = [{(0, 0): 1}]
    for n in range(1, len(s)):
        twice = naive_add(s[n], naive_dot(y[1:n], y[n - 1:0:-1]), -1)
        if any(v % 2 for v in twice.values()):
            return n
        y.append({k: v // 2 for k, v in twice.items()})
    return y


def terms_of(series):
    return [dict(c.items()) for c in series.coefficients()]


def series_of(dicts):
    return Series([Poly2(d) for d in dicts])


huge = st.integers(-2**2000, 2**2000)
kernel_coeffs = st.one_of(small, huge, small.map(lambda d: 2**600 + d))


def marker_polys(markers):
    """Dicts in the markers named (both, one or none)."""
    et = st.integers(0, 4) if "t" in markers else st.just(0)
    eq = st.integers(0, 4) if "q" in markers else st.just(0)
    nonzero = kernel_coeffs.filter(bool)
    return st.dictionaries(st.tuples(et, eq), nonzero, max_size=5)


def kernel_series(markers, head=None):
    tail = st.lists(marker_polys(markers), min_size=0, max_size=5)
    if head is None:
        return st.tuples(marker_polys(markers), tail).map(lambda p: [p[0]] + p[1])
    return tail.map(lambda rest: [{(0, 0): head}] + rest)


marker_sets = st.sampled_from(["tq", "t", "q", ""])


@given(marker_sets.flatmap(lambda m: st.tuples(
    st.lists(marker_polys(m), max_size=6), st.lists(marker_polys(m), max_size=6))))
@settings(max_examples=60, deadline=None)
def test_packed_dot_matches_the_naive_convolution(operands):
    xs, ys = operands
    assert dict(dot([Poly2(x) for x in xs], [Poly2(y) for y in ys]).items()) \
        == naive_dot(xs, ys)


scalars = st.one_of(st.sampled_from([0, 1, -1]), small, huge)


@given(marker_sets.flatmap(marker_polys), scalars)
@settings(max_examples=60, deadline=None)
def test_packed_scalar_product_matches_the_naive_product(p, c):
    # an int scalar, on either side, is the constant polynomial c
    expected = naive_mul(p, {(0, 0): c} if c else {})
    assert dict((Poly2(p) * c).items()) == expected
    assert dict((c * Poly2(p)).items()) == expected


@given(st.tuples(marker_sets, marker_sets).flatmap(
    lambda ms: st.tuples(kernel_series(ms[0]), kernel_series(ms[1]))))
@settings(max_examples=60, deadline=None)
def test_packed_series_product_matches_the_naive_convolution(operands):
    # the marker sets may differ, and so may the orders
    a, b = operands
    assert terms_of(series_of(a) * series_of(b)) == naive_series_mul(a, b)


@given(marker_sets.flatmap(lambda m: st.sampled_from([1, -1]).flatmap(
    lambda head: kernel_series(m, head))))
@settings(max_examples=60, deadline=None)
def test_packed_inverse_matches_the_naive_recurrence(s):
    assert terms_of(series_of(s).inverse()) == naive_inverse(s)


@given(marker_sets.flatmap(lambda m: kernel_series(m, 1)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_packed_sqrt_matches_the_naive_recurrence(s, square):
    if square:   # a perfect square, whose root must come back exactly
        s = naive_series_mul(s, s)
    expected = naive_sqrt(s)
    if isinstance(expected, int):
        with pytest.raises(ValueError, match=rf"x\^{expected}:"):
            series_of(s).sqrt()
    else:
        assert terms_of(series_of(s).sqrt()) == expected


def test_online_solves_repack_wider_as_coefficients_grow(monkeypatch):
    # coefficients near 10^600 square at every step, so the layout chosen
    # at x^1 is too narrow by x^3 and must be re-packed, not wrapped
    from jumpstat import algebra

    grown = []
    real = algebra._grown

    def spy(*args):
        grown.append(real(*args))
        return grown[-1]

    monkeypatch.setattr(algebra, "_grown", spy)
    big = 10**600
    t, q = Poly2.term(1, et=1), Poly2.term(1, eq=1)
    s = [{(0, 0): 1}, {(0, 0): big + 1, (1, 1): -big}, {(2, 0): big - 3},
         {(0, 3): -big}]
    assert terms_of(series_of(s).inverse()) == naive_inverse(s)
    assert len(grown) >= 2
    assert grown[-1][0] > grown[0][0]

    grown.clear()
    y = [{(0, 0): 1}, {(1, 0): big}, {(0, 2): -big**2 - 7}, {(1, 1): 3 * big**3}]
    assert terms_of(series_of(naive_series_mul(y, y)).sqrt()) == y
    assert len(grown) >= 2 and grown[-1][0] > grown[0][0]

    grown.clear()
    solved = fixed_point_solve(
        lambda f: dot(f, f[::-1]) * (big * t + q) if f else Poly2.one(), 3)
    f = [{(0, 0): 1}]
    for n in range(1, 4):
        f.append(naive_mul(naive_dot(f, f[::-1]), {(1, 0): big, (0, 1): 1}))
    assert terms_of(solved) == f
    assert len(grown) >= 2 and grown[-1][0] > grown[0][0]


@pytest.mark.parametrize("c", [2, 3, -5, 2**7, 2**13 + 1, -(2**31)])
def test_online_solves_stay_exact_at_every_width_step(c):
    # coefficients grow by bits(c) per step, so every slot width the
    # solves pass through is filled to its edge once; closed forms:
    # 1/(1 - cx) = sum c^n x^n, sqrt(1 - 4cx) = 1 - 2 sum C(n-1) c^n x^n
    # and f = 1 + cx*f^2 has f_n = C(n) c^n, with C the Catalan numbers
    order = 40
    inv = Series.from_x_coefficients([1, -c], order).inverse()
    assert consts(inv) == [c**n for n in range(order + 1)]
    root = Series.from_x_coefficients([1, -4 * c], order).sqrt()
    assert consts(root) == [1] + [-2 * catalan(n - 1) * c**n
                                  for n in range(1, order + 1)]
    solved = fixed_point_solve(
        lambda f: dot(f, f[::-1]) * c if f else Poly2.one(), order)
    assert consts(solved) == [catalan(n) * c**n for n in range(order + 1)]


def test_sqrt_names_the_odd_coefficient_of_a_huge_series():
    big = 10**600
    t = Poly2.term(1, et=1)
    y = Series.from_x_coefficients([1, Poly2.term(big, eq=1)], 3)
    with pytest.raises(ValueError, match=r"at x\^2: \(t\)/2"):
        (y * y + Series.from_x_coefficients([0, 0, t], 3)).sqrt()


@pytest.mark.parametrize("head", [
    Poly2.constant(10**600), Poly2.constant(-2), Poly2({(0, 0): 1, (0, 1): 1}),
    Poly2.term(1, et=1)])
def test_inverse_refuses_a_head_that_is_not_a_unit(head):
    s = Series.from_x_coefficients([head, Poly2.term(10**600, et=1)], 4)
    with pytest.raises(ValueError, match="x\\^0 term of 1 or -1"):
        s.inverse()


def naive_substitute(a, marker, value):
    pos = "tq".index(marker)
    out = {}
    for key, v in a.items():
        if value == 0 and key[pos]:
            continue
        new = (0, key[1]) if pos == 0 else (key[0], 0)
        out[new] = out.get(new, 0) + v
    return {k: v for k, v in out.items() if v}


@given(marker_sets.flatmap(marker_polys), st.sampled_from("tq"),
       st.sampled_from([0, 1]))
@settings(max_examples=80, deadline=None)
def test_substitute_matches_the_naive_sum(a, marker, value):
    assert dict(Poly2(a).substitute(marker, value).items()) \
        == naive_substitute(a, marker, value)
    if not any(et for et, _ in a):
        # a q-row packed with room for its coefficient sum is summed by
        # folding the int instead of decoding it
        row = [0] * (max((eq for _, eq in a), default=0) + 1)
        for (_, eq), v in a.items():
            row[eq] = v
        packed = Poly2._from_q_coefficients(row)
        assert packed.q_coefficients() == row[: len(packed.q_coefficients())]
        assert packed.substitute("q", 1) == sum(a.values())
