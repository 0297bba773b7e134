"""Exact polynomial and rational-function arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import value_at
from magarr.errors import CheckFailedError
from magarr.polyq import (
    ONE,
    ZERO,
    IntPoly,
    RatFunc,
    ZeroDenominatorError,
    cyclotomic,
    cyclotomic_factor,
    euler_phi,
    poly_gcd,
    reduce_fraction,
    reverse_substitute,
    series_expand,
)

coeff_lists = st.lists(st.integers(-9, 9), max_size=7)
Q = IntPoly((0, 1))


def test_trailing_zeros_are_trimmed():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly((0, 0)) == ZERO
    assert ZERO.degree == -1
    assert IntPoly((0, 0, 5)).degree == 2


def test_constructors():
    assert IntPoly.const(3) == IntPoly((3,))
    assert IntPoly.const(0) == ZERO
    assert IntPoly.monomial(3) == IntPoly((0, 0, 0, 1))
    assert IntPoly.monomial(0, 7) == IntPoly((7,))
    assert Q == IntPoly.monomial(1)


@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_ring_operations_commute_with_evaluation(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    assert (pa + pb).evaluate(x) == pa.evaluate(x) + pb.evaluate(x)
    assert (pa - pb).evaluate(x) == pa.evaluate(x) - pb.evaluate(x)
    assert (pa * pb).evaluate(x) == pa.evaluate(x) * pb.evaluate(x)
    assert (-pa).evaluate(x) == -pa.evaluate(x)


@given(coeff_lists, st.integers(0, 4), st.integers(-3, 3))
def test_power_and_shift(a, k, x):
    p = IntPoly(a)
    assert (p ** k).evaluate(x) == p.evaluate(x) ** k
    if x != 0:
        assert p.shift(k).evaluate(x) == p.evaluate(x) * x ** k


def test_divexact_recovers_factors():
    a = IntPoly((1, 1))
    b = IntPoly((1, 0, 1))
    prod = a * a * b
    assert prod.divexact(a) == a * b
    with pytest.raises(ArithmeticError):
        (a * b + ONE).divexact(a)


def test_content_and_primitive():
    p = IntPoly((6, -9, 12))
    assert p.content() == 3
    assert p.primitive() == IntPoly((2, -3, 4))


def test_palindromes():
    assert IntPoly((2, -5, 2)).is_palindromic()
    assert IntPoly((1, 3, 4, 3, 1)).is_palindromic()
    assert not IntPoly((1, 2)).is_palindromic()
    assert IntPoly((0, 1, 1)).reversed_coeffs() == IntPoly((1, 1))


def test_reduce_fraction_canonical():
    f = reduce_fraction(IntPoly((-1, 0, 1)), IntPoly((-1, 1)))
    assert f.num == IntPoly((1, 1)) and f.den == ONE
    g = reduce_fraction(IntPoly((2, 2)), IntPoly((2,)))
    assert g.num == IntPoly((1, 1)) and g.den == ONE
    # sign lives in the numerator
    h = reduce_fraction(IntPoly((1,)), IntPoly((-1, -1)))
    assert h.den.leading() > 0 and h.num == IntPoly((-1,))
    assert reduce_fraction(ZERO, Q).num == ZERO
    with pytest.raises(ZeroDenominatorError):
        reduce_fraction(ONE, ZERO)


@given(coeff_lists, coeff_lists, st.integers(2, 5))
def test_reduce_fraction_preserves_value(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    if not pb or pb.evaluate(x) == 0:
        return
    f = reduce_fraction(pa, pb)
    assert value_at(f, x) == value_at(RatFunc(pa, pb), x)


def test_series_expand_geometric():
    f = reduce_fraction(ONE, IntPoly((1, -1)))
    s = series_expand(f, 5)
    assert tuple(s) == (1, 1, 1, 1, 1, 1)
    assert len(s) == 6 and s[3] == 1
    alt = series_expand(reduce_fraction(ONE, IntPoly((1, 1))), 4)
    assert tuple(alt) == (1, -1, 1, -1, 1)


def test_series_expand_odd_numbers():
    f = reduce_fraction(IntPoly((1, 1)), IntPoly((1, -1)) ** 2)
    assert tuple(series_expand(f, 4)) == (1, 3, 5, 7, 9)


def test_series_expand_needs_unit_constant_term():
    # 1/(2 + q) has the series 1/2 - q/4 + ...; 1/q has none
    for den, d0 in ((IntPoly((2, 1)), "2"), (Q, "0")):
        with pytest.raises(CheckFailedError, match=f"constant term {d0} "):
            series_expand(RatFunc(ONE, den), 2)


def test_euler_phi_small_values():
    assert [euler_phi(k) for k in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_cyclotomic_tables():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(4) == IntPoly((1, 0, 1))
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(10) == IntPoly((1, -1, 1, -1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclotomic_product_over_divisors(n):
    prod = ONE
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == IntPoly.monomial(n) - ONE


def test_cyclotomic_factor_splits_completely():
    p = cyclotomic(2) ** 2 * cyclotomic(4)
    factors, rem = cyclotomic_factor(p)
    assert factors == ((2, 2), (4, 1))
    assert rem == ONE


def test_cyclotomic_factor_leaves_remainder():
    stubborn = IntPoly((2, 0, 1))
    factors, rem = cyclotomic_factor(cyclotomic(3) * stubborn)
    assert factors == ((3, 1),)
    assert rem == stubborn
    with pytest.raises(ValueError):
        cyclotomic_factor(ZERO)


def test_reverse_substitute_clears_powers():
    f = reduce_fraction(IntPoly((1, 1)), IntPoly((1, 0, 1)))
    r = reverse_substitute(f)
    assert r == reduce_fraction(IntPoly((0, 1, 1)), IntPoly((1, 0, 1)))


@given(coeff_lists, st.integers(2, 4))
def test_reverse_substitute_matches_inverted_argument(a, x):
    num = IntPoly(a)
    den = IntPoly((1, 0, 0, 2))
    if not num:
        return
    f = reduce_fraction(num, den)
    r = reverse_substitute(f)
    # substituting 1/q and clearing powers never changes the value
    assert value_at(r, x) == value_at(f, Fraction(1, x))


def test_poly_gcd_recovers_common_factor():
    g = IntPoly((-1, 0, 1))
    a = g * IntPoly((1, 1, 1))
    b = g * IntPoly((2, 1))
    got = poly_gcd(a, b)
    assert got in (g, -g)
    assert poly_gcd(ZERO, b) in (b.primitive(), -b.primitive())
