"""Exact univariate arithmetic over Z[q] and its fraction field.

Polynomials are immutable tuples of Python ints in ascending degree
order; they add, subtract and compare only with polynomials, multiply
by polynomials or ints, term by term, and are false exactly when zero.
No product the package forms is long and dense on both sides, as the
magnitude system's determinant stays factored (g^order det S), so the
one term loop serves every product.  Rational functions are kept in a
canonical reduced form: numerator and denominator have no common
polynomial factor, the gcd of all integer coefficients of numerator
and denominator combined is 1, and the leading coefficient of the
denominator is positive.  Power series are expanded only from
denominators with constant term +-1, into plain tuples of ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import CheckFailedError


class ZeroDenominatorError(ZeroDivisionError):
    """Raised when a rational function would have a zero denominator."""


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPoly:
    """Dense polynomial with integer coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        """``coeffs``: a tuple or list of ints, lowest degree first."""
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPoly":
        if k < 0:
            raise ValueError("negative exponent")
        return IntPoly((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        # both loops skip zeros, the outer one over the sparser factor
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        b = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b:
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by q**k."""
        if not self:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        """Divide out the content; sign chosen so the leading coefficient is positive."""
        if not self:
            return self
        g = self.content()
        if self.leading() < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reversed_coeffs(self) -> "IntPoly":
        """Coefficient reversal: q**deg * p(1/q)."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def is_palindromic(self) -> bool:
        return bool(self.coeffs) and self.coeffs == tuple(reversed(self.coeffs))

    def divexact(self, d: "IntPoly") -> "IntPoly":
        """Exact division over Z, top-down by d's leading coefficient;
        raises ArithmeticError when not exact."""
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return IntPoly()
        rem = list(self.coeffs)
        dc = d.coeffs
        dn = len(dc)
        lead = dc[-1]
        nq = len(rem) - dn
        if nq < 0:
            raise ArithmeticError("inexact polynomial division")
        out = [0] * (nq + 1)
        for i in range(nq, -1, -1):
            t, r = divmod(rem[i + dn - 1], lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            if t:
                out[i] = t
                for j in range(dn):
                    rem[i + j] -= t * dc[j]
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return IntPoly(out)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    parts.append(q)
                elif c == -1:
                    parts.append(f"-{q}")
                else:
                    parts.append(f"{c}{q}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


ZERO = IntPoly()
ONE = IntPoly((1,))


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)**(dega-degb+1) * a mod b, computed over Z."""
    r = list(a.coeffs)
    dc = b.coeffs
    dn = len(dc)
    lead = dc[-1]
    steps = len(r) - dn
    if steps < 0:
        return a
    for i in range(steps, -1, -1):
        top = r[i + dn - 1]
        for j in range(len(r)):
            r[j] *= lead
        for j in range(dn):
            r[i + j] -= top * dc[j]
    return IntPoly(_trim(r))


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor in Z[q] (primitive part via a primitive
    remainder sequence, integer content by gcd), positive leading coefficient."""
    if not a:
        return b.primitive() * b.content() if b else IntPoly()
    if not b:
        return a.primitive() * a.content()
    ca, cb = a.content(), b.content()
    c = math.gcd(ca, cb)
    f, g = a.primitive(), b.primitive()
    if f.degree < g.degree:
        f, g = g, f
    while g:
        r = _prem(f, g).primitive()
        f, g = g, r
    return f.primitive() * c


@dataclass(frozen=True)
class RatFunc:
    """Rational function over Z[q] in canonical reduced form; built by
    ``reduce_fraction``, so equal functions are equal pairs."""

    num: IntPoly
    den: IntPoly


def reduce_fraction(num: IntPoly, den: IntPoly) -> RatFunc:
    """Canonical reduced form of num/den.

    The polynomial gcd (including integer content) is divided out, then the
    sign is fixed so the denominator has a positive leading coefficient.
    The combined integer content of the result is 1.
    """
    if not den:
        raise ZeroDenominatorError("zero denominator")
    if not num:
        return RatFunc(ZERO, ONE)
    g = poly_gcd(num, den)
    num = num.divexact(g)
    den = den.divexact(g)
    if den.leading() < 0:
        num, den = -num, -den
    return RatFunc(num, den)


def series_expand(f: RatFunc, order: int) -> tuple:
    """Coefficients of f through q**order (order+1 ints), exactly.

    Every fraction the package expands has a denominator with constant
    term +-1, so the series has integer coefficients; any other
    constant term raises CheckFailedError."""
    if order < 0:
        raise ValueError("order must be >= 0")
    d0 = f.den.constant()
    if d0 != 1 and d0 != -1:
        raise CheckFailedError(
            f"denominator constant term {d0} is not +-1: no integer series")
    nc, dc = f.num.coeffs, f.den.coeffs
    out = []
    for i in range(order + 1):
        acc = nc[i] if i < len(nc) else 0
        acc -= sum(map(mul, dc[1:i + 1], reversed(out)))
        out.append(acc * d0)
    return tuple(out)


def euler_phi(k: int) -> int:
    n, result, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def cyclotomic_factor(p: IntPoly, kmax: int):
    """Split p into cyclotomic factors in one power-series pass.

    Returns (factors, unit), factors the (k, e_k) pairs sorted by k, when
    p = unit * prod Phi_k**e_k with unit = +-1 and every k <= N =
    max(deg p, kmax); otherwise ((), p).  With p(0) = +-1, p(0) p =
    prod_(d >= 1) (1 - q**d)**a_d, the inverse Euler transform (Bernstein
    and Sloane 1995): the logarithmic derivative q p'/p = sum c_n q**n,
    expanded by ``series_expand``, has -c_n = sum_(d | n) d a_d.  As
    1 - q**d = -prod_(k | d) Phi_k, prod_(d <= N) (1 - q**d)**a_d =
    (-1)**e_1 prod Phi_k**e_k with e_k = sum_(k | d <= N) a_d.  It agrees
    with p(0) p through q**N, and when every e_k >= 0 and sum e_k phi(k) =
    deg p it is a polynomial of degree <= N, so the two are equal.  Every
    p of that form passes, since then a_d = 0 for d > N.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    sign = p.constant()
    if sign not in (1, -1):
        return (), p
    top = max(p.degree, kmax, 1)
    minus_qdp = IntPoly([-n * c for n, c in enumerate(p.coeffs)])
    # -c_n, then a_n once the sieve reaches n
    a = list(series_expand(RatFunc(minus_qdp, p), top))
    for d in range(1, top + 1):
        a[d] //= d
        for n in range(2 * d, top + 1, d):
            a[n] -= d * a[d]
    e = [0] + [sum(a[k::k]) for k in range(1, top + 1)]
    if (min(e) < 0
            or sum(ek * euler_phi(k) for k, ek in enumerate(e) if ek) != p.degree):
        return (), p
    factors = tuple((k, ek) for k, ek in enumerate(e) if ek)
    return factors, IntPoly.const(sign * (-1) ** e[1])


def reverse_substitute(f: RatFunc) -> RatFunc:
    """The substitution q -> 1/q, cleared of negative powers and reduced.

    For the magnitude of an arrangement with n hyperplanes the result equals
    q**n times the input; the structural checks assert exactly that.
    """
    rn = f.num.reversed_coeffs()
    rd = f.den.reversed_coeffs()
    e = f.den.degree - f.num.degree
    if e >= 0:
        return reduce_fraction(rn.shift(e), rd)
    return reduce_fraction(rn, rd.shift(-e))
