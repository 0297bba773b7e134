"""Exact univariate arithmetic over Z[q] and its fraction field.

Polynomials are immutable tuples of Python ints in ascending degree
order; they add, subtract and compare only with polynomials, multiply
by polynomials or ints, and are false exactly when zero.  Rational
functions are kept in a canonical reduced form: numerator and
denominator have no common polynomial factor, the gcd of all integer
coefficients of numerator and denominator combined is 1, and the
leading coefficient of the denominator is positive.  Power series are
expanded only from denominators with constant term +-1, into plain
tuples of ints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
        cs = _trim([int(c) for c in coeffs])
        object.__setattr__(self, "coeffs", cs)

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
            if other == 0:
                return IntPoly()
            return IntPoly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
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

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        for j in range(1, min(i, len(dc) - 1) + 1):
            acc -= dc[j] * out[i - j]
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


@functools.cache
def cyclotomic(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, by exact division of q**k - 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = IntPoly.monomial(k) - ONE
    for d in range(1, k):
        if k % d == 0:
            p = p.divexact(cyclotomic(d))
    return p


def cyclotomic_factor(p: IntPoly):
    """Split off all cyclotomic factors of p.

    Returns (factors, remainder) with factors a tuple of (k, multiplicity)
    pairs sorted by k; only k with phi(k) <= deg p can divide, so the search
    is finite.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    rem = p
    factors = []
    deg = p.degree
    k = 1
    # phi(k) >= sqrt(k/2) for all k, so k <= 2*deg**2 bounds the search.
    while k <= max(1, 2 * deg * deg):
        if euler_phi(k) <= rem.degree:
            phi_k = cyclotomic(k)
            mult = 0
            while True:
                try:
                    nxt = rem.divexact(phi_k)
                except ArithmeticError:
                    break
                rem = nxt
                mult += 1
            if mult:
                factors.append((k, mult))
        k += 1
        if rem.degree == 0 and k > deg + 1:
            break
    return tuple(factors), rem


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
