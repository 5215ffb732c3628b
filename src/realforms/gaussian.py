"""Exact arithmetic in Q(i), the field of Gaussian rationals.

A value is stored as three ints ``a, b, d`` meaning (a + b*i)/d, with d > 0
and gcd(a, b, d) = 1.  That form is canonical, so equality and hashing are
structural; zero is (0, 0, 1).  Each sum, difference and product is integer
arithmetic plus one gcd, and none at all when the result's denominator is 1,
the common case for Gaussian-integer coefficients.  The components are read
as Fractions through ``re`` and ``im``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_RATIONAL = (int, Fraction)
_new = object.__new__


class GaussianRational:
    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        if not (isinstance(re, _RATIONAL) and isinstance(im, _RATIONAL)):
            raise TypeError(f"not an exact scalar: {re!r} + {im!r}*i")
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        dr, di = re.denominator, im.denominator
        # both components are in lowest terms, so over the lcm of their
        # denominators no prime divides a, b and d together
        d = dr // gcd(dr, di) * di
        self.a = re.numerator * (d // dr)
        self.b = im.numerator * (d // di)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == 1 and not self.b and self.d == 1

    def is_real(self) -> bool:
        return not self.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = coerce(other)
            if other is None:
                return NotImplemented
        return _add(self.a, self.b, self.d, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = coerce(other)
            if other is None:
                return NotImplemented
        return _add(self.a, self.b, self.d, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        other = coerce(other)
        if other is None:
            return NotImplemented
        return _add(other.a, other.b, other.d, -self.a, -self.b, self.d)

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = coerce(other)
            if other is None:
                return NotImplemented
        return _mul(self.a, self.b, self.d, other.a, other.b, other.d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a^2 + b^2 (a nonnegative rational)."""
        a, b, d = self.a, self.b, self.d
        return Fraction(a * a + b * b, d * d)

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero in Q(i)")
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        # d/(a + b i) = d (a - b i) / (a^2 + b^2)
        return _reduce(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        other = coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        check_exponent(exponent)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # square-and-multiply on the Gaussian-integer numerator, one gcd
        ra, rb = 1, 0
        a, b = self.a, self.b
        n = exponent
        while n:
            if n & 1:
                ra, rb = ra * a - rb * b, ra * b + rb * a
            n >>= 1
            if n:
                a, b = a * a - b * b, 2 * a * b
        return _reduce(ra, rb, self.d ** exponent)

    # -- structural ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if type(other) is int:
            return self.a == other and not self.b and self.d == 1
        other = coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return coefficient_str(self)


def coerce(value) -> GaussianRational | None:
    """value as a Gaussian rational when it is one, an int or a Fraction;
    None for anything else, floats and strings included."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _RATIONAL):
        return GaussianRational(value)
    return None


def check_exponent(exponent) -> None:
    """TypeError naming an exponent of ``**`` that is no int; a bool is none."""
    if type(exponent) is not int:
        raise TypeError(f"exponent {exponent!r} is not an int")


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i)/d from a triple that is already canonical."""
    z = _new(GaussianRational)
    z.a = a
    z.b = b
    z.d = d
    return z


def _reduce(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i)/d for any d > 0, brought to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _add(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    """The sum of two values given as canonical triples."""
    if d1 == d2:
        return _reduce(a1 + a2, b1 + b2, d1)
    g = gcd(d1, d2)
    if g == 1:
        # a prime of d1 divides a1*d2 + a2*d1 and b1*d2 + b2*d1 only if it
        # divides a1 and b1, so for canonical operands the cross sum is
        # canonical as it stands
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s1, s2 = d2 // g, d1 // g
    return _reduce(a1 * s1 + a2 * s2, b1 * s1 + b2 * s2, d1 * s1)


def _mul(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def _sub_mul(s: GaussianRational | None, fa: int, fb: int, ga: int, gb: int,
             q: int) -> GaussianRational:
    """s - (fa + fb i)(ga + gb i)/q for any q > 0, where s None means zero;
    the multiply-subtract step of polynomial division."""
    pa = fa * ga - fb * gb
    pb = fa * gb + fb * ga
    if s is None:
        return _reduce(-pa, -pb, q)
    d = s.d
    if d == q:
        return _reduce(s.a - pa, s.b - pb, q)
    g = gcd(d, q)
    s1, s2 = q // g, d // g
    return _reduce(s.a * s1 - pa * s2, s.b * s1 - pb * s2, d * s1)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
"""An exact rational as text, ``p`` or ``p/q`` in ASCII digits with an optional
``-``, as ``coefficient_str`` prints it; ``ring.parse_poly``, the command line
and ``Fraction`` read it.  ``1.5``, ``+2`` and ``٣`` (another script) never match."""
DIGITS_TEXT = re.compile(r"[0-9]+")
"""A count as text, ASCII digits only: ``--d-max`` and the step budget."""


def coefficient_str(c: GaussianRational) -> str:
    """Canonical text form of a Q(i) scalar.

    Real values print as `a` or `a/b`; pure imaginary as `i`, `-i` or `(a/b)i`;
    mixed values as `((p/q)+(r/s)i)` so they stay unambiguous inside a term.
    """
    if c.is_zero():
        return "0"
    if not c.im:
        return str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"({c.im})i"
    return f"(({c.re})+({c.im})i)"


def integer_rank(rows) -> int:
    """The rank of a matrix of Gaussian integers, each entry a pair (re, im),
    by fraction-free elimination: a row below the pivot row p, pivot column
    c, becomes p[c]*row - row[c]*p."""
    work = list(rows)
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        (pa, pb), prow = work[rank][col], work[rank]
        for r in range(rank + 1, len(work)):
            fa, fb = work[r][col]
            work[r] = [(pa * a - pb * b - fa * qa + fb * qb, pa * b + pb * a - fa * qb - fb * qa)
                       for (a, b), (qa, qb) in zip(work[r], prow)]
        rank += 1
    return rank
