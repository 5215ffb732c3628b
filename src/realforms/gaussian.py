"""Exact arithmetic in Q(i), the field of Gaussian rationals.

A value is a + b*i with a, b arbitrary-precision rationals.  Fraction keeps
both components in lowest terms with positive denominator, so equality and
hashing are structural.
"""
from __future__ import annotations

from fractions import Fraction

_RATIONAL = (int, Fraction)


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_real(self) -> bool:
        return not self.im

    def is_rational_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RATIONAL):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a^2 + b^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- structural ------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return coefficient_str(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


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


def row_reduce(rows) -> tuple[list[list], list[int]]:
    """Reduced row-echelon form of a matrix over a field, and its pivot columns.

    Entries may be any field elements with ``!= 0``, ``*``, ``-`` and
    ``1 / v`` (Fraction and GaussianRational alike); the input is not changed.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    cols = len(work[0]) if work else 0
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        prow = work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * pv for v, pv in zip(work[r], prow)]
        pivots.append(col)
    return work, pivots
