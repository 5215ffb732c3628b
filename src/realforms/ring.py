"""Sparse multivariate polynomials and rational functions over Q(i).

A VarTable fixes the ordered list of variable names once; every Poly carries a
reference to its table and stores terms as a map from exponent vectors to
nonzero Q(i) coefficients.  Every variable is a real indeterminate, so
conjugation acts on the coefficients and fixes every variable.

RatFunc is an unreduced fraction of two Polys; equality is decided by
cross-multiplication, so no multivariate gcd is ever required.  Both parts
are kept as primitive Gaussian-integer polynomials: every coefficient is in
Z[i], the gcd of all their real and imaginary parts is 1, and the two share
no monomial factor.  Products of parts therefore run on integer
coefficients.

RingMap is a substitution homomorphism: one RatFunc image per source-table
variable, plus a flag that conjugates coefficients before substituting.  A
relabelling, whose images are distinct target variables over 1 (a swap,
the identity, a conjugation), moves exponents.  Any other map substitutes
over one common denominator, the product of the image denominators to the
highest powers that occur, mapping a numerator and its denominator together,
so no fraction is added or divided on the way.  It runs on Gaussian-integer
numerators with the product loop of Poly multiplication, and a map keeps the
integer powers of its images, and their products, for its own lifetime, so
applying it again (to each image of another map in compose, say) builds none
of them twice.  Maps compose by substitution chaining, flags by XOR.

Substituting scalars (specialize, evaluate) is one Q(i) term loop over one or
more polys, for real and non-real values alike; a batch read often at exact
values is compiled once and read in integers (compile_reads, read_at).
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, prod
from operator import add, getitem, itemgetter, mul, sub
from typing import Iterable, Mapping, Sequence

from .gaussian import (
    RATIONAL_TEXT, GaussianRational, ONE, ZERO, _reduce, check_exponent, coefficient_str, coerce,
)

class VarTable:
    """Ordered names of real indeterminates."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._index = {n: k for k, n in enumerate(self.names)}

    def index(self, name: str) -> int:
        """Position of a name; ValueError names an unknown one and the table."""
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}; the table has {self.names}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, VarTable):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({self.names!r})"


class Poly:
    """Sparse polynomial over Q(i) in the variables of one VarTable."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple, GaussianRational] | None = None):
        """Terms map exponent tuples, one nonnegative int per table variable,
        to scalars; zero coefficients are dropped.  A malformed exponent tuple
        raises ValueError, a coefficient that is no scalar TypeError."""
        n = len(table)
        cooked = {}
        for e, c in (terms or {}).items():
            if type(e) is not tuple or len(e) != n or any(type(k) is not int or k < 0 for k in e):
                raise ValueError(f"exponents {e!r} are not {n} nonnegative ints")
            value = coerce(c)
            if value is None:
                raise TypeError(f"not a scalar: {c!r}")
            if value:
                cooked[e] = value
        self.table = table
        self.terms = cooked

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "Poly":
        return _poly(table, {})

    @staticmethod
    def const(table: VarTable, value) -> "Poly":
        c = coerce(value)
        if c is None:
            raise TypeError(f"not a scalar: {value!r}")
        zero_exp = (0,) * len(table)
        return _poly(table, {zero_exp: c} if not c.is_zero() else {})

    @staticmethod
    def var(table: VarTable, name: str, power: int = 1) -> "Poly":
        check_exponent(power)
        if power < 0:
            raise ValueError(f"negative power {power} of {name}")
        exps = [0] * len(table)
        exps[table.index(name)] = power
        return _poly(table, {tuple(exps): ONE})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        zero_exp = (0,) * len(self.table)
        return self.terms.get(zero_exp, ZERO)

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.table is not other.table and self.table != other.table:
            raise ValueError("VarTable mismatch")

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return _poly(self.table, _sum_terms(dict(self.terms), other.terms, 1))
        c = coerce(other)
        if c is None:
            return NotImplemented
        return self + Poly.const(self.table, c)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return _poly(self.table, _sum_terms(dict(self.terms), other.terms, -1))
        c = coerce(other)
        if c is None:
            return NotImplemented
        return self + Poly.const(self.table, -c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return _poly(self.table, _product_terms(self.terms, other.terms))
        c = coerce(other)
        if c is None:
            return NotImplemented
        if c.is_zero():
            return Poly.zero(self.table)
        return _poly(self.table, _scaled_terms(self.terms, c))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        check_exponent(exponent)
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if not exponent:
            return Poly.const(self.table, 1)
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.table == other.table and self.terms == other.terms
        c = coerce(other)
        if c is None:
            return NotImplemented
        return self == Poly.const(self.table, c)

    __hash__ = None  # mutable dict inside; use sorted term tuples if needed

    def degree_in(self, name: str) -> int:
        k = self.table.index(name)
        if not self.terms:
            return -1
        return max(e[k] for e in self.terms)

    # -- conjugation ---------------------------------------------------------

    def conjugate(self) -> "Poly":
        """Conjugate the coefficients; every variable is fixed."""
        return _poly(self.table, {e: c.conjugate() for e, c in self.terms.items()})

    # -- evaluation -----------------------------------------------------------

    def specialize(self, values: Mapping[str, object]) -> "Poly":
        """Substitute scalars for a subset of the variables (see
        _specialize_all).  A value that is no scalar raises TypeError, an
        unknown name ValueError."""
        return _specialize_all((self,), values)[0]

    def evaluate(self, values: Mapping[str, object]) -> GaussianRational:
        """The value at scalars for the variables: specialize(values), which
        must leave a constant; ValueError when a variable left without a
        value survives in a term that does not cancel."""
        return self.specialize(values).constant_value()

    def derivative(self, name: str) -> "Poly":
        k = self.table.index(name)
        terms: dict = {}
        for e, c in self.terms.items():
            if e[k]:
                new_e = list(e)
                new_e[k] -= 1
                terms[tuple(new_e)] = c * e[k]
        return _poly(self.table, terms)

    # -- text form -------------------------------------------------------------

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"<Poly {poly_str(self)}>"


_new = object.__new__


def _poly(table: VarTable, terms: dict) -> Poly:
    """A Poly over terms that hold no zero coefficient; the dict is kept."""
    p = _new(Poly)
    p.table = table
    p.terms = terms
    return p


def _sum_terms(acc: dict, terms: dict, sign: int) -> dict:
    """acc += sign * terms in place, for sign 1 or -1; returns acc."""
    for e, c in terms.items():
        if sign < 0:
            c = -c
        s = acc.get(e)
        if s is None:
            acc[e] = c
            continue
        s = s + c
        if s.a or s.b:
            acc[e] = s
        else:
            del acc[e]
    return acc


def _denominator(coefficients: Iterable[GaussianRational]) -> int:
    """Least common denominator of the coefficients."""
    D = 1
    for c in coefficients:
        d = c.d
        if d != 1 and D % d:
            D = D // gcd(D, d) * d
    return D


def _numerators(terms: dict) -> tuple[int, list]:
    """Common denominator D of the coefficients, and the (exponents, re, im)
    numerators over D."""
    D = _denominator(terms.values())
    if D == 1:
        return 1, [(e, c.a, c.b) for e, c in terms.items()]
    return D, [(e, c.a * (D // c.d), c.b * (D // c.d)) for e, c in terms.items()]


def _int_product(n1: list, n2: list) -> list:
    """The product of two Gaussian-integer polynomials given as lists of
    (exponents, re, im) without zero terms, in the same form: the one product
    loop of Poly multiplication and of RingMap substitution."""
    if len(n1) < len(n2):
        n1, n2 = n2, n1
    if len(n2) == 1:
        # Z[i] has no zero divisors, and distinct monomials stay distinct
        (e2, a2, b2), = n2
        return [(tuple(map(add, e1, e2)), a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
                for e1, a1, b1 in n1]
    acc: dict = {}
    for e2, a2, b2 in n2:
        _int_add_scaled(acc, n1, a2, b2, e2)
    return [(e, a, b) for e, (a, b) in acc.items() if a or b]


def _int_add_scaled(acc: dict, terms: list, a: int, b: int, shift: tuple | None = None) -> None:
    """acc += (a + b i) * x^shift * terms, for acc a dict exponents -> [re, im]
    and terms a list of (exponents, re, im); no shift when shift is None."""
    get = acc.get
    for e, ta, tb in terms:
        if shift:
            e = tuple(map(add, e, shift))
        s = get(e)
        if s is None:
            acc[e] = [a * ta - b * tb, a * tb + b * ta]
        else:
            s[0] += a * ta - b * tb
            s[1] += a * tb + b * ta


def _product_terms(t1: dict, t2: dict) -> dict:
    """Terms of the product, multiplied as Gaussian-integer numerators over
    the product of the two common denominators and reduced once per term."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    if len(t2) == 1:
        (e2, c), = t2.items()
        if not any(e2):
            return _scaled_terms(t1, c)
        return {tuple(map(add, e1, e2)): k * c for e1, k in t1.items()}
    D1, n1 = _numerators(t1)
    D2, n2 = _numerators(t2)
    D = D1 * D2
    return {e: _reduce(a, b, D) for e, a, b in _int_product(n1, n2)}


def _scaled_terms(terms: dict, c: GaussianRational) -> dict:
    """Terms times the nonzero scalar c."""
    if c.is_one():
        return dict(terms)
    return {e: k * c for e, k in terms.items()}


def _specialize_all(polys: Sequence[Poly], values: Mapping[str, object]) -> list[Poly]:
    """Each of the polys, over one table, with scalars for the named
    variables, term by term in Q(i): each power of a value is built once per
    call, and a sum that cancels is dropped, so the terms come out in the
    order that adding them one by one gives.  A value that is no scalar
    raises TypeError, an unknown name ValueError."""
    if not polys:
        return []
    table = polys[0].table
    powers = []  # (k, [1, v_k, v_k^2, ...]) per named variable
    kept = [1] * len(table)  # 0 at each named position
    for name, v in values.items():
        if (c := coerce(v)) is None:
            raise TypeError(f"not a scalar for {name}: {v!r}")
        k = table.index(name)
        powers.append((k, [ONE, c]))
        kept[k] = 0
    out = []
    for p in polys:
        p._check(polys[0])
        terms: dict = {}
        for e, c in p.terms.items():
            for k, vs in powers:
                if n := e[k]:
                    while len(vs) <= n:
                        vs.append(vs[-1] * vs[1])
                    c = c * vs[n]
            key = tuple(map(mul, e, kept))
            if (s := terms.get(key)) is not None:
                c = s + c
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        out.append(_poly(table, terms))
    return out


def compile_reads(polys: Sequence[Poly], kept: Sequence[str]) -> tuple:
    """A batch of polys over one table, compiled for read_at, which alone
    reads it: numerators in Z[i] over one denominator D, grouped by the
    monomial in the kept names, with each distinct exponent tuple of the read
    names (the other names the batch uses) indexed once.  An unknown kept
    name raises ValueError."""
    table = polys[0].table
    keep = [table.index(name) for name in kept]
    read = [k for k in range(len(table)) if k not in keep and any(
        e[k] for p in polys for e in p.terms)]
    D = _denominator(c for p in polys for c in p.terms.values())
    powers: dict = {}  # read exponents -> index
    parts = []
    for p in polys:
        groups: dict = {}
        for e, c in p.terms.items():
            k = powers.setdefault(tuple([e[j] for j in read]), len(powers))
            groups.setdefault(tuple([e[j] for j in keep]), []).append(
                (k, c.a * (D // c.d), c.b * (D // c.d)))
        parts.append(tuple(groups.items()))
    tops = tuple(map(max, zip(*powers)))
    return tuple([table.names[k] for k in read]), tops, D, tuple(powers), parts


def read_at(form: tuple, values: Mapping[str, tuple]) -> tuple[int, list]:
    """A compile_reads form at values p_k/q_k given by name as pairs (p_k,
    q_k), q_k a positive int and p_k an int or a Gaussian-integer
    GaussianRational: the denominator D*prod q_k^top_k and, per poly in term
    order, its nonzero terms (kept exponents, re, im) over it, each power e of
    name k read as p_k^e*q_k^(top_k-e), top_k its highest in the batch."""
    names, tops, D, powers, parts = form
    rows = []
    for name, t in zip(names, tops):
        p, q = values[name]
        rows.append([p ** e * q ** (t - e) for e in range(t + 1)])
        D *= q ** t
    scales = [prod(map(getitem, rows, es)) for es in powers]
    sums = []
    for groups in parts:
        sums.append(terms := [])
        for e, cs in groups:
            a = b = 0
            for k, ca, cb in cs:
                m = scales[k]
                a += ca * m
                b += cb * m
            if a or b:
                terms.append((e, a, b))
    if scales and type(scales[0]) is not int:  # a and b in Z[i]: the term is a + b*i
        sums = [[(e, x, y) for e, a, b in terms for x, y in [(a.a - b.b, a.b + b.a)]
                 if x or y] for terms in sums]
    return D, sums


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def _monomial_str(table: VarTable, exps: tuple) -> str:
    parts = []
    for name, e in zip(table.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(p: Poly) -> str:
    """Canonical text: terms sorted descending in lex over the table order."""
    if not p.terms:
        return "0"
    out = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        mono = _monomial_str(p.table, e)
        negative = c.b == 0 and c.a < 0 or (c.a == 0 and c.b < 0)
        body_coef = -c if negative else c
        if not mono:
            body = coefficient_str(body_coef)
        elif body_coef.is_one():
            body = mono
        else:
            body = f"{coefficient_str(body_coef)}*{mono}"
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


# parse_poly's grammar, compiled by its calls (re.compile caches it).
# Spaces next to an operator or a parenthesis carry no meaning.  Any space
# left stands between two words, such as "x y", which no factor matches.
_SPACE = r"\s*([-+*/^()])\s*"

_RATIONAL = RATIONAL_TEXT.pattern
_FACTOR = rf"""(?x)
    (?P<sep>[-+*]?)
    (?: (?=[0-9])(?P<rational>{_RATIONAL})
      | \((?P<real>{_RATIONAL})\)(?P<imag>i)?
      | \(\((?P<re>{_RATIONAL})\)(?P<sign>[-+])\((?P<im>{_RATIONAL})\)i\)
      | (?P<unit>i)(?!\w)
      | (?P<name>[^\W\d]\w*)(?:\^(?P<power>[0-9]+))?
    )"""


def _factor(m: re.Match, table: VarTable) -> Poly:
    """The Poly of one matched factor."""
    name = m["name"]
    if name:
        return Poly.var(table, name, int(m["power"] or 1))  # ValueError if unknown
    if m["unit"]:
        value = GaussianRational(0, 1)
    elif m["re"]:
        im = Fraction(m["im"])
        value = GaussianRational(Fraction(m["re"]), -im if m["sign"] == "-" else im)
    elif m["real"]:
        q = Fraction(m["real"])
        value = GaussianRational(0, q) if m["imag"] else q
    else:
        value = Fraction(m["rational"])
    return Poly.const(table, value)


def parse_poly(text: str, table: VarTable) -> Poly:
    """Parse the canonical text form back into a Poly (round-trips poly_str).

    A term is an optional sign and factors joined by ``*``; terms are joined
    by ``+`` or ``-``.  A factor is a rational ``p/q`` (see
    ``gaussian.RATIONAL_TEXT``, unsigned here), a scalar ``(q)``, ``(q)i`` or
    ``((p)+(q)i)``, the unit ``i``, or a table variable with an optional
    power ``name^n``.  Spaces may stand between tokens.  Malformed text, an
    unknown variable and a zero denominator raise ValueError.
    """
    s = re.compile(_SPACE).sub(r"\1", text).strip()
    factor_at = re.compile(_FACTOR).match
    result = term = Poly.zero(table)
    pos, seps = 0, ("", "+", "-")
    while True:
        m = factor_at(s, pos)
        if m is None or m["sep"] not in seps:
            raise ValueError(f"malformed polynomial text {text!r} at {s[pos:]!r}")
        seps = ("+", "-", "*")
        try:
            factor = _factor(m, table)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if m["sep"] == "*":
            term = term * factor
        else:
            result = result + term
            term = -factor if m["sep"] == "-" else factor
        pos = m.end()
        if pos == len(s):
            return result + term


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def _int_content_scale(polys) -> tuple[int, int]:
    """(L, G): L clears every coefficient denominator, and G is the gcd of all
    real and imaginary parts once they are cleared, so that multiplying by
    L/G makes the polynomials primitive over Z[i] (G is 1 for zero input)."""
    L = 1
    for p in polys:
        D = _denominator(p.terms.values())
        L = L // gcd(L, D) * D
    G = 0
    for p in polys:
        for c in p.terms.values():
            s = L // c.d
            G = gcd(G, c.a * s, c.b * s)
            if G == 1:
                return L, 1
    return L, G or 1


class RatFunc:
    """Unreduced fraction of two polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.table, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        self.num, self.den = _strip(num, den)

    @staticmethod
    def var(table: VarTable, name: str) -> "RatFunc":
        f = _new(RatFunc)  # x over 1 is in the kept form
        f.num, f.den = Poly.var(table, name), _poly(table, {(0,) * len(table): ONE})
        return f

    @property
    def table(self) -> VarTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("denominator is not constant")
        return self.num * self.den.constant_value().inverse()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        c = coerce(other)
        if c is not None:
            return RatFunc(Poly.const(self.table, c))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(*_sum_parts(self, other, add))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(*_sum_parts(self, other, sub))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        check_exponent(exponent)
        if exponent < 0:
            return (RatFunc(self.den, self.num)) ** (-exponent)
        return RatFunc(self.num ** exponent, self.den ** exponent)

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def conjugate(self) -> "RatFunc":
        return RatFunc(self.num.conjugate(), self.den.conjugate())

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None

    def __str__(self):
        if self.den == Poly.const(self.table, 1):
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self):
        return f"<RatFunc {self}>"


def _int_ratfunc(table: VarTable, num: list, den: list) -> RatFunc:
    """num/den, each part (exponents, re, im) Gaussian-integer terms with no
    zero term, in the form RatFunc keeps: the shared monomial shifted out and
    the gcd of all their integers divided out, with no fraction built."""
    if not num:  # zero, which RatFunc keeps over 1
        den = [((0,) * len(table), 1, 0)]
    moved = any(shift := tuple(map(min, den[0][0], *(e for e, _, _ in num + den))))
    g = gcd(*(x for _, a, b in num + den for x in (a, b)))
    f = _new(RatFunc)
    f.num, f.den = (_poly(table, {tuple(map(sub, e, shift)) if moved else e:
                                  _reduce(a // g, b // g, 1) for e, a, b in part})
                    for part in (num, den))
    return f


def _is_unit(p: Poly) -> bool:
    """Is p the constant 1?"""
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    return c.is_one() and not any(e)


def _sum_parts(f: RatFunc, g: RatFunc, op) -> tuple[Poly, Poly]:
    """(f.num*g.den op g.num*f.den, f.den*g.den) for op add or sub, with
    each product by a denominator 1 left out."""
    if _is_unit(g.den):
        if _is_unit(f.den):
            return op(f.num, g.num), f.den
        return op(f.num, g.num * f.den), f.den
    if _is_unit(f.den):
        return op(f.num * g.den, g.num), g.den
    return op(f.num * g.den, g.num * f.den), f.den * g.den


def _strip(num: Poly, den: Poly):
    """Divide out the common monomial factor and scale both parts by a
    positive rational, so that they become primitive Z[i] polynomials."""
    if num.is_zero():
        return num, Poly.const(den.table, 1)
    common = None
    for p in (den, num):
        for e in p.terms:
            common = e if common is None else tuple(map(min, common, e))
        if not any(common):
            break
    else:
        shift = common

        def unshift(p: Poly) -> Poly:
            return _poly(p.table, {tuple(map(sub, e, shift)): c for e, c in p.terms.items()})

        num, den = unshift(num), unshift(den)
    L, G = _int_content_scale((num, den))
    if L != 1 or G != 1:
        num, den = _rescaled(num, L, G), _rescaled(den, L, G)
    return num, den


def _rescaled(p: Poly, L: int, G: int) -> Poly:
    """p times L/G, where every coefficient becomes a Gaussian integer."""
    terms = {}
    for e, c in p.terms.items():
        s = L // c.d
        terms[e] = GaussianRational(c.a * s // G, c.b * s // G)
    return _poly(p.table, terms)


# ---------------------------------------------------------------------------
# substitution homomorphisms
# ---------------------------------------------------------------------------


class RingMap:
    """Substitution map: one image per source-table variable.

    conjugates_coefficients=True means the coefficients are conjugated
    before the substitution; the variables, all real, are fixed.
    As geometry, a RingMap source->target is the pullback of a point map
    Spec(target) -> Spec(source).
    """

    __slots__ = ("source", "target", "images", "conjugates_coefficients", "_moves", "_powers",
                 "_factors")

    def __init__(self, source: VarTable, target: VarTable, images, conjugates_coefficients=False):
        self.source = source
        self.target = target
        imgs = []
        for im in images:
            if isinstance(im, Poly):
                im = RatFunc(im)
            if im.table != target:
                raise ValueError("image not over the target table")
            imgs.append(im)
        if len(imgs) != len(source):
            raise ValueError("one image per source variable required")
        self.images = tuple(imgs)
        self.conjugates_coefficients = bool(conjugates_coefficients)
        self._moves = ...  # _relabelling's result, found on the first call
        # the integer tables of _subst, kept for the map's lifetime
        self._powers: dict = {}  # (k, 0) or (k, 1) -> [None, X, X^2, ...] for X = N_k or D_k
        self._factors: dict = {}  # (k, e, top_k - e) -> N_k^e*D_k^(top_k-e), None for 1

    @staticmethod
    def from_images(source: VarTable, target: VarTable,
                    images: Mapping[str, RatFunc]) -> "RingMap":
        """The given images for some source names; every other source name
        maps to the target variable of the same name.  A name the source
        table does not have raises ValueError."""
        if unknown := [n for n in images if n not in source.names]:
            raise ValueError(f"images of unknown variables {unknown}; the table has {source.names}")
        return RingMap(source, target, [
            images[n] if n in images else RatFunc.var(target, n) for n in source.names
        ])

    @staticmethod
    def identity(table: VarTable) -> "RingMap":
        return RingMap.from_images(table, table, {})

    @staticmethod
    def conjugation(table: VarTable) -> "RingMap":
        """Coordinatewise conjugation as a substitution with identity images."""
        return RingMap(table, table, RingMap.identity(table).images,
                       conjugates_coefficients=True)

    def image_of(self, name: str) -> RatFunc:
        return self.images[self.source.index(name)]

    def __call__(self, value):
        """Apply the substitution to a Poly or RatFunc over the source table;
        a Poly p is taken as the fraction p/1."""
        if not isinstance(value, (Poly, RatFunc)):
            raise TypeError(f"cannot substitute into {value!r}")
        if value.table != self.source:
            raise ValueError("VarTable mismatch")
        if self._moves is ...:
            self._moves = _relabelling(self.images, self.target)
        if self._moves is not None:
            return self._relabelled(value)
        num, den = self._subst((value.num, value.den) if isinstance(value, RatFunc)
                               else (value, Poly.const(value.table, 1)))
        if den.is_zero():
            raise ZeroDivisionError("denominator maps to zero")
        return RatFunc(num, den)

    def _relabelled(self, value):
        """value under a relabelling, conjugated when flagged: renaming and
        conjugating keep a RatFunc's parts in its kept form, so none is stripped."""
        move, conj = self._moves, self.conjugates_coefficients

        def moved(p: Poly) -> Poly:
            return _poly(self.target, {move(e + (0,)): c.conjugate() if conj else c
                                       for e, c in p.terms.items()})

        if isinstance(value, Poly):
            return RatFunc(moved(value))
        f = _new(RatFunc)
        f.num, f.den = moved(value.num), moved(value.den)
        return f

    def _subst(self, parts: tuple) -> list:
        """The images of the parts of a fraction, each times one common
        denominator D, so that their quotient is the image of the fraction;
        the parts' coefficients are conjugated first when the map says so.

        For images N_k/D_k, with top_k the highest power of variable k in
        either part, a term c*prod x_k^e_k maps to
        c*prod N_k^e_k*D_k^(top_k-e_k), and D = prod D_k^top_k.  A Poly
        p/1 thus maps to the pair (image of p times D, D).

        The work is in Gaussian integers: image parts are primitive Z[i]
        polynomials, so the powers N_k^e and D_k^e and each factor
        N_k^e*D_k^(top_k-e) are built on (exponents, re, im) terms once per
        map and kept on it for its lifetime: a factor is keyed by
        (k, e, top_k-e), as top_k changes from one call to the next.  The
        tables grow in place, so one map is not for two threads at once.  A
        part's terms are read as numerators over its coefficients' common
        denominator, and the sum is reduced to Q(i) once per output term.

        When every D_k is a positive integer times a monomial, so is every
        power of it, and stripping divides such a common factor out: the
        RatFunc of these images is the pair that adding the terms as RatFuncs
        gives.  Otherwise the pair may differ from that sum's by a common
        polynomial factor; the value is the same.
        """
        top = [0] * len(self.source)
        for p in parts:
            for e in p.terms:
                for k, power in enumerate(e):
                    if power > top[k]:
                        top[k] = power
        ks = [k for k, t in enumerate(top) if t]
        images, powers, factors = self.images, self._powers, self._factors

        def power(key: tuple, x: Poly, n: int) -> list:
            xs = powers.get(key)
            if xs is None:
                xs = powers[key] = [None, [(m, c.a, c.b) for m, c in x.terms.items()]]
            while len(xs) <= n:
                xs.append(_int_product(xs[-1], xs[1]))
            return xs[n]

        def factor(k: int, e: int) -> list | None:
            key = (k, e, top[k] - e)
            if key not in factors:
                image, rest = images[k], key[2]
                f = power((k, 0), image.num, e) if e else None
                if rest and not _is_unit(image.den):
                    g = power((k, 1), image.den, rest)
                    f = g if f is None else _int_product(f, g)
                factors[key] = f
            return factors[key]

        one = [((0,) * len(self.target), 1, 0)]
        out = []
        for p in parts:
            D, numerators = _numerators(p.terms)
            if self.conjugates_coefficients:
                numerators = [(e, a, -b) for e, a, b in numerators]
            acc: dict = {}  # exponents -> [re, im]
            for e, ca, cb in numerators:
                mono = None  # None for 1
                for k in ks:
                    f = factor(k, e[k])
                    if f is not None:
                        mono = f if mono is None else _int_product(mono, f)
                _int_add_scaled(acc, one if mono is None else mono, ca, cb)
            out.append(_poly(self.target, {
                e: _reduce(a, b, D) for e, (a, b) in acc.items() if a or b}))
        return out

    def is_identity(self) -> bool:
        if self.source != self.target or self.conjugates_coefficients:
            return False
        return all(
            im == RatFunc.var(self.target, n) for im, n in zip(self.images, self.source.names)
        )

    def __repr__(self):
        arrow = "~>" if self.conjugates_coefficients else "->"
        pieces = ", ".join(f"{n} {arrow} {im}" for n, im in zip(self.source.names, self.images))
        return f"<RingMap {pieces}>"


def _relabelling(images: tuple, target: VarTable):
    """For a relabelling (images distinct target variables over 1), the map
    from a source exponent tuple, a 0 appended, to the target's; else None."""
    at: dict = {}  # target position -> source position
    for k, f in enumerate(images):
        if len(f.num.terms) != 1 or not _is_unit(f.den):
            return None
        (e, c), = f.num.terms.items()
        if not c.is_one() or sum(e) != 1 or at.setdefault(e.index(1), k) != k:
            return None
    where = [at.get(j, len(images)) for j in range(len(target))]  # the appended 0 if none
    # itemgetter of one position gives no tuple; one target variable keeps its exponent
    return itemgetter(*where) if len(where) > 1 else lambda e: e[:len(where)]


def compose(*maps: RingMap) -> RingMap:
    """Composite of point maps listed outermost first.

    compose(f, g) is the point map f∘g (g applied first); on the ring side the
    images of f are pushed through g.  Conjugation flags XOR.
    """
    if not maps:
        raise ValueError("compose needs at least one map")
    current = maps[0]
    for nxt in maps[1:]:
        if current.target != nxt.source:
            raise ValueError("tables do not chain")
        images = [nxt(im) for im in current.images]
        current = RingMap(
            current.source,
            nxt.target,
            images,
            conjugates_coefficients=current.conjugates_coefficients ^ nxt.conjugates_coefficients,
        )
    return current
