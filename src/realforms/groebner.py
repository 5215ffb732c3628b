"""Budgeted Buchberger engine over Q(i) with lex, grevlex and elimination orders.

All computations are exact.  An Ideal caches one reduced Groebner basis per
monomial order.  Membership, containment and equality are decided in graded
reverse lex, the cheapest order for them (Bayer-Stillman); bases and normal
forms asked for without an order are lex.

A global reduction-step budget guards against runaway eliminations; it can be
overridden with the REALFORMS_STEP_BUDGET environment variable.
"""
from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceeded
from .gaussian import _sub_mul
from .ring import Poly, VarTable, _numerators, _poly, _scaled_terms

DEFAULT_STEP_BUDGET = 2_000_000
BUDGET_ENV_VAR = "REALFORMS_STEP_BUDGET"
# highest power of the denominators' product member_with_denominators tries
MAX_DENOMINATOR_POWER = 6


def step_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_STEP_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
    return value


class MonomialOrder:
    """lex or graded reverse lex over the VarTable order, or a block order
    with front variables first.

    grevlex compares total degree first; ties go to the monomial with the
    smaller exponent in the last variable where the two differ.  The block
    order compares the front exponents lexicographically; ties are broken by
    graded reverse lex on the remaining exponents.  Any monomial containing a
    front variable outranks every monomial free of them, which is what
    elimination needs, and the graded tail keeps eliminations tractable.
    """

    __slots__ = ("kind", "front")

    def __init__(self, kind: str, front: Iterable[str] = ()):
        if kind not in ("lex", "grevlex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.front = tuple(front)
        if kind == "elim" and not self.front:
            raise ValueError("elimination order needs front variables")

    def key_fn(self, table: VarTable) -> Callable[[tuple], tuple]:
        """Sort key of an exponent vector: a flat tuple of ints that is
        larger exactly for the larger monomial."""
        if self.kind == "lex":
            return lambda exps: exps
        if self.kind == "grevlex":
            return lambda exps: (sum(exps), *map(neg, reversed(exps)))
        front_idx = tuple(table.index(n) for n in self.front)
        front_set = set(front_idx)
        back_rev = tuple(k for k in reversed(range(len(table))) if k not in front_set)

        def key(exps: tuple) -> tuple:
            back = [exps[k] for k in back_rev]
            return (*[exps[k] for k in front_idx], sum(back), *map(neg, back))

        return key

    def cache_token(self):
        return (self.kind, self.front)

    def __eq__(self, other):
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return self.cache_token() == other.cache_token()

    def __hash__(self):
        return hash(self.cache_token())

    def __repr__(self):
        if self.kind != "elim":
            return f"MonomialOrder({self.kind})"
        return f"MonomialOrder(elim, front={self.front!r})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination_order(front: Iterable[str]) -> MonomialOrder:
    return MonomialOrder("elim", front)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


class _Budget:
    """Reduction steps left to one computation, and what it is, for the error."""

    __slots__ = ("limit", "left", "task", "order", "table", "generators")

    def __init__(self, limit: int, task: str, order: MonomialOrder,
                 table: VarTable, generators: int):
        self.limit = limit
        self.left = limit
        self.task = task
        self.order = order
        self.table = table
        self.generators = generators

    def spend(self):
        self.left -= 1
        if self.left < 0:
            order = self.order.kind
            if self.order.front:
                order += f" (front {', '.join(self.order.front)})"
            raise BudgetExceeded(
                f"Groebner step budget exhausted: {self.limit} steps spent in "
                f"{self.task}, {order} order, variables ({', '.join(self.table.names)}), "
                f"{self.generators} generators (set {BUDGET_ENV_VAR} to raise it)"
            )


def _leading(terms: dict, key) -> tuple:
    return max(terms, key=key)


def _divides(d: tuple, e: tuple) -> bool:
    return all(map(le, d, e))


def normal_form(p: Poly, basis: Sequence[Poly], order: MonomialOrder = LEX,
                budget: _Budget | None = None) -> Poly:
    """Full multivariate division remainder of p by the basis list."""
    if budget is None:
        budget = _Budget(step_budget(), "normal_form", order, p.table, len(basis))
    key = order.key_fn(p.table)
    # each divisor as its leading monomial and coefficient, and its other
    # terms as Gaussian-integer numerators over one common denominator
    prepared = []
    for g in basis:
        if g.is_zero():
            continue
        lt = _leading(g.terms, key)
        den, numerators = _numerators(g.terms)
        tail = [(ge, ga, gb) for ge, ga, gb in numerators if ge != lt]
        prepared.append((lt, g.terms[lt], den, tail))
    work = dict(p.terms)
    remainder: dict = {}

    def descending(e: tuple) -> tuple:
        return (*map(neg, key(e)), e)

    # the largest monomial left in work comes first; entries of monomials
    # that cancelled out are skipped when they come up
    heap = [descending(e) for e in work]
    heapify(heap)
    while heap:
        e = heappop(heap)[-1]
        c = work.pop(e, None)
        if c is None:
            continue
        for lt, lc, den, tail in prepared:
            if _divides(lt, e):
                budget.spend()
                # work -= (c / lc) * x^shift * g; the leading terms cancel
                shift = tuple(map(sub, e, lt))
                factor = c / lc
                fa, fb, q = factor.a, factor.b, factor.d * den
                for ge, ga, gb in tail:
                    te = tuple(map(add, ge, shift))
                    s = work.get(te)
                    v = _sub_mul(s, fa, fb, ga, gb, q)
                    if s is None:
                        work[te] = v
                        heappush(heap, descending(te))
                    elif v.a or v.b:
                        work[te] = v
                    else:
                        del work[te]
                break
        else:
            remainder[e] = c
    return _poly(p.table, remainder)


def _monic(p: Poly, key) -> Poly:
    lt = _leading(p.terms, key)
    c = p.terms[lt]
    if c.is_one():
        return p
    return _poly(p.table, _scaled_terms(p.terms, c.inverse()))


def _s_polynomial(f: Poly, g: Poly, key) -> Poly:
    lf = _leading(f.terms, key)
    lg = _leading(g.terms, key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = tuple(a - b for a, b in zip(lcm, lf))
    mg = tuple(a - b for a, b in zip(lcm, lg))
    cf = f.terms[lf]
    cg = g.terms[lg]
    tf = _poly(f.table, {mf: cf.inverse()})
    tg = _poly(g.table, {mg: cg.inverse()})
    return tf * f - tg * g


def buchberger(generators: Sequence[Poly], order: MonomialOrder = LEX) -> list[Poly]:
    """Reduced Groebner basis (monic, sorted descending by leading monomial).

    Classic Buchberger with the product and chain criteria and normal pair
    selection.  Raises BudgetExceeded when the step budget runs out.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    table = gens[0].table
    key = order.key_fn(table)
    budget = _Budget(step_budget(), "buchberger", order, table, len(gens))

    basis: list[Poly] = []
    for g in gens:
        r = normal_form(g, basis, order, budget)
        if not r.is_zero():
            basis.append(_monic(r, key))

    lead = [_leading(g.terms, key) for g in basis]
    pairs: set = set()
    lcms: dict = {}  # pair -> lcm of its leading monomials, and its sort key
    done: set = set()

    def add_pair(i: int, j: int):
        lcm = tuple(map(max, lead[i], lead[j]))
        pairs.add((i, j))
        lcms[i, j] = (lcm, key(lcm))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            add_pair(i, j)

    while pairs:
        i, j = min(pairs, key=lambda ij: lcms[ij][1])
        pairs.remove((i, j))
        done.add((i, j))
        budget.spend()
        lcm = lcms.pop((i, j))[0]
        # product criterion: coprime leading monomials
        if all(a + b == c for a, b, c in zip(lead[i], lead[j], lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(lead[k], lcm):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in done and p2 in done:
                skip = True
                break
        if skip:
            continue
        s = _s_polynomial(basis[i], basis[j], key)
        r = normal_form(s, basis, order, budget)
        if r.is_zero():
            continue
        r = _monic(r, key)
        basis.append(r)
        lead.append(_leading(r.terms, key))
        new_index = len(basis) - 1
        for k in range(new_index):
            add_pair(k, new_index)

    # minimalize: drop elements whose leading monomial another one divides
    order_idx = sorted(range(len(basis)), key=lambda k: key(lead[k]))
    keep: list[int] = []
    for k in order_idx:
        if not any(_divides(lead[m], lead[k]) for m in keep):
            keep.append(k)
    minimal = [basis[k] for k in keep]

    # tail-reduce each element against the others
    reduced: list[Poly] = []
    for idx, g in enumerate(minimal):
        others = [h for m, h in enumerate(minimal) if m != idx]
        r = normal_form(g, others, order, budget)
        if not r.is_zero():
            reduced.append(_monic(r, key))
    reduced.sort(key=lambda g: key(_leading(g.terms, key)), reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with cached reduced Groebner bases.

    The zero ideal (no generators) is allowed; membership then means being
    the zero polynomial.
    """

    __slots__ = ("table", "generators", "_bases")

    def __init__(self, generators: Sequence[Poly], table: VarTable | None = None):
        gens = tuple(generators)
        if table is None:
            if not gens:
                raise ValueError("zero ideal needs an explicit table")
            table = gens[0].table
        for g in gens:
            if g.table != table:
                raise ValueError("VarTable mismatch among generators")
        self.table = table
        self.generators = gens
        self._bases: dict = {}

    def groebner(self, order: MonomialOrder = LEX) -> tuple[Poly, ...]:
        token = order.cache_token()
        cached = self._bases.get(token)
        if cached is None:
            cached = tuple(buchberger(self.generators, order))
            self._bases[token] = cached
        return cached

    def normal_form(self, p: Poly, order: MonomialOrder = LEX) -> Poly:
        return normal_form(p, self.groebner(order), order)

    def member(self, p: Poly, order: MonomialOrder = GREVLEX) -> bool:
        if p.table != self.table:
            raise ValueError("VarTable mismatch")
        if p.is_zero():
            return True
        if not self.generators:
            return False
        # cheap sufficient test: divide by the raw generators first
        if normal_form(p, self.generators, order).is_zero():
            return True
        return self.normal_form(p, order).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.member(g) for g in other.generators)

    def equal(self, other: "Ideal") -> bool:
        if self.table != other.table:
            raise ValueError("VarTable mismatch")
        return self.contains_ideal(other) and other.contains_ideal(self)

    def eliminate(self, front: Iterable[str]) -> "Ideal":
        """Intersection with the subring omitting the front variables."""
        front = tuple(front)
        if not front:
            return Ideal(list(self.generators), self.table)
        order = elimination_order(front)
        basis = self.groebner(order)
        front_idx = [self.table.index(n) for n in front]
        kept = [g for g in basis if all(all(e[k] == 0 for k in front_idx) for e in g.terms)]
        return Ideal(kept, self.table)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"<Ideal ({gens})>"


def exact_quotient(p: Poly, d: Poly) -> Poly | None:
    """Quotient p / d when the division is exact, else None (lex division)."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lt = max(d.terms)
    lc = d.terms[lt]
    work = dict(p.terms)
    quotient: dict = {}
    while work:
        e = max(work)
        if not _divides(lt, e):
            return None
        shift = tuple(a - b for a, b in zip(e, lt))
        factor = work[e] / lc
        quotient[shift] = factor
        for ge, gc in d.terms.items():
            te = tuple(a + b for a, b in zip(ge, shift))
            s = work.get(te)
            s = -(factor * gc) if s is None else s - factor * gc
            if s.is_zero():
                work.pop(te, None)
            else:
                work[te] = s
    return _poly(p.table, quotient)


def certified_unit(p: Poly, units: Sequence[Poly]) -> bool:
    """Is p a nonzero constant times a product of the given unit polynomials?

    Certifies that p cannot vanish wherever the units are invertible, by
    peeling unit factors off with exact division until a nonzero constant
    remains.
    """
    if p.is_zero():
        return False
    peelable = [u for u in units if not u.is_constant()]
    while not p.is_constant():
        for u in peelable:
            q = exact_quotient(p, u)
            if q is not None:
                p = q
                break
        else:
            return False
    return not p.constant_value().is_zero()


def member_with_denominators(p: Poly, ideal: Ideal,
                             denominators: Sequence[Poly]) -> int | None:
    """Least k up to MAX_DENOMINATOR_POWER with (d1*...*dm)^k * p in the
    ideal, or None.

    Realizes membership over the localization at the multiplicative set the
    denominators generate, as far as the power bound reaches.
    """
    if p.table != ideal.table:
        raise ValueError("VarTable mismatch")
    product = Poly.const(ideal.table, 1)
    for d in denominators:
        product = product * d
    candidate = p
    for k in range(MAX_DENOMINATOR_POWER + 1):
        if ideal.member(candidate):
            return k
        if product.is_constant() and product:
            return None  # a nonzero constant factor changes no membership
        candidate = candidate * product
    return None
