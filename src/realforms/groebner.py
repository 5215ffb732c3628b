"""Budgeted Buchberger engine over Q(i) with lex, grevlex and elimination orders.

All computations are exact.  An Ideal caches one reduced Groebner basis per
monomial order.  Membership, containment and equality are decided in graded
reverse lex, the cheapest order for them (Bayer-Stillman); bases and normal
forms asked for without an order are lex.  Membership accepts a constant
multiple of a generator, then a polynomial the raw generators divide to
zero, before it builds a basis.  Membership is plain, in the polynomial ring
itself: nothing is localised, because every ideal the checks test is
saturated by the units they could invert.

Buchberger queues its pairs in a heap keyed by the order key of their lcm and
prunes them by the Gebauer-Moeller criteria when an element enters (Gebauer
and Moeller, "On an installation of Buchberger's algorithm", J. Symbolic
Comput. 6, 1988), so no pair is scanned again when it is popped.  Reduced
bases are unique, so the pruning changes the steps spent, not the bases.

Division takes prepared divisors: each divisor's leading monomial, and the
other terms of its monic multiple as Gaussian-integer numerators over one
common denominator.  Buchberger prepares each basis element once, when it
enters the basis, and memoises the order key of each monomial for the length
of the run, which changes no divisor a step uses: step counts and results are
those of preparing afresh at every division.  An Ideal keeps only its bases;
every remainder it takes goes through normal_form.

The elimination order may put parameter names in a last block of their own.
A Groebner basis in such an order, over Q[parameters], specializes to a
Groebner basis at every parameter value where the leading coefficients of its
elements in the other variables do not vanish (Gianni, EUROCAL '87;
Kalkbrener, "On the stability of Groebner bases under specializations",
J. Symbolic Comput. 24, 1997).

A global reduction-step budget guards against runaway eliminations; it can be
overridden with the REALFORMS_STEP_BUDGET environment variable.
"""
from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceeded
from .gaussian import DIGITS_TEXT, _reduce, _sub_mul
from .ring import Poly, VarTable, _numerators, _poly, _scaled_terms

DEFAULT_STEP_BUDGET = 2_000_000
BUDGET_ENV_VAR = "REALFORMS_STEP_BUDGET"


def step_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_STEP_BUDGET
    if not DIGITS_TEXT.fullmatch(raw.strip()) or int(raw) <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer in ASCII digits, "
                         f"got {raw!r}")
    return int(raw)


class MonomialOrder:
    """lex or graded reverse lex over the VarTable order, or a block order
    with front variables first and optional parameters last.

    grevlex compares total degree first; ties go to the monomial with the
    smaller exponent in the last variable where the two differ.  The block
    order compares the front exponents lexicographically; ties are broken by
    graded reverse lex on the middle exponents, those of the variables that
    are neither front nor parameter, and then by graded reverse lex on the
    parameter exponents.  Any monomial containing a front variable outranks
    every monomial free of them, which is what elimination needs, and the
    graded middle keeps eliminations tractable.  A parameter exponent only
    breaks ties, so a basis over Q[parameters] specializes (see the module
    docstring).
    """

    __slots__ = ("kind", "front", "params")

    def __init__(self, kind: str, front: Iterable[str] = (), params: Iterable[str] = ()):
        if kind not in ("lex", "grevlex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.front = tuple(front)
        self.params = tuple(params)
        if kind == "elim" and not self.front:
            raise ValueError("elimination order needs front variables")
        if self.params and kind != "elim":
            raise ValueError("only the elimination order takes parameters")

    def key_fn(self, table: VarTable) -> Callable[[tuple], tuple]:
        """Sort key of an exponent vector: a flat tuple of ints that is
        larger exactly for the larger monomial."""
        if self.kind == "lex":
            return lambda exps: exps
        if self.kind == "grevlex":
            return lambda exps: (sum(exps), *map(neg, reversed(exps)))
        front_idx = tuple(table.index(n) for n in self.front)
        param_rev = tuple(reversed([table.index(n) for n in self.params]))
        outside = set(front_idx) | set(param_rev)
        back_rev = tuple(k for k in reversed(range(len(table))) if k not in outside)

        def key(exps: tuple) -> tuple:
            back = [exps[k] for k in back_rev]
            last = [exps[k] for k in param_rev]
            return (*[exps[k] for k in front_idx], sum(back), *map(neg, back),
                    sum(last), *map(neg, last))

        return key

    def __eq__(self, other):
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return (self.kind, self.front, self.params) == (other.kind, other.front, other.params)

    def __hash__(self):
        return hash((self.kind, self.front, self.params))

    def __repr__(self):
        if self.kind != "elim":
            return f"MonomialOrder({self.kind})"
        if not self.params:
            return f"MonomialOrder(elim, front={self.front!r})"
        return f"MonomialOrder(elim, front={self.front!r}, params={self.params!r})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination_order(front: Iterable[str], params: Iterable[str] = ()) -> MonomialOrder:
    return MonomialOrder("elim", front, params)


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
            blocks = [f"{name} {', '.join(names)}" for name, names in (
                ("front", self.order.front), ("parameters", self.order.params)) if names]
            if blocks:
                order += f" ({'; '.join(blocks)})"
            raise BudgetExceeded(
                f"Groebner step budget exhausted: {self.limit} steps spent in "
                f"{self.task}, {order} order, variables ({', '.join(self.table.names)}), "
                f"{self.generators} generators (set {BUDGET_ENV_VAR} to raise it)"
            )


class _Ranks(dict):
    """Heap rank of each exponent vector met in one computation: the order
    key negated, so the larger monomial ranks first.  Each rank is computed
    once, on first use."""

    __slots__ = ("key",)

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, e: tuple) -> tuple:
        r = self[e] = tuple(map(neg, self.key(e)))
        return r


def _check_tables(table: VarTable, items: Iterable):
    """Raise unless every polynomial or ideal given is over the table."""
    if any(p.table != table for p in items):
        raise ValueError("VarTable mismatch")


def _divides(d: tuple, e: tuple) -> bool:
    return all(map(le, d, e))


def _monic(terms: dict, ranks: _Ranks) -> tuple[tuple, dict]:
    """Leading monomial of nonzero terms, and the terms over its coefficient."""
    lt = min(terms, key=ranks.__getitem__)
    c = terms[lt]
    return lt, terms if c.is_one() else _scaled_terms(terms, c.inverse())


def _prepare(lt: tuple, monic: dict) -> tuple:
    """A divisor ready for _divide: its leading monomial, and its other terms
    as Gaussian-integer numerators over one common denominator."""
    den, numerators = _numerators(monic)
    return lt, den, [n for n in numerators if n[0] != lt]


def _divide(terms: dict, prepared: Sequence[tuple], ranks: _Ranks,
            budget: _Budget, quotient: dict | None = None) -> dict:
    """Terms of the full division remainder by prepared divisors; each term
    is divided by the first divisor whose leading monomial divides it.

    With one divisor, a given quotient dict receives the quotient terms by
    its monic multiple: the monomials divided come in strictly decreasing
    order, so each shift occurs once."""
    work = dict(terms)
    remainder: dict = {}
    # the largest monomial left in work comes first; entries of monomials
    # that cancelled out are skipped when they come up
    heap = [(ranks[e], e) for e in work]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for lt, den, tail in prepared:
            if _divides(lt, e):
                budget.spend()
                # work -= c * x^shift * g for monic g; the leading terms cancel
                shift = tuple(map(sub, e, lt))
                if quotient is not None:
                    quotient[shift] = c
                ca, cb, q = c.a, c.b, c.d * den
                for ge, ga, gb in tail:
                    te = tuple(map(add, ge, shift))
                    s = work.get(te)
                    v = _sub_mul(s, ca, cb, ga, gb, q)
                    if s is None:
                        work[te] = v
                        heappush(heap, (ranks[te], te))
                    elif v.a or v.b:
                        work[te] = v
                    else:
                        del work[te]
                break
        else:
            remainder[e] = c
    return remainder


def _is_multiple(terms: dict, of: dict) -> bool:
    """Are nonzero terms a constant multiple of the terms of another?"""
    if terms.keys() != of.keys():
        return False
    items = iter(of.items())
    e, c = next(items)
    ratio = terms[e] / c
    return all(terms[e] == ratio * c for e, c in items)


def normal_form(p: Poly, basis: Sequence[Poly], order: MonomialOrder = LEX) -> Poly:
    """Full multivariate division remainder of p by the basis list."""
    _check_tables(p.table, basis)
    ranks = _Ranks(order.key_fn(p.table))
    budget = _Budget(step_budget(), "normal_form", order, p.table, len(basis))
    prepared = [_prepare(*_monic(g.terms, ranks)) for g in basis if not g.is_zero()]
    return _poly(p.table, _divide(p.terms, prepared, ranks, budget))


def _s_terms(f: tuple, g: tuple) -> dict:
    """Terms of the S-polynomial of two prepared monic divisors, over the
    product of their denominators."""
    lf, df, tf = f
    lg, dg, tg = g
    lcm = tuple(map(max, lf, lg))
    mf = tuple(map(sub, lcm, lf))
    mg = tuple(map(sub, lcm, lg))
    re: dict = {}
    im: dict = {}
    for ge, a, b in tf:
        e = tuple(map(add, ge, mf))
        re[e] = a * dg
        im[e] = b * dg
    for ge, a, b in tg:
        e = tuple(map(add, ge, mg))
        re[e] = re.get(e, 0) - a * df
        im[e] = im.get(e, 0) - b * df
    d = df * dg
    return {e: _reduce(a, im[e], d) for e, a in re.items() if a or im[e]}


def buchberger(generators: Sequence[Poly], order: MonomialOrder = LEX) -> list[Poly]:
    """Reduced Groebner basis (monic, sorted descending by leading monomial).

    Buchberger with normal pair selection: the pairs wait in a heap keyed by
    the order key of the lcm of their leading monomials.  The Gebauer-Moeller
    criteria prune pairs when an element enters, not when a pair is popped:
    of its new pairs, those whose lcm another new pair's lcm divides (M), all
    but one of equal lcm (F) and those with coprime leading monomials
    (product criterion) are never queued, and a queued pair goes when the
    new leading monomial divides its lcm and gives neither lcm of the chain
    (B).  Each pair popped spends one step of the budget, as does each
    division step.  Raises BudgetExceeded when the budget runs out.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    table = gens[0].table
    key = order.key_fn(table)
    ranks = _Ranks(key)
    budget = _Budget(step_budget(), "buchberger", order, table, len(gens))

    basis: list[dict] = []  # monic terms of each element
    prepared: list = []  # each element as a divisor, built when it enters
    lead: list = []
    # elements whose leading monomial no later one divides: the ones new
    # pairs are formed with, and at the end the minimal basis
    active: list[int] = []
    pairs: list = []  # heap of (order key of the lcm, i, j, lcm)

    def admit(remainder: dict):
        lt, monic = _monic(remainder, ranks)
        h = len(basis)
        basis.append(monic)
        prepared.append(_prepare(lt, monic))
        lead.append(lt)
        # M and F: a new pair goes when the lcm of a later new pair, or of
        # one kept, divides its lcm, so of equal lcms only the last stays.
        # Coprime pairs are kept through this filter, since they prune others
        new = [(g, tuple(map(max, lead[g], lt))) for g in active]
        kept = []
        for n, (g, lcm) in enumerate(new):
            coprime = not any(map(min, lead[g], lt))
            if coprime or not (any(_divides(m, lcm) for _, m in new[n + 1:])
                               or any(_divides(m, lcm) for _, _, m in kept)):
                kept.append((coprime, g, lcm))
        # B: a queued pair (i, j) goes when lt divides its lcm and differs
        # from it in lcm(lead[i], lt) and in lcm(lead[j], lt)
        pairs[:] = [
            p for p in pairs
            if not _divides(lt, p[3])
            or tuple(map(max, lead[p[1]], lt)) == p[3]
            or tuple(map(max, lead[p[2]], lt)) == p[3]
        ]
        heapify(pairs)
        for coprime, g, lcm in kept:
            if not coprime:
                heappush(pairs, (key(lcm), g, h, lcm))
        active[:] = [g for g in active if not _divides(lt, lead[g])]
        active.append(h)

    for g in gens:
        r = _divide(g.terms, prepared, ranks, budget)
        if r:
            admit(r)

    while pairs:
        _, i, j, _ = heappop(pairs)
        budget.spend()
        r = _divide(_s_terms(prepared[i], prepared[j]), prepared, ranks, budget)
        if r:
            admit(r)

    # tail-reduce each element against the others
    keep = sorted(active, key=lambda k: key(lead[k]))
    reduced: list[tuple] = []
    for k in keep:
        others = [prepared[m] for m in keep if m != k]
        r = _divide(basis[k], others, ranks, budget)
        if r:
            reduced.append(_monic(r, ranks))
    reduced.sort(key=lambda lt_monic: key(lt_monic[0]), reverse=True)
    return [_poly(table, monic) for _, monic in reduced]


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
        cached = self._bases.get(order)
        if cached is None:
            cached = self._bases[order] = tuple(buchberger(self.generators, order))
        return cached

    def normal_form(self, p: Poly, order: MonomialOrder = LEX) -> Poly:
        _check_tables(self.table, (p,))
        return normal_form(p, self.groebner(order), order)

    def member(self, p: Poly, order: MonomialOrder = GREVLEX) -> bool:
        _check_tables(self.table, (p,))
        if p.is_zero():
            return True
        if not self.generators:
            return False
        # cheap sufficient tests first: a constant multiple of a generator,
        # then division by the raw generators
        if any(_is_multiple(p.terms, g.terms) for g in self.generators):
            return True
        if normal_form(p, self.generators, order).is_zero():
            return True
        return self.normal_form(p, order).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.member(g) for g in other.generators)

    def equal(self, other: "Ideal") -> bool:
        _check_tables(self.table, (other,))
        return self.contains_ideal(other) and other.contains_ideal(self)

    def eliminate(self, front: Iterable[str], params: Iterable[str] = ()) -> "Ideal":
        """Intersection with the subring omitting the front variables, from
        the basis in the elimination order with the given parameters last."""
        front = tuple(front)
        if not front:
            return Ideal(list(self.generators), self.table)
        order = elimination_order(front, params)
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
    _check_tables(p.table, (d,))
    ranks = _Ranks(LEX.key_fn(p.table))
    lt, monic = _monic(d.terms, ranks)
    budget = _Budget(step_budget(), "exact_quotient", LEX, p.table, 1)
    quotient: dict = {}
    if _divide(p.terms, [_prepare(lt, monic)], ranks, budget, quotient):
        return None
    return _poly(p.table, _scaled_terms(quotient, d.terms[lt].inverse()))


def certified_unit(p: Poly, units: Sequence[Poly]) -> bool:
    """Is p a nonzero constant times a product of the given unit polynomials?

    Certifies that p cannot vanish wherever the units are invertible, by
    peeling unit factors off with exact division until a nonzero constant
    remains.
    """
    _check_tables(p.table, units)
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

