"""Budgeted Buchberger engine: bases, normal forms, membership, elimination."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, given, settings, strategies as st

from realforms.errors import BudgetExceeded
from realforms.gaussian import I, GaussianRational
from realforms.groebner import (
    BUDGET_ENV_VAR,
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    buchberger,
    certified_unit,
    elimination_order,
    exact_quotient,
    normal_form,
    step_budget,
)
from realforms.modification import (
    INVERSE_NAME,
    rees_presentation,
    standard_modification,
)
from realforms.ring import Poly, VarTable, parse_poly
from realforms.surfaces import (
    ALPHA,
    coordinate_change_maps,
    displayed_real_equations,
    make_surface,
)

XY = VarTable(("x", "y"))
XYZ = VarTable(("x", "y", "z"))
AB = VarTable(("a", "b"))
# the properties below rerun Buchberger at every shrink step, so a failure
# would take minutes to shrink; it is reported as first found instead
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


def p2(text: str) -> Poly:
    return parse_poly(text, XY)


def p3(text: str) -> Poly:
    return parse_poly(text, XYZ)


def rand_poly(rng: random.Random, table: VarTable, terms: int = 3) -> Poly:
    out = Poly.zero(table)
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, 2) for _ in table.names)
        coeff = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2)),
        )
        out = out + Poly(table, {exps: coeff})
    return out


# -- frozen basis oracles -------------------------------------------------------


def same_polys(basis, expected) -> bool:
    return len(basis) == len(expected) and all(
        any(g == e for g in basis) for e in expected
    )


def test_lex_basis_oracle():
    basis = buchberger([p2("x^2 - y"), p2("x*y - 1")])
    assert same_polys(basis, [p2("x - y^2"), p2("y^3 - 1")])


def test_single_generator_basis():
    assert list(buchberger([p2("x")])) == [p2("x")]


def test_unit_ideal_collapses_to_one():
    basis = buchberger([p2("x"), p2("x + 1")])
    assert list(basis) == [p2("1")]


def test_normal_forms_against_oracle():
    basis = buchberger([p2("x^2 - y"), p2("x*y - 1")])
    assert normal_form(p2("y^3"), basis) == p2("1")
    assert normal_form(p2("x"), basis) == p2("y^2")
    assert normal_form(Poly.zero(XY), basis).is_zero()
    # a variable outside the basis survives division untouched
    g = [p3("x - y^2"), p3("y^3 - 1")]
    assert normal_form(p3("z"), g) == p3("z")


def _assert_canonical_coefficients(p: Poly):
    for c in p.terms.values():
        assert c.d > 0 and gcd(c.a, c.b, c.d) == 1, (c.a, c.b, c.d)


def test_normal_form_remainder_is_canonical():
    # the divisor's tail numerators over its common denominator 2 are 4 and 1:
    # the step subtracts 4/2 * y, which must come out as 2 before it is added
    r = normal_form(p3("x + 3*y"), [p3("x + 2*y + 1/2*z")])
    assert r == p3("y - 1/2*z")
    assert str(r) == "y - 1/2*z"
    assert r.terms[(0, 1, 0)].is_one()
    _assert_canonical_coefficients(r)


def test_membership():
    ideal = Ideal([p2("x^2 - y"), p2("x*y - 1")])
    assert ideal.member(p2("y^3 - 1"))
    assert ideal.member(Poly.zero(XY))
    combo = p2("x^2 - y") * p2("x + y") + p2("x*y - 1") * p2("y^2")
    assert ideal.member(combo)
    assert not ideal.member(p2("x"))
    assert not Ideal([p2("x^2")]).member(p2("x"))


def test_multiple_of_a_generator_is_a_member_without_a_basis():
    # LT(g1) = x^2 divides LT(g2) = x^3, so raw division of 3*g2 starts with
    # g1 and leaves the remainder 3*x*y - 3*x
    g1, g2 = p2("x^2 - y"), p2("x^3 - x")
    multiple = g2 * GaussianRational(3, -1)
    assert not normal_form(multiple, [g1, g2], GREVLEX).is_zero()
    ideal = Ideal([g1, g2])
    assert ideal.member(multiple)
    assert ideal.member(g1 * I)
    assert ideal._bases == {}
    # a non-member still goes to the basis and is refused
    assert not ideal.member(p2("x"))
    assert not ideal.member(p2("x^3 - y"))
    assert ideal._bases


def test_membership_divides_through_normal_form(monkeypatch):
    """Every remainder an Ideal takes is a normal_form call: none for a
    constant multiple of a generator, one by the generators for a member
    they divide to zero, and a second by the grevlex basis for a member
    they do not."""
    from realforms import groebner

    divisions = []

    def counted(p, basis, order=LEX):
        divisions.append((tuple(basis), order))
        return normal_form(p, basis, order)

    monkeypatch.setattr(groebner, "normal_form", counted)
    g1, g2 = p2("x^2 - y"), p2("x^3 - x")
    ideal = Ideal([g1, g2])
    assert ideal.member(g2 * GaussianRational(3, -1))
    assert divisions == []
    assert ideal.member(g1 * p2("y"))
    assert divisions == [((g1, g2), GREVLEX)]
    # g2 - x*g1; no leading monomial of a generator divides x*y
    divisions.clear()
    assert ideal.member(p2("x*y - x"))
    assert divisions == [((g1, g2), GREVLEX), (ideal.groebner(GREVLEX), GREVLEX)]
    assert ideal.groebner(GREVLEX) != (g1, g2)


def test_ideal_equality():
    ideal = Ideal([p2("x^2 - y"), p2("x*y - 1")])
    assert ideal.equal(Ideal(list(buchberger(ideal.generators))))
    assert not Ideal([p2("x")]).equal(Ideal([p2("x^2")]))
    assert Ideal([p2("x^2")]).contains_ideal(Ideal([p2("x^3"), p2("x^2 * y")]))


def test_elimination_inverts_parametrization():
    table = VarTable(("t", "x", "y"))
    tx1 = parse_poly("t*x - 1", table)
    yt = parse_poly("y - t", table)
    eliminated = Ideal([tx1, yt]).eliminate(("t",))
    assert all(g.degree_in("t") == 0 for g in eliminated.generators)
    assert eliminated.equal(Ideal([parse_poly("x*y - 1", table)], table))


def test_elimination_blowup_chart():
    table = VarTable(("t", "x", "y", "T1", "T2"))
    gens = [
        parse_poly("T1 - x*t", table),
        parse_poly("T2 - y*t", table),
        parse_poly("1 - x*t", table),
    ]
    eliminated = Ideal(gens).eliminate(("t",))
    expected = Ideal(
        [parse_poly("T1 - 1", table), parse_poly("x*T2 - y", table)], table
    )
    assert eliminated.equal(expected)


def test_eliminate_nothing_returns_same_ideal():
    ideal = Ideal([p2("x^2 - y")])
    assert ideal.eliminate(()).equal(ideal)


def test_elimination_order_blocks():
    order = elimination_order(("x",))
    key = order.key_fn(XY)
    # any power of the front variable dominates the back block
    assert key((1, 0)) > key((0, 5))
    assert key((2, 0)) > key((1, 7))
    lex_key = LEX.key_fn(XY)
    assert lex_key((1, 0)) > lex_key((0, 5))
    with pytest.raises(ValueError):
        MonomialOrder("mystery-order")


def test_elimination_order_puts_parameters_last():
    table = VarTable(("t", "x", "y", "a"))
    order = elimination_order(("t",), ("a",))
    key = order.key_fn(table)
    # the front first, then the middle block, whatever the parameter power
    assert key((1, 0, 0, 0)) > key((0, 3, 0, 9))
    assert key((0, 0, 1, 0)) > key((0, 0, 0, 9))
    assert key((0, 1, 0, 0)) > key((0, 0, 1, 9))
    # the parameter breaks ties only
    assert key((0, 1, 0, 1)) > key((0, 1, 0, 0))
    # with no parameter the order is the elimination order of today
    plain = elimination_order(("t",))
    assert plain == MonomialOrder("elim", ("t",), ())
    assert plain != order
    assert repr(plain) == "MonomialOrder(elim, front=('t',))"
    assert repr(order) == "MonomialOrder(elim, front=('t',), params=('a',))"
    with pytest.raises(ValueError, match="only the elimination order takes parameters"):
        MonomialOrder("grevlex", (), ("a",))


def test_grevlex_order():
    key = GREVLEX.key_fn(XYZ)
    # total degree first
    assert key((0, 0, 3)) > key((2, 0, 0))
    # then the smaller exponent in the last differing variable wins
    assert key((1, 1, 0)) > key((1, 0, 1)) > key((0, 1, 1))
    assert key((2, 0, 0)) > key((1, 1, 0))
    # unlike graded lex: y^2 > x*z because x*z has the larger z exponent
    assert key((0, 2, 0)) > key((1, 0, 1))
    assert repr(GREVLEX) == "MonomialOrder(grevlex)"
    assert GREVLEX != LEX and GREVLEX == MonomialOrder("grevlex")


def test_grevlex_basis_oracle():
    # lex eliminates x: (x - y^2, y^3 - 1); grevlex keeps both generators
    basis = buchberger([p2("x^2 - y"), p2("x*y - 1")], GREVLEX)
    assert same_polys(basis, [p2("x^2 - y"), p2("x*y - 1"), p2("y^2 - x")])


def test_gaussian_coefficients_in_bases():
    basis = buchberger([p2("x - i*y"), p2("x + i*y")])
    assert same_polys(basis, [p2("x"), p2("y")])
    ideal = Ideal([p2("x^2 + y^2")])
    assert ideal.member(p2("x + i*y") * p2("x - i*y"))


# -- division helpers -------------------------------------------------------------


def test_exact_quotient():
    q = exact_quotient(p2("x^2 - y^2"), p2("x - y"))
    assert q == p2("x + y")
    assert exact_quotient(p2("x^2 + y"), p2("x")) is None
    assert exact_quotient(Poly.zero(XY), p2("x")).is_zero()
    scaled = exact_quotient(p2("2*x + 2*y"), p2("x + y"))
    assert scaled == p2("2")
    assert exact_quotient(p2("x^2 - y^2"), p2("2*x - 2*y")) == p2("1/2*x + 1/2*y")
    assert exact_quotient(p2("i*x^2 + i*x*y"), p2("i*x")) == p2("x + y")


def test_division_checks_tables():
    """A polynomial over other variables is refused, not divided by the
    position of its exponents."""
    a2 = parse_poly("a^2", AB)
    with pytest.raises(ValueError, match="VarTable mismatch"):
        Ideal([p2("x^2 - y")]).normal_form(a2)
    with pytest.raises(ValueError, match="VarTable mismatch"):
        normal_form(a2, [p2("x^2 - y")])
    with pytest.raises(ValueError, match="VarTable mismatch"):
        exact_quotient(parse_poly("a^2 - b^2", AB), p2("x - y"))
    with pytest.raises(ValueError, match="VarTable mismatch"):
        certified_unit(parse_poly("3*a", AB), [p2("x")])


def test_certified_unit():
    a = Poly.var(XY, "x")
    one_minus = 1 - a
    units = (a, one_minus)
    assert certified_unit(a * a * one_minus * 3, units)
    assert certified_unit(Poly.const(XY, Fraction(-7, 2)), units)
    assert not certified_unit(Poly.zero(XY), units)
    assert not certified_unit(a + 1, units)


# -- budget ----------------------------------------------------------------------


def test_step_budget_override(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert step_budget() == 2_000_000
    monkeypatch.setenv(BUDGET_ENV_VAR, "123")
    assert step_budget() == 123
    monkeypatch.setenv(BUDGET_ENV_VAR, "zero")
    with pytest.raises(ValueError):
        step_budget()
    monkeypatch.setenv(BUDGET_ENV_VAR, "-5")
    with pytest.raises(ValueError):
        step_budget()
    # the grammar of --d-max: ASCII digits, no underscore, no sign
    for raw in ("1_000_000", "١٠٠٠٠٠٠", "+2000000"):
        monkeypatch.setenv(BUDGET_ENV_VAR, raw)
        with pytest.raises(ValueError, match="ASCII digits"):
            step_budget()
    monkeypatch.setenv(BUDGET_ENV_VAR, " 123 ")
    assert step_budget() == 123


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "3")
    gens = [p2("x^3 - y^2"), p2("x*y^2 - x"), p2("y^4 - x^2")]
    with pytest.raises(BudgetExceeded) as exc:
        buchberger(gens)
    message = str(exc.value)
    assert "3 steps spent in buchberger" in message
    assert ", lex order," in message
    assert "variables (x, y)" in message
    assert "3 generators" in message
    assert BUDGET_ENV_VAR in message
    # membership runs in grevlex, and the error says so
    with pytest.raises(BudgetExceeded, match=r"3 steps spent .*, grevlex order"):
        Ideal(gens).member(p2("x^4*y^3 - x^2"))
    with pytest.raises(BudgetExceeded, match=r"elim \(front x\) order"):
        buchberger(gens, elimination_order(("x",)))


def test_exact_quotient_spends_the_budget(monkeypatch):
    # the quotient x^2 + x*y + y^2 takes three division steps
    monkeypatch.setenv(BUDGET_ENV_VAR, "3")
    assert exact_quotient(p2("x^3 - y^3"), p2("x - y")) == p2("x^2 + x*y + y^2")
    monkeypatch.setenv(BUDGET_ENV_VAR, "2")
    with pytest.raises(BudgetExceeded, match="2 steps spent in exact_quotient, lex order"):
        exact_quotient(p2("x^3 - y^3"), p2("x - y"))


def test_rees_elimination_step_count(monkeypatch):
    # the elimination of t at -7/3 takes exactly 128 reduction steps: the
    # divisor chosen at each step, and so the count, is part of the algorithm
    # (Gebauer-Moeller pair pruning; 184 with the chain criterion at each pop)
    spec = standard_modification(Fraction(-7, 3))
    monkeypatch.setenv(BUDGET_ENV_VAR, "128")
    assert rees_presentation(spec).ideal.generators
    monkeypatch.setenv(BUDGET_ENV_VAR, "127")
    with pytest.raises(BudgetExceeded, match=r"127 steps spent in buchberger, "
                                             r"elim \(front t\) order"):
        rees_presentation(spec)


def test_rees_elimination_puts_the_parameters_last(monkeypatch):
    # over Q[a] the basis is taken with a in a last block of its own, the
    # order whose bases specialize at every value of a
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    with pytest.raises(BudgetExceeded, match=r"elim \(front t; parameters a\) order, "
                                             r"variables \(t, x, y, T1, T2, T3, a\)"):
        rees_presentation(standard_modification("symbolic"))


# -- randomized properties ---------------------------------------------------------


def _s_polynomial(f: Poly, g: Poly, key):
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Poly(f.table, {tuple(l - a for l, a in zip(lcm, lf)): f.terms[lf].inverse()})
    mg = Poly(g.table, {tuple(l - a for l, a in zip(lcm, lg)): g.terms[lg].inverse()})
    return mf * f - mg * g


def test_groebner_properties_random():
    """100 randomized rounds: every S-polynomial of a computed basis reduces
    to zero, normal forms are idempotent, and membership is stable under
    random generator combinations."""
    rng = random.Random(20260816)
    key = LEX.key_fn(XY)
    for _ in range(100):
        gens = [rand_poly(rng, XY) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = _s_polynomial(basis[i], basis[j], key)
                assert normal_form(s, basis).is_zero()
        probe = rand_poly(rng, XY)
        reduced = normal_form(probe, basis)
        assert normal_form(reduced, basis) == reduced
        ideal = Ideal(gens)
        combo = gens[0] * rand_poly(rng, XY)
        for g in gens[1:]:
            combo = combo + g * rand_poly(rng, XY)
        assert ideal.member(combo)
        assert ideal.member(probe) == ideal.member(probe + combo)


@pytest.mark.parametrize("texts, order", [
    (("2*x^3*y - 3*x^3*z", "2*x^3*y^3*z + x^3*y",
      "-2*x^3*z^2 - 3*x*z^2 + 2*y^2*z^2", "-3*x^3*y^2*z - 2*y*z^3"), LEX),
    (("-x*y*z - 2", "-x^3*y - x^2*y^2*z^2 + 3*y^2*z", "3*x^3*z^3",
      "x^3*z + x*y^2"), GREVLEX),
])
def test_pruned_pairs_leave_a_groebner_basis(texts, order):
    """Ideals where a pair pruned wrongly at queue time (the B criterion
    with "and" for "or") leaves a basis that is not Groebner: every
    S-polynomial of the basis, and every generator, must reduce to zero."""
    gens = [p3(t) for t in texts]
    basis = buchberger(gens, order)
    key = order.key_fn(XYZ)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = _s_polynomial(basis[i], basis[j], key)
            assert normal_form(s, basis, order).is_zero()
    assert all(normal_form(g, basis, order).is_zero() for g in gens)


# -- independent oracles: a second order, and sympy -------------------------------


def _gaussian_coefficients():
    return st.builds(
        GaussianRational,
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.integers(-2, 2),
    )


def _polys(table: VarTable, min_terms: int = 1):
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * len(table)), _gaussian_coefficients()
    )

    def build(terms):
        out = Poly.zero(table)
        for exps, coeff in terms:
            out = out + Poly(table, {exps: coeff})
        return out

    return st.lists(term, min_size=min_terms, max_size=3).map(build)


@settings(max_examples=60, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(st.data())
def test_orders_agree_on_membership(data):
    """Membership does not depend on the order, and the lex and grevlex
    reduced bases generate the same ideal."""
    table = data.draw(st.sampled_from([XY, XYZ]))
    gens = data.draw(st.lists(_polys(table), min_size=1, max_size=3))
    multipliers = data.draw(st.lists(_polys(table), min_size=len(gens), max_size=len(gens)))
    offset = data.draw(st.one_of(st.just(Poly.zero(table)), _polys(table)))
    combo = Poly.zero(table)
    for g, m in zip(gens, multipliers):
        combo = combo + g * m
    probe = combo + offset

    orders = (LEX, GREVLEX, elimination_order(("x",)))
    answers = {order: Ideal(gens, table).member(probe, order) for order in orders}
    assert len(set(answers.values())) == 1, answers
    assert all(Ideal(gens, table).member(combo, order) for order in orders)

    lex_basis = buchberger(gens, LEX)
    grevlex_basis = buchberger(gens, GREVLEX)
    assert all(normal_form(g, lex_basis, LEX).is_zero() for g in grevlex_basis)
    assert all(normal_form(g, grevlex_basis, GREVLEX).is_zero() for g in lex_basis)


@settings(max_examples=30, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(st.data())
def test_ideal_caches_answer_per_order(data):
    """Interleaved normal forms and membership tests on one Ideal, in three
    orders, agree with division by a basis computed afresh in that order."""
    # binomials and trinomials: the normal forms of monomial ideals are the
    # same in every order
    gens = data.draw(st.lists(_polys(XYZ, min_terms=2), min_size=1, max_size=3))
    ideal = Ideal(gens, XYZ)
    orders = (LEX, GREVLEX, elimination_order(("x",)))
    fresh = {order: buchberger(gens, order) for order in orders}
    calls = st.tuples(st.sampled_from(orders), st.booleans(), _polys(XYZ), _polys(XYZ))
    for order, ask_member, p, q in data.draw(st.lists(calls, min_size=1, max_size=8)):
        probe = p * q if ask_member else p
        expected = normal_form(probe, fresh[order], order)
        if ask_member:
            assert ideal.member(probe, order) == expected.is_zero()
            assert ideal.member(probe * gens[0], order)
        else:
            assert ideal.normal_form(probe, order) == expected


def _reference_remainder(p: Poly, basis, order) -> Poly:
    """Division with the same choices as normal_form, done term by term with
    Poly and GaussianRational operations."""
    key = order.key_fn(p.table)
    work, remainder = p, {}
    while not work.is_zero():
        e = max(work.terms, key=key)
        c = work.terms[e]
        for g in basis:
            if g.is_zero():
                continue
            lt = max(g.terms, key=key)
            if all(a <= b for a, b in zip(lt, e)):
                shift = tuple(a - b for a, b in zip(e, lt))
                work = work - Poly(p.table, {shift: c / g.terms[lt]}) * g
                break
        else:
            remainder[e] = c
            work = work - Poly(p.table, {e: c})
    return Poly(p.table, remainder)


@settings(max_examples=80, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(st.data())
def test_normal_form_matches_term_by_term_division(data):
    table = data.draw(st.sampled_from([XY, XYZ]))
    order = data.draw(st.sampled_from([LEX, GREVLEX]))
    basis = data.draw(st.lists(_polys(table), min_size=1, max_size=3))
    p = data.draw(_polys(table)) * data.draw(_polys(table))
    r = normal_form(p, basis, order)
    _assert_canonical_coefficients(r)
    assert r == _reference_remainder(p, basis, order)
    for g in buchberger(basis, order):
        _assert_canonical_coefficients(g)


def _to_sympy(sympy, p: Poly, symbols):
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        coeff = (sympy.Rational(c.re.numerator, c.re.denominator)
                 + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        expr += coeff * sympy.Mul(*(x ** e for x, e in zip(symbols, exps)))
    return expr


def _rem_3_3_ideals_at_2():
    """The two specialised ideals that rem-3.3 'ideal-equality-at-2' compares."""
    s = make_surface(ALPHA, ALPHA)
    _, inv, new = coordinate_change_maps(s)
    transformed = [inv(g).num.specialize({ALPHA: 2}) for g in s.generators]
    displayed = [h.specialize({ALPHA: 2}) for h in displayed_real_equations(new, s.alpha)]
    return new, [transformed, displayed]


def _small_gaussian_ideal():
    return XY, [[p2("x^2 + i*y"), p2("x*y - 1")]]


def _three_variable_ideal():
    # graded lex would lead x*z - y^2 with x*z; grevlex leads it with y^2
    return XYZ, [[p3("x*z - y^2 + i"), p3("x^2 - y*z"), p3("y^3 - x*z^2")]]


@pytest.mark.parametrize("example", [
    _small_gaussian_ideal, _three_variable_ideal, _rem_3_3_ideals_at_2,
])
def test_grevlex_basis_matches_sympy(example):
    sympy = pytest.importorskip("sympy")
    table, ideals = example()
    symbols = sympy.symbols(table.names)
    for gens in ideals:
        ours = [
            sympy.Poly(_to_sympy(sympy, g, symbols), *symbols, domain="QQ_I")
            for g in buchberger(gens, GREVLEX)
        ]
        reference = sympy.groebner(
            [_to_sympy(sympy, g, symbols) for g in gens], *symbols,
            order="grevlex", domain="QQ_I",
        )
        theirs = [sympy.Poly(e, *symbols, domain="QQ_I") for e in reference.exprs]
        assert len(ours) == len(theirs)
        assert all(any(o == t for t in theirs) for o in ours)


def test_elimination_matches_sympy_lex():
    """The t-free part of a lex basis with t first generates the Rees ideal
    that the elimination order computes."""
    sympy = pytest.importorskip("sympy")
    rees = rees_presentation(standard_modification(Fraction(-7, 3)))
    names = (INVERSE_NAME,) + rees.table.names
    assert names == ("t", "x", "y", "T1", "T2", "T3")
    table = VarTable(names)
    symbols = sympy.symbols(names)
    t, x, y, t1, t2, t3 = (Poly.var(table, n) for n in names)
    divisor = x * x + y * y
    tangency = (x - 1) * (x + Fraction(7, 3))
    relations = [t1 - divisor * t, t2 - x * tangency * t, t3 - y * tangency * t,
                 1 - divisor * t]
    reference = sympy.groebner(
        [_to_sympy(sympy, g, symbols) for g in relations], *symbols,
        order="lex", method="f5b", domain="QQ",
    )
    kept = []
    for expr in reference.exprs:
        poly = sympy.Poly(expr, *symbols)
        if poly.degree(symbols[0]) > 0:
            continue
        kept.append(Poly(rees.table, {
            exps[1:]: GaussianRational(Fraction(int(c.p), int(c.q)))
            for exps, c in poly.terms()
        }))
    assert kept
    assert Ideal(kept, rees.table).equal(rees.ideal)


def test_rem_3_3_ideals_share_one_grevlex_basis():
    _, (transformed, displayed) = _rem_3_3_ideals_at_2()
    first = buchberger(transformed, GREVLEX)
    assert len(first) == 4
    assert same_polys(first, buchberger(displayed, GREVLEX))
    assert Ideal(transformed).equal(Ideal(displayed))
