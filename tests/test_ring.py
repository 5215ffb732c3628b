"""Sparse polynomials, rational functions, and substitution homomorphisms."""
from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from realforms.gaussian import I, ONE, GaussianRational
from realforms.ring import (
    Poly,
    RatFunc,
    RingMap,
    VarTable,
    _poly,
    _relabelling,
    _scaled_terms,
    _specialize_all,
    _sum_terms,
    compile_reads,
    compose,
    parse_poly,
    poly_str,
    read_at,
)

TABLE = VarTable(("x", "y", "z"))
PARAM_TABLE = VarTable(("x", "y", "a"))


def rand_scalar(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def rand_poly(rng: random.Random, table: VarTable, terms: int = 4) -> Poly:
    p = Poly.zero(table)
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, 3) for _ in table.names)
        p = p + Poly(table, {exps: rand_scalar(rng)})
    return p


def gaussian_integer_poly(rng: random.Random, terms: int = 3) -> Poly:
    """A nonzero polynomial with coefficients in Z[i]."""
    p = Poly.var(TABLE, "y")
    for _ in range(terms):
        exps = tuple(rng.randint(0, 3) for _ in TABLE.names)
        p = p + Poly(TABLE, {exps: GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6))})
    return p if p else Poly.var(TABLE, "x")


# -- tables -----------------------------------------------------------------


def test_var_table_validation():
    with pytest.raises(ValueError):
        VarTable(("x", "x"))
    assert TABLE.index("y") == 1
    with pytest.raises(ValueError, match=r"unknown variable 'w'; the table has \('x', 'y', 'z'\)"):
        TABLE.index("w")


@pytest.mark.parametrize("call", [
    lambda p: Poly.var(TABLE, "w"),
    lambda p: p.specialize({"w": 1}),
    lambda p: p.evaluate({"x": 1, "y": 2, "z": 3, "w": 4}),
    lambda p: p.derivative("w"),
    lambda p: p.degree_in("w"),
], ids=["var", "specialize", "evaluate", "derivative", "degree_in"])
def test_unknown_variable_is_a_value_error_naming_the_table(call):
    with pytest.raises(ValueError, match=r"unknown variable 'w'; the table has \('x', 'y', 'z'\)"):
        call(parse_poly("x*y + z", TABLE))


# -- polynomial arithmetic ----------------------------------------------------


def test_circle_factors_over_gaussians():
    x = Poly.var(TABLE, "x")
    y = Poly.var(TABLE, "y")
    assert (x + y * I) * (x - y * I) == x * x + y * y


def test_shifted_quadratic_expansion():
    x = Poly.var(PARAM_TABLE, "x")
    a = Poly.var(PARAM_TABLE, "a")
    expanded = x * x - x * a - x + a
    assert (x - 1) * (x - a) == expanded
    assert expanded.degree_in("x") == 2
    assert expanded.degree_in("a") == 1


def test_constant_and_zero_predicates():
    five = Poly.const(TABLE, 5)
    assert five.is_constant() and five.constant_value() == GaussianRational(5)
    assert Poly.zero(TABLE).is_zero()
    x = Poly.var(TABLE, "x")
    assert (x - x).is_zero()
    assert not x.is_constant()


def test_mixed_scalar_arithmetic():
    x = Poly.var(TABLE, "x")
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (1 - x) + (x - 1) == Poly.zero(TABLE)
    assert x ** 3 == x * x * x
    assert x ** 0 == Poly.const(TABLE, 1)


@pytest.mark.parametrize("terms", [
    {(1,): ONE},  # one exponent on a table of three variables
    {(1, 0, 0, 0): ONE},
    {(0, -1, 0): ONE},
    {(1.0, 0, 0): ONE},
    {(True, 0, 0): ONE},
    {"x": ONE},
], ids=["short", "long", "negative", "float", "bool", "string"])
def test_poly_refuses_a_malformed_exponent_tuple(terms):
    with pytest.raises(ValueError, match="are not 3 nonnegative ints"):
        Poly(TABLE, terms)


def test_poly_coerces_its_coefficients():
    assert Poly(TABLE, {(0, 0, 0): 3}) == Poly.const(TABLE, 3)
    assert Poly(TABLE, {(1, 0, 0): Fraction(1, 2)}) == Poly.var(TABLE, "x") * Fraction(1, 2)
    assert Poly(TABLE, {(1, 0, 0): 0, (0, 1, 0): Fraction(0)}).is_zero()
    assert poly_str(Poly(TABLE, {(2, 0, 1): -2})) == "-2*x^2*z"
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError, match="not a scalar"):
            Poly(TABLE, {(0, 0, 0): bad})


def test_var_refuses_a_negative_or_non_int_power():
    with pytest.raises(ValueError, match="negative power -1 of x"):
        Poly.var(TABLE, "x", -1)
    for power in (1.0, Fraction(1), True):
        with pytest.raises(TypeError, match=f"exponent {re.escape(repr(power))} is not an int"):
            Poly.var(TABLE, "x", power)
    assert Poly.var(TABLE, "x", 0) == Poly.const(TABLE, 1)


@pytest.mark.parametrize("base", [
    lambda: Poly.var(TABLE, "x"),
    lambda: RatFunc.var(TABLE, "x"),
    lambda: GaussianRational(Fraction(1, 2), 3),
], ids=["Poly", "RatFunc", "GaussianRational"])
@pytest.mark.parametrize("exponent", [2.0, Fraction(2), True, "2"])
def test_power_refuses_an_exponent_that_is_no_int(base, exponent):
    with pytest.raises(TypeError, match=f"exponent {re.escape(repr(exponent))} is not an int"):
        base() ** exponent


def test_table_mismatch_rejected():
    x = Poly.var(TABLE, "x")
    other = Poly.var(VarTable(("x", "y")), "x")
    with pytest.raises(ValueError):
        x + other


def test_ring_axioms_random():
    rng = random.Random(31)
    for _ in range(60):
        p, q, r = (rand_poly(rng, TABLE) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p - p == Poly.zero(TABLE)
        assert (p * q) * r == p * (q * r)


def test_specialize_and_evaluate():
    x = Poly.var(PARAM_TABLE, "x")
    a = Poly.var(PARAM_TABLE, "a")
    p = (x - 1) * (x - a)
    assert p.specialize({"a": 2}) == (x - 1) * (x - Poly.const(PARAM_TABLE, 2))
    assert p.evaluate({"x": 3, "a": 2}) == GaussianRational(2)
    assert p.specialize({"x": 1}).is_zero()
    with pytest.raises(TypeError):
        p.specialize({"x": "not-a-scalar"})


def _random_polys(table: VarTable, terms: int = 5, degree: int = 3, size: int = 6):
    scalar = st.builds(
        GaussianRational,
        st.fractions(min_value=-size, max_value=size, max_denominator=4),
        st.fractions(min_value=-size, max_value=size, max_denominator=4),
    )
    term = st.tuples(st.tuples(*[st.integers(0, degree)] * len(table)), scalar)
    return st.lists(term, max_size=terms).map(
        lambda ts: sum((Poly(table, {e: c}) for e, c in ts), Poly.zero(table)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_evaluate_equals_the_specialized_constant(data):
    """Also with some variables left without a value: both then raise
    ValueError unless those terms cancel."""
    p = data.draw(_random_polys(TABLE))
    names = data.draw(st.lists(st.sampled_from(TABLE.names), unique=True))
    values = {
        name: GaussianRational(data.draw(st.fractions(-5, 5, max_denominator=5)),
                               data.draw(st.fractions(-5, 5, max_denominator=5)))
        for name in names
    }

    def outcome(f):
        try:
            return f()
        except ValueError:
            return ValueError

    assert outcome(lambda: p.evaluate(values)) == \
        outcome(lambda: p.specialize(values).constant_value())


def test_evaluate_refuses_an_unknown_name():
    # the error of specialize: VarTable.index raises ValueError
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        Poly.var(TABLE, "x").evaluate({"x": 1, "y": 2, "z": 3, "w": 4})


def test_evaluate_refuses_a_non_scalar():
    with pytest.raises(TypeError, match="not a scalar for y"):
        Poly.var(TABLE, "x").evaluate({"x": 1, "y": 0.5, "z": 3})


def test_evaluate_refuses_a_variable_left_without_a_value():
    x, y = Poly.var(TABLE, "x"), Poly.var(TABLE, "y")
    with pytest.raises(ValueError, match="not a constant polynomial"):
        (x * y + 1).evaluate({"x": 1})
    # a term that cancels leaves no variable behind
    assert (x * y - y + 2).evaluate({"x": 1}) == GaussianRational(2)


# -- scalar substitution against Fraction pairs ------------------------------------


def pair_mul(p: tuple, q: tuple) -> tuple:
    """(a + b i)(c + d i) on pairs of Fractions."""
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def reference_specialize(p: Poly, values: dict) -> dict:
    """The terms of p with scalars for some variables, each coefficient a
    (re, im) pair of Fractions: term by term, a power as repeated products,
    with no realforms arithmetic."""
    positions = {TABLE.names.index(name): v for name, v in values.items()}
    out: dict = {}
    for e, c in p.terms.items():
        coef = (Fraction(c.a, c.d), Fraction(c.b, c.d))
        for k, (vr, vi) in positions.items():
            for _ in range(e[k]):
                coef = pair_mul(coef, (vr, vi))
        key = tuple(0 if k in positions else x for k, x in enumerate(e))
        s = out.get(key, (Fraction(0), Fraction(0)))
        out[key] = (s[0] + coef[0], s[1] + coef[1])
    return {e: s for e, s in out.items() if s != (0, 0)}


def as_pairs(p: Poly) -> dict:
    """The terms of p as Fraction pairs; every coefficient must be canonical."""
    for c in p.terms.values():
        assert c.d > 0 and gcd(c.a, c.b, c.d) == 1 and (c.a or c.b), c
    return {e: (Fraction(c.a, c.d), Fraction(c.b, c.d)) for e, c in p.terms.items()}


def reference_point(rng: random.Random, names) -> dict:
    """Fraction pairs for the names: non-real, non-integer, real, zero and one."""
    kinds = (
        lambda: (Fraction(rng.randint(-9, 9), rng.randint(2, 7)),
                 Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 7))),
        lambda: (Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(0)),
        lambda: (Fraction(0), Fraction(0)),
        lambda: (Fraction(0), Fraction(rng.randint(1, 5), rng.randint(1, 3))),
        lambda: (Fraction(1), Fraction(0)),
    )
    return {name: rng.choice(kinds)() for name in names}


def test_scalar_substitution_gives_the_fraction_pairs():
    # several polys at one point in one pass, and each alone through
    # specialize and evaluate: all substituted, some, or none
    rng = random.Random("specialize-pairs")
    seen = {"all": 0, "some": 0, "zero coordinate": 0, "one": 0, "non-real": 0}
    for _ in range(80):
        polys = [rand_poly(rng, TABLE, terms=6) for _ in range(rng.randint(1, 4))]
        names = rng.sample(TABLE.names, rng.randint(0, len(TABLE.names)))
        point = reference_point(rng, names)
        values = {n: GaussianRational(re, im) for n, (re, im) in point.items()}
        expected = [reference_specialize(p, point) for p in polys]
        assert [as_pairs(q) for q in _specialize_all(polys, values)] == expected
        for p, want in zip(polys, expected):
            assert as_pairs(p.specialize(values)) == want
            if len(names) == len(TABLE.names):
                assert set(want) <= {(0, 0, 0)}
                got = p.evaluate(values)
                assert (Fraction(got.a, got.d), Fraction(got.b, got.d)) == \
                    want.get((0, 0, 0), (0, 0))
        seen["all" if len(names) == len(TABLE.names) else "some"] += 1
        seen["zero coordinate"] += (0, 0) in point.values()
        seen["one"] += (1, 0) in point.values()
        seen["non-real"] += any(im and re.denominator > 1 for re, im in point.values())
    assert min(seen.values()) >= 10, seen
    assert _specialize_all([], {"x": 1}) == []
    # no substituted variable occurs: each poly comes back equal, as a new Poly
    x, y = Poly.var(TABLE, "x"), Poly.var(TABLE, "y")
    polys = [x * Fraction(1, 3) + 1, y * I]
    got = _specialize_all(polys, {"z": Fraction(5, 2)})
    assert got == polys and all(g.terms is not p.terms for g, p in zip(got, polys))


def test_scalar_substitution_refuses_bad_values():
    x, y = Poly.var(TABLE, "x"), Poly.var(TABLE, "y")
    for call in (lambda v: _specialize_all([x, x * y], v), x.specialize, x.evaluate):
        with pytest.raises(TypeError, match="not a scalar for y"):
            call({"x": 1, "y": 0.5})
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            call({"x": 1, "w": 2})
    # y survives in a term that does not cancel
    with pytest.raises(ValueError, match="not a constant polynomial"):
        (x * y + x).evaluate({"x": Fraction(1, 3), "z": 0})
    assert (x * y + x).evaluate({"x": 0}) == 0
    with pytest.raises(ValueError, match="VarTable mismatch"):
        _specialize_all([x, Poly.var(PARAM_TABLE, "x")], {"x": 1})


def gaussian_specialize(p: Poly, values: dict) -> dict:
    """The terms of p with scalars for some variables: term by term in
    GaussianRational arithmetic, a power as repeated products."""
    positions = {TABLE.index(name): v for name, v in values.items()}
    out: dict = {}
    for e, c in p.terms.items():
        for k, v in positions.items():
            for _ in range(e[k]):
                c = c * v
        key = tuple(0 if k in positions else x for k, x in enumerate(e))
        out[key] = out.get(key, GaussianRational(0)) + c
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("value", [
    I, GaussianRational(Fraction(1, 2), Fraction(1, 2)), ONE, GaussianRational(Fraction(-5, 3)),
], ids=["i", "(1+i)/2", "one", "real"])
def test_specialize_agrees_with_a_gaussian_term_by_term_oracle(value):
    # the value for one variable; on odd trials a real or non-real value for
    # a second; on every third trial the first occurs in no term.  evaluate
    # gives all three variables a value
    rng = random.Random(f"gaussian-oracle-{value}")
    for trial in range(60):
        name, other, absent = rng.sample(TABLE.names, 3)
        polys = [rand_poly(rng, TABLE, terms=6) for _ in range(rng.randint(1, 3))]
        if trial % 3 == 0:  # the named variable occurs in no term
            k = TABLE.index(name)
            polys = [sum((Poly(TABLE, {e[:k] + (0,) + e[k + 1:]: c})
                          for e, c in p.terms.items()), Poly.zero(TABLE)) for p in polys]
            assert all(e[k] == 0 for p in polys for e in p.terms)
        values = {name: value}
        if trial % 2:
            values[other] = rng.choice([rand_scalar(rng), GaussianRational(rng.randint(-3, 3))])
        expected = [gaussian_specialize(p, values) for p in polys]
        assert [q.terms for q in _specialize_all(polys, values)] == expected
        assert [as_pairs(p.specialize(values)) for p in polys] == \
            [as_pairs(Poly(TABLE, terms)) for terms in expected]
        point = {**values, other: values.get(other, ONE), absent: rand_scalar(rng)}
        for p in polys:
            want = gaussian_specialize(p, point).get((0, 0, 0), GaussianRational(0))
            assert p.evaluate(point) == want


def test_non_real_values_take_the_term_loop_and_build_no_ring_map(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("scalar substitution built a RingMap")

    monkeypatch.setattr(RingMap, "__init__", refuse)
    rng = random.Random("no-ring-map")
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    for value in (I, half):
        for _ in range(20):
            name = rng.choice(TABLE.names)
            p = rand_poly(rng, TABLE, terms=6) + Poly.var(TABLE, name, rng.randint(1, 3))
            assert p.specialize({name: value}).terms == gaussian_specialize(p, {name: value})
            point = {n: value for n in TABLE.names}
            assert p.evaluate(point) == gaussian_specialize(p, point).get((0, 0, 0), 0)
    # one batch with a real, a non-real and a purely imaginary value
    polys = [rand_poly(rng, TABLE, terms=6) + Poly.var(TABLE, "x") for _ in range(4)]
    values = {"x": Fraction(-5, 3), "y": half, "z": I}
    assert [q.terms for q in _specialize_all(polys, values)] == \
        [gaussian_specialize(p, values) for p in polys]
    with pytest.raises(AssertionError, match="built a RingMap"):
        RingMap.identity(TABLE)  # the patch is in place


def test_derivative():
    x = Poly.var(TABLE, "x")
    y = Poly.var(TABLE, "y")
    assert (x * x * y).derivative("x") == 2 * x * y
    assert (x * x * y).derivative("z").is_zero()
    assert (x + y).derivative("x") == Poly.const(TABLE, 1)


def test_conjugation_semantics():
    x = Poly.var(PARAM_TABLE, "x")
    y = Poly.var(PARAM_TABLE, "y")
    a = Poly.var(PARAM_TABLE, "a")
    p = a * x + y * I
    assert p.conjugate() == a * x - y * I
    assert p.conjugate().conjugate() == p


def test_conjugation_distributes_random():
    rng = random.Random(77)
    for _ in range(40):
        p, q = rand_poly(rng, TABLE), rand_poly(rng, TABLE)
        assert (p + q).conjugate() == p.conjugate() + q.conjugate()
        assert (p * q).conjugate() == p.conjugate() * q.conjugate()


# -- compiled reads at exact values ---------------------------------------------


READ_TABLE = VarTable(("x", "a", "y", "b", "z"))


def _reader_batch(rng: random.Random, kept: tuple, values: dict) -> list:
    """Random polys over READ_TABLE: zero polys among them, and in some a
    kept monomial whose terms cancel at the values (c*m*a - c*a0*m at a = a0)."""
    batch = []
    for _ in range(rng.randint(1, 5)):
        p = Poly.zero(READ_TABLE) if rng.random() < 0.2 else rand_poly(rng, READ_TABLE, 5)
        read = [n for n in READ_TABLE.names if n not in kept]
        if read and rng.random() < 0.5:
            name = rng.choice(read)
            # a kept monomial that rand_poly's exponents (at most 3) never give
            m = Poly.const(READ_TABLE, rand_scalar(rng) or 1)
            for n in kept:
                m = m * Poly.var(READ_TABLE, n, 4)
            p = p + m * (Poly.var(READ_TABLE, name) - values[name])
        batch.append(p)
    return batch


def _reader_value(rng: random.Random, gaussian: bool) -> tuple:
    """(p, q) as read_at takes it, q > 0 and p not always coprime to q, and
    the value p/q as specialize takes it."""
    q = rng.randint(1, 7)
    re_, im = rng.randint(-9, 9), rng.randint(-5, 5) if gaussian else 0
    p = GaussianRational(re_, im) if im else re_
    return (p, q), GaussianRational(Fraction(re_, q), Fraction(im, q))


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_reads_equal_specialize_term_for_term(gaussian):
    rng = random.Random(2046 + gaussian)
    cancelled = zeros = 0
    for _ in range(150):
        kept = tuple(rng.sample(READ_TABLE.names, rng.randint(0, 3)))
        pairs, values = {}, {}
        for n in READ_TABLE.names:
            if n not in kept:
                pairs[n], values[n] = _reader_value(rng, gaussian)
        batch = _reader_batch(rng, kept, values)
        D, sums = read_at(compile_reads(batch, kept), pairs)
        assert type(D) is int and D > 0
        keep = [READ_TABLE.index(n) for n in kept]
        for p, terms in zip(batch, sums, strict=True):
            expected = {}
            for e, c in p.specialize(values).terms.items():
                assert not any(k for j, k in enumerate(e) if j not in keep), e
                expected[tuple([e[j] for j in keep])] = c
            assert all(type(a) is int and type(b) is int and (a or b) for _, a, b in terms)
            read = {e: GaussianRational(Fraction(a, D), Fraction(b, D)) for e, a, b in terms}
            assert len(read) == len(terms) and read == expected, (p, kept, values)
            top = (4,) * len(kept)  # the kept monomial that cancels
            if kept and any(tuple([e[j] for j in keep]) == top for e in p.terms):
                assert top not in read
                cancelled += 1
            zeros += p.is_zero()
    assert cancelled >= 10 and zeros >= 10


def test_a_read_keeps_each_kept_monomial_in_the_order_of_the_terms():
    table = VarTable(("x", "a"))
    x, a = Poly.var(table, "x"), Poly.var(table, "a")
    p = x ** 2 * a + 3 * x + Fraction(1, 2) * x ** 2 + a ** 3
    D, (terms,) = read_at(compile_reads([p], ("x",)), {"a": (2, 3)})
    # x^2*(2/3 + 1/2), 3*x, (2/3)^3 over D = 2 * 3^3
    assert (D, terms) == (54, [((2,), 63, 0), ((1,), 162, 0), ((0,), 16, 0)])
    with pytest.raises(ValueError, match="unknown variable"):
        compile_reads([p], ("w",))


# -- canonical text form -------------------------------------------------------


def test_parse_print_round_trip_examples():
    p = parse_poly("x^2 - 2*x*y + (1/3)*z - i", TABLE)
    x, y, z = (Poly.var(TABLE, n) for n in TABLE.names)
    assert p == x * x - 2 * x * y + z * Fraction(1, 3) - I
    assert parse_poly(poly_str(p), TABLE) == p
    assert parse_poly("0", TABLE).is_zero()
    assert poly_str(Poly.zero(TABLE)) == "0"


def test_parse_print_round_trip_random():
    rng = random.Random(20260816)
    for _ in range(100):
        p = rand_poly(rng, TABLE, terms=6)
        assert parse_poly(poly_str(p), TABLE) == p


NAMED_I_TABLE = VarTable(("x", "y", "z", "ix"))


@pytest.mark.parametrize("text, expected", [
    ("+x", "x"),
    ("3 / 4", "3/4"),
    ("( - 1 / 3 )*x", "-1/3*x"),
    ("x ^ 2", "x^2"),
    ("((1/2)-(3)i)*x", "((1/2)+(-3)i)*x"),
    ("(1/2)*(3)i*x", "(3/2)i*x"),
    ("ix", "ix"),
    ("i*x", "i*x"),
    ("x - (0)i", "x"),
    (" -3/4 ", "-3/4"),
    ("٣*x", ValueError),  # an Arabic-Indic digit three: ASCII digits only
    ("x^٣", ValueError),
    ("1/２", ValueError),  # a fullwidth digit two
    ("", ValueError),
    ("x +", ValueError),
    ("x y", ValueError),
    ("x^", ValueError),
    ("((1)+(2))", ValueError),
    ("(1/2", ValueError),
    ("x**2", ValueError),
    ("x - - y", ValueError),
    ("i x", ValueError),
    ("(2)ix", ValueError),
    ("x^-1", ValueError),
    ("2x", ValueError),
    ("x^2^3", ValueError),
    ("x^²", ValueError),  # a superscript two is not a decimal digit
    ("2/0", ValueError),
    ("(+2)*x", ValueError),  # a rational has no plus sign; a term may have one
])
def test_parse_poly_grammar(text, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            parse_poly(text, NAMED_I_TABLE)
    else:
        assert poly_str(parse_poly(text, NAMED_I_TABLE)) == expected


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        parse_poly("x + w", TABLE)


def test_importing_the_cli_compiles_no_parse_poly_pattern():
    # parse_poly's grammar is compiled by its first call, not at import
    code = ("import re\n"
            "seen, compile = [], re.compile\n"
            "re.compile = lambda pattern, flags=0: seen.append(pattern) or compile(pattern, flags)\n"
            "import realforms.cli\n"
            "from realforms import ring\n"
            "grammar = {getattr(p, 'pattern', p) for p in (ring._SPACE, ring._FACTOR)}\n"
            "assert not grammar & {getattr(p, 'pattern', p) for p in seen}, seen\n"
            "assert str(ring.parse_poly('x^2 - i', ring.VarTable(('x',)))) == 'x^2 - i'\n"
            "assert grammar <= set(seen), seen\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- rational functions --------------------------------------------------------


def test_ratfunc_basics():
    x = Poly.var(TABLE, "x")
    y = Poly.var(TABLE, "y")
    f = RatFunc(x * x - y * y, x - y)
    g = RatFunc(x + y)
    assert f == g  # cross-multiplied equality without reduction
    assert (f - g).is_zero()
    assert f.is_polynomial() or not f.den.is_constant()
    with pytest.raises(ZeroDivisionError):
        RatFunc(x, Poly.zero(TABLE))
    with pytest.raises(ZeroDivisionError):
        g / RatFunc(Poly.zero(TABLE))


def test_ratfunc_field_identities():
    x = RatFunc.var(TABLE, "x")
    y = RatFunc.var(TABLE, "y")
    h = (x + y) / (x - y)
    assert h * (x - y) == x + y
    assert h.inverse() * h == 1
    assert (h ** -2) == (h.inverse() ** 2)
    assert (x / y + y / x) == (x * x + y * y) / (x * y)


def test_ratfunc_equality_is_equivalence_random():
    rng = random.Random(4242)
    x = Poly.var(TABLE, "x")
    for _ in range(40):
        num = rand_poly(rng, TABLE) + x  # keep it nonzero
        den = rand_poly(rng, TABLE) + Poly.const(TABLE, 1)
        if den.is_zero():
            continue
        s1 = rand_poly(rng, TABLE) + Poly.const(TABLE, 2)
        s2 = rand_poly(rng, TABLE) + Poly.const(TABLE, 3)
        r1 = RatFunc(num, den)
        r2 = RatFunc(num * s1, den * s1)
        r3 = RatFunc(num * s1 * s2, den * s1 * s2)
        assert r1 == r1
        assert r1 == r2 and r2 == r1
        assert r2 == r3 and r1 == r3
        assert r1 != r1 + 1


def _assert_primitive_parts(f: RatFunc):
    """num and den are Z[i] polynomials with integer content 1 and no common
    monomial factor."""
    coefficients = list(f.num.terms.values()) + list(f.den.terms.values())
    assert all(c.d == 1 for c in coefficients)
    assert gcd(*(part for c in coefficients for part in (c.a, c.b))) == 1
    exponents = list(f.num.terms) + list(f.den.terms)
    assert not any(min(column) for column in zip(*exponents))


def test_ratfunc_parts_are_primitive_gaussian_integer_polys():
    rng = random.Random(6060)
    x, y = Poly.var(TABLE, "x"), Poly.var(TABLE, "y")
    checked = 0
    for _ in range(60):
        num = rand_poly(rng, TABLE) + x * rand_scalar(rng)
        den = rand_poly(rng, TABLE) + Poly.const(TABLE, Fraction(rng.randint(1, 9), 7))
        if num.is_zero() or den.is_zero():
            continue
        shared = x ** rng.randint(0, 2) * y ** rng.randint(0, 2) * Fraction(rng.randint(1, 5), 3)
        f = RatFunc(num * shared, den * shared)
        _assert_primitive_parts(f)
        assert f.num * den == num * f.den  # same value
        checked += 1
    assert checked > 40
    # a constant denominator is cleared into a positive integer
    f = RatFunc(x * Fraction(3, 4) + y * GaussianRational(0, Fraction(1, 6)))
    _assert_primitive_parts(f)
    assert poly_str(f.num) == "9*x + (2)i*y" and poly_str(f.den) == "12"
    assert RatFunc(Poly.zero(TABLE), x).den == Poly.const(TABLE, 1)


def test_as_poly_guard():
    x = Poly.var(TABLE, "x")
    y = Poly.var(TABLE, "y")
    assert RatFunc(2 * x, Poly.const(TABLE, 2)).as_poly() == x
    with pytest.raises(ValueError):
        RatFunc(x, y).as_poly()


# -- substitution maps ----------------------------------------------------------


def test_identity_and_conjugation_maps():
    ident = RingMap.identity(TABLE)
    assert ident.is_identity()
    p = parse_poly("x^2 + i*y - 3*z", TABLE)
    assert ident(p) == RatFunc(p)

    conj = RingMap.conjugation(TABLE)
    x, y = Poly.var(TABLE, "x"), Poly.var(TABLE, "y")
    assert conj(x + y * I) == RatFunc(x - y * I)
    assert not conj.is_identity()


def test_map_validation():
    x = Poly.var(TABLE, "x")
    with pytest.raises(ValueError):
        RingMap(TABLE, TABLE, [RatFunc(x)])  # one image per variable required
    other = VarTable(("s",))
    with pytest.raises(ValueError):
        RingMap(TABLE, TABLE, [RatFunc.var(other, "s")] * 3)
    m = RingMap.identity(TABLE)
    with pytest.raises(ValueError):
        m(Poly.var(other, "s"))
    with pytest.raises(TypeError):
        m("not a polynomial")


def test_images_of_names_the_source_table_lacks_are_refused():
    t = VarTable(("x", "y"))
    with pytest.raises(ValueError, match=r"\['z'\]; the table has \('x', 'y'\)"):
        RingMap.from_images(t, t, {"z": RatFunc.var(t, "y")})
    assert RingMap.from_images(t, t, {"x": RatFunc.var(t, "y")}).image_of("x") == \
        RatFunc.var(t, "y")


def rand_affine_map(rng: random.Random) -> RingMap:
    """Random affine substitution; low degree keeps composites small."""
    images = []
    for _ in TABLE.names:
        image = Poly.const(TABLE, rand_scalar(rng))
        for n in TABLE.names:
            image = image + Poly.var(TABLE, n) * rand_scalar(rng)
        images.append(RatFunc(image))
    return RingMap(TABLE, TABLE, images)


def test_substitution_respects_composition():
    rng = random.Random(99)
    for _ in range(8):
        f = rand_affine_map(rng)
        g = rand_affine_map(rng)
        p = rand_poly(rng, TABLE, terms=2)
        assert compose(f, g)(p) == g(f(p))


def test_composition_conjugation_flags_xor():
    conj = RingMap.conjugation(TABLE)
    ident = RingMap.identity(TABLE)
    assert compose(conj, conj).conjugates_coefficients is False
    assert compose(conj, ident).conjugates_coefficients is True
    assert compose(conj, conj).is_identity()
    p = parse_poly("x + i*y", TABLE)
    assert compose(conj, conj)(p) == RatFunc(p)


def test_compose_chains_tables():
    other = VarTable(("s", "t", "w"))
    to_other = RingMap(TABLE, other, [RatFunc.var(other, n) for n in other.names])
    with pytest.raises(ValueError):
        compose(to_other, to_other)
    back = RingMap(other, TABLE, [RatFunc.var(TABLE, n) for n in TABLE.names])
    assert compose(to_other, back).is_identity()


def rand_fraction_map(rng: random.Random) -> RingMap:
    """Random substitution whose images have polynomial denominators."""
    images = []
    for _ in TABLE.names:
        num = rand_poly(rng, TABLE, terms=2) + Poly.var(TABLE, rng.choice(TABLE.names))
        den = rand_poly(rng, TABLE, terms=2) + Poly.const(TABLE, 1)
        if den.is_zero():
            den = Poly.const(TABLE, 1)
        images.append(RatFunc(num, den))
    return RingMap(TABLE, TABLE, images)


def term_by_term(m: RingMap, p: Poly) -> RatFunc:
    """m(p) as a sum of RatFunc terms, each a product of image powers."""
    total = RatFunc(Poly.zero(m.target))
    for e, c in p.terms.items():
        term = RatFunc(Poly.const(m.target, c))
        for image, power in zip(m.images, e):
            term = term * image ** power
        total = total + term
    return total


def test_substitution_term_by_term_agrees_with_one_denominator():
    # with positive integer image denominators the stripped pair is unique,
    # so summing over one denominator must give the very pair the term by
    # term RatFunc sum gives, since witnesses print the numerator
    rng = random.Random(515)
    for _ in range(20):
        m = rand_affine_map(rng)
        p = rand_poly(rng, TABLE, terms=4)
        got, expected = m(p), term_by_term(m, p)
        assert got.num == expected.num and got.den == expected.den
    # with polynomial image denominators only the value is unique
    for _ in range(8):
        m = rand_fraction_map(rng)
        p = rand_poly(rng, TABLE, terms=3)
        got = m(p)
        assert got == term_by_term(m, p)
        _assert_primitive_parts(got)


def test_substitution_into_fractions():
    # numerator and denominator go over one common denominator together; with
    # positive integer image denominators the pair is again the unique one
    rng = random.Random(717)
    for make_map, same_pair in ((rand_affine_map, True), (rand_fraction_map, False)):
        for _ in range(6):
            m = make_map(rng)
            f = RatFunc(rand_poly(rng, TABLE, terms=3),
                        rand_poly(rng, TABLE, terms=2) + Poly.var(TABLE, "z"))
            image_den = term_by_term(m, f.den)
            if image_den.is_zero():
                continue
            got, expected = m(f), term_by_term(m, f.num) / image_den
            assert got == expected
            if same_pair:
                assert got.num == expected.num and got.den == expected.den
            _assert_primitive_parts(got)
    x, y = Poly.var(TABLE, "x"), Poly.var(TABLE, "y")
    to_one = RingMap.from_images(TABLE, TABLE, {"y": RatFunc(Poly.const(TABLE, 1))})
    with pytest.raises(ZeroDivisionError, match="denominator maps to zero"):
        to_one(RatFunc(x, y - 1))
    to_inverse = RingMap.from_images(TABLE, TABLE, {"x": RatFunc(Poly.const(TABLE, 1), y)})
    with pytest.raises(ZeroDivisionError, match="denominator maps to zero"):
        to_inverse(RatFunc(x, x * y - 1))
    assert to_inverse(RatFunc(x, x * y + 1)) == RatFunc(Poly.const(TABLE, 1), 2 * y)


def test_substitution_with_fraction_images():
    rng = random.Random(616)
    for _ in range(6):
        m = rand_fraction_map(rng)
        p = rand_poly(rng, TABLE, terms=3)
        got = m(p)
        assert got == term_by_term(m, p)
        _assert_primitive_parts(got)


# -- the integer substitution kernel against the Poly-based one ----------------


def reference_subst(m: RingMap, parts: tuple) -> list:
    """RingMap._subst as it was on Poly and Q(i) arithmetic: every factor a
    Poly power, and every monomial a product of factors built afresh."""
    images = m.images
    top: dict = {}
    for p in parts:
        for e in p.terms:
            for k, power in enumerate(e):
                if power > top.get(k, 0):
                    top[k] = power
    one = {(0,) * len(m.target): ONE}
    factors: dict = {}

    def factor(k: int, power: int) -> Poly | None:
        key = (k, power)
        if key not in factors:
            image = images[k]
            f = image.num ** power if power else None
            rest = top[k] - power
            if rest and image.den.terms != one:
                g = image.den ** rest
                f = g if f is None else f * g
            factors[key] = f
        return factors[key]

    out = []
    for p in parts:
        acc: dict = {}
        for e, c in p.terms.items():
            mono = None
            for k in top:
                f = factor(k, e[k])
                if f is not None:
                    mono = f if mono is None else mono * f
            _sum_terms(acc, _scaled_terms(one if mono is None else mono.terms, c), 1)
        out.append(_poly(m.target, acc))
    return out


def assert_same_pairs(m: RingMap, value):
    """_subst gives the reference's polynomials, which the reference computes
    on parts conjugated beforehand when the map conjugates, and m(value) the
    RatFunc pair of the reference's; or both refuse a denominator that maps
    to 0."""
    parts = (value.num, value.den) if isinstance(value, RatFunc) else \
        (value, Poly.const(value.table, 1))
    conjugated = tuple(p.conjugate() for p in parts) if m.conjugates_coefficients else parts
    expected = reference_subst(m, conjugated)
    assert m._subst(parts) == expected
    if expected[1].is_zero():
        with pytest.raises(ZeroDivisionError, match="denominator maps to zero"):
            m(value)
        return
    got, want = m(value), RatFunc(*expected)
    assert (got.num, got.den) == (want.num, want.den)


def rand_conjugating_map(rng: random.Random) -> RingMap:
    return RingMap(TABLE, TABLE, rand_fraction_map(rng).images, conjugates_coefficients=True)


def oracle_inputs(rng: random.Random) -> list:
    """A Poly with rational and Gaussian coefficients, a RatFunc, zero, a
    constant Poly and a constant RatFunc."""
    return [
        rand_poly(rng, TABLE, terms=4) + Poly.var(TABLE, "x") * rand_scalar(rng),
        RatFunc(rand_poly(rng, TABLE, terms=3),
                rand_poly(rng, TABLE, terms=2) + Poly.var(TABLE, "z")),
        Poly.zero(TABLE),
        RatFunc(Poly.zero(TABLE), Poly.var(TABLE, "y")),
        Poly.const(TABLE, GaussianRational(Fraction(-3, 4), Fraction(5, 6))),
        RatFunc(Poly.const(TABLE, Fraction(7, 2))),
    ]


@pytest.mark.parametrize("make_map", [rand_affine_map, rand_fraction_map, rand_conjugating_map])
def test_integer_substitution_gives_the_reference_pairs(make_map):
    rng = random.Random(f"subst-oracle-{make_map.__name__}")
    for _ in range(8):
        m = make_map(rng)
        for value in oracle_inputs(rng):
            assert_same_pairs(m, value)


def test_integer_substitution_gives_the_reference_pairs_on_the_paper_maps(monkeypatch):
    # the maps a rational verify all substitutes with: the charts, the fiber
    # maps, every link of the chain, the real structures and the cocycle
    # examples, each on its own inputs.  A rational claim reads its chart and
    # fiber composites from templates, so they are built afresh here and
    # their symbolic substitutions are recorded too
    from realforms import surfaces
    from realforms.checks import run_check

    surfaces._template.cache_clear()
    seen = []
    real_call = RingMap.__call__

    def recording(self, value):
        seen.append((self, value))
        return real_call(self, value)

    with monkeypatch.context() as patch:
        patch.setattr(RingMap, "__call__", recording)
        for check in ("def-3.4-fiber", "prop-4.2", "lem-3.5", "def-3.1", "rem-3.2",
                      "sec-2-cocycle"):
            run_check(check, alpha=Fraction(-7, 3), beta=Fraction(5, 2))
    assert len(seen) > 30
    for m, value in seen:
        assert_same_pairs(m, value)


def _small_polys(table: VarTable, terms: int):
    return _random_polys(table, terms=terms, degree=2, size=4)


@st.composite
def _ring_maps(draw):
    images = []
    for _ in TABLE.names:
        den = draw(_small_polys(TABLE, 2))
        images.append(RatFunc(draw(_small_polys(TABLE, 3)),
                              Poly.const(TABLE, 1) if den.is_zero() else den))
    return RingMap(TABLE, TABLE, images, conjugates_coefficients=draw(st.booleans()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_ring_maps(), _small_polys(TABLE, 4), _small_polys(TABLE, 3), st.booleans())
def test_integer_substitution_gives_the_reference_pairs_random(m, num, den, fraction):
    assert_same_pairs(m, num)
    if fraction and not den.is_zero():
        assert_same_pairs(m, RatFunc(num, den))


# -- a map's tables kept from one call to the next ------------------------------------


def fresh(m: RingMap) -> RingMap:
    """A new map with the images and flag of m, so with no tables built yet."""
    return RingMap(m.source, m.target, m.images, m.conjugates_coefficients)


def test_a_map_applied_again_gives_a_fresh_maps_pairs():
    # the highest power of each variable rises and then falls from one call
    # to the next, so a factor N_k^e*D_k^(top_k-e) kept from an earlier call
    # is right only for the same top_k
    rng = random.Random("kept-tables")
    x, y, z = (Poly.var(TABLE, n) for n in TABLE.names)
    for make_map in (rand_fraction_map, rand_conjugating_map, rand_affine_map):
        for _ in range(3):
            m = make_map(rng)
            for degree in (1, 2, 3, 4, 2, 1, 3, 0):
                p = x ** degree + y ** (degree // 2) * z + rand_poly(rng, TABLE, terms=2)
                values = [p, RatFunc(p, z ** degree + 2)] if degree < 4 else [p]
                for value in values:
                    got, want = m(value), fresh(m)(value)
                    assert (got.num, got.den) == (want.num, want.den)


def test_compose_gives_each_image_through_a_fresh_map():
    rng = random.Random("compose-tables")
    for f_maker, g_maker in ((rand_fraction_map, rand_fraction_map),
                             (rand_affine_map, rand_conjugating_map),
                             (rand_conjugating_map, rand_fraction_map)):
        for _ in range(3):
            f, g = f_maker(rng), g_maker(rng)
            composite = compose(f, g)
            assert composite.conjugates_coefficients == \
                f.conjugates_coefficients ^ g.conjugates_coefficients
            for got, image in zip(composite.images, f.images):
                want = fresh(g)(image)
                assert (got.num, got.den) == (want.num, want.den)


# -- relabellings ------------------------------------------------------------------


def _counting_kernel(monkeypatch) -> list:
    """Each map that RingMap._subst, the substitution kernel, runs on."""
    calls = []
    subst = RingMap._subst
    monkeypatch.setattr(RingMap, "_subst", lambda m, parts: calls.append(m) or subst(m, parts))
    return calls


def _ordered(f: RatFunc) -> tuple:
    return list(f.num.terms.items()), list(f.den.terms.items())


def test_a_relabelling_gives_the_kernels_terms(monkeypatch):
    # renamings onto TABLE and onto a larger table, with and without the flag,
    # against the kernel on the same inputs: Polys and RatFuncs with Gaussian
    # coefficients and denominators
    kernel = _counting_kernel(monkeypatch)
    rng = random.Random("relabelling-oracle")
    wide = VarTable(("w", "z", "s", "y", "x"))
    for target in (TABLE, wide):
        for conjugate in (False, True):
            for _ in range(6):
                names = rng.sample(target.names, len(TABLE))
                m = RingMap(TABLE, target, [RatFunc.var(target, n) for n in names], conjugate)
                assert _relabelling(m.images, m.target) is not None
                values = oracle_inputs(rng) + [
                    gaussian_integer_poly(rng) * rand_scalar(rng),
                    RatFunc(rand_poly(rng, TABLE), gaussian_integer_poly(rng) * I)]
                for value in values:
                    kernel.clear()
                    got = m(value)
                    assert kernel == []
                    parts = (value.num, value.den) if isinstance(value, RatFunc) else \
                        (value, Poly.const(TABLE, 1))
                    num, den = m._subst(parts)
                    assert _ordered(got) == _ordered(RatFunc(num, den))
                    if isinstance(value, RatFunc):  # the kernel's own pair, unstripped
                        assert _ordered(got) == (list(num.terms.items()), list(den.terms.items()))


def test_maps_that_are_no_relabelling_take_the_kernel(monkeypatch):
    kernel = _counting_kernel(monkeypatch)
    rng = random.Random("no-relabelling")
    x, y, z = (RatFunc.var(TABLE, n) for n in TABLE.names)
    for images in ([y, y, z], [x * 2, y, z]):  # x and y onto y; an image 2*x
        m = RingMap(TABLE, TABLE, images)
        assert _relabelling(m.images, m.target) is None
        for value in oracle_inputs(rng):
            kernel.clear()
            assert_same_pairs(m, value)  # m(value) is the reference's pair
            assert kernel.count(m) == 2  # assert_same_pairs's own kernel call, and m(value)


# -- sums with a denominator 1 ----------------------------------------------------


def test_sums_with_a_unit_denominator_give_the_general_pair():
    # a RatFunc keeps the denominator 1 only when its numerator has Z[i]
    # coefficients, so the unit operands are built from such polynomials
    rng = random.Random(3131)
    one = Poly.const(TABLE, 1)
    cases: dict = {}
    for _ in range(30):
        polys = [rand_poly(rng, TABLE, terms=3) + Poly.var(TABLE, "y") for _ in range(2)]
        dens = [rand_poly(rng, TABLE, terms=2) + Poly.var(TABLE, "z") for _ in range(2)]
        fractions = [RatFunc(p, d) for p, d in zip(polys, dens)]
        units = [RatFunc(gaussian_integer_poly(rng)) for _ in range(2)]
        assert all(u.den == one for u in units) and all(f.den != one for f in fractions)
        for f, g in ((units[0], units[1]), (units[0], fractions[1]),
                     (fractions[0], units[1]), (fractions[0], fractions[1])):
            for op, sign in ((f.__add__, 1), (f.__sub__, -1)):
                got = op(g)
                want = RatFunc(f.num * g.den + g.num * f.den * sign, f.den * g.den)
                assert (got.num, got.den) == (want.num, want.den)
                case = (f.den == one, g.den == one)
                cases[case] = cases.get(case, 0) + 1
    assert cases == {(True, True): 60, (True, False): 60, (False, True): 60, (False, False): 60}
    x = RatFunc.var(TABLE, "x")
    assert (x - x).is_zero() and (x - x).den == Poly.const(TABLE, 1)
    assert str(x + 1) == "x + 1" and str(1 - x) == "-x + 1"


def multilinear_poly(rng: random.Random) -> Poly:
    """Three random terms of degree at most 1 in each variable."""
    p = Poly.zero(TABLE)
    for _ in range(3):
        p = p + Poly(TABLE, {tuple(rng.randint(0, 1) for _ in TABLE.names): rand_scalar(rng)})
    return p


def test_substitution_agrees_with_sympy():
    # an independent substitution in sympy's polynomial ring over Q(i): the
    # terms are added as fractions one by one, with no common denominator,
    # and m(value) - expected is 0 when its cross-multiplied numerator is
    # (sympy.cancel takes seconds a case on these, in multivariate gcds)
    sympy = pytest.importorskip("sympy")
    R = sympy.ring(",".join(TABLE.names), sympy.QQ_I)[0]

    def scalar(c: GaussianRational, conjugate: bool):
        value = (sympy.Rational(c.re.numerator, c.re.denominator)
                 + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        return R.domain.from_sympy(sympy.conjugate(value) if conjugate else value)

    def ring_poly(p: Poly):
        return R.from_dict({e: scalar(c, False) for e, c in p.terms.items()}) if p else R(0)

    def substitute(p: Poly, images, conjugate: bool):
        num, den = R(0), R(1)
        for e, c in p.terms.items():
            tn, td = R(scalar(c, conjugate)), R(1)
            for (n, d), k in zip(images, e):
                tn, td = tn * n ** k, td * d ** k
            num, den = num * td + tn * den, den * td
        return num, den

    rng = random.Random(5252)
    checked = 0
    for make_map in (rand_affine_map, rand_fraction_map, rand_conjugating_map):
        for _ in range(4):
            m = make_map(rng)
            images = [(ring_poly(im.num), ring_poly(im.den)) for im in m.images]
            conjugate = m.conjugates_coefficients
            for value in (multilinear_poly(rng) + Poly.var(TABLE, "x"),
                          RatFunc(multilinear_poly(rng), multilinear_poly(rng) + Poly.var(TABLE, "z"))):
                if isinstance(value, RatFunc):
                    a, b = substitute(value.num, images, conjugate)
                    c, d = substitute(value.den, images, conjugate)
                    expected_num, expected_den = a * d, b * c
                else:
                    expected_num, expected_den = substitute(value, images, conjugate)
                if not expected_den:
                    continue
                got = m(value)
                assert ring_poly(got.num) * expected_den - ring_poly(got.den) * expected_num == 0
                checked += 1
    assert checked >= 20
