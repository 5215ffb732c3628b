"""Sparse polynomials, rational functions, and substitution homomorphisms."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from realforms.gaussian import I, GaussianRational
from realforms.ring import (
    Poly,
    RatFunc,
    RingMap,
    VarTable,
    compose,
    parse_poly,
    poly_str,
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


def _random_polys(table: VarTable):
    scalar = st.builds(
        GaussianRational,
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
    )
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * len(table)), scalar)
    return st.lists(term, max_size=5).map(
        lambda terms: sum((Poly(table, {e: c}) for e, c in terms), Poly.zero(table)))


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
        term = RatFunc.const(m.target, c)
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
    to_one = RingMap.from_images(TABLE, TABLE, {"y": RatFunc.const(TABLE, 1)})
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
