"""Rees-style presentation of the modified plane, its fibers, and smoothness."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from realforms import groebner, modification, surfaces
from realforms.checks import run_check
from realforms.errors import FNotInIdeal, ForbiddenParameter, PointNotOnVariety
from realforms.gaussian import GaussianRational, I, coerce, integer_rank
from realforms.groebner import Ideal, elimination_order, normal_form
from realforms.modification import (
    ModificationSpec,
    fiber_presentation,
    fiber_to_surface_map,
    match_fiber_to_surface,
    rees_presentation,
    rees_report,
    smoothness_report,
    standard_modification,
    standard_rees,
    surface_to_fiber_map,
)
from realforms.ring import Poly, RingMap, VarTable, parse_poly
from realforms.surfaces import ALPHA, SurfacePresentation, chart_yv, make_surface, param_pair

from test_gaussian import row_reduce  # the field-side oracle
from test_surfaces import TEMPLATE_PAIRS, claim_status, cold_templates  # noqa: F401 - a fixture

TEMPLATE_PAIRS_ALPHAS = list(dict.fromkeys(v for pair in TEMPLATE_PAIRS for v in pair))


# -- presentation of the modification ------------------------------------------


def test_rees_memberships_symbolic():
    rees = rees_presentation(standard_modification("symbolic"))
    table = rees.table
    assert rees.scale_vars == ("T1", "T2", "T3")
    t1, t2, t3 = (Poly.var(table, n) for n in rees.scale_vars)
    x, y = Poly.var(table, "x"), Poly.var(table, "y")
    assert rees.ideal.member(t1 - 1)
    assert rees.ideal.member(y * t2 - x * t3)


def test_rees_memberships_rational():
    for alpha in (2, Fraction(1, 2), -1):
        rees = rees_presentation(standard_modification(alpha))
        table = rees.table
        t1, t2, t3 = (Poly.var(table, n) for n in rees.scale_vars)
        x, y = Poly.var(table, "x"), Poly.var(table, "y")
        assert rees.ideal.member(t1 - 1)
        assert rees.ideal.member(y * t2 - x * t3)


def test_rees_report():
    assert rees_report().passed
    assert rees_report(standard_modification(3)).passed


def test_rees_blowup_chart_example():
    """Blowing up the plane origin and trivializing along f = x gives the
    classical chart relations T1 = 1, x*T2 = y."""
    table = VarTable(("x", "y"))
    x, y = Poly.var(table, "x"), Poly.var(table, "y")
    spec = ModificationSpec(
        table=table, base_vars=("x", "y"), generators=(x, y), divisor=x
    )
    rees = rees_presentation(spec)
    big = rees.table
    t1, t2 = (Poly.var(big, n) for n in rees.scale_vars)
    xx, yy = Poly.var(big, "x"), Poly.var(big, "y")
    expected = Ideal([t1 - 1, xx * t2 - yy], big)
    assert rees.ideal.equal(expected)


def test_divisor_must_lie_in_center_ideal():
    table = VarTable(("x", "y"))
    x, y = Poly.var(table, "x"), Poly.var(table, "y")
    with pytest.raises(FNotInIdeal):
        ModificationSpec(
            table=table, base_vars=("x", "y"),
            generators=(x, y), divisor=x + 1,
        )


def test_spec_over_the_standard_generators_refuses_an_outside_divisor():
    spec = standard_modification(2)
    x = Poly.var(spec.table, "x")
    with pytest.raises(FNotInIdeal):
        # x is 1 at the center (1, i), where every generator vanishes
        ModificationSpec(table=spec.table, base_vars=spec.base_vars,
                         generators=spec.generators, divisor=x)


def test_rees_claim_asks_the_spec_ideal(monkeypatch):
    spec = standard_modification(2)
    asked = []
    member = Ideal.member

    def recording(self, p, *args, **kwargs):
        asked.append((self, p))
        return member(self, p, *args, **kwargs)

    monkeypatch.setattr(Ideal, "member", recording)
    assert rees_report(spec).passed
    assert [ideal for ideal, p in asked if p is spec.divisor] == [spec.center_ideal]
    # the claim is computed: an ideal without the divisor fails it
    x = Poly.var(spec.table, "x")
    object.__setattr__(spec, "center_ideal", Ideal([x], spec.table))
    (status,) = [i.status for i in rees_report(spec).items
                 if i.claim_id == "divisor-in-center-ideal"]
    assert status == "fail"


def test_spec_from_parsed_polynomials():
    table = VarTable(("x", "y"))
    spec = ModificationSpec(
        table=table, base_vars=("x", "y"),
        generators=(parse_poly("x^2 + y^2", table), parse_poly("x", table)),
        divisor=parse_poly("x^2 + y^2", table),
    )
    assert spec.divisor == Poly.var(table, "x") ** 2 + Poly.var(table, "y") ** 2
    assert len(spec.generators) == 2
    rees = rees_presentation(spec)
    assert rees.ideal.member(Poly.var(rees.table, "T1") - 1)


# -- the symbolic presentation, read at each value --------------------------------


def _admissible_values(count: int, seed: int = 23) -> list:
    rng = random.Random(seed)
    values = [Fraction(-9, 8), Fraction(1, 9), Fraction(1000, 999)]
    while len(values) < count:
        value = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        if value not in (0, 1) and value not in values:
            values.append(value)
    return values


def _fiber_by_elimination(alpha) -> SurfacePresentation:
    """The fiber as the elimination at alpha itself gives it."""
    cooked, _ = param_pair(alpha)
    spec = standard_modification(cooked)
    rees = rees_presentation(spec)
    extras = tuple(n for n in spec.table.names if n not in spec.base_vars)
    small = VarTable(spec.base_vars + rees.scale_vars[1:] + extras)
    basis = [modification._transport(h, small) for h in (
        g.specialize({rees.scale_vars[0]: 1}) for g in rees.ideal.generators)
        if not h.is_zero()]
    return SurfacePresentation(small, Ideal(basis, small), cooked, cooked)


@pytest.fixture
def cold_rees():
    standard_rees.cache_clear()
    yield
    standard_rees.cache_clear()


@pytest.mark.parametrize("alpha", _admissible_values(40) + ["symbolic", "c"])
def test_fiber_read_from_the_symbolic_basis_equals_the_elimination_at_alpha(alpha):
    fiber = fiber_presentation(alpha)
    expected = _fiber_by_elimination(alpha)
    assert fiber.table == expected.table
    assert fiber.generators == expected.generators
    assert (fiber.alpha, fiber.beta) == (expected.alpha, expected.beta)


def test_symbolic_basis_is_a_groebner_basis_with_the_parameter_last():
    _, ideal = modification._eliminate_inverse(standard_modification())
    order = elimination_order((modification.INVERSE_NAME,), (ALPHA,))
    basis = ideal.groebner(order)
    key = order.key_fn(ideal.table)
    one = GaussianRational(1)
    assert len(basis) == 8
    for f, g in combinations(basis, 2):
        lf, lg = max(f.terms, key=key), max(g.terms, key=key)
        assert f.terms[lf].is_one() and g.terms[lg].is_one()
        lcm = tuple(map(max, lf, lg))
        s = (Poly(ideal.table, {tuple(m - e for m, e in zip(lcm, lf)): one}) * f
             - Poly(ideal.table, {tuple(m - e for m, e in zip(lcm, lg)): one}) * g)
        assert normal_form(s, basis, order).is_zero()


def test_a_process_eliminates_the_symbolic_presentation_once(cold_rees, monkeypatch):
    eliminated = []
    eliminate = modification._eliminate_inverse

    def counting(spec):
        eliminated.append(spec.table.names)
        return eliminate(spec)

    monkeypatch.setattr(modification, "_eliminate_inverse", counting)
    assert rees_report().passed
    assert run_check("def-3.4-rees").passed
    for alpha in (2, Fraction(-9, 8), "symbolic"):
        assert run_check("def-3.4-fiber", alpha=alpha).passed
    assert eliminated == [("x", "y", ALPHA)]


def test_a_warm_rational_fiber_runs_no_elimination(monkeypatch):
    standard_rees()
    orders = []
    buchberger = groebner.buchberger

    def recording(generators, order=groebner.LEX):
        orders.append(order.kind)
        return buchberger(generators, order)

    monkeypatch.setattr(groebner, "buchberger", recording)
    assert run_check("def-3.4-fiber", alpha=Fraction(-7, 3)).passed
    assert orders == []  # the read fiber basis is already the reduced grevlex basis


def _planted(relations):
    """standard_rees's elimination, with its relations replaced."""
    eliminate = modification._eliminate_inverse

    def planting(spec):
        rees, ideal = eliminate(spec)
        small = rees.table
        planted = [parse_poly(r, small) for r in relations]
        return modification.ReesPresentation(small, Ideal(planted, small), rees.scale_vars), ideal

    return planting


def test_the_symbolic_relations_are_reduced_and_monic_in_grevlex():
    # standard_rees certifies them so; this pins what it certifies
    relations = standard_rees()[1].ideal.generators
    assert [str(g) for g in relations] == [
        "x^2 - x*T2 - x*a - x - y*T3 + a", "-x*T3 + y*T2", "T1 - 1"]


@pytest.mark.parametrize("relations, reason", [
    # x*T1 is a tail term of the first relation, and T1 leads the third
    (["x^2 - x*T2 - x*a - x - y*T3 + a + x*T1", "-x*T3 + y*T2", "T1 - 1"], "divisible"),
    # two relations that share a leading monomial
    (["x^2 - x*T2 - x*a - x - y*T3 + a", "x^2 - x", "T1 - 1"], "divisible"),
    # a leading coefficient a, a unit that would have to be divided out
    (["x^2*a - x*T2 - x*a - x - y*T3 + a", "-x*T3 + y*T2", "T1 - 1"], "not monic"),
    (["x^2 - x*T2 - x*a - x - y*T3 + a", "-x*T3 + y*T2", "2*T1 - 2"], "not monic"),
])
def test_standard_rees_refuses_relations_that_are_not_reduced(cold_rees, monkeypatch,
                                                              relations, reason):
    monkeypatch.setattr(modification, "_eliminate_inverse", _planted(relations))
    with pytest.raises(ValueError, match=reason):
        standard_rees()


@pytest.mark.parametrize("alpha", TEMPLATE_PAIRS_ALPHAS)
def test_the_read_fiber_basis_is_the_reduced_grevlex_basis(alpha):
    # the oracle: the Rees relations at alpha, a grevlex Buchberger run, then
    # T1 = 1 with the zero element dropped
    _, rees = standard_rees()
    table = VarTable(rees.table.names[:-1])
    at = [modification._transport(g, table) for g in
          (g.specialize({ALPHA: alpha}) for g in rees.ideal.generators)]
    small = VarTable(("x", "y", "T2", "T3"))
    expected = [modification._transport(h, small) for h in
                (g.specialize({"T1": 1}) for g in groebner.buchberger(at, groebner.GREVLEX))
                if not h.is_zero()]
    read = fiber_presentation(alpha).generators
    assert [g.terms for g in read] == [g.terms for g in expected]


def test_a_leading_coefficient_left_uncertified_refuses_the_basis(cold_rees, monkeypatch):
    certified_unit = modification.certified_unit
    monkeypatch.setattr(modification, "certified_unit",
                        lambda p, units: certified_unit(p, units[1:]))  # drop a
    with pytest.raises(ValueError, match="leading coefficient a of .* is not certified"):
        standard_rees()
    report = run_check("def-3.4-fiber", alpha=2)
    assert report.status == "error"
    assert [i.claim_id for i in report.items] == ["execution"]
    assert "is not certified a unit" in report.items[0].witness


def test_the_leading_coefficients_need_only_the_unit_a(cold_rees, monkeypatch):
    # they are 1, a and a^2: 1 - a is offered but no coefficient takes it
    certified_unit = modification.certified_unit
    monkeypatch.setattr(modification, "certified_unit",
                        lambda p, units: certified_unit(p, units[:1]))  # drop 1 - a
    assert standard_rees()[1].ideal.generators


def test_standard_modification_forbids_bad_parameters():
    with pytest.raises(ForbiddenParameter):
        standard_modification(1)
    with pytest.raises(ForbiddenParameter):
        fiber_presentation(0)


# -- fibers ----------------------------------------------------------------------


def test_fiber_presentation_shape():
    fiber = fiber_presentation(2)
    assert "T1" not in fiber.table.names
    assert {"x", "y", "T2", "T3"} <= set(fiber.table.names)
    assert fiber.generators
    assert fiber.alpha == fiber.beta == 2


def test_match_fiber_to_surface_samples():
    for alpha in (2, 3, -1):
        report = match_fiber_to_surface(alpha)
        assert report.passed, [i.claim_id for i in report.failures()]


def test_match_fiber_symbolic():
    assert match_fiber_to_surface("symbolic").passed


def test_a_warm_rational_fiber_match_or_xy_chart_substitutes_no_ring_map(monkeypatch):
    for check in ("def-3.4-fiber", "prop-4.1"):
        assert run_check(check, alpha=2, beta=3).passed  # builds the templates
    calls = []
    call = RingMap.__call__
    monkeypatch.setattr(RingMap, "__call__", lambda m, value: calls.append(m) or call(m, value))
    for check in ("def-3.4-fiber", "prop-4.1"):
        assert run_check(check, alpha=Fraction(-7, 3), beta=Fraction(5, 2)).passed
    assert calls == []  # each composite is read from its template at the value


@pytest.mark.parametrize("alpha", [Fraction(7, 3), "symbolic"])
def test_a_wrong_identification_fails_the_fiber_match(monkeypatch, cold_templates, alpha):
    """A u image off by 1 in the map to the fiber fails the surface relations
    and both round trips, read through the templates of the composites as
    when built at a name.  Templates are kept per build function, so a
    patched definition reaches no composite compiled earlier in the process:
    the fixture clears them before the test and after it, so no later test
    reads a broken one."""
    images = modification._surface_to_fiber_images
    monkeypatch.setattr(modification, "_surface_to_fiber_images", lambda tbl, alpha: (
        images(tbl, alpha) | {"u": images(tbl, alpha)["u"] + 1}))
    report = match_fiber_to_surface(alpha)
    for claim in ("surface-relations-vanish-identically", "roundtrip-fixes-fiber-chart",
                  "roundtrip-fixes-surface-chart"):
        assert claim_status(report, claim) == "fail"


def test_a_symbolic_fiber_match_specializes_the_rees_relations_once(monkeypatch):
    # match_fiber_to_surface and the identification its builders read share
    # the run's fiber, so T1 = 1 is set in the Rees relations once
    calls = []
    relations = modification._fiber_relations
    monkeypatch.setattr(modification, "_fiber_relations",
                        lambda *args: calls.append(args) or relations(*args))
    assert run_check("def-3.4-fiber", alpha="symbolic").passed
    assert len(calls) == 1


def test_chart_maps_send_zero_to_zero():
    fiber = fiber_presentation(2)
    surface = make_surface(2, 2)
    to_surface = fiber_to_surface_map(fiber, surface)
    to_fiber = surface_to_fiber_map(surface, fiber)
    assert to_surface(Poly.zero(fiber.table)).is_zero()
    assert to_fiber(Poly.zero(surface.table)).is_zero()


# -- smoothness -------------------------------------------------------------------


def _as_scalar(value) -> GaussianRational:
    c = coerce(value)
    if c is None:
        raise TypeError(f"not an exact scalar: {value!r}")
    return c


def surface_chart_point(alpha, x0, u0) -> dict:
    """An exact point of the diagonal surface from chart coordinates with
    x0*u0 != 0 (surfaces.chart_yv), built directly at the values."""
    alpha, x0, u0 = (_as_scalar(v) for v in (alpha, x0, u0))
    y0, v0 = chart_yv(x0, u0, alpha, alpha)
    return {"x": x0, "y": y0, "u": u0, "v": v0}


def jacobian_rows(generators, point) -> list:
    """The Jacobian in every variable of the generators' table at a point
    where each must vanish (else PointNotOnVariety), the direct way:
    Poly.derivative, then Poly.evaluate at the exact point, each row cleared
    to Gaussian-integer pairs (re, im) by the positive lcm of its
    denominators."""
    if not generators:
        return []
    point = {n: point[n] for n in generators[0].table.names}  # KeyError for a missing one
    for g in generators:
        if not g.evaluate(point).is_zero():
            raise PointNotOnVariety(f"relation {g} does not vanish at the point")
    rows = []
    for g in generators:
        values = [g.derivative(n).evaluate(point) for n in point]
        d = lcm(*(v.d for v in values))
        rows.append([(v.a * (d // v.d), v.b * (d // v.d)) for v in values])
    return rows


def test_surface_chart_point_lies_on_surface():
    surface = make_surface(2, 2)
    point = surface_chart_point(2, 3, -1)
    for g in surface.generators:
        assert g.evaluate(point).is_zero()


def rank_at(presentation, point):
    """The rank of the presentation's Jacobian in every variable of the
    table at the point, on the cleared integer rows, as smoothness_report
    takes it on its read rows."""
    return integer_rank(jacobian_rows(presentation.generators, point))


def oracle_rank(generators, point) -> int:
    """The Jacobian's rank the field-side way: derivative, then specialize,
    then row_reduce."""
    names = generators[0].table.names
    rows = [[g.derivative(n).specialize(point).constant_value() for n in names]
            for g in generators]
    return len(row_reduce(rows)[1])


def test_chart_point_rejects_inexact_scalars():
    # floats and strings are not exact scalars; 0.5 is a binary fraction
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError, match="not an exact scalar"):
            surface_chart_point(2, bad, 1)
    with pytest.raises(TypeError):
        rank_at(make_surface(2, 2), {"x": 1.0, "y": 0, "u": 1, "v": 0})
    point = surface_chart_point(2, Fraction(1, 2), GaussianRational(1, 1))
    assert point["x"] == GaussianRational(Fraction(1, 2))


def test_jacobian_rank_on_surface():
    surface = make_surface(2, 2)
    point = surface_chart_point(2, 1, 1)
    assert rank_at(surface, point) == 2


def test_jacobian_rank_zero_locus():
    table = VarTable(("x", "y"))
    ideal = Ideal([Poly.var(table, "x") * Poly.var(table, "y")])
    assert rank_at(ideal, {"x": 0, "y": 0}) == 0
    assert rank_at(ideal, {"x": 0, "y": 5}) == 1
    # the zero ideal has no relations, so its Jacobian has no rows
    assert rank_at(Ideal([], table), {"x": 0, "y": 0}) == 0


@pytest.mark.parametrize("alpha", [Fraction(7, 3), Fraction(-1, 8), Fraction(1000, 999)])
def test_rank_in_one_pass_equals_the_rank_of_values_taken_one_by_one(alpha):
    surface = make_surface(alpha, alpha)
    generators = surface.generators
    jacobian = [[g.derivative(n) for n in surface.table.names] for g in generators]
    odd = (Fraction(1, 2), Fraction(-3, 5))
    for x0, u0 in modification.DEFAULT_CHART_SAMPLES + (odd,):
        point = surface_chart_point(alpha, x0, u0)
        assert all(g.specialize(point).is_zero() for g in generators)
        rows = [[d.specialize(point).constant_value() for d in row] for row in jacobian]
        rank = len(row_reduce(rows)[1])
        assert rank == oracle_rank(generators, point)
        assert rank == 2
        assert rank_at(surface, point) == rank
        off = dict(point, v=point["v"] + Fraction(1, 7))
        with pytest.raises(PointNotOnVariety):
            rank_at(surface, off)
    point = surface_chart_point(alpha, *odd)
    assert all(point[n].d > 1 for n in ("x", "y", "u", "v"))  # no coordinate is an integer
    assert rank_at(Ideal([], surface.table), point) == 0


def test_jacobian_requires_point_on_variety():
    table = VarTable(("x", "y"))
    ideal = Ideal([Poly.var(table, "x") * Poly.var(table, "y")])
    with pytest.raises(PointNotOnVariety):
        rank_at(ideal, {"x": 1, "y": 1})


def test_smoothness_reports():
    for alpha in (2, 3, -1, Fraction(1, 2)):
        report = smoothness_report(alpha)
        assert report.passed
        assert len(report.items) == 5


def test_a_rational_smoothness_report_compiles_its_jacobian_once(monkeypatch):
    # once per process: a warm report compiles nothing and reads its five
    # sample points, their generators and partials, in one pass
    smoothness_report(2)
    calls = []
    for module, name in ((surfaces, "compile_reads"), (modification, "read_at")):
        f = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, f=f, name=name: calls.append(name) or f(*args))
    assert smoothness_report(Fraction(7, 3)).passed
    assert len(modification.DEFAULT_CHART_SAMPLES) == 5
    assert calls == ["read_at"]


def _seeded_alphas(count: int, seed: int) -> list[Fraction]:
    rng = random.Random(seed)
    alphas = [Fraction(-1), Fraction(1000, 999)]
    while len(alphas) < count:
        value = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, rng.choice((9, 10 ** 6))))
        if value not in (0, 1) and value not in alphas:
            alphas.append(value)
    return alphas


def test_the_read_smoothness_samples_equal_the_field_side_jacobian():
    # the oracle: each sample point built at the value, the Jacobian there
    # by derivative and specialize, and its rank by row_reduce
    for alpha in _seeded_alphas(24, seed=3535):
        report = smoothness_report(alpha)
        generators = make_surface(alpha, alpha).generators
        expected = []
        for x0, u0 in modification.DEFAULT_CHART_SAMPLES:
            point = surface_chart_point(alpha, x0, u0)
            rank = oracle_rank(generators, point)
            expected.append((f"jacobian-rank-2-at-({x0},{u0})", "pass" if rank == 2 else "fail",
                             {name: str(value) for name, value in point.items()}))
        assert [(i.claim_id, i.status, i.witness) for i in report.items] == expected, alpha


@pytest.mark.parametrize("alpha", [Fraction(7, 3), Fraction(-1)])
def test_off_by_one_generators_fail_a_smoothness_sample(monkeypatch, cold_templates, alpha):
    """g3 + 1 vanishes at no sample point, and the squares of the generators
    vanish to second order, so their Jacobian has rank 0 at every point.
    The samples are read through a template built from the patched
    generators, so the fixture clears the templates before the test and
    after it, and no later test reads a broken one."""
    generators = surfaces.surface_generators

    def shifted(tbl, a, b):
        g1, g2, g3 = generators(tbl, a, b)
        return g1, g2, g3 + 1

    def squared(tbl, a, b):
        return tuple(g * g for g in generators(tbl, a, b))

    for module in (surfaces, modification):
        monkeypatch.setattr(module, "surface_generators", shifted)
    with pytest.raises(PointNotOnVariety, match="does not vanish"):
        smoothness_report(alpha)
    surfaces._template.cache_clear()
    for module in (surfaces, modification):
        monkeypatch.setattr(module, "surface_generators", squared)
    assert [item.status for item in smoothness_report(alpha).items] == ["fail"] * 5


def test_smoothness_report_rejects_inexact_parameters():
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, not 1/10
    for bad in (0.1, "1/10"):
        with pytest.raises(TypeError, match="not an exact scalar"):
            smoothness_report(bad)
    with pytest.raises(TypeError, match="not an exact scalar"):
        smoothness_report(GaussianRational(2, 1))
    assert smoothness_report(GaussianRational(Fraction(1, 10))).passed


def test_gaussian_chart_points():
    surface = make_surface(2, 2)
    point = surface_chart_point(2, I, GaussianRational(1, 1))
    for g in surface.generators:
        assert g.evaluate(point).is_zero()
    assert rank_at(surface, point) == 2


def _seeded_chart_points(count: int, seed: int = 4242) -> list:
    """(alpha, point) on the diagonal surface: real and Gaussian chart
    coordinates, integers and fractions, and a few that hit x = 1, x = alpha
    or u = 1, where some partial derivatives vanish."""
    rng = random.Random(seed)
    alphas = _admissible_values(40, seed)

    def scalar(gaussian: bool) -> GaussianRational:
        re = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 7, 10 ** 6)))
        im = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 9))) if gaussian else 0
        return GaussianRational(re, im)

    points = []
    while len(points) < count:
        alpha = rng.choice(alphas)
        gaussian = len(points) % 2 == 1
        x0, u0 = scalar(gaussian), scalar(gaussian)
        if len(points) % 9 == 0:
            x0 = rng.choice((GaussianRational(1), GaussianRational(alpha)))
        if len(points) % 11 == 0:
            u0 = GaussianRational(1)
        if x0 and u0:
            points.append((alpha, surface_chart_point(alpha, x0, u0)))
    return points


def test_one_pass_rank_equals_the_field_side_rank_at_seeded_chart_points():
    points = _seeded_chart_points(240)
    assert sum(1 for _, p in points if all(v.is_real() for v in p.values())) >= 100
    assert sum(1 for _, p in points if any(not v.is_real() for v in p.values())) >= 100
    assert sum(1 for _, p in points if any(v.d > 1 for v in p.values())) >= 100
    for alpha, point in points:
        generators = make_surface(alpha, alpha).generators
        rank = integer_rank(jacobian_rows(generators, point))
        assert rank == oracle_rank(generators, point) == 2, (alpha, point)


def test_one_pass_jacobian_is_the_jacobian_times_a_positive_integer_per_row():
    # a rank test cannot see a column scaled by a nonzero factor, so the
    # entries are compared: each row is the oracle's row times one integer
    for alpha, point in _seeded_chart_points(120, seed=77):
        generators = make_surface(alpha, alpha).generators
        rows = jacobian_rows(generators, point)
        names = generators[0].table.names
        for g, pairs in zip(generators, rows):
            assert all(type(x) is int for pair in pairs for x in pair), pairs
            row = [GaussianRational(a, b) for a, b in pairs]
            expected = [g.derivative(n).specialize(point).constant_value() for n in names]
            pivot = next((k for k, v in enumerate(expected) if v), None)
            if pivot is None:  # the generator is singular there
                assert not any(row), (alpha, point)
                continue
            scale = row[pivot] / expected[pivot]
            assert scale.is_real() and scale.d == 1 and scale.a > 0, (alpha, point)
            assert row == [v * scale for v in expected], (alpha, point)


def test_one_pass_rank_needs_a_value_for_every_variable():
    surface = make_surface(2, 2)
    point = surface_chart_point(2, 3, -1)
    del point["v"]
    with pytest.raises(KeyError, match="v"):
        rank_at(surface, point)
