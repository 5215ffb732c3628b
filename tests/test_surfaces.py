"""Surface presentations, real structures, charts, and equivalence predicates."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from realforms import modification, ring, surfaces

from realforms.checks import run_check
from realforms.classification import classify
from realforms.errors import (
    ForbiddenParameter,
    NotAntiInvolution,
    NotAutomorphism,
    NotConjugationStable,
    NotIsomorphism,
)
from realforms.gaussian import I, GaussianRational
from realforms.groebner import Ideal
from realforms.intersection import enumerate_negative_classes
from realforms.modification import fiber_presentation, rees_presentation, standard_modification
from realforms.ring import Poly, RatFunc, RingMap, VarTable, compose, parse_poly
from realforms.surfaces import (
    RESERVED_NAMES,
    RealStructure,
    SurfacePresentation,
    _check_pullback,
    agree_modulo,
    are_equivalent_structures,
    cocycle_examples_report,
    coordinate_change_maps,
    displayed_real_equations,
    free_presentation,
    generators_report,
    is_cocycle,
    isomorphism_chain_report,
    lift_real_structure,
    make_surface,
    modified_plane_config,
    param_pair,
    param_ring,
    real_locus_report,
    sigma_report,
    standard_conjugation,
    swap_map,
    swap_real_structure,
    verify_coordinate_change,
    verify_modified_plane_chart,
    verify_plane_automorphism,
    verify_swap_isomorphism,
    verify_xy_projection_chart,
)

RATIONAL_PAIRS = (
    (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(-1)),
    (Fraction(-2), Fraction(5)),
    (Fraction(2, 5), Fraction(5, 2)),
    (Fraction(7, 3), Fraction(-1, 3)),
)


def claim_status(report, claim_id: str) -> str:
    matches = [item.status for item in report.items if item.claim_id == claim_id]
    assert matches, f"claim {claim_id!r} missing from {report.check_id}"
    return matches[0]


@pytest.fixture
def cold_templates():
    """No template before the test, and none built from its patches after."""
    surfaces._template.cache_clear()
    yield
    surfaces._template.cache_clear()


# -- presentations ----------------------------------------------------------


def test_generators_verbatim():
    s = make_surface(2, 3)
    x, y, u, v = (s.var(n) for n in ("x", "y", "u", "v"))
    two = Poly.const(s.table, 2)
    three = Poly.const(s.table, 3)
    g1, g2, g3 = s.generators
    assert g1 == y * u - x * (x - 1) * (x - two)
    assert g2 == x * v - u * (u - 1) * (u - three)
    assert g3 == y * v - (x - 1) * (x - two) * (u - 1) * (u - three)


def test_symbolic_generators_and_diagonal():
    s = make_surface("symbolic", "symbolic")
    assert s.alpha == s.beta == "a"  # an equal pair means the diagonal surface
    x, y, u, v, a = (s.var(n) for n in s.table.names)
    assert s.generators[0] == y * u - x * (x - 1) * (x - a)

    s2 = make_surface("symbolic", "b")
    assert (s2.alpha, s2.beta) == ("a", "b")
    assert "b" in s2.table.names


def test_default_beta_is_alpha():
    s = make_surface(Fraction(5, 2))
    assert s.alpha == s.beta == Fraction(5, 2)


def test_forbidden_parameters():
    for bad in (0, 1, Fraction(0), Fraction(1)):
        with pytest.raises(ForbiddenParameter):
            make_surface(bad)
        with pytest.raises(ForbiddenParameter):
            make_surface(2, bad)


@pytest.mark.parametrize("call", [
    lambda: param_pair(0.1),
    lambda: param_pair(2, 0.5),
    lambda: param_pair(None),
    lambda: param_pair(GaussianRational(2, 1)),
    lambda: make_surface(0.5),
    lambda: modified_plane_config(0.1),
    lambda: classify(0.5, 2),
    lambda: enumerate_negative_classes(0.1),
    # an inexact beta equal to alpha is cooked, not taken for the diagonal
    lambda: param_pair(2, 2.0),
    lambda: param_pair(2, 2 + 0j),
    lambda: param_pair(2, Decimal(2)),
    lambda: classify(2, 2.0),
], ids=["param_pair", "param_pair-beta", "param_pair-none", "param_pair-nonreal",
        "make_surface", "modified_plane_config", "classify", "enumerate",
        "equal-float-beta", "equal-complex-beta", "equal-decimal-beta", "classify-equal-float"])
def test_inexact_parameters_are_refused(call):
    with pytest.raises(TypeError, match="not an exact scalar"):
        call()


def test_float_parameter_is_a_check_error():
    assert run_check("def-3.1", alpha=0.5).status == "error"


def test_param_pair_accepts_exact_real_scalars():
    assert param_pair(GaussianRational(Fraction(5, 2), 0), -3) == (Fraction(5, 2), Fraction(-3))
    assert param_pair("symbolic", "symbolic") == ("a", "a")
    assert param_pair("symbolic", "b") == ("a", "b")
    assert param_pair(2, Fraction(2)) == param_pair(2, GaussianRational(2)) == (2, 2)


@pytest.mark.parametrize("call", [
    lambda: param_pair("i"),
    lambda: param_pair(2, "i"),
    lambda: make_surface("i"),
], ids=["param_pair", "param_pair-beta", "make_surface"])
def test_imaginary_unit_is_not_a_symbolic_name(call):
    # a parameter named i would print as the unit and parse back as it
    with pytest.raises(ValueError, match="bad symbolic parameter name 'i'"):
        call()


@pytest.mark.parametrize("name", sorted(RESERVED_NAMES))
def test_reserved_names_are_not_symbolic_names(name):
    with pytest.raises(ValueError, match=f"bad symbolic parameter name '{name}'"):
        param_pair(name)
    with pytest.raises(ValueError, match=f"bad symbolic parameter name '{name}'"):
        param_pair(2, name)


def test_reserved_names_cover_every_library_table():
    tables = [
        make_surface("symbolic", "b").table,
        modified_plane_config("symbolic").table,
        rees_presentation(standard_modification("symbolic")).table,
        fiber_presentation("symbolic").table,
    ]
    assert {n for t in tables for n in t.names} - RESERVED_NAMES == {"a", "b"}


@pytest.mark.parametrize("alpha, beta", [("b", "symbolic"), ("symbolic", "a")])
def test_param_pair_refuses_two_specs_naming_one_symbol(alpha, beta):
    with pytest.raises(ValueError, match="both name"):
        param_pair(alpha, beta)


def test_param_ring_lists_each_symbolic_unit_once():
    table, (a, three, a_again), units = param_ring(("x",), "a", Fraction(3), "a")
    assert table.names == ("x", "a")
    assert a == a_again == Poly.var(table, "a")
    assert three == Poly.const(table, 3)
    assert units == (a, 1 - a)
    config = modified_plane_config("symbolic")
    alpha = Poly.var(config.table, "a")
    assert config.units == (alpha, 1 - alpha)


def test_origin_residue_relation():
    s = make_surface(2, 3)
    residue = [g.specialize({"x": 0, "u": 0}) for g in s.generators]
    y, v = s.var("y"), s.var("v")
    assert residue[0].is_zero() and residue[1].is_zero()
    assert residue[2] == y * v - Poly.const(s.table, 6)
    assert generators_report(2, 3).passed
    assert generators_report("symbolic", "symbolic").passed


# -- the coordinate-pair swap -------------------------------------------------


def test_swap_isomorphism_reports():
    assert verify_swap_isomorphism(2, 3).passed
    assert verify_swap_isomorphism("symbolic", "b").passed
    for a, b in RATIONAL_PAIRS:
        assert verify_swap_isomorphism(a, b).passed


def test_swap_composed_with_itself_is_identity():
    s_ab = make_surface(2, 3)
    s_ba = make_surface(3, 2)
    there = swap_map(s_ba, s_ab, conjugate=False)
    back = swap_map(s_ab, s_ba, conjugate=False)
    assert compose(there, back).is_identity()
    assert compose(back, there).is_identity()


def test_swap_sends_generators_to_swapped_generators():
    s_ab = make_surface(2, 3)
    s_ba = make_surface(3, 2)
    m = swap_map(s_ba, s_ab, conjugate=False)
    image = m(s_ba.generators[0])
    assert image.is_polynomial() and image.as_poly() == s_ab.generators[1]
    image3 = m(s_ba.generators[2])
    assert image3.is_polynomial() and image3.as_poly() == s_ab.generators[2]


# -- real structures -----------------------------------------------------------


def test_sigma_is_an_involution():
    assert sigma_report(2).passed
    assert sigma_report("symbolic").passed
    rho = swap_real_structure(make_surface(Fraction(1, 2)))
    square = compose(rho.map, rho.map)
    ideal = rho.surface.ideal
    for name in rho.surface.table.names:
        delta = square.image_of(name) - RatFunc.var(rho.surface.table, name)
        assert ideal.member(delta.num)


@pytest.mark.parametrize("alpha", [Fraction(7, 3), "symbolic"])
def test_sigma_report_reads_the_square_test_of_its_structure(monkeypatch, alpha):
    # RealStructure decides rho.rho = id modulo the ideal, and keeps the
    # outcome; def-3.1's involution claim reads it instead of testing again
    agreed = []
    agree = surfaces.agree_modulo
    monkeypatch.setattr(surfaces, "agree_modulo", lambda *args: agreed.append(args) or agree(*args))
    report = sigma_report(alpha)
    assert claim_status(report, "involution") == "pass"
    assert len(agreed) == 1
    rho = swap_real_structure(make_surface(alpha))
    assert rho.involution is True and "involution" not in repr(rho)


def test_swap_structure_needs_diagonal_parameters():
    s = make_surface(2, 3)
    with pytest.raises(NotAntiInvolution):
        swap_real_structure(s)


def test_symbolic_parameters_are_real():
    """Conjugation fixes a symbolic parameter, so both conjugations are real
    structures on the symbolic surfaces."""
    diagonal = make_surface("symbolic")
    for s in (diagonal, make_surface("symbolic", "b")):
        rho = standard_conjugation(s)
        assert rho.map(s.var("a")).num == s.var("a")
    rho = swap_real_structure(diagonal)
    assert rho.map(diagonal.var("x")).num == diagonal.var("u")


def test_anti_regular_map_rejects_regular_pullback():
    s = make_surface(2, 2)
    with pytest.raises(NotAntiInvolution):
        RealStructure(s, swap_map(s, s, conjugate=False))


def test_real_structure_must_preserve_the_ideal():
    # x <-> u alone sends y*u - x*(x-1)*(x-2) to y*x - u*(u-1)*(u-2)
    s = make_surface(2, 2)
    names = {"x": "u", "u": "x"}
    images = [RatFunc.var(s.table, names.get(n, n)) for n in s.table.names]
    half_swap = RingMap(s.table, s.table, images, conjugates_coefficients=True)
    with pytest.raises(NotAntiInvolution, match="ideal"):
        RealStructure(s, half_swap)


def test_real_structure_must_map_its_own_table():
    s = make_surface(2, 2)
    with pytest.raises(NotAntiInvolution, match="codomain ring"):
        RealStructure(s, RingMap.conjugation(make_surface("symbolic").table))


def test_standard_conjugation_on_rational_surface():
    s = make_surface(2, 3)
    rho = standard_conjugation(s)
    assert compose(rho.map, rho.map).is_identity()


# -- the normalizing coordinate change ------------------------------------------


def test_coordinate_change_report():
    report = verify_coordinate_change()
    assert report.passed
    for claim in (
        "change-invertible",
        "conjugation-becomes-coordinatewise",
        "displayed-equations-real",
        "ideal-equality-symbolic",
        "ideal-equality-at-2",
        "equivalence-to-standard-conjugation",
    ):
        assert claim_status(report, claim) == "pass"


SAMPLE_POINTS = (
    {"x": 2, "y": 0, "u": 1, "v": 0},
    {"x": 3, "y": 6, "u": 1, "v": 0},
    {"x": 1, "y": 0, "u": I, "v": GaussianRational(3, 1)},
)


def test_displayed_equations_vanish_on_transformed_points():
    """Push sample points of the alpha=2 diagonal surface through the linear
    change and evaluate the three displayed real equations there."""
    s = make_surface("symbolic")
    fwd, inv, new = coordinate_change_maps(s)
    h_polys = [h.specialize({"a": 2}) for h in displayed_real_equations(new, s.alpha)]
    for point in SAMPLE_POINTS:
        values = dict(point)
        values["a"] = 2
        for g in s.generators:
            assert g.evaluate(values).is_zero()
        transformed = {}
        for name in new.names:
            image = fwd.image_of(name)
            transformed[name] = image.num.evaluate(values) / image.den.evaluate(values)
        for h in h_polys:
            assert h.evaluate(transformed).is_zero()


# -- charts ---------------------------------------------------------------------


def test_modified_plane_chart():
    assert verify_modified_plane_chart("symbolic", "b").passed
    for a, b in RATIONAL_PAIRS:
        assert verify_modified_plane_chart(a, b).passed


def test_xy_projection_chart():
    assert verify_xy_projection_chart("symbolic", "b").passed
    for a, b in RATIONAL_PAIRS:
        assert verify_xy_projection_chart(a, b).passed


def test_y0_cubic_roots_are_evaluated(monkeypatch, cold_templates):
    generators = surfaces.surface_generators

    def off_by_x_squared(table, alpha, beta):
        g1, g2, g3 = generators(table, alpha, beta)
        return g1 + Poly.var(table, "x") ** 2, g2, g3

    # templates are kept per build function, so the patched one makes and
    # reads a template of its own; the chart's composites, built from it,
    # must not outlive the test
    monkeypatch.setattr(surfaces, "surface_generators", off_by_x_squared)
    wrong = off_by_x_squared(VarTable(surfaces.COORDS), Fraction(2), Fraction(3))
    assert make_surface(2, 3).generators[0] == wrong[0]
    assert claim_status(verify_xy_projection_chart(2, 3), "y0-cubic-roots") == "fail"


def test_plane_automorphism():
    report = verify_plane_automorphism("symbolic", "b")
    assert report.passed
    for a, b in RATIONAL_PAIRS:
        assert verify_plane_automorphism(a, b).passed
    diagonal = verify_plane_automorphism(2, 2)
    assert claim_status(diagonal, "identity-when-beta-equals-alpha") == "pass"


def test_plane_automorphism_honours_the_diagonal_rule():
    # equal raw specs mean one parameter, as for the chart half of prop-4.1
    report = verify_plane_automorphism("symbolic", "symbolic")
    assert report.passed
    assert claim_status(report, "identity-when-beta-equals-alpha") == "pass"
    witness = {item.claim_id: item.witness for item in report.items}
    assert witness["tangent-(1,1)-fixed"] == "scalar (-a + 1)/(-a + 1)"


def test_isomorphism_chain():
    chain = isomorphism_chain_report(2, 3, 4, 5)
    assert chain.passed
    assert [item.claim_id for item in chain.items] == [
        f"link-{k}" for k in range(1, 7)
    ]
    assert isomorphism_chain_report("symbolic", "symbolic", "symbolic", "symbolic").passed


def test_a_diagonal_chain_keeps_its_link_kinds():
    # every node is surface(a,a), yet link 4 is still the swap
    chain = isomorphism_chain_report("symbolic", "symbolic", "symbolic", "symbolic")
    witness = {item.claim_id: item.witness for item in chain.items}
    assert witness["link-1"]["from"] == "modified_plane(a,a)"
    assert witness["link-4"]["via"] == "coordinate-pair swap"


def test_explicit_names_give_a_two_parameter_chain():
    chain = isomorphism_chain_report("a", "b", "c", "d")
    assert chain.passed
    assert chain.items[0].witness["from"] == "modified_plane(a,b)"
    assert chain.items[-1].witness["to"] == "modified_plane(c,d)"


def test_chain_target_is_shifted_off_the_excluded_values():
    # alpha + 2 and beta + 2 land on 0 and 1, so both shift on to 2
    report = run_check("prop-4.2", alpha=-2, beta=-1)
    assert report.passed
    last = report.items[-1]
    assert last.claim_id == "link-6"
    assert (last.witness["from"], last.witness["to"]) == ("surface(2,2)", "modified_plane(2,2)")


def test_plane_map_witness_prints_the_ratfunc_pair():
    # 1 - alpha = -4/3 and 1 - beta = -1/4: the Q(i) scalar c2 is 3/16, but
    # the witness prints the pair the RatFunc quotient keeps, signs and all
    report = verify_plane_automorphism(Fraction(7, 3), Fraction(5, 4))
    assert report.passed
    witness = {item.claim_id: item.witness for item in report.items}
    assert witness["tangent-(1,1)-fixed"] == "scalar (-3)/(-16)"
    assert witness["tangent-(beta,1)-to-(alpha,1)"] == "scalar (-3)/(-16)"


# -- symbolic templates -------------------------------------------------------------


def _template_values() -> list[tuple[Fraction, Fraction]]:
    """Seeded admissible pairs: small and large numerators and denominators,
    negative values, and equal pairs."""
    rng = random.Random(4040)
    values = [Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 8), Fraction(1000, 999),
              Fraction(-7), Fraction(7, 3)]
    while len(values) < 36:
        bound = rng.choice((9, 10 ** 6, 10 ** 12))
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if value not in (0, 1) and value not in values:
            values.append(value)
    pairs = [(v, values[(k * 7 + 3) % len(values)]) for k, v in enumerate(values)]
    return pairs + [(v, v) for v in values[::4]]


TEMPLATE_PAIRS = _template_values()


def _terms(obj):
    """A Poly's terms, or a RatFunc's (numerator, denominator) terms, each
    as its list of items, so that dict order counts."""
    if isinstance(obj, RatFunc):
        return list(obj.num.terms.items()), list(obj.den.terms.items())
    return list(obj.terms.items())


def _read_equals_direct(build, table, *cooked):
    read = surfaces.at_parameters(build, table, *cooked)
    direct = build(table, *cooked)
    assert type(read) is type(direct)
    if isinstance(direct, dict):
        assert list(read) == list(direct)
        read, direct = read.values(), direct.values()
    assert [_terms(f) for f in read] == [_terms(f) for f in direct], (build.__name__, cooked)


# names and mixed pairs: a name is kept in the template of its shape, and
# (b, a), (c, a) and (d, c) move the kept exponents onto the table's order
NAMED_PAIRS = [("a", "b"), ("b", "a"), ("c", "a"), ("a", "a"), ("d", "c"), ("c", Fraction(3)),
               (Fraction(3), "c")]
FIBER_BASE = ("x", "y", "T2", "T3")


def test_template_reads_equal_the_direct_constructions():
    assert len({v for pair in TEMPLATE_PAIRS for v in pair}) >= 30
    assert any(a == b for a, b in TEMPLATE_PAIRS)
    for a, b in TEMPLATE_PAIRS + NAMED_PAIRS:
        # the composites against the maps built and substituted at the
        # parameters, and the fibers against the generators specialized there
        surface, _, _ = param_ring(surfaces.COORDS, a, b)
        for build in (surfaces.surface_generators, surfaces._uv_chart_images,
                      surfaces._xy_chart_images, surfaces._uv_chart_links,
                      surfaces._xy_chart_links):
            _read_equals_direct(build, surface, a, b)
        surface, _, _ = param_ring(surfaces.COORDS, a)
        fiber, _, _ = param_ring(FIBER_BASE, a)
        for build, table in ((modification._fiber_to_surface_images, surface),
                             (modification._surface_to_fiber_images, fiber),
                             (modification._fiber_composites, fiber),
                             (modification._surface_composites, surface),
                             (modification._chart_samples, surface)):
            _read_equals_direct(build, table, a)
    # the fiber relations are built over a name only; a value reads them
    for name in sorted({a for pair in NAMED_PAIRS for a in pair if isinstance(a, str)}):
        _read_equals_direct(modification._fiber_relations, param_ring(FIBER_BASE, name)[0], name)


def _record(monkeypatch, calls: list) -> None:
    """Record each kernel substitution (RingMap._subst) and each relabelling
    (RingMap._relabelled) but those over the affine line, and each
    specialization to scalars and each compile, in calls."""
    line = VarTable(("x",))

    def recording(name, method):
        def record(m, value):
            if m.source != line:
                calls.append(name)
            return method(m, value)
        return record

    for name in ("_subst", "_relabelled"):
        monkeypatch.setattr(RingMap, name, recording(name, getattr(RingMap, name)))
    for name in ("_specialize_all", "compile_reads"):
        f = getattr(ring, name)
        for module in (ring, surfaces, modification):
            if getattr(module, name, None) is f:
                monkeypatch.setattr(module, name,
                                    lambda *args, f=f, name=name: calls.append(name) or f(*args))


WARM_CHECKS = ("def-3.1", "rem-3.2", "lem-3.5", "prop-4.1", "prop-4.2", "sec-2-cocycle",
               "def-3.4-fiber")
# the checks that apply the swap (prop-4.2's link 4), the pair-swap conjugation or its twist
SWAP_FAMILY = ("def-3.1", "rem-3.2", "prop-4.2", "sec-2-cocycle")


WARM_PAIRS = [(Fraction(-7, 3), Fraction(5, 2)), (Fraction(-1), Fraction(-1)),
              (Fraction(1000, 999), Fraction(1000, 999)), ("symbolic", "symbolic"), ("c", "a"),
              ("symbolic", 3), ("d", "d"), ("b", "c"), ("e", Fraction(-7, 3))]


def test_a_warm_request_substitutes_specializes_and_compiles_nothing(monkeypatch):
    # after one request of each kind and shape, every composite of a
    # substituting map that a claim reads comes from a template, read at the
    # values with the names kept, and the swaps relabel; only
    # sec-2-cocycle's examples on the line, with no surface or parameter,
    # substitute.  A name reads the template of its shape, so other names
    # of the same shapes, (d, d), (b, c) and (e, -7/3), compile nothing.
    for check in WARM_CHECKS:
        for alpha, beta in ((2, 3), ("symbolic", "symbolic"), ("c", "a"), ("symbolic", 3)):
            assert run_check(check, alpha=alpha, beta=beta).passed
    calls = []
    _record(monkeypatch, calls)
    relabellings = {}
    for check in WARM_CHECKS:
        start = len(calls)
        for alpha, beta in WARM_PAIRS:
            assert run_check(check, alpha=alpha, beta=beta).passed, (check, alpha, beta)
        relabellings[check] = calls[start:].count("_relabelled")
    assert [c for c in calls if c != "_relabelled"] == []
    assert all(relabellings[check] for check in SWAP_FAMILY), relabellings


def test_the_line_examples_still_substitute(monkeypatch):
    # the one table the warm test above leaves out goes through the kernel
    line_calls = []
    subst = RingMap._subst
    monkeypatch.setattr(RingMap, "_subst", lambda m, parts: line_calls.append(m.source)
                        or subst(m, parts))
    assert run_check("sec-2-cocycle", alpha=Fraction(7, 3)).passed
    assert line_calls and set(line_calls) == {VarTable(("x",))}


@pytest.mark.parametrize("alpha, beta", [(Fraction(7, 3), Fraction(7, 3)), ("symbolic", "b")])
def test_a_swap_that_sends_y_to_u_fails_the_swap_generators(monkeypatch, alpha, beta):
    """With y and u both sent to u the swap is no relabelling, so it takes
    the substitution kernel, at a value as at a name."""
    swap = surfaces.swap_map

    def y_to_u(source, target, conjugate):
        m = swap(source, target, conjugate)
        images = dict(zip(m.source.names, m.images)) | {"y": RatFunc.var(target.table, "u")}
        return RingMap(source.table, target.table, list(images.values()), conjugate)

    monkeypatch.setattr(surfaces, "swap_map", y_to_u)
    report = verify_swap_isomorphism(alpha, beta)
    # g2 of W(beta, alpha) has no y, so its pullback is still g1 of W(alpha, beta)
    assert [claim_status(report, f"swap-generator-{n}") for n in (1, 2, 3)] == [
        "fail", "pass", "fail"]
    assert claim_status(report, "swap-involution") == "fail"


def _collapsing_twist(swap):
    """swap_map, but the plain swap sends every point to (1, 0, 1, 0) of
    W(a, a): its pullback still sends the ideal into itself, but (tau.rho)^2
    is no identity."""
    def patched(source, target, conjugate):
        if conjugate:
            return swap(source, target, conjugate)
        point = {"x": 1, "y": 0, "u": 1, "v": 0}
        return RingMap.from_images(source.table, target.table, {
            n: RatFunc(Poly.const(target.table, c)) for n, c in point.items()})
    return patched


def _flag_off(swap):
    """swap_map, with the conjugation flag of the pair-swap conjugation off."""
    return lambda source, target, conjugate: swap(source, target, False)


def _wrong_conjugation_image(swap):
    """swap_map, but the pair-swap conjugation sends v to y + 1."""
    def patched(source, target, conjugate):
        m = swap(source, target, conjugate)
        if not conjugate:
            return m
        return RingMap.from_images(source.table, target.table, {
            n: im + 1 if n == "v" else im for n, im in zip(m.source.names, m.images)})
    return patched


@pytest.mark.parametrize("alpha", [Fraction(7, 3), "symbolic"])
@pytest.mark.parametrize("patch, failed", [
    (_flag_off, "swap-conjugation-exists"),
    (_wrong_conjugation_image, "swap-conjugation-exists"),
    (_collapsing_twist, "pair-swap-twist-is-cocycle"),
])
def test_a_wrong_pair_swap_fails_its_claims(monkeypatch, alpha, patch, failed):
    """The pair-swap conjugation and its twist are applied directly at a
    value as at a name; a flag off (still a relabelling), a wrong image or a
    twist onto one point fails def-3.1's conjugation or sec-2-cocycle's
    twist."""
    monkeypatch.setattr(surfaces, "swap_map", patch(surfaces.swap_map))
    if failed == "swap-conjugation-exists":
        report = run_check("def-3.1", alpha=alpha, beta=alpha)
        assert claim_status(report, "conjugation-swap-conjugation-exists") == "fail"
        assert run_check("sec-2-cocycle", alpha=alpha).status == "error"
    else:
        assert sigma_report(alpha).passed
        report = run_check("sec-2-cocycle", alpha=alpha)
        assert claim_status(report, failed) == "fail"
        assert claim_status(report, "coordinate-doubling-is-not-a-cocycle") == "pass"


def _swap_of_x_and_u(source, target, conjugate):
    """swap_map, but only x and u are exchanged: still a relabelling."""
    t = target.table
    return RingMap(source.table, t, [RatFunc.var(t, {"x": "u", "u": "x"}.get(n, n))
                                     for n in source.table.names], conjugate)


@pytest.mark.parametrize("alpha", [Fraction(7, 3), "symbolic"])
def test_a_swap_of_x_and_u_alone_relabels_and_fails_the_swap_claims(monkeypatch, alpha):
    monkeypatch.setattr(surfaces, "swap_map", _swap_of_x_and_u)
    s = make_surface(alpha)
    m = surfaces.swap_map(s, s, False)
    assert ring._relabelling(m.images, m.target) is not None
    report = run_check("rem-3.2", alpha=alpha, beta=alpha)
    # g3 is symmetric in x and u on the diagonal surface, and x <-> u is an involution
    assert [claim_status(report, f"swap-generator-{n}") for n in (1, 2, 3)] == [
        "fail", "fail", "pass"]
    assert claim_status(report, "swap-involution") == "pass"
    report = run_check("def-3.1", alpha=alpha, beta=alpha)
    assert claim_status(report, "conjugation-swap-conjugation-exists") == "fail"


@pytest.mark.parametrize("alpha, beta", [(Fraction(7, 3), Fraction(5, 4)), ("symbolic", "b")])
def test_a_wrong_xy_chart_image_fails_its_generators_at_a_value(monkeypatch, cold_templates,
                                                                alpha, beta):
    """A v image off by 1 leaves g1 vanishing under the xy chart, but not g2 or
    g3, read through the template of the composites at a value as at a
    name.  Templates are kept per build function, so a patched definition
    reaches no composite compiled earlier in the process: the fixture clears
    them before the test and after it, so no later test reads a broken one."""
    images = surfaces._xy_chart_images
    monkeypatch.setattr(surfaces, "_xy_chart_images", lambda tbl, alpha, beta: (
        images(tbl, alpha, beta) | {"v": images(tbl, alpha, beta)["v"] + 1}))
    report = verify_xy_projection_chart(alpha, beta)
    assert [claim_status(report, f"chart-generator-{k}-vanishes") for k in (1, 2, 3)] == [
        "pass", "fail", "fail"]


def test_a_numerator_that_vanishes_at_a_value_reads_as_zero_over_one():
    def build(table, alpha, beta):
        x, u = RatFunc.var(table, "x"), RatFunc.var(table, "u")
        a = RatFunc(surfaces._param_poly(table, alpha))
        return {"y": (a - 2) * x / (u + 1), "v": (a - 2) * x * x / (x * u) + x}

    table = VarTable(surfaces.COORDS)
    for value in (Fraction(2), Fraction(5), Fraction(-1, 3)):
        _read_equals_direct(build, table, value, Fraction(3))
    read = surfaces.at_parameters(build, table, Fraction(2), Fraction(3))
    assert read["y"].is_zero() and read["y"].den == Poly.const(table, 1)
    assert str(read["v"]) == "x"  # the common monomial u of x*u/u is divided out


def test_a_name_reads_the_template_of_its_shape():
    calls = []

    def build(table, alpha, beta):
        calls.append((alpha, beta))
        return surfaces.surface_generators(table, alpha, beta)

    # a name is kept and a value read: (a, 3) and (c, 5) read the template
    # built once at (a, b), and (c, c) and (d, d) the one built at (a, a)
    for cooked in (("a", Fraction(3)), ("a", Fraction(3)), ("c", Fraction(5)), ("c", "c"),
                   ("d", "d")):
        table, _, _ = param_ring(surfaces.COORDS, *cooked)
        assert surfaces.at_parameters(build, table, *cooked) == surfaces.surface_generators(
            table, *cooked)
    assert calls == [("a", "b"), ("a", "a")]
    # rational values build the template once, over the names a and b
    for value in (2, 5, 7):
        surfaces.at_parameters(build, VarTable(surfaces.COORDS), Fraction(value), Fraction(3))
    assert calls[2:] == [("a", "b")]


@pytest.mark.parametrize("denominator", ["x - a", "a", "b*y", "x + b - 3"])
def test_a_template_denominator_may_not_involve_a_parameter(denominator):
    def build(table, alpha, beta):
        x = RatFunc.var(table, "x")
        return {"y": x / RatFunc(parse_poly(denominator, table))}

    table = VarTable(surfaces.COORDS)
    with pytest.raises(ValueError, match="involves a parameter"):
        surfaces.at_parameters(build, table, Fraction(2), Fraction(3))
    # a name reads the template of its shape, so it is refused as well
    for cooked in (("a", "b"), ("c", Fraction(3)), (Fraction(2), "c")):
        symbolic, _, _ = param_ring(surfaces.COORDS, *cooked)
        with pytest.raises(ValueError, match="involves a parameter"):
            surfaces.at_parameters(build, symbolic, *cooked)


def test_no_template_is_built_at_import():
    code = ("import realforms.checks, realforms.cli, realforms.surfaces as s; "
            "assert s._template.cache_info().currsize == 0")
    env = dict(os.environ, PYTHONPATH=str(Path(surfaces.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# -- cocycle and equivalence predicates -------------------------------------------


def test_cocycle_examples():
    report = cocycle_examples_report(2)
    assert report.passed
    assert claim_status(report, "pair-swap-twist-is-cocycle") == "pass"
    assert claim_status(report, "coordinate-doubling-is-not-a-cocycle") == "pass"
    assert claim_status(
        report, "imaginary-translation-does-not-intertwine-conjugations"
    ) == "pass"


def test_identity_twist_is_a_cocycle():
    s = make_surface(2, 2)
    rho = swap_real_structure(s)
    identity = RingMap.identity(s.table)
    assert is_cocycle(s, identity, rho)


def test_equivalence_of_structures_examples():
    s = make_surface(2, 2)
    rho = swap_real_structure(s)
    identity = RingMap.identity(s.table)
    assert are_equivalent_structures(s, s, rho, rho, identity)

    line = VarTable(("x",))
    whole_line = free_presentation(line)
    conj = standard_conjugation(whole_line)
    x = RatFunc.var(line, "x")
    translation = RingMap(line, line, [x + I])
    assert not are_equivalent_structures(whole_line, whole_line, conj, conj, translation)
    real_translation = RingMap(line, line, [x + 1])
    assert are_equivalent_structures(whole_line, whole_line, conj, conj, real_translation)
    with pytest.raises(NotIsomorphism):
        are_equivalent_structures(whole_line, whole_line, conj, conj, conj.map)


def test_cocycle_twist_over_another_table_is_not_an_automorphism():
    s = make_surface(2, 2)
    rho = swap_real_structure(s)
    with pytest.raises(NotAutomorphism, match="codomain ring"):
        is_cocycle(s, RingMap.identity(make_surface("symbolic").table), rho)


# -- plain membership ----------------------------------------------------------------


def _saturated_by(pres, unit: Poly) -> bool:
    """Is the presentation ideal I equal to its saturation by the unit, the
    elimination of t from I + (1 - t*unit) (Rabinowitsch)?  Then p*unit^k in
    I implies p in I, so inverting the unit changes no membership."""
    big = VarTable(("t",) + pres.table.names)
    lift = RingMap.from_images(pres.table, big, {})
    gens = [lift(g).num for g in pres.generators]
    t = Poly.var(big, "t")
    saturation = Ideal(gens + [1 - t * lift(unit).num], big).eliminate(("t",))
    return saturation.equal(Ideal(gens, big))


def _param_units(pres) -> Poly:
    """The product of p*(1 - p) over the symbolic parameters."""
    product = Poly.const(pres.table, 1)
    for name in sorted({pres.alpha, pres.beta}, key=str):
        if isinstance(name, str):
            product = product * pres.var(name) * (1 - pres.var(name))
    return product


@pytest.mark.parametrize("alpha, beta", [
    ("symbolic", None), ("symbolic", "symbolic"), (2, None), (Fraction(-7, 3), None),
])
def test_surface_ideal_is_saturated_by_its_units(alpha, beta):
    s = make_surface(alpha, beta)
    assert _saturated_by(s, s.var("x") * s.var("u") * _param_units(s))


@pytest.mark.parametrize("alpha", ["symbolic", 2])
def test_fiber_ideal_is_saturated_by_its_units(alpha):
    fiber = fiber_presentation(alpha)
    x, y = fiber.var("x"), fiber.var("y")
    assert _saturated_by(fiber, (x * x + y * y) * _param_units(fiber))


def test_saturation_control_ideal_not_saturated():
    # (x*y) : x^oo = (y), so y passes once x is inverted but is no member
    plane = free_presentation(VarTable(("x", "y")))
    x, y = plane.var("x"), plane.var("y")
    xy = SurfacePresentation(plane.table, Ideal([x * y], plane.table), plane.alpha, plane.beta)
    assert not _saturated_by(xy, x)


def test_membership_after_a_unit_is_refused():
    # x lies in (x*a^2) only once the unit a is inverted: now refused
    table, (a,), units = param_ring(("x",), "a")
    assert a in units
    x = Poly.var(table, "x")
    ideal = Ideal([x * a ** 2], table)
    identity = RingMap.identity(table)
    kill_x = RingMap.from_images(table, table, {"x": RatFunc(Poly.zero(table))})
    assert not agree_modulo(identity, kill_x, ideal)
    kill_member = RingMap.from_images(table, table, {"x": RatFunc(x - x * a ** 2)})
    assert agree_modulo(identity, kill_member, ideal)

    line = free_presentation(table)
    domain = SurfacePresentation(line.table, ideal, line.alpha, line.beta)
    codomain = SurfacePresentation(line.table, Ideal([x], table), line.alpha, line.beta)
    with pytest.raises(NotAutomorphism, match="ideal into the ideal"):
        _check_pullback(identity, codomain, domain, False, NotAutomorphism)
    _check_pullback(identity, domain, codomain, False, NotAutomorphism)


# -- point configurations ----------------------------------------------------------


def test_modified_plane_config_centers():
    config = modified_plane_config(2, 3)
    assert len(config.centers) == 5
    labels = [c.label() for c in config.centers]
    assert labels[0] == "(0,0)"
    assert len(config.removed) == 3
    with pytest.raises(ForbiddenParameter):
        modified_plane_config(0)


def test_config_requires_certifiably_distinct_centers():
    from realforms.errors import IdenticalPoints

    # two independent generic parameters: (a, ai) = (b, -bi) cannot be
    # excluded by the unit constraints alone, so the configuration refuses
    with pytest.raises(IdenticalPoints):
        modified_plane_config("a", "b")
    # the diagonal configuration is certifiably fine, symbolic or not
    assert modified_plane_config("symbolic", "symbolic")
    assert modified_plane_config(2, 2)


def test_config_proves_the_builders_centers_distinct():
    from realforms.errors import IdenticalPoints
    from realforms.surfaces import PointConfiguration

    for value in (2, "symbolic"):
        config = modified_plane_config(value, value)
        collided = config.centers[:4] + (config.centers[2],)
        with pytest.raises(IdenticalPoints, match="centers 2 and 4"):
            PointConfiguration(config.table, collided, config.removed, config.units)


def claim_witness(report, claim_id: str):
    return next(item.witness for item in report.items if item.claim_id == claim_id)


def test_real_locus_fixed_points():
    report = real_locus_report(2)
    assert report.passed
    fixed = claim_witness(report, "conclusion")
    assert fixed["fixed_centers"] == ["(0,0)"]
    assert len(fixed["swapped_center_pairs"]) == 2
    assert claim_witness(report, "conjugation-stable") == {
        "permutation": [0, 3, 4, 1, 2], "fixed": [0], "two_cycles": [[1, 3], [2, 4]]}
    sym_report = real_locus_report("symbolic")
    assert sym_report.passed
    sym_fixed = claim_witness(sym_report, "conclusion")
    assert sym_fixed["fixed_centers"] == ["(0,0)"]
    assert sym_fixed["alpha"] == "a"
    assert claim_witness(real_locus_report(Fraction(-7, 3)), "conclusion")["alpha"] == "-7/3"


@pytest.mark.parametrize("permutation, failing", [
    ((0, 3, 4, 3, 2), "conjugation-stable"),  # not a permutation
    ((0, 2, 3, 1, 4), "conjugation-stable"),  # a 3-cycle, not an involution
    ((0, 1, 4, 3, 2), "conclusion"),  # real points at centers 1 and 3
])
def test_real_locus_report_checks_the_lifted_action(monkeypatch, permutation, failing):
    monkeypatch.setattr(surfaces, "lift_real_structure", lambda config: permutation)
    report = surfaces.real_locus_report(2)
    assert claim_status(report, failing) == "fail"


def test_lift_real_structure_permutation():
    config = modified_plane_config(2, 2)
    assert lift_real_structure(config) == (0, 3, 4, 1, 2)


def test_lift_real_structure_rejects_unstable_configuration():
    from realforms.surfaces import Center, PointConfiguration

    table = VarTable(("x", "y", "z"))
    zero = Poly.zero(table)
    one = Poly.const(table, 1)
    centers = (
        Center(zero, zero),
        Center(one, Poly.const(table, I)),  # conjugate (1,-i) missing
    )
    config = PointConfiguration(table, centers, (), ())
    with pytest.raises(NotConjugationStable):
        lift_real_structure(config)
