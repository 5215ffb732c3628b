"""Acceptance gate: the headline exact properties, each under a wall-clock budget.

Each test covers one release criterion, does all of its work inside the
``criterion`` context manager, and emits exactly one PASS/FAIL line with the
measured time (shown with ``pytest tests/test_acceptance.py -v -s``).  All
checks are exact: there are no numeric tolerances anywhere, only equalities
in exact rational/Gaussian-rational arithmetic — the budgets below bound
wall-clock time, not accuracy.
"""
from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from realforms.classification import (
    _classify,
    classify,
    equivalence_criterion,
    incidence_graph,
)
from realforms.gaussian import GaussianRational, I
from realforms.groebner import LEX, buchberger, normal_form
from realforms.intersection import enumerate_negative_classes
from realforms.modification import (
    match_fiber_to_surface,
    rees_presentation,
    smoothness_report,
    standard_modification,
)
from realforms.ring import Poly, VarTable, parse_poly
from realforms.surfaces import (
    isomorphism_chain_report,
    make_surface,
    modified_plane_config,
    sigma_report,
    verify_coordinate_change,
    verify_modified_plane_chart,
    verify_plane_automorphism,
    verify_swap_isomorphism,
    verify_xy_projection_chart,
)


@contextmanager
def criterion(name: str, budget_s: float):
    """Time a criterion body and print exactly one PASS/FAIL line for it."""
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"FAIL  {name}: {elapsed:.2f}s (budget {budget_s:.0f}s)")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget_s
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {elapsed:.2f}s (budget {budget_s:.0f}s)")
    assert ok, f"{name} exceeded its {budget_s:.0f}s wall-clock budget"


# -- 1. defining suite of the surface and its two conjugations ---------------------

SURFACE_PAIRS = (
    (Fraction(2), Fraction(3)),
    (Fraction(2), Fraction(1, 2)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(5, 2), Fraction(2, 5)),
    (Fraction(-3), Fraction(7)),
    (Fraction(1, 3), Fraction(1, 3)),
)


def test_surface_suite_symbolic_and_rational():
    with criterion("surface-and-conjugations", 5):
        assert len(make_surface("symbolic", "b").generators) == 3
        assert verify_swap_isomorphism("symbolic", "b").passed
        assert sigma_report("symbolic").passed
        for a, b in SURFACE_PAIRS:
            assert len(make_surface(a, b).generators) == 3
            assert verify_swap_isomorphism(a, b).passed
            assert sigma_report(a).passed


# -- 2. coordinate change onto the three real equations ----------------------------


def test_coordinate_change_certifies_symbolically():
    with criterion("coordinate-change", 10):
        report = verify_coordinate_change()
        assert report.passed, [i.claim_id for i in report.failures()]


# -- 3. chart suites, plane automorphism, isomorphism chain ------------------------


def test_chart_suites_automorphism_and_chain():
    with criterion("charts-automorphism-chain", 10):
        assert verify_modified_plane_chart("symbolic", "b").passed
        assert verify_xy_projection_chart("symbolic", "b").passed
        assert verify_plane_automorphism("symbolic", "b").passed
        chain = isomorphism_chain_report(2, 3, 4, 5)
        assert chain.passed
        assert [item.claim_id for item in chain.items] == [
            f"link-{k}" for k in range(1, 7)
        ]


# -- 4. the complete table of negative curves --------------------------------------

EXPECTED_LABELS = [
    "E(0,0)", "E(1,i)", "E(a,ai)", "E(1,-i)", "E(a,-ai)",
    "L(x+iy)", "L(x-iy)", "L(x-z)",
    "L((a+1)x-(a-1)iy-2az)", "L((a+1)x+(a-1)iy-2az)", "L(x-az)",
]

EXPECTED_CLASSES = [
    (0, (-1, 0, 0, 0, 0)),
    (0, (0, -1, 0, 0, 0)),
    (0, (0, 0, -1, 0, 0)),
    (0, (0, 0, 0, -1, 0)),
    (0, (0, 0, 0, 0, -1)),
    (1, (1, 1, 1, 0, 0)),
    (1, (1, 0, 0, 1, 1)),
    (1, (0, 1, 0, 1, 0)),
    (1, (0, 1, 0, 0, 1)),
    (1, (0, 0, 1, 1, 0)),
    (1, (0, 0, 1, 0, 1)),
]


def _coefficient_of_x(p: Poly) -> Poly:
    """The coefficient of x (with y and z absent) as a polynomial in the rest."""
    pos = {p.table.index(n): want for n, want in (("x", 1), ("y", 0), ("z", 0))}
    terms = {}
    for exps, coeff in p.terms.items():
        if all(exps[i] == want for i, want in pos.items()):
            terms[tuple(0 if i in pos else e for i, e in enumerate(exps))] = coeff
    return Poly(p.table, terms)


def _assert_proportional(form: Poly, expected: Poly):
    """Equality of linear forms up to a nonzero scalar in the parameter field,
    certified by cross-multiplication with the extracted x-coefficients."""
    fx, gx = _coefficient_of_x(form), _coefficient_of_x(expected)
    assert not fx.is_zero() and not gx.is_zero()
    assert form * gx == expected * fx


def test_negative_curve_table_and_degree_sweep():
    with criterion("negative-curve-table", 10):
        result = enumerate_negative_classes("symbolic")
        assert [r.label for r in result.records] == EXPECTED_LABELS
        got = [(r.cls.degree, r.cls.mults) for r in result.records]
        assert got == EXPECTED_CLASSES

        tbl = result.config.table
        x, y, z = (Poly.var(tbl, n) for n in ("x", "y", "z"))
        a = Poly.var(tbl, "a")
        expected_forms = {
            "L(x+iy)": x + y * I,
            "L(x-iy)": x - y * I,
            "L(x-z)": x - z,
            "L((a+1)x-(a-1)iy-2az)": (a + 1) * x - (a - 1) * y * I - 2 * a * z,
            "L((a+1)x+(a-1)iy-2az)": (a + 1) * x + (a - 1) * y * I - 2 * a * z,
            "L(x-az)": x - a * z,
        }
        seen = 0
        for r in result.records:
            if r.form is None:
                continue
            _assert_proportional(r.form, expected_forms[r.label])
            seen += 1
        assert seen == len(expected_forms)

        for d_max in range(1, 7):
            sweep = enumerate_negative_classes("symbolic", d_max=d_max)
            assert [r.label for r in sweep.records] == EXPECTED_LABELS
            assert not sweep.undetermined


# -- 5. the 100-pair grid against the closed-form criterion ------------------------

GRID_VALUES = (
    Fraction(-3), Fraction(-2), Fraction(-1, 2), Fraction(-1, 3),
    Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(2),
    Fraction(5, 2), Fraction(3),
)


def _points(value):
    """The blow-up centers at a rational value, from the configuration."""
    return {(c.x.evaluate({}), c.y.evaluate({}))
            for c in modified_plane_config(value, value).centers}


def _assert_witness_verifies(witness, alpha, beta):
    (p, q), (r, s) = witness.matrix
    assert p * s - q * r != 0
    assert p * q + r * s == 0
    scalar = p * p + r * r
    assert scalar == q * q + s * s == witness.scalar
    assert scalar != 0
    mapped = {(x * p + y * q, x * r + y * s) for x, y in _points(alpha)}
    assert mapped == _points(beta)


def test_grid_verdicts_match_closed_form_criterion():
    with criterion("grid-versus-criterion", 60):
        graphs = {v: incidence_graph(v) for v in GRID_VALUES}
        checked = 0
        for a in GRID_VALUES:
            for b in GRID_VALUES:
                result = _classify(a, b, graphs[a], graphs[b])
                expected = a == b or a * b == 1
                assert result.equivalent == expected == equivalence_criterion(a, b)
                if result.equivalent:
                    assert result.witness is not None
                    _assert_witness_verifies(result.witness, a, b)
                checked += 1
        assert checked == 100

        half = Fraction(1, 2)
        special = classify(Fraction(2), half)
        assert special.witness.matrix == ((half, Fraction(0)), (Fraction(0), half))


# -- 6. presentation of the modification and its fiber matches ---------------------


def test_modification_presentation_and_fiber_match():
    with criterion("modification-presentation", 60):
        rees = rees_presentation(standard_modification("symbolic"))
        t1, t2, t3 = (Poly.var(rees.table, n) for n in rees.scale_vars)
        x, y = Poly.var(rees.table, "x"), Poly.var(rees.table, "y")
        assert rees.ideal.member(t1 - 1)
        assert rees.ideal.member(y * t2 - x * t3)
        for alpha in (2, 3, -1):
            report = match_fiber_to_surface(alpha)
            assert report.passed, [i.claim_id for i in report.failures()]


# -- 7. kernel oracle basis and randomized reduction properties --------------------


def _rand_poly(rng: random.Random, table: VarTable, terms: int = 3) -> Poly:
    out = Poly.zero(table)
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, 2) for _ in table.names)
        coeff = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2)),
        )
        out = out + Poly(table, {exps: coeff})
    return out


def _s_polynomial(f: Poly, g: Poly, key) -> Poly:
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Poly(f.table, {tuple(l - a for l, a in zip(lcm, lf)): f.terms[lf].inverse()})
    mg = Poly(g.table, {tuple(l - a for l, a in zip(lcm, lg)): g.terms[lg].inverse()})
    return mf * f - mg * g


def test_kernel_basis_oracle_and_random_properties():
    with criterion("kernel-oracle", 10):
        table = VarTable(("x", "y"))
        basis = buchberger(
            [parse_poly("x^2 - y", table), parse_poly("x*y - 1", table)]
        )
        expected = [parse_poly("x - y^2", table), parse_poly("y^3 - 1", table)]
        assert len(basis) == len(expected)
        assert all(any(g == e for g in basis) for e in expected)

        rng = random.Random(987654321)
        key = LEX.key_fn(table)
        rounds = 0
        while rounds < 100:
            gens = [_rand_poly(rng, table) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            computed = buchberger(gens)
            for i in range(len(computed)):
                for j in range(i + 1, len(computed)):
                    s = _s_polynomial(computed[i], computed[j], key)
                    assert normal_form(s, computed).is_zero()
            probe = _rand_poly(rng, table)
            reduced = normal_form(probe, computed)
            assert normal_form(reduced, computed) == reduced
            rounds += 1
        assert rounds == 100


# -- 8. Jacobian-rank spot checks ---------------------------------------------------


def test_jacobian_rank_spot_checks():
    with criterion("smoothness-spot-checks", 5):
        for alpha in (2, 3, -1, Fraction(1, 2)):
            report = smoothness_report(alpha)
            assert report.passed, [i.claim_id for i in report.failures()]
            assert len(report.items) == 5
