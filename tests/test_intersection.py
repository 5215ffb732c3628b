"""Divisor lattice, explicit lines, and the negative-curve enumeration."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from realforms import intersection
from realforms.errors import IdenticalPoints
from realforms.gaussian import I
from realforms.intersection import (
    CLASS_AT_INFINITY,
    KIND_BOUNDARY,
    KIND_EXCEPTIONAL,
    KIND_LINE,
    DivisorClass,
    NegativeCurveRecord,
    _realize_line,
    boundary_zigzag_report,
    canonical_form,
    conic_pencil_report,
    enumerate_negative_classes,
    exceptional_class,
    form_at_center,
    intersection_matrix,
    line_class,
    line_through,
    negative_curves_report,
)
from realforms.ring import Poly, VarTable
from realforms.surfaces import Center, PointConfiguration, modified_plane_config

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

# rows/columns ordered as EXPECTED_LABELS plus the line at infinity last
FROZEN_MATRIX = [
    [-1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, 1, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, -1, 0, 0, 1, 1, 0, 1, 0, 0],
    [0, 0, 0, 0, -1, 0, 1, 0, 1, 0, 1, 0],
    [1, 1, 1, 0, 0, -2, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 1, 1, 0, -2, 0, 0, 0, 0, 1],
    [0, 1, 0, 1, 0, 0, 0, -1, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 0, 0, -1, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 0, 0, 1, -1, 0, 1],
    [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, -1, 1],
    [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1],
]


# -- the lattice ------------------------------------------------------------


def test_exceptional_self_intersection():
    for i in range(5):
        assert exceptional_class(i).self_intersection() == -1


def test_line_class_intersections():
    boundary = line_class(0, 1, 2)
    assert boundary.self_intersection() == -2
    assert exceptional_class(0).intersect(boundary) == 1
    assert exceptional_class(3).intersect(boundary) == 0
    assert CLASS_AT_INFINITY.self_intersection() == 1
    assert CLASS_AT_INFINITY.intersect(exceptional_class(2)) == 0
    assert line_class(1, 3).intersect(line_class(2, 4)) == 1


def test_class_validation_and_text():
    with pytest.raises(ValueError):
        DivisorClass(1, (0, 0))
    assert str(line_class(0, 1, 2)) == "(1; 1,1,1,0,0)"


# -- explicit lines -----------------------------------------------------------


def test_line_through_isotropic_points():
    config = modified_plane_config("symbolic", "symbolic")
    tbl = config.table
    x, y, z = (Poly.var(tbl, n) for n in ("x", "y", "z"))
    a = Poly.var(tbl, "a")

    plus = line_through(config.centers[0], config.centers[1])
    assert plus == canonical_form(x + y * I)
    assert form_at_center(plus, config.centers[2]).is_zero()

    cross = line_through(config.centers[3], config.centers[2])
    expected = (a + 1) * x + (a - 1) * y * I - 2 * a * z
    assert cross == canonical_form(expected)

    with pytest.raises(IdenticalPoints):
        line_through(config.centers[1], config.centers[1])


def test_line_through_rational_points():
    config = modified_plane_config(2, 2)
    tbl = config.table
    x, y, z = (Poly.var(tbl, n) for n in ("x", "y", "z"))
    cross = line_through(config.centers[3], config.centers[2])
    assert cross == canonical_form(3 * x + y * I - 4 * z)


# -- enumeration ----------------------------------------------------------------


def test_enumeration_symbolic_eleven_records():
    result = enumerate_negative_classes("symbolic")
    assert [r.label for r in result.records] == EXPECTED_LABELS
    got = [(r.cls.degree, r.cls.mults) for r in result.records]
    assert got == EXPECTED_CLASSES
    kinds = [r.kind for r in result.records]
    assert kinds == [KIND_EXCEPTIONAL] * 5 + [KIND_BOUNDARY] * 2 + [KIND_LINE] * 4
    assert not result.undetermined
    assert result.line_at_infinity.label == "L(z)"


def test_enumeration_surviving_line_patterns():
    result = enumerate_negative_classes("symbolic")
    patterns = {
        r.cls.mults[1:] for r in result.records if r.kind == KIND_LINE
    }
    assert patterns == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 1, 1, 0)}


def test_enumeration_stable_under_degree_sweep():
    base = [r.label for r in enumerate_negative_classes("symbolic", d_max=1).records]
    for d_max in range(1, 7):
        result = enumerate_negative_classes("symbolic", d_max=d_max)
        assert [r.label for r in result.records] == base
        assert not result.undetermined


@pytest.mark.parametrize("d_max", [0, -1])
def test_enumeration_rejects_degree_bound_below_one(d_max):
    with pytest.raises(ValueError):
        enumerate_negative_classes(2, d_max=d_max)


@pytest.mark.parametrize("d_max, scanned", [
    (1, 32), (2, 64), (3, 307), (4, 1331), (5, 4456), (6, 12232),
])
def test_enumeration_scans_every_candidate(d_max, scanned):
    result = enumerate_negative_classes(2, d_max=d_max)
    assert result.candidates_scanned == scanned
    assert not result.unrealized and not result.undetermined


def test_sweep_runs_once_for_all_parameters():
    intersection._combinatorial_survivors.cache_clear()
    first = enumerate_negative_classes(2, d_max=4)
    second = enumerate_negative_classes(Fraction(-1, 3), d_max=4)
    info = intersection._combinatorial_survivors.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.candidates_scanned == second.candidates_scanned == 1331
    # the per-parameter realisation still runs: the line forms differ
    assert [str(r.form) for r in first.records] != [str(r.form) for r in second.records]


def _survivors_by_class_methods(d_max):
    """The sweep as it was written first: every test on a DivisorClass but
    the genus, which is computed here from the class's invariants."""
    iso_plus = line_class(0, 1, 2)
    iso_minus = line_class(0, 3, 4)
    conic_components = (line_class(1, 3), line_class(2, 4))
    conic = DivisorClass(2, (0, 1, 1, 1, 1))
    survivors = []
    scanned = 0
    for d in range(1, d_max + 1):
        cap = 1 if d == 1 else d - 1
        for mults in product(range(cap + 1), repeat=5):
            scanned += 1
            cls = DivisorClass(d, mults)
            if cls.self_intersection() > -1:
                continue
            # twice the arithmetic genus of a plane curve of degree d
            if (d - 1) * (d - 2) - sum(m * (m - 1) for m in mults) < 0:
                continue
            if cls != iso_plus and cls.intersect(iso_plus) < 0:
                continue
            if cls != iso_minus and cls.intersect(iso_minus) < 0:
                continue
            if cls not in conic_components and cls.intersect(conic) < 0:
                continue
            survivors.append(cls)
    return tuple(survivors), scanned


def test_the_sweep_admits_no_class_above_degree_1():
    # negativity and genus give sum(m) >= 3d - 1, and the isotropic lines
    # sum(m) <= 2d, so every degree bound finds the degree-1 survivors
    lines = intersection._combinatorial_survivors(1)[0]
    assert lines and all(cls.degree == 1 for cls in lines)
    for d_max in range(1, 13):
        assert intersection._combinatorial_survivors(d_max)[0] == lines, d_max


@pytest.mark.parametrize("d_max", range(1, 7))
def test_integer_sweep_matches_the_class_method_sweep(d_max):
    assert intersection._combinatorial_survivors(d_max) == \
        _survivors_by_class_methods(d_max)


def test_cached_survivors_are_immutable():
    survivors, scanned = intersection._combinatorial_survivors(3)
    assert isinstance(survivors, tuple)
    assert scanned == 307
    assert {c.degree for c in survivors} == {1}
    with pytest.raises(AttributeError):
        survivors[0].degree = 2


def test_enumeration_realizations_vanish_exactly_as_claimed():
    result = enumerate_negative_classes("symbolic")
    centers = result.config.centers
    for r in result.records:
        if r.form is None:
            continue
        for k, center in enumerate(centers):
            value = form_at_center(r.form, center)
            if k in r.through:
                assert value.is_zero(), (r.label, k)
            else:
                assert not value.is_zero(), (r.label, k)


def test_enumeration_rational_parameters():
    for alpha in (2, Fraction(1, 2), -1, Fraction(5, 2)):
        result = enumerate_negative_classes(alpha)
        assert len(result.records) == 11
        assert not result.undetermined


def test_frozen_intersection_matrix():
    result = enumerate_negative_classes("symbolic")
    matrix = intersection_matrix(result.vertices())
    assert matrix == FROZEN_MATRIX
    n = len(matrix)
    assert all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(n))
    assert [matrix[i][i] for i in range(n)] == [
        -1, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, 1
    ]


def test_matrix_matches_lattice_pairings():
    result = enumerate_negative_classes(2)
    verts = result.vertices()
    matrix = intersection_matrix(verts)
    for i, r in enumerate(verts):
        for j, s in enumerate(verts):
            assert matrix[i][j] == r.cls.intersect(s.cls)


# -- certified reports -------------------------------------------------------------


def test_boundary_zigzag():
    report = boundary_zigzag_report(2)
    assert report.passed
    assert boundary_zigzag_report("symbolic").passed


def test_conic_pencil():
    config = modified_plane_config("symbolic", "symbolic")
    assert conic_pencil_report(config).passed
    assert conic_pencil_report(
        modified_plane_config(3, 3)
    ).passed


def test_negative_curves_report_passes():
    assert negative_curves_report("symbolic").passed
    assert negative_curves_report(Fraction(2, 5)).passed


def test_negative_curves_report_rechecks_center_distinctness(monkeypatch):
    from realforms.surfaces import PointConfiguration

    enumerate_real = intersection.enumerate_negative_classes

    def then_compare_x_only(*args, **kwargs):
        result = enumerate_real(*args, **kwargs)
        # centers 1 and 3 share x = 1, so an x-only test calls them equal
        monkeypatch.setattr(PointConfiguration, "distinct",
                            lambda self, p, q: p.x != q.x)
        return result

    monkeypatch.setattr(intersection, "enumerate_negative_classes", then_compare_x_only)
    report = negative_curves_report(2)
    (status,) = [i.status for i in report.items if i.claim_id == "centers-pairwise-distinct"]
    assert status == "fail"


def test_enumeration_json_shape():
    result = enumerate_negative_classes(2, d_max=2)
    data = result.to_json()
    assert {"records", "line_at_infinity", "candidates_scanned",
            "intersection_matrix", "assumptions", "d_max"} <= set(data)
    assert len(data["records"]) == 11
    assert data["records"][0]["class"] == {
        "degree": 0, "multiplicities": [-1, 0, 0, 0, 0]
    }


# -- the refutation branches of the sweep -----------------------------------

HAND_TABLE = VarTable(("x", "y", "z", "a"))
A = Poly.var(HAND_TABLE, "a")


def hand_config(*centers) -> PointConfiguration:
    """Five affine centers over (x, y, z, a), each coordinate an int or a
    Poly in a, with a and 1 - a as the units."""
    def lift(v):
        return v if isinstance(v, Poly) else Poly.const(HAND_TABLE, v)
    return PointConfiguration(HAND_TABLE, tuple(Center(lift(x), lift(y)) for x, y in centers),
                              (), (A, 1 - A))


def test_realize_line_gives_each_reason():
    config = modified_plane_config("symbolic", "symbolic")
    assert _realize_line(config, DivisorClass(1, (2, 0, 0, 0, 0))) == \
        "a line cannot have a multiple point"
    # (1; -1,1,1,0,0) has no multiple point, and a negative entry is named first
    for cls in (DivisorClass(1, (-1, 1, 1, 0, 0)), DivisorClass(1, (-1, 2, 0, 0, 0))):
        assert _realize_line(config, cls) == "a line cannot have a negative multiplicity"
    # (1; 1,0,0,0,0) has no multiple point: its square is 0
    for cls in (line_class(0), line_class()):
        assert _realize_line(config, cls) == \
            "a line through fewer than two centers is not negative"
    # the line x + iy through (0,0) and (1,i) is 2 at (1,-i)
    assert _realize_line(config, line_class(0, 1, 3)) == \
        "the line through centers 0 and 1 misses center 3"
    # the first three centers lie on y = 0
    collinear = hand_config((0, 0), (1, 0), (2, 0), (3, 1), (4, 2))
    assert _realize_line(collinear, line_class(0, 1)) == \
        "the line through centers 0 and 1 also passes through center 2"
    # y = 0 is a + 2 at the third center: not zero, but no product of the
    # units a and 1 - a, so neither answer is certified
    assert _realize_line(hand_config((0, 0), (1, 0), (2, A + 2), (3, 1), (4, 2)),
                         line_class(0, 1)) is None
    # at a (a unit) the line is realized, and the record names the values
    record = _realize_line(hand_config((0, 0), (1, 0), (2, A), (3, 1), (4, 2)),
                           line_class(0, 1))
    assert isinstance(record, NegativeCurveRecord)
    assert record.through == (0, 1) and record.kind == KIND_LINE
    assert record.avoids == ((2, "a"), (3, "1"), (4, "2"))


def test_enumeration_files_each_survivor_by_its_outcome(monkeypatch):
    survivors, scanned = intersection._combinatorial_survivors(intersection.DEFAULT_D_MAX)
    conic = DivisorClass(2, (0, 1, 1, 1, 1))
    misses, meets, open_line = line_class(0, 1, 3), line_class(1, 2), line_class(0, 2)
    extra = (conic, misses, meets, open_line)
    monkeypatch.setattr(intersection, "_combinatorial_survivors",
                        lambda d_max: (survivors + extra, scanned))
    realize = intersection._realize_line
    monkeypatch.setattr(intersection, "_realize_line",
                        lambda config, cls: None if cls == open_line else realize(config, cls))
    result = enumerate_negative_classes("symbolic")
    # a class of degree 2 is never tried, and an inconclusive line is kept open
    assert result.undetermined == (conic, open_line)
    assert result.unrealized == (
        (misses, "the line through centers 0 and 1 misses center 3"),
        (meets, "the line through centers 1 and 2 also passes through center 0"),
    )
    assert [r.label for r in result.records] == EXPECTED_LABELS
    items = negative_curves_report("symbolic").items
    assert [i.claim_id for i in items if i.status != "pass"] == ["no-unexpected-classes"]
    (witness,) = [i.witness for i in items if i.claim_id == "no-unexpected-classes"]
    assert witness["undetermined"] == [str(conic), str(open_line)]
    assert witness["unrealized"] == [str(misses), str(meets)]
    # refuted lines alone leave nothing open
    monkeypatch.setattr(intersection, "_combinatorial_survivors",
                        lambda d_max: (survivors + (misses, meets), scanned))
    assert negative_curves_report("symbolic").passed
