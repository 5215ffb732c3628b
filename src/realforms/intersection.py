"""Divisor classes and negative curves on the five-point blow-up of the plane.

The lattice has basis (H, E1..E5): a class is written d*H - sum(m_i * E_i)
and stored as (degree, multiplicities).  The intersection form is
d*d' - sum(m_i * m_i'); the exceptional curve over center i is the class with
degree 0 and m_i = -1.

All realization statements (a candidate class is, or is not, an actual curve)
are certified exactly: vanishing is polynomial identity, nonvanishing is
witnessed by a unit of the coefficient ring, valid for every admissible
parameter value at once.
"""
from __future__ import annotations

from functools import cache
from itertools import product

from .errors import IdenticalPoints, NotACurveClass
from .gaussian import I as IMAG
from .groebner import certified_unit
from .reports import CertifiedReport, FrozenRecord, Record
from .ring import Poly
from .surfaces import Center, PointConfiguration, modified_plane_config

NUM_CENTERS = 5
DEFAULT_D_MAX = 6


def _check_d_max(d_max) -> None:
    """Refuse a degree bound that is not an int of at least 1, before any
    cache keyed by it is read: a bool or a float equal to an int would hit
    that int's entry, and below 1 the sweep would miss the lines."""
    if isinstance(d_max, bool) or not isinstance(d_max, int):
        raise TypeError(f"d_max must be an int, got {d_max!r}")
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")


class DivisorClass(FrozenRecord):
    """Class d*H - sum(m_i * E_i) in the blown-up plane's divisor lattice."""

    __slots__ = ("degree", "mults")

    def __init__(self, degree: int, mults: tuple[int, ...]):
        if len(mults) != NUM_CENTERS:
            raise ValueError(f"expected {NUM_CENTERS} multiplicities")
        super().__init__(degree, mults)

    def intersect(self, other: "DivisorClass") -> int:
        return self.degree * other.degree - sum(
            a * b for a, b in zip(self.mults, other.mults)
        )

    def self_intersection(self) -> int:
        return self.intersect(self)

    def doubled_genus(self) -> int:
        """Twice the arithmetic genus of a plane curve with these invariants."""
        if self.degree <= 0:
            raise NotACurveClass("arithmetic genus needs a positive degree")
        d = self.degree
        return (d - 1) * (d - 2) - sum(m * (m - 1) for m in self.mults)

    def to_json(self) -> dict:
        return {"degree": self.degree, "multiplicities": list(self.mults)}

    def __str__(self):
        return f"({self.degree}; {','.join(str(m) for m in self.mults)})"


def exceptional_class(i: int) -> DivisorClass:
    mults = [0] * NUM_CENTERS
    mults[i] = -1
    return DivisorClass(0, tuple(mults))


def line_class(*through: int) -> DivisorClass:
    mults = [0] * NUM_CENTERS
    for i in through:
        mults[i] = 1
    return DivisorClass(1, tuple(mults))


# ---------------------------------------------------------------------------
# projective lines through configuration centers
# ---------------------------------------------------------------------------


def canonical_form(form: Poly) -> Poly:
    """Scale so the lexicographically-leading coefficient is 1."""
    if form.is_zero():
        return form
    lead = max(form.terms)
    return form * form.terms[lead].inverse()


def line_through(c1: Center, c2: Center) -> Poly:
    """The projective line through two affine centers, canonically scaled."""
    table = c1.x.table
    z_coef = c1.x * c2.y - c1.y * c2.x
    x_coef = c1.y - c2.y
    y_coef = c2.x - c1.x
    form = (
        x_coef * Poly.var(table, "x")
        + y_coef * Poly.var(table, "y")
        + z_coef * Poly.var(table, "z")
    )
    if form.is_zero():
        raise IdenticalPoints("no unique line through identical points")
    return canonical_form(form)


def form_at_center(form: Poly, center: Center, partials=None) -> Poly:
    """Evaluate a linear projective form at an affine center (z = 1), from
    its partials in x, y and z when they are given (taken once per line)."""
    dx, dy, dz = partials or [form.derivative(n) for n in "xyz"]
    return dx * center.x + dy * center.y + dz


# ---------------------------------------------------------------------------
# the fixed table of negative curves
# ---------------------------------------------------------------------------

KIND_EXCEPTIONAL = "exceptional"
KIND_BOUNDARY = "boundary-line"
KIND_LINE = "line"

EXPECTED_NEGATIVE = (
    ("E(0,0)", exceptional_class(0), KIND_EXCEPTIONAL),
    ("E(1,i)", exceptional_class(1), KIND_EXCEPTIONAL),
    ("E(a,ai)", exceptional_class(2), KIND_EXCEPTIONAL),
    ("E(1,-i)", exceptional_class(3), KIND_EXCEPTIONAL),
    ("E(a,-ai)", exceptional_class(4), KIND_EXCEPTIONAL),
    ("L(x+iy)", line_class(0, 1, 2), KIND_BOUNDARY),
    ("L(x-iy)", line_class(0, 3, 4), KIND_BOUNDARY),
    ("L(x-z)", line_class(1, 3), KIND_LINE),
    ("L((a+1)x-(a-1)iy-2az)", line_class(1, 4), KIND_LINE),
    ("L((a+1)x+(a-1)iy-2az)", line_class(2, 3), KIND_LINE),
    ("L(x-az)", line_class(2, 4), KIND_LINE),
)

LABEL_AT_INFINITY = "L(z)"
CLASS_AT_INFINITY = DivisorClass(1, (0,) * NUM_CENTERS)

_LABEL_BY_CLASS = {cls: (label, kind) for label, cls, kind in EXPECTED_NEGATIVE}

ASSUMPTIONS = (
    "an irreducible plane curve of degree d has multiplicity at most d at a "
    "point, and at most d-1 when d >= 2",
    "distinct irreducible curves have nonnegative intersection number",
    "the class comparison against the conic through the four non-origin "
    "centers uses the degenerate pencil member (x-z)(x-az), excluding only "
    "its two line components",
)


class NegativeCurveRecord(FrozenRecord):
    """A negative curve: ``form`` defines a degree-1 record's line, ``through``
    indexes the centers on it, ``avoids`` the others with certified unit values."""

    __slots__ = ("label", "cls", "kind", "form", "through", "avoids")

    @property
    def self_intersection(self) -> int:
        return self.cls.self_intersection()

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "class": self.cls.to_json(),
            "kind": self.kind,
            "self_intersection": self.self_intersection,
            "form": None if self.form is None else str(self.form),
            "through_centers": list(self.through),
            "avoided_centers": {str(k): v for k, v in self.avoids},
        }


class EnumerationResult(Record):
    __slots__ = ("config", "records", "line_at_infinity", "candidates_scanned",
                 "unrealized", "undetermined", "d_max")

    def vertices(self) -> tuple[NegativeCurveRecord, ...]:
        return self.records + (self.line_at_infinity,)

    def to_json(self) -> dict:
        return {
            "records": [r.to_json() for r in self.records],
            "line_at_infinity": self.line_at_infinity.to_json(),
            "candidates_scanned": self.candidates_scanned,
            "unrealized": [
                {"class": c.to_json(), "reason": reason} for c, reason in self.unrealized
            ],
            "undetermined": [c.to_json() for c in self.undetermined],
            "d_max": self.d_max,
            "assumptions": list(ASSUMPTIONS),
            "intersection_matrix": intersection_matrix(self.vertices()),
        }


def _realize_line(config: PointConfiguration, cls: DivisorClass):
    """Try to realize a degree-1 class as an actual line of the configuration.

    Returns a NegativeCurveRecord, or a string reason when the class is
    certifiably not realized, or None when the attempt is inconclusive.
    """
    through = tuple(i for i, m in enumerate(cls.mults) if m == 1)
    if min(cls.mults) < 0:
        return "a line cannot have a negative multiplicity"
    if max(cls.mults) > 1:
        return "a line cannot have a multiple point"
    if len(through) < 2:
        return "a line through fewer than two centers is not negative"
    form = line_through(config.centers[through[0]], config.centers[through[1]])
    partials = [form.derivative(n) for n in "xyz"]
    for k in through[2:]:
        if not form_at_center(form, config.centers[k], partials).is_zero():
            return (
                f"the line through centers {through[0]} and {through[1]} "
                f"misses center {k}"
            )
    avoids = []
    for k in range(NUM_CENTERS):
        if k in through:
            continue
        value = form_at_center(form, config.centers[k], partials)
        if value.is_zero():
            return (
                f"the line through centers {through[0]} and {through[1]} "
                f"also passes through center {k}"
            )
        if not certified_unit(value, config.units):
            return None  # cannot certify either way
        avoids.append((k, str(value)))
    label, kind = _LABEL_BY_CLASS.get(cls, (f"curve{cls}", KIND_LINE))
    return NegativeCurveRecord(label, cls, kind, form, through, tuple(avoids))


@cache
def _combinatorial_survivors(d_max: int) -> tuple[tuple[DivisorClass, ...], int]:
    """Classes up to degree d_max that pass negativity, genus and the
    intersection bounds against the known effective classes, and the number
    of classes scanned.

    Negativity and genus are integer sums over (d, m1..m5), so a
    DivisorClass is built only for the few classes that pass both (27 of
    12,232 at d_max 6).  None of these tests depends on the parameter, so one
    sweep per d_max serves every configuration.
    """
    iso_plus = line_class(0, 1, 2)
    iso_minus = line_class(0, 3, 4)
    conic_components = (line_class(1, 3), line_class(2, 4))
    conic = DivisorClass(2, (0, 1, 1, 1, 1))

    survivors: list[DivisorClass] = []
    scanned = 0
    for d in range(1, d_max + 1):
        cap = 1 if d == 1 else d - 1
        square = d * d
        genus_room = (d - 1) * (d - 2)
        for mults in product(range(cap + 1), repeat=NUM_CENTERS):
            scanned += 1
            m1, m2, m3, m4, m5 = mults
            squares = m1 * m1 + m2 * m2 + m3 * m3 + m4 * m4 + m5 * m5
            # negative self-intersection d^2 - sum(m^2), and nonnegative
            # doubled genus (d-1)(d-2) - sum(m(m-1))
            if squares <= square or squares - (m1 + m2 + m3 + m4 + m5) > genus_room:
                continue
            cls = DivisorClass(d, mults)
            if cls != iso_plus and cls.intersect(iso_plus) < 0:
                continue
            if cls != iso_minus and cls.intersect(iso_minus) < 0:
                continue
            if cls not in conic_components and cls.intersect(conic) < 0:
                continue
            survivors.append(cls)
    return tuple(survivors), scanned


def enumerate_negative_classes(alpha, d_max: int = DEFAULT_D_MAX) -> EnumerationResult:
    """All negative curve classes on the five-point blow-up up to degree d_max.

    Sweeps every multiplicity vector, prunes by negativity, genus and
    intersection against known effective classes, then certifies realization
    of the survivors on the diagonal configuration.  The sweep and pruning do
    not depend on alpha and run once per d_max.  Exceptional classes are included
    unconditionally (the centers are certified pairwise distinct when the
    configuration is built).
    Raises TypeError when d_max is no int (a bool included) and ValueError
    when it is below 1: the sweep would miss the lines.
    """
    _check_d_max(d_max)
    config = modified_plane_config(alpha, alpha)
    survivors, scanned = _combinatorial_survivors(d_max)

    records: list[NegativeCurveRecord] = []
    for i in range(NUM_CENTERS):
        label, kind = _LABEL_BY_CLASS[exceptional_class(i)]
        records.append(
            NegativeCurveRecord(
                label, exceptional_class(i), kind, None, (i,), ()
            )
        )
    realized_lines: list[NegativeCurveRecord] = []
    unrealized: list[tuple[DivisorClass, str]] = []
    undetermined: list[DivisorClass] = []
    for cls in survivors:
        if cls.degree != 1:
            undetermined.append(cls)
            continue
        outcome = _realize_line(config, cls)
        if isinstance(outcome, NegativeCurveRecord):
            realized_lines.append(outcome)
        elif isinstance(outcome, str):
            unrealized.append((cls, outcome))
        else:
            undetermined.append(cls)
    realized_lines.sort(key=lambda r: r.cls.mults, reverse=True)
    records.extend(realized_lines)

    infinity = NegativeCurveRecord(
        LABEL_AT_INFINITY, CLASS_AT_INFINITY, KIND_BOUNDARY,
        canonical_form(Poly.var(config.table, "z")), (), tuple(
            (k, str(Poly.const(config.table, 1)))
            for k in range(NUM_CENTERS)
        ),
    )
    return EnumerationResult(
        config=config,
        records=tuple(records),
        line_at_infinity=infinity,
        candidates_scanned=scanned,
        unrealized=tuple(unrealized),
        undetermined=tuple(undetermined),
        d_max=d_max,
    )


def intersection_matrix(records) -> list[list[int]]:
    classes = [r.cls for r in records]
    return [[c1.intersect(c2) for c2 in classes] for c1 in classes]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def boundary_zigzag_report(alpha) -> CertifiedReport:
    """The removed boundary is a chain of three lines with self-intersections
    (-2, +1, -2); consecutive lines meet once, the ends are disjoint."""
    report = CertifiedReport("lem-6.2")
    plus = line_class(0, 1, 2)
    infinity = CLASS_AT_INFINITY
    minus = line_class(0, 3, 4)
    chain = [plus, infinity, minus]
    report.add(
        "boundary-self-intersections",
        [c.self_intersection() for c in chain] == [-2, 1, -2],
        witness=[c.self_intersection() for c in chain],
    )
    report.add(
        "boundary-consecutive-meet-once",
        plus.intersect(infinity) == 1 and infinity.intersect(minus) == 1,
    )
    report.add("boundary-ends-disjoint", plus.intersect(minus) == 0)
    config = modified_plane_config(alpha, alpha)
    x, y, z = (Poly.var(config.table, n) for n in ("x", "y", "z"))
    expected_forms = (z, x + y * IMAG, x - y * IMAG)
    report.add(
        "boundary-forms-removed",
        tuple(config.removed) == expected_forms,
        witness=[str(f) for f in config.removed],
    )
    return report


def conic_pencil_report(config: PointConfiguration) -> CertifiedReport:
    """The degenerate conic (x-z)(x-az) passes once through each non-origin
    center and avoids the origin; this backs the conic pruning bound."""
    report = CertifiedReport("lem-6.1")
    first = line_through(config.centers[1], config.centers[3])
    second = line_through(config.centers[2], config.centers[4])
    product_value = form_at_center(first, config.centers[0]) * form_at_center(
        second, config.centers[0]
    )
    report.add(
        "conic-avoids-origin",
        certified_unit(product_value, config.units),
        witness=str(product_value),
    )
    for k, on_line, off_line in ((1, first, second), (3, first, second),
                                 (2, second, first), (4, second, first)):
        vanish = form_at_center(on_line, config.centers[k]).is_zero()
        other = form_at_center(off_line, config.centers[k])
        simple = certified_unit(other, config.units)
        report.add(
            f"conic-multiplicity-one-at-center-{k}", vanish and simple,
            witness=str(other),
        )
    return report


def negative_curves_report(alpha, d_max: int = DEFAULT_D_MAX) -> CertifiedReport:
    """The complete list of negative curves matches the fixed table."""
    report = CertifiedReport("lem-6.1")
    result = enumerate_negative_classes(alpha, d_max)
    config = result.config
    report.add(
        "centers-pairwise-distinct",
        all(config.distinct(p, q)
            for i, p in enumerate(config.centers) for q in config.centers[i + 1:]),
        witness=[c.label() for c in config.centers],
    )
    expected_labels = [label for label, _, _ in EXPECTED_NEGATIVE]
    got_labels = [r.label for r in result.records]
    report.add(
        "record-labels", got_labels == expected_labels,
        witness={"expected": expected_labels, "got": got_labels},
    )
    expected_classes = [cls for _, cls, _ in EXPECTED_NEGATIVE]
    report.add(
        "record-classes",
        [r.cls for r in result.records] == expected_classes,
        witness=[str(r.cls) for r in result.records],
    )
    for r in result.records:
        if r.kind == KIND_EXCEPTIONAL:
            continue
        report.add(
            f"realized-{r.label}", r.form is not None,
            witness={
                "form": str(r.form),
                "through": list(r.through),
                "avoided": {str(k): v for k, v in r.avoids},
            },
        )
    report.add(
        "no-unexpected-classes",
        not result.undetermined,
        witness={
            "candidates_scanned": result.candidates_scanned,
            "d_max": result.d_max,
            "unrealized": [str(c) for c, _ in result.unrealized],
            "undetermined": [str(c) for c in result.undetermined],
            "assumptions": list(ASSUMPTIONS),
        },
    )
    diag = [r.self_intersection for r in result.vertices()]
    report.add(
        "self-intersection-diagonal",
        diag == [-1, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, 1],
        witness=diag,
    )
    matrix = intersection_matrix(result.vertices())
    symmetric = all(
        matrix[i][j] == matrix[j][i] for i in range(len(matrix)) for j in range(len(matrix))
    )
    report.add("matrix-symmetric", symmetric, witness=matrix)
    report.extend(conic_pencil_report(result.config))
    return report
