"""Affine modification: pulling the plane apart along a divisor.

Given an ideal I = (g_1, ..., g_k) in the coordinate ring of the plane and a
member f of I, the modified surface is presented by scale variables T_i tied
to the ratios g_i/f.  The presentation is computed exactly by eliminating an
inverse variable t from the relations T_i - g_i*t and 1 - f*t.

The distinguished example here modifies the plane along
I = (x^2 + y^2, x*(x-1)*(x-a), y*(x-1)*(x-a)) with f = x^2 + y^2; its fibers
over admissible parameter values match the diagonal member of the surface
family, and the match is certified by explicit mutually inverse maps.

Its presentation is eliminated once per process over Q[a] and certified to
specialize to the reduced grevlex basis at every admissible value
(standard_rees, after Kalkbrener, "On the stability of Groebner bases under
specializations", J. Symbolic Comput. 24, 1997).  A fiber at a value or a
name reads it, and the composites of the two maps that identify a fiber with
the diagonal surface, through templates (surfaces.at_parameters), with no
elimination, Buchberger run or substitution of its own.

The smoothness check reads its sample points, the generators there and
their partials from one template at the value (ring.read_at).
"""
from __future__ import annotations

from functools import cache
from itertools import islice
from operator import le

from .errors import FNotInIdeal, PointNotOnVariety
from .gaussian import ONE, _reduce, integer_rank
from .groebner import GREVLEX, Ideal, certified_unit, elimination_order
from .reports import CertifiedReport, FrozenRecord, Record, shared_in_run
from .ring import Poly, RatFunc, RingMap, VarTable, _specialize_all, compose, read_at
from .surfaces import (
    ALPHA,
    COORDS,
    SurfacePresentation,
    _images_agree,
    _param_poly,
    _template,
    at_parameters,
    chart_yv,
    isotropic_inverse,
    isotropic_pair,
    make_surface,
    param_pair,
    param_ring,
    surface_generators,
)

SCALE_PREFIX = "T"
INVERSE_NAME = "t"


def _transport(p: Poly, table: VarTable) -> Poly:
    """Rewrite p over another table that has every variable p uses (else
    ValueError)."""
    terms: dict = {}
    for e, c in p.terms.items():
        new_e = [0] * len(table)
        for name, k in zip(p.table.names, e):
            if k:
                new_e[table.index(name)] = k
        terms[tuple(new_e)] = c
    return Poly(table, terms)


class ModificationSpec(FrozenRecord):
    """Plane ideal and a chosen divisor that lies in it."""

    _fields = ("table", "base_vars", "generators", "divisor")
    # center_ideal, the ideal of the generators, is built once and read by
    # rees_report; it is no field, so equality and repr leave it out
    __slots__ = _fields + ("center_ideal",)

    def __init__(self, table: VarTable, base_vars: tuple[str, ...],
                 generators: tuple[Poly, ...], divisor: Poly):
        super().__init__(table, base_vars, generators, divisor)
        object.__setattr__(self, "center_ideal", Ideal(list(generators), table))
        if not self.center_ideal.member(divisor):
            raise FNotInIdeal("the divisor must lie in the center ideal")


def standard_modification(alpha=ALPHA) -> ModificationSpec:
    """The distinguished modification of the plane."""
    table, (a,), _ = param_ring(("x", "y"), param_pair(alpha)[0])
    x = Poly.var(table, "x")
    y = Poly.var(table, "y")
    tangency = (x - 1) * (x - a)
    return ModificationSpec(
        table=table,
        base_vars=("x", "y"),
        generators=(x * x + y * y, x * tangency, y * tangency),
        divisor=x * x + y * y,
    )


class ReesPresentation(Record):
    __slots__ = ("table", "ideal", "scale_vars")

    def to_json(self) -> dict:
        return {
            "variables": list(self.table.names),
            "scale_variables": list(self.scale_vars),
            "relations": [str(g) for g in self.ideal.generators],
        }


def _eliminate_inverse(spec: ModificationSpec) -> tuple[ReesPresentation, Ideal]:
    """The presentation, and the ideal of T_i - g_i*t, 1 - f*t whose basis in
    the order eliminating t, with the spec's parameters last, gives it."""
    k = len(spec.generators)
    scale = tuple(f"{SCALE_PREFIX}{i + 1}" for i in range(k))
    base = tuple(spec.base_vars)
    # any non-base names (symbolic parameters) form the last block of the order
    extras = tuple(n for n in spec.table.names if n not in base)
    big = VarTable((INVERSE_NAME,) + base + scale + extras)
    t = Poly.var(big, INVERSE_NAME)
    relations = []
    for i, g in enumerate(spec.generators):
        relations.append(Poly.var(big, scale[i]) - _transport(g, big) * t)
    relations.append(Poly.const(big, 1) - _transport(spec.divisor, big) * t)
    ideal = Ideal(relations, big)
    eliminated = ideal.eliminate((INVERSE_NAME,), extras)
    small = VarTable(base + scale + extras)
    basis = [_transport(g, small) for g in eliminated.generators]
    return ReesPresentation(small, Ideal(basis, small), scale), ideal


def rees_presentation(spec: ModificationSpec) -> ReesPresentation:
    """Eliminate the inverse variable from T_i - g_i*t, 1 - f*t."""
    return _eliminate_inverse(spec)[0]


@cache
def standard_rees() -> tuple[ModificationSpec, ReesPresentation]:
    """The standard modification over Q[a] and its presentation, eliminated
    once per process on first use.

    The whole basis, t included, is taken with a last in the order.  Each
    element's leading coefficient in the other variables must be a unit
    built from a and 1 - a (they are 1, a and a^2), so the basis
    specializes to a Groebner basis at every admissible value (Kalkbrener,
    J. Symbolic Comput. 24, 1997).  Its relations, free of t, must also be
    monic and reduced in grevlex on the variables before a, and a term that
    vanishes at a value only drops, so they specialize to the reduced
    grevlex basis, in Buchberger's order.  A failed test raises ValueError.
    """
    spec = standard_modification()
    rees, ideal = _eliminate_inverse(spec)
    table = ideal.table
    a = Poly.var(table, ALPHA)
    order = elimination_order((INVERSE_NAME,), (ALPHA,))
    key = order.key_fn(table)
    # a is the last variable: the coefficient of a term's monomial in the
    # others is read from its exponents before the last
    n = len(table) - 1
    for g in ideal.groebner(order):
        lead = max(g.terms, key=key)[:n]
        lc = Poly(table, {(0,) * n + e[n:]: c for e, c in g.terms.items() if e[:n] == lead})
        if not certified_unit(lc, (a, 1 - a)):
            raise ValueError(
                f"leading coefficient {lc} of {g} is not certified a unit, so the "
                f"symbolic basis does not specialize at every admissible value")
    relations = rees.ideal.generators  # over (x, y, T1, T2, T3, a)
    leads = [max((e[:-1] for e in g.terms), key=GREVLEX.key_fn(rees.table)) for g in relations]
    for i, g in enumerate(relations):
        if {e[-1]: c for e, c in g.terms.items() if e[:-1] == leads[i]} != {0: ONE}:
            raise ValueError(f"relation {g} is not monic in its grevlex leading monomial")
        if any(all(map(le, lead, e)) for j, lead in enumerate(leads) if j != i for e in g.terms):
            raise ValueError(f"a term of relation {g} is divisible by another's leading "
                             f"monomial, so the relations are not reduced")
    return spec, rees


def rees_report(spec: ModificationSpec | None = None) -> CertifiedReport:
    """Structural facts of the distinguished modification's presentation."""
    report = CertifiedReport("def-3.4-rees")
    if spec is None:
        spec, rees = standard_rees()
    else:
        rees = rees_presentation(spec)
    report.add(
        "divisor-in-center-ideal",
        spec.center_ideal.member(spec.divisor),
        witness=str(spec.divisor),
    )
    report.add(
        "presentation-computed",
        len(rees.ideal.generators) > 0,
        witness=rees.to_json(),
    )
    table = rees.table
    t1 = Poly.var(table, rees.scale_vars[0])
    report.add(
        "first-scale-variable-is-one",
        rees.ideal.member(t1 - 1),
        witness=f"{rees.scale_vars[0]} - 1",
    )
    x = Poly.var(table, "x")
    y = Poly.var(table, "y")
    t2 = Poly.var(table, rees.scale_vars[1])
    t3 = Poly.var(table, rees.scale_vars[2])
    report.add(
        "scale-syzygy",
        rees.ideal.member(y * t2 - x * t3),
        witness=f"y*{rees.scale_vars[1]} - x*{rees.scale_vars[2]}",
    )
    return report


# ---------------------------------------------------------------------------
# fibers of the modified family
# ---------------------------------------------------------------------------


@shared_in_run(param_pair)
def fiber_presentation(alpha) -> SurfacePresentation:
    """The affine chart of the modification where the first scale is 1, as a
    presentation over (x, y, T2, T3) and the symbolic parameter (beta = alpha).

    Its relations are those of standard_rees at the first scale 1, read
    through a template with no elimination or Buchberger run: at a value,
    the reduced grevlex basis there, as standard_rees certifies.  Within
    one suite run, equal cooked parameters give the same fiber.
    """
    cooked, _ = param_pair(alpha)
    spec, rees = standard_rees()
    small, _, _ = param_ring(spec.base_vars + rees.scale_vars[1:], cooked)
    basis = list(at_parameters(_fiber_relations, small, cooked))
    return SurfacePresentation(table=small, ideal=Ideal(basis, small), alpha=cooked, beta=cooked)


def _fiber_relations(table: VarTable, alpha) -> tuple:
    """The nonzero relations of standard_rees at T1 = 1, over the table: the
    other variables, then the parameter, renamed alpha."""
    _, rees = standard_rees()
    k = rees.table.index(rees.scale_vars[0])
    at = _specialize_all(rees.ideal.generators, {rees.scale_vars[0]: 1})
    return tuple(Poly(table, {e[:k] + e[k + 1:]: c for e, c in h.terms.items()}) for h in at if h)


def _fiber_to_surface_images(tbl: VarTable, alpha) -> dict:
    x, u = RatFunc.var(tbl, "x"), RatFunc.var(tbl, "u")
    a = RatFunc(_param_poly(tbl, alpha))
    plane_x, plane_y = isotropic_pair(x, u)
    cubic = plane_x * (plane_x - 1) * (plane_x - a)
    denom = 4 * x * u
    return {"x": plane_x, "y": plane_y, "T2": cubic / denom,
            "T3": plane_y * (plane_x - 1) * (plane_x - a) / denom}


def fiber_to_surface_map(fiber: SurfacePresentation,
                         surface: SurfacePresentation) -> RingMap:
    """Pullback along the chart identification from the surface to the fiber."""
    images = at_parameters(_fiber_to_surface_images, surface.table, surface.alpha)
    return RingMap.from_images(fiber.table, surface.table, images)


def _surface_to_fiber_images(tbl: VarTable, alpha) -> dict:
    first, second = isotropic_inverse(RatFunc.var(tbl, "x"), RatFunc.var(tbl, "y"))
    a = RatFunc(_param_poly(tbl, alpha))
    y_img, v_img = chart_yv(first, second, a, a)
    return {"x": first, "u": second, "y": y_img, "v": v_img}


def surface_to_fiber_map(surface: SurfacePresentation,
                         fiber: SurfacePresentation) -> RingMap:
    """Pullback along the inverse identification from the fiber to the surface."""
    images = at_parameters(_surface_to_fiber_images, fiber.table, fiber.alpha)
    return RingMap.from_images(surface.table, fiber.table, images)


@shared_in_run(param_pair)
def _identification(alpha) -> tuple:
    """The fiber, the diagonal surface, to_surface and to_fiber, built once
    per run for the two builders below."""
    fiber = fiber_presentation(alpha)
    surface = make_surface(fiber.alpha)
    return (fiber, surface, fiber_to_surface_map(fiber, surface),
            surface_to_fiber_map(surface, fiber))


def _fiber_composites(table: VarTable, alpha) -> dict:
    """Over the fiber's table: to_fiber of each surface generator, then each
    coordinate's image under the round trip compose(to_surface, to_fiber)."""
    _, surface, to_surface, to_fiber = _identification(alpha)
    round_trip = compose(to_surface, to_fiber)
    return ({f"to_fiber(g{n})": to_fiber(g) for n, g in enumerate(surface.generators, 1)}
            | {n: round_trip.image_of(n) for n in table.names if n != alpha})


def _surface_composites(table: VarTable, alpha) -> dict:
    """Over the surface's table: to_surface of each fiber relation and of
    x^2 + y^2, then the coordinates under compose(to_fiber, to_surface)."""
    fiber, _, to_surface, to_fiber = _identification(alpha)
    images = {f"to_surface(h{n})": to_surface(h) for n, h in enumerate(fiber.generators, 1)}
    images["to_surface(x^2 + y^2)"] = to_surface(sum(Poly.var(fiber.table, n) ** 2 for n in "xy"))
    round_trip = compose(to_fiber, to_surface)
    return images | {n: round_trip.image_of(n) for n in table.names if n != alpha}


def match_fiber_to_surface(alpha) -> CertifiedReport:
    """Certify that the scale-one chart of the modification and the diagonal
    surface are isomorphic away from the chart divisors, by explicit mutually
    inverse maps.  The claims read the maps' composites through templates
    (surfaces.at_parameters): their denominators 1, x^2 + y^2, u and x are
    free of a, so a read is the composite at the value, decided there."""
    report = CertifiedReport("def-3.4-fiber")
    fiber = fiber_presentation(alpha)
    surface = make_surface(fiber.alpha)
    on_fiber = at_parameters(_fiber_composites, fiber.table, fiber.alpha)
    on_surface = at_parameters(_surface_composites, surface.table, surface.alpha)

    # each relation's numerator lies in the surface ideal itself: power 0
    powers = [0 if surface.ideal.member(on_surface[f"to_surface(h{n})"].num) else None
              for n in range(1, len(fiber.generators) + 1)]
    report.add("fiber-relations-pull-back", None not in powers, witness={"powers": powers})

    vanish = all(on_fiber[f"to_fiber(g{n})"].is_zero()
                 for n in range(1, len(surface.generators) + 1))
    report.add("surface-relations-vanish-identically", vanish)

    divisor_image = on_surface["to_surface(x^2 + y^2)"]
    four_xu = 4 * Poly.var(surface.table, "x") * Poly.var(surface.table, "u")
    report.add("divisor-pulls-back-to-chart-product",
               divisor_image == RatFunc(four_xu),
               witness=str(divisor_image.num))

    # each coordinate's image against the coordinate; a parameter maps to itself
    for name, s, images in (("fiber", fiber, on_fiber), ("surface", surface, on_surface)):
        pairs = [(images[n], RatFunc.var(s.table, n)) for n in s.table.names if n in images]
        report.add(f"roundtrip-fixes-{name}-chart", _images_agree(pairs, s.ideal))
    return report


# ---------------------------------------------------------------------------
# smoothness spot checks
# ---------------------------------------------------------------------------


DEFAULT_CHART_SAMPLES = ((1, 1), (2, 1), (-1, 1), (-1, 2), (3, -1))


def _chart_samples(table: VarTable, alpha) -> tuple:
    """Per chart sample (x0, u0) of DEFAULT_CHART_SAMPLES, over the table:
    y0 and v0 of the point of the diagonal surface there (chart_yv, over the
    integers u0 and x0), then the generators and their partials in each
    coordinate at that point, all polynomials in alpha alone."""
    gens = surface_generators(table, alpha, alpha)
    gens += tuple(g.derivative(n) for g in gens for n in COORDS)
    a = RatFunc(_param_poly(table, alpha))
    out = []
    for x0, u0 in DEFAULT_CHART_SAMPLES:
        y0, v0 = chart_yv(x0, u0, a, a)
        at = RingMap.from_images(table, table, {"y": y0, "v": v0})
        out += [f.as_poly() for f in (y0, v0, *map(at, _specialize_all(gens, {"x": x0, "u": u0})))]
    return tuple(out)


def smoothness_report(alpha) -> CertifiedReport:
    """Jacobian rank 2 at exact sample points of the diagonal surface, read
    at alpha from the template of _chart_samples in one pass (ring.read_at)
    as Gaussian-integer numerators over one positive denominator.  Every
    generator must read 0, or PointNotOnVariety is raised; the rank is that
    of the integer rows of partials (gaussian.integer_rank)."""
    report = CertifiedReport("def-3.4-fiber")
    if isinstance(alpha, str):
        raise TypeError(f"not an exact scalar: {alpha!r}")
    alpha, _ = param_pair(alpha)
    D, sums = read_at(_template(_chart_samples, COORDS, ((ALPHA, False),))[1],
                      {ALPHA: (alpha.numerator, alpha.denominator)})
    generators = make_surface(alpha, alpha).generators
    values = (terms[0][1:] if terms else (0, 0) for terms in sums)
    for x0, u0 in DEFAULT_CHART_SAMPLES:
        y0, v0, *at = islice(values, 5)
        for g, value in zip(generators, at):
            if value != (0, 0):
                raise PointNotOnVariety(f"relation {g} does not vanish at the point")
        rows = [list(islice(values, len(COORDS))) for _ in at]
        report.add(f"jacobian-rank-2-at-({x0},{u0})", integer_rank(rows) == 2, witness=dict(
            zip(COORDS, map(str, (x0, _reduce(*y0, D), u0, _reduce(*v0, D))))))
    return report
