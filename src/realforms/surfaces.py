"""The two-parameter affine surface family, its charts and real structures.

The family lives in affine 4-space with coordinates (x, y, u, v) and two
parameters; a parameter is either an exact rational (excluded values 0 and 1)
or a named symbolic variable appended to the polynomial ring.  The three
defining equations are

    y*u = x*(x-1)*(x-alpha)
    x*v = u*(u-1)*(u-beta)
    y*v = (x-1)*(x-alpha)*(u-1)*(u-beta)

Everything here is exact; chart identities are verified as rational-function
identities and residual claims as ideal equalities.  The generators, the
chart images and the composites of the substituting maps that a claim reads
(each generator under a chart, the fibers over chart points) come from
symbolic templates over Q[a, b], built once per process and shape of the
parameters, read in integers at the values and renamed at the names
(at_parameters); each claim is decided on the read.  The swaps are
relabellings (ring.RingMap), applied directly at every parameter.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import itemgetter
from typing import Sequence

from .errors import (
    ForbiddenParameter,
    IdenticalPoints,
    NotAntiInvolution,
    NotAutomorphism,
    NotIsomorphism,
    NotConjugationStable,
)
from .gaussian import ONE, GaussianRational, I as IMAG, _reduce, coerce
from .groebner import Ideal, certified_unit, exact_quotient
from .reports import CertifiedReport, FrozenRecord, shared_in_run
from .ring import (
    Poly, RatFunc, RingMap, VarTable, _int_ratfunc, _poly, _specialize_all, compile_reads, compose,
    read_at,
)

ALPHA = "a"
BETA = "b"
COORDS = ("x", "y", "u", "v")
GENERATOR_NAMES = ("g1", "g2", "g3")
GEOMETRY_COORDS = ("x", "y", "z")
# Every variable of a library table: the surface, the plane and its
# modification (inverse t, scales T1-T3).  Also i, which would print and
# parse as the imaginary unit.
RESERVED_NAMES = frozenset(COORDS + GEOMETRY_COORDS + ("t", "T1", "T2", "T3", "i"))


def _cook_param(spec, default_name: str):
    """Normalize a parameter: Fraction for rational, str for symbolic."""
    if isinstance(spec, str):
        if spec == "symbolic":
            return default_name
        if not spec.isidentifier() or spec in RESERVED_NAMES:
            raise ValueError(f"bad symbolic parameter name {spec!r}")
        return spec
    if isinstance(spec, Fraction):
        value = spec
    else:
        value = coerce(spec)
        if value is None or not value.is_real():
            raise TypeError(f"not an exact scalar: {spec!r}")
        value = value.re
    if value in (0, 1):
        raise ForbiddenParameter(f"parameter value {value} is excluded")
    return value


def param_pair(alpha, beta=None) -> tuple:
    """Normalize a raw (alpha, beta) pair; beta defaults to alpha.

    Each value becomes a Fraction (from an int, a Fraction or a real
    Gaussian rational; 0 and 1 raise ForbiddenParameter, and a float or any
    other inexact value raises TypeError) or a symbolic name ("symbolic"
    means "a" for alpha and "b" for beta; a name that is no identifier or is
    in RESERVED_NAMES raises ValueError).  An equal raw spec means the
    diagonal surface, even for "symbolic"; two different specs that name the
    same symbol, such as ("b", "symbolic"), raise ValueError.
    """
    a = _cook_param(alpha, ALPHA)
    if beta is None:
        return a, a
    b = _cook_param(beta, BETA)
    if beta == alpha:
        return a, a
    if isinstance(b, str) and a == b:
        raise ValueError(f"parameters {alpha!r} and {beta!r} both name {b!r}")
    return a, b


def _param_poly(table: VarTable, cooked) -> Poly:
    if isinstance(cooked, str):
        return Poly.var(table, cooked)
    return Poly.const(table, cooked)


def param_ring(base: tuple[str, ...], *cooked) -> tuple:
    """The polynomial ring of a check over cooked parameters (see param_pair).

    Returns the table of the base names followed by the sorted symbolic
    names, each parameter as a Poly over that table, and the units p, 1 - p
    once per symbolic name: an admissible parameter is never 0 or 1, so
    both may be inverted.
    """
    names = sorted({c for c in cooked if isinstance(c, str)})
    table = VarTable(base + tuple(names))
    units = []
    for name in names:
        p = Poly.var(table, name)
        units += [p, 1 - p]
    return table, tuple(_param_poly(table, c) for c in cooked), tuple(units)


@cache
def _template(build, base: tuple[str, ...], shape: tuple) -> tuple:
    """build(table, *names) over base and the names of the shape's (name,
    kept) pairs (at_parameters), made once per process on first use: a
    dict's names, each with its number of parts (a Poly's 1, a RatFunc's 2),
    or None, and the parts compiled by ring.compile_reads with the base and
    the kept names kept.  A denominator that involves a parameter raises
    ValueError, so a read is a ring homomorphism at every value."""
    params = [name for name, _ in shape]
    table, _, _ = param_ring(base, *params)
    built = build(table, *params)
    names, polys = None, built
    if not isinstance(built, tuple):
        parts = [(f,) if isinstance(f, Poly) else (f.num, f.den) for f in built.values()]
        for part in parts:
            if len(part) == 2 and any(any(e[len(base):]) for e in part[1].terms):
                raise ValueError(f"denominator {part[1]} of a template involves a parameter")
        names = tuple(zip(built, map(len, parts)))
        polys = [p for part in parts for p in part]
    return names, compile_reads(polys, base + tuple(sorted({n for n, kept in shape if kept})))


def at_parameters(build, table: VarTable, *cooked):
    """build(table, *cooked), a tuple of Polys or a dict of Polys and
    RatFuncs, at cooked parameters over their param_ring table: the template
    of their shape builds each as a or b by position (a repeated name as the
    first), kept if a name; values are read in one integer pass (ring.read_at)
    and the kept exponents moved to the table's names.  A Poly's terms are
    reduced to Q(i) once each; a RatFunc's two parts, over one denominator,
    go to ring._int_ratfunc, so nothing is divided."""
    shape = tuple(((ALPHA, BETA)[cooked.index(c) if isinstance(c, str) else k], isinstance(c, str))
                  for k, c in enumerate(cooked))
    base = tuple(n for n in table.names if n not in cooked)
    names, form = _template(build, base, shape)
    q, sums = read_at(form, {name: (v.numerator, v.denominator)
                             for (name, kept), v in zip(shape, cooked) if not kept})
    # the names in the order of the template's a, b; the table sorts them after the base
    kept = list(dict.fromkeys(c for (_, keep), c in zip(shape, cooked) if keep))
    if kept != sorted(kept):
        move = itemgetter(*range(len(base)), *(len(base) + kept.index(n) for n in sorted(kept)))
        sums = [[(move(e), a, b) for e, a, b in terms] for terms in sums]

    def poly(terms):
        return _poly(table, {e: _reduce(a, b, q) for e, a, b in terms})

    if names is None:
        return tuple(map(poly, sums))
    parts = iter(sums)
    return {name: _int_ratfunc(table, next(parts), next(parts)) if size == 2 else poly(next(parts))
            for name, size in names}


class SurfacePresentation(FrozenRecord):
    """A surface in affine 4-space given by generators, at Fraction or symbolic parameters."""

    __slots__ = ("table", "ideal", "alpha", "beta")

    @property
    def generators(self) -> tuple[Poly, ...]:
        return self.ideal.generators

    def var(self, name: str) -> Poly:
        return Poly.var(self.table, name)


def isotropic_pair(s, t):
    """(s + t, i*s - i*t): the change to isotropic coordinates of a pair."""
    return s + t, s * IMAG - t * IMAG


def isotropic_inverse(s, t):
    """((s - i*t)/2, (s + i*t)/2), the inverse of isotropic_pair."""
    half = Fraction(1, 2)
    return (s - t * IMAG) * half, (s + t * IMAG) * half


def chart_yv(x, u, a, b):
    """y and v on the (x, u)-chart x*u != 0 of the surface:
    x*(x-1)*(x-a)/u and u*(u-1)*(u-b)/x."""
    return x * (x - 1) * (x - a) / u, u * (u - 1) * (u - b) / x


def surface_generators(table: VarTable, alpha, beta) -> tuple[Poly, Poly, Poly]:
    x, y, u, v = (Poly.var(table, n) for n in COORDS)
    a = _param_poly(table, alpha)
    b = _param_poly(table, beta)
    cubic_x = x * (x - 1) * (x - a)
    cubic_u = u * (u - 1) * (u - b)
    g1 = y * u - cubic_x
    g2 = x * v - cubic_u
    g3 = y * v - (x - 1) * (x - a) * (u - 1) * (u - b)
    return g1, g2, g3


@shared_in_run(param_pair)
def make_surface(alpha, beta=None) -> SurfacePresentation:
    """Build the surface presentation; beta defaults to alpha.

    Parameters are exact rationals (0 and 1 rejected) or symbolic names,
    which are real indeterminates appended to the ring; the generators are
    read from the template of the parameters' shape (at_parameters).  Within
    one suite run, equal cooked parameters give the same presentation, and
    with it the bases its ideal has computed.
    """
    alpha, beta = param_pair(alpha, beta)
    table, _, _ = param_ring(COORDS, alpha, beta)
    gens = at_parameters(surface_generators, table, alpha, beta)
    return SurfacePresentation(
        table=table,
        ideal=Ideal(list(gens), table),
        alpha=alpha,
        beta=beta,
    )


def free_presentation(table: VarTable) -> SurfacePresentation:
    """The whole affine space over the table (the zero ideal), for the
    generic predicates below."""
    return SurfacePresentation(table=table, ideal=Ideal([], table), alpha=None, beta=None)


def _fibers(generators: Sequence[Poly], points: dict) -> dict:
    """The generators over each named point p, as "g1 over p" and so on."""
    return {f"{name} over {label}": p for label, point in points.items()
            for name, p in zip(GENERATOR_NAMES, _specialize_all(generators, point))}


def _fiber(links: dict, point: str, expected: str) -> tuple[list[Poly], bool]:
    """The generators over the point (see _fibers) in a template's dict, and
    whether their nonzero members (a specialization can send a generator to
    zero) generate the same ideal as the expected entry."""
    fiber = [links[f"{g} over {point}"] for g in GENERATOR_NAMES]
    return fiber, Ideal([p for p in fiber if p], fiber[0].table).equal(Ideal([links[expected]]))


def agree_modulo(left: RingMap, right: RingMap, ideal: Ideal) -> bool:
    """Do two maps between the same tables agree modulo the ideal: the same
    conjugation flag, and images that agree in pairs (_images_agree)?"""
    return (left.conjugates_coefficients == right.conjugates_coefficients
            and _images_agree(zip(left.images, right.images), ideal))


def _images_agree(pairs, ideal: Ideal) -> bool:
    """Does the cross difference l.num*r.den - r.num*l.den lie in the ideal
    itself for each pair of fractions l, r?  Nothing is inverted."""
    return all(ideal.member(l.num * r.den - r.num * l.den) for l, r in pairs)


def _check_pullback(m: RingMap, codomain: SurfacePresentation,
                    domain: SurfacePresentation, anti: bool, error: type) -> None:
    """Raise error unless m is the pullback of a morphism from domain to
    codomain: it conjugates coefficients exactly when anti is set, goes from
    the codomain ring to the domain ring, and sends every codomain generator
    to a numerator that lies in the domain ideal itself."""
    if m.conjugates_coefficients != anti:
        raise error("pullback must " + ("" if anti else "not ") + "conjugate coefficients")
    if m.source != codomain.table or m.target != domain.table:
        raise error("pullback must go from codomain ring to domain ring")
    if not all(domain.ideal.member(m(g).num) for g in codomain.generators):
        raise error("pullback does not send the ideal into the ideal")


class RealStructure(FrozenRecord):
    """Anti-regular self-map squaring to the identity modulo the ideal."""

    _fields = ("surface", "map")
    __slots__ = _fields + ("involution",)  # the square test's outcome, no field

    def __init__(self, surface: SurfacePresentation, map: RingMap):
        super().__init__(surface, map)
        _check_pullback(map, surface, surface, True, NotAntiInvolution)
        object.__setattr__(self, "involution", agree_modulo(
            compose(map, map), RingMap.identity(surface.table), surface.ideal))
        if not self.involution:
            raise NotAntiInvolution("square is not the identity modulo the ideal")


def swap_map(pres_source: SurfacePresentation, pres_target: SurfacePresentation,
             conjugate: bool) -> RingMap:
    """Pullback of the point map (x,y,u,v) -> (u,v,x,y), optionally conjugated."""
    swapped = {"x": "u", "y": "v", "u": "x", "v": "y"}
    images = [RatFunc.var(pres_target.table, swapped.get(n, n)) for n in pres_source.table.names]
    return RingMap(pres_source.table, pres_target.table, images, conjugates_coefficients=conjugate)


# keyed by the parameters alone: within a run make_surface hands out one
# presentation per cooked pair, and the checks build no other
@shared_in_run(lambda surface: (surface.alpha, surface.beta))
def swap_real_structure(surface: SurfacePresentation) -> RealStructure:
    """The real structure on the surface that exchanges the two coordinate
    pairs, (x, y, u, v) -> conj(u, v, x, y).

    Raises NotAntiInvolution unless the surface is diagonal (beta = alpha);
    the parameter, rational or symbolic, is real.
    """
    if surface.alpha != surface.beta:
        raise NotAntiInvolution("the pair-swap conjugation needs beta = alpha")
    return RealStructure(surface, swap_map(surface, surface, conjugate=True))


def standard_conjugation(surface: SurfacePresentation) -> RealStructure:
    """Coordinatewise conjugation; valid when the ideal has real coefficients."""
    return RealStructure(surface, RingMap.conjugation(surface.table))


# ---------------------------------------------------------------------------
# verifications
# ---------------------------------------------------------------------------


def verify_swap_isomorphism(alpha, beta) -> CertifiedReport:
    """The swap (x,y,u,v) -> (u,v,x,y) maps the surface onto the
    parameter-swapped surface; composed with itself it is the identity."""
    report = CertifiedReport("rem-3.2")
    s_ab = make_surface(alpha, beta)
    s_ba = make_surface(s_ab.beta, s_ab.alpha)
    m = swap_map(s_ba, s_ab, conjugate=False)  # pullback: functions on s_ba -> s_ab
    for n, image in enumerate(map(m, s_ba.generators), start=1):
        report.add(f"swap-generator-{n}", s_ab.ideal.member(image.num), witness=str(image.num))
    back = swap_map(s_ab, s_ba, conjugate=False)
    report.add("swap-involution", compose(m, back).is_identity())
    return report


def sigma_report(alpha) -> CertifiedReport:
    """The pair-swap conjugation is an anti-regular involution and its
    pullback permutes the generators as expected."""
    report = CertifiedReport("def-3.1")
    try:
        rho = swap_real_structure(make_surface(alpha))
    except (NotAntiInvolution, ForbiddenParameter) as exc:
        report.add("swap-conjugation-exists", False, witness=str(exc))
        return report
    report.add("swap-conjugation-exists", True)
    s = rho.surface
    g1, g2, g3 = s.generators
    im_g1, im_g3 = rho.map(g1), rho.map(g3)
    report.add("pullback-g1-is-g2", im_g1.is_polynomial() and im_g1.as_poly() == g2)
    report.add("pullback-g3-fixed", im_g3.is_polynomial() and im_g3.as_poly() == g3)
    report.add("involution", rho.involution)
    return report


def generators_report(alpha, beta) -> CertifiedReport:
    """Presentation facts: generator shapes and the residual relation at the
    origin chart point x = u = 0."""
    report = CertifiedReport("def-3.1")
    s = make_surface(alpha, beta)
    x, y, u, v = (s.var(n) for n in COORDS)
    a, b = _param_poly(s.table, s.alpha), _param_poly(s.table, s.beta)
    g1, g2, g3 = s.generators
    report.add("generator-1", g1 == y * u - x * (x - 1) * (x - a))
    report.add("generator-2", g2 == x * v - u * (u - 1) * (u - b))
    report.add("generator-3", g3 == y * v - (x - 1) * (x - a) * (u - 1) * (u - b))
    links = at_parameters(_uv_chart_links, s.table, s.alpha, s.beta)
    residue, same = _fiber(links, "(0,0)", "y*v - a*b")
    report.add("origin-residue", same, witness=str(residue[2]))
    return report


def _uv_chart_images(tbl: VarTable, alpha, beta) -> dict:
    a, b = RatFunc(_param_poly(tbl, alpha)), RatFunc(_param_poly(tbl, beta))
    return dict(zip("yv", chart_yv(RatFunc.var(tbl, "x"), RatFunc.var(tbl, "u"), a, b)))


def _xy_chart_images(tbl: VarTable, alpha, beta) -> dict:
    x, y = RatFunc.var(tbl, "x"), RatFunc.var(tbl, "y")
    a, b = RatFunc(_param_poly(tbl, alpha)), RatFunc(_param_poly(tbl, beta))
    u_img = x * (x - 1) * (x - a) / y
    return {"u": u_img, "v": (x - 1) * (x - a) * (u_img - 1) * (u_img - b) / y}


def _uv_chart_links(tbl: VarTable, alpha, beta) -> dict:
    """What lem-3.5 reads: g3 mapped through the uv chart (0 over 1, as it
    vanishes), x^2 + y^2 pulled back along the projection (x + u, i*x - i*u),
    the generators over (x, u) = (0, 0) and (1, 0), and the residual
    relations expected there."""
    gens = surface_generators(tbl, alpha, beta)
    chart = RingMap.from_images(tbl, tbl, _uv_chart_images(tbl, alpha, beta))
    plane, _, _ = param_ring(("x", "y"), alpha, beta)
    plane_x, plane_y = isotropic_pair(RatFunc.var(tbl, "x"), RatFunc.var(tbl, "u"))
    proj = RingMap.from_images(plane, tbl, {"x": plane_x, "y": plane_y})
    y, v = Poly.var(tbl, "y"), Poly.var(tbl, "v")
    a, b = _param_poly(tbl, alpha), _param_poly(tbl, beta)
    return ({"chart(g3)": chart(gens[2]), "proj(x^2 + y^2)": proj(sum(
                Poly.var(plane, n) ** 2 for n in "xy"))}
            | _fibers(gens, {"(0,0)": {"x": 0, "u": 0}, "(1,0)": {"x": 1, "u": 0}})
            | {"y*v - a*b": y * v - a * b, "v": v})


def _xy_chart_links(tbl: VarTable, alpha, beta) -> dict:
    """What prop-4.1 reads: each generator mapped through the xy chart (all
    vanish), g1 at y = 0 and the cubic x*(x-1)*(x-alpha), the generators
    over (x, y) = (1, 0), and the cubic curve expected there."""
    gens = surface_generators(tbl, alpha, beta)
    chart = RingMap.from_images(tbl, tbl, _xy_chart_images(tbl, alpha, beta))
    x, u, v = (Poly.var(tbl, n) for n in "xuv")
    a, b = _param_poly(tbl, alpha), _param_poly(tbl, beta)
    return ({f"chart({name})": chart(g) for name, g in zip(GENERATOR_NAMES, gens)}
            | {"g1 at y = 0": gens[0].specialize({"y": 0}), "x*(x-1)*(x-a)": x * (x - 1) * (x - a)}
            | _fibers(gens, {"(1,0)": {"x": 1, "y": 0}})
            | {"v - u*(u-1)*(u-b)": v - u * (u - 1) * (u - b)})


@shared_in_run(param_pair)
def verify_modified_plane_chart(alpha, beta) -> CertifiedReport:
    """Chart identities for the projection (x,y,u,v) -> (x+u, i*x-i*u).

    On the chart x*u != 0 the last generator becomes a rational-function
    identity; the pullback of the sum of squares is 4*x*u; the fibers over the
    two special chart points have the stated residual relations.
    """
    report = CertifiedReport("lem-3.5")
    s = make_surface(alpha, beta)
    tbl = s.table
    links = at_parameters(_uv_chart_links, tbl, s.alpha, s.beta)
    g3_image = links["chart(g3)"]
    report.add("chart-last-generator-vanishes", g3_image.is_zero(), witness=str(g3_image))

    pulled = links["proj(x^2 + y^2)"]
    four_xu = 4 * Poly.var(tbl, "x") * Poly.var(tbl, "u")
    report.add("sum-of-squares-pullback", pulled == RatFunc(four_xu), witness=str(pulled.num))

    origin, same = _fiber(links, "(0,0)", "y*v - a*b")
    report.add("fiber-over-origin", same, witness=[str(p) for p in origin])
    one_zero, same = _fiber(links, "(1,0)", "v")
    report.add("fiber-over-(1,0)", same,
               witness={"residual": [str(p) for p in one_zero], "free": "y"})
    return report


@shared_in_run(param_pair)
def verify_xy_projection_chart(alpha, beta) -> CertifiedReport:
    """Chart identities for the projection to the first coordinate pair.

    On y != 0 the remaining coordinates are rational functions of (x, y) and
    all generators vanish identically; at y = 0 the first generator cuts out
    the cubic x*(x-1)*(x-alpha); over (x,y) = (1,0) a full curve survives.
    """
    report = CertifiedReport("prop-4.1")
    s = make_surface(alpha, beta)
    tbl = s.table
    links = at_parameters(_xy_chart_links, tbl, s.alpha, s.beta)
    for k, image in enumerate((links[f"chart({g})"] for g in GENERATOR_NAMES), 1):
        report.add(f"chart-generator-{k}-vanishes", image.is_zero())

    x_p, a_p = Poly.var(tbl, "x"), _param_poly(tbl, s.alpha)
    at_y0, cubic = links["g1 at y = 0"], links["x*(x-1)*(x-a)"]
    report.add("y0-locus-is-cubic", at_y0 == -cubic, witness=str(at_y0))
    # factor theorem: x - r divides the locus exactly when r is a root
    report.add(
        "y0-cubic-roots",
        all(exact_quotient(at_y0, x_p - r) is not None for r in (0, 1, a_p)),
        witness=["0", "1", str(s.alpha)],
    )
    fiber, same = _fiber(links, "(1,0)", "v - u*(u-1)*(u-b)")
    report.add("fiber-over-(1,0)-is-cubic-curve", same, witness=[str(p) for p in fiber])
    return report


@shared_in_run(param_pair)
def verify_plane_automorphism(alpha, beta) -> CertifiedReport:
    """The projective plane map [x:y:z] -> [x + c1*y : c2*y : z] with
    c1 = (alpha-beta)/(1-alpha), c2 = (1-beta)/(1-alpha) fixes the four base
    points on the line y = 0 and moves the tangent direction (beta,1) to a
    scalar multiple of (alpha,1) while fixing the direction (1,1)."""
    report = CertifiedReport("prop-4.1")
    tbl, (a_p, b_p), _ = param_ring(("x", "y", "z"), *param_pair(alpha, beta))
    one = RatFunc(Poly.const(tbl, 1))
    a, b = RatFunc(a_p), RatFunc(b_p)
    c2 = (one - b) / (one - a)
    shown = f"scalar {c2}"  # the RatFunc pair, at a rational pair too
    if a_p.is_constant() and b_p.is_constant():  # all numbers: decide in Q(i)
        one, a, b = ONE, a_p.constant_value(), b_p.constant_value()
        c2 = (one - b) / (one - a)
    zero = one - one
    c1 = (a - b) / (one - a)

    def apply_map(pt):
        px, py, pz = pt
        return (px + c1 * py, c2 * py, pz)

    def proportional(p, q):
        pairs = [(0, 1), (0, 2), (1, 2)]
        return all((p[i] * q[j] - p[j] * q[i]).is_zero() for i, j in pairs)

    fixed_points = {
        "[1:0:0]": (one, zero, zero),
        "[1:0:1]": (one, zero, one),
        "[alpha:0:1]": (a, zero, one),
        "[0:0:1]": (zero, zero, one),
    }
    for label, pt in fixed_points.items():
        report.add(f"fixes-{label}", proportional(apply_map(pt), pt))

    # linear part at the origin acts on tangent directions
    d_fixed = (one + c1 * one, c2 * one)
    report.add("tangent-(1,1)-fixed",
               (d_fixed[0] - c2).is_zero() and (d_fixed[1] - c2).is_zero(),
               witness=shown)
    d_moved = (b + c1 * one, c2 * one)
    report.add("tangent-(beta,1)-to-(alpha,1)",
               (d_moved[0] - c2 * a).is_zero() and (d_moved[1] - c2).is_zero(),
               witness=shown)
    if a_p == b_p:
        report.add("identity-when-beta-equals-alpha",
                   c1.is_zero() and (c2 - one).is_zero())
    return report


def isomorphism_chain_report(alpha1, alpha2, beta1, beta2) -> CertifiedReport:
    """Certified chain from modified-plane(alpha1,alpha2) to
    modified-plane(beta1,beta2) through the surface family.

    Each pair is cooked by param_pair, so two equal specs, even two
    "symbolic", give a diagonal end.  A link's sub-reports come from its
    two end nodes (kind, p, q).
    """
    a1, a2 = param_pair(alpha1, alpha2)
    b1, b2 = param_pair(beta1, beta2)
    w, s = "modified_plane", "surface"
    nodes = [(w, a1, a2), (s, a1, a2), (s, a1, a1), (s, a1, b1),
             (s, b1, a1), (s, b1, b2), (w, b1, b2)]
    chart, plane, swap = ("plane-projection-chart", "xy-chart + plane automorphism",
                          "coordinate-pair swap")
    vias = [chart, plane, plane, swap, plane, chart]
    report = CertifiedReport("prop-4.2")
    for k, (via, src, dst) in enumerate(zip(vias, nodes, nodes[1:]), start=1):
        if via == chart:
            subreports = [verify_modified_plane_chart(*src[1:])]
        elif via == swap:
            subreports = [verify_swap_isomorphism(*src[1:])]
        else:
            ends = (src[1:], dst[1:])
            subreports = ([verify_xy_projection_chart(p, t) for p, t in ends]
                          + [verify_plane_automorphism(p, t) for p, t in ends if t != p])
        failures = [item.claim_id for r in subreports for item in r.failures()]
        report.add(
            f"link-{k}",
            all(r.passed for r in subreports),
            witness={"from": "{}({},{})".format(*src), "to": "{}({},{})".format(*dst),
                     "via": via, **({"failures": failures} if failures else {})},
        )
    return report


# ---------------------------------------------------------------------------
# cocycle and equivalence predicates
# ---------------------------------------------------------------------------


def is_cocycle(presentation: SurfacePresentation, tau: RingMap,
               rho: RealStructure) -> bool:
    """Does tau satisfy (tau . rho)^2 = id modulo the presentation ideal?

    tau must be a regular self-map whose pullback preserves the ideal, or
    NotAutomorphism is raised; rho is a real structure on the same
    presentation.
    """
    _check_pullback(tau, presentation, presentation, False, NotAutomorphism)
    composite = compose(tau, rho.map, tau, rho.map)
    return agree_modulo(composite, RingMap.identity(presentation.table), presentation.ideal)


def are_equivalent_structures(domain: SurfacePresentation, codomain: SurfacePresentation,
                              rho: RealStructure, rho_prime: RealStructure,
                              theta: RingMap) -> bool:
    """Does theta intertwine the two real structures: theta . rho = rho' . theta
    modulo the domain ideal?  theta is given by its pullback (codomain ring to
    domain ring) and must send the codomain ideal into the domain ideal, or
    NotIsomorphism is raised."""
    _check_pullback(theta, codomain, domain, False, NotIsomorphism)
    return agree_modulo(compose(theta, rho.map), compose(rho_prime.map, theta), domain.ideal)


# ---------------------------------------------------------------------------
# the normalizing coordinate change
# ---------------------------------------------------------------------------


def coordinate_change_maps(surface: SurfacePresentation) -> tuple[RingMap, RingMap, VarTable]:
    """Pullbacks of the linear change whose target names, in the order
    (x, u, y, v), denote (x+u, i*x-i*u, y+v, i*y-i*v)."""
    old = surface.table
    new = VarTable(old.names)
    fwd: dict = {}
    inv: dict = {}
    for s, t in (("x", "u"), ("y", "v")):
        fwd[s], fwd[t] = isotropic_pair(RatFunc.var(old, s), RatFunc.var(old, t))
        inv[s], inv[t] = isotropic_inverse(RatFunc.var(new, s), RatFunc.var(new, t))
    return RingMap.from_images(new, old, fwd), RingMap.from_images(old, new, inv), new


def displayed_real_equations(table: VarTable, alpha) -> tuple[Poly, Poly, Poly]:
    """The three real equations of the transformed diagonal surface."""
    x, y, u, v = (Poly.var(table, n) for n in COORDS)
    a = _param_poly(table, alpha)
    h1 = 2 * (x * y + u * v) - (u * u * (2 + 2 * a - 3 * x) + x * (x - 2) * (x - 2 * a))
    h2 = 2 * (y * u - x * v) - u * (u * u + 4 * a * (x - 1) - x * (3 * x - 4))
    h3 = 4 * (y * y + v * v) - (u * u + (x - 2) ** 2) * (u * u + (x - 2 * a) ** 2)
    return h1, h2, h3


def verify_coordinate_change() -> CertifiedReport:
    """After the linear change of coordinates the pair-swap conjugation becomes
    coordinatewise conjugation, and the transformed ideal is generated by three
    real equations; checked symbolically and at the sample value 2."""
    report = CertifiedReport("rem-3.3")
    s = make_surface(ALPHA, ALPHA)
    fwd, inv, new = coordinate_change_maps(s)
    report.add("change-invertible", compose(fwd, inv).is_identity(),
               witness="names (x,u,y,v) denote (x+u, ix-iu, y+v, iy-iv)")

    sigma = swap_real_structure(s)
    lhs = compose(fwd, sigma.map)
    rhs = compose(RingMap.conjugation(new), fwd)
    report.add("conjugation-becomes-coordinatewise",
               agree_modulo(lhs, rhs, Ideal([], new)))

    transformed = [inv(g).num for g in s.generators]  # denominators are nonzero constants
    t1, t2, t3 = transformed
    h1, h2, h3 = displayed_real_equations(new, s.alpha)
    real_ok = all(
        all(c.is_real() for c in h.terms.values()) for h in (h1, h2, h3)
    )
    report.add("displayed-equations-real", real_ok)

    # Both generating sets are constant invertible combinations of each other,
    # so the ideals agree as an identity of polynomials -- no basis needed.
    quotients = [
        exact_quotient(t1 + t2, h1),
        exact_quotient((t1 - t2) * IMAG, h2),
        exact_quotient(t3, h3),
    ]
    combos_ok = all(q is not None and q.is_constant() and not q.is_zero()
                    for q in quotients)
    if combos_ok:
        q1, q2, q3 = (q.constant_value() for q in quotients)
        half = GaussianRational(Fraction(1, 2), 0)
        back_ok = (
            t1 == (h1 * q1 - h2 * q2 * IMAG) * half
            and t2 == (h1 * q1 + h2 * q2 * IMAG) * half
            and t3 == h3 * q3
        )
    else:
        back_ok = False
    report.add(
        "ideal-equality-symbolic", combos_ok and back_ok,
        witness={"combination-quotients": [str(q) for q in quotients]},
    )
    ideal_h = Ideal([h1, h2, h3], new)

    at_2 = _specialize_all([*transformed, h1, h2, h3], {ALPHA: 2})
    report.add("ideal-equality-at-2", Ideal(at_2[:-3], new).equal(Ideal(at_2[-3:], new)))

    new_pres = SurfacePresentation(new, ideal_h, s.alpha, s.beta)  # same names and parameters
    try:
        equivalent = are_equivalent_structures(
            s, new_pres, sigma, standard_conjugation(new_pres), fwd
        )
    except (NotIsomorphism, NotAntiInvolution) as exc:
        report.add_error("equivalence-to-standard-conjugation", witness=str(exc))
        return report
    report.add("equivalence-to-standard-conjugation", equivalent)
    return report


# ---------------------------------------------------------------------------
# point configurations and induced actions
# ---------------------------------------------------------------------------


class Center(FrozenRecord):
    """A blow-up center: a point (x, y) of the affine plane."""

    __slots__ = ("x", "y")

    def label(self) -> str:
        return f"({self.x},{self.y})"


class PointConfiguration(FrozenRecord):
    """Blow-up centers, and the projective boundary forms ``removed``."""

    __slots__ = ("table", "centers", "removed", "units")

    def __init__(self, table: VarTable, centers: tuple[Center, ...], removed: tuple[Poly, ...],
                 units: tuple[Poly, ...]):
        super().__init__(table, centers, removed, units)
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if not self.distinct(centers[i], centers[j]):
                    raise IdenticalPoints(
                        f"centers {i} and {j} are not certifiably distinct"
                    )

    def distinct(self, p: Center, q: Center) -> bool:
        """Are the two centers certifiably distinct for every admissible
        parameter value?"""
        return any(certified_unit(delta, self.units) for delta in (p.x - q.x, p.y - q.y))


def modified_plane_config(alpha, beta=None) -> PointConfiguration:
    """Centers and removed boundary of the modified plane: blow up the five
    points (0,0), (1,i), (alpha, alpha*i), (1,-i), (beta,-beta*i) and remove
    the line at infinity together with the two isotropic lines.

    Symbolic parameters are real: conjugation fixes them.
    """
    tbl, (ap, bp), units = param_ring(GEOMETRY_COORDS, *param_pair(alpha, beta))
    x, y, z = (Poly.var(tbl, n) for n in GEOMETRY_COORDS)
    i_const = Poly.const(tbl, IMAG)
    zero = Poly.zero(tbl)
    one = Poly.const(tbl, 1)
    centers = (
        Center(zero, zero),
        Center(one, i_const),
        Center(ap, ap * IMAG),
        Center(one, -i_const),
        Center(bp, -(bp * IMAG)),
    )
    removed = (z, x + y * IMAG, x - y * IMAG)
    return PointConfiguration(tbl, centers, removed, units)


def lift_real_structure(config: PointConfiguration) -> tuple[int, ...]:
    """Conjugation permutes the centers; return the induced permutation, the
    index of the conjugate of each center.

    Raises NotConjugationStable when some conjugated center is missing from
    the configuration.
    """
    permutation = []
    for k, c in enumerate(config.centers):
        cx, cy = c.x.conjugate(), c.y.conjugate()
        target = next((m for m, d in enumerate(config.centers)
                       if d.x == cx and d.y == cy), None)
        if target is None:
            raise NotConjugationStable(f"conjugate of center {k} is not a center")
        permutation.append(target)
    return tuple(permutation)


def real_locus_report(alpha) -> CertifiedReport:
    """For a real parameter the conjugation fixes exactly the origin among the
    centers and swaps the two isotropic boundary lines; the surviving real
    locus is the real plane blown up at one point, minus a point.

    The conjugation-stable witness is the lifted permutation with its fixed
    centers and two-cycles; the conclusion witness names the fixed centers,
    the swapped center pairs and the swapped boundary lines."""
    report = CertifiedReport("prop-5.1")
    config = modified_plane_config(alpha, alpha)
    perm = lift_real_structure(config)
    fixed = tuple(k for k, m in enumerate(perm) if m == k)
    cycles = tuple((k, m) for k, m in enumerate(perm) if m > k and perm[m] == k)
    every = list(range(len(config.centers)))
    report.add(
        "conjugation-stable",
        sorted(perm) == every and all(perm[m] == k for k, m in enumerate(perm)),
        witness={
            "permutation": list(perm),
            "fixed": list(fixed),
            "two_cycles": [list(c) for c in cycles],
        },
    )
    report.add("fixed-centers", fixed == (0,))
    report.add("swapped-pairs", set(cycles) == {(1, 3), (2, 4)})
    z, plus, minus = config.removed
    infinity_real = z.conjugate() == z
    lines_swapped = plus.conjugate() == minus and minus.conjugate() == plus
    report.add("boundary-line-at-infinity-real", infinity_real)
    report.add("isotropic-lines-swapped", lines_swapped)
    centers = [c.label() for c in config.centers]
    fixed_centers = [centers[k] for k in fixed]
    # Swapped centers and the swapped isotropic lines carry no real points
    # but the origin, so the real locus is the real affine plane (the line
    # at infinity is real and removed) blown up at the fixed centers.
    covered = sorted(fixed + tuple(k for cycle in cycles for k in cycle))
    report.add(
        "conclusion",
        fixed_centers == ["(0,0)"] and covered == every and infinity_real and lines_swapped,
        witness={
            "alpha": str(param_pair(alpha)[0]),
            "fixed_centers": fixed_centers,
            "swapped_center_pairs": [[centers[i], centers[j]] for i, j in cycles],
            "swapped_boundary_lines": [[str(plus), str(minus)]],
            "conclusion": "real locus is the real affine plane blown up at the origin",
        },
    )
    return report


def cocycle_examples_report(alpha=2) -> CertifiedReport:
    """Worked examples for the cocycle and equivalence predicates.

    The pair swap composed with itself is the identity, so the identity
    twist is a cocycle on the diagonal surface; doubling the coordinate on
    the affine line is not; translating by i does not intertwine the
    standard conjugations of the line.
    """
    report = CertifiedReport("sec-2-cocycle")
    s = make_surface(alpha)
    rho = swap_real_structure(s)
    tau = swap_map(s, s, conjugate=False)
    report.add("pair-swap-twist-is-cocycle", is_cocycle(s, tau, rho))

    line = VarTable(("x",))
    whole_line = free_presentation(line)
    x = RatFunc.var(line, "x")
    doubling = RingMap(line, line, [x * 2])
    conj = standard_conjugation(whole_line)
    report.add(
        "coordinate-doubling-is-not-a-cocycle",
        not is_cocycle(whole_line, doubling, conj),
        witness=str(compose(doubling, conj.map, doubling, conj.map).images[0]),
    )

    translation = RingMap(line, line, [x + IMAG])
    report.add(
        "imaginary-translation-does-not-intertwine-conjugations",
        not are_equivalent_structures(whole_line, whole_line, conj, conj, translation),
    )
    return report
