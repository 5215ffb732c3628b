"""The two-parameter affine surface family, its charts and real structures.

The family lives in affine 4-space with coordinates (x, y, u, v) and two
parameters; a parameter is either an exact rational (excluded values 0 and 1)
or a named symbolic variable appended to the polynomial ring.  The three
defining equations are

    y*u = x*(x-1)*(x-alpha)
    x*v = u*(u-1)*(u-beta)
    y*v = (x-1)*(x-alpha)*(u-1)*(u-beta)

Everything here is exact; chart identities are verified as rational-function
identities and residual claims as ideal equalities.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    ConjugationUndefined,
    ForbiddenParameter,
    IdenticalPoints,
    NotAntiInvolution,
    NotAutomorphism,
    NotIsomorphism,
    NotConjugationStable,
)
from .gaussian import GaussianRational, I as IMAG
from .groebner import Ideal, certified_unit, exact_quotient, member_with_denominators
from .reports import CertifiedReport
from .ring import Poly, RatFunc, RingMap, VarTable, compose

ALPHA = "a"
BETA = "b"
COORDS = ("x", "y", "u", "v")


def _cook_param(spec, default_name: str):
    """Normalize a parameter: Fraction for rational, str for symbolic."""
    if isinstance(spec, str):
        if spec == "symbolic":
            return default_name
        if not spec.isidentifier() or spec in COORDS:
            raise ValueError(f"bad symbolic parameter name {spec!r}")
        return spec
    value = Fraction(spec)
    if value in (0, 1):
        raise ForbiddenParameter(f"parameter value {value} is excluded")
    return value


def param_pair(alpha, beta=None) -> tuple:
    """Normalize a raw (alpha, beta) pair; beta defaults to alpha.

    An equal raw spec means the diagonal surface, even for "symbolic".
    """
    a = _cook_param(alpha, ALPHA)
    b = a if beta is None or beta == alpha else _cook_param(beta, BETA)
    return a, b


def _param_names(*cooked) -> tuple[str, ...]:
    names = []
    for c in cooked:
        if isinstance(c, str) and c not in names:
            names.append(c)
    return tuple(sorted(names))


def param_str(cooked) -> str:
    return cooked if isinstance(cooked, str) else str(cooked)


@dataclass(frozen=True)
class SurfacePresentation:
    """A surface in affine 4-space given by explicit generators."""

    table: VarTable
    ideal: Ideal
    alpha: object  # Fraction or symbolic name
    beta: object
    denominators: tuple[Poly, ...]

    @property
    def generators(self) -> tuple[Poly, ...]:
        return self.ideal.generators

    def var(self, name: str) -> Poly:
        return Poly.var(self.table, name)


def _param_poly(table: VarTable, cooked) -> Poly:
    if isinstance(cooked, str):
        return Poly.var(table, cooked)
    return Poly.const(table, cooked)


def _param_units(table: VarTable, cooked_params) -> tuple[Poly, ...]:
    units = []
    for c in cooked_params:
        if isinstance(c, str):
            p = Poly.var(table, c)
            units.append(p)
            units.append(1 - p)
    return tuple(units)


def surface_table(alpha, beta, real_params: bool = False) -> VarTable:
    names = COORDS + _param_names(alpha, beta)
    generic = () if real_params else _param_names(alpha, beta)
    return VarTable(names, generic=generic)


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


def make_surface(alpha, beta=None, real_params: bool = False) -> SurfacePresentation:
    """Build the surface presentation; beta defaults to alpha.

    Parameters are exact rationals (0 and 1 rejected) or symbolic names;
    symbolic names are flagged generic unless real_params is set.
    """
    alpha, beta = param_pair(alpha, beta)
    table = surface_table(alpha, beta, real_params)
    gens = surface_generators(table, alpha, beta)
    return SurfacePresentation(
        table=table,
        ideal=Ideal(list(gens), table),
        alpha=alpha,
        beta=beta,
        denominators=_param_units(table, (alpha, beta)),
    )


def free_presentation(table: VarTable) -> SurfacePresentation:
    """The whole affine space over the table (the zero ideal, no
    denominators), for the generic predicates below."""
    return SurfacePresentation(
        table=table,
        ideal=Ideal([], table),
        alpha=None,
        beta=None,
        denominators=(),
    )


def _nonzero_ideal(polys: Sequence[Poly], table: VarTable) -> Ideal:
    """The ideal generated by the nonzero members of polys (a specialization
    can send a generator to zero)."""
    return Ideal([p for p in polys if not p.is_zero()], table)


def _maps_into_ideal(m: RingMap, source_ideal: Ideal, target_ideal: Ideal,
                     denominators: Sequence[Poly]) -> bool:
    """Does the substitution send every source generator into the target ideal?"""
    for g in source_ideal.generators:
        image = m(g)
        if member_with_denominators(image.num, target_ideal, denominators) is None:
            return False
    return True


def agree_modulo(left: RingMap, right: RingMap, ideal: Ideal,
                 denominators: Sequence[Poly]) -> bool:
    """Do two maps between the same tables agree modulo the ideal?

    The conjugation flags must match, and each pair of images must differ
    by a member of the ideal once the given denominators are inverted.
    """
    if left.conjugates_coefficients != right.conjugates_coefficients:
        return False
    for l, r in zip(left.images, right.images):
        delta = l.num * r.den - r.num * l.den
        if member_with_denominators(delta, ideal, denominators) is None:
            return False
    return True


@dataclass(frozen=True)
class AntiRegularMap:
    """Anti-regular map between presentations, stored as its pullback."""

    domain: SurfacePresentation
    codomain: SurfacePresentation
    map: RingMap

    def __post_init__(self):
        if not self.map.conjugates_coefficients:
            raise NotAntiInvolution("pullback must conjugate coefficients")
        if self.map.source != self.codomain.table or self.map.target != self.domain.table:
            raise ValueError("pullback must go from codomain ring to domain ring")
        if not _maps_into_ideal(
            self.map, self.codomain.ideal, self.domain.ideal, self.domain.denominators,
        ):
            raise NotIsomorphism("pullback does not send the ideal into the ideal")


@dataclass(frozen=True)
class RealStructure:
    """Anti-regular self-map squaring to the identity modulo the ideal."""

    surface: SurfacePresentation
    map: RingMap

    def __post_init__(self):
        try:
            AntiRegularMap(self.surface, self.surface, self.map)
        except ConjugationUndefined as exc:
            raise NotAntiInvolution(str(exc)) from exc
        square = compose(self.map, self.map)
        if not agree_modulo(square, RingMap.identity(self.surface.table),
                            self.surface.ideal, self.surface.denominators):
            raise NotAntiInvolution("square is not the identity modulo the ideal")


def swap_map(pres_source: SurfacePresentation, pres_target: SurfacePresentation,
             conjugate: bool) -> RingMap:
    """Pullback of the point map (x,y,u,v) -> (u,v,x,y), optionally conjugated."""
    table_t = pres_target.table
    images = []
    swap_names = {"x": "u", "y": "v", "u": "x", "v": "y"}
    for name in pres_source.table.names:
        images.append(RatFunc.var(table_t, swap_names.get(name, name)))
    return RingMap(pres_source.table, table_t, images, conjugates_coefficients=conjugate)


def swap_real_structure(alpha, surface: SurfacePresentation | None = None) -> RealStructure:
    """The real structure exchanging the two coordinate pairs with conjugation.

    Requires the diagonal surface (beta = alpha) with a conjugation-stable
    parameter: rational, or symbolic flagged real.  A generic symbolic
    parameter raises NotAntiInvolution.
    """
    if surface is None:
        surface = make_surface(alpha, alpha, real_params=True)
    if surface.alpha != surface.beta:
        raise NotAntiInvolution("the pair-swap conjugation needs beta = alpha")
    try:
        m = swap_map(surface, surface, conjugate=True)
        return RealStructure(surface, m)
    except ConjugationUndefined as exc:
        raise NotAntiInvolution(str(exc)) from exc


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
    g_ab = s_ab.generators
    g_ba = s_ba.generators
    # images of the swapped surface's generators, expected to be generators again
    expected = {0: g_ab[1], 1: g_ab[0], 2: g_ab[2]}
    for k, g in enumerate(g_ba):
        image = m(g)
        exact = image.is_polynomial() and image.as_poly() == expected[k]
        report.add(
            f"swap-generator-{k + 1}",
            exact or member_with_denominators(image.num, s_ab.ideal, s_ab.denominators) is not None,
            witness=str(image.num),
        )
    back = swap_map(s_ab, s_ba, conjugate=False)
    round_trip = compose(m, back)
    report.add("swap-involution", round_trip.is_identity())
    return report


def sigma_report(alpha) -> CertifiedReport:
    """The pair-swap conjugation is an anti-regular involution and its
    pullback permutes the generators as expected."""
    report = CertifiedReport("def-3.1")
    try:
        rho = swap_real_structure(alpha)
    except (NotAntiInvolution, ForbiddenParameter) as exc:
        report.add("swap-conjugation-exists", False, witness=str(exc))
        return report
    report.add("swap-conjugation-exists", True)
    s = rho.surface
    g1, g2, g3 = s.generators
    im_g1 = rho.map(g1)
    im_g3 = rho.map(g3)
    report.add("pullback-g1-is-g2", im_g1.is_polynomial() and im_g1.as_poly() == g2)
    report.add("pullback-g3-fixed", im_g3.is_polynomial() and im_g3.as_poly() == g3)
    square = compose(rho.map, rho.map)
    report.add("involution",
               agree_modulo(square, RingMap.identity(s.table), s.ideal, s.denominators))
    return report


def generators_report(alpha, beta) -> CertifiedReport:
    """Presentation facts: generator shapes and the residual relation at the
    origin chart point x = u = 0."""
    report = CertifiedReport("def-3.1")
    s = make_surface(alpha, beta)
    x, y, u, v = (s.var(n) for n in COORDS)
    a = _param_poly(s.table, s.alpha)
    b = _param_poly(s.table, s.beta)
    g1, g2, g3 = s.generators
    report.add("generator-1", g1 == y * u - x * (x - 1) * (x - a))
    report.add("generator-2", g2 == x * v - u * (u - 1) * (u - b))
    report.add("generator-3", g3 == y * v - (x - 1) * (x - a) * (u - 1) * (u - b))
    residue = [g.specialize({"x": 0, "u": 0}) for g in s.generators]
    target = Ideal([y * v - a * b], s.table)
    report.add(
        "origin-residue",
        _nonzero_ideal(residue, s.table).equal(target),
        witness=str(residue[2]),
    )
    return report


def verify_modified_plane_chart(alpha, beta) -> CertifiedReport:
    """Chart identities for the projection (x,y,u,v) -> (x+u, i*x-i*u).

    On the chart x*u != 0 the last generator becomes a rational-function
    identity; the pullback of the sum of squares is 4*x*u; the fibers over the
    two special chart points have the stated residual relations.
    """
    report = CertifiedReport("lem-3.5")
    s = make_surface(alpha, beta)
    tbl = s.table
    x, y, u, v = (RatFunc.var(tbl, n) for n in COORDS)
    a = RatFunc(_param_poly(tbl, s.alpha))
    b = RatFunc(_param_poly(tbl, s.beta))
    chart = RingMap.from_images(tbl, tbl, {
        "x": x,
        "y": x * (x - 1) * (x - a) / u,
        "u": u,
        "v": u * (u - 1) * (u - b) / x,
    })
    g3_image = chart(s.generators[2])
    report.add("chart-last-generator-vanishes", g3_image.is_zero(), witness=str(g3_image))

    plane = VarTable(("x", "y") + _param_names(s.alpha, s.beta),
                     generic=tbl.generic)
    proj = RingMap.from_images(plane, tbl, {"x": x + u, "y": x * IMAG - u * IMAG})
    xx = Poly.var(plane, "x")
    yy = Poly.var(plane, "y")
    pulled = proj(xx * xx + yy * yy)
    four_xu = 4 * Poly.var(tbl, "x") * Poly.var(tbl, "u")
    report.add("sum-of-squares-pullback", pulled == RatFunc(four_xu), witness=str(pulled.num))

    x_p, y_p, u_p, v_p = (Poly.var(tbl, n) for n in COORDS)
    a_p = _param_poly(tbl, s.alpha)
    b_p = _param_poly(tbl, s.beta)
    origin = [g.specialize({"x": 0, "u": 0}) for g in s.generators]
    report.add(
        "fiber-over-origin",
        _nonzero_ideal(origin, tbl).equal(Ideal([y_p * v_p - a_p * b_p], tbl)),
        witness=[str(p) for p in origin],
    )
    one_zero = [g.specialize({"x": 1, "u": 0}) for g in s.generators]
    report.add(
        "fiber-over-(1,0)",
        _nonzero_ideal(one_zero, tbl).equal(Ideal([v_p], tbl)),
        witness={"residual": [str(p) for p in one_zero], "free": "y"},
    )
    return report


def verify_xy_projection_chart(alpha, beta) -> CertifiedReport:
    """Chart identities for the projection to the first coordinate pair.

    On y != 0 the remaining coordinates are rational functions of (x, y) and
    all generators vanish identically; at y = 0 the first generator cuts out
    the cubic x*(x-1)*(x-alpha); over (x,y) = (1,0) a full curve survives.
    """
    report = CertifiedReport("prop-4.1")
    s = make_surface(alpha, beta)
    tbl = s.table
    x, y = RatFunc.var(tbl, "x"), RatFunc.var(tbl, "y")
    a = RatFunc(_param_poly(tbl, s.alpha))
    b = RatFunc(_param_poly(tbl, s.beta))
    u_img = x * (x - 1) * (x - a) / y
    v_img = (x - 1) * (x - a) * (u_img - 1) * (u_img - b) / y
    chart = RingMap.from_images(tbl, tbl, {"x": x, "y": y, "u": u_img, "v": v_img})
    for k, g in enumerate(s.generators):
        image = chart(g)
        report.add(f"chart-generator-{k + 1}-vanishes", image.is_zero())

    x_p, u_p, v_p = (Poly.var(tbl, n) for n in ("x", "u", "v"))
    a_p = _param_poly(tbl, s.alpha)
    b_p = _param_poly(tbl, s.beta)
    at_y0 = s.generators[0].specialize({"y": 0})
    cubic = x_p * (x_p - 1) * (x_p - a_p)
    report.add("y0-locus-is-cubic", at_y0 == -cubic, witness=str(at_y0))
    # factor theorem: x - r divides the locus exactly when r is a root
    report.add(
        "y0-cubic-roots",
        all(exact_quotient(at_y0, x_p - r) is not None for r in (0, 1, a_p)),
        witness=["0", "1", param_str(s.alpha)],
    )
    fiber = [g.specialize({"x": 1, "y": 0}) for g in s.generators]
    expected = Ideal([v_p - u_p * (u_p - 1) * (u_p - b_p)], tbl)
    report.add(
        "fiber-over-(1,0)-is-cubic-curve",
        _nonzero_ideal(fiber, tbl).equal(expected),
        witness=[str(p) for p in fiber],
    )
    return report


def verify_plane_automorphism(alpha, beta) -> CertifiedReport:
    """The projective plane map [x:y:z] -> [x + c1*y : c2*y : z] with
    c1 = (alpha-beta)/(1-alpha), c2 = (1-beta)/(1-alpha) fixes the four base
    points on the line y = 0 and moves the tangent direction (beta,1) to a
    scalar multiple of (alpha,1) while fixing the direction (1,1)."""
    report = CertifiedReport("prop-4.1")
    a_spec, b_spec = param_pair(alpha, beta)
    names = _param_names(a_spec, b_spec)
    tbl = VarTable(("x", "y", "z") + names, generic=names)
    one = RatFunc(Poly.const(tbl, 1))
    zero = RatFunc(Poly.zero(tbl))
    a = RatFunc(_param_poly(tbl, a_spec))
    b = RatFunc(_param_poly(tbl, b_spec))
    c1 = (a - b) / (one - a)
    c2 = (one - b) / (one - a)

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
               witness=f"scalar {c2}")
    d_moved = (b + c1 * one, c2 * one)
    report.add("tangent-(beta,1)-to-(alpha,1)",
               (d_moved[0] - c2 * a).is_zero() and (d_moved[1] - c2).is_zero(),
               witness=f"scalar {c2}")
    if a_spec == b_spec:
        report.add("identity-when-beta-equals-alpha",
                   c1.is_zero() and (c2 - one).is_zero())
    return report


def isomorphism_chain_report(alpha1, alpha2, beta1, beta2) -> CertifiedReport:
    """Certified chain from modified-plane(alpha1,alpha2) to
    modified-plane(beta1,beta2) through the surface family."""
    a1 = _cook_param(alpha1, "a")
    a2 = _cook_param(alpha2, "b")
    b1 = _cook_param(beta1, "c")
    b2 = _cook_param(beta2, "d")
    report = CertifiedReport("prop-4.2")

    def node_w(p, q):
        return f"modified_plane({param_str(p)},{param_str(q)})"

    def node_s(p, q):
        return f"surface({param_str(p)},{param_str(q)})"

    links = [
        (node_w(a1, a2), node_s(a1, a2), "plane-projection-chart",
         [verify_modified_plane_chart(a1, a2)]),
        (node_s(a1, a2), node_s(a1, a1), "xy-chart + plane automorphism",
         [verify_xy_projection_chart(a1, a2), verify_xy_projection_chart(a1, a1),
          verify_plane_automorphism(a1, a2)]),
        (node_s(a1, a1), node_s(a1, b1), "xy-chart + plane automorphism",
         [verify_xy_projection_chart(a1, b1), verify_plane_automorphism(a1, b1)]),
        (node_s(a1, b1), node_s(b1, a1), "coordinate-pair swap",
         [verify_swap_isomorphism(a1, b1)]),
        (node_s(b1, a1), node_s(b1, b2), "xy-chart + plane automorphism",
         [verify_xy_projection_chart(b1, a1), verify_xy_projection_chart(b1, b2),
          verify_plane_automorphism(b1, a1), verify_plane_automorphism(b1, b2)]),
        (node_s(b1, b2), node_w(b1, b2), "plane-projection-chart",
         [verify_modified_plane_chart(b1, b2)]),
    ]
    for k, (src, dst, via, subreports) in enumerate(links, start=1):
        ok = all(r.passed for r in subreports)
        failures = [item.claim_id for r in subreports for item in r.failures()]
        report.add(
            f"link-{k}",
            ok,
            witness={"from": src, "to": dst, "via": via,
                     **({"failures": failures} if failures else {})},
        )
    return report


# ---------------------------------------------------------------------------
# cocycle and equivalence predicates
# ---------------------------------------------------------------------------


def _as_map(rho) -> RingMap:
    if isinstance(rho, (RealStructure, AntiRegularMap)):
        return rho.map
    return rho


def is_cocycle(presentation: SurfacePresentation, tau: RingMap, rho) -> bool:
    """Does tau satisfy (tau . rho)^2 = id modulo the presentation ideal?

    tau must be a regular self-map whose pullback preserves the ideal;
    rho is a real structure (or its pullback map) on the same presentation.
    """
    rho_map = _as_map(rho)
    if tau.conjugates_coefficients:
        raise NotAutomorphism("tau must be regular, not anti-regular")
    if not _maps_into_ideal(tau, presentation.ideal, presentation.ideal,
                            presentation.denominators):
        raise NotAutomorphism("pullback of tau does not preserve the ideal")
    composite = compose(tau, rho_map, tau, rho_map)
    return agree_modulo(composite, RingMap.identity(presentation.table),
                        presentation.ideal, presentation.denominators)


def are_equivalent_structures(domain: SurfacePresentation, codomain: SurfacePresentation,
                              rho, rho_prime, theta: RingMap) -> bool:
    """Does theta intertwine the two real structures: theta . rho = rho' . theta
    modulo the domain ideal?  theta is given by its pullback (codomain ring to
    domain ring) and must send the codomain ideal into the domain ideal."""
    rho_map = _as_map(rho)
    rho_prime_map = _as_map(rho_prime)
    if theta.conjugates_coefficients:
        raise NotIsomorphism("theta must be a regular map")
    if theta.source != codomain.table or theta.target != domain.table:
        raise NotIsomorphism("theta pullback must map the codomain ring to the domain ring")
    if not _maps_into_ideal(theta, codomain.ideal, domain.ideal, domain.denominators):
        raise NotIsomorphism("pullback of theta does not send ideal into ideal")
    return agree_modulo(compose(theta, rho_map), compose(rho_prime_map, theta),
                        domain.ideal, domain.denominators)


# ---------------------------------------------------------------------------
# the normalizing coordinate change
# ---------------------------------------------------------------------------


def coordinate_change_maps(surface: SurfacePresentation) -> tuple[RingMap, RingMap, VarTable]:
    """Pullbacks of the linear change whose target names, in the order
    (x, u, y, v), denote (x+u, i*x-i*u, y+v, i*y-i*v)."""
    old = surface.table
    new = VarTable(old.names, generic=old.generic)
    x_o, y_o, u_o, v_o = (Poly.var(old, n) for n in COORDS)
    fwd = RingMap.from_images(new, old, {
        "x": RatFunc(x_o + u_o),
        "u": RatFunc(x_o * IMAG - u_o * IMAG),
        "y": RatFunc(y_o + v_o),
        "v": RatFunc(y_o * IMAG - v_o * IMAG),
    })
    x_n, y_n, u_n, v_n = (Poly.var(new, n) for n in COORDS)
    half = Fraction(1, 2)
    inv = RingMap.from_images(old, new, {
        "x": RatFunc((x_n - u_n * IMAG) * half),
        "u": RatFunc((x_n + u_n * IMAG) * half),
        "y": RatFunc((y_n - v_n * IMAG) * half),
        "v": RatFunc((y_n + v_n * IMAG) * half),
    })
    return fwd, inv, new


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
    s = make_surface(ALPHA, ALPHA, real_params=True)
    fwd, inv, new = coordinate_change_maps(s)
    report.add("change-invertible", compose(fwd, inv).is_identity(),
               witness="names (x,u,y,v) denote (x+u, ix-iu, y+v, iy-iv)")

    sigma = swap_real_structure(s.alpha, s)
    lhs = compose(fwd, sigma.map)
    rhs = compose(RingMap.conjugation(new), fwd)
    report.add("conjugation-becomes-coordinatewise",
               agree_modulo(lhs, rhs, Ideal([], new), ()))

    transformed = []
    for g in s.generators:
        image = inv(g)
        transformed.append(image.num)  # denominator is a nonzero constant
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

    spec_t = Ideal([p.specialize({ALPHA: 2}) for p in transformed], new)
    spec_h = Ideal([p.specialize({ALPHA: 2}) for p in (h1, h2, h3)], new)
    report.add("ideal-equality-at-2", spec_t.equal(spec_h))

    new_pres = SurfacePresentation(
        table=new, ideal=ideal_h, alpha=s.alpha, beta=s.beta,
        denominators=_param_units(new, (s.alpha, s.beta)),
    )
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


@dataclass(frozen=True)
class Center:
    """A blow-up center: a point (x, y) of the affine plane."""

    x: Poly
    y: Poly

    def label(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class PointConfiguration:
    table: VarTable
    centers: tuple[Center, ...]
    removed: tuple[Poly, ...]  # projective boundary forms removed from the blow-up
    units: tuple[Poly, ...]

    def __post_init__(self):
        for i in range(len(self.centers)):
            for j in range(i + 1, len(self.centers)):
                if not self.distinct(self.centers[i], self.centers[j]):
                    raise IdenticalPoints(
                        f"centers {i} and {j} are not certifiably distinct"
                    )

    def distinct(self, p: Center, q: Center) -> bool:
        """Are the two centers certifiably distinct for every admissible
        parameter value?"""
        return any(certified_unit(delta, self.units) for delta in (p.x - q.x, p.y - q.y))


GEOMETRY_COORDS = ("x", "y", "z")


def modified_plane_config(alpha, beta=None) -> PointConfiguration:
    """Centers and removed boundary of the modified plane: blow up the five
    points (0,0), (1,i), (alpha, alpha*i), (1,-i), (beta,-beta*i) and remove
    the line at infinity together with the two isotropic lines.

    Symbolic parameters are real: conjugation fixes them.
    """
    a, b = param_pair(alpha, beta)
    tbl = VarTable(GEOMETRY_COORDS + _param_names(a, b))
    x, y, z = (Poly.var(tbl, n) for n in GEOMETRY_COORDS)
    ap = _param_poly(tbl, a)
    bp = _param_poly(tbl, b)
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
    return PointConfiguration(tbl, centers, removed, _param_units(tbl, (a, b)))


@dataclass
class InducedActionReport:
    permutation: tuple[int, ...]
    fixed: tuple[int, ...]
    two_cycles: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "fixed": list(self.fixed),
            "two_cycles": [list(c) for c in self.two_cycles],
        }


def lift_real_structure(config: PointConfiguration) -> InducedActionReport:
    """Conjugation permutes the centers; return the induced permutation.

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
    fixed = tuple(k for k, m in enumerate(permutation) if m == k)
    cycles = tuple(
        (k, m) for k, m in enumerate(permutation) if m > k and permutation[m] == k
    )
    return InducedActionReport(tuple(permutation), fixed, cycles)


@dataclass
class FixedPointReport:
    alpha: str
    fixed_centers: list[str]
    swapped_center_pairs: list[list[str]]
    swapped_boundary_lines: list[list[str]]
    conclusion: str

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "fixed_centers": self.fixed_centers,
            "swapped_center_pairs": self.swapped_center_pairs,
            "swapped_boundary_lines": self.swapped_boundary_lines,
            "conclusion": self.conclusion,
        }


def real_locus_report(alpha) -> tuple[CertifiedReport, FixedPointReport]:
    """For a real parameter the conjugation fixes exactly the origin among the
    centers and swaps the two isotropic boundary lines; the surviving real
    locus is the real plane blown up at one point, minus a point."""
    report = CertifiedReport("prop-5.1")
    config = modified_plane_config(alpha, alpha)
    action = lift_real_structure(config)
    perm = action.permutation
    every = list(range(len(config.centers)))
    report.add(
        "conjugation-stable",
        sorted(perm) == every and all(perm[m] == k for k, m in enumerate(perm)),
        witness=action.to_json(),
    )
    report.add("fixed-centers", action.fixed == (0,))
    report.add("swapped-pairs", set(action.two_cycles) == {(1, 3), (2, 4)})
    z, plus, minus = config.removed
    infinity_real = z.conjugate() == z
    lines_swapped = plus.conjugate() == minus and minus.conjugate() == plus
    report.add("boundary-line-at-infinity-real", infinity_real)
    report.add("isotropic-lines-swapped", lines_swapped)
    centers = [c.label() for c in config.centers]
    fp = FixedPointReport(
        alpha=param_str(param_pair(alpha)[0]),
        fixed_centers=[centers[k] for k in action.fixed],
        swapped_center_pairs=[[centers[i], centers[j]] for i, j in action.two_cycles],
        swapped_boundary_lines=[[str(plus), str(minus)]],
        conclusion="real locus is the real affine plane blown up at the origin",
    )
    # Swapped centers and the swapped isotropic lines carry no real points
    # but the origin, so the real locus is the real affine plane (the line
    # at infinity is real and removed) blown up at the fixed centers.
    covered = sorted(action.fixed + tuple(k for cycle in action.two_cycles for k in cycle))
    report.add(
        "conclusion",
        fp.fixed_centers == ["(0,0)"] and covered == every and infinity_real and lines_swapped,
        witness=fp.to_json(),
    )
    return report, fp


def cocycle_examples_report(alpha=2) -> CertifiedReport:
    """Worked examples for the cocycle and equivalence predicates.

    The pair swap composed with itself is the identity, so the identity
    twist is a cocycle on the diagonal surface; doubling the coordinate on
    the affine line is not; translating by i does not intertwine the
    standard conjugations of the line.
    """
    report = CertifiedReport("sec-2-cocycle")
    s = make_surface(alpha, None, real_params=True)
    rho = swap_real_structure(s.alpha, s)
    tau = swap_map(s, s, conjugate=False)
    report.add("pair-swap-twist-is-cocycle", is_cocycle(s, tau, rho))

    line = VarTable(("x",))
    whole_line = free_presentation(line)
    x = RatFunc.var(line, "x")
    doubling = RingMap(line, line, [x * 2])
    conj = RingMap.conjugation(line)
    report.add(
        "coordinate-doubling-is-not-a-cocycle",
        not is_cocycle(whole_line, doubling, conj),
        witness=str(compose(doubling, conj, doubling, conj).images[0]),
    )

    translation = RingMap(line, line, [x + IMAG])
    report.add(
        "imaginary-translation-does-not-intertwine-conjugations",
        not are_equivalent_structures(whole_line, whole_line, conj, conj, translation),
    )
    return report
