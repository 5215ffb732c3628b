"""Classification of the real surfaces through their negative-curve graphs.

Two parameter values give isomorphic real surfaces exactly when a weighted
isomorphism of their negative-curve incidence graphs, commuting with the
conjugation actions and fixing the structural vertices, is realized by an
invertible linear map of the plane defined over the rationals.  The search
is exact: matchings by backtracking over the 12-vertex graphs, once per
process; witnesses by one solve per matching over Q[a, b] for all pairs, read
at each pair by one integer evaluation of each distinct locus and of the
entries only where the locus vanishes, then one re-check of each candidate
in integers: its determinant, the circle, and the centers on each graph's
own integer center rows.  A result stores the re-check's facts and its
witnesses; Fractions are built only for a witness, and text only for
traces that are read.

Each graph is the symbolic graph read at its own parameter value.  One
symbolic enumeration to degree 1 per process gives the labels, weights,
conjugation action and the five centers, compiled once as one batch for
ring.read_at.  Its lines are polynomial identities in the parameter and
its avoided centers have unit values, built from a and 1 - a, so the shape
holds at every admissible value; its configuration proved the centers
pairwise distinct for every admissible value, so a graph only reads the
centers at its value, all five in one read.  The engine's polynomials are
the same centers read at the names a and b.  Its own loop (_value) reads a
solve at a pair: on loci of two terms it is faster than the general reader.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .intersection import (
    DEFAULT_D_MAX,
    KIND_EXCEPTIONAL,
    LABEL_AT_INFINITY,
    _check_d_max,
    boundary_zigzag_report,
    canonical_form,
    enumerate_negative_classes,
    intersection_matrix,
)
from .reports import CertifiedReport, FrozenRecord, Record
from .ring import Poly, VarTable, compile_reads, read_at
from .surfaces import ALPHA, BETA, lift_real_structure, param_pair, param_ring

ORIGIN_LABEL = "E(0,0)"
PINNED_LABELS = (LABEL_AT_INFINITY, ORIGIN_LABEL)


class CurveIncidenceGraph(FrozenRecord):
    """Weighted graph of the twelve distinguished curves with its conjugation
    action; exceptional vertices carry their blow-up centers.

    ``center_rows`` holds, per vertex, None or an exceptional vertex's center
    as {monomial: (ax, bx, ay, by, d)}: each term (x, y) of its coordinates,
    keyed by the named monomial, with x = (ax + bx*i)/d and y = (ay + by*i)/d
    over the least such d, so centers of different parameter values compare
    coefficientwise.  They are read once per graph from the symbolic shape's
    centers (see _centers_at), so a witness re-check compares integers only.  A
    rational value has one term, keyed (), and a zero center none.
    """

    __slots__ = ("labels", "weights", "real_action", "center_rows")
    __hash__ = None  # the center rows are dicts, which have no hash

    def shape(self) -> tuple:
        """Everything the matching search reads: labels, weights, action."""
        return self.labels, self.weights, self.real_action

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def size(self) -> int:
        return len(self.labels)


@cache
def _graph_shape() -> tuple:
    """Labels, weights, conjugation action, per vertex the index of its
    blow-up center (None for a line), and the centers' (x, y) in a as one
    batch compiled twice by ring.compile_reads, with nothing kept and with a
    kept (see _centers_at), from one symbolic enumeration to degree 1.

    Degree 1 serves every d_max: no class of degree d >= 2 passes the sweep,
    as negativity and genus give sum(m) >= sum(m^2) - (d-1)(d-2) >= 3d - 1,
    and the isotropic lines d >= m0+m1+m2 and d >= m0+m3+m4, so sum(m) <= 2d.

    Each symbolic line through its centers is a polynomial identity in the
    parameter, and each center it avoids has a value that is a constant
    times powers of a and 1 - a, so the table holds at every admissible
    value.  A class left unrealized or undetermined would be settled for
    generic parameters only, so it raises ValueError.
    """
    result = enumerate_negative_classes("symbolic", 1)
    if result.unrealized or result.undetermined:
        raise ValueError(
            "the symbolic table is not settled for every parameter value: "
            f"unrealized {[str(c) for c, _ in result.unrealized]}, "
            f"undetermined {[str(c) for c in result.undetermined]}")
    vertices = result.vertices()
    labels = tuple(r.label for r in vertices)
    weights = tuple(tuple(row) for row in intersection_matrix(vertices))
    center_action = lift_real_structure(result.config)

    action = []
    for r in vertices:
        if r.kind == KIND_EXCEPTIONAL:
            target_center = center_action[r.through[0]]
            target = next(
                i for i, s in enumerate(vertices)
                if s.kind == KIND_EXCEPTIONAL and s.through == (target_center,)
            )
        else:
            conj_form = canonical_form(r.form.conjugate())
            target = next(
                i for i, s in enumerate(vertices)
                if s.form is not None and s.form == conj_form
            )
        action.append(target)
    centers = [p for c in result.config.centers for p in (c.x, c.y)]
    vertex_centers = tuple(r.through[0] if r.kind == KIND_EXCEPTIONAL else None for r in vertices)
    return (labels, weights, tuple(action), vertex_centers,
            (compile_reads(centers, ()), compile_reads(centers, (ALPHA,))))


def incidence_graph(alpha) -> CurveIncidenceGraph:
    """The incidence graph of the diagonal surface at alpha: the symbolic
    graph of _graph_shape, enumerated once per process, with its
    centers' rows read at alpha in integers (see _centers_at).

    The centers are not proved distinct again: modified_plane_config(a, a),
    behind the shape, proved that over Q(i)[a] with the units a and 1 - a,
    so at every alpha that param_pair admits (it refuses 0 and 1).
    """
    shape = _graph_shape()
    return CurveIncidenceGraph(*shape[:3], _centers_at(param_pair(alpha)[0], *shape[3:]))


# ---------------------------------------------------------------------------
# graph matchings
# ---------------------------------------------------------------------------


def admissible_matchings(src: CurveIncidenceGraph,
                         dst: CurveIncidenceGraph) -> list[tuple[int, ...]]:
    """All weight-preserving vertex bijections commuting with the conjugation
    actions and fixing the boundary line at infinity and the origin curve.

    The search depends on the two graph shapes only, so it runs once per
    pair of shapes in a process; every call gets a fresh list.
    """
    return [m for m, _, _ in _shape_matchings(src.shape(), dst.shape())]


@cache
def _matchings() -> tuple[tuple, ...]:
    """_shape_matchings of any two graphs that incidence_graph builds: each
    has the symbolic shape of _graph_shape."""
    shape = _graph_shape()[:3]
    return _shape_matchings(shape, shape)


@cache
def _shape_matchings(src_shape: tuple, dst_shape: tuple) -> tuple[tuple, ...]:
    """The admissible matchings, each with its label pairs as is and sorted."""
    src_labels, src_weights, src_action = src_shape
    dst_labels, dst_weights, dst_action = dst_shape
    n = len(src_labels)
    if n != len(dst_labels):
        return ()
    assignment: dict[int, int] = {}
    used: set[int] = set()
    for label in PINNED_LABELS:
        i, j = src_labels.index(label), dst_labels.index(label)
        assignment[i] = j
        used.add(j)
    free = [i for i in range(n) if i not in assignment]

    def consistent(i: int, j: int) -> bool:
        if dst_weights[j][j] != src_weights[i][i]:
            return False
        for k, l in assignment.items():
            if dst_weights[j][l] != src_weights[i][k]:
                return False
        trial = dict(assignment)
        trial[i] = j
        for k, l in trial.items():
            t = src_action[k]
            if t in trial and trial[t] != dst_action[l]:
                return False
        return True

    out: list[tuple[int, ...]] = []

    def backtrack(pos: int):
        if pos == len(free):
            out.append(tuple(assignment[i] for i in range(n)))
            return
        i = free[pos]
        for j in range(n):
            if j in used or not consistent(i, j):
                continue
            assignment[i] = j
            used.add(j)
            backtrack(pos + 1)
            del assignment[i]
            used.remove(j)

    backtrack(0)
    labelled = [(m, tuple(zip(src_labels, [dst_labels[j] for j in m]))) for m in sorted(out)]
    return tuple([(m, pairs, tuple(sorted(pairs))) for m, pairs in labelled])


# ---------------------------------------------------------------------------
# linear witnesses
# ---------------------------------------------------------------------------


def _centers_at(value, vertex_centers: tuple, forms: tuple) -> tuple:
    """Per vertex, None or its center at a cooked parameter, all read at once
    from _graph_shape's last two items: a rational as one row keyed (), a
    name as a row per power k keyed ((name, k),), or () for k = 0.  A row is
    (ax, bx, ay, by, d) for the term ((ax + bx*i)/d, (ay + by*i)/d) of (x, y)
    over the least such d.  A zero center has no row."""
    named = isinstance(value, str)
    values = {} if named else {ALPHA: (value.numerator, value.denominator)}
    den, parts = read_at(forms[named], values)  # forms: nothing kept, then a kept
    centers = []
    for x, y in zip(parts[::2], parts[1::2]):
        rows = {e: [a, b, 0, 0] for e, a, b in x}
        for e, a, b in y:
            rows.setdefault(e, [0, 0, 0, 0])[2:] = a, b
        for e, (ax, bx, ay, by) in rows.items():
            g = gcd(ax, bx, ay, by, den)
            rows[e] = (ax // g, bx // g, ay // g, by // g, den // g)
        centers.append({((value, e[0]),) if e[0] else (): row for e, row in rows.items()}
                       if named else rows)
    return tuple([None if k is None else centers[k] for k in vertex_centers])


def _center_parts(rows: dict, table: VarTable) -> tuple:
    """A center's rows at a name (see _centers_at) as Polys over the table:
    its (x, y) real parts, then its imaginary parts."""
    parts = [Poly.zero(table)] * 4  # x's and y's real parts, then their imaginary parts
    for key, (ax, bx, ay, by, d) in rows.items():
        power = Poly.var(table, *key[0]) if key else Poly.const(table, 1)
        parts = [p + power * Fraction(n, d) for p, n in zip(parts, (ax, ay, bx, by))]
    return tuple(parts[:2]), tuple(parts[2:])


@cache
def _witness_engine() -> dict:
    """_solve_rows for every matching of _matchings, built on first
    use: the source's centers in a and the target's in b, real and
    imaginary parts apart over Q[a, b], as a and b are real."""
    table, centers = VarTable((ALPHA, BETA)), _graph_shape()[3:]
    src, dst = [[None if rows is None else _center_parts(rows, table)
                 for rows in _centers_at(name, *centers)] for name in (ALPHA, BETA)]
    engine = {}
    for m, _, _ in _matchings():
        pairs = [(src[i], dst[j]) for i, j in enumerate(m)]
        if any((c is None) != (t is None) for c, t in pairs):  # a center to a line
            engine[m] = ((0, 0), (((0, 0, 1),),), (), 1)  # the locus 1: no pair solves it
        else:
            engine[m] = _solve_rows([(*ab, *uv) for c, t in pairs if c for ab, uv in zip(c, t)])
    return engine


def _solve_rows(rows: list) -> tuple:
    """Cramer's rule over Q[a, b] on rows (A, B, U, V), each for A*p + B*q = U
    and A*r + B*s = V, on the first pivot pair whose minor D is a nonzero
    constant (else ValueError): p = P/D, q = Q/D, r = R/D, s = S/D.  Where all
    residuals A*P + B*Q - U*D and A*R + B*S - V*D vanish, these solve every
    row.  Returns the degrees in a and b, the locus (the distinct nonzero
    residuals), and (P, Q, R, S) with their integer denominator, each
    polynomial as sorted integer terms (i, j, c) for c * a**i * b**j."""
    minors = ((r1, r2, r1[0] * r2[1] - r2[0] * r1[1])
              for k, r1 in enumerate(rows) for r2 in rows[k + 1:])
    pivot = next((m for m in minors if m[2] and m[2].is_constant()), None)
    if pivot is None:
        raise ValueError("no pivot pair of the witness rows has a nonzero constant minor")
    (a1, b1, u1, v1), (a2, b2, u2, v2), det = pivot
    entries = (u1 * b2 - u2 * b1, a1 * u2 - a2 * u1, v1 * b2 - v2 * b1, a1 * v2 - a2 * v1)
    p, q, r, s = entries
    locus = list(dict.fromkeys([_primitive(e) for a, b, u, v in rows
                                for e in (a * p + b * q - u * det, a * r + b * s - v * det) if e]))
    d = det.constant_value().re
    scale = lcm(*[c.d for e in entries for c in e.terms.values()]) * d.denominator
    entries = [_integer_terms(e, scale) for e in entries]
    degrees = tuple([max([t[k] for poly in locus + entries for t in poly], default=0)
                     for k in (0, 1)])
    return degrees, tuple(locus), tuple(entries), (scale * d).numerator


def _integer_terms(p: Poly, scale) -> tuple:
    """scale * p as sorted terms (i, j, c), scale clearing every denominator."""
    return tuple(sorted([(*e, int(c.re * scale)) for e, c in p.terms.items()]))


def _primitive(p: Poly) -> tuple:
    """p's terms (see _integer_terms) made monic, then coprime integers."""
    p = p * p.terms[max(p.terms)].inverse()
    return _integer_terms(p, lcm(*[c.d for c in p.terms.values()]))


def _value(poly: tuple, a: tuple, b: tuple, degrees: tuple):
    """An integer polynomial (see _solve_rows) at a = na/da and b = nb/db,
    homogenised to the degrees (ka, kb): its value times da**ka * db**kb."""
    (na, da), (nb, db), (ka, kb) = a, b, degrees
    value = 0
    for i, j, c in poly:
        value += c * na ** i * da ** (ka - i) * nb ** j * db ** (kb - j)
    return value


def _cell_witnesses(alpha, beta, matchings) -> list:
    """Per matching, in order, _witness_engine's solve read at the cooked
    pair (alpha, beta): a rational pair as (numerator, denominator)s and a
    pair with a name as param_ring's Polys over 1.  Each distinct locus
    polynomial is evaluated once per call, and a matching reads its entries
    only where every one of its locus polynomials vanishes; else it gets
    None.  An entry that moves with a name is no constant matrix.  A
    candidate is the integers (P, Q, R, S, m) of the matrix [[P, Q], [R, S]]
    / m, with no Fraction: a named pair clears its entries' denominators
    into m."""
    named = isinstance(alpha, str) or isinstance(beta, str)
    if named:
        a, b = [(v, 1) for v in param_ring((), alpha, beta)[1]]
    else:
        a, b = (alpha.numerator, alpha.denominator), (beta.numerator, beta.denominator)
    engine = _witness_engine()
    # locus polynomial -> its value is nonzero at the pair, for this call only;
    # homogenising to any matching's degrees keeps a value's zero or nonzero
    off: dict = {}
    out = []
    for m in matchings:
        degrees, locus, entries, den = engine[m]
        for poly in locus:
            nonzero = off.get(poly)
            if nonzero is None:
                nonzero = off[poly] = bool(_value(poly, a, b, degrees))
            if nonzero:
                out.append(None)
                break
        else:
            values = [_value(poly, a, b, degrees) for poly in entries]
            scale = den * a[1] ** degrees[0] * b[1] ** degrees[1]
            if named:  # a Poly entry, or 0 for an empty one
                if any([isinstance(v, Poly) and not v.is_constant() for v in values]):
                    out.append(None)
                    continue
                values = [v.constant_value().re if isinstance(v, Poly) else v for v in values]
                clear = lcm(*[v.denominator for v in values])
                values = [(v * clear).numerator for v in values]
                scale *= clear
            out.append((*values, scale))
    return out


def _matrix(candidate: tuple) -> tuple:
    """The candidate (P, Q, R, S, m) as the Fraction matrix [[P, Q], [R, S]] / m."""
    P, Q, R, S, m = candidate
    return (Fraction(P, m), Fraction(Q, m)), (Fraction(R, m), Fraction(S, m))


class IsoWitness(FrozenRecord):
    """An isomorphism's matrix, its sum-of-squares pullback ``scalar``, and its matching."""

    __slots__ = ("matrix", "scalar", "matching", "matching_labels")

    def to_json(self) -> dict:
        return {
            "matrix": [[str(e) for e in row] for row in self.matrix],
            "sum_of_squares_scalar": str(self.scalar),
            "matching": {a: b for a, b in self.matching_labels},
        }


def _checks(candidate: tuple, src: CurveIncidenceGraph, dst: CurveIncidenceGraph,
            matching: tuple[int, ...]) -> tuple:
    """The one re-check of a candidate (P, Q, R, S, m) on the graphs' own
    center rows, never the solver's, all in integers: the determinant
    P*S - Q*R is nonzero, the sum of squares is preserved up to a nonzero
    scalar, and each center (x, y) goes to its matched center (tx, ty):
    x*P + y*Q == m*tx and x*R + y*S == m*ty in Q(i), cross-multiplied over
    the two rows' denominators.  Returns the facts (P, Q, R, S, m,
    determinant numerator, centers carried, circle preserved); the two tests
    read False, unrun, when the determinant is 0."""
    P, Q, R, S, m = candidate
    det = P * S - Q * R
    if not det:
        return (*candidate, det, False, False)
    squares = P * P + R * R  # m*m times the pullback scalar
    circle_ok = P * Q + R * S == 0 and squares == Q * Q + S * S and squares != 0
    return (*candidate, det, _carried(candidate, src, dst, matching), circle_ok)


def _scalar(facts: tuple) -> Fraction | None:
    """The pullback scalar of the sum of squares of a candidate that passes
    every test of _checks, else None."""
    P, _, R, _, m, _, centers_ok, circle_ok = facts
    return Fraction(P * P + R * R, m * m) if centers_ok and circle_ok else None


_ZERO_ROW = (0, 0, 0, 0, 1)


def _carried(candidate: tuple, src: CurveIncidenceGraph, dst: CurveIncidenceGraph,
             matching: tuple[int, ...]) -> bool:
    """The centers test of _checks: a center matched to a line, or a term that
    only one of two matched centers has (read as a zero row), is not carried."""
    P, Q, R, S, m = candidate
    target_rows = dst.center_rows
    for c, j in zip(src.center_rows, matching):
        t = target_rows[j]
        if c is None or t is None:
            if c is not t:
                return False
            continue
        if c.keys() != t.keys():
            keys = c.keys() | t.keys()
            c, t = [{key: rows.get(key, _ZERO_ROW) for key in keys} for rows in (c, t)]
        for key, (ax, bx, ay, by, d) in c.items():
            tax, tbx, tay, tby, e = t[key]
            dm = d * m
            if ((ax * P + ay * Q) * e != tax * dm or (bx * P + by * Q) * e != tbx * dm
                    or (ax * R + ay * S) * e != tay * dm or (bx * R + by * S) * e != tby * dm):
                return False
    return True


def _details(facts: tuple) -> dict:
    """The details dict of a trace, rendered from _checks' facts: the matrix
    and the determinant, then, for a nonzero determinant, both tests and
    the scalar of a preserved circle."""
    P, Q, R, S, m, det, centers_ok, circle_ok = facts
    details: dict = {
        "matrix": [[str(Fraction(P, m)), str(Fraction(Q, m))],
                   [str(Fraction(R, m)), str(Fraction(S, m))]],
        "determinant": str(Fraction(det, m * m)),
    }
    if det:
        details["centers_carried"] = centers_ok
        details["sum_of_squares_preserved"] = circle_ok
        if circle_ok:
            details["sum_of_squares_scalar"] = str(Fraction(P * P + R * R, m * m))
    return details


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class ClassificationResult(Record):
    """A classify result: its witnesses best first and, per admissible
    matching, the re-check's integer facts.  The verdict, the witness, the
    count and the traces are read from these two."""

    __slots__ = ("alpha", "beta", "witnesses", "outcomes", "d_max")

    def __init__(self, alpha: object, beta: object, witnesses: tuple[IsoWitness, ...],
                 outcomes: tuple[tuple, ...], d_max: int):
        self.alpha, self.beta = alpha, beta  # Fraction, or parameter name when symbolic
        # (label pairs, _checks' integer facts or None) per admissible matching
        self.witnesses, self.outcomes, self.d_max = witnesses, outcomes, d_max

    @property
    def equivalent(self) -> bool:
        return bool(self.witnesses)

    @property
    def witness(self) -> IsoWitness | None:
        return self.witnesses[0] if self.witnesses else None

    @property
    def matchings_admissible(self) -> int:
        return len(self.outcomes)

    @property
    def traces(self) -> tuple[dict, ...]:
        """Per admissible matching, its label map, the outcome its facts give
        and, for a checked candidate, the details that _details renders from
        them, as dicts built afresh on each read."""
        return tuple([{"matching": dict(pairs), "outcome": "no linear solution"}
                      if facts is None else
                      {"matching": dict(pairs),
                       "outcome": "solution fails checks" if _scalar(facts) is None else "witness",
                       "details": _details(facts)}
                      for pairs, facts in self.outcomes])

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "equivalent": self.equivalent,
            "witness": None if self.witness is None else self.witness.to_json(),
            "witnesses": [w.to_json() for w in self.witnesses],
            "matchings_admissible": self.matchings_admissible,
            "traces": list(self.traces),
            "d_max": self.d_max,
        }


def classify(alpha, beta, d_max: int = DEFAULT_D_MAX) -> ClassificationResult:
    """Decide whether two parameter values give equivalent real surfaces.

    Exact throughout: every admissible graph matching is examined for a
    rational linear witness and the verdict is positive exactly when some
    witness survives all checks.  Parameters may be rational or symbolic;
    an equal raw pair means the one-parameter diagonal surface.
    """
    _check_d_max(d_max)
    alpha, beta = param_pair(alpha, beta)
    return _classify(alpha, beta, incidence_graph(alpha), incidence_graph(beta), d_max)


def _classify(alpha, beta, src: CurveIncidenceGraph, dst: CurveIncidenceGraph,
              d_max: int = DEFAULT_D_MAX) -> ClassificationResult:
    """classify over cooked parameters (see param_pair) and the graphs
    incidence_graph built for them, whose matchings are _matchings; d_max
    is only echoed.  One _cell_witnesses call decides every matching:
    each distinct locus once, and a matching off its locus keeps no facts,
    with no entry read.  A candidate is re-checked in integers, and only a
    passing one becomes Fractions.  Witnesses are ordered entry by entry on
    |e / m| * L, then + before -, in integers, L being the lcm of the
    passing candidates' scales m."""
    matchings = _matchings()
    candidates = _cell_witnesses(alpha, beta, [m for m, _, _ in matchings])
    passing = []  # (candidate, its IsoWitness)
    outcomes = []
    for (m, label_pairs, sorted_pairs), candidate in zip(matchings, candidates):
        facts = None if candidate is None else _checks(candidate, src, dst, m)
        outcomes.append((label_pairs, facts))
        scalar = None if facts is None else _scalar(facts)
        if scalar is not None:
            passing.append((candidate, IsoWitness(_matrix(candidate), scalar, m, sorted_pairs)))
    if len(passing) > 1:
        L = lcm(*[candidate[4] for candidate, _ in passing])
        passing.sort(key=lambda item: [(abs(e * (L // item[0][4])), e * item[0][4] < 0)
                                       for e in item[0][:4]])
    return ClassificationResult(
        alpha=alpha,
        beta=beta,
        witnesses=tuple([witness for _, witness in passing]),
        outcomes=tuple(outcomes),
        d_max=d_max,
    )


def equivalence_criterion(alpha, beta) -> bool:
    """The closed-form criterion the verdicts are compared against.

    For symbolic parameters the comparison is between names: a parameter
    equals itself, and two independent generic values are never equal nor
    reciprocal.
    """
    return _criterion(*param_pair(alpha, beta))


def _criterion(alpha, beta) -> bool:
    """equivalence_criterion over cooked parameters (see param_pair)."""
    if isinstance(alpha, str) or isinstance(beta, str):
        return alpha == beta
    na, da, nb, db = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    # alpha * beta == 1 or alpha == beta, as both are in lowest terms
    return na * nb == da * db or (na == nb and da == db)


def matchings_report(alpha, beta) -> CertifiedReport:
    """Boundary rigidity: the boundary chain invariants and the count of
    admissible graph matchings between the two parameter values."""
    report = boundary_zigzag_report(alpha)
    src, dst = incidence_graph(alpha), incidence_graph(beta)
    for name, g in (("source", src), ("target", dst)):
        involution = all(g.real_action[g.real_action[i]] == i for i in range(g.size()))
        report.add(f"real-action-involution-{name}", involution,
                   witness=list(g.real_action))
    matchings = admissible_matchings(src, dst)
    report.add(
        "admissible-matchings-count",
        len(matchings) == 4,
        witness=[dict(pairs) for _, pairs, _ in _shape_matchings(src.shape(), dst.shape())],
    )
    pinned_ok = all(
        m[src.index_of(label)] == dst.index_of(label)
        for m in matchings for label in PINNED_LABELS
    )
    report.add("matchings-fix-pinned-vertices", pinned_ok)
    commute_ok = all(
        m[src.real_action[i]] == dst.real_action[m[i]]
        for m in matchings for i in range(src.size())
    )
    report.add("matchings-commute-with-conjugation", commute_ok)
    return report


def classification_report(alpha, beta) -> CertifiedReport:
    """Verdict against the closed-form criterion, with witness validation."""
    report = CertifiedReport("prop-6.3")
    alpha, beta = param_pair(alpha, beta)
    src, dst = incidence_graph(alpha), incidence_graph(beta)
    result = _classify(alpha, beta, src, dst)
    expected = _criterion(result.alpha, result.beta)
    report.add(
        "verdict-matches-criterion",
        result.equivalent == expected,
        witness={
            "alpha": str(result.alpha),
            "beta": str(result.beta),
            "equivalent": result.equivalent,
            "criterion": expected,
            "matchings_admissible": result.matchings_admissible,
        },
    )
    if result.witness is not None:
        # an independent re-check of the returned matrix on the same graphs
        (p, q), (r, s) = result.witness.matrix
        m = lcm(p.denominator, q.denominator, r.denominator, s.denominator)
        facts = _checks((*[e.numerator * (m // e.denominator) for e in (p, q, r, s)], m),
                        src, dst, result.witness.matching)
        scalar = _scalar(facts)
        report.add("witness-valid", scalar is not None and scalar == result.witness.scalar,
                   witness=result.witness.to_json())
        report.add(
            "witness-invertible", p * s - q * r != 0,
            witness=str(p * s - q * r),
        )
    else:
        report.add(
            "no-witness-found", not expected,
            witness={"traces": list(result.traces)},
        )
    return report
