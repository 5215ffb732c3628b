"""Classification of the real surfaces through their negative-curve graphs.

Two parameter values give isomorphic real surfaces exactly when a weighted
isomorphism of their negative-curve incidence graphs, commuting with the
conjugation actions and fixing the structural vertices, is realized by an
invertible linear map of the plane defined over the rationals.  The search
is exact: matchings by backtracking over the 12-vertex graphs, once per graph
shape; witnesses by one integer 2x2 minor per matching, on pivot rows fixed
once per source graph, then determinant and circle tests on integers and a
re-check of the centers in Q(i) from the graphs' terms, not the rows.

Each graph is the symbolic graph read at its own parameter value.  One
symbolic enumeration per d_max in a process gives the labels, weights,
conjugation action and the terms of the five centers.  Its lines are
polynomial identities in the parameter and its avoided centers have unit
values, built from a and 1 - a, so the shape holds at every admissible
value; its configuration proved the centers pairwise distinct for every
admissible value, so a graph only evaluates the centers' terms.
"""
from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm

from .gaussian import ZERO, GaussianRational
from .intersection import (
    DEFAULT_D_MAX,
    KIND_EXCEPTIONAL,
    LABEL_AT_INFINITY,
    boundary_zigzag_report,
    canonical_form,
    enumerate_negative_classes,
    intersection_matrix,
)
from .reports import CertifiedReport
from .ring import Poly
from .surfaces import ALPHA, lift_real_structure, param_pair

ORIGIN_LABEL = "E(0,0)"
PINNED_LABELS = (LABEL_AT_INFINITY, ORIGIN_LABEL)


@dataclass(frozen=True)
class CurveIncidenceGraph:
    """Weighted graph of the twelve distinguished curves with its conjugation
    action; exceptional vertices carry their blow-up centers.

    ``center_terms`` holds each center's coordinates term by term, keyed by
    the named monomial, so that centers of different parameter values
    compare coefficientwise.  Derived once per graph: ``center_numerators``,
    the terms over one denominator, and ``solve_source``, the graph's side of
    every witness solve from it: rows, pivot rows and key sets.
    """

    labels: tuple[str, ...]
    weights: tuple[tuple[int, ...], ...]
    real_action: tuple[int, ...]
    # {monomial: (x coefficient, y coefficient)} per exceptional vertex, else None
    center_terms: tuple[object, ...]
    # the same over one denominator: (d, {monomial: d * (Re x, Im x, Re y, Im y)})
    center_numerators: tuple[object, ...] = field(init=False, repr=False, compare=False)
    # (rows, pivot rows or None, key set per vertex), see _solve_source
    solve_source: tuple = field(init=False, repr=False, compare=False)

    __hash__ = None  # the center terms are dicts, which have no hash

    def __post_init__(self):
        # tuple(list), not tuple(generator), which resizes and so never reuses freed tuples
        numerators = tuple([None if t is None else _numerators(t) for t in self.center_terms])
        object.__setattr__(self, "center_numerators", numerators)
        object.__setattr__(self, "solve_source", _solve_source(numerators))

    def shape(self) -> tuple:
        """Everything the matching search reads: labels, weights, action."""
        return self.labels, self.weights, self.real_action

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def size(self) -> int:
        return len(self.labels)


@cache
def _graph_shape(d_max: int) -> tuple:
    """Labels, weights, conjugation action and, per vertex, the named terms
    of its blow-up center in a (None for a line), from one symbolic
    enumeration.

    Each symbolic line through its centers is a polynomial identity in the
    parameter, and each center it avoids has a value that is a constant
    times powers of a and 1 - a, so the table holds at every admissible
    value.  A class left unrealized or undetermined would be settled for
    generic parameters only, so it raises ValueError.
    """
    result = enumerate_negative_classes("symbolic", d_max)
    if result.unrealized or result.undetermined:
        raise ValueError(
            f"the symbolic table at d_max {d_max} is not settled for every "
            f"parameter value: unrealized {[str(c) for c, _ in result.unrealized]}, "
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
    centers = [_named_terms(c.x, c.y) for c in result.config.centers]
    center_terms = tuple(centers[r.through[0]] if r.kind == KIND_EXCEPTIONAL else None
                         for r in vertices)
    return labels, weights, tuple(action), center_terms


def incidence_graph(alpha, d_max: int = DEFAULT_D_MAX) -> CurveIncidenceGraph:
    """The incidence graph of the diagonal surface at alpha: the symbolic
    graph of _graph_shape, enumerated once per d_max in a process, with its
    centers' terms read at alpha.

    The centers are not proved distinct again: modified_plane_config(a, a),
    behind the shape, proved that over Q(i)[a] with the units a and 1 - a,
    so at every alpha that param_pair admits (it refuses 0 and 1).
    """
    labels, weights, action, center_terms = _graph_shape(d_max)
    value = param_pair(alpha)[0]
    return CurveIncidenceGraph(labels, weights, action, tuple(
        [None if t is None else _terms_at(t, value) for t in center_terms]))


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


def matching_as_labels(src: CurveIncidenceGraph, dst: CurveIncidenceGraph,
                       matching: tuple[int, ...]) -> dict:
    return {src.labels[i]: dst.labels[j] for i, j in enumerate(matching)}


# ---------------------------------------------------------------------------
# linear witnesses
# ---------------------------------------------------------------------------


def _named_terms(x: Poly, y: Poly) -> dict:
    """The coordinates (x, y) of a center term by term: named monomial ->
    (x coefficient, y coefficient), a missing coefficient being zero."""
    out: dict = {}
    for k, p in enumerate((x, y)):
        names = p.table.names
        for exps, coeff in p.terms.items():
            key = () if not any(exps) else tuple(  # most centers are constant
                sorted((name, e) for name, e in zip(names, exps) if e))
            pair = out.setdefault(key, [ZERO, ZERO])
            pair[k] = coeff
    return {key: tuple(pair) for key, pair in out.items()}


def _terms_at(terms: dict, value) -> dict:
    """A symbolic center's terms, each a constant or in a alone, read at a
    cooked parameter: a name renames a, a rational sums c * value**k into
    the constant term."""
    if isinstance(value, str):
        return {tuple([(value, k) for _, k in key]): pair for key, pair in terms.items()}
    x = y = None
    for key, (cx, cy) in terms.items():
        if key:
            s = value ** dict(key)[ALPHA]
            cx, cy = cx * s, cy * s
        x, y = (cx, cy) if x is None else (x + cx, y + cy)
    return {(): (x, y)} if x or y else {}


def _numerators(terms: dict) -> tuple[int, dict]:
    """A center's terms over their common denominator d, as integers."""
    d, out = 1, {}
    for x, y in terms.values():
        d = lcm(d, x.d, y.d)
    for key, (x, y) in terms.items():
        sx, sy = d // x.d, d // y.d
        out[key] = (x.a * sx, x.b * sx, y.a * sy, y.b * sy)
    return d, out


def _solve_source(numerators: tuple) -> tuple:
    """A graph's side of every witness solve in which it is the source: its
    rows (vertex, key, part, a, b, d), the real part (0) and then the
    imaginary (1) of the term's x and y numerators over their denominator d;
    the pivot rows, the first with a or b nonzero and the first whose minor
    with it is nonzero (a target's denominator dt > 0 only scales a and b,
    so which minors vanish depends on the source alone); and each vertex's
    key set, the keys of its nonzero terms (None for a line)."""
    rows, keys = [], []
    for i, c in enumerate(numerators):
        if c is None:
            keys.append(None)
            continue
        d, terms = c
        keys.append(frozenset([key for key, n in terms.items() if any(n)]))
        for key, (xa, xb, ya, yb) in terms.items():
            rows.append((i, key, 0, xa, ya, d))
            rows.append((i, key, 1, xb, yb, d))
    first = next((row for row in rows if row[3] or row[4]), None)
    second = None if first is None else next(
        (row for row in rows if first[3] * row[4] - row[3] * first[4]), None)
    return tuple(rows), None if second is None else (first, second), tuple(keys)


@cache
def _refuses(src_keys: tuple, dst_keys: tuple, matching: tuple[int, ...]) -> bool:
    """Whether the matching fails before any row is read: a center matched to
    a line or a line to a center, or a nonzero target term that the source
    lacks (its equation reads 0 = t).  Keyed by the matching and the two key
    signatures, which every rational graph shares, and never by values."""
    for i, j in enumerate(matching):
        c, t = src_keys[i], dst_keys[j]
        if (c is None) != (t is None) or c is not None and not t <= c:
            return True
    return False


def solve_linear_witness(src: CurveIncidenceGraph, dst: CurveIncidenceGraph,
                         matching: tuple[int, ...]):
    """Rational 2x2 matrix realizing the matching on blow-up centers, or None.

    The matrix rows act on the plane coordinates; equations come from each
    center of the source being carried to the matched center of the target,
    monomial by monomial (a center may involve a symbolic parameter, and the
    matrix entries are rational constants), as real and imaginary integer
    rows (a, b, u, v) with a*p + b*q = u and a*r + b*s = v, the source's side
    prepared once per graph (see _solve_source).  The pivot rows' minor D
    fixes the only candidate by Cramer's rule, p = P/D, q = Q/D, r = R/D and
    s = S/D; it is the solution exactly when every row has a*P + b*Q = u*D
    and a*R + b*S = v*D.
    """
    rows, pivots, keys = src.solve_source
    if pivots is None or _refuses(keys, dst.solve_source[2], matching):
        return None
    targets = dst.center_numerators

    def equation(i, key, part, a, b, d):
        dt, t = targets[matching[i]]
        t = t.get(key, (0, 0, 0, 0))
        return a * dt, b * dt, t[part] * d, t[part + 2] * d

    (a1, b1, u1, v1), (a2, b2, u2, v2) = [equation(*row) for row in pivots]
    det = a1 * b2 - a2 * b1
    p, q = u1 * b2 - u2 * b1, a1 * u2 - a2 * u1
    r, s = v1 * b2 - v2 * b1, a1 * v2 - a2 * v1
    for row in rows:
        a, b, u, v = equation(*row)
        if a * p + b * q != u * det or a * r + b * s != v * det:
            return None
    return (Fraction(p, det), Fraction(q, det)), (Fraction(r, det), Fraction(s, det))


@dataclass(frozen=True)
class IsoWitness:
    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    scalar: Fraction  # pullback factor of the sum of squares
    matching: tuple[int, ...]
    matching_labels: tuple[tuple[str, str], ...]

    def to_json(self) -> dict:
        return {
            "matrix": [[str(e) for e in row] for row in self.matrix],
            "sum_of_squares_scalar": str(self.scalar),
            "matching": {a: b for a, b in self.matching_labels},
        }


def _witness_checks(matrix, src: CurveIncidenceGraph, dst: CurveIncidenceGraph,
                    matching: tuple[int, ...]) -> tuple[bool, Fraction | None, dict]:
    (p, q), (r, s) = matrix
    details: dict = {"matrix": [[str(p), str(q)], [str(r), str(s)]]}
    # the determinant and circle tests on the matrix [[P, Q], [R, S]] / m
    m = lcm(p.denominator, q.denominator, r.denominator, s.denominator)
    P, Q, R, S = (e.numerator * (m // e.denominator) for e in (p, q, r, s))
    det = Fraction(P * S - Q * R, m * m)
    details["determinant"] = str(det)
    if det == 0:
        return False, None, details
    # the centers again, in Q(i) on center_terms rather than on the solver's rows
    gp, gq, gr, gs = (GaussianRational(e) for e in (p, q, r, s))
    pairs = [(src.center_terms[i], dst.center_terms[j]) for i, j in enumerate(matching)]
    zero = (ZERO, ZERO)
    centers_ok = all(c is t for c, t in pairs if c is None or t is None) and all(
        cx * gp + cy * gq == tx and cx * gr + cy * gs == ty
        for c, t in pairs if c is not None
        for key in c.keys() | t.keys()
        for (cx, cy), (tx, ty) in [(c.get(key, zero), t.get(key, zero))])
    details["centers_carried"] = centers_ok
    squares = P * P + R * R  # m*m times the pullback scalar
    circle_ok = P * Q + R * S == 0 and squares == Q * Q + S * S and squares != 0
    details["sum_of_squares_preserved"] = circle_ok
    if circle_ok:
        scalar = Fraction(squares, m * m)
        details["sum_of_squares_scalar"] = str(scalar)
    ok = centers_ok and circle_ok
    return ok, (scalar if ok else None), details


def _witness_key(w: IsoWitness):
    flat = [e for row in w.matrix for e in row]
    return tuple((abs(e), 0 if e >= 0 else 1) for e in flat)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class ClassificationResult:
    """A classify verdict, its witnesses best first, and every matching's
    outcome as data; traces renders them only when read."""

    alpha: object  # Fraction, or parameter name when symbolic
    beta: object
    equivalent: bool
    witness: IsoWitness | None
    witnesses: tuple[IsoWitness, ...]
    matchings_admissible: int
    # (label pairs, outcome, details or None) per admissible matching
    outcomes: tuple[tuple, ...]
    d_max: int

    @property
    def traces(self) -> tuple[dict, ...]:
        """Per admissible matching, its label map, outcome and the checks'
        details, as dicts rendered afresh from ``outcomes`` on each read."""
        return tuple([{"matching": dict(pairs), "outcome": outcome} if details is None
                      else {"matching": dict(pairs), "outcome": outcome,
                            "details": deepcopy(details)}
                      for pairs, outcome, details in self.outcomes])

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
    alpha, beta = param_pair(alpha, beta)
    return _classify(alpha, beta, d_max,
                     incidence_graph(alpha, d_max), incidence_graph(beta, d_max))


def _classify(alpha, beta, d_max: int, src: CurveIncidenceGraph,
              dst: CurveIncidenceGraph, matchings: tuple | None = None) -> ClassificationResult:
    """classify over cooked parameters (see param_pair) and the graphs
    incidence_graph built for them at this d_max; a caller that has looked
    up the graphs' _shape_matchings may pass them."""
    if matchings is None:
        matchings = _shape_matchings(src.shape(), dst.shape())
    witnesses = []
    outcomes = []
    for m, label_pairs, sorted_pairs in matchings:
        matrix = solve_linear_witness(src, dst, m)
        if matrix is None:
            outcomes.append((label_pairs, "no linear solution", None))
            continue
        ok, scalar, details = _witness_checks(matrix, src, dst, m)
        if not ok:
            outcomes.append((label_pairs, "solution fails checks", details))
            continue
        witness = IsoWitness(
            matrix=(tuple(matrix[0]), tuple(matrix[1])),
            scalar=scalar,
            matching=m,
            matching_labels=sorted_pairs,
        )
        witnesses.append(witness)
        outcomes.append((label_pairs, "witness", details))
    witnesses.sort(key=_witness_key)
    return ClassificationResult(
        alpha=alpha,
        beta=beta,
        equivalent=bool(witnesses),
        witness=witnesses[0] if witnesses else None,
        witnesses=tuple(witnesses),
        matchings_admissible=len(matchings),
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
    return alpha == beta or alpha * beta == 1


def matchings_report(alpha, beta, d_max: int = DEFAULT_D_MAX) -> CertifiedReport:
    """Boundary rigidity: the boundary chain invariants and the count of
    admissible graph matchings between the two parameter values."""
    report = boundary_zigzag_report(alpha)
    src = incidence_graph(alpha, d_max)
    dst = incidence_graph(beta, d_max)
    for name, g in (("source", src), ("target", dst)):
        involution = all(g.real_action[g.real_action[i]] == i for i in range(g.size()))
        report.add(f"real-action-involution-{name}", involution,
                   witness=list(g.real_action))
    matchings = admissible_matchings(src, dst)
    report.add(
        "admissible-matchings-count",
        len(matchings) == 4,
        witness=[matching_as_labels(src, dst, m) for m in matchings],
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


def classification_report(alpha, beta, d_max: int = DEFAULT_D_MAX) -> CertifiedReport:
    """Verdict against the closed-form criterion, with witness validation."""
    report = CertifiedReport("prop-6.3")
    alpha, beta = param_pair(alpha, beta)
    src = incidence_graph(alpha, d_max)
    dst = incidence_graph(beta, d_max)
    result = _classify(alpha, beta, d_max, src, dst)
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
        valid, scalar, _ = _witness_checks(result.witness.matrix, src, dst,
                                           result.witness.matching)
        report.add("witness-valid", valid and scalar == result.witness.scalar,
                   witness=result.witness.to_json())
        (p, q), (r, s) = result.witness.matrix
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
