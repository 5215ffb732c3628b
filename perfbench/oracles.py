"""Checks on realforms outputs, computed apart from realforms.

Only ``fractions.Fraction`` arithmetic is used; nothing here imports
realforms.  Each check takes JSON-shaped data (the CLI output, or a result's
``to_json()``) and returns a list of problems; an empty list means the output
is correct.  A Gaussian rational is a pair (re, im) of Fractions.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

CHECK_IDS = frozenset({
    "def-3.1", "rem-3.2", "rem-3.3", "lem-3.5", "prop-4.1", "prop-4.2",
    "prop-5.1", "lem-6.1", "lem-6.2", "prop-6.3", "sec-2-cocycle",
    "def-3.4-rees", "def-3.4-fiber",
})

# Lemma 6.1: the eleven negative curves, each with the centers it passes
# through (numbered as in ``centers``), then the line at infinity.
LEMMA_6_1 = {
    "E(0,0)": (0,), "E(1,i)": (1,), "E(a,ai)": (2,), "E(1,-i)": (3,),
    "E(a,-ai)": (4,), "L(x+iy)": (0, 1, 2), "L(x-iy)": (0, 3, 4),
    "L(x-z)": (1, 3), "L((a+1)x-(a-1)iy-2az)": (1, 4),
    "L((a+1)x+(a-1)iy-2az)": (2, 3), "L(x-az)": (2, 4),
}
LINE_AT_INFINITY = "L(z)"

# Three distinct values at which a polynomial of degree <= 2 in alpha that
# vanishes must vanish identically.
SYMBOLIC_SAMPLES = (Fraction(2), Fraction(3), Fraction(5))

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def criterion(a: Fraction, b: Fraction) -> bool:
    """The closed-form equivalence criterion: alpha = beta or alpha*beta = 1."""
    return a == b or a * b == 1


# -- Gaussian rationals as pairs ---------------------------------------------


def _g(re, im=0) -> tuple[Fraction, Fraction]:
    return Fraction(re), Fraction(im)


def _add(u, v):
    return u[0] + v[0], u[1] + v[1]


def _sub(u, v):
    return u[0] - v[0], u[1] - v[1]


def _mul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def centers(alpha: Fraction) -> tuple:
    """Blow-up centers in the order of Lemma 6.1's exceptional curves:
    (0,0), (1,i), (alpha, alpha*i), (1,-i), (alpha, -alpha*i)."""
    return (
        (_g(0), _g(0)),
        (_g(1), _g(0, 1)),
        (_g(alpha), _g(0, alpha)),
        (_g(1), _g(0, -1)),
        (_g(alpha), _g(0, -alpha)),
    )


def collinear(p, q, r) -> bool:
    """Exact determinant test for three affine points over Q(i)."""
    det = _sub(
        _mul(_sub(q[0], p[0]), _sub(r[1], p[1])),
        _mul(_sub(q[1], p[1]), _sub(r[0], p[0])),
    )
    return det == (0, 0)


# -- witnesses ---------------------------------------------------------------


def witness_problems(matrix, alpha: Fraction, beta: Fraction) -> list[str]:
    """A witness ((p, q), (r, s)) must be invertible, preserve x^2 + y^2 up to
    a nonzero scalar, and carry the centers of alpha onto those of beta."""
    try:
        (p, q), (r, s) = ((Fraction(e) for e in row) for row in matrix)
    except (TypeError, ValueError) as exc:
        return [f"witness matrix unreadable: {exc}"]
    problems = []
    if p * s - q * r == 0:
        problems.append("witness matrix is singular")
    if p * q + r * s != 0 or p * p + r * r != q * q + s * s or p * p + r * r == 0:
        problems.append("witness does not preserve x^2 + y^2")
    gp, gq, gr, gs = _g(p), _g(q), _g(r), _g(s)
    image = {
        (_add(_mul(gp, x), _mul(gq, y)), _add(_mul(gr, x), _mul(gs, y)))
        for x, y in centers(alpha)
    }
    if image != set(centers(beta)):
        problems.append(f"witness does not carry the centers of {alpha} onto those of {beta}")
    return problems


def verdict_problems(equivalent, witness, alpha, beta) -> list[str]:
    """Verdict against the criterion; a witness exactly when equivalent."""
    expected = criterion(alpha, beta)
    where = f"({alpha}, {beta})"
    if equivalent is not expected:
        return [f"verdict {equivalent} at {where}, criterion says {expected}"]
    if not expected:
        return [] if witness is None else [f"witness given for inequivalent {where}"]
    if witness is None:
        return [f"no witness for equivalent {where}"]
    return [f"{where}: {p}" for p in witness_problems(witness["matrix"], alpha, beta)]


def classification_problems(payload: dict, alpha: Fraction, beta: Fraction) -> list[str]:
    """``ClassificationResult.to_json()`` for a classify(alpha, beta) request."""
    problems = verdict_problems(payload.get("equivalent"), payload.get("witness"),
                                alpha, beta)
    for w in payload.get("witnesses", []):
        problems += witness_problems(w["matrix"], alpha, beta)
    return problems


# -- grid ---------------------------------------------------------------------


def grid_problems(payload: dict, values) -> list[str]:
    """The grid over ``values`` covers every ordered pair once, agrees with
    the criterion, is symmetric, and each witness is valid."""
    values = sorted(set(Fraction(v) for v in values))
    problems = []
    if [Fraction(v) for v in payload.get("values", [])] != values:
        problems.append("grid values differ from the input list")
    cells = payload.get("cells", [])
    verdicts = {}
    for cell in cells:
        a, b = Fraction(cell["alpha"]), Fraction(cell["beta"])
        if (a, b) in verdicts:
            problems.append(f"cell ({a}, {b}) repeated")
        verdicts[(a, b)] = cell["equivalent"]
        if cell["criterion"] is not criterion(a, b) or cell["agrees"] is not True:
            problems.append(f"cell ({a}, {b}) misreports the criterion")
        problems += verdict_problems(cell["equivalent"], cell["witness"], a, b)
    expected_pairs = {(a, b) for a in values for b in values}
    if set(verdicts) != expected_pairs or payload.get("pairs") != len(expected_pairs):
        problems.append("grid does not hold each ordered pair exactly once")
    for (a, b), verdict in verdicts.items():
        if verdicts.get((b, a)) is not verdict:
            problems.append(f"grid is not symmetric at ({a}, {b})")
    if payload.get("disagreements") != 0 or payload.get("exit_code") != 0:
        problems.append("grid reports disagreements")
    return problems


# -- negative curves ----------------------------------------------------------


def _record_problems(record: dict, alpha_samples) -> list[str]:
    label = record["label"]
    cls = record["class"]
    d, mults = cls["degree"], cls["multiplicities"]
    problems = []
    if record["self_intersection"] != d * d - sum(m * m for m in mults):
        problems.append(f"{label}: self-intersection is not d^2 - sum m_i^2")
    through = record["through_centers"]
    if d == 0:
        if len(through) != 1 or any(
            m != (-1 if k == through[0] else 0) for k, m in enumerate(mults)
        ):
            problems.append(f"{label}: exceptional class does not match its center")
        return problems
    if d != 1 or any(m != (1 if k in through else 0) for k, m in enumerate(mults)):
        problems.append(f"{label}: class does not match the centers passed through")
        return problems
    if not through:
        return problems  # the line at infinity meets no affine center
    if len(through) < 2:
        problems.append(f"{label}: a line through one center is not determined")
        return problems
    for alpha in alpha_samples:
        pts = centers(alpha)
        on_line = {k for k in range(len(pts))
                   if collinear(pts[through[0]], pts[through[1]], pts[k])}
        if on_line != set(through):
            problems.append(
                f"{label}: passes through centers {sorted(on_line)}, "
                f"reported {sorted(through)} at alpha = {alpha}"
            )
            break
    return problems


def enumeration_problems(payload: dict, alpha) -> list[str]:
    """``EnumerationResult.to_json()``: Lemma 6.1's labels plus L(z), exact
    self-intersections, and lines through exactly the collinear centers.
    For a symbolic alpha the collinearity determinants, of degree at most 2
    in alpha, are tested at three sample values."""
    samples = SYMBOLIC_SAMPLES if isinstance(alpha, str) else (Fraction(alpha),)
    records = payload.get("records", [])
    labels = [r["label"] for r in records]
    problems = []
    if sorted(labels) != sorted(LEMMA_6_1):
        problems.append(f"negative curves {labels} are not Lemma 6.1's eleven")
    for record in records:
        expected = LEMMA_6_1.get(record["label"])
        if expected is not None and tuple(record["through_centers"]) != expected:
            problems.append(f"{record['label']} is reported through centers "
                            f"{record['through_centers']}, not {list(expected)}")
    infinity = payload.get("line_at_infinity") or {}
    if infinity.get("label") != LINE_AT_INFINITY or infinity.get("through_centers"):
        problems.append("the line at infinity is missing")
    for record in records + ([infinity] if infinity else []):
        problems += _record_problems(record, samples)
    return problems


# -- verify -------------------------------------------------------------------


def verify_problems(text: str) -> list[str]:
    """``verify all`` output with all thirteen checks passing (its exit code
    is checked where the command runs)."""
    problems = []
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"verify output is not JSON: {exc}"]
    ids = [c["check_id"] for c in payload.get("checks", [])]
    if sorted(ids) != sorted(CHECK_IDS):
        problems.append(f"verify ran {ids}, not the thirteen checks")
    failing = [c["check_id"] for c in payload.get("checks", []) if c["status"] != "pass"]
    if failing:
        problems.append(f"checks not passing: {failing}")
    if payload.get("summary") != {"pass": 13, "fail": 0, "error": 0}:
        problems.append(f"summary {payload.get('summary')} is not 13 passes")
    if payload.get("exit_code") != 0:
        problems.append("verify reports a nonzero exit code")
    return problems


def normalized(text: str) -> str:
    """Verify output with its timings blanked, for byte comparison."""
    return _ELAPSED.sub('"elapsed_ms": 0', text)


def repeat_problems(first: str, again: str) -> list[str]:
    if normalized(first) != normalized(again):
        return ["verify output differs between repeats at the same parameters"]
    return []


# -- single checks -------------------------------------------------------------


def report_problems(payload: dict, check_id: str, alpha, beta) -> list[str]:
    """``CertifiedReport.to_json()`` from run_check: every claim passes, and
    the prop-6.3 verdict agrees with the criterion."""
    problems = []
    items = payload.get("items", [])
    if payload.get("check_id") != check_id or not items:
        problems.append(f"{check_id}: report is empty or mislabelled")
    failing = [i["claim_id"] for i in items if i["status"] != "pass"]
    if failing or payload.get("status") != "pass":
        problems.append(f"{check_id} at ({alpha}, {beta}): claims not passing {failing}")
    if check_id == "prop-6.3":
        verdict = next((i for i in items if i["claim_id"] == "verdict-matches-criterion"),
                       None)
        if verdict is None or verdict["witness"]["equivalent"] is not criterion(alpha, beta):
            problems.append(f"prop-6.3 at ({alpha}, {beta}): verdict disagrees with criterion")
    return problems
