"""Graph matchings, rational witnesses, and the equivalence classification."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from realforms import classification, intersection
from realforms.classification import (
    ORIGIN_LABEL,
    PINNED_LABELS,
    ClassificationResult,
    CurveIncidenceGraph,
    IsoWitness,
    _classify,
    admissible_matchings,
    classification_report,
    classify,
    equivalence_criterion,
    incidence_graph,
    matchings_report,
)
from realforms.checks import run_check
from realforms.errors import ForbiddenParameter
from realforms.gaussian import ZERO, GaussianRational
from realforms.cli import run_grid
from realforms.intersection import (
    DEFAULT_D_MAX,
    KIND_EXCEPTIONAL,
    LABEL_AT_INFINITY,
    EnumerationResult,
    _combinatorial_survivors,
    canonical_form,
    enumerate_negative_classes,
    intersection_matrix,
)
from realforms.ring import Poly, VarTable
from realforms.surfaces import lift_real_structure, modified_plane_config, param_pair

from test_gaussian import row_reduce  # the field-side oracle

GRID = sorted({
    Fraction(p) for p in (
        "-3", "-2", "-1/2", "-1/3", "-5", "1/3", "1/2", "2", "3", "5",
        "2/5", "5/2", "7/3", "3/7",
    )
})


def brute_force_matchings(src, dst):
    """Exhaustive search over all vertex bijections fixing the two pinned
    vertices, filtered by weight preservation and conjugation-equivariance.
    Bijections are only generated within equal self-intersection groups,
    which weight preservation forces anyway."""
    n = src.size()
    pin_src = [src.index_of(label) for label in PINNED_LABELS]
    pin_dst = [dst.index_of(label) for label in PINNED_LABELS]
    free_src = {}
    free_dst = {}
    for i in range(n):
        if i not in pin_src:
            free_src.setdefault(src.weights[i][i], []).append(i)
    for j in range(n):
        if j not in pin_dst:
            free_dst.setdefault(dst.weights[j][j], []).append(j)
    if sorted(free_src) != sorted(free_dst):
        return []
    groups = sorted(free_src)
    if any(len(free_src[g]) != len(free_dst[g]) for g in groups):
        return []

    found = []

    def assemble(choices):
        m = [None] * n
        for i, j in zip(pin_src, pin_dst):
            m[i] = j
        for g, perm in zip(groups, choices):
            for i, j in zip(free_src[g], perm):
                m[i] = j
        return m

    def product_of_permutations(groups_left, chosen):
        if not groups_left:
            m = assemble(chosen)
            ok = all(
                dst.weights[m[i]][m[j]] == src.weights[i][j]
                for i in range(n) for j in range(i, n)
            )
            if ok and all(
                m[src.real_action[i]] == dst.real_action[m[i]] for i in range(n)
            ):
                found.append(tuple(m))
            return
        g = groups_left[0]
        for perm in permutations(free_dst[g]):
            product_of_permutations(groups_left[1:], chosen + [perm])

    product_of_permutations(groups, [])
    return sorted(found)


def named_terms(x, y):
    """A center's coordinates term by term: named monomial -> (x
    coefficient, y coefficient), a missing coefficient being zero."""
    terms = {}
    for k, p in enumerate((x, y)):
        for exps, c in p.terms.items():
            key = tuple(sorted((n, e) for n, e in zip(p.table.names, exps) if e))
            terms.setdefault(key, [ZERO, ZERO])[k] = c
    return {key: tuple(pair) for key, pair in terms.items()}


def q_i_rows(terms):
    """Q(i) center terms as the integer rows of CurveIncidenceGraph: each
    (x, y) as (ax, bx, ay, by, d) over the least denominator d."""
    rows = {}
    for key, (x, y) in terms.items():
        parts = (x.re, x.im, y.re, y.im)
        d = lcm(*[e.denominator for e in parts])
        rows[key] = (*[int(e * d) for e in parts], d)
    return rows


def enumerated_graph(alpha, d_max):
    """The incidence graph built from an enumeration at alpha itself, with
    the action read from that table's own centers and conjugate forms."""
    result = enumerate_negative_classes(alpha, d_max)
    vertices = result.vertices()
    config = result.config
    center_action = lift_real_structure(config)
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
    center_rows = []
    for r in vertices:
        if r.kind == KIND_EXCEPTIONAL:
            c = config.centers[r.through[0]]
            center_rows.append(q_i_rows(named_terms(c.x, c.y)))
        else:
            center_rows.append(None)
    return CurveIncidenceGraph(
        labels=tuple(r.label for r in vertices),
        weights=tuple(tuple(row) for row in intersection_matrix(vertices)),
        real_action=tuple(action),
        center_rows=tuple(center_rows),
    )


def center_terms(graph, vertex):
    """The Q(i) terms of a vertex's center, read back from the graph's
    integer rows, or None for a line."""
    rows = graph.center_rows[vertex]
    if rows is None:
        return None
    return {key: (GaussianRational(Fraction(ax, d), Fraction(bx, d)),
                  GaussianRational(Fraction(ay, d), Fraction(by, d)))
            for key, (ax, bx, ay, by, d) in rows.items()}


# -- incidence graphs ---------------------------------------------------------


# -1 makes a + 1 vanish, which the symbolic labels of two lines contain
GRAPH_VALUES = [
    -1, Fraction(-1, 2), Fraction(1, 2), 2, 3, Fraction(1, 3), Fraction(-7, 3),
    "symbolic", "b",
]


@pytest.mark.parametrize("value", GRAPH_VALUES)
def test_graph_from_the_symbolic_shape_equals_the_enumerated_graph(value):
    # the one graph, whatever the degree bound of the enumeration at the value
    g = incidence_graph(value)
    for d_max in range(1, 7):
        assert g == enumerated_graph(value, d_max), (value, d_max)


# the exceptional vertices, in the order modified_plane_config lists its centers
CENTER_LABELS = ("E(0,0)", "E(1,i)", "E(a,ai)", "E(1,-i)", "E(a,-ai)")


@pytest.mark.parametrize("value", [v for v in GRAPH_VALUES if not isinstance(v, str)])
def test_center_rows_are_the_centers_at_the_value(value):
    # each rational graph's rows read back as the centers of the modified
    # plane at the value, read straight off its configuration, in lowest terms
    centers = modified_plane_config(value, value).centers
    g = incidence_graph(value)
    for vertex, label in enumerate(g.labels):
        if label not in CENTER_LABELS:
            assert g.center_rows[vertex] is None, (value, label)
            continue
        c = centers[CENTER_LABELS.index(label)]
        x, y = c.x.constant_value(), c.y.constant_value()
        assert center_terms(g, vertex) == ({(): (x, y)} if x or y else {}), (value, label)
        for row in g.center_rows[vertex].values():
            assert all(type(n) is int for n in row) and row[4] > 0 and gcd(*row) == 1
    # and they are the rows of the graph enumerated at the value at every d_max
    for d_max in range(1, 7):
        assert enumerated_graph(value, d_max).center_rows == g.center_rows, (value, d_max)


@pytest.mark.parametrize("value", [Fraction(7, 3), "symbolic"])
def test_a_graph_reads_its_five_centers_in_one_read(monkeypatch, value):
    incidence_graph(2)  # warm _graph_shape, which compiles the centers and reads none
    reads = []
    read_at = classification.read_at
    monkeypatch.setattr(classification, "read_at",
                        lambda *args: reads.append(args) or read_at(*args))
    g = incidence_graph(value)
    assert len(reads) == 1
    assert sum(rows is not None for rows in g.center_rows) == 5


@pytest.mark.parametrize("value, name", [("symbolic", "a"), ("b", "b")])
def test_a_name_keys_each_power_of_a_center(value, name):
    g = incidence_graph(value)
    a = ((name, 1),)
    assert {label: g.center_rows[g.index_of(label)] for label in CENTER_LABELS} == {
        "E(0,0)": {},
        "E(1,i)": {(): (1, 0, 0, 1, 1)},
        "E(a,ai)": {a: (1, 0, 0, 1, 1)},
        "E(1,-i)": {(): (1, 0, 0, -1, 1)},
        "E(a,-ai)": {a: (1, 0, 0, -1, 1)},
    }


def test_graph_shape_refuses_an_unsettled_symbolic_table(monkeypatch):
    enumerate_real = classification.enumerate_negative_classes

    def unsettled(alpha, d_max):
        result = enumerate_real(alpha, d_max)
        *kept, line = result.records
        return EnumerationResult(result.config, tuple(kept), result.line_at_infinity,
                                 result.candidates_scanned, result.unrealized,
                                 (line.cls,), result.d_max)

    classification._graph_shape.cache_clear()
    monkeypatch.setattr(classification, "enumerate_negative_classes", unsettled)
    try:
        with pytest.raises(ValueError, match="not settled"):
            incidence_graph(2)
    finally:
        classification._graph_shape.cache_clear()


def test_graph_shape_is_enumerated_once_per_process():
    classification._graph_shape.cache_clear()
    for value in (2, Fraction(-7, 3), "symbolic"):
        incidence_graph(value)
    info = classification._graph_shape.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a classify or a grid at any d_max reads that same one shape
    for d_max in (1, 3, 9):
        classify(2, 3, d_max=d_max)
        run_grid([2, Fraction(1, 2)], d_max=d_max)
    info = classification._graph_shape.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_a_large_d_max_sweeps_to_degree_1_only(monkeypatch):
    # the sweep admits no class above degree 1 (see _graph_shape), so a cold
    # classify or grid at a large d_max sweeps to degree 1 and gives what
    # d_max 6 gives, but for the echoed d_max
    expected = [classify(2, 3, d_max=6).to_json(), run_grid([2, Fraction(1, 2)], d_max=6)]
    survivors, swept = intersection._combinatorial_survivors, []

    def recording(d_max):
        swept.append(d_max)
        return survivors(d_max)

    for cached in (classification._graph_shape, classification._matchings,
                   classification._witness_engine, survivors):
        cached.cache_clear()
    monkeypatch.setattr(intersection, "_combinatorial_survivors", recording)
    found = [classify(2, 3, d_max=16).to_json(), run_grid([2, Fraction(1, 2)], d_max=18)]
    assert swept == [1]
    assert [payload.pop("d_max") for payload in found] == [16, 18]
    assert [payload.pop("d_max") for payload in expected] == [6, 6]
    assert found == expected



def test_graph_shape():
    g = incidence_graph(2)
    assert g.size() == 12
    assert LABEL_AT_INFINITY in g.labels and ORIGIN_LABEL in g.labels
    i = g.index_of(ORIGIN_LABEL)
    plus = g.index_of("L(x+iy)")
    minus = g.index_of("L(x-iy)")
    assert g.weights[i][plus] == 1 and g.weights[i][minus] == 1
    # the conjugation action swaps the two isotropic boundary lines
    assert g.real_action[plus] == minus and g.real_action[minus] == plus
    # and fixes the pinned vertices
    z = g.index_of(LABEL_AT_INFINITY)
    assert g.real_action[z] == z and g.real_action[i] == i
    # the line at infinity meets no exceptional curve
    for label in ("E(0,0)", "E(1,i)", "E(a,ai)", "E(1,-i)", "E(a,-ai)"):
        assert g.weights[z][g.index_of(label)] == 0


def test_real_action_is_weight_preserving_involution():
    for value in (2, Fraction(1, 2), "symbolic"):
        g = incidence_graph(value)
        act = g.real_action
        assert all(act[act[i]] == i for i in range(g.size()))
        assert all(
            g.weights[act[i]][act[j]] == g.weights[i][j]
            for i in range(g.size()) for j in range(g.size())
        )


def test_graph_is_unhashable_but_comparable():
    # the center terms are dicts, so the graph declares itself unhashable
    g = incidence_graph(2)
    with pytest.raises(TypeError, match="CurveIncidenceGraph"):
        hash(g)
    assert g == incidence_graph(2)
    assert g != incidence_graph(3)  # same shape, other centers
    assert g.shape() == incidence_graph(3).shape()


def test_grid_graphs_rest_on_the_symbolic_distinctness_proof(monkeypatch):
    from realforms import cli
    from realforms.surfaces import PointConfiguration, modified_plane_config

    incidence_graph(2)  # warm _graph_shape, whose enumeration builds one
    built = []
    init = PointConfiguration.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointConfiguration, "__init__", counting)
    payload = cli.run_grid([2, Fraction(1, 2), 3])
    assert payload["pairs"] == 9 and payload["disagreements"] == 0
    assert built == []
    modified_plane_config(2, 2)  # the counter sees a configuration built
    assert len(built) == 1


def test_grid_graphs_build_no_polynomial_ring(monkeypatch):
    # each graph evaluates the symbolic centers' terms at its value
    from realforms import cli, surfaces

    incidence_graph(2)  # warm _graph_shape
    calls = []
    param_ring = surfaces.param_ring

    def counting(*args):
        calls.append(args)
        return param_ring(*args)

    monkeypatch.setattr(surfaces, "param_ring", counting)
    payload = cli.run_grid([2, Fraction(1, 2), 3])
    assert payload["pairs"] == 9 and payload["disagreements"] == 0
    assert calls == []
    surfaces.modified_plane_config(2, 2)  # the counter sees a ring built
    assert len(calls) == 1


def test_grid_looks_the_matchings_up_once(monkeypatch):
    # every graph has the symbolic shape, so the matchings are looked up
    # once per process and no cell hashes the shapes again
    from realforms import cli

    lookups = []
    shape_matchings = classification._shape_matchings

    def counting(src_shape, dst_shape):
        lookups.append(src_shape == dst_shape)
        return shape_matchings(src_shape, dst_shape)

    monkeypatch.setattr(classification, "_shape_matchings", counting)
    classification._matchings.cache_clear()
    payload = cli.run_grid([2, Fraction(1, 2), 3])
    assert payload["pairs"] == 9 and payload["disagreements"] == 0
    assert lookups == [True]
    assert cli.run_grid([])["pairs"] == 0
    assert lookups == [True]
    # warm: neither a grid nor a classify reads the shapes at all
    lookups.clear()
    assert cli.run_grid([2, Fraction(1, 2), 3]) == payload
    assert classify(2, 3).matchings_admissible == 4
    assert lookups == []


def test_the_symbolic_configuration_inverts_only_a_and_one_minus_a():
    # so its distinctness proof holds at every value param_pair admits
    config = enumerate_negative_classes("symbolic").config
    a = Poly.var(config.table, "a")
    assert config.units == (a, 1 - a)


def test_graph_rejects_forbidden_parameter():
    with pytest.raises(ForbiddenParameter):
        incidence_graph(0)
    with pytest.raises(ForbiddenParameter):
        incidence_graph(1)


# -- matchings ------------------------------------------------------------------


def test_matchings_match_brute_force_oracle():
    pairs = [(2, 3), (2, Fraction(1, 2)), (2, 2)]
    for a, b in pairs:
        src, dst = incidence_graph(a), incidence_graph(b)
        fast = admissible_matchings(src, dst)
        assert fast == brute_force_matchings(src, dst)
        assert len(fast) == 4


@pytest.mark.parametrize("d_max", [1, 2, 3, 4, 5, 6, "symbolic"])
def test_memoised_matchings_match_brute_force_at_every_d_max(d_max):
    # the one graph's matchings are the brute-force matchings of the graphs
    # enumerated at the values to each d_max
    if d_max == "symbolic":
        src = dst = incidence_graph("symbolic")
        oracle = brute_force_matchings(src, dst)
    else:
        src, dst = incidence_graph(2), incidence_graph(Fraction(1, 2))
        oracle = brute_force_matchings(enumerated_graph(2, d_max),
                                       enumerated_graph(Fraction(1, 2), d_max))
    assert admissible_matchings(src, dst) == oracle


def test_matchings_memo_hands_out_fresh_lists():
    src, dst = incidence_graph(2), incidence_graph(3)
    first = admissible_matchings(src, dst)
    expected = list(first)
    first.clear()
    assert admissible_matchings(src, dst) == expected
    assert admissible_matchings(src, dst) is not admissible_matchings(src, dst)


def test_matchings_memo_searches_a_changed_shape_again():
    g = incidence_graph(2)
    weights = [list(row) for row in g.weights]
    origin, plus = g.index_of(ORIGIN_LABEL), g.index_of("L(x+iy)")
    weights[origin][plus] = weights[plus][origin] = 2
    altered = CurveIncidenceGraph(g.labels, tuple(tuple(row) for row in weights),
                                  g.real_action, g.center_rows)
    assert altered.center_rows == g.center_rows
    admissible_matchings(g, g)
    misses = classification._shape_matchings.cache_info().misses
    found = admissible_matchings(altered, altered)
    assert classification._shape_matchings.cache_info().misses == misses + 1
    assert found == brute_force_matchings(altered, altered)
    assert len(found) == 2 and len(admissible_matchings(g, g)) == 4


def test_identity_matching_on_diagonal():
    g = incidence_graph(3)
    matchings = admissible_matchings(g, g)
    assert tuple(range(g.size())) in matchings


def test_matchings_send_conjugate_center_pairs_together():
    src, dst = incidence_graph(2), incidence_graph(3)
    first_pair = {src.index_of("E(1,i)"), src.index_of("E(a,ai)")}
    target_plus = {dst.index_of("E(1,i)"), dst.index_of("E(a,ai)")}
    target_minus = {dst.index_of("E(1,-i)"), dst.index_of("E(a,-ai)")}
    for m in admissible_matchings(src, dst):
        image = {m[i] for i in first_pair}
        assert image in (target_plus, target_minus)


def test_matchings_invert_when_swapping_roles():
    src, dst = incidence_graph(2), incidence_graph(5)
    forward = admissible_matchings(src, dst)
    backward = admissible_matchings(dst, src)
    inverses = []
    for m in backward:
        inv = [0] * len(m)
        for i, j in enumerate(m):
            inv[j] = i
        inverses.append(tuple(inv))
    assert sorted(inverses) == forward


def test_matching_label_map():
    # lem-6.2 lists each admissible matching as its label map
    src, dst = incidence_graph(2), incidence_graph(Fraction(1, 2))
    (item,) = [i for i in matchings_report(2, Fraction(1, 2)).items
               if i.claim_id == "admissible-matchings-count"]
    assert item.witness == [{src.labels[i]: dst.labels[j] for i, j in enumerate(m)}
                            for m in admissible_matchings(src, dst)]
    for labels in item.witness:
        assert labels[ORIGIN_LABEL] == ORIGIN_LABEL
        assert labels[LABEL_AT_INFINITY] == LABEL_AT_INFINITY
        assert len(labels) == 12


# -- witnesses -------------------------------------------------------------------


def solve(alpha, beta, matching):
    """The engine's witness for one matching at a cooked pair, as a Fraction
    matrix, or None."""
    candidate = classification._cell_witnesses(alpha, beta, (matching,))[0]
    return None if candidate is None else classification._matrix(candidate)


def test_witness_for_reciprocal_pair():
    src = incidence_graph(2)
    matchings = admissible_matchings(src, incidence_graph(Fraction(1, 2)))
    matrices = [solve(Fraction(2), Fraction(1, 2), m)
                for m in matchings]
    found = [m for m in matrices if m is not None]
    half = Fraction(1, 2)
    assert ((half, Fraction(0)), (Fraction(0), half)) in found


def test_no_witness_for_inequivalent_pair():
    src, dst = incidence_graph(2), incidence_graph(3)
    for m in admissible_matchings(src, dst):
        assert solve(Fraction(2), Fraction(3), m) is None


def _row_reduce_solution(equations):
    """The oracle: reduced row-echelon form of the real and imaginary rows over
    Fractions; a unique solution exactly when the pivots are the two unknowns."""
    rows = []
    for cx, cy, t in equations:
        rows.append((cx.re, cy.re, t.re))
        rows.append((cx.im, cy.im, t.im))
    work, pivots = row_reduce(rows)
    return (work[0][2], work[1][2]) if pivots == [0, 1] else None


def _numerators(terms):
    """A center's terms over their common denominator d, as integers."""
    d = lcm(*[e.d for pair in terms.values() for e in pair])
    return d, {key: (x.a * (d // x.d), x.b * (d // x.d), y.a * (d // y.d), y.b * (d // y.d))
               for key, (x, y) in terms.items()}


def reference_solve(src, dst, matching):
    """The witness solve row by row on two graphs: integer rows built afresh
    per matching from the graphs' center terms, monomial by monomial, then
    one 2x2 minor and Cramer's rule on the first pivot pair found among them."""
    rows = []
    for i, j in enumerate(matching):
        c, t = center_terms(src, i), center_terms(dst, j)
        if c is None or t is None:
            if c is not t:
                return None
            continue
        (dc, c), (dt, t) = _numerators(c), _numerators(t)
        for key, (xa, xb, ya, yb) in c.items():
            ua, ub, va, vb = t.get(key, (0, 0, 0, 0))
            rows.append((xa * dt, ya * dt, ua * dc, va * dc))
            rows.append((xb * dt, yb * dt, ub * dc, vb * dc))
        for key in t:  # a target term the source lacks reads 0 = t[key]
            if key not in c and any(t[key]):
                return None
    first = next((row for row in rows if row[0] or row[1]), None)
    if first is None:
        return None
    a1, b1, u1, v1 = first
    for a2, b2, u2, v2 in rows:
        det = a1 * b2 - a2 * b1
        if det:
            break
    else:  # the coefficient columns have rank below 2
        return None
    p, q = u1 * b2 - u2 * b1, a1 * u2 - a2 * u1
    r, s = v1 * b2 - v2 * b1, a1 * v2 - a2 * v1
    if any(a * p + b * q != u * det or a * r + b * s != v * det for a, b, u, v in rows):
        return None
    return (Fraction(p, det), Fraction(q, det)), (Fraction(r, det), Fraction(s, det))


@pytest.mark.parametrize("d_max", range(1, 7))
def test_engine_solve_equals_the_row_by_row_solve(d_max):
    # every ordered pair of GRAPH_VALUES: rational, symbolic and mixed; the
    # reference solves on the graphs enumerated at the values to d_max
    cooked = [param_pair(value)[0] for value in GRAPH_VALUES]
    graphs = [incidence_graph(value) for value in cooked]
    oracles = [enumerated_graph(value, d_max) for value in cooked]
    for alpha, src, src_oracle in zip(cooked, graphs, oracles):
        for beta, dst, dst_oracle in zip(cooked, graphs, oracles):
            for m in admissible_matchings(src, dst):
                assert (solve(alpha, beta, m)
                        == reference_solve(src_oracle, dst_oracle, m)), (alpha, beta, m)


def test_engine_solve_equals_the_row_by_row_solve_on_a_seeded_grid():
    rng = random.Random(7)
    values = {Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(40)} - {0, 1}
    values = sorted(values | {1 / v for v in values})
    graphs = [incidence_graph(v) for v in values]
    matchings = admissible_matchings(graphs[0], graphs[0])
    for alpha, src in zip(values, graphs):
        for beta, dst in zip(values, graphs):
            for m in matchings:
                assert (solve(alpha, beta, m)
                        == reference_solve(src, dst, m)), (alpha, beta, m)


def reference_classify(src, dst):
    """classify matching by matching: reference_solve on the two graphs for
    each admissible matching, then the Q(i) re-check, the same outcomes and
    order.  Returns the verdict, the witnesses and the traces."""
    witnesses, traces = [], []
    for m in admissible_matchings(src, dst):
        trace = {"matching": {src.labels[i]: dst.labels[j] for i, j in enumerate(m)}}
        traces.append(trace)
        matrix = reference_solve(src, dst, m)
        if matrix is None:
            trace["outcome"] = "no linear solution"
            continue
        ok, scalar, trace["details"] = reference_witness_checks(matrix, src, dst, m)
        trace["outcome"] = "witness" if ok else "solution fails checks"
        if ok:
            pairs = tuple(sorted(trace["matching"].items()))
            witnesses.append(classification.IsoWitness(matrix, scalar, m, pairs))
    witnesses.sort(key=witness_order)
    return bool(witnesses), tuple(witnesses), tuple(traces)


def witness_order(witness):
    """The order of a result's witnesses, entry by entry: the absolute
    value, then + before -."""
    return [(abs(e), e < 0) for row in witness.matrix for e in row]


def assert_classify_equals_the_reference(values, d_max):
    # the reference classifies on the graphs enumerated at the values to d_max
    graphs = [incidence_graph(value) for value in values]
    oracles = [enumerated_graph(value, d_max) for value in values]
    for alpha, src, src_oracle in zip(values, graphs, oracles):
        for beta, dst, dst_oracle in zip(values, graphs, oracles):
            found = _classify(alpha, beta, src, dst, d_max)
            equivalent, witnesses, traces = reference_classify(src_oracle, dst_oracle)
            assert found.equivalent is equivalent, (alpha, beta)
            assert found.witnesses == witnesses, (alpha, beta)
            assert found.witness == (witnesses[0] if witnesses else None), (alpha, beta)
            assert found.traces == traces, (alpha, beta)
            assert found.to_json() == {
                "alpha": str(alpha), "beta": str(beta), "equivalent": equivalent,
                "witness": witnesses[0].to_json() if witnesses else None,
                "witnesses": [w.to_json() for w in witnesses],
                "matchings_admissible": len(traces), "traces": list(traces), "d_max": d_max,
            }, (alpha, beta)


@pytest.mark.parametrize("d_max", range(1, 7))
def test_cell_reader_equals_the_per_matching_reference(d_max):
    # every ordered pair of GRAPH_VALUES: -1 with itself is on both loci, and
    # names meet names, rationals and themselves
    assert_classify_equals_the_reference([param_pair(v)[0] for v in GRAPH_VALUES], d_max)


@pytest.mark.parametrize("seed, d_max", [(13, DEFAULT_D_MAX), (17, 1)])
def test_cell_reader_equals_the_per_matching_reference_on_seeded_grids(seed, d_max):
    rng = random.Random(seed)
    values = {Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(20)} - {0, 1}
    values = sorted(values | {1 / v for v in values} | {Fraction(-1)})
    assert_classify_equals_the_reference(values, d_max)


@pytest.mark.parametrize("alpha, beta", [(2, 3), (2, Fraction(1, 2)), (3, 3), (-1, -1)])
def test_a_cell_evaluates_each_locus_once(monkeypatch, alpha, beta):
    # the identity and the conjugation share a - b, the two swaps ab - 1:
    # one evaluation of each per cell, whether it vanishes or not
    a_minus_b, ab_minus_1 = ((0, 1, -1), (1, 0, 1)), ((0, 0, -1), (1, 1, 1))
    value, evaluated = classification._value, []

    def counting(poly, *args):
        evaluated.append(poly)
        return value(poly, *args)

    monkeypatch.setattr(classification, "_value", counting)
    result = classify(alpha, beta)
    loci = [poly for poly in evaluated if poly in (a_minus_b, ab_minus_1)]
    assert sorted(loci) == sorted([a_minus_b, ab_minus_1])
    assert len(evaluated) - len(loci) == 4 * len(result.witnesses)


def test_engine_loci_are_the_criterion():
    # identity and conjugation matchings: a = b, entries 1 and +-1; the two
    # swaps of E(1,i) with E(a,ai): ab = 1, entries b and +-b
    engine = classification._witness_engine()
    g = incidence_graph(2)
    loci = {}
    for m, (_, locus, entries, den) in engine.items():
        loci[g.labels[m[g.index_of("E(1,i)")]]] = (locus, entries, den)
    a_minus_b = ((0, 1, -1), (1, 0, 1))
    ab_minus_1 = ((0, 0, -1), (1, 1, 1))
    one, b = ((0, 0, 1),), ((0, 1, 1),)
    minus = lambda poly: tuple([(i, j, -c) for i, j, c in poly])  # noqa: E731
    assert loci == {
        "E(1,i)": ((a_minus_b,), (one, (), (), one), 1),
        "E(1,-i)": ((a_minus_b,), (one, (), (), minus(one)), 1),
        "E(a,ai)": ((ab_minus_1,), (b, (), (), b), 1),
        "E(a,-ai)": ((ab_minus_1,), (b, (), (), minus(b)), 1),
    }


def test_engine_agrees_with_a_sympy_solve_over_q_a_b():
    # an independent solve: sympy's consistency locus (the 3x3 minors of each
    # augmented real system) and its solution on that locus, per matching
    sympy = pytest.importorskip("sympy")
    A, B = sympy.symbols("a b", real=True)
    symbols = {"a": A, "b": B}
    src, dst = (incidence_graph(name).center_rows for name in symbols)

    def center(rows):  # rows keyed ((name, k),), or () for k = 0
        x = y = sympy.Integer(0)
        for key, (ax, bx, ay, by, d) in rows.items():
            power = symbols[key[0][0]] ** key[0][1] if key else 1
            x += (ax + sympy.I * bx) * power / d
            y += (ay + sympy.I * by) * power / d
        return x, y

    def expr(terms):  # an integer polynomial of the engine, in A and B
        return sum((c * A ** i * B ** j for i, j, c in terms), sympy.Integer(0))

    generators = []
    for m, (_, locus, entries, den) in classification._witness_engine().items():
        rows = []  # (coefficient of p or r, of q or s, right-hand x, right-hand y)
        for i, j in enumerate(m):
            assert (src[i] is None) == (dst[j] is None)
            if src[i] is not None:
                (cx, cy), (tx, ty) = center(src[i]), center(dst[j])
                rows += [[part(sympy.expand(e)) for e in (cx, cy, tx, ty)]
                         for part in (sympy.re, sympy.im)]
        rows = [row for row in rows if any(row)]
        minors = [sympy.Matrix([rows[k][:2] + [rows[k][col]] for k in triple]).det()
                  for col in (2, 3) for triple in combinations(range(len(rows)), 3)]
        oracle = sympy.groebner([e for e in minors if e != 0], A, B, order="lex")
        assert oracle == sympy.groebner([expr(poly) for poly in locus], A, B, order="lex")
        (generator,) = oracle.exprs
        generators.append(generator)
        # on the locus, sympy's unique solution is the engine's (p, q, r, s)
        (root,) = sympy.solve(generator, A)
        on_locus = [[e.subs(A, root) for e in row] for row in rows]
        for col, unknowns, found in ((2, "p q", entries[:2]), (3, "r s", entries[2:])):
            x, y = sympy.symbols(unknowns)
            (solution,) = sympy.linsolve([row[0] * x + row[1] * y - row[col] for row in on_locus],
                                         [x, y])
            assert [sympy.simplify(v - expr(e).subs(A, root) / den)
                    for v, e in zip(solution, found)] == [0, 0]
    union = sympy.Mul(*set(generators))
    assert sympy.cancel(union / ((A - B) * (A * B - 1))).is_number


def _shape_with_centers(monkeypatch, centers_of):
    """Patch _centers_at to give centers_of(its centers, the value) at every
    value, named or rational; the engine reads it once cleared (see
    cold_engine)."""
    centers_at = classification._centers_at
    monkeypatch.setattr(classification, "_centers_at",
                        lambda value, *shape: centers_of(centers_at(value, *shape), value))


@pytest.fixture
def cold_engine():
    classification._witness_engine.cache_clear()
    yield
    classification._witness_engine.cache_clear()


def test_engine_refuses_a_shape_without_a_constant_pivot_minor(monkeypatch, cold_engine):
    # every center times a: each minor of the source rows is a multiple of a**2
    def times_a(centers, name):
        return tuple([None if rows is None else
                      {((name, key[0][1] + 1 if key else 1),): row for key, row in rows.items()}
                      for rows in centers])

    _shape_with_centers(monkeypatch, times_a)
    with pytest.raises(ValueError, match="constant minor"):
        classification._witness_engine()


def test_a_center_matched_to_a_line_has_no_solution_anywhere(monkeypatch, cold_engine):
    # without the center of E(1,-i), the three matchings that move E(1,-i)
    # send a center to a line or a line to a center; the identity still solves
    labels = classification._graph_shape()[0]
    k = labels.index("E(1,-i)")

    def without_one(centers, value):
        return centers[:k] + (None,) + centers[k + 1:]

    _shape_with_centers(monkeypatch, without_one)
    engine = classification._witness_engine()
    identity = tuple(range(len(labels)))
    for m, (_, locus, entries, _) in engine.items():
        if m == identity:
            assert entries
        else:
            assert (locus, entries) == ((((0, 0, 1),),), ())
    assert solve(Fraction(2), Fraction(2), identity) == (
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for m in engine:
        if m != identity:
            assert solve(Fraction(2), Fraction(2), m) is None


def test_an_entry_that_moves_with_a_name_is_no_linear_solution(monkeypatch):
    # rows p = b and s = b with no residual: every pair is on the locus, a
    # rational or mixed pair reads the matrix b * I, and a name for beta
    # leaves an entry that is no constant
    table = VarTable(("a", "b"))
    zero, one, b = Poly.zero(table), Poly.const(table, 1), Poly.var(table, "b")
    solved = classification._solve_rows([(one, zero, b, zero), (zero, one, zero, b)])
    assert solved[1] == ()
    identity = (0, 1)
    monkeypatch.setattr(classification, "_witness_engine", lambda: {identity: solved})
    three = ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(3)))
    assert solve(Fraction(2), Fraction(3), identity) == three
    assert solve("a", Fraction(3), identity) == three
    assert solve(Fraction(3), "b", identity) is None
    assert solve("a", "b", identity) is None


def test_importing_realforms_builds_no_engine():
    # the engine, like the graph shape it reads, is built on first use
    code = ("import realforms, realforms.cli\n"
            "from realforms import classification as c\n"
            "assert c._witness_engine.cache_info().currsize == 0\n"
            "assert c._matchings.cache_info().currsize == 0\n"
            "assert c._graph_shape.cache_info().currsize == 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _center_graph(terms):
    """A graph of centers only, one vertex each, from their Q(i) terms (None
    for a line): reference_solve and the re-check read nothing else."""
    n = len(terms)
    return CurveIncidenceGraph(tuple(map(str, range(n))), ((0,) * n,) * n, tuple(range(n)),
                               tuple([None if t is None else q_i_rows(t) for t in terms]))


def _engine_solve(equations):
    """The engine's row-solve step on the constant rows of the equations, read
    at a point; a system of rank below 2 has no pivot pair, so None."""
    table = VarTable(("a", "b"))
    rows = [tuple([Poly.const(table, getattr(e, part)) for e in equation])
            for equation in equations for part in ("re", "im")]
    try:
        degrees, locus, entries, den = classification._solve_rows(rows)
    except ValueError:
        return None
    point = (1, 1)  # constant rows: any point reads the same values
    if any(classification._value(poly, point, point, degrees) for poly in locus):
        return None
    p, q, r, s = [Fraction(classification._value(poly, point, point, degrees), den)
                  for poly in entries]
    return (p, q), (r, s)


# zero twice, so that zero coefficients and proportional rows come up often
SMALL = st.sampled_from([Fraction(v) for v in ("0", "0", "1", "-1", "2", "1/2", "-2/3", "5/4")])
ENTRIES = st.builds(GaussianRational, SMALL, SMALL)
RANKS = ("any", "rank 1", "rank 0")
COLUMN_KINDS = ("consistent", "inconsistent", "free")


@st.composite
def center_systems(draw):
    """Q(i) systems cx*p + cy*q = t, cx*r + cy*s = w of every kind the
    witness solve meets: one coefficient matrix, full rank or not, and two
    right-hand columns, each of its own kind."""
    rank = draw(st.sampled_from(RANKS))
    ratio = draw(SMALL)
    size = draw(st.integers(min_value=1, max_value=4))
    coefficients = []
    for _ in range(size):
        cx, cy = draw(ENTRIES), draw(ENTRIES)
        if rank == "rank 1":
            cy = cx * ratio
        elif rank == "rank 0":
            cx = cy = GaussianRational(0)
        coefficients.append((cx, cy))
    kinds, hidden, columns = [], [], []
    for _ in range(2):
        kind = draw(st.sampled_from(COLUMN_KINDS))
        p, q = draw(SMALL), draw(SMALL)
        column = [draw(ENTRIES) if kind == "free" else cx * p + cy * q
                  for cx, cy in coefficients]
        if kind == "inconsistent":
            k = draw(st.integers(min_value=0, max_value=size - 1))
            column[k] = column[k] + draw(ENTRIES.filter(bool))
        kinds.append(kind)
        hidden.append((p, q))
        columns.append(column)
    equations = [(cx, cy, t, w) for (cx, cy), t, w in zip(coefficients, *columns)]
    if draw(st.booleans()):
        equations.append(equations[draw(st.integers(min_value=0, max_value=size - 1))])
    return rank, tuple(kinds), tuple(hidden), equations


G = GaussianRational
HALF = Fraction(1, 2)
UNCHECKED = (None, None)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(center_systems())
@example(("rank 0", UNCHECKED, UNCHECKED, [(G(0), G(0), G(0), G(0))]))
@example(("rank 0", UNCHECKED, UNCHECKED, [(G(0), G(0), G(1, 1), G(0))]))
@example(("rank 1", UNCHECKED, UNCHECKED,
          [(G(1), G(2), G(3), G(1)), (G(1), G(2), G(3), G(1))]))
@example(("any", UNCHECKED, UNCHECKED,
          [(G(1, 1), G(HALF, -1), G(3, HALF), G(0, 2))]))
@example(("any", UNCHECKED, UNCHECKED,
          [(G(2), G(0, 1), G(HALF, Fraction(-1, 3)), G(-1, HALF))]))
# the top column is consistent and the bottom is not, then the other way round
@example(("any", UNCHECKED, UNCHECKED,
          [(G(1), G(0), G(1), G(1)), (G(0), G(1), G(1), G(1)), (G(1), G(1), G(2), G(3))]))
@example(("any", UNCHECKED, UNCHECKED,
          [(G(1), G(0), G(1), G(1)), (G(0), G(1), G(1), G(1)), (G(1), G(1), G(3), G(2))]))
def test_integer_solve_matches_row_reduce_oracle(case):
    rank, kinds, hidden, equations = case
    # each equation is one center: (cx, cy) in the source, (t, w) in the target
    src = _center_graph([{(): (cx, cy)} for cx, cy, _, _ in equations])
    dst = _center_graph([{(): (t, w)} for _, _, t, w in equations])
    found = _engine_solve(equations)
    assert found == reference_solve(src, dst, tuple(range(len(equations))))
    top = _row_reduce_solution([(cx, cy, t) for cx, cy, t, _ in equations])
    bottom = _row_reduce_solution([(cx, cy, w) for cx, cy, _, w in equations])
    assert found == (None if top is None or bottom is None else (top, bottom))
    if rank != "any":
        assert found is None
    if found is not None:
        assert all(type(v) is Fraction for column in found for v in column)
        (p, q), (r, s) = found
        assert all(cx * p + cy * q == t and cx * r + cy * s == w
                   for cx, cy, t, w in equations)
        for kind, column, expected in zip(kinds, found, hidden):
            if kind == "consistent":
                assert column == expected


def test_classify_reciprocal_and_diagonal():
    result = classify(2, Fraction(1, 2))
    assert result.equivalent
    assert result.witness.matrix == (
        (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))
    )
    assert result.witness.scalar == Fraction(1, 4)

    diagonal = classify(3, 3)
    assert diagonal.equivalent
    assert diagonal.witness.matrix == (
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    )
    # the reflection is also among the valid witnesses
    matrices = {w.matrix for w in diagonal.witnesses}
    assert ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))) in matrices


def test_classify_inequivalent_pair_keeps_traces():
    result = classify(2, 3)
    assert not result.equivalent
    assert result.witness is None
    assert result.matchings_admissible == 4
    assert len(result.traces) == 4
    assert all(t["outcome"] == "no linear solution" for t in result.traces)


def test_traces_are_rendered_afresh_on_each_read():
    src, dst = incidence_graph(2), incidence_graph(3)
    expected = [{"matching": {src.labels[i]: dst.labels[j] for i, j in enumerate(m)},
                 "outcome": "no linear solution"} for m in admissible_matchings(src, dst)]
    result = classify(2, 3)
    traces = result.traces
    assert list(traces) == expected
    assert not any(a is b for a, b in zip(traces, result.traces))
    traces[0]["outcome"] = "edited"
    traces[1]["matching"].clear()
    assert result.to_json()["traces"] == expected

    result = classify(3, Fraction(1, 3))
    before = result.to_json()
    (witness, *_) = [t for t in result.traces if t["outcome"] == "witness"]
    witness["details"]["matrix"][0][0] = "edited"
    witness["details"].clear()
    assert result.to_json() == before


def test_classify_rejects_forbidden_values():
    with pytest.raises(ForbiddenParameter):
        classify(0, 2)
    with pytest.raises(ForbiddenParameter):
        classify(2, 1)


def test_classify_cooks_its_pair():
    # excluded, inexact and reserved values are refused, and raw values and
    # the symbolic spelling are cooked before the engine reads them
    for alpha, beta, error in ((Fraction(1), Fraction(1), ForbiddenParameter),
                               (0, 0, ForbiddenParameter), (2.0, 2, TypeError),
                               ("x", "x", ValueError)):
        with pytest.raises(error):
            classify(alpha, beta)
    unit = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for alpha, beta in ((2, 2), ("symbolic", "symbolic")):
        result = classify(alpha, beta)
        assert result.equivalent
        assert unit in [w.matrix for w in result.witnesses]
        assert result.to_json() == classify(*param_pair(alpha, beta)).to_json()
    assert not classify(2, 3).equivalent


def test_classify_builds_its_own_graphs():
    # a graph for another value would turn the verdict of (2, 1/2) around
    with pytest.raises(TypeError):
        classify(2, Fraction(1, 2), src_graph=incidence_graph(3))
    assert classify(2, Fraction(1, 2)).equivalent


def test_witness_structure_identities():
    """Every equivalent verdict carries a witness whose matrix is invertible,
    preserves the sum of squares up to its recorded scalar, and is returned
    first under the canonical ordering."""
    for a, b in ((2, Fraction(1, 2)), (Fraction(-3), Fraction(-1, 3)), (5, 5)):
        result = classify(a, b)
        assert result.equivalent
        for w in result.witnesses:
            (p, q), (r, s) = w.matrix
            assert p * s - q * r != 0
            assert p * q + r * s == 0
            assert p * p + r * r == w.scalar == q * q + s * s
            assert w.scalar != 0
        assert result.witness == result.witnesses[0]


def test_classify_symbolic_parameters():
    diagonal = classify("symbolic", "symbolic")
    assert diagonal.equivalent
    assert diagonal.witness.matrix == (
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    )
    distinct = classify("symbolic", "b")
    assert not distinct.equivalent
    mixed = classify("symbolic", 3)
    assert not mixed.equivalent


# -- the closed-form criterion ------------------------------------------------------


def test_equivalence_criterion():
    assert equivalence_criterion(2, 2)
    assert equivalence_criterion(2, Fraction(1, 2))
    assert not equivalence_criterion(2, 3)
    assert equivalence_criterion("symbolic", "symbolic")
    assert not equivalence_criterion("symbolic", "b")
    assert not equivalence_criterion("symbolic", 2)
    assert equivalence_criterion(Fraction(-3), Fraction(-1, 3))


def test_verdict_equals_criterion_on_grid():
    graphs = {v: incidence_graph(v) for v in GRID}
    checked = 0
    for a in GRID:
        for b in GRID:
            result = _classify(a, b, graphs[a], graphs[b])
            assert result.equivalent == equivalence_criterion(a, b), (a, b)
            if result.equivalent:
                assert result.witness is not None
            checked += 1
    assert checked == len(GRID) ** 2


def test_classify_symmetric_verdicts():
    values = (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(7, 3))
    graphs = {v: incidence_graph(v) for v in values}
    for a in values:
        for b in values:
            fwd = _classify(a, b, graphs[a], graphs[b])
            rev = _classify(b, a, graphs[b], graphs[a])
            assert fwd.equivalent == rev.equivalent


# -- certified reports ----------------------------------------------------------------


def test_matchings_report():
    report = matchings_report(2, 3)
    assert report.passed
    assert matchings_report("symbolic", "symbolic").passed


def test_classification_report():
    for a, b in ((2, 3), (2, Fraction(1, 2)), (4, 4)):
        assert classification_report(a, b).passed
    assert classification_report("symbolic", "symbolic").passed
    assert classification_report("symbolic", "b").passed


def test_classification_report_rechecks_the_witness(monkeypatch):
    from realforms import classification

    classify_real = classification._classify

    def tampered(*args, **kwargs):
        result = classify_real(*args, **kwargs)
        w = result.witness
        (p, q), (r, s) = w.matrix
        moved = IsoWitness(((p + 1, q), (r, s)), w.scalar, w.matching, w.matching_labels)
        result.witnesses = (moved, *result.witnesses[1:])
        assert result.witness == moved  # the witness is read from the witnesses
        return result

    monkeypatch.setattr(classification, "_classify", tampered)
    report = classification.classification_report(2, Fraction(1, 2))
    (status,) = [i.status for i in report.items if i.claim_id == "witness-valid"]
    assert status == "fail"


@pytest.mark.parametrize("shift", ["negate s", "zero p"])
def test_witness_checks_do_not_trust_the_solver(monkeypatch, shift):
    # The solver hands back each matrix with one entry moved.  With s
    # negated every matrix stays invertible and keeps x^2 + y^2, so only the
    # Q(i) center re-check can refuse it; with p zeroed every matrix is
    # singular, which stops the checks before the centers are read.
    cell_witnesses = classification._cell_witnesses

    def move(candidate):
        if candidate is None:
            return None
        P, Q, R, S, m = candidate
        return (P, Q, R, -S, m) if shift == "negate s" else (0, Q, R, S, m)

    def shifted(*args):
        return [move(candidate) for candidate in cell_witnesses(*args)]

    monkeypatch.setattr(classification, "_cell_witnesses", shifted)
    result = classify(2, Fraction(1, 2))
    assert not result.equivalent
    checked = [t for t in result.traces if t["outcome"] != "no linear solution"]
    assert len(checked) == 2
    for trace in checked:
        assert trace["outcome"] == "solution fails checks"
        details = trace["details"]
        if shift == "negate s":
            assert details["centers_carried"] is False
            assert details["sum_of_squares_preserved"] is True
        else:
            assert details["determinant"] == "0"
            assert "centers_carried" not in details
    report = run_check("prop-6.3", alpha=2, beta=Fraction(1, 2))
    assert report.status == "fail"
    assert "verdict-matches-criterion" in [i.claim_id for i in report.failures()]


def reference_witness_checks(matrix, src, dst, matching):
    """The re-check with the centers in Q(i): the determinant and circle tests
    on integers over the matrix's common denominator, then each center
    equation in GaussianRational arithmetic on the graphs' center terms."""
    (p, q), (r, s) = matrix
    details: dict = {"matrix": [[str(p), str(q)], [str(r), str(s)]]}
    m = lcm(p.denominator, q.denominator, r.denominator, s.denominator)
    P, Q, R, S = (e.numerator * (m // e.denominator) for e in (p, q, r, s))
    det = Fraction(P * S - Q * R, m * m)
    details["determinant"] = str(det)
    if det == 0:
        return False, None, details
    gp, gq, gr, gs = (GaussianRational(e) for e in (p, q, r, s))
    pairs = [(center_terms(src, i), center_terms(dst, j)) for i, j in enumerate(matching)]
    zero = (ZERO, ZERO)
    centers_ok = all(c is t for c, t in pairs if c is None or t is None) and all(
        cx * gp + cy * gq == tx and cx * gr + cy * gs == ty
        for c, t in pairs if c is not None
        for key in c.keys() | t.keys()
        for (cx, cy), (tx, ty) in [(c.get(key, zero), t.get(key, zero))])
    details["centers_carried"] = centers_ok
    squares = P * P + R * R
    circle_ok = P * Q + R * S == 0 and squares == Q * Q + S * S and squares != 0
    details["sum_of_squares_preserved"] = circle_ok
    if circle_ok:
        scalar = Fraction(squares, m * m)
        details["sum_of_squares_scalar"] = str(scalar)
    ok = centers_ok and circle_ok
    return ok, (scalar if ok else None), details


def witness_checks(matrix, src, dst, matching):
    """The library's re-check of a Fraction matrix, as classification_report
    runs it: _checks on its integers over the entries' common denominator,
    read as (passes, scalar or None, details)."""
    (p, q), (r, s) = matrix
    m = lcm(p.denominator, q.denominator, r.denominator, s.denominator)
    facts = classification._checks(
        (*[e.numerator * (m // e.denominator) for e in (p, q, r, s)], m), src, dst, matching)
    scalar = classification._scalar(facts)
    return scalar is not None, scalar, classification._details(facts)


def tampered(matrix):
    """The matrix, each entry moved by +1 and by -1, s negated, p zeroed, the
    rows swapped, and the matrix scaled by 2."""
    (p, q), (r, s) = matrix
    out = [matrix]
    for k in range(4):
        for step in (1, -1):
            e = [p, q, r, s]
            e[k] += step
            out.append(((e[0], e[1]), (e[2], e[3])))
    return out + [((p, q), (r, -s)), ((p - p, q), (r, s)), ((r, s), (p, q)),
                  ((2 * p, 2 * q), (2 * r, 2 * s))]


# a matrix for the pairs with no solve, so that every pair's centers are read
UNIT = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


@pytest.mark.parametrize("d_max", range(1, 7))
def test_integer_witness_checks_equal_the_q_i_re_check(d_max):
    # every ordered pair of GRAPH_VALUES, symbolic/symbolic and a/b among them;
    # the reference re-checks on the graphs enumerated at the values to d_max
    cooked = [param_pair(value)[0] for value in GRAPH_VALUES]
    graphs = [incidence_graph(value) for value in cooked]
    oracles = [enumerated_graph(value, d_max) for value in cooked]
    verdicts = set()
    for alpha, src, src_oracle in zip(cooked, graphs, oracles):
        for beta, dst, dst_oracle in zip(cooked, graphs, oracles):
            for m in admissible_matchings(src, dst):
                matrix = solve(alpha, beta, m)
                for t in [UNIT] if matrix is None else tampered(matrix):
                    found = witness_checks(t, src, dst, m)
                    assert found == reference_witness_checks(t, src_oracle, dst_oracle, m), (
                        alpha, beta, m, t)
                    verdicts.add((matrix is None, found[0], found[2].get("centers_carried")))
    # solves that pass, and tampered and unit matrices that the centers refuse
    assert {(False, True, True), (False, False, False), (True, False, False)} <= verdicts


def test_witness_checks_read_every_term_of_both_centers():
    # a term only the target has, or only the source, is a term not carried,
    # and so is a center matched to a line; the graphs' shapes are not read
    i, b1, a1 = GaussianRational(0, 1), (("b", 1),), (("a", 1),)
    center = {(): (GaussianRational(1), i)}
    cases = [
        ([center], [center], (0,), True),
        ([center], [{**center, b1: (GaussianRational(1), ZERO)}], (0,), False),
        ([{**center, a1: (ZERO, GaussianRational(Fraction(1, 2), 3))}], [center], (0,), False),
        ([center, None], [None, center], (0, 1), False),
        ([center, None], [None, center], (1, 0), True),
    ]
    for source, target, matching, carried in cases:
        src, dst = _center_graph(source), _center_graph(target)
        found = witness_checks(UNIT, src, dst, matching)
        assert found == reference_witness_checks(UNIT, src, dst, matching)
        assert found[2]["centers_carried"] is carried


def _classify_candidates(monkeypatch, candidates, src, dst, matching):
    """_classify on the graphs with the matchings lookup made to list the
    matching once per integer candidate (P, Q, R, S, m), and the solver made
    to hand back the candidates."""
    pairs = tuple(zip(src.labels, [dst.labels[j] for j in matching]))
    listed = ((matching, pairs, tuple(sorted(pairs))),) * len(candidates)
    monkeypatch.setattr(classification, "_matchings", lambda: listed)
    monkeypatch.setattr(classification, "_cell_witnesses", lambda *args: list(candidates))
    return _classify(Fraction(2), Fraction(2), src, dst)


def _rendered(monkeypatch, candidate, src, dst, matching):
    """The outcome and details a trace renders for one integer candidate
    (P, Q, R, S, m) that the solver is made to hand back for the matching."""
    (trace,) = _classify_candidates(monkeypatch, [candidate], src, dst, matching).traces
    return trace["outcome"], trace["details"]


@pytest.mark.parametrize("failure", ["determinant 0", "moved center", "broken circle"])
def test_rendered_details_equal_the_q_i_re_check(monkeypatch, failure):
    # one candidate per way the re-check refuses: a singular matrix stops
    # before the centers; the other swap's witness for 2 -> 1/2 keeps the
    # circle but moves the centers; diag(2, 1) carries a center on the
    # x-axis to its double and breaks the circle
    if failure == "broken circle":
        src = _center_graph([{(): (GaussianRational(1), ZERO)}])
        dst = _center_graph([{(): (GaussianRational(2), ZERO)}])
        matching, candidate = (0,), (2, 0, 0, 1, 1)
    else:
        src, dst = incidence_graph(2), incidence_graph(Fraction(1, 2))
        matching = classify(2, Fraction(1, 2)).witness.matching
        candidate = (1, 2, 2, 4, 3) if failure == "determinant 0" else (1, 0, 0, -1, 2)
    outcome, details = _rendered(monkeypatch, candidate, src, dst, matching)
    matrix = classification._matrix(candidate)
    expected = reference_witness_checks(matrix, src, dst, matching)
    assert outcome == "solution fails checks"
    assert details == expected[2]
    assert list(details) == list(expected[2])
    assert witness_checks(matrix, src, dst, matching) == expected
    carried, circle = {"determinant 0": (None, None), "moved center": (False, True),
                       "broken circle": (True, False)}[failure]
    assert details.get("centers_carried") is carried
    assert details.get("sum_of_squares_preserved") is circle


# a zero center has no rows, so every matrix carries it
_ZERO_CENTER = _center_graph([{}])


def test_witnesses_are_ordered_by_magnitude_then_sign(monkeypatch):
    # real cells with two and four witnesses
    rng = random.Random(41)
    values = {Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(12)} - {0, 1}
    values = sorted(values | {1 / v for v in values} | {Fraction(-1)})
    cells = [(Fraction(7, 3), Fraction(3, 7)), (Fraction(-1), Fraction(-1)),
             (Fraction(2), Fraction(2)), (Fraction(2), Fraction(1, 2))]
    cells += [(a, b) for a in values for b in values if a == b or a * b == 1]
    for alpha, beta in cells:
        witnesses = classify(alpha, beta).witnesses
        assert len(witnesses) == (4 if alpha == beta == -1 else 2), (alpha, beta)
        assert list(witnesses) == sorted(witnesses, key=witness_order), (alpha, beta)
    assert [w.to_json()["matrix"] for w in classify(-1, -1).witnesses] == [
        [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]],
        [["-1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]]
    # a real cell's candidates share one scale m, and its witnesses' entries
    # one magnitude, so these read as well with the sign first or with bare
    # numerators; these candidates do not: over different scales, -1/3
    # comes before 1/2 on its magnitude, though its numerator -2 is the
    # larger in magnitude and its sign is -; a negative scale turns a sign
    candidates = [(1, 0, 0, 1, 2), (-2, 0, 0, -2, 6), (1, 0, 0, -1, 3), (0, 5, -5, 0, 10),
                  (-1, 0, 0, 1, 3), (2, 0, 0, 2, 6), (3, 0, 0, 3, 2), (1, 0, 0, 1, -4)]
    result = _classify_candidates(monkeypatch, candidates, _ZERO_CENTER, _ZERO_CENTER, (0,))
    matrices = [classification._matrix(c) for c in candidates]
    found = [w.matrix for w in result.witnesses]
    assert sorted(found) == sorted(matrices)
    assert found == [w.matrix for w in sorted(result.witnesses, key=witness_order)]
    assert [m[0][0] for m in found] == [
        Fraction(v) for v in ("0", "-1/4", "1/3", "1/3", "-1/3", "-1/3", "1/2", "3/2")]


def test_a_result_stores_its_witnesses_and_facts_only(monkeypatch):
    # the verdict, the witness, the count and each trace's outcome are read
    # from the witnesses and the re-check's facts
    names = ClassificationResult.__slots__
    assert names == ("alpha", "beta", "witnesses", "outcomes", "d_max")

    def outcome(facts):
        if facts is None:
            return "no linear solution"
        P, Q, R, S, m, det, centers_ok, circle_ok = facts
        return "witness" if det and centers_ok and circle_ok else "solution fails checks"

    results = [classify(a, b) for a, b in ((2, 3), (2, Fraction(1, 2)), (-1, -1),
                                           (Fraction(7, 3), Fraction(3, 7)),
                                           ("symbolic", "symbolic"), ("symbolic", "b"))]
    # a passing candidate, a broken circle and a determinant 0
    results.append(_classify_candidates(monkeypatch, [(1, 0, 0, 1, 1), (2, 0, 0, 1, 1),
                                                      (1, 2, 2, 4, 3)],
                                        _ZERO_CENTER, _ZERO_CENTER, (0,)))
    seen = set()
    for result in results:
        assert result.equivalent is bool(result.witnesses)
        assert result.witness == (result.witnesses[0] if result.witnesses else None)
        assert result.matchings_admissible == len(result.outcomes) == len(result.traces)
        outcomes = [outcome(facts) for _, facts in result.outcomes]
        assert [t["outcome"] for t in result.traces] == outcomes
        assert [t["matching"] for t in result.traces] == [dict(p) for p, _ in result.outcomes]
        assert outcomes.count("witness") == len(result.witnesses)
        seen.update(outcomes)
    assert seen == {"no linear solution", "witness", "solution fails checks"}


@pytest.mark.parametrize("d_max, error", [
    (True, TypeError), (False, TypeError), (1.0, TypeError), (2.5, TypeError),
    ("3", TypeError), (None, TypeError), (0, ValueError), (-2, ValueError),
])
def test_library_entries_refuse_a_d_max_that_is_no_positive_int(d_max, error):
    # refused before any cache is read: True == 1 and 1.0 == 1 would
    # otherwise be served the d_max 1 entries and printed as given
    classify(2, 3, d_max=1)
    caches = (classification._graph_shape, classification._witness_engine,
              classification._matchings, _combinatorial_survivors)
    before = [cached.cache_info() for cached in caches]
    entries = (
        lambda: classify(2, 3, d_max=d_max),
        lambda: run_grid([2, 3], d_max=d_max),
        lambda: run_grid([], d_max=d_max),
        lambda: enumerate_negative_classes(2, d_max),
    )
    for entry in entries:
        with pytest.raises(error, match="d_max"):
            entry()
    assert [cached.cache_info() for cached in caches] == before


def test_integer_criterion_equals_the_fraction_criterion():
    rng = random.Random(29)
    values = {Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(80)}
    values |= {Fraction(v) for v in ("-1", "-3", "-1/3", "2/3", "3/2", "-2/3", "-3/2", "7")}
    values -= {0, 1}
    values |= {1 / v for v in values}
    equivalent = 0
    for alpha in values:
        for beta in values:
            expected = alpha == beta or alpha * beta == 1
            assert classification._criterion(alpha, beta) is expected, (alpha, beta)
            equivalent += expected
    assert equivalent == 2 * len(values) - 1  # each value with itself and its reciprocal, -1 once
    for alpha, beta, expected in (("a", "a", True), ("a", "b", False), ("a", Fraction(2), False),
                                  (Fraction(-1), "b", False), ("b", "b", True)):
        assert classification._criterion(alpha, beta) is expected


def test_result_serialization():
    result = classify(2, Fraction(1, 2))
    data = result.to_json()
    assert data["alpha"] == "2" and data["beta"] == "1/2"
    assert data["equivalent"] is True
    assert data["witness"]["matrix"] == [["1/2", "0"], ["0", "1/2"]]
    assert data["witness"]["sum_of_squares_scalar"] == "1/4"
    assert data["matchings_admissible"] == 4
    assert isinstance(result, ClassificationResult)
