"""The oracles accept realforms' outputs and reject tampered ones.

    python3 -m pytest perfbench

Each test takes a genuine output, checks that the oracle passes it, then
flips a verdict, perturbs a matrix entry or drops a record and checks that
the oracle reports it.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from realforms import checks, classification, cli, intersection  # noqa: E402

F = Fraction


@pytest.fixture(scope="module")
def grid_payload():
    return cli.run_grid([F(2), F(1, 2), F(-3)])


@pytest.fixture(scope="module")
def verify_text():
    code, text = workloads.run_cli(workloads.verify_argv(F(2), F(-5, 3)))
    assert code == 0
    return text


def test_witness_oracle_rejects_perturbed_and_singular_matrices():
    assert oracles.witness_problems([["1/2", "0"], ["0", "1/2"]], F(2), F(1, 2)) == []
    assert oracles.witness_problems([["1/2", "0"], ["0", "1/3"]], F(2), F(1, 2))
    assert oracles.witness_problems([["0", "0"], ["0", "0"]], F(2), F(1, 2))
    # a rotation keeps x^2 + y^2 but does not carry the centers
    assert oracles.witness_problems([["0", "-1"], ["1", "0"]], F(2), F(2))


@pytest.mark.parametrize("a, b", [(F(2), F(1, 2)), (F(-3), F(-3)), (F(2), F(3))])
def test_classification_oracle(a, b):
    payload = classification.classify(a, b).to_json()
    assert oracles.classification_problems(payload, a, b) == []

    flipped = copy.deepcopy(payload)
    flipped["equivalent"] = not flipped["equivalent"]
    assert oracles.classification_problems(flipped, a, b)

    if payload["witness"] is not None:
        perturbed = copy.deepcopy(payload)
        perturbed["witness"]["matrix"][0][0] = str(F(perturbed["witness"]["matrix"][0][0]) + 1)
        assert oracles.classification_problems(perturbed, a, b)
        dropped = copy.deepcopy(payload)
        dropped["witness"] = None
        assert oracles.classification_problems(dropped, a, b)


def test_grid_oracle(grid_payload):
    values = [F(2), F(1, 2), F(-3)]
    assert oracles.grid_problems(grid_payload, values) == []

    flipped = copy.deepcopy(grid_payload)
    cell = next(c for c in flipped["cells"] if c["alpha"] == "2" and c["beta"] == "-3")
    cell["equivalent"] = True
    assert oracles.grid_problems(flipped, values)

    perturbed = copy.deepcopy(grid_payload)
    cell = next(c for c in perturbed["cells"] if c["witness"] is not None
                and c["alpha"] != c["beta"])
    cell["witness"]["matrix"][1][1] = "7"
    assert oracles.grid_problems(perturbed, values)

    dropped = copy.deepcopy(grid_payload)
    del dropped["cells"][4]
    assert oracles.grid_problems(dropped, values)


def test_grid_oracle_catches_asymmetry_alone():
    cells = [
        {"alpha": a, "beta": b, "equivalent": False, "criterion": False,
         "agrees": True, "witness": None}
        for a, b in (("2", "3"), ("3", "2"))
    ]
    payload = {"values": ["2", "3"], "cells": cells, "pairs": 4,
               "disagreements": 0, "exit_code": 0}
    # the diagonal is missing, and (2,3) vs (3,2) agree: one complaint only
    assert oracles.grid_problems(payload, [F(2), F(3)]) == [
        "grid does not hold each ordered pair exactly once"]
    cells[0]["equivalent"] = True
    assert any("not symmetric" in p for p in oracles.grid_problems(payload, [F(2), F(3)]))


@pytest.mark.parametrize("alpha", [F(3), F(-7, 4), "symbolic"])
def test_enumeration_oracle(alpha):
    payload = intersection.enumerate_negative_classes(alpha).to_json()
    assert oracles.enumeration_problems(payload, alpha) == []

    dropped = copy.deepcopy(payload)
    del dropped["records"][7]
    assert oracles.enumeration_problems(dropped, alpha)

    wrong_square = copy.deepcopy(payload)
    wrong_square["records"][5]["self_intersection"] = -1
    assert oracles.enumeration_problems(wrong_square, alpha)

    for through in ([1, 4], [1, 3, 4]):
        wrong_line = copy.deepcopy(payload)
        record = next(r for r in wrong_line["records"] if r["label"] == "L(x-z)")
        record["through_centers"] = through
        record["class"]["multiplicities"] = [int(k in through) for k in range(5)]
        record["self_intersection"] = 1 - len(through)
        assert oracles.enumeration_problems(wrong_line, alpha)


def test_enumeration_oracle_tests_collinearity_by_determinant():
    record = {"label": "L(x-z)", "class": {"degree": 1, "multiplicities": [0, 1, 0, 1, 1]},
              "self_intersection": -2, "through_centers": [1, 3, 4]}
    assert oracles._record_problems(record, (F(3),))
    assert oracles._record_problems(record, oracles.SYMBOLIC_SAMPLES)
    record = {"label": "L(x+iy)", "class": {"degree": 1, "multiplicities": [1, 1, 1, 0, 0]},
              "self_intersection": -2, "through_centers": [0, 1, 2]}
    assert oracles._record_problems(record, (F(-7, 4),)) == []
    assert oracles._record_problems(record, oracles.SYMBOLIC_SAMPLES) == []


def test_verify_oracle(verify_text):
    assert oracles.verify_problems(verify_text) == []

    payload = json.loads(verify_text)
    failed = copy.deepcopy(payload)
    failed["checks"][3]["status"] = "fail"
    assert oracles.verify_problems(json.dumps(failed))

    dropped = copy.deepcopy(payload)
    del dropped["checks"][0]
    assert oracles.verify_problems(json.dumps(dropped))


def test_repeat_oracle_ignores_only_timings(verify_text):
    retimed = verify_text.replace('"elapsed_ms": ', '"elapsed_ms": 9')
    assert oracles.repeat_problems(verify_text, retimed) == []
    changed = verify_text.replace('"pass"', '"PASS"', 1)
    assert oracles.repeat_problems(verify_text, changed)


def test_report_oracle():
    payload = checks.run_check("prop-6.3", alpha=F(2), beta=F(3)).to_json()
    assert oracles.report_problems(payload, "prop-6.3", F(2), F(3)) == []

    flipped = copy.deepcopy(payload)
    flipped["items"][0]["witness"]["equivalent"] = True
    assert oracles.report_problems(flipped, "prop-6.3", F(2), F(3))

    failing = copy.deepcopy(payload)
    failing["items"][-1]["status"] = "fail"
    assert oracles.report_problems(failing, "prop-6.3", F(2), F(3))

    dropped = copy.deepcopy(payload)
    dropped["items"] = []
    assert oracles.report_problems(dropped, "prop-6.3", F(2), F(3))


def test_plans_repeat_for_a_seed_and_keep_their_make_up():
    for workload in workloads.WORKLOADS:
        assert workloads.make_plan(workload, 7, 30) == workloads.make_plan(workload, 7, 30)
        assert workloads.make_plan(workload, 7, 30) != workloads.make_plan(workload, 8, 30)
    plan = workloads.make_plan("queries", 7, 30)
    round_size = sum(weight for _, _, weight in workloads.QUERY_MIX)
    assert len(plan) % round_size == 0
    kinds = [op[:2] for op in plan[:round_size]]
    for kind, detail, weight in workloads.QUERY_MIX:
        assert kinds.count((kind, detail)) == weight
    for _, values in workloads.make_plan("sweep", 7, 30):
        assert len(set(values)) == 2 * workloads.SWEEP_BASE_VALUES
        assert all(1 / v in values for v in values)
    (_, _, alpha, beta), *_ = workloads.make_plan("certify", 7, 30)
    assert alpha != beta and alpha * beta != 1


@pytest.mark.parametrize("outcome", ["exit 1", "raise"])
def test_a_failed_operation_makes_the_run_incorrect(monkeypatch, outcome):
    def execute(op):
        if outcome == "raise":
            raise ArithmeticError("tampered")
        return 1, ""

    monkeypatch.setattr(workloads, "execute", execute)
    plan = workloads.make_plan("sweep", 1, 1)
    body = run.run_body(plan)
    assert len(body.raw) == len(body.scaled) == body.failed == len(body.problems) == len(plan)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    done = _run(["--workload", "queries", "--seed", "3", "--seconds", "1",
                 "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == sum(weight for _, _, weight in workloads.QUERY_MIX)
    specs = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    if trace == "1":
        assert [m["name"] for m in specs] == [n for n, _ in tracing.PER_LAYER]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
