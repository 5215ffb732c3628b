"""End-to-end command-line behaviour: output schema, determinism, exit codes."""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import realforms
from realforms import checks, cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# -- verify -----------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, data, _ = run_json(capsys, "verify", "lemma-6.1", "--alpha", "2")
    assert code == 0
    assert data["tool"] == "realforms"
    assert data["exit_code"] == 0
    (entry,) = data["checks"]
    assert entry["check_id"] == "lem-6.1"
    assert entry["paper_ref"] == "lem-6.1"
    assert entry["status"] == "pass"
    labels = next(
        item for item in entry["witness"]["items"]
        if item["claim_id"] == "record-labels"
    )
    assert len(labels["witness"]["got"]) == 11


def test_verify_all_passes(capsys):
    code, data, _ = run_json(capsys, "verify", "all")
    assert code == 0
    assert len(data["checks"]) == 13
    assert data["summary"] == {"pass": 13, "fail": 0, "error": 0}
    ids = [entry["check_id"] for entry in data["checks"]]
    assert ids == sorted(ids)


def test_verify_symbolic_passes(capsys):
    code, data, _ = run_json(
        capsys, "verify", "all", "--alpha", "symbolic", "--beta", "symbolic"
    )
    assert code == 0
    assert data["summary"]["pass"] == 13


def test_verify_unknown_check_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "bogus-id")
    assert code == 2
    assert "unknown check" in err


def test_verify_json_deterministic(capsys):
    def snapshot():
        code, data, _ = run_json(
            capsys, "verify", "def-3.1", "rem-3.2", "--alpha", "3", "--beta", "1/3"
        )
        assert code == 0
        for entry in data["checks"]:
            entry.pop("elapsed_ms")
        return json.dumps(data, sort_keys=True)

    assert snapshot() == snapshot()


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "def-3.1", "--format", "text")
    assert code == 0
    assert "def-3.1" in out
    assert "summary: 1 pass, 0 fail, 0 error" in out


@pytest.mark.parametrize("argv", [
    ("lem-3.5", "all"),
    ("all", "lem-3.5"),
    ("lemma-3.5", "ALL", "prop-4.2"),
])
def test_verify_all_anywhere_selects_every_check(capsys, argv):
    code, data, _ = run_json(capsys, "verify", *argv)
    assert code == 0
    assert [e["check_id"] for e in data["checks"]] == sorted(checks.available_checks())
    assert data["summary"] == {"pass": 13, "fail": 0, "error": 0}


def test_verify_all_still_refuses_an_unknown_id(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "bogus-id")
    assert code == 2
    assert out == ""
    assert "unknown check" in err


def test_verify_runs_a_repeated_id_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "lem-3.5", "lemma-3.5", "lem-3.5",
                           "--format", "text")
    assert code == 0
    assert "summary: 1 pass, 0 fail, 0 error" in out
    code, data, _ = run_json(capsys, "verify", "prop-4.1", "lem-3.5", "proposition-4.1")
    assert [e["check_id"] for e in data["checks"]] == ["lem-3.5", "prop-4.1"]
    assert data["summary"]["pass"] == 2


def test_run_suite_keeps_first_seen_order_of_distinct_ids():
    suite = checks.run_suite(["prop-4.1", "lem-3.5", "proposition-4.1", "lem-3.5"])
    assert [e.check_id for e in suite.entries] == ["prop-4.1", "lem-3.5"]


def test_verify_bad_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--alpha", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--alpha", "0"),
    ("verify", "rem-3.3", "--alpha", "0"),
    ("verify", "lem-6.1", "--alpha", "2", "--beta", "1"),
])
def test_verify_excluded_parameter_exits_2(capsys, argv):
    # rem-3.3 takes no parameter, and lem-6.1 reads only alpha
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "excluded" in err


# -- classify ---------------------------------------------------------------------


def test_classify_isomorphic_pair(capsys):
    code, data, _ = run_json(capsys, "classify", "2", "1/2")
    assert code == 0
    assert data["equivalent"] is True
    assert data["criterion"] is True
    assert data["agrees_with_criterion"] is True
    assert data["witness"]["matrix"] == [["1/2", "0"], ["0", "1/2"]]


def test_classify_distinct_pair(capsys):
    code, data, _ = run_json(capsys, "classify", "2", "3")
    assert code == 0
    assert data["equivalent"] is False
    assert data["witness"] is None
    assert data["agrees_with_criterion"] is True


def test_classify_excluded_parameter_exits_2(capsys):
    code, out, err = run_cli(capsys, "classify", "1", "2")
    assert code == 2
    assert "excluded" in err


def test_classify_rejects_symbolic(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "symbolic", "2"])
    assert exc.value.code == 2


def test_classify_rejects_decimals(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "0.5", "2"])
    assert exc.value.code == 2


def test_classify_requires_both_values(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "2"])
    assert exc.value.code == 2


def test_classify_text_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "2", "1/2", "--format", "text")
    assert code == 0
    assert "equivalent" in out
    assert "[[1/2, 0], [0, 1/2]]" in out


# -- grid -------------------------------------------------------------------------


def test_grid_small(capsys):
    code, data, _ = run_json(capsys, "grid", "--values", "2,1/2")
    assert code == 0
    assert data["pairs"] == 4
    assert data["disagreements"] == 0
    verdicts = {(c["alpha"], c["beta"]): c["equivalent"] for c in data["cells"]}
    assert verdicts == {
        ("1/2", "1/2"): True,
        ("1/2", "2"): True,
        ("2", "1/2"): True,
        ("2", "2"): True,
    }
    for cell in data["cells"]:
        assert cell["agrees"] is True
        assert cell["witness"] is not None


TWENTY_VALUES = "--values=-7,-5,-3,-2,-3/2,-1/2,-1/3,-2/3,1/5,1/3,2/5,1/2,2/3,3/2,2,5/2,3,7/3,3/7,5"


@pytest.mark.parametrize("argv, digest", [
    (["grid"], "2c4e868cd581ee9f6539f0cf1c7b7cf6886666cccefce83eefb9ad6c9a705395"),
    (["grid", TWENTY_VALUES],
     "94b880199075e0e49ff07367f0f1223edcb2fbb76857325cfc1aa2b25c6e2cc3"),
    (["classify", "2", "1/2"],
     "c3029da00799abcb8881917eb24ea593dfb62e856dd8c27657704c6235607e22"),
    (["enumerate", "--alpha", "symbolic"],
     "478bcaca6a4c703434db1d7c469886a3b6f5f25258cde92557a68af21effec10"),
    # -1 is its own reciprocal, so every one of the four matchings has a witness
    (["classify", "-1", "-1"],
     "3ab3091ae5c8b5702e174e26f68fbfed0dc61a48b444e7d2a0e66a8a0a06ef8a"),
], ids=["grid", "grid-20-values", "classify", "enumerate-symbolic", "classify-self-reciprocal"])
def test_classification_json_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the JSON these commands printed before the matching memo and
    # the integer witness solve (enumerate: before one function built every
    # parameter ring); a faster search must not move a byte
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["grid"],
    ["grid", "--values=-1,2,1/2,3,7/3,3/7"],
    ["classify", "2", "1/2"],
    ["classify", "-1", "-1"],
    ["classify", "2", "3"],
], ids=["grid", "grid-values", "classify", "classify-self-reciprocal", "classify-distinct"])
def test_classification_json_is_the_same_at_every_d_max(capsys, argv):
    # the twelve curves of the incidence graph have degree at most 1, so a
    # deeper sweep may move no byte but the echoed d_max
    outputs = {}
    for d_max in range(1, 7):
        code, data, _ = run_json(capsys, *argv, "--d-max", str(d_max))
        assert code == 0 and data.pop("d_max") == d_max
        outputs[d_max] = data
    assert all(outputs[d_max] == outputs[6] for d_max in range(1, 6))


VERIFY_MODES = {
    "rational": [],
    "symbolic": ["--alpha", "symbolic", "--beta", "symbolic"],
    "mixed-symbolic": ["--alpha", "symbolic"],
    "negative-rational": ["--alpha=-7/3", "--beta=5/2"],
}


@pytest.mark.parametrize("mode, digest", [
    ("rational", "b119a1fbb56af0e14a198f405f603450486894dcca30a1380841c1fc4a8bc392"),
    # prop-4.2 chains from the diagonal W(a, a), as every other check reads it
    ("symbolic", "61429da2bb61b05a5a792eeb4db022989c2e90e718b08cb98448861b6534db44"),
    ("mixed-symbolic", "6a5b4a48b29ccdafb97a86ea0aa234cc4386839a0bd6c28d6d2c86d80063c05c"),
    ("negative-rational", "44d34a38473ca925317480f26f39b79af565a3c1ccc8e65cfa9cb55b9c6ab73c"),
], ids=list(VERIFY_MODES))
def test_verify_json_bytes_are_pinned(capsys, mode, digest):
    # sha256 of the JSON `verify all` printed in each mode, with every
    # elapsed_ms set to 0, before ring maps substituted over one common
    # denominator (the first two) and before one function built every
    # parameter ring (the last two); the witnesses print substituted
    # numerators, so no byte may move
    code, out, _ = run_cli(capsys, "verify", "all", *VERIFY_MODES[mode])
    assert code == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", VERIFY_MODES)
def test_adjacent_chain_links_meet(capsys, mode):
    code, data, _ = run_json(capsys, "verify", "prop-4.2", *VERIFY_MODES[mode])
    assert code == 0
    links = [item["witness"] for item in data["checks"][0]["witness"]["items"]]
    assert len(links) == 6
    assert all(link["to"] == after["from"] for link, after in zip(links, links[1:]))


# -- the JSON writer ----------------------------------------------------------------

# quote, backslash, slash, control characters, DEL, non-ASCII and beyond the BMP
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f\u00e9\u2028\U0001f600')
                    | st.characters(), max_size=6)
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False) | JSON_TEXT)
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_PAYLOADS)
# one key set in two insertion orders, each met twice, and again one level deeper
@example([{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": 5, "a": 6}, {"a": 7, "b": 8},
          {"b": [{"a": 9, "b": 0}, {"b": 1, "a": 2}]}])
# key sets that differ, overlap, nest and are empty, side by side in one list
@example([{"a": 1}, {"a": 1, "b": 2}, {"b": 2}, {}, {"a": {"a": {"b": None}}}, {"c": [], "a": 0}])
# text, null and booleans straight in lists and dicts, beside nested containers
@example(["x", None, True, False, [None, "y", []], {"k": False}, "", {}])
@example({"s": "x", "n": None, "t": True, "f": False, "l": ["z", {"e": ""}], "d": {"": None}})
# the empty string and strings that need escapes, as leaves and as keys
@example({"": "", "q\"": ["\\", "\n\t\x00", "\u00e9\u2028", "\U0001f600"], "/": "\x7f"})
def test_dump_writes_the_bytes_of_json_dumps(payload):
    assert cli._dump(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("argv", [["grid"], ["grid", "--values=-1,2,1/2,3"],
                                  ["classify", "-1", "-1"], ["verify", "all"]])
def test_dump_of_live_payloads_equals_json_dumps(capsys, monkeypatch, argv):
    payloads = []
    dump = cli._dump

    def recording(data):
        payloads.append(data)
        return dump(data)

    monkeypatch.setattr(cli, "_dump", recording)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (payload,) = payloads
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_grid_solves_each_admissible_matching_once(monkeypatch):
    # one reading of the engine per cell decides its four matchings: each
    # locus evaluated once, and the four entries read only for a matching
    # whose locus vanishes, a = b for two matchings and ab = 1 for the other two
    engine = cli.classification._witness_engine()
    loci = sorted({poly for _, locus, _, _ in engine.values() for poly in locus})
    cell_witnesses, value = cli.classification._cell_witnesses, cli.classification._value
    cells, evaluated = [], []

    def counting_cell(alpha, beta, matchings):
        evaluated.clear()
        matrices = cell_witnesses(alpha, beta, matchings)
        cells.append((alpha, beta, list(matchings), list(evaluated), matrices))
        return matrices

    def counting_value(poly, *args):
        evaluated.append(poly)
        return value(poly, *args)

    monkeypatch.setattr(cli.classification, "_cell_witnesses", counting_cell)
    monkeypatch.setattr(cli.classification, "_value", counting_value)
    payload = cli.run_grid([2, Fraction(1, 2), 3])
    assert payload["pairs"] == 9 and payload["disagreements"] == 0
    assert len(cells) == 9 and len(loci) == 2
    for alpha, beta, matchings, polys, matrices in cells:
        assert sorted(matchings) == sorted(engine)  # each admissible matching once
        assert sorted(p for p in polys if p in loci) == loci
        candidates = 2 * (alpha == beta) + 2 * (alpha * beta == 1)
        assert len([m for m in matrices if m is not None]) == candidates
        assert len([p for p in polys if p not in loci]) == 4 * candidates


def test_grid_cells_build_no_traces(monkeypatch):
    result_type = cli.classification.ClassificationResult
    render = result_type.traces.fget
    reads = []

    def counting(result):
        reads.append(result)
        return render(result)

    monkeypatch.setattr(result_type, "traces", property(counting))
    payload = cli.run_grid([2, Fraction(1, 2), 3])
    assert payload["pairs"] == 9 and reads == []
    assert len(cli.classification.classify(2, 3).traces) == 4 and len(reads) == 1


def test_grid_orders_rationals_then_names():
    payload = cli.run_grid(["symbolic", 2, "b", Fraction(1, 2)])
    assert payload["values"] == ["1/2", "2", "a", "b"]
    cooked = {"1/2": Fraction(1, 2), "2": Fraction(2), "a": "a", "b": "b"}
    assert payload["pairs"] == 16 and payload["disagreements"] == 0
    for cell in payload["cells"]:
        criterion = cli.classification._criterion(cooked[cell["alpha"]], cooked[cell["beta"]])
        assert cell["equivalent"] is cell["criterion"] is criterion


@pytest.mark.parametrize("values, position", [
    ("2,,3", "item 2 of 3"),
    ("2,3,", "item 3 of 3"),
    (",2", "item 1 of 2"),
    ("2, ,3", "item 2 of 3"),
])
def test_grid_empty_value_item_is_usage_error(capsys, values, position):
    with pytest.raises(SystemExit) as exc:
        cli.main(["grid", "--values", values])
    assert exc.value.code == 2
    assert f"empty {position}" in capsys.readouterr().err


def test_grid_values_allow_spaces_around_items(capsys):
    code, data, _ = run_json(capsys, "grid", "--values", " 2 , 1/2 ")
    assert code == 0
    assert data["values"] == ["1/2", "2"]


def test_grid_with_excluded_value_exits_2(capsys):
    code, out, err = run_cli(capsys, "grid", "--values", "0,2")
    assert code == 2
    assert "excluded" in err


def test_grid_text_format(capsys):
    code, out, _ = run_cli(capsys, "grid", "--values", "2,3", "--format", "text")
    assert code == 0
    assert "pairs: 4, disagreements: 0" in out


# -- enumerate --------------------------------------------------------------------


def test_enumerate_json(capsys):
    code, data, _ = run_json(capsys, "enumerate", "--alpha", "2")
    assert code == 0
    assert data["tool"] == "realforms"
    assert len(data["records"]) == 11
    labels = [r["label"] for r in data["records"]]
    assert "E(0,0)" in labels
    assert "L(x-az)" in labels


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--alpha", "symbolic",
                           "--format", "text")
    assert code == 0
    assert "E(0,0)" in out
    assert "scanned" in out
    assert "degree 6" in out


# -- shared parsing ---------------------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("enumerate", "--d-max", "-1"),
    ("enumerate", "--d-max", "0"),
    ("classify", "2", "3", "--d-max", "0"),
    ("verify", "lem-6.1", "--d-max", "0"),
    ("grid", "--values", "2,3", "--d-max", "0"),
])
def test_d_max_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "--d-max" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("classify", "٣", "2"),  # an Arabic-Indic digit three
    ("classify", "2", "1/２"),  # a fullwidth digit two
    ("grid", "--values", "٢,٣"),
    ("verify", "lem-6.1", "--alpha", "٣"),
    ("enumerate", "--d-max", "1_0"),
    ("enumerate", "--d-max", "٣"),
    ("enumerate", "--d-max", "+5"),
    ("classify", "2", "3", "--d-max", "3.0"),
    ("classify", "+2", "3"),
    ("grid", "--values", "2,+1/2"),
])
def test_exact_text_reads_ascii_digits_only(capsys, argv):
    # one spelling per value: no other script's digits, no underscores, no plus
    # sign, and no sign at all on a count
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_d_max_reads_ascii_digits_with_spaces_around():
    assert cli.positive_int(" 12 ") == 12
    assert cli.positive_int("007") == 7


@pytest.mark.parametrize("raw", ["abc", "0", "1_000_000", "١٠٠٠٠٠٠", "+2000000", "-5"])
def test_malformed_step_budget_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("REALFORMS_STEP_BUDGET", raw)
    code, out, err = run_cli(capsys, "verify", "rem-3.3")
    assert code == 2
    assert out == ""
    assert "REALFORMS_STEP_BUDGET" in err


def test_internal_key_error_is_not_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli.classification, "classify", broken)
    with pytest.raises(KeyError):
        cli.main(["classify", "2", "3"])


@pytest.mark.parametrize("long_form, check_id", [
    ("definition-3.1", "def-3.1"),
    ("remark-3.2", "rem-3.2"),
    ("remark-3.3", "rem-3.3"),
    ("lemma-3.5", "lem-3.5"),
    ("proposition-4.1", "prop-4.1"),
    ("proposition-4.2", "prop-4.2"),
    ("proposition-5.1", "prop-5.1"),
    ("lemma-6.1", "lem-6.1"),
    ("lemma-6.2", "lem-6.2"),
    ("proposition-6.3", "prop-6.3"),
    ("section-2-cocycle", "sec-2-cocycle"),
    ("definition-3.4-rees", "def-3.4-rees"),
    ("definition-3.4-fiber", "def-3.4-fiber"),
])
def test_long_form_check_ids_resolve(long_form, check_id):
    assert checks.resolve_check_id(long_form) == check_id


def test_parameter_parsing_forms():
    assert cli.parameter("5/2") == Fraction(5, 2)
    assert cli.parameter("-3") == -3
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parameter("+5/2")  # coefficient_str never prints a plus sign
    assert cli.parameter("symbolic") == "symbolic"
    with pytest.raises(Exception):
        cli.parameter("1/0")
    with pytest.raises(Exception):
        cli.parameter("two")


@pytest.mark.parametrize("argv", [
    ["grid", "--values=2,1/2,3"],
    ["grid", "--values=2,1/2,3", "--format", "text"],
])
def test_closed_stdout_exits_quietly(argv):
    # the reader end is closed before the command writes, as when
    # `realforms grid | head -c 200` stops reading early
    src = os.path.dirname(os.path.dirname(os.path.abspath(realforms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "realforms", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1  # output was lost; 2 is kept for usage errors


@pytest.mark.parametrize("argv", [
    ["classify", "2", "1/2"],
    ["grid"],
    ["enumerate", "--alpha", "symbolic"],
])
def test_exhausted_step_budget_is_an_error_line_and_exit_1(argv):
    # a fresh process, so no cached constant spares the Groebner engine
    src = os.path.dirname(os.path.dirname(os.path.abspath(realforms.__file__)))
    env = dict(os.environ, REALFORMS_STEP_BUDGET="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "realforms", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 1  # the input was fine: not a usage error
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: Groebner step budget exhausted: "), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


TRACED_VERIFY = """
import json
import sys

sys.path[:0] = ["perfbench", "src"]
import workloads

workloads.import_program()
import tracing
from realforms import cli

tracer = tracing.Tracer()
tracing.install(tracer)
tracer.active = True
code = cli.main(["verify", "rem-3.2", "def-3.4-fiber"])
tracer.active = False
print(json.dumps({"code": code, "metrics": tracer.per_layer(1.0)}))
"""


def test_traced_verify_runs():
    # perfbench/tracing.py wraps functions and methods by name, as
    # perfbench/run.py --trace 1 installs it; a renamed or deleted one
    # breaks traced runs and nothing else
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(realforms.__file__))))
    proc = subprocess.run([sys.executable, "-c", TRACED_VERIFY], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    traced = json.loads(last)
    assert traced["code"] == 0
    assert [c["status"] for c in json.loads(report)["checks"]] == ["pass", "pass"]
    metrics = traced["metrics"]
    assert metrics["ring.ringmap.calls"] > 0
    assert metrics["checks.rem-3.2.ms"] > 0 and metrics["checks.def-3.4-fiber.ms"] > 0
