"""The run-scoped memo: one suite run shares sub-results, nothing outlives it."""
from __future__ import annotations

from fractions import Fraction

import pytest

from realforms import checks, surfaces
from realforms.checks import run_check, run_suite
from realforms.reports import RUN_MEMO, shared_in_run
from realforms.surfaces import make_surface, param_pair, verify_modified_plane_chart

PAIRS = [
    (None, None),
    (Fraction(5, 4), Fraction(9, 8)),
    (Fraction(-7, 3), Fraction(5, 2)),
    ("symbolic", "symbolic"),
    ("symbolic", Fraction(3)),
]


@pytest.fixture
def open_memo():
    token = RUN_MEMO.set({})
    yield
    RUN_MEMO.reset(token)


@pytest.mark.parametrize("alpha, beta", PAIRS)
def test_suite_entries_equal_checks_run_alone(alpha, beta):
    suite = run_suite(alpha=alpha, beta=beta)
    assert len(suite.entries) == len(checks.available_checks())
    for entry in suite.entries:
        alone = run_check(entry.check_id, alpha=alpha, beta=beta)
        assert entry.witness == alone.to_json(), entry.check_id
        assert entry.status == alone.status


def test_a_failing_shared_sub_report_fails_every_check_that_reads_it(monkeypatch):
    alpha, beta = Fraction(5, 4), Fraction(9, 8)
    original = surfaces.verify_xy_projection_chart.__wrapped__
    built = []

    @shared_in_run(param_pair)
    def broken(a, b):
        report = original(a, b)
        built.append(param_pair(a, b))
        if param_pair(a, b) == (alpha, beta):
            report.add("injected-fault", False)
        return report

    monkeypatch.setattr(surfaces, "verify_xy_projection_chart", broken)
    entries = {e.check_id: e for e in run_suite(alpha=alpha, beta=beta).entries}
    assert built.count((alpha, beta)) == 1  # built by prop-4.1, reused by prop-4.2
    assert entries["prop-4.1"].status == "fail"
    links = {item["claim_id"]: item for item in entries["prop-4.2"].witness["items"]}
    assert links["link-2"]["status"] == "fail"
    assert links["link-2"]["witness"]["failures"] == ["injected-fault"]
    assert [k for k, item in links.items() if item["status"] != "pass"] == ["link-2"]


def test_a_fault_in_the_diagonal_xy_chart_fails_both_links_that_read_it(monkeypatch):
    alpha, beta = Fraction(5, 4), Fraction(9, 8)
    original = surfaces.verify_xy_projection_chart.__wrapped__

    @shared_in_run(param_pair)
    def broken(a, b):
        report = original(a, b)
        if param_pair(a, b) == (alpha, alpha):
            report.add("injected-fault", False)
        return report

    monkeypatch.setattr(surfaces, "verify_xy_projection_chart", broken)
    report = run_check("prop-4.2", alpha=alpha, beta=beta)
    assert [item.claim_id for item in report.failures()] == ["link-2", "link-3"]


def test_the_symbolic_chain_starts_on_the_diagonal(monkeypatch):
    built = _count_surface_builds(monkeypatch)
    original = surfaces.verify_modified_plane_chart.__wrapped__
    charts = []

    @shared_in_run(param_pair)
    def counting(a, b):
        charts.append(param_pair(a, b))
        return original(a, b)

    monkeypatch.setattr(surfaces, "verify_modified_plane_chart", counting)
    suite = run_suite(alpha="symbolic", beta="symbolic")
    assert all(entry.status == "pass" for entry in suite.entries)
    assert built and not any("b" in pair for pair in built)
    assert len(built) == len(set(built))
    # prop-4.2's first link reads the chart lem-3.5 certified
    assert charts == [("a", "a"), ("c", "d")]


def test_no_memo_is_open_outside_a_run():
    assert RUN_MEMO.get() is None
    run_suite(["lem-3.5"])
    assert RUN_MEMO.get() is None


def test_no_memo_is_open_after_a_runner_raises(monkeypatch):
    seen = []

    def raising(alpha, beta, d_max):
        seen.append(RUN_MEMO.get())
        raise RuntimeError("boom")

    monkeypatch.setitem(checks.CHECKS, "lem-3.5", raising)
    (entry,) = run_suite(["lem-3.5"]).entries
    assert entry.status == "error"
    assert isinstance(seen[0], dict)  # open while the run lasts
    assert RUN_MEMO.get() is None


def test_no_memo_is_open_after_the_run_itself_raises(monkeypatch):
    class Abort(Exception):
        pass

    def aborting(*args, **kwargs):
        raise Abort

    monkeypatch.setattr(checks, "run_check", aborting)
    with pytest.raises(Abort):
        run_suite(["lem-3.5"])
    assert RUN_MEMO.get() is None


def _count_surface_builds(monkeypatch) -> list:
    """The cooked pair of every request for a surface's generators, each
    read from the process's template of its shape."""
    built = []
    at_parameters = surfaces.at_parameters

    def counting(build, table, *cooked):
        if build is surfaces.surface_generators:
            built.append(cooked)
        return at_parameters(build, table, *cooked)

    monkeypatch.setattr(surfaces, "at_parameters", counting)
    return built


def test_a_run_builds_each_surface_once(monkeypatch):
    built = _count_surface_builds(monkeypatch)
    run_suite(alpha=Fraction(5, 4), beta=Fraction(9, 8))
    assert built
    assert len(built) == len(set(built))


def test_consecutive_runs_both_do_the_work(monkeypatch):
    built = _count_surface_builds(monkeypatch)
    run_suite(["prop-4.1", "prop-4.2"], alpha=Fraction(5, 4), beta=Fraction(9, 8))
    first = list(built)
    built.clear()
    run_suite(["prop-4.1", "prop-4.2"], alpha=Fraction(5, 4), beta=Fraction(9, 8))
    assert first and built == first


def test_checks_outside_a_run_compute_afresh(monkeypatch):
    built = _count_surface_builds(monkeypatch)
    run_check("lem-3.5")
    run_check("lem-3.5")
    assert built == [(Fraction(2), Fraction(3))] * 2
    assert make_surface(2) is not make_surface(2)


def test_a_lone_check_is_a_run_of_its_own(monkeypatch):
    # the fiber match and the smoothness spot checks share W(2, 2)
    built = _count_surface_builds(monkeypatch)
    assert run_check("def-3.4-fiber").passed
    assert built == [(Fraction(2), Fraction(2))]
    assert RUN_MEMO.get() is None


def test_memo_keys_are_cooked_parameters(open_memo):
    assert make_surface(2, 3) is make_surface(Fraction(2), Fraction(3))
    assert make_surface("symbolic", "symbolic") is make_surface("a", "a")
    assert make_surface(2) is make_surface(2, 2)
    assert make_surface(2) is not make_surface(3)
    assert make_surface("symbolic", "b") is not make_surface("a", "a")


def test_a_shared_report_is_handed_out_as_a_fresh_copy(open_memo):
    first = verify_modified_plane_chart(2, 3)
    first.add("spoiled", False)
    again = verify_modified_plane_chart(Fraction(2), Fraction(3))
    assert again is not first
    assert again.passed
    assert [i.claim_id for i in again.items] == [i.claim_id for i in first.items[:-1]]
