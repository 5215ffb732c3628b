"""Registry of named verification checks.

Each check id names one certified statement about the surface family; a
runner takes the shared knobs (alpha, beta, sweep bound) and returns a
CertifiedReport.  CHECKS maps each id to its runner; README's table of
checks says what each one certifies.  Long-form aliases are accepted
everywhere a check id is.
"""
from __future__ import annotations

import time
from fractions import Fraction

from . import classification, intersection, modification, surfaces
from .reports import RUN_MEMO, CertifiedReport, SuiteEntry, SuiteReport

DEFAULT_ALPHA = Fraction(2)
DEFAULT_BETA = Fraction(3)


def _def_3_1(alpha, beta, d_max) -> CertifiedReport:
    report = CertifiedReport("def-3.1")
    report.extend(surfaces.generators_report(alpha, beta))
    report.extend(surfaces.sigma_report(alpha), prefix="conjugation-")
    return report


def _prop_4_1(alpha, beta, d_max) -> CertifiedReport:
    report = CertifiedReport("prop-4.1")
    report.extend(surfaces.verify_xy_projection_chart(alpha, beta))
    report.extend(surfaces.verify_plane_automorphism(alpha, beta), prefix="plane-map-")
    return report


def _shift_off_excluded(value: Fraction) -> Fraction:
    shifted = value + 2
    while shifted in (0, 1):
        shifted += 1
    return shifted


def _prop_4_2(alpha, beta, d_max) -> CertifiedReport:
    if isinstance(alpha, str) or isinstance(beta, str):
        return surfaces.isomorphism_chain_report(alpha, beta, "c", "d")
    return surfaces.isomorphism_chain_report(
        alpha, beta, _shift_off_excluded(alpha), _shift_off_excluded(beta)
    )


def _def_3_4_fiber(alpha, beta, d_max) -> CertifiedReport:
    report = CertifiedReport("def-3.4-fiber")
    report.extend(modification.match_fiber_to_surface(alpha))
    if not isinstance(alpha, str):
        report.extend(modification.smoothness_report(alpha), prefix="smooth-")
    return report


CHECKS = {
    "def-3.1": _def_3_1,
    "rem-3.2": lambda alpha, beta, d_max: surfaces.verify_swap_isomorphism(alpha, beta),
    "rem-3.3": lambda alpha, beta, d_max: surfaces.verify_coordinate_change(),
    "lem-3.5": lambda alpha, beta, d_max: surfaces.verify_modified_plane_chart(alpha, beta),
    "prop-4.1": _prop_4_1,
    "prop-4.2": _prop_4_2,
    "prop-5.1": lambda alpha, beta, d_max: surfaces.real_locus_report(alpha),
    "lem-6.1": lambda alpha, beta, d_max: intersection.negative_curves_report(alpha, d_max),
    "lem-6.2": lambda alpha, beta, d_max: classification.matchings_report(alpha, beta),
    "prop-6.3": lambda alpha, beta, d_max: classification.classification_report(alpha, beta),
    "sec-2-cocycle": lambda alpha, beta, d_max: surfaces.cocycle_examples_report(alpha),
    "def-3.4-rees": lambda alpha, beta, d_max: modification.rees_report(),
    "def-3.4-fiber": _def_3_4_fiber,
}

_LONG_PREFIXES = {"def": "definition", "rem": "remark", "lem": "lemma",
                  "prop": "proposition", "sec": "section"}


def _long_form(check_id: str) -> str:
    """The check id with its prefix spelled out, e.g. lemma-6.1."""
    prefix, rest = check_id.split("-", 1)
    return f"{_LONG_PREFIXES[prefix]}-{rest}"


ALIASES = {_long_form(check_id): check_id for check_id in CHECKS}


def available_checks() -> list[str]:
    return list(CHECKS)


def resolve_check_id(name: str) -> str:
    name = name.strip().lower()
    name = ALIASES.get(name, name)
    if name not in CHECKS:
        known = ", ".join(available_checks())
        raise KeyError(f"unknown check {name!r}; known checks: {known}")
    return name


def run_check(check_id: str, alpha=None, beta=None, d_max=None) -> CertifiedReport:
    """Run one check; exceptions become an error item, never a crash.

    Outside a suite the check is a run of its own: its parts share
    sub-results, so def-3.4-fiber builds its surface once.
    """
    check_id = resolve_check_id(check_id)
    runner = CHECKS[check_id]
    alpha = DEFAULT_ALPHA if alpha is None else alpha
    beta = DEFAULT_BETA if beta is None else beta
    d_max = intersection.DEFAULT_D_MAX if d_max is None else d_max
    token = RUN_MEMO.set({}) if RUN_MEMO.get() is None else None
    try:
        return runner(alpha, beta, d_max)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        report = CertifiedReport(check_id)
        report.add_error("execution", witness=f"{type(exc).__name__}: {exc}")
        return report
    finally:
        if token is not None:
            RUN_MEMO.reset(token)


def run_suite(check_ids=None, alpha=None, beta=None, d_max=None,
              version: str = "0") -> SuiteReport:
    """Run the checks (default all) once each, in first-seen order.

    The checks of one run share sub-results: a surface, a chart or
    plane-map sub-report or a real structure that an earlier check built is
    handed to a later one, so an entry's elapsed_ms counts only work no
    earlier check of the run did.  No result is kept across calls: each run
    starts with an empty memo and drops it at the end.  What is kept are
    parameter-free constants, built once per process on first use:
    modification.standard_rees, classification's _graph_shape, _matchings
    and _witness_engine (one each, whatever d_max), cli.build_parser, and
    the symbolic templates of surfaces._template, one per builder and shape
    of the parameters, compiled for ring.read_at (a fiber reads its basis
    through one, and the fiber match, the chart claims and the smoothness
    samples what they decide on; the swaps are relabellings).
    """
    ids = dict.fromkeys(resolve_check_id(c) for c in (check_ids or available_checks()))
    entries = []
    token = RUN_MEMO.set({})
    try:
        for check_id in ids:
            start = time.monotonic()
            report = run_check(check_id, alpha=alpha, beta=beta, d_max=d_max)
            entries.append(SuiteEntry(
                check_id=check_id,
                status=report.status,
                witness=report.to_json(),
                elapsed_ms=int((time.monotonic() - start) * 1000),
            ))
    finally:
        RUN_MEMO.reset(token)
    return SuiteReport(version=version, entries=entries)
