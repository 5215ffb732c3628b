"""Registry of named verification checks.

Each check id names one certified statement about the surface family; a
runner takes the shared knobs (alpha, beta, sweep bound) and returns a
CertifiedReport.  Long-form aliases are accepted everywhere a check id is.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import classification, intersection, modification, surfaces
from .reports import RUN_MEMO, CertifiedReport, SuiteEntry, SuiteReport

DEFAULT_ALPHA = Fraction(2)
DEFAULT_BETA = Fraction(3)


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    summary: str
    runner: Callable


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


_SPECS = (
    CheckSpec(
        "def-3.1",
        "presentation of the surface family and its pair-swap conjugation",
        _def_3_1,
    ),
    CheckSpec(
        "rem-3.2",
        "the coordinate-pair swap maps the surface onto the parameter-swapped surface",
        lambda alpha, beta, d_max: surfaces.verify_swap_isomorphism(alpha, beta),
    ),
    CheckSpec(
        "rem-3.3",
        "a linear change of coordinates turns the conjugation into the standard one",
        lambda alpha, beta, d_max: surfaces.verify_coordinate_change(),
    ),
    CheckSpec(
        "lem-3.5",
        "the chart identities of the projection to the modified plane",
        lambda alpha, beta, d_max: surfaces.verify_modified_plane_chart(alpha, beta),
    ),
    CheckSpec(
        "prop-4.1",
        "chart identities of the coordinate-pair projection and the plane map",
        _prop_4_1,
    ),
    CheckSpec(
        "prop-4.2",
        "certified isomorphism chain between two modified planes",
        _prop_4_2,
    ),
    CheckSpec(
        "prop-5.1",
        "fixed centers and swapped boundary of the conjugation on the configuration",
        lambda alpha, beta, d_max: surfaces.real_locus_report(alpha),
    ),
    CheckSpec(
        "lem-6.1",
        "complete table of negative curves on the five-point blow-up",
        lambda alpha, beta, d_max: intersection.negative_curves_report(alpha, d_max),
    ),
    CheckSpec(
        "lem-6.2",
        "boundary chain invariants and admissible graph matchings",
        lambda alpha, beta, d_max: classification.matchings_report(alpha, beta, d_max),
    ),
    CheckSpec(
        "prop-6.3",
        "equivalence verdict against the closed-form criterion",
        lambda alpha, beta, d_max: classification.classification_report(alpha, beta, d_max),
    ),
    CheckSpec(
        "sec-2-cocycle",
        "worked examples for the cocycle and equivalence predicates",
        lambda alpha, beta, d_max: surfaces.cocycle_examples_report(alpha),
    ),
    CheckSpec(
        "def-3.4-rees",
        "presentation of the modified plane by scale variables",
        lambda alpha, beta, d_max: modification.rees_report(),
    ),
    CheckSpec(
        "def-3.4-fiber",
        "the scale-one chart matches the diagonal surface",
        _def_3_4_fiber,
    ),
)

CHECKS = {spec.check_id: spec for spec in _SPECS}

_LONG_PREFIXES = {"def": "definition", "rem": "remark", "lem": "lemma",
                  "prop": "proposition", "sec": "section"}


def _long_form(check_id: str) -> str:
    """The check id with its prefix spelled out, e.g. lemma-6.1."""
    prefix, rest = check_id.split("-", 1)
    return f"{_LONG_PREFIXES[prefix]}-{rest}"


ALIASES = {_long_form(check_id): check_id for check_id in CHECKS}


def available_checks() -> list[str]:
    return [spec.check_id for spec in _SPECS]


def resolve_check_id(name: str) -> str:
    name = name.strip().lower()
    name = ALIASES.get(name, name)
    if name not in CHECKS:
        known = ", ".join(available_checks())
        raise KeyError(f"unknown check {name!r}; known checks: {known}")
    return name


def run_check(check_id: str, alpha=None, beta=None, d_max=None) -> CertifiedReport:
    """Run one check; exceptions become an error item, never a crash."""
    check_id = resolve_check_id(check_id)
    spec = CHECKS[check_id]
    alpha = DEFAULT_ALPHA if alpha is None else alpha
    beta = DEFAULT_BETA if beta is None else beta
    d_max = intersection.DEFAULT_D_MAX if d_max is None else d_max
    try:
        return spec.runner(alpha, beta, d_max)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        report = CertifiedReport(check_id)
        report.add_error("execution", witness=f"{type(exc).__name__}: {exc}")
        return report


def run_suite(check_ids=None, alpha=None, beta=None, d_max=None,
              version: str = "0") -> SuiteReport:
    """Run the checks (default all) once each, in first-seen order.

    The checks of one run share sub-results: a surface, a chart or
    plane-map sub-report, a real structure or a Rees presentation that an
    earlier check built is handed to a later one, so an entry's elapsed_ms
    counts only work no earlier check of the run did.  Nothing is kept
    across calls: each run starts with an empty memo and drops it at the end.
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
