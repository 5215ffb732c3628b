"""Exact verification of a family of rational surfaces with many real forms.

Everything here computes over the Gaussian rationals with exact arithmetic:
polynomial identities are decided by Groebner-basis membership, equivalence
verdicts by solving for integer/rational witnesses, and each claim is packaged
into a pass/fail report a test suite or the command line can consume.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    FNotInIdeal,
    ForbiddenParameter,
    IdenticalPoints,
    NotAntiInvolution,
    NotAutomorphism,
    NotConjugationStable,
    NotIsomorphism,
    PointNotOnVariety,
)
from .gaussian import GaussianRational
from .ring import Poly, RatFunc, RingMap, VarTable, compose, parse_poly
from .groebner import (
    Ideal,
    MonomialOrder,
    buchberger,
    certified_unit,
    exact_quotient,
    normal_form,
)
from .reports import CertifiedReport, CheckItem, SuiteEntry, SuiteReport
from .surfaces import (
    Center,
    PointConfiguration,
    RealStructure,
    SurfacePresentation,
    are_equivalent_structures,
    is_cocycle,
    make_surface,
    modified_plane_config,
    real_locus_report,
    standard_conjugation,
    swap_real_structure,
    verify_coordinate_change,
    verify_swap_isomorphism,
)
from .intersection import (
    DivisorClass,
    EnumerationResult,
    NegativeCurveRecord,
    enumerate_negative_classes,
    exceptional_class,
    intersection_matrix,
    line_class,
)
from .classification import (
    ClassificationResult,
    CurveIncidenceGraph,
    IsoWitness,
    admissible_matchings,
    classify,
    equivalence_criterion,
    incidence_graph,
)
from .modification import (
    ModificationSpec,
    ReesPresentation,
    fiber_presentation,
    match_fiber_to_surface,
    rees_presentation,
    standard_modification,
)
from .checks import available_checks, resolve_check_id, run_check, run_suite

__all__ = [
    "__version__",
    # errors
    "BudgetExceeded", "FNotInIdeal", "ForbiddenParameter",
    "IdenticalPoints", "NotAntiInvolution",
    "NotAutomorphism", "NotConjugationStable", "NotIsomorphism",
    "PointNotOnVariety",
    # arithmetic and algebra
    "GaussianRational", "Poly", "RatFunc", "RingMap", "VarTable", "compose",
    "parse_poly",
    "Ideal", "MonomialOrder", "buchberger", "certified_unit",
    "exact_quotient", "normal_form",
    # reports
    "CertifiedReport", "CheckItem", "SuiteEntry", "SuiteReport",
    # surfaces
    "Center", "PointConfiguration", "RealStructure", "SurfacePresentation",
    "are_equivalent_structures", "is_cocycle", "make_surface",
    "modified_plane_config", "real_locus_report", "standard_conjugation",
    "swap_real_structure", "verify_coordinate_change", "verify_swap_isomorphism",
    # intersection theory
    "DivisorClass", "EnumerationResult", "NegativeCurveRecord",
    "enumerate_negative_classes", "exceptional_class", "intersection_matrix",
    "line_class",
    # classification
    "ClassificationResult", "CurveIncidenceGraph", "IsoWitness",
    "admissible_matchings", "classify", "equivalence_criterion",
    "incidence_graph",
    # modification
    "ModificationSpec", "ReesPresentation",
    "fiber_presentation", "match_fiber_to_surface",
    "rees_presentation", "standard_modification",
    # check registry
    "available_checks", "resolve_check_id", "run_check", "run_suite",
]
