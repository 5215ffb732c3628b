"""Command-line interface.

Four subcommands:

* ``verify``     -- run certified checks and report pass/fail per check.
* ``classify``   -- decide equivalence for one pair of rational parameters.
* ``grid``       -- classify every pair from a list of parameter values and
                    compare each verdict with the closed-form criterion.
* ``enumerate``  -- list the negative curves found on the five-point blow-up.

Exit codes: 0 when everything asked for passed, 1 when a check or a grid
comparison failed, the Groebner step budget ran out in ``classify``,
``grid`` or ``enumerate`` (``error: <message>`` on standard error), or
standard output was closed before the report was written, 2 for usage
errors (an unknown check id, a malformed rational, an excluded parameter
value, a malformed or zero ``--d-max``, or a malformed
``REALFORMS_STEP_BUDGET``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import checks, classification, intersection, surfaces
from .errors import BudgetExceeded, ForbiddenParameter
from .gaussian import DIGITS_TEXT, RATIONAL_TEXT
from .groebner import step_budget
from .intersection import DEFAULT_D_MAX
from .reports import ERROR, FAIL, PASS

DEFAULT_GRID_VALUES = (
    Fraction(-3), Fraction(-2), Fraction(-1, 2), Fraction(-1, 3),
    Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(2),
    Fraction(5, 2), Fraction(3),
)
_quote = json.encoder.encode_basestring_ascii  # the C function of json's compact encoder
# read only after an identity test, as 1 == True and 0 == False
_LITERALS = {None: "null", True: "true", False: "false"}


def parameter(text: str):
    """Parse --alpha/--beta: an exact rational or the word ``symbolic``."""
    text = text.strip()
    if text == "symbolic":
        return text
    if not RATIONAL_TEXT.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer, a fraction like 3/4, or 'symbolic', got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def rational_parameter(text: str) -> Fraction:
    value = parameter(text)
    if isinstance(value, str):
        raise argparse.ArgumentTypeError(
            "this command needs an exact rational value, not 'symbolic'"
        )
    return value


def positive_int(text: str) -> int:
    """Parse --d-max: a positive integer in ASCII digits."""
    if not DIGITS_TEXT.fullmatch(text.strip()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def value_list(text: str) -> tuple[Fraction, ...]:
    """Parse --values: comma-separated rationals, none of them empty."""
    if not text.strip():
        raise argparse.ArgumentTypeError("empty value list")
    pieces = text.split(",")
    for position, piece in enumerate(pieces, 1):
        if not piece.strip():
            raise argparse.ArgumentTypeError(
                f"empty item {position} of {len(pieces)} in {text!r}")
    return tuple(rational_parameter(piece) for piece in pieces)


def _dump(data) -> str:
    """The bytes of json.dumps(data, sort_keys=True, indent=2), for text keys:
    with an indent json runs pure Python, so this lays the text out itself."""
    out: list[str] = []
    _write(data, out, "\n", {})
    return "".join(out)


def _write(value, out: list, newline: str, layouts: dict) -> None:
    """Append value's JSON to out; newline starts each of its inner lines, and
    layouts keeps, per newline and dict key order, the sorted keys' openings.
    A str, None or bool in a dict or a list is written with its opening in
    one piece, with no call of its own."""
    if isinstance(value, dict) and value:
        inner = newline + "  "
        layout = layouts.get((newline, *value))
        if layout is None:
            layout = layouts[(newline, *value)] = [
                (key, ("{" if k == 0 else ",") + inner + _quote(key) + ": ")
                for k, key in enumerate(sorted(value))]
        for key, opening in layout:
            item = value[key]
            if isinstance(item, str):
                out.append(opening + _quote(item))
            elif item is None or item is True or item is False:
                out.append(opening + _LITERALS[item])
            else:
                out.append(opening)
                _write(item, out, inner, layouts)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        opening = "[" + inner
        for item in value:
            if isinstance(item, str):
                out.append(opening + _quote(item))
            elif item is None or item is True or item is False:
                out.append(opening + _LITERALS[item])
            else:
                out.append(opening)
                _write(item, out, inner, layouts)
            opening = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    else:  # numbers, empty containers, and json's TypeError for anything else
        out.append(json.dumps(value))


def _tool_version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    selected = [c for c in args.checks if c.strip().lower() != "all"]
    try:
        ids = [checks.resolve_check_id(c) for c in selected]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if len(selected) < len(args.checks):  # 'all' anywhere selects every check
        ids = None
    # an excluded value is a usage error even when no selected check reads it
    for value in (args.alpha, args.beta):
        if value is not None:
            surfaces.param_pair(value)
    suite = checks.run_suite(
        ids, alpha=args.alpha, beta=args.beta, d_max=args.d_max,
        version=_tool_version(),
    )
    if args.format == "json":
        print(_dump(suite.to_json()))
    else:
        width = max(len(e.check_id) for e in suite.entries)
        for entry in suite.sorted_entries():
            print(f"{entry.check_id:<{width}}  {entry.status:<5}  {entry.elapsed_ms} ms")
            if entry.status != PASS:
                for item in entry.witness.get("items", []):
                    if item["status"] != PASS:
                        print(f"  {item['status']}: {item['claim_id']}")
        counts = suite.summary()
        print(f"summary: {counts[PASS]} pass, {counts[FAIL]} fail, {counts[ERROR]} error")
    return suite.exit_code


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    result = classification.classify(args.alpha, args.beta, d_max=args.d_max)
    criterion = classification.equivalence_criterion(args.alpha, args.beta)
    payload = result.to_json()
    payload["criterion"] = criterion
    payload["agrees_with_criterion"] = result.equivalent == criterion
    if args.format == "json":
        print(_dump(payload))
    else:
        verdict = "equivalent" if result.equivalent else "not equivalent"
        print(f"alpha={args.alpha} beta={args.beta}: {verdict}")
        print(f"admissible matchings: {result.matchings_admissible}")
        if result.witness is not None:
            (p, q), (r, s) = result.witness.matrix
            print(f"witness matrix: [[{p}, {q}], [{r}, {s}]], scalar {result.witness.scalar}")
        print(f"closed-form criterion agrees: {payload['agrees_with_criterion']}")
    return 0


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def run_grid(values, d_max: int = DEFAULT_D_MAX) -> dict:
    """Classify every ordered pair of values; flag verdict/criterion splits."""
    intersection._check_d_max(d_max)
    # the rationals in numeric order, then the names, which no Fraction orders against
    values = sorted({surfaces.param_pair(v)[0] for v in values},
                    key=lambda v: (isinstance(v, str), v))
    # each value with its graph and its text, so that no cell hashes a Fraction
    rows = [(v, classification.incidence_graph(v), str(v)) for v in values]
    cells = []
    disagreements = 0
    for a, src, a_text in rows:
        for b, dst, b_text in rows:
            result = classification._classify(a, b, src, dst)
            criterion = classification._criterion(a, b)
            agrees = result.equivalent == criterion
            disagreements += 0 if agrees else 1
            cells.append({
                "alpha": a_text,
                "beta": b_text,
                "equivalent": result.equivalent,
                "criterion": criterion,
                "agrees": agrees,
                "witness": None if result.witness is None
                else result.witness.to_json(),
            })
    return {
        "tool": "realforms",
        "version": _tool_version(),
        "d_max": d_max,
        "values": [text for _, _, text in rows],
        "cells": cells,
        "pairs": len(cells),
        "disagreements": disagreements,
        "exit_code": 0 if disagreements == 0 else 1,
    }


def _cmd_grid(args) -> int:
    values = args.values if args.values else DEFAULT_GRID_VALUES
    payload = run_grid(values, d_max=args.d_max)
    if args.format == "json":
        print(_dump(payload))
    else:
        values = payload["values"]
        width = max(len(v) for v in values)
        print(" " * (width + 2) + " ".join(f"{v:>{width}}" for v in values))
        it = iter(payload["cells"])
        for a in values:
            row = []
            for _ in values:
                cell = next(it)
                mark = "+" if cell["equivalent"] else "."
                if not cell["agrees"]:
                    mark = "!"
                row.append(f"{mark:>{width}}")
            print(f"{a:>{width}}: " + " ".join(row))
        print(f"pairs: {payload['pairs']}, disagreements: {payload['disagreements']}")
    return payload["exit_code"]


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    result = intersection.enumerate_negative_classes(args.alpha, d_max=args.d_max)
    if args.format == "json":
        payload = result.to_json()
        payload["tool"] = "realforms"
        payload["version"] = _tool_version()
        print(_dump(payload))
    else:
        for record in result.vertices():
            print(f"{record.label:<28} {record.cls}  {record.kind}")
        print(f"scanned {result.candidates_scanned} classes up to degree {result.d_max}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="realforms",
        description="Exact verification of a family of real surface structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run certified checks")
    verify.add_argument(
        "checks", nargs="*", metavar="CHECK",
        help="check ids to run, or 'all' (default: all). "
             f"Known: {', '.join(checks.available_checks())}",
    )
    verify.add_argument("--alpha", type=parameter, default=None,
                        help="first parameter (rational or 'symbolic'; default 2)")
    verify.add_argument("--beta", type=parameter, default=None,
                        help="second parameter (rational or 'symbolic'; default 3)")
    verify.add_argument("--d-max", type=positive_int, default=None,
                        help=f"degree bound for the curve sweep (default {DEFAULT_D_MAX})")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.set_defaults(func=_cmd_verify)

    classify = sub.add_parser("classify", help="decide equivalence of one pair")
    classify.add_argument("alpha", type=rational_parameter,
                          help="exact rational, e.g. 2 or 1/2")
    classify.add_argument("beta", type=rational_parameter,
                          help="exact rational, e.g. 2 or 1/2")
    classify.add_argument("--d-max", type=positive_int, default=DEFAULT_D_MAX)
    classify.add_argument("--format", choices=("json", "text"), default="json")
    classify.set_defaults(func=_cmd_classify)

    grid = sub.add_parser("grid", help="classify all pairs from a value list")
    grid.add_argument("--values", type=value_list, default=None,
                      help="comma-separated rationals (default: a ten-value spread); "
                           "a list that starts with a negative value needs the "
                           "'=' form, e.g. --values=-3,2")
    grid.add_argument("--d-max", type=positive_int, default=DEFAULT_D_MAX)
    grid.add_argument("--format", choices=("json", "text"), default="json")
    grid.set_defaults(func=_cmd_grid)

    enum = sub.add_parser("enumerate", help="list negative curves on the blow-up")
    enum.add_argument("--alpha", type=parameter, default=Fraction(2))
    enum.add_argument("--d-max", type=positive_int, default=DEFAULT_D_MAX)
    enum.add_argument("--format", choices=("json", "text"), default="json")
    enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        step_budget()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ForbiddenParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed standard output (``realforms grid | head``).
        # Point it at devnull so that the flush at interpreter exit does not
        # raise again, as the Python docs recommend for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
