"""Seeded inputs and the timed operations of the three workloads.

Every input is drawn from ``random.Random(seed)``, so one seed always gives
the same inputs.  A run is a whole number of rounds; a round is a fixed
batch of operations, so the number attempted depends only on ``--seconds``.

* ``certify`` - one operation is ``verify all`` at the run's seeded rational
  (alpha, beta) followed by ``verify all --alpha symbolic --beta symbolic``,
  both through ``cli.main``.  A round is one operation.
* ``sweep`` - one operation is one ``grid`` through ``cli.main`` over ten
  fresh values: five seeded rationals and their reciprocals.  A round is one
  operation.
* ``queries`` - one operation is one library request with fresh parameters.
  A round is the fixed mix ``QUERY_MIX`` (24 requests) in seeded order.
"""
from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

# Seconds one round takes at the commit that defined the benchmark (Python
# 3.11, 2 cores).  The run's batch is ``round(seconds / NOMINAL_ROUND_S)``
# rounds, fixed by --seconds alone, so a faster program finishes the same
# work sooner and wall_s shows it.
NOMINAL_ROUND_S = {"certify": 6.0, "sweep": 0.5, "queries": 2.0}

SWEEP_BASE_VALUES = 5

# Requests per round of the queries workload: (kind, detail, weight).  Every
# check that takes parameters is asked; rem-3.3 and def-3.4-rees take none,
# so repeating them would not be a fresh request.  The weights put the median
# in the 80-100 ms band (classify, lem-6.2, prop-6.3: 9 of 24, cumulative
# share 0.375-0.75) and the 90th percentile in the def-3.4-fiber band (5 of
# 24, cumulative share 0.75-0.96), so neither falls in a gap between kinds.
QUERY_MIX = (
    ("check", "prop-5.1", 1),
    ("check", "lem-3.5", 1),
    ("check", "rem-3.2", 1),
    ("check", "def-3.1", 1),
    ("check", "sec-2-cocycle", 1),
    ("check", "prop-4.1", 1),
    ("check", "lem-6.1", 1),
    ("enumerate", "rational", 1),
    ("enumerate", "symbolic", 1),
    ("classify", "equal", 1),
    ("classify", "reciprocal", 1),
    ("classify", "generic", 3),
    ("check", "lem-6.2", 2),
    ("check", "prop-6.3", 2),
    ("check", "def-3.4-fiber", 5),
    ("check", "prop-4.2", 1),
)

WORKLOADS = tuple(NOMINAL_ROUND_S)


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def admissible(rng: random.Random) -> Fraction:
    """A rational p/q with |p|, q <= 9, never 0, 1 or -1 (-1 is its own
    reciprocal, which would shorten a sweep list)."""
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value not in (0, 1, -1):
            return value


def generic_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Two admissible values that are neither equal nor reciprocal."""
    a = admissible(rng)
    while True:
        b = admissible(rng)
        if b != a and a * b != 1:
            return a, b


def sweep_values(rng: random.Random) -> tuple[Fraction, ...]:
    base: list[Fraction] = []
    while len(base) < SWEEP_BASE_VALUES:
        v = admissible(rng)
        if v not in base and 1 / v not in base:
            base.append(v)
    values = base + [1 / v for v in base]
    rng.shuffle(values)
    return tuple(values)


def query_round(rng: random.Random) -> list[tuple]:
    """One round of requests: (kind, detail, alpha, beta)."""
    requests = []
    for kind, detail, weight in QUERY_MIX:
        for _ in range(weight):
            a, b = generic_pair(rng)
            if detail == "equal":
                b = a
            elif detail == "reciprocal":
                b = 1 / a
            elif detail == "symbolic":
                a = b = "symbolic"
            requests.append((kind, detail, a, b))
    rng.shuffle(requests)
    return requests


def make_plan(workload: str, seed: int, seconds: int) -> list[tuple]:
    """The run's operations in order, each a tuple whose first item names
    its kind; the same (workload, seed, seconds) always gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = rounds_for(workload, seconds)
    if workload == "certify":
        alpha, beta = generic_pair(rng)
        return [("certify", "pair", alpha, beta)] * rounds
    if workload == "sweep":
        return [("grid", sweep_values(rng)) for _ in range(rounds)]
    if workload == "queries":
        return [req for _ in range(rounds) for req in query_round(rng)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``realforms <argv>`` in process; returns the exit code and stdout."""
    from realforms import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def verify_argv(alpha, beta) -> list[str]:
    # the '=' form keeps argparse from reading a leading '-' as an option
    return ["verify", "all", f"--alpha={alpha}", f"--beta={beta}"]


SYMBOLIC_VERIFY_ARGV = ["verify", "all", "--alpha", "symbolic", "--beta", "symbolic"]


def grid_argv(values) -> list[str]:
    return ["grid", "--values=" + ",".join(str(v) for v in values)]


def execute(op: tuple):
    """Run one operation and return what it produced, for the oracles.

    Returns (exit code, output); a library request has exit code 0.
    """
    kind = op[0]
    if kind == "certify":
        _, _, alpha, beta = op
        code_r, text_r = run_cli(verify_argv(alpha, beta))
        code_s, text_s = run_cli(SYMBOLIC_VERIFY_ARGV)
        return max(code_r, code_s), (text_r, text_s)
    if kind == "grid":
        return run_cli(grid_argv(op[1]))
    _, detail, a, b = op
    if kind == "classify":
        from realforms.classification import classify

        return 0, classify(a, b)
    if kind == "enumerate":
        from realforms.intersection import enumerate_negative_classes

        return 0, enumerate_negative_classes(a)
    if kind == "check":
        from realforms.checks import run_check

        return 0, run_check(detail, alpha=a, beta=b)
    raise ValueError(f"unknown operation {kind!r}")


def import_program() -> None:
    """Import every realforms module the workloads reach."""
    import realforms  # noqa: F401
    from realforms import checks, classification, cli, intersection  # noqa: F401
