"""Run one workload of the realforms benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a realforms checkout; the program is imported from
``./src`` and nowhere else.  Every output is checked by ``oracles``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1`` (its
spans are written to ``perfbench/results/``).  Exits 2 without a result when
the checkout holds no ``src/realforms``.

The host this was written on changes speed by up to half in spells of
seconds to minutes, and process CPU time moves with it.  So the operation
times are taken at a fixed host speed: before each operation, and every
``SAMPLE_EVERY_S`` during it, the run times a fixed piece of ``Fraction``
arithmetic (``reference``), and an operation's time, less the references
inside it, is scaled by ``REFERENCE_S`` over the median of the reference
times around it.  The times as measured are printed on the summary line.
``setup_s`` is wall time as measured.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for setup_s in one run; the median is reported.
SETUP_PROBES = 9
# op_p90_ms is printed only when at least ten samples lie beyond it.
P90_MIN_OPS = 100
# Terms of the reference computation, and the median seconds it took on the
# host the benchmark was defined on (Python 3.11.7, 2 cores).
REFERENCE_TERMS = 600
REFERENCE_S = 0.0060
# The reference is also timed this often during an operation, from a timer
# signal, and its time is left out of the operation's.
SAMPLE_EVERY_S = 0.2
# An operation is scaled by the median of the reference times taken during
# it and up to this long before its start or after its end.
WINDOW_S = 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the program, build the inputs and exit "
                             "(one sample of setup_s)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_from_checkout() -> None:
    """Put ./src first on the path and import realforms from there."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "realforms", "__init__.py")):
        print("error: no src/realforms here; run from the root of a realforms "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    workloads.import_program()
    import realforms

    if not os.path.abspath(realforms.__file__).startswith(src + os.sep):
        print(f"error: realforms was imported from {realforms.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def reference() -> float:
    """Seconds a fixed piece of small-Fraction arithmetic takes now."""
    start = time.perf_counter()
    x, acc = Fraction(3, 7), 0
    for k in range(1, REFERENCE_TERMS):
        y = Fraction(k, k + 2)
        acc += (x * y + y / (y + 1)).numerator % 7
    return time.perf_counter() - start


class HostSpeed:
    """Reference times taken through the timed body, each with its start."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.inside = 0.0  # time the samples took during this operation

    def sample(self) -> None:
        start = time.perf_counter()
        took = reference()
        self.samples.append((start, took))
        self.inside += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample once, then every SAMPLE_EVERY_S until ``stop``."""
        self.sample()
        self.inside = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        """Disarm the timer; returns the time sampling took since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.inside

    def scaled(self, elapsed: float, start: float, end: float) -> float:
        """``elapsed``, taken from ``start`` to ``end``, at reference speed."""
        around = [took for at, took in self.samples
                  if start - WINDOW_S <= at <= end + WINDOW_S]
        return elapsed * REFERENCE_S / statistics.median(around)

    def factor(self) -> float:
        """The run's host speed: REFERENCE_S over the median reference."""
        return REFERENCE_S / statistics.median(took for _, took in self.samples)


class SetupProbes:
    """Samples of setup_s: wall time of a fresh interpreter that imports
    realforms and builds this run's inputs, up to where the first operation
    would start.  The samples are spread over the run, between operations,
    so that one slow or fast spell of the host does not set all of them.
    They are not scaled to the reference speed: start-up does not follow
    the reference computation (a test of 30 probes, each scaled by the
    reference in the probe itself, spread as much as unscaled ones)."""

    def __init__(self, args, operations: int):
        self.argv = [sys.executable, os.path.abspath(__file__),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--setup-probe"]
        slots = operations + 1
        self.schedule = [(SETUP_PROBES * (k + 1)) // slots - (SETUP_PROBES * k) // slots
                         for k in range(slots)]
        self.samples: list[float] = []

    def run(self, slot: int) -> None:
        for _ in range(self.schedule[slot]):
            start = time.perf_counter()
            subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL)
            self.samples.append(time.perf_counter() - start)


class Checker:
    """Applies the oracles to each operation's output."""

    def __init__(self):
        self.first_verify = None

    def problems(self, op: tuple, output) -> list[str]:
        kind = op[0]
        if kind == "certify":
            rational, symbolic = output
            found = oracles.verify_problems(rational) + oracles.verify_problems(symbolic)
            if self.first_verify is None:
                self.first_verify = output
            else:
                found += oracles.repeat_problems(self.first_verify[0], rational)
                found += oracles.repeat_problems(self.first_verify[1], symbolic)
            return found
        if kind == "grid":
            return oracles.grid_problems(json.loads(output), op[1])
        _, detail, a, b = op
        payload = output.to_json()
        if kind == "classify":
            return oracles.classification_problems(payload, a, b)
        if kind == "enumerate":
            return oracles.enumeration_problems(payload, a)
        return oracles.report_problems(payload, detail, a, b)


class Body:
    """What the timed body of a run gave: each operation's time as measured
    and at reference speed (both without the reference samples), the host
    speed, failures and the oracles' problems."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.host_speed = 1.0
        self.failed = 0
        self.problems: list[str] = []


def run_body(plan, tracer=None, probes=None) -> Body:
    """Run every operation.  Setup probes, if given, run between
    operations, outside the timing."""
    execute = workloads.execute
    if tracer is not None:
        execute = tracer.wrap("bench.op", workloads.execute)
    checker = Checker()
    speed = HostSpeed()
    body = Body()
    bounds = []
    for index, op in enumerate(plan):
        if probes is not None:
            probes.run(index)
        speed.start()
        if tracer is not None:
            tracer.op = index
            tracer.active = True
        start = time.perf_counter()
        try:
            code, output = execute(op)
        except Exception:  # noqa: BLE001 - a failed operation
            code, output = None, None
            traceback.print_exc()
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        sampling = speed.stop()
        body.raw.append(end - start - sampling)
        bounds.append((start, end))
        if code != 0:
            # every workload's operations are meant to succeed (verify exits
            # 0 with 13 passes), so a failure is also a wrong output
            body.failed += 1
            found = [f"failed (exit {code})"]
        else:
            found = checker.problems(op, output)
        for problem in found:
            print(f"operation {index} {op[:2]}: {problem}", file=sys.stderr)
        body.problems += found
    speed.sample()
    if probes is not None:
        probes.run(len(plan))
    body.scaled = [speed.scaled(elapsed, start, end)
                   for elapsed, (start, end) in zip(body.raw, bounds)]
    body.host_speed = speed.factor()
    return body


def summary_line(workload: str, seed: int, body: Body) -> str:
    """For people: the body's time as measured, the host speed against the
    reference, and the 90th percentile of the scaled latencies when at
    least ten samples lie beyond it (failed operations count too).  The
    percentile is not in the result, because a run of ``certify`` holds too
    few operations for one."""
    line = (f"{workload} seed {seed}: {len(body.raw)} operations, "
            f"{body.failed} failed, raw_wall_s {sum(body.raw):.3f}, "
            f"host_speed {body.host_speed:.3f}")
    if len(body.scaled) >= P90_MIN_OPS:
        line += f", op_p90_ms {statistics.quantiles(body.scaled, n=10)[-1] * 1000:.1f}"
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    import_from_checkout()
    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    if args.setup_probe:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    probes = None if args.trace else SetupProbes(args, len(plan))

    body = run_body(plan, tracer, probes)
    wall_s = sum(body.scaled)
    completed = len(plan) - body.failed

    if tracer is not None:
        values = tracer.per_layer(wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        spans_path = os.path.join(
            HERE, "results", f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        print(f"traced {args.workload}: {len(plan)} operations, raw_wall_s {sum(body.raw):.3f}, "
              f"wall_s {wall_s:.3f} at reference speed, "
              f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path)}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(probes.samples), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": completed / wall_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(body.scaled) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(summary_line(args.workload, args.seed, body))
    print(json.dumps({
        "correct": not body.problems,
        "attempted": len(plan),
        "failed": body.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
