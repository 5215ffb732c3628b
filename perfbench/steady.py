"""Run one workload several times and show how steady its metrics are.

    python3 perfbench/steady.py --workload sweep --runs 10
    python3 perfbench/steady.py --workload sweep --runs 10 --against perfbench/results/steady-sweep-trace0.json
    python3 perfbench/steady.py --workload queries --runs 2 --same-seed --trace 1

Run from the root of a realforms checkout.  Each run is ``perfbench/run.py``
with its own seed (or one seed with --same-seed), for BENCHMARK.json's
run_seconds.  For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread: the distance between
the quartiles as a share of the median.  End-to-end metrics are set against
their bound; spreads under a third of the bound are marked ``ok``.  With
--against, the medians are compared with an earlier set saved by this
command, and a shift worse than the bound is marked ``WORSE``.  The
figures run.py prints on its summary line are shown too: the body's time as
measured, the host's speed against the reference, and op_p90_ms.  Traced
metrics are marked ``same`` when every run gave the same value; a traced set
run --against an untraced one also prints the tracing overhead.  The set is
saved to ``perfbench/results/steady-<workload>-trace<n>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Figures that run.py prints on its summary line but does not gate.
PRINTED = re.compile(r"(raw_wall_s|host_speed|op_p90_ms) ([0-9.]+)")
PRINTED_UNITS = {"raw_wall_s": "s", "host_speed": "ratio", "op_p90_ms": "ms"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
    *before, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    result["printed"] = {name: float(value)
                         for name, value in PRINTED.findall("\n".join(before))}
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(spec: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if spec["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="give every run the first seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", default=None,
                        help="a set saved earlier by this command")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end" if not args.trace else "per_layer"]}

    runs = []
    for k in range(args.runs):
        seed = args.first_seed if args.same_seed else args.first_seed + k
        result = run_once(args.workload, seed, seconds, args.trace)
        result["seed"] = seed
        runs.append(result)
        line = (f"seed {seed}: correct {result['correct']}, attempted "
                f"{result['attempted']}, failed {result['failed']}")
        if not args.trace:
            line += "; " + ", ".join(f"{n} {m['value']:.6g}"
                                     for n, m in result["metrics"].items())
        print(line, flush=True)

    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)["medians"]

    medians = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s, trace {args.trace}")
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, spread = summary(values)
        medians[name] = median
        line = (f"{name:<40} {spec['unit']:>6}  median {median:<12.6g} "
                f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%}")
        if "bound" in spec:
            mark = "ok" if spread < spec["bound"] / 3 else (
                "within bound" if spread <= spec["bound"] else "OVER BOUND")
            if name == "setup_s":
                mark += " (spread not gated)"
            line += f"  bound {spec['bound']:.0%} {mark}"
            if earlier and name in earlier:
                shift = worse_by(spec, earlier[name], median)
                line += f"  vs earlier {shift:+.2%} {'WORSE' if shift > spec['bound'] else 'ok'}"
        elif args.trace:
            line += "  same" if len(set(values)) == 1 else ""
        print(line)
    for name in sorted({n for r in runs for n in r["printed"]}):
        values = [r["printed"][name] for r in runs if name in r["printed"]]
        median, q1, q3, spread = summary(values)
        print(f"{name:<40} {PRINTED_UNITS[name]:>6}  median {median:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:7.2%}  printed, not gated")
    if args.trace and earlier and "wall_s" in earlier:
        overhead = medians["trace.wall_s"] - earlier["wall_s"]
        print(f"tracing overhead: trace.wall_s {medians['trace.wall_s']:.3f} s against "
              f"untraced wall_s {earlier['wall_s']:.3f} s: {overhead:+.3f} s "
              f"({overhead / earlier['wall_s']:+.1%})")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in runs)}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"steady-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                   "medians": medians}, handle, indent=1)
    print(f"saved to {os.path.relpath(path)}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
