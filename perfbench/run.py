#!/usr/bin/env python3
"""Seeded benchmark of the STTSV stack.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload engine-shm --seed 1 --seconds 15 --trace 0

or every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones. The metric names and units are read
from BENCHMARK.json at the repository root; perfbench/README.md says
why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

from common import (
    MIN_OPS, ROOT, WORKLOADS, Result, SetupError, environment, import_repro, stop_children,
)


def metric_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, min_ops: int) -> Result:
    if workload.startswith("engine-"):
        from engine import EngineBench

        return EngineBench(workload, seed).run(seconds, traced, min_ops)
    from serve import DirectBench, FleetBench

    bench = DirectBench if workload == "serve-direct" else FleetBench
    return bench(seed).run(seconds, traced, min_ops)


def finish(result: Result, traced: bool) -> List[str]:
    """Report lines plus the contract line. Per-layer metrics of layers
    this workload does not exercise read 0."""
    units = metric_units()["per_layer" if traced else "end_to_end"]
    for name, unit in units.items():
        if name not in result.metrics:
            if not traced:
                raise RuntimeError(f"{result.workload} did not measure {name}")
            result.put(name, 0.0, unit, 0)
        elif result.metrics[name].unit != unit:
            raise RuntimeError(f"{name} measured in {result.metrics[name].unit}, not {unit}")
    names = list(units)
    lines = result.report(names)
    lines.append("environment " + json.dumps(environment()))
    lines.append(result.line(names))
    return lines


def run_all(args) -> int:
    """Each workload in a fresh process; prints every report and a
    summary, and writes the collected results with ``--output``."""
    collected = {}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--min-ops", str(args.min_ops),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"workload {workload} exited {completed.returncode}")
            status = 1
            continue
        collected[workload] = json.loads(lines[-1])
        status |= not collected[workload]["correct"]
    print("summary")
    for workload, outcome in collected.items():
        values = ", ".join(
            f"{name}={metric['value']:.6g} {metric['unit']}"
            for name, metric in outcome["metrics"].items()
        )
        print(f"  {workload}: correct={outcome['correct']} "
              f"failed={outcome['failed']}/{outcome['attempted']} {values}")
    if args.output:
        report = {"environment": environment(), "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "workloads": collected}
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--min-ops", type=int, default=MIN_OPS,
        help="ops an untraced timed phase holds at least (default %(default)s;"
        " lower it only for a quick smoke run)",
    )
    parser.add_argument("--output", help="with --workload all: write the results here")
    args = parser.parse_args(argv)
    try:
        import_repro()
        metric_units()
    except (SetupError, OSError) as error:
        print(f"error: cannot run the benchmark here: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.min_ops)
        lines = finish(result, bool(args.trace))
    finally:
        stop_children()
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
