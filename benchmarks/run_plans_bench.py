"""Standalone plan-layer benchmark → machine-readable BENCH_sttsv.json.

Usage::

    PYTHONPATH=src python benchmarks/run_plans_bench.py [--quick]

Writes ``BENCH_sttsv.json`` at the repository root so later PRs can
track the performance trajectory. ``--quick`` shrinks sizes/repeats for
CI smoke runs (results still recorded, flagged ``"quick": true``).

Measured comparisons (median of repeats, warmup excluded):

* ``sttsv``: compiled gemm plan apply vs the unplanned bincount kernel;
* ``batch``: ``apply_batch`` over ``s`` columns vs ``s`` looped kernel
  calls (the acceptance target: >= 2x at n≈200, s=16);
* ``hopm``: per-iteration sequential HOPM time, plan-backed vs the
  seed's ``np.add.at`` kernel;
* ``local_compute``: phase 2 of the simulated parallel algorithm.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.parallel_sttsv import ParallelSTTSV  # noqa: E402
from repro.core.plans import SequentialPlan, sequential_plan  # noqa: E402
from repro.core.sttsv_sequential import (  # noqa: E402
    sttsv_packed,
    sttsv_packed_bincount,
)
from repro.machine.machine import Machine  # noqa: E402
from repro.tensor.dense import random_symmetric  # noqa: E402


def median_seconds(fn, repeats: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def bench_sequential(n: int, s: int, repeats: int) -> dict:
    tensor = random_symmetric(n, seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=n)
    X = rng.normal(size=(n, s))

    compile_start = time.perf_counter()
    plan = SequentialPlan(tensor, strategy="gemm")
    compile_seconds = time.perf_counter() - compile_start

    unplanned = median_seconds(lambda: sttsv_packed_bincount(tensor, x), repeats)
    planned = median_seconds(lambda: plan.apply(x), repeats)
    looped = median_seconds(
        lambda: np.column_stack(
            [sttsv_packed_bincount(tensor, X[:, c]) for c in range(s)]
        ),
        repeats,
    )
    batched = median_seconds(lambda: plan.apply_batch(X), repeats)
    assert np.allclose(plan.apply(x), sttsv_packed(tensor, x))
    return {
        "n": n,
        "s": s,
        "plan_strategy": plan.strategy,
        "plan_bytes": plan.nbytes(),
        "plan_compile_seconds": compile_seconds,
        "sttsv_unplanned_seconds": unplanned,
        "sttsv_planned_seconds": planned,
        "sttsv_speedup": unplanned / planned,
        "batch_looped_seconds": looped,
        "batch_planned_seconds": batched,
        "batch_speedup": looped / batched,
    }


def bench_hopm(n: int, iterations: int, repeats: int) -> dict:
    """Per-iteration HOPM cost: plan-backed sttsv vs the seed kernel."""
    tensor = random_symmetric(n, seed=2)
    x0 = np.random.default_rng(3).normal(size=n)
    x0 /= np.linalg.norm(x0)

    def run(kernel):
        x = x0.copy()
        for _ in range(iterations):
            y = kernel(tensor, x)
            x = y / np.linalg.norm(y)
        return x

    plan = sequential_plan(tensor)  # compiled once, as hopm() sees it
    seed_kernel = median_seconds(lambda: run(sttsv_packed), repeats)
    planned = median_seconds(lambda: run(lambda t, v: plan.apply(v)), repeats)
    return {
        "n": n,
        "iterations": iterations,
        "seed_kernel_seconds_per_iteration": seed_kernel / iterations,
        "planned_seconds_per_iteration": planned / iterations,
        "hopm_speedup": seed_kernel / planned,
    }


def bench_local_compute(n: int, repeats: int) -> dict:
    from repro.steiner import spherical_steiner_system
    from repro.core.partition import TetrahedralPartition

    partition = TetrahedralPartition(spherical_steiner_system(2))
    tensor = random_symmetric(n, seed=4)
    x = np.random.default_rng(5).normal(size=n)
    machine = Machine(partition.P)
    algo = ParallelSTTSV(partition, n)
    algo.load(machine, tensor, x)
    algo.run(machine)
    seconds = median_seconds(lambda: algo._local_compute(machine), repeats)
    assert np.allclose(algo.gather_result(machine), sttsv_packed(tensor, x))
    return {"n": n, "P": partition.P, "serial_seconds": seconds}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes / few repeats (CI smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_sttsv.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    if args.quick:
        seq = bench_sequential(n=60, s=8, repeats=3)
        hopm = bench_hopm(n=60, iterations=5, repeats=3)
        local = bench_local_compute(n=60, repeats=3)
    else:
        seq = bench_sequential(n=200, s=16, repeats=7)
        hopm = bench_hopm(n=200, iterations=5, repeats=5)
        local = bench_local_compute(n=120, repeats=5)

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        commit = "unknown"

    report = {
        "benchmark": "plans",
        "quick": args.quick,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "sequential": seq,
        "hopm": hopm,
        "parallel_local_compute": local,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
