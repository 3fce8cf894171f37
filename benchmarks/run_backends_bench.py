"""Transport backend comparison → machine-readable BENCH_backends.json.

Usage::

    PYTHONPATH=src python benchmarks/run_backends_bench.py [--quick]

Runs Algorithm 5 (and the batched MTTKRP variant) under both transport
backends — the in-process ``simulated`` transport and the
``shm`` shared-memory worker pool — and records:

* end-to-end wall time per run (median of repeats),
* the per-phase breakdown from the machine's instrumentation spans
  (exchange-x / local-compute / exchange-y),
* transport-side counters for shm (rounds executed, bytes moved),
* a bitwise-equality check between the two backends' results,
* fused-vs-unfused accounting: logical vs physical message counts,
  words moved (including fusion headers), the message-reduction
  factor, and the shm wall-clock saved by fusing (each shm comparison
  runs with the fusing scheduler on and off; fused results must stay
  bitwise identical to unfused ones). A fused run packs each exchange
  phase into one physical exchange, so ``fusion_summary.fused_rounds``
  is 2 per run for either variant.

Writes ``BENCH_backends.json`` at the repository root so later PRs can
track the transport overhead trajectory. ``--quick`` shrinks sizes and
repeats for CI smoke runs (results still recorded, flagged
``"quick": true``).

The point of the comparison is honesty about overhead: the shm backend
pays real IPC costs (queue latency, buffer packing) that the simulated
backend does not, while the ledger counts — the paper's subject — are
identical by construction. Both numbers belong in the record.
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

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV  # noqa: E402
from repro.core.partition import TetrahedralPartition  # noqa: E402
from repro.machine.machine import Machine  # noqa: E402
from repro.machine.transport import make_transport  # noqa: E402
from repro.steiner import spherical_steiner_system  # noqa: E402
from repro.tensor.dense import random_symmetric  # noqa: E402


def median_seconds(fn, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def bench_backend(
    partition: TetrahedralPartition,
    n: int,
    backend_name: str,
    comm: CommBackend,
    repeats: int,
    fusion: bool = True,
) -> dict:
    tensor = random_symmetric(n, seed=0)
    x = np.random.default_rng(1).normal(size=n)
    transport = make_transport(backend_name, partition.P)
    try:
        machine = Machine(partition.P, transport=transport, fusion=fusion)
        algo = ParallelSTTSV(partition, n, comm)

        def run():
            algo.load(machine, tensor, x)
            algo.run(machine)
            machine.reset_ledger()

        total = median_seconds(run, repeats)
        machine.instrument.reset()
        # Transport counters accumulated over warmup + timed repeats;
        # zero them so the recorded shm_rounds_executed / shm_bytes_moved
        # attribute to exactly the one instrumented run below.
        transport.reset_stats()
        algo.load(machine, tensor, x)
        algo.run(machine)
        result = algo.gather_result(machine)
        entry = {
            "transport": backend_name,
            "comm_backend": comm.value,
            "P": partition.P,
            "n": n,
            "fusion": fusion,
            "run_seconds": total,
            "phases": machine.instrument.as_dict(),
            "words_per_processor": machine.ledger.max_words_sent(),
            "rounds": machine.ledger.round_count(),
            "logical_messages": int(sum(machine.ledger.messages_sent)),
            "fusion_summary": machine.ledger.fusion_summary(),
        }
        if backend_name == "shm":
            entry["shm_rounds_executed"] = transport.rounds_executed
            entry["shm_bytes_moved"] = transport.bytes_moved
        return entry, result
    finally:
        transport.close()


def bench_pair(
    partition: TetrahedralPartition, n: int, comm: CommBackend, repeats: int
) -> dict:
    simulated, y_sim = bench_backend(partition, n, "simulated", comm, repeats)
    shm, y_shm = bench_backend(partition, n, "shm", comm, repeats)
    shm_unfused, y_shm_unfused = bench_backend(
        partition, n, "shm", comm, repeats, fusion=False
    )
    summary = shm["fusion_summary"]
    fused = summary["messages_fused"]
    logical = summary["messages_logical"]
    return {
        "comm_backend": comm.value,
        "simulated": simulated,
        "shm": shm,
        "shm_unfused": shm_unfused,
        "shm_overhead_factor": shm["run_seconds"] / simulated["run_seconds"],
        "shm_overhead_factor_unfused": (
            shm_unfused["run_seconds"] / simulated["run_seconds"]
        ),
        "fusion_wallclock_speedup": (
            shm_unfused["run_seconds"] / shm["run_seconds"]
        ),
        "logical_messages": logical,
        "fused_messages": fused,
        "message_reduction_factor": (logical / fused) if fused else None,
        "fused_header_words": (
            summary["words_fused"] - summary["words_logical"]
        ),
        "bitwise_identical": bool(
            np.array_equal(y_sim.view(np.uint64), y_shm.view(np.uint64))
            and np.array_equal(
                y_sim.view(np.uint64), y_shm_unfused.view(np.uint64)
            )
        ),
        "ledger_identical": (
            simulated["words_per_processor"] == shm["words_per_processor"]
            and simulated["rounds"] == shm["rounds"]
            and shm["logical_messages"] == shm_unfused["logical_messages"]
            and shm["words_per_processor"]
            == shm_unfused["words_per_processor"]
        ),
    }


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
        default=REPO_ROOT / "BENCH_backends.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    if args.quick:
        q, n, repeats = 2, 60, 2
    else:
        q, n, repeats = 3, 120, 5

    partition = TetrahedralPartition(spherical_steiner_system(q))
    partition.validate()

    comparisons = [
        bench_pair(partition, n, comm, repeats) for comm in CommBackend
    ]

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
        "benchmark": "backends",
        "quick": args.quick,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "q": q,
        "P": partition.P,
        "n": n,
        "repeats": repeats,
        "comparisons": comparisons,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    if not all(c["bitwise_identical"] for c in comparisons):
        print("ERROR: backends disagree at the bit level", file=sys.stderr)
        sys.exit(1)
    if not all(c["ledger_identical"] for c in comparisons):
        print("ERROR: ledger counts differ across backends", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
