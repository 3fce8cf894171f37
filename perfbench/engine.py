"""The engine workloads: in-process ``ParallelSTTSV`` at q=2, P=10,
n=120, one thread, on the simulated and the shared-memory transport.

One op is ``load_vector`` + ``run`` + ``gather_result`` on a warm
machine, the loop an iterative solver (HOPM, eigen, CP) runs.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from common import (
    ENGINE_N,
    ENGINE_Q,
    ENGINE_SETUP_REPS,
    TENSOR_STREAM,
    WARM_STREAM,
    Checks,
    Result,
    engine_ops,
    import_repro,
    median,
    now,
    percentile_ms,
    phase_stream,
    put_latencies,
    rng_for,
    sttsv_tolerance,
    tree_peak_rss_mb,
    within,
)
from probes import Probe, TimedTransport, patched


@dataclass
class Phase:
    """Inputs, outputs and per-op timings and ledger counts of one
    timed phase."""

    latencies: List[float] = field(default_factory=list)
    xs: List[np.ndarray] = field(default_factory=list)
    ys: List[Optional[np.ndarray]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    # (max words sent, rounds, logical messages, fused messages) per op
    ledgers: List[Tuple[int, int, int, int]] = field(default_factory=list)
    wall_s: float = 0.0


class EngineBench:
    def __init__(self, workload: str, seed: int) -> None:
        import_repro()
        from repro import random_symmetric

        self.workload = workload
        self.seed = seed
        self.transport_name = workload.split("-", 1)[1]
        self.tensor = random_symmetric(
            ENGINE_N, seed=rng_for(seed, workload, TENSOR_STREAM)
        )

    # -- set-up ----------------------------------------------------------------

    @staticmethod
    def partition():
        from repro import TetrahedralPartition, spherical_steiner_system

        return TetrahedralPartition(spherical_steiner_system(ENGINE_Q))

    def build(self, probe: Optional[Probe] = None):
        """Machine + engine + resident tensor; returns the stage times
        (transport start, engine build, tensor load) too."""
        from repro import Machine, ParallelSTTSV
        from repro.machine.transport import make_transport

        P = ENGINE_Q * (ENGINE_Q**2 + 1)
        start = now()
        if probe is not None:
            transport = TimedTransport(make_transport(self.transport_name, P), probe)
            machine = Machine(P, transport=transport)
        elif self.transport_name == "simulated":
            machine = Machine(P)
        else:
            machine = Machine(P, transport=make_transport(self.transport_name, P))
        built_machine = now()
        engine = ParallelSTTSV(self.partition(), ENGINE_N)
        built_engine = now()
        engine.load_tensor(machine, self.tensor)
        loaded = now()
        stages = (built_machine - start, built_engine - built_machine, loaded - built_engine)
        return machine, engine, stages

    def setups(self, phase: Phase):
        """``ENGINE_SETUP_REPS`` independent set-ups, each ending with its first
        op completed (lazy work such as worker start-up counts as
        set-up). Returns the last machine and engine, the set-up times
        and the per-stage times; warm-up outputs join ``phase``."""
        warm = engine_ops(self.seed, self.workload, WARM_STREAM)
        totals, stages = [], []
        machine = engine = None
        for _ in range(ENGINE_SETUP_REPS):
            if machine is not None:
                machine.close()
            start = now()
            machine, engine, stage = self.build()
            x = next(warm)
            self.record(phase, machine, x, lambda: self.op(engine, machine, x))
            totals.append(now() - start)
            stages.append(stage)
        return machine, engine, totals, stages

    # -- ops -------------------------------------------------------------------

    @staticmethod
    def op(engine, machine, x) -> np.ndarray:
        engine.load_vector(machine, x)
        engine.run(machine)
        return engine.gather_result(machine)

    @staticmethod
    def traced_op(engine, machine, x, probe: Probe) -> np.ndarray:
        start = now()
        engine.load_vector(machine, x)
        loaded = now()
        engine.run(machine)
        ran = now()
        y = engine.gather_result(machine)
        probe.add("engine.load_vector", loaded - start)
        probe.add("engine.run", ran - loaded)
        probe.add("engine.gather", now() - ran)
        return y

    @staticmethod
    def record(phase: Phase, machine, x, call) -> float:
        """Run one op, keep its input, output and ledger; returns its
        latency (``inf`` if it raised)."""
        start = now()
        try:
            y = call()
            elapsed = now() - start
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            y, elapsed = None, math.inf
            phase.errors.append(traceback.format_exc(limit=3))
        ledger = machine.reset_ledger()
        phase.ledgers.append(
            (
                ledger.max_words_sent(),
                ledger.round_count(),
                sum(ledger.messages_sent),
                ledger.fused_messages,
            )
        )
        phase.xs.append(x)
        phase.ys.append(y)
        return elapsed

    def timed_phase(
        self, machine, engine, ops: Iterator[np.ndarray], seconds: float,
        min_ops: int, probe: Optional[Probe] = None,
    ) -> Phase:
        phase = Phase()
        start = now()
        deadline = start + seconds
        while True:
            x = next(ops)
            if probe is None:
                call = lambda: self.op(engine, machine, x)  # noqa: E731
            else:
                call = lambda: self.traced_op(engine, machine, x, probe)  # noqa: E731
            phase.latencies.append(self.record(phase, machine, x, call))
            if now() >= deadline and len(phase.latencies) >= min_ops:
                break
        phase.wall_s = now() - start
        return phase

    # -- checks ----------------------------------------------------------------

    def check(self, phases: List[Phase], checks: Checks) -> None:
        """Every op: words equal the closed form exactly and ``y`` is
        within the reordered-summation bound of ``sttsv``. On shm, ``y``
        is also bitwise equal to a simulated-transport run of the same
        ``x`` (taking the phased, unfused path, which the library pins
        bitwise to the pipelined one)."""
        from repro import Machine, ParallelSTTSV, optimal_bandwidth_cost, sttsv
        from repro.tensor.packed import PackedSymmetricTensor

        closed_form = optimal_bandwidth_cost(ENGINE_N, ENGINE_Q)
        abs_tensor = PackedSymmetricTensor(ENGINE_N, np.abs(self.tensor.data))
        reference = None
        if self.transport_name != "simulated":
            reference_machine = Machine(ENGINE_Q * (ENGINE_Q**2 + 1), fusion=False)
            reference = ParallelSTTSV(self.partition(), ENGINE_N)
            reference.load_tensor(reference_machine, self.tensor)
        errors = iter(error for phase in phases for error in phase.errors)
        for phase in phases:
            for x, y, ledger in zip(phase.xs, phase.ys, phase.ledgers):
                if y is None:
                    checks.record(False, f"op raised: {next(errors)}")
                    continue
                words = ledger[0]
                if words != closed_form:
                    checks.record(False, f"max words {words} != closed form {closed_form}")
                    continue
                expected = sttsv(self.tensor, x)
                tolerance = sttsv_tolerance(sttsv(abs_tensor, np.abs(x)), ENGINE_N, 3)
                if not within(y, expected, tolerance):
                    checks.record(False, "y outside the summation-order bound of sttsv")
                    continue
                if reference is not None:
                    y_simulated = self.op(reference, reference_machine, x)
                    reference_machine.reset_ledger()
                    if y.tobytes() != y_simulated.tobytes():
                        checks.record(False, "shm y differs bitwise from the simulated run")
                        continue
                checks.record(True)

    # -- the two run kinds -----------------------------------------------------

    def run(self, seconds: float, traced: bool, min_ops: int) -> Result:
        result = Result(self.workload)
        warmups = Phase()
        machine, engine, setup_times, stages = self.setups(warmups)
        untraced = self.timed_phase(
            machine, engine,
            engine_ops(self.seed, self.workload, phase_stream(False, 0)),
            seconds / 2 if traced else seconds,
            0 if traced else min_ops,
        )
        rss = tree_peak_rss_mb(os.getpid())
        machine.close()
        phases = [warmups, untraced]
        p50 = percentile_ms(untraced.latencies, 50)
        if traced:
            probe = Probe()
            traced_phase = self.traced_run(engine, seconds / 2, probe)
            phases.append(traced_phase)
            self.layer_metrics(result, probe, traced_phase, stages, p50)
            put_latencies(result, untraced.latencies, (90, 99))
        else:
            ops = len(untraced.latencies)
            result.put("setup_s", median(setup_times), "s", len(setup_times))
            put_latencies(result, untraced.latencies, (50, 90, 99))
            result.put("ops_per_s", ops / untraced.wall_s, "1/s", ops)
            result.put("peak_rss_mb", rss, "MB", 1)
            result.put("ledger.max_words_per_proc",
                       max(ledger[0] for ledger in untraced.ledgers), "count", ops)
        self.check(phases, result.checks)
        return result

    def traced_run(self, engine, seconds: float, probe: Probe) -> Phase:
        """A fresh machine whose transport is wrapped, with timed
        wrappers on the functions ``parallel_sttsv`` and ``collectives``
        call; ``engine`` (partition, schedule, plans) is reused."""
        import repro.core.parallel_sttsv as parallel_sttsv
        import repro.machine.collectives as collectives

        machine, _, _ = self.build(probe)
        engine.load_tensor(machine, self.tensor)
        self.op(engine, machine, next(engine_ops(self.seed, self.workload, WARM_STREAM)))
        machine.reset_ledger()
        probe.reset()
        core_names = {
            "apply_block": "core.apply_block",
            "schedule_point_to_point": "machine.schedule",
            "execute_rounds_fused": "machine.collective",
            "point_to_point_rounds": "machine.collective",
            "all_to_all": "machine.collective",
        }
        try:
            with patched(probe, parallel_sttsv, core_names), patched(
                probe, collectives, {"payload_checksum": "machine.checksum"}
            ):
                return self.timed_phase(
                    machine, engine,
                    engine_ops(self.seed, self.workload, phase_stream(True, 0)),
                    seconds, 0, probe,
                )
        finally:
            machine.close()

    @staticmethod
    def layer_metrics(result: Result, probe: Probe, phase: Phase, stages, untraced_p50: float):
        ops = len(phase.latencies)
        put = result.put
        for name in ("engine.load_vector", "engine.run", "engine.gather", "core.apply_block",
                     "machine.schedule", "machine.checksum", "machine.collective",
                     "transport.exchange"):
            put(f"{name}_ms", probe.per_op_ms(name, ops), "ms", ops)
        for name in ("core.apply_block", "machine.schedule", "machine.checksum",
                     "transport.exchange"):
            put(f"{name}_calls", probe.calls_per_op(name, ops), "count", ops)
        put("transport.mb", probe.counts["transport.bytes"] / 1e6 / max(ops, 1), "MB", ops)
        ledgers = np.asarray(phase.ledgers, dtype=float)
        for column, name in enumerate(
            ("ledger.max_words_per_proc", "ledger.rounds", "ledger.logical_messages",
             "ledger.fused_messages")
        ):
            put(name, float(np.mean(ledgers[:, column])), "count", ops)
        children = sum(
            probe.per_op_ms(name, ops)
            for name in ("core.apply_block", "machine.schedule", "machine.collective")
        )
        put("engine.unattributed_ms", probe.per_op_ms("engine.run", ops) - children, "ms", ops)
        for column, name in enumerate(
            ("setup.transport_start_s", "setup.engine_build_s", "setup.load_tensor_s")
        ):
            put(name, median([stage[column] for stage in stages]), "s", len(stages))
        put("trace.overhead_frac", percentile_ms(phase.latencies, 50) / untraced_p50 - 1,
            "ratio", ops)
