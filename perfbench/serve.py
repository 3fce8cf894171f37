"""The served workloads: real ``repro serve`` processes driven by two
closed-loop connections from this process.

``serve-direct`` talks to one server holding three dense order-3
tensors (one registered with ``backend="auto", variant="auto"``) and
one order-4 BCSS tensor; ``serve-fleet-stream`` talks to a gateway in
front of two shards and streams rank-1 updates between fenced reads.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    DIRECT_DENSE,
    DIRECT_K4,
    DIRECT_N,
    DIRECT_N4,
    ENGINE_Q,
    FLEET_N,
    FLEET_RANK,
    ROOT,
    SERVE_SETUP_REPS,
    TENSOR_STREAM,
    WARM_STREAM,
    Checks,
    Result,
    child_env,
    descendants,
    direct_ops,
    fleet_ops,
    import_repro,
    mean,
    median,
    now,
    percentile_ms,
    phase_stream,
    put_latencies,
    rng_for,
    sttsv_tolerance,
    tree_peak_rss_mb,
    wait_ended,
    within,
)
from probes import Probe, patched

#: Closed-loop connections (the box has two cores).
CONNECTIONS = 2
#: Ops a connection runs between two reads of the server's span buffer.
SPAN_FETCH_EVERY = 200
#: Seconds a server gets to print its banner or to exit.
START_TIMEOUT_S, STOP_TIMEOUT_S = 60.0, 20.0


class ServerProcess:
    """One ``python -m repro serve`` subprocess (a single server or a
    fleet), addressed by the banner it prints once it accepts."""

    def __init__(self, *args: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        try:
            banner = self._banner()
            host, port = banner.split(" on ", 1)[1].split()[0].split(":")
            self.address = (host, int(port))
        except BaseException:
            self.stop()
            raise
        #: "host:port" of every fleet shard, from the banner.
        self.shards = [name.strip() for name in banner.split("shards: ", 1)[-1]
                       .split(";")[0].split(",")] if "shards: " in banner else []

    def _banner(self) -> str:
        deadline = now() + START_TIMEOUT_S
        while now() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], deadline - now())
            if not ready:
                break
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.process.wait()}")
            if line.startswith("serving STTSV"):
                return line
        raise RuntimeError("server printed no banner in time")

    def client(self, address: Optional[Tuple[str, int]] = None):
        from repro.service.client import ServiceClient

        return ServiceClient(*(address or self.address))

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SHUTDOWN, then SIGINT, then SIGKILL; afterwards no process of
        the tree is left running."""
        tree = descendants(self.process.pid)
        if self.process.poll() is None and hasattr(self, "address"):
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:
                pass
        for action in (None, signal.SIGINT, signal.SIGKILL):
            if action is not None and self.process.poll() is None:
                self.process.send_signal(action)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
                break
            except subprocess.TimeoutExpired:
                continue
        for pid in tree:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # already gone
        wait_ended(tree)
        self.process.stdout.close()


@dataclass
class Op:
    """One request as sent and answered."""

    kind: str  # "read", "update", "direct-read" (traced fleet pairing)
    key: object  # tensor index (serve-direct) or the update (w, v)
    x: Optional[np.ndarray]
    y: Optional[np.ndarray] = None
    latency: float = math.inf
    error: str = ""
    code: Optional[str] = None  # typed error code, if the server sent one
    epoch: Optional[int] = None  # echoed update epoch
    fence: Optional[int] = None  # min_epoch sent with a read
    trace_id: Optional[str] = None
    client_share: Dict[str, float] = field(default_factory=dict)
    hop: Optional[float] = None


def run_connections(
    target: Callable[[int, Callable[[], bool], List[Op]], None], seconds: float, min_ops: int,
) -> Tuple[List[List[Op]], float]:
    """Run ``target(conn, done, ops)`` on every connection, appending to
    ``ops``, until ``seconds`` have passed and at least ``min_ops`` ops
    completed; returns each connection's ops and the wall time."""
    results: List[List[Op]] = [[] for _ in range(CONNECTIONS)]
    failures: List[str] = []
    start = now()
    deadline = start + seconds

    def done() -> bool:
        return now() >= deadline and sum(len(r) for r in results) >= min_ops

    def body(conn: int) -> None:
        try:
            target(conn, done, results[conn])
        except Exception:  # noqa: BLE001 — reported by the caller
            failures.append(traceback.format_exc())

    threads = [threading.Thread(target=body, args=(c,)) for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150)
        if thread.is_alive():
            raise RuntimeError("a connection did not finish")
    if failures:
        raise RuntimeError("connection failed:\n" + failures[0])
    return results, now() - start


def timed(op: Op, call: Callable[[], np.ndarray], probe: Optional[Probe] = None) -> None:
    """Send one request, filling the op's output, latency and error."""
    if probe is not None:
        probe.begin_op()
    start = now()
    try:
        op.y = call()
        op.latency = now() - start
    except Exception as error:  # noqa: BLE001 — a failed op is counted, not fatal
        op.error = f"{type(error).__name__}: {error}"
        op.code = getattr(getattr(error, "code", None), "value", None)
    finally:
        if probe is not None:
            op.client_share = probe.end_op()


CLIENT_WRAPPERS = {
    "encode_array": "client.encode",
    "write_frame": "client.encode",
    "decode_array": "client.decode",
}


def client_metrics(result: Result, ops: List[Op]) -> None:
    """Per-op client encode/decode from the wrappers on the names
    ``repro.service.client`` calls."""
    for name in ("client.encode", "client.decode"):
        result.put(f"{name}_ms", mean([op.client_share.get(name, 0.0) for op in ops]) * 1e3,
                   "ms", len(ops))


class DirectBench:
    IDS = ["dense-0", "dense-1", "dense-auto", "order4"]

    def __init__(self, seed: int) -> None:
        import_repro()
        from repro import random_symmetric
        from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size

        self.seed = seed
        rng = rng_for(seed, "serve-direct", TENSOR_STREAM)
        self.tensors = [random_symmetric(DIRECT_N, seed=rng) for _ in range(DIRECT_DENSE)]
        self.tensors.append(NdPackedSymmetricTensor(
            DIRECT_N4, 4, rng.standard_normal(nd_packed_size(DIRECT_N4, 4))
        ))
        self.probe_tensor = random_symmetric(30, seed=rng)
        self.probe_x = rng.standard_normal(30)

    def register(self, client, index: int) -> float:
        start = now()
        if index == DIRECT_DENSE:
            client.register(self.IDS[index], self.tensors[index], q=DIRECT_K4, order=4)
        elif self.IDS[index] == "dense-auto":
            client.register(self.IDS[index], self.tensors[index], q=ENGINE_Q,
                            backend="auto", variant="auto")
        else:
            client.register(self.IDS[index], self.tensors[index], q=ENGINE_Q)
        return now() - start

    def setup(self, warm: List[Op]):
        """Start a server, register every tensor, serve one APPLY per
        tensor. Returns the server, the set-up time and the explicit
        and planner-resolved REGISTER times."""
        start = now()
        server = ServerProcess()
        try:
            with server.client() as client:
                times = [self.register(client, index) for index in range(len(self.IDS))]
                rng = rng_for(self.seed, "serve-direct", WARM_STREAM, len(warm))
                for index in range(len(self.IDS)):
                    n = self.tensors[index].n
                    op = Op("read", index, rng.standard_normal(n))
                    timed(op, lambda: client.apply(self.IDS[index], op.x))
                    warm.append(op)
        except BaseException:
            server.stop()
            raise
        elapsed = now() - start
        explicit = [t for i, t in enumerate(times) if self.IDS[i] in ("dense-0", "dense-1")]
        return server, elapsed, mean(explicit), times[self.IDS.index("dense-auto")]

    def phase(self, server, seconds, min_ops, traced: bool, probe: Optional[Probe] = None):
        spans: Dict[str, float] = {}

        def fetch_spans(client) -> None:
            for line in client.spans_jsonl().splitlines():
                span = json.loads(line)
                if span["name"] == "request:apply" and span["trace_ids"]:
                    spans[span["trace_ids"][0]] = span["duration_s"]

        def connection(conn, done, ops: List[Op]) -> None:
            stream = direct_ops(self.seed, phase_stream(traced, conn))
            with server.client() as client:
                while not done():
                    index, x = next(stream)
                    op = Op("read", index, x)
                    timed(op, lambda: client.apply(self.IDS[index], x), probe)
                    op.trace_id = client.last_trace_id
                    ops.append(op)
                    if probe is not None and len(ops) % SPAN_FETCH_EVERY == 0:
                        fetch_spans(client)
                if probe is not None:
                    fetch_spans(client)

        per_conn, wall = run_connections(connection, seconds, min_ops)
        return [op for ops in per_conn for op in ops], wall, spans

    @staticmethod
    def batch_histogram(client) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for session in client.stats()["sessions"].values():
            for size, count in session.get("batch_size_histogram", {}).items():
                histogram[int(size)] = histogram.get(int(size), 0) + count
        return histogram

    def probe_reregister(self, server) -> Op:
        """Known-defect probe: REGISTER an id, REGISTER it again with an
        identical config, then APPLY it once."""
        from repro.core.plans import sequential_plan

        op = Op("probe", None, self.probe_x)
        with server.client() as client:
            client.register("reregister-probe", self.probe_tensor, q=ENGINE_Q)
            client.register("reregister-probe", self.probe_tensor, q=ENGINE_Q)
            timed(op, lambda: client.apply("reregister-probe", self.probe_x))
        if op.y is not None and op.y.tobytes() != sequential_plan(self.probe_tensor).apply(
            self.probe_x
        ).tobytes():
            op.error = "re-registered tensor served a wrong result"
        return op

    def check(self, ops: List[Op], checks: Checks) -> Tuple[float, Dict[int, List[float]]]:
        """Each reply bitwise equal to the served plan applied locally
        (``sequential_plan`` for order 3, ``BlockedPlan`` for order 4).
        A reply the batcher coalesced comes from a GEMM over several
        vectors, which rounds differently from the single-vector GEMV;
        such a reply passes if it is within the summation-order bound,
        and the share of them is reported. Returns that share and the
        local kernel times per tensor."""
        from repro.core.plans import BlockedPlan, sequential_plan
        from repro.tensor.ndpacked import NdPackedSymmetricTensor
        from repro.tensor.packed import PackedSymmetricTensor

        plans = [sequential_plan(t) for t in self.tensors[:DIRECT_DENSE]]
        plans.append(BlockedPlan(self.tensors[DIRECT_DENSE]))
        abs_plans = [sequential_plan(PackedSymmetricTensor(t.n, np.abs(t.data)))
                     for t in self.tensors[:DIRECT_DENSE]]
        abs_plans.append(BlockedPlan(NdPackedSymmetricTensor(
            DIRECT_N4, 4, np.abs(self.tensors[DIRECT_DENSE].data))))
        kernel: Dict[int, List[float]] = {index: [] for index in range(len(plans))}
        nonbitwise = 0
        for op in ops:
            if op.y is None:
                checks.record(False, f"{self.IDS[op.key]}: {op.error}")
                continue
            start = now()
            expected = plans[op.key].apply(op.x)
            kernel[op.key].append(now() - start)
            if op.y.tobytes() == expected.tobytes():
                checks.record(True)
                continue
            order = 4 if op.key == DIRECT_DENSE else 3
            bound = sttsv_tolerance(abs_plans[op.key].apply(np.abs(op.x)), op.x.shape[0], order)
            ok = within(op.y, expected, bound)
            nonbitwise += ok
            checks.record(ok, f"{self.IDS[op.key]}: reply outside the summation-order bound")
        return nonbitwise / max(len(ops), 1), kernel

    def run(self, seconds: float, traced: bool, min_ops: int) -> Result:
        result = Result("serve-direct")
        warm: List[Op] = []
        setups = []
        server = None
        try:
            for _ in range(SERVE_SETUP_REPS):
                if server is not None:
                    server.stop()
                server, *timing = self.setup(warm)
                setups.append(timing)
            ops, wall, _ = self.phase(server, seconds / 2 if traced else seconds,
                                      0 if traced else min_ops, traced=False)
            rss = server.peak_rss_mb()
            all_ops = warm + ops
            if traced:
                probe = Probe()
                with server.client() as client:
                    before = self.batch_histogram(client)
                import repro.service.client as client_module

                with patched(probe, client_module, CLIENT_WRAPPERS):
                    traced_ops, _, spans = self.phase(server, seconds / 2, 0, True, probe)
                with server.client() as client:
                    after = self.batch_histogram(client)
                all_ops += traced_ops
                self.layer_metrics(result, traced_ops, spans, before, after, setups,
                                   percentile_ms([op.latency for op in ops], 50))
                put_latencies(result, [op.latency for op in ops], (90, 99))
            else:
                self.end_to_end(result, ops, wall, rss, setups)
            probe_op = self.probe_reregister(server)
        finally:
            if server is not None:
                server.stop()
        nonbitwise, kernel = self.check(all_ops, result.checks)
        failed = int(bool(probe_op.error))
        result.notes.append(
            "known-defect probe (REGISTER, identical re-REGISTER, APPLY): "
            + (f"failed with {probe_op.error}" if failed else "served correctly")
            + "; counted in probe.reregister_failed, not in failed"
        )
        result.put("probe.reregister_failed", failed, "count", 1)
        result.put("server.nonbitwise_frac", nonbitwise, "ratio", len(all_ops))
        dense = [t for index in range(DIRECT_DENSE) for t in kernel[index]]
        result.put("kernel.plan_apply_ms", mean(dense) * 1e3, "ms", len(dense))
        blocked = kernel[DIRECT_DENSE]
        result.put("kernel.blocked_apply_ms", mean(blocked) * 1e3, "ms", len(blocked))
        return result

    @staticmethod
    def end_to_end(result: Result, ops: List[Op], wall: float, rss: float, setups) -> None:
        latencies = [op.latency for op in ops]
        result.put("setup_s", median([s[0] for s in setups]), "s", len(setups))
        put_latencies(result, latencies, (50, 90, 99))
        result.put("ops_per_s", len(ops) / wall, "1/s", len(ops))
        result.put("peak_rss_mb", rss, "MB", 1)

    @staticmethod
    def layer_metrics(result, ops, spans, before, after, setups, untraced_p50) -> None:
        client_metrics(result, ops)
        matched = [op for op in ops if op.trace_id in spans and op.y is not None]
        request = [spans[op.trace_id] for op in matched]
        wire = [
            op.latency - spans[op.trace_id] - sum(op.client_share.values())
            for op in matched
        ]
        result.put("server.request_ms", mean(request) * 1e3, "ms", len(matched))
        result.put("server.wire_ms", mean(wire) * 1e3, "ms", len(matched))
        delta = {size: after.get(size, 0) - before.get(size, 0) for size in after}
        batches = sum(delta.values())
        result.put("server.batch_width_mean",
                   sum(size * count for size, count in delta.items()) / max(batches, 1),
                   "count", batches)
        result.put("setup.register_ms", median([s[1] for s in setups]) * 1e3, "ms", len(setups))
        result.put("setup.register_auto_ms", median([s[2] for s in setups]) * 1e3, "ms",
                   len(setups))
        result.put("trace.overhead_frac",
                   percentile_ms([op.latency for op in ops], 50) / untraced_p50 - 1,
                   "ratio", len(ops))


class FleetBench:
    #: Each phase streams into its own tensor, registered fresh, so the
    #: traced phase starts from the same rank as the untraced one.
    TENSOR_IDS = {False: "stream", True: "stream-traced"}

    def __init__(self, seed: int) -> None:
        import_repro()
        from repro.tensor.symk import random_symk

        self.seed = seed
        rng = rng_for(seed, "serve-fleet-stream", TENSOR_STREAM)
        self.tensor = random_symk(FLEET_N, FLEET_RANK, seed=int(rng.integers(2**31)))

    def register(self, client, traced: bool) -> Tuple[str, int]:
        """Register the phase's tensor; returns its primary shard."""
        reply = client.register_symk(self.TENSOR_IDS[traced], self.tensor, q=ENGINE_Q)
        host, port = reply["shard"].rsplit(":", 1)
        return host, int(port)

    def setup(self, warm: List[Op]):
        """Start the fleet, register the tensor, serve one read. Returns
        the fleet, the set-up time and the primary shard."""
        start = now()
        fleet = ServerProcess("--fleet", "2")
        try:
            with fleet.client() as client:
                primary = self.register(client, False)
                rng = rng_for(self.seed, "serve-fleet-stream", WARM_STREAM, len(warm))
                op = Op("read", None, rng.standard_normal(FLEET_N), fence=0)
                timed(op, lambda: client.apply(self.TENSOR_IDS[False], op.x, min_epoch=0))
                op.epoch = client.last_update_epoch
                warm.append(op)
        except BaseException:
            fleet.stop()
            raise
        return fleet, now() - start, primary

    def phase(self, fleet, primary, seconds, min_ops, traced: bool,
              probe: Optional[Probe] = None) -> Tuple[List[Op], float]:
        """Closed loop: each connection sends its seeded mix; reads are
        fenced at the highest epoch acknowledged to either connection.
        With ``probe``, each read is repeated straight to the primary
        shard to time the gateway hop."""
        tensor_id = self.TENSOR_IDS[traced]
        lock = threading.Lock()
        acked = [0]

        def connection(conn, done, ops: List[Op]) -> None:
            stream = fleet_ops(self.seed, phase_stream(traced, conn))
            with fleet.client() as client, fleet.client(primary) as direct:
                while not done():
                    item = next(stream)
                    if item[0] == "update":
                        _, weight, vector = item
                        op = Op("update", (weight, vector), None)
                        timed(op, lambda: client.update(tensor_id, weight, vector), probe)
                        if not op.error:
                            op.epoch = client.last_update_epoch
                            with lock:
                                acked[0] = max(acked[0], op.epoch)
                        ops.append(op)
                        continue
                    x = item[1]
                    op = Op("read", None, x, fence=acked[0])
                    timed(op, lambda: client.apply(tensor_id, x, min_epoch=op.fence), probe)
                    op.epoch = client.last_update_epoch
                    ops.append(op)
                    if probe is not None:
                        pair = Op("direct-read", None, x, fence=op.fence)
                        timed(pair, lambda: direct.apply(tensor_id, x, min_epoch=pair.fence))
                        pair.epoch = direct.last_update_epoch
                        op.hop = op.latency - pair.latency
                        ops.append(pair)

        per_conn, wall = run_connections(connection, seconds, min_ops)
        return [op for ops in per_conn for op in ops], wall

    def check(self, ops: List[Op], checks: Checks):
        """Updates must hold the epochs 1..U once each; every read must
        be at or past its fence and bitwise equal to ``SymKTensor.ttsv``
        of the tensor rebuilt at its echoed epoch from this benchmark's
        epoch-ordered record of updates. ``ops`` all target one tensor
        id. Returns the tensor at the last epoch and the stale reads."""
        from repro.tensor.symk import SymKTensor

        updates = [op for op in ops if op.kind == "update"]
        by_epoch: Dict[int, Op] = {}
        for op in updates:
            if op.error:
                checks.record(False, f"update: {op.error}")
            elif op.epoch in by_epoch or not 1 <= op.epoch <= len(updates):
                checks.record(False, f"update acknowledged with epoch {op.epoch} twice or"
                                     f" outside 1..{len(updates)}")
            else:
                by_epoch[op.epoch] = op
                checks.record(True)
        stale = 0
        tensor = SymKTensor(self.tensor.lambda_.copy(), self.tensor.V.copy(), self.tensor.m)
        epoch = 0

        def advance(to: int) -> None:
            nonlocal epoch
            while epoch < to:
                epoch += 1
                tensor.rank1_update(*by_epoch[epoch].key)

        reads = [op for op in ops if op.kind != "update"]
        for op in sorted(reads, key=lambda op: op.epoch or 0):
            if op.y is None:
                stale += op.code == "stale-read"
                checks.record(False, f"{op.kind}: {op.error}")
                continue
            if op.epoch < op.fence or (op.epoch != 0 and op.epoch not in by_epoch):
                checks.record(False, f"{op.kind} at epoch {op.epoch}, fence {op.fence}")
                continue
            advance(op.epoch)
            ok = op.y.tobytes() == tensor.ttsv(op.x).tobytes()
            checks.record(ok, f"{op.kind} at epoch {op.epoch} differs from the rebuilt tensor")
        last = epoch
        while last + 1 in by_epoch:
            last += 1
        advance(last)
        return tensor, stale

    @staticmethod
    def owner_sessions(fleet, tensor_id: str) -> List[Dict]:
        """The tensor's session on every shard that holds it, each read
        through that shard's own STATS."""
        sessions = []
        for shard in fleet.shards:
            host, port = shard.rsplit(":", 1)
            with fleet.client((host, int(port))) as client:
                sessions.extend(
                    session for label, session in client.stats()["sessions"].items()
                    if label.split("@", 1)[0] == tensor_id
                )
        return sessions

    def run(self, seconds: float, traced: bool, min_ops: int) -> Result:
        result = Result("serve-fleet-stream")
        warm: List[Op] = []
        setups = []
        fleet = None
        try:
            for _ in range(SERVE_SETUP_REPS):
                if fleet is not None:
                    fleet.stop()
                fleet, setup_s, primary = self.setup(warm)
                setups.append(setup_s)
            ops, wall = self.phase(fleet, primary, seconds / 2 if traced else seconds,
                                   0 if traced else min_ops, traced=False)
            rss = fleet.peak_rss_mb()
            traced_ops: List[Op] = []
            if traced:
                probe = Probe()
                import repro.service.client as client_module

                with fleet.client() as client:
                    primary = self.register(client, True)
                with patched(probe, client_module, CLIENT_WRAPPERS):
                    traced_ops, _ = self.phase(fleet, primary, seconds / 2, 0, True, probe)
                with fleet.client() as client:
                    events = client.stats()["gateway"]["events"]
                sessions = self.owner_sessions(fleet, self.TENSOR_IDS[True])
        finally:
            if fleet is not None:
                fleet.stop()
        _, stale = self.check(warm + ops, result.checks)
        updates = [op.latency for op in ops if op.kind == "update"]
        update_p50, update_p99 = percentile_ms(updates, 50), percentile_ms(updates, 99)
        reads = [op for op in ops if op.kind == "read"]
        if not traced:
            latencies = [op.latency for op in reads]
            result.put("setup_s", median(setups), "s", len(setups))
            put_latencies(result, latencies, (50, 90, 99))
            result.put("ops_per_s", len(ops) / wall, "1/s", len(ops))
            result.put("peak_rss_mb", rss, "MB", 1)
            result.put("update_p50_ms", update_p50, "ms", len(updates))
            result.put("update_p99_ms", update_p99, "ms", len(updates))
            return result
        tensor, traced_stale = self.check(traced_ops, result.checks)
        put = result.put
        put("update_p50_ms", update_p50, "ms", len(updates))
        put("update_p99_ms", update_p99, "ms", len(updates))
        put_latencies(result, [op.latency for op in reads], (90, 99))
        client_metrics(result, [op for op in traced_ops if op.kind != "direct-read"])
        gateway_reads = [op for op in traced_ops if op.kind == "read" and op.y is not None]
        put("client.read_ms", mean([op.latency for op in gateway_reads]) * 1e3, "ms",
            len(gateway_reads))
        traced_updates = [op.latency for op in traced_ops if op.kind == "update" and not op.error]
        put("client.update_ms", mean(traced_updates) * 1e3, "ms", len(traced_updates))
        hops = [op.hop for op in gateway_reads if math.isfinite(op.hop)]
        put("gateway.read_hop_ms", mean(hops) * 1e3, "ms", len(hops))
        xs = [op.x for op in gateway_reads[:500]]
        start = now()
        for x in xs:
            tensor.ttsv(x)
        put("kernel.symk_ttsv_ms", (now() - start) * 1e3 / max(len(xs), 1), "ms", len(xs))
        records = [op.key for op in traced_ops if op.kind == "update" and not op.error][:200]
        start = now()
        for weight, vector in records:
            tensor.rank1_update(weight, vector)
        put("kernel.symk_update_ms", (now() - start) * 1e3 / max(len(records), 1), "ms",
            len(records))
        put("symk.final_rank", max(session["rank"] for session in sessions), "count",
            len(sessions))
        put("gateway.replayed_updates", events["replayed_updates"], "count", 1)
        put("gateway.reroutes", events["reroutes"], "count", 1)
        put("server.stale_reads", stale + traced_stale, "count", result.checks.attempted)
        epochs = [session["update_epoch"] for session in sessions]
        put("replica.epoch_lag_max", max(epochs) - min(epochs), "count", len(epochs))
        put("trace.overhead_frac",
            percentile_ms([op.latency for op in gateway_reads], 50)
            / percentile_ms([op.latency for op in reads], 50) - 1,
            "ratio", len(gateway_reads))
        return result
