"""Shared pieces of the STTSV benchmark: the repro import guard, seeded
op streams, latency summaries, output-check bounds, process memory and
the environment record.

Nothing here starts a process or opens a socket at import time.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Repository root: the benchmark lives in ``<root>/perfbench``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Every timed phase of an untraced run holds at least this many ops,
#: so the p99 has at least ten samples beyond it.
MIN_OPS = 1000

#: Independent set-ups per run; ``setup_s`` is their median. An engine
#: set-up takes ~0.05 s, a server or fleet start ~1 s, hence fewer.
ENGINE_SETUP_REPS, SERVE_SETUP_REPS = 9, 3

#: Workload names, in the order ``--workload all`` runs them. The index
#: is mixed into every seed so two workloads never share a stream.
WORKLOADS = ("engine-simulated", "engine-shm", "serve-direct", "serve-fleet-stream")

#: Engine problem: q=2 gives P=10 processors; n=120 needs no padding.
ENGINE_Q, ENGINE_N = 2, 120
#: serve-direct: three dense order-3 tensors plus one order-4 tensor
#: over SQS(2^3) (P=14).
DIRECT_DENSE, DIRECT_N, DIRECT_N4, DIRECT_K4 = 3, 120, 24, 3
#: serve-fleet-stream: one low-rank tensor, one update per three reads.
FLEET_N, FLEET_RANK, FLEET_UPDATE_SHARE = 200, 4, 0.25


class SetupError(RuntimeError):
    """The benchmark cannot run here (no ``src/repro`` to build from)."""


def import_repro():
    """Import the ``repro`` package from this checkout's ``src/``.

    Refuses any other copy: a benchmark run next to the benchmark files
    alone must fail, not silently measure an installed package.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def child_env() -> Dict[str, str]:
    """Server subprocess environment: inherited unchanged, plus ``src``
    on ``PYTHONPATH`` (BLAS thread settings are passed through as found)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return env


# -- seeded inputs -------------------------------------------------------------


def rng_for(seed: int, workload: str, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, workload, stream) triple."""
    return np.random.default_rng([seed, WORKLOADS.index(workload), *stream])


#: Stream ids: 0 builds tensors, 1 the warm-up ops, 2+c connection c's
#: timed ops (2.. for the untraced phase, 10+c for the traced phase).
TENSOR_STREAM, WARM_STREAM = 0, 1


def phase_stream(traced: bool, conn: int) -> int:
    return (10 if traced else 2) + conn


def engine_ops(seed: int, workload: str, stream: int) -> Iterator[np.ndarray]:
    """Engine op stream: a fresh x of length n per op."""
    rng = rng_for(seed, workload, stream)
    while True:
        yield rng.standard_normal(ENGINE_N)


def direct_ops(seed: int, stream: int) -> Iterator[tuple]:
    """serve-direct op stream: ``(tensor index, x)``, the tensor drawn
    uniformly from the three order-3 tensors and the order-4 one."""
    rng = rng_for(seed, "serve-direct", stream)
    while True:
        index = int(rng.integers(DIRECT_DENSE + 1))
        n = DIRECT_N4 if index == DIRECT_DENSE else DIRECT_N
        yield index, rng.standard_normal(n)


def fleet_ops(seed: int, stream: int) -> Iterator[tuple]:
    """serve-fleet-stream op stream: ``("update", w, v)`` with
    probability 1/4, else ``("read", x)``."""
    rng = rng_for(seed, "serve-fleet-stream", stream)
    while True:
        if rng.random() < FLEET_UPDATE_SHARE:
            yield "update", float(rng.standard_normal()), rng.standard_normal(FLEET_N)
        else:
            yield "read", rng.standard_normal(FLEET_N)


def stream_bytes(ops: Iterator, count: int) -> bytes:
    """Serialize the first ``count`` ops of a stream (for seed tests)."""
    out = bytearray()
    for _ in range(count):
        for part in next(ops):
            out += part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode()
    return bytes(out)


# -- output checks -------------------------------------------------------------


def gamma(k: int) -> float:
    """Higham's ``γ_k = k·u / (1 − k·u)``, ``u`` the unit roundoff."""
    u = np.finfo(np.float64).eps / 2
    return k * u / (1 - k * u)


def sttsv_tolerance(abs_reference: np.ndarray, n: int, order: int) -> np.ndarray:
    """Componentwise bound between two evaluations of
    ``y = A ×₂ x … ×ₘ x`` that differ only in summation order.

    Each ``y_i`` is a sum of at most ``n^(m−1)`` products of ``m+1``
    factors (a multiplicity weight, one tensor entry, ``m−1`` entries of
    ``x``), so either evaluation is within ``γ_K · (|A| |x|…|x|)_i``
    of the exact value with ``K = n^(m−1) + m``; two of them are within
    twice that of each other.
    """
    return 2 * gamma(n ** (order - 1) + order) * abs_reference


def within(y: np.ndarray, reference: np.ndarray, tolerance: np.ndarray) -> bool:
    return y.shape == reference.shape and bool(np.all(np.abs(y - reference) <= tolerance))


@dataclass
class Checks:
    """Counts of checked outputs: attempted ops and failed ones, with
    the first few failure messages kept for the report."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)


# -- timing --------------------------------------------------------------------


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """``q``-th percentile in ms; a failed op is ``inf`` and so misses
    every latency limit."""
    return float(np.percentile(np.asarray(latencies_s, dtype=float), q) * 1e3)


def put_latencies(result: "Result", latencies_s: Sequence[float], percentiles) -> None:
    """``op_p<q>_ms`` for each ``q`` in ``percentiles``."""
    for q in percentiles:
        result.put(f"op_p{q}_ms", percentile_ms(latencies_s, q), "ms", len(latencies_s))


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


now = time.perf_counter


# -- processes -----------------------------------------------------------------


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (Linux ``/proc``)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def _ended(pid: int) -> bool:
    """``pid`` has exited: it is gone, or a zombie (state ``Z``)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except (OSError, IndexError):
        return True


def wait_ended(pids: Sequence[int], timeout_s: float = 10.0) -> None:
    """Wait until every process in ``pids`` has exited, reaping those
    that are children of this one."""
    deadline = now() + timeout_s
    for pid in pids:
        while now() < deadline:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    break
            except ChildProcessError:
                if _ended(pid):
                    break
            time.sleep(0.01)


def stop_children() -> None:
    """Stop every process this one started, and wait for each to end.

    The shared-memory transport starts ``multiprocessing``'s resource
    tracker, which otherwise outlives this process by a moment. It ends
    when every holder of its pipe has closed it, and forked children
    hold it too, so they are ended first: ``multiprocessing`` children,
    then anything else still running below this process, then the
    tracker (SIGKILL if it has not exited within the timeout).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
    left = [pid for pid in descendants(os.getpid()) if pid != tracker_pid]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass  # already gone
    wait_ended(left)
    if tracker_pid is None:
        return
    os.close(tracker._fd)
    tracker._fd = tracker._pid = None
    wait_ended([tracker_pid], 5.0)
    if not _ended(tracker_pid):
        os.kill(tracker_pid, signal.SIGKILL)
        wait_ended([tracker_pid])


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over a process and all its descendants."""
    return sum(vm_hwm_mb(p) for p in [pid, *descendants(pid)])


# -- environment record --------------------------------------------------------


def _commit() -> Optional[str]:
    """HEAD commit read from ``.git`` without running git; ``None`` in a
    checkout that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict:
    """What the numbers depend on, recorded as inherited (nothing here
    is pinned: server processes get this environment unchanged)."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        blas_record = {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        }
    except (TypeError, AttributeError):  # numpy < 1.26 has no mode="dicts"
        blas_record = {"name": None, "version": None, "configuration": None}
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# -- results -------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1

    def as_json(self) -> Dict:
        return {"value": self.value, "unit": self.unit}


@dataclass
class Result:
    """One run of one workload: the metrics, checks and report lines."""

    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def line(self, names: Sequence[str]) -> str:
        """The contract's last stdout line, restricted to ``names``."""
        return json.dumps(
            {
                "correct": self.checks.failed == 0,
                "attempted": self.checks.attempted,
                "failed": self.checks.failed,
                "metrics": {name: self.metrics[name].as_json() for name in names},
            }
        )

    def report(self, names: Sequence[str]) -> List[str]:
        """Every metric by name, unit and sample count; those outside
        ``names`` (not in the JSON line) are marked."""
        rows = [f"workload {self.workload}"]
        extra = [name for name in self.metrics if name not in names]
        for name in [*names, *extra]:
            metric = self.metrics[name]
            rows.append(
                f"  {name:<28} {metric.value:>14.6g} {metric.unit:<6} (n={metric.samples})"
                + ("  [report only]" if name in extra else "")
            )
        checks = self.checks
        rows.append(
            f"  {'failed_frac':<28} {checks.failed / max(checks.attempted, 1):>14.6g}"
            f" {'ratio':<6} ({checks.failed}/{checks.attempted} ops)"
        )
        rows.extend(f"  check failed: {message}" for message in checks.messages)
        rows.extend(f"  {note}" for note in self.notes)
        return rows
