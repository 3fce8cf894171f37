"""Tracing from outside the program: timed wrappers installed around
functions as a module binds them, and a wrapper around a transport.

The traced run installs these; the untraced run never does, so the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence


class Probe:
    """Time and call counts per metric name.

    Totals are shared by all threads. Each thread may also open an
    *op*, which collects the time its own wrapped calls take until the
    op is closed, so one request's client-side share can be subtracted
    from that request's round trip.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.calls.clear()
            self.counts.clear()

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1
        op = getattr(self._local, "op", None)
        if op is not None:
            op[name] = op.get(name, 0.0) + seconds

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)

        return wrapper

    def begin_op(self) -> None:
        self._local.op = {}

    def end_op(self) -> Dict[str, float]:
        op, self._local.op = self._local.op, None
        return op

    def per_op_ms(self, name: str, ops: int) -> float:
        return self.seconds.get(name, 0.0) * 1e3 / max(ops, 1)

    def calls_per_op(self, name: str, ops: int) -> float:
        return self.calls.get(name, 0) / max(ops, 1)


@contextmanager
def patched(probe: Probe, module, names: Dict[str, str]) -> Iterator[None]:
    """Replace ``module.<attr>`` with a timed wrapper recording under
    ``names[attr]``, restoring the originals on exit."""
    originals = {attr: getattr(module, attr) for attr in names}
    try:
        for attr, metric in names.items():
            setattr(module, attr, probe.timed(metric, originals[attr]))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(module, attr, fn)


class TimedTransport:
    """A transport that times and sizes every ``exchange`` of the one it
    wraps. ``inner`` is the attribute name the machine walks to find a
    fault layer, so verification decisions see the real stack."""

    def __init__(self, inner, probe: Probe) -> None:
        self.inner = inner
        self.name = inner.name
        self.P = inner.P
        self._probe = probe

    def exchange(self, transfers: Sequence) -> List:
        transfers = list(transfers)
        self._probe.count("transport.bytes", sum(t.payload.nbytes for t in transfers))
        start = time.perf_counter()
        try:
            return self.inner.exchange(transfers)
        finally:
            self._probe.add("transport.exchange", time.perf_counter() - start)

    def close(self) -> None:
        self.inner.close()
