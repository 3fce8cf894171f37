"""Parallel STTSV — the paper's Algorithm 5.

Phases (function ``STTSV`` of the paper):

1. **Gather x** (lines 10–21): every processor ``p`` exchanges vector
   shards with the other members of ``Q_i`` for each ``i ∈ R_p`` so it
   ends with the complete row blocks ``x[i]``.
2. **Local compute** (lines 23–36): per-block ternary kernels from
   :mod:`repro.core.block_kernels` accumulate partial row blocks
   ``ŷ[i]`` for ``i ∈ R_p``.
3. **Scatter-reduce y** (lines 38–50): each processor sends, to every
   other member ``p' ∈ Q_i``, the slice of its partial ``ŷ[i]``
   covering ``p'``'s shard, and sums what it receives into its own
   final shard ``y[i]^{(p)}``.

All data movement goes through the machine's pluggable transport
(:mod:`repro.machine.transport`): construct the :class:`Machine` with a
:class:`~repro.machine.transport.shm.SharedMemoryTransport` to execute
both exchange phases across ``multiprocessing`` workers over shared
memory. Ledger accounting is schedule-derived and therefore identical
under every transport.

Two communication backends:

* ``CommBackend.POINT_TO_POINT`` — the §7.2.2 schedule: messages only
  between processors with overlapping ``R`` sets, packed one message
  per neighbor, executed in ``q³/2 + 3q²/2 − 1`` permutation steps.
  Per-processor bandwidth is exactly ``n(q+1)/(q²+1) − n/P`` per vector
  — the lower bound's leading term.
* ``CommBackend.ALL_TO_ALL`` — the paper's All-to-All formulation
  (lines 16/44): a uniform personalized collective in which every
  processor ships two shard-slots to *every* other processor (padding
  with zeros where less is needed, exactly the uniform-buffer model the
  paper prices). Per-processor bandwidth is ``2n/(q+1) · (1 − 1/P)``
  per vector — twice the lower bound's leading term (§7.2.2).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

import numpy as np

from repro.core import distribution as dist
from repro.core.block_kernels import apply_block
from repro.core.partition import TetrahedralPartition
from repro.core.plans import ExchangePlan
from repro.core.schedule import ExchangeSchedule, build_exchange_schedule
from repro.errors import ConfigurationError, MachineError
from repro.machine.collectives import (
    all_to_all,
    execute_rounds_fused,  # noqa: F401 - perfbench/engine.py patches this name
    point_to_point_rounds,
    schedule_point_to_point,  # noqa: F401 - perfbench/engine.py patches this name
)
from repro.machine.machine import Machine
from repro.tensor.blocks import extract_block
from repro.tensor.packed import PackedSymmetricTensor

class CommBackend(enum.Enum):
    """Communication realization of Algorithm 5's two exchange phases."""

    POINT_TO_POINT = "point-to-point"
    ALL_TO_ALL = "all-to-all"


def pad_tensor(tensor: PackedSymmetricTensor, n_padded: int) -> PackedSymmetricTensor:
    """Embed a packed tensor into a larger zero-padded one (§6.1).

    Padded entries are zero, so STTSV on the padded problem restricted
    to the first ``n`` outputs equals the original STTSV.
    """
    n = tensor.n
    if n_padded < n:
        raise ConfigurationError(f"cannot pad {n} down to {n_padded}")
    if n_padded == n:
        return tensor
    I, J, K = PackedSymmetricTensor.index_arrays(n_padded)
    mask = I < n  # I >= J >= K, so I < n implies the whole triple fits
    old_offsets = (
        I[mask] * (I[mask] + 1) * (I[mask] + 2) // 6
        + J[mask] * (J[mask] + 1) // 2
        + K[mask]
    )
    data = np.zeros(I.size)
    data[mask] = tensor.data[old_offsets]
    return PackedSymmetricTensor(n_padded, data)


class ParallelSTTSV:
    """Executable Algorithm 5 on a simulated machine.

    Parameters
    ----------
    partition:
        The tetrahedral block partition (one Steiner block per
        processor).
    n:
        Original tensor dimension. The instance computes the padded
        dimension ``n' = m · b`` with ``b`` the smallest multiple of
        the shard replication that makes ``n' >= n``.
    backend:
        Communication realization (see :class:`CommBackend`).

    Examples
    --------
    >>> from repro.steiner import spherical_steiner_system
    >>> from repro.tensor.dense import random_symmetric
    >>> part = TetrahedralPartition(spherical_steiner_system(2))
    >>> algo = ParallelSTTSV(part, n=30)
    >>> (algo.b, algo.n_padded)
    (6, 30)
    """

    def __init__(
        self,
        partition: TetrahedralPartition,
        n: int,
        backend: CommBackend = CommBackend.POINT_TO_POINT,
    ):
        self.partition = partition
        self.backend = backend
        self.n = n
        replication = partition.steiner.point_replication()
        m = partition.m
        per_row = -(-n // m)  # ceil(n / m): minimal row-block size
        self.b = replication * (-(-per_row // replication))
        self.n_padded = m * self.b
        self.shard = partition.shard_size(self.b)
        self.schedule: ExchangeSchedule = build_exchange_schedule(partition)
        # Compiled once per instance: flat gather/scatter index arrays
        # and reusable buffers for both exchange phases (same payload
        # contents/sizes as the direct dict-walking formulation).
        self.exchange_plan = ExchangePlan(partition, self.schedule, self.b)

    # -- data loading -----------------------------------------------------------

    def load(
        self, machine: Machine, tensor: PackedSymmetricTensor, x: np.ndarray
    ) -> None:
        """Place tensor blocks and x shards in processor memories.

        Mirrors the algorithm's preconditions: processor ``p`` holds its
        extended tetrahedral block ``A[T_p]`` and its vector shards
        ``x[R_p]^{(p)}`` — nothing else. Loading is an out-of-model
        setup step (the paper's algorithms start from this state) and
        records no communication.

        Split into :meth:`load_tensor` + :meth:`load_vector` so callers
        serving many vectors against one resident tensor (iterative
        drivers, the :mod:`repro.service` layer) pay block extraction
        once and only redistribute shards per request.
        """
        self.load_tensor(machine, tensor)
        self.load_vector(machine, x)

    def load_tensor(
        self, machine: Machine, tensor: PackedSymmetricTensor
    ) -> None:
        """Place the padded tensor blocks in processor memories (the
        expensive, ``x``-independent half of :meth:`load`)."""
        if machine.P != self.partition.P:
            raise MachineError(
                f"machine has {machine.P} processors, partition needs"
                f" {self.partition.P}"
            )
        if tensor.n != self.n:
            raise ConfigurationError(
                f"tensor dimension {tensor.n} != configured {self.n}"
            )
        padded = pad_tensor(tensor, self.n_padded)
        for p in range(machine.P):
            blocks = {
                index: extract_block(padded, index, self.b)
                for index in self.partition.owned_blocks(p)
            }
            machine[p].store("tensor_blocks", blocks)

    def load_vector(self, machine: Machine, x: np.ndarray) -> None:
        """Distribute the vector shards ``x[R_p]^{(p)}`` (the cheap,
        per-request half of :meth:`load`; tensor blocks stay resident)."""
        if machine.P != self.partition.P:
            raise MachineError(
                f"machine has {machine.P} processors, partition needs"
                f" {self.partition.P}"
            )
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigurationError(
                f"vector must have shape ({self.n},), got {x.shape}"
            )
        x_padded = dist.pad_vector(x, self.n_padded)
        shards = dist.initial_shards(self.partition, x_padded, self.b)
        for p in range(machine.P):
            machine[p].store("x_shards", shards[p])

    # -- payload builders ----------------------------------------------------------

    def _x_payload(self, machine: Machine, src: int, dst: int) -> Optional[np.ndarray]:
        """Compiled x-phase payload (requires staged ``x_shards``)."""
        return self.exchange_plan.x_payload(src, dst)

    def _y_payload(self, machine: Machine, src: int, dst: int) -> Optional[np.ndarray]:
        """Compiled y-phase payload (requires staged ``y_partial``)."""
        return self.exchange_plan.y_payload(src, dst)

    def _pad_uniform(self, payload: Optional[np.ndarray]) -> np.ndarray:
        """Pad a payload to the uniform 2-shard slot of the All-to-All
        model (pairs share at most two row blocks)."""
        slot = 2 * self.shard
        out = np.zeros(slot)
        if payload is not None:
            out[: payload.size] = payload
        return out

    # -- phase 1: gather x -------------------------------------------------------------

    def _exchange_x(self, machine: Machine) -> None:
        P = machine.P
        plan = self.exchange_plan
        for p in range(P):
            plan.stage_x(p, machine[p].load("x_shards"))
        if self.backend is CommBackend.POINT_TO_POINT:
            received = point_to_point_rounds(
                machine,
                self.schedule.rounds,
                lambda src, dst: self._x_payload(machine, src, dst),
                tag="x-exchange",
            )
        else:
            sendbufs = [
                {
                    dst: self._pad_uniform(self._x_payload(machine, src, dst))
                    for dst in range(P)
                    if dst != src
                }
                for src in range(P)
            ]
            received = all_to_all(machine, sendbufs, tag="x-exchange")
        for p in range(P):
            machine[p].store("x_full", plan.unpack_x(p, received[p]))

    # -- phase 2: local compute ----------------------------------------------------------

    def _compute_processor(self, machine: Machine, p: int) -> None:
        """Phase-2 work of one simulated processor (touches only
        processor ``p``'s memory)."""
        proc = machine[p]
        x_full = proc.load("x_full")
        blocks = proc.load("tensor_blocks")
        y_partial: Dict[int, np.ndarray] = {
            i: np.zeros(self.b) for i in self.partition.R[p]
        }
        for index, block in blocks.items():
            apply_block(index, block, x_full, y_partial)
        proc.store("y_partial", y_partial)

    def _local_compute(self, machine: Machine) -> None:
        for p in range(machine.P):
            self._compute_processor(machine, p)

    # -- phase 3: scatter-reduce y ----------------------------------------------------------

    def _exchange_y(self, machine: Machine) -> None:
        P = machine.P
        plan = self.exchange_plan
        for p in range(P):
            plan.stage_y(p, machine[p].load("y_partial"))
        if self.backend is CommBackend.POINT_TO_POINT:
            received = point_to_point_rounds(
                machine,
                self.schedule.rounds,
                lambda src, dst: self._y_payload(machine, src, dst),
                tag="y-exchange",
            )
        else:
            sendbufs = [
                {
                    dst: self._pad_uniform(self._y_payload(machine, src, dst))
                    for dst in range(P)
                    if dst != src
                }
                for src in range(P)
            ]
            received = all_to_all(machine, sendbufs, tag="y-exchange")
        for p in range(P):
            machine[p].store("y_shards", plan.reduce_y(p, received[p]))

    # -- driver --------------------------------------------------------------------------------

    def run(self, machine: Machine) -> None:
        """Execute all three phases; results stay distributed as
        ``y_shards`` in each processor's memory.

        Each phase is wrapped in an instrumentation span (nested under
        one ``sttsv:run`` parent), so traces and the backend benchmarks
        can attribute wall-clock time to gather / compute / reduce
        regardless of which transport moves the bytes — and, when the
        process-wide tracer is enabled, each phase and every
        communication round it executes is stamped with the trace ids
        of the request (or CLI run) that caused it.

        On a fusion-enabled machine each exchange phase is one fused
        physical exchange (DESIGN.md §11).
        """
        with machine.instrument.span("sttsv:run"):
            with machine.instrument.span("sttsv:exchange-x"):
                self._exchange_x(machine)
            with machine.instrument.span("sttsv:local-compute"):
                self._local_compute(machine)
            with machine.instrument.span("sttsv:exchange-y"):
                self._exchange_y(machine)

    def gather_result(self, machine: Machine) -> np.ndarray:
        """Reassemble the distributed ``y`` (verification step, outside
        the communication model — the algorithm's contract ends with
        ``y`` distributed exactly like ``x`` was)."""
        shards = [machine[p].load("y_shards") for p in range(machine.P)]
        return dist.assemble_vector(
            self.partition, shards, self.b, original_length=self.n
        )

    # -- accounting ---------------------------------------------------------------------------

    def expected_words_per_processor(self) -> int:
        """Closed-form per-processor send volume over both phases.

        Point-to-point: ``2 · r · (λ₁ − 1) · shard`` — equals
        ``2 (n(q+1)/(q²+1) − n/P)`` for the spherical family (§7.2.2).
        All-to-All: ``2 · (P − 1) · 2 · shard`` — equals
        ``4n/(q+1) (1 − 1/P)``.
        """
        if self.backend is CommBackend.POINT_TO_POINT:
            lambda_point = self.partition.steiner.point_replication()
            per_phase = self.partition.r * (lambda_point - 1) * self.shard
        else:
            per_phase = (self.partition.P - 1) * 2 * self.shard
        return 2 * per_phase

    def flops_per_processor(self, p: int) -> int:
        """Ternary multiplications processor ``p`` performs (§7.1)."""
        return self.partition.ternary_multiplications(p, self.b)
