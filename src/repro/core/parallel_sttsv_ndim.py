"""Parallel order-4 STTSV over BCSS blocks — Algorithm 5 generalized.

The order-4 sibling of :class:`repro.core.parallel_sttsv.ParallelSTTSV`:
processors are the quadruples of an SQS ``S(2^k, 4, 3)``
(:class:`~repro.core.partition_ndim.QuadruplePartition`), each owning
the BCSS blocks assigned to it and the vector shards of its quadruple's
row blocks. The three phases mirror the paper's:

1. **Gather x** — every shard holder of row block ``i`` sends its shard
   to every consumer of ``i`` (holders of ``i`` plus owners that
   fetched ``i`` as an extra), so consumers end with complete row
   blocks.
2. **Local compute** — :func:`repro.core.bcss_kernels.apply_block_ndim`
   per owned BCSS block, accumulating partial row blocks ``ŷ[i]``.
3. **Scatter-reduce y** — each consumer returns, to every holder
   ``p ∈ Q_i``, the slice of its partial covering ``p``'s shard; holders
   sum (own partial first, then senders in ascending rank order).

The exchange graph is *irregular* (extra fetches break the uniform
degrees of the order-3 schedule), so rounds come from the greedy
partial-permutation scheduler in :mod:`repro.core.partition_ndim` and
execute through :func:`repro.machine.collectives.point_to_point_rounds`
— the same funnel as order 3, so ledger accounting, fault recovery,
and communication fusion all apply unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import distribution as dist
from repro.core.bcss_kernels import apply_block_ndim
from repro.core.parallel_sttsv import CommBackend
from repro.core.partition_ndim import (
    QuadruplePartition,
    greedy_partial_permutation_rounds,
)
from repro.errors import ConfigurationError, MachineError
from repro.machine.collectives import point_to_point_rounds
from repro.machine.machine import Machine
from repro.tensor.bcss import _bcss_block_offsets
from repro.tensor.ndpacked import NdPackedSymmetricTensor, pad_ndpacked


class ParallelSTTSVm:
    """Executable order-4 blocked STTSV on a simulated machine.

    Parameters
    ----------
    partition:
        The SQS-based block partition (one quadruple per processor).
    n:
        Original tensor dimension; padded to ``n' = m · b`` with ``b``
        the smallest replication multiple covering ``ceil(n/m)``.
    backend:
        Only :data:`CommBackend.POINT_TO_POINT` is supported — the
        irregular exchange graph has no uniform buffer slot, so the
        paper's uniform All-to-All pricing does not apply.
    """

    def __init__(
        self,
        partition: QuadruplePartition,
        n: int,
        backend: CommBackend = CommBackend.POINT_TO_POINT,
    ):
        if backend is not CommBackend.POINT_TO_POINT:
            raise ConfigurationError(
                "order-4 STTSV supports only the point-to-point variant"
                " (irregular exchange graphs have no uniform All-to-All"
                " slot)"
            )
        self.partition = partition
        self.backend = backend
        self.n = n
        self.order = 4
        replication = partition.replication
        m = partition.m
        per_row = -(-n // m)
        self.b = replication * (-(-per_row // replication))
        self.n_padded = m * self.b
        self.shard = partition.shard_size(self.b)

        # Ordered-pair payload maps: row blocks each message carries.
        x_pairs: Dict[Tuple[int, int], List[int]] = {}
        for i in range(m):
            holders = partition.Q[i]
            for src in holders:
                for dst in partition.consumers[i]:
                    if dst != src:
                        x_pairs.setdefault((src, dst), []).append(i)
        self._x_pairs = {
            pair: sorted(blocks) for pair, blocks in x_pairs.items()
        }
        self._y_pairs = {
            (dst, src): blocks for (src, dst), blocks in self._x_pairs.items()
        }
        self.rounds_x = greedy_partial_permutation_rounds(
            sorted(self._x_pairs)
        )
        self.rounds_y = greedy_partial_permutation_rounds(
            sorted(self._y_pairs)
        )

    # -- data loading -----------------------------------------------------------

    def load(
        self, machine: Machine, tensor: NdPackedSymmetricTensor, x: np.ndarray
    ) -> None:
        self.load_tensor(machine, tensor)
        self.load_vector(machine, x)

    def _check_machine(self, machine: Machine) -> None:
        if machine.P != self.partition.P:
            raise MachineError(
                f"machine has {machine.P} processors, partition needs"
                f" {self.partition.P}"
            )

    def load_tensor(
        self, machine: Machine, tensor: NdPackedSymmetricTensor
    ) -> None:
        """Place each processor's owned BCSS blocks (x-independent)."""
        self._check_machine(machine)
        if tensor.d != 4:
            raise ConfigurationError(
                f"ParallelSTTSVm handles order 4, got order {tensor.d}"
            )
        if tensor.n != self.n:
            raise ConfigurationError(
                f"tensor dimension {tensor.n} != configured {self.n}"
            )
        padded = pad_ndpacked(tensor, self.n_padded)
        for p in range(machine.P):
            blocks = {
                index: padded.data[_bcss_block_offsets(index, self.b)]
                for index in self.partition.owned[p]
            }
            machine[p].store("tensor_blocks", blocks)

    def load_vector(self, machine: Machine, x: np.ndarray) -> None:
        """Distribute shards over each row block's Steiner holders."""
        self._check_machine(machine)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigurationError(
                f"vector must have shape ({self.n},), got {x.shape}"
            )
        x_padded = dist.pad_vector(x, self.n_padded)
        shards = dist.initial_shards(self.partition, x_padded, self.b)
        for p in range(machine.P):
            machine[p].store("x_shards", shards[p])

    # -- phase 1: gather x ------------------------------------------------------

    def _exchange_x(self, machine: Machine) -> None:
        P = machine.P
        shards = [machine[p].load("x_shards") for p in range(P)]
        x_full: List[Dict[int, np.ndarray]] = []
        for p in range(P):
            rows = {i: np.zeros(self.b) for i in self.partition.need[p]}
            for i, shard in shards[p].items():
                lo, hi = dist.shard_bounds(self.partition, i, p, self.b)
                rows[i][lo:hi] = shard
            x_full.append(rows)

        def payload_for(src: int, dst: int) -> Optional[np.ndarray]:
            blocks = self._x_pairs.get((src, dst))
            if not blocks:
                return None
            return np.concatenate([shards[src][i] for i in blocks])

        received = point_to_point_rounds(
            machine, self.rounds_x, payload_for, tag="x-exchange"
        )
        for p in range(P):
            for src in sorted(received[p]):
                payload = received[p][src]
                for slot, i in enumerate(self._x_pairs[(src, p)]):
                    lo, hi = dist.shard_bounds(
                        self.partition, i, src, self.b
                    )
                    x_full[p][i][lo:hi] = payload[
                        slot * self.shard : (slot + 1) * self.shard
                    ]
            machine[p].store("x_full", x_full[p])

    # -- phase 2: local compute -------------------------------------------------

    def _local_compute(self, machine: Machine) -> None:
        for p in range(machine.P):
            proc = machine[p]
            x_full = proc.load("x_full")
            blocks = proc.load("tensor_blocks")
            y_partial: Dict[int, np.ndarray] = {
                i: np.zeros(self.b) for i in self.partition.need[p]
            }
            for index, block in blocks.items():
                apply_block_ndim(index, block, x_full, y_partial)
            proc.store("y_partial", y_partial)

    # -- phase 3: scatter-reduce y ----------------------------------------------

    def _exchange_y(self, machine: Machine) -> None:
        P = machine.P
        partials = [machine[p].load("y_partial") for p in range(P)]

        def payload_for(src: int, dst: int) -> Optional[np.ndarray]:
            blocks = self._y_pairs.get((src, dst))
            if not blocks:
                return None
            pieces = []
            for i in blocks:
                lo, hi = dist.shard_bounds(self.partition, i, dst, self.b)
                pieces.append(partials[src][i][lo:hi])
            return np.concatenate(pieces)

        received = point_to_point_rounds(
            machine, self.rounds_y, payload_for, tag="y-exchange"
        )
        for p in range(P):
            shards: Dict[int, np.ndarray] = {}
            for i in self.partition.R[p]:
                lo, hi = dist.shard_bounds(self.partition, i, p, self.b)
                shards[i] = partials[p][i][lo:hi].copy()
            for src in sorted(received[p]):
                payload = received[p][src]
                for slot, i in enumerate(self._y_pairs[(src, p)]):
                    shards[i] += payload[
                        slot * self.shard : (slot + 1) * self.shard
                    ]
            machine[p].store("y_shards", shards)

    # -- driver -----------------------------------------------------------------

    def run(self, machine: Machine) -> None:
        """Execute the three phases; ``y`` stays distributed as shards.

        Communication is fused per round batch whenever the machine has
        fusion enabled (the collectives layer handles it).
        """
        with machine.instrument.span("sttsv:run"):
            with machine.instrument.span("sttsv:exchange-x"):
                self._exchange_x(machine)
            with machine.instrument.span("sttsv:local-compute"):
                self._local_compute(machine)
            with machine.instrument.span("sttsv:exchange-y"):
                self._exchange_y(machine)

    def gather_result(self, machine: Machine) -> np.ndarray:
        shards = [machine[p].load("y_shards") for p in range(machine.P)]
        return dist.assemble_vector(
            self.partition, shards, self.b, original_length=self.n
        )

    # -- accounting --------------------------------------------------------------

    def words_per_processor(self) -> List[int]:
        """Exact per-processor send volume over both phases, from the
        pair maps (matches the ledger's algorithmic counts)."""
        words = [0] * self.partition.P
        for (src, _), blocks in self._x_pairs.items():
            words[src] += len(blocks) * self.shard
        for (src, _), blocks in self._y_pairs.items():
            words[src] += len(blocks) * self.shard
        return words
