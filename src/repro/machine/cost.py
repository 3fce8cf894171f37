"""The CostModel layer: schedule pricing + α-β-γ time estimates.

Communication cost in this codebase is a pure function of the *round
schedule* — the list of :class:`~repro.machine.transport.base.Transfer`
records a collective is about to execute — never of the transport that
moves the bytes. :meth:`CostModel.price_round` records a round into the
:class:`~repro.machine.ledger.CommunicationLedger` *before* the
transport runs, which is what guarantees word / message / round counts
are identical under the simulated and shared-memory backends (asserted
by the cross-backend equivalence tests).

The same class carries the α-β-γ machine parameters (§3.1) and the
derived time estimates the benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.machine.ledger import CommunicationLedger
from repro.machine.message import Message, word_count
from repro.machine.transport.base import Transfer
from repro.machine.transport.fusion import FusionPlan


@dataclass(frozen=True)
class CostModel:
    """α-β-γ machine parameters plus the schedule-pricing rules.

    Defaults are representative of a commodity cluster: 1 µs latency,
    1 ns per 8-byte word (≈ 8 GB/s links), 0.1 ns per flop.
    """

    alpha: float = 1e-6
    beta: float = 1e-9
    gamma: float = 1e-10

    # -- schedule pricing ------------------------------------------------------

    def price_round(
        self,
        ledger: CommunicationLedger,
        label: str,
        transfers: Sequence[Transfer],
        tag: str,
        record_empty: bool = False,
    ) -> None:
        """Record one synchronous round's schedule into ``ledger``.

        Each transfer becomes one :class:`Message` of
        ``word_count(payload)`` words. Zero-word transfers are skipped
        unless ``record_empty`` — mirroring the collectives' historical
        accounting (broadcast records empties, ring collectives do not).
        """
        ledger.begin_round(label)
        for transfer in transfers:
            words = word_count(transfer.payload)
            if words == 0 and not record_empty:
                continue
            ledger.record(Message(transfer.source, transfer.dest, words, tag))
        ledger.end_round()

    def price_fused_batch(
        self,
        ledger: CommunicationLedger,
        rounds: Sequence[Tuple[str, Sequence[Transfer]]],
        tag: str,
        plan: FusionPlan,
        record_empty: bool = False,
    ) -> None:
        """Price a batch of logical rounds plus its fused execution.

        The *algorithmic* schedule is priced exactly as if the rounds
        ran unfused — each ``(label, transfers)`` pair goes through
        :meth:`price_round` in order, so labels, message counts, and
        round order in the ledger are byte-for-byte identical to the
        unfused run. What the transport physically moves (``plan``'s
        per-destination group buffers, headers included) is recorded in
        the ledger's ``fused_*`` side-channel only.
        """
        for label, transfers in rounds:
            self.price_round(ledger, label, transfers, tag, record_empty)
        stats = plan.stats()
        ledger.record_fusion(
            physical_messages=stats.messages_fused,
            physical_words=stats.words_fused,
            logical_rounds=len(rounds),
            logical_messages=stats.messages_logical,
            logical_words=stats.words_logical,
        )

    # -- α-β-γ time estimates --------------------------------------------------

    def bandwidth_time(self, ledger: CommunicationLedger) -> float:
        """``β · Σ_rounds max-per-processor-words`` — the synchronous
        critical-path bandwidth time."""
        return self.beta * sum(r.max_words() for r in ledger.rounds)

    def latency_time(self, ledger: CommunicationLedger) -> float:
        """``α · #rounds`` — one latency per synchronous step."""
        return self.alpha * ledger.round_count()

    def communication_time(self, ledger: CommunicationLedger) -> float:
        """Latency plus bandwidth along the synchronous critical path."""
        return self.latency_time(ledger) + self.bandwidth_time(ledger)

    def computation_time(self, flops: int) -> float:
        """``γ · flops`` for a per-processor flop count."""
        return self.gamma * flops

    def total_time(self, ledger: CommunicationLedger, flops: int) -> float:
        """Estimated wall time: communication + per-processor computation."""
        return self.communication_time(ledger) + self.computation_time(flops)

    def fused_communication_time(self, ledger: CommunicationLedger) -> float:
        """α-β estimate of what the *physical* (fused) schedule costs.

        Each fused batch is one synchronous step of one buffer per
        active destination, so the latency term is ``α · fused_rounds``
        and the bandwidth term spreads the physical words (headers
        included) over the machine: ``β · fused_words / P``. Rounds
        that did not go through the fusing scheduler — identified
        exactly by the per-round ``fused`` tag
        :meth:`~repro.machine.ledger.CommunicationLedger.record_fusion`
        sets — are priced at their own unfused
        :meth:`communication_time` rates, so mixed ledgers are exact,
        not averaged. Comparing this against
        :meth:`communication_time` quantifies the α savings fusion
        buys without touching the algorithmic ledger. An empty ledger
        prices to 0.0.
        """
        unfused = [r for r in ledger.rounds if not r.fused]
        return (
            self.alpha * (ledger.fused_rounds + len(unfused))
            + self.beta * ledger.fused_words / max(ledger.P, 1)
            + self.beta * sum(r.max_words() for r in unfused)
        )
