"""Exact predicted ledgers and candidate pricing.

The pricing layer never moves a byte and never touches tensor data: a
configuration's communication cost is a pure function of the round
*schedule*, and the schedule is a pure function of ``(q, n, variant,
fusion)``. So the planner builds, for each candidate, the exact
:class:`~repro.machine.ledger.CommunicationLedger` a real Algorithm 5
run would produce — same labels, same per-round word counts, same
``fused_*`` side-channel — and prices it with the calibrated
:class:`~repro.machine.cost.CostModel` (``communication_time`` /
``fused_communication_time`` / ``total_time``). A conformance test
asserts predicted ledgers match executed ones field for field.

Schedule reconstruction mirrors the execution paths byte for byte:

* **point-to-point** — the §7.2.2 permutation schedule; the payload
  ``src → dst`` in either exchange phase is one shard per shared row
  block, ``|R_src ∩ R_dst| · shard`` words.
* **all-to-all** — ``P − 1`` shift rounds per phase of one uniform
  2-shard slot to every other processor.

With fusion on, each phase of either variant is one fused exchange,
reproduced here fusion headers included. Both variants then cost 2
fused exchanges per STTSV, so dense All-to-All pays ~2× the
point-to-point bandwidth for no latency saving. The α-vs-β tradeoff
survives for the low-rank path (:func:`predicted_symk_ledger`), whose
point-to-point ring never fuses.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.partition import TetrahedralPartition
from repro.core.schedule import build_exchange_schedule
from repro.errors import ConfigurationError
from repro.machine.ledger import CommunicationLedger
from repro.machine.message import Message
from repro.machine.transport.fusion import (
    _MEMBER_HEADER_WORDS,
    _PREAMBLE_WORDS,
)

#: Comm-variant names (string forms of ``CommBackend`` values).
VARIANTS = ("point-to-point", "all-to-all")

#: Plan-strategy names the sequential path can be pinned to.
STRATEGIES = ("gemm", "bincount")


def padded_block_size(partition: TetrahedralPartition, n: int) -> int:
    """Row-block size ``b`` of the padded problem (same rule as
    :class:`~repro.core.parallel_sttsv.ParallelSTTSV`)."""
    replication = partition.steiner.point_replication()
    per_row = -(-n // partition.m)
    return replication * (-(-per_row // replication))


#: One scheduled message: ``(source, dest, words)``.
_Sched = Tuple[int, int, int]


def _p2p_rounds(
    partition: TetrahedralPartition, shard: int
) -> List[List[_Sched]]:
    """Per-round ``(src, dst, words)`` schedules of one p2p phase."""
    schedule = build_exchange_schedule(partition)
    members = [frozenset(row) for row in partition.R]
    rounds: List[List[_Sched]] = []
    for round_map in schedule.rounds:
        rounds.append(
            [
                (src, dst, len(members[src] & members[dst]) * shard)
                for src, dst in round_map.items()
            ]
        )
    return rounds


def _a2a_rounds(P: int, shard: int) -> List[List[_Sched]]:
    """Per-shift ``(src, dst, words)`` schedules of one All-to-All
    phase (uniform 2-shard slots, every ordered pair)."""
    slot = 2 * shard
    return [
        [(src, (src + shift) % P, slot) for src in range(P)]
        for shift in range(1, P)
    ]


def _record_phase(
    ledger: CommunicationLedger,
    tag: str,
    rounds: Sequence[List[_Sched]],
    labels: Sequence[str],
    fused: bool,
) -> None:
    """Price one phase's rounds into ``ledger``; with ``fused``, the
    whole phase is one fused physical exchange.

    Pricing follows execution: the rounds are priced, then the fusion
    is recorded, so the per-round ``fused`` tags land on them.
    """
    for label, sched in zip(labels, rounds):
        ledger.begin_round(label)
        for src, dst, words in sched:
            if words:
                ledger.record(Message(src, dst, words, tag))
        ledger.end_round()
    if not fused:
        return
    batch = [s for sched in rounds for s in sched if s[2]]
    destinations = {dst for _, dst, _ in batch}
    logical_words = sum(words for _, _, words in batch)
    ledger.record_fusion(
        physical_messages=len(destinations),
        physical_words=(
            logical_words
            + _PREAMBLE_WORDS * len(destinations)
            + _MEMBER_HEADER_WORDS * len(batch)
        ),
        logical_rounds=len(rounds),
        logical_messages=len(batch),
        logical_words=logical_words,
    )


def predicted_ledger(
    partition: TetrahedralPartition,
    n: int,
    variant: str = "point-to-point",
    fusion: bool = True,
) -> CommunicationLedger:
    """The exact ledger one STTSV would produce under this config.

    Matches a real run field for field: per-processor counters, round
    labels and word counts, and the ``fused_*`` side-channel
    (conformance-tested against executed ledgers).
    """
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"variant must be one of {VARIANTS}, got {variant!r}"
        )
    b = padded_block_size(partition, n)
    shard = partition.shard_size(b)
    ledger = CommunicationLedger(partition.P)
    for tag in ("x-exchange", "y-exchange"):
        if variant == "point-to-point":
            rounds = _p2p_rounds(partition, shard)
            labels = [f"{tag}:round{i}" for i in range(len(rounds))]
        else:
            rounds = _a2a_rounds(partition.P, shard)
            labels = [f"{tag}:shift{s}" for s in range(1, partition.P)]
        _record_phase(ledger, tag, rounds, labels, fusion)
    return ledger


def predicted_symk_ledger(
    P: int,
    rank: int,
    variant: str = "point-to-point",
    fusion: bool = True,
) -> CommunicationLedger:
    """The exact ledger one low-rank TTSV would produce.

    The only exchange is the all-gather of ``r``-word ``Vᵀx`` partial
    sums (see :mod:`repro.core.parallel_symk` for the derivation):

    * ``point-to-point`` — ring allgather, ``P − 1`` ``step`` rounds,
      every processor sends ``r`` words per round (ring steps are
      synchronous, so fusion never applies);
    * ``all-to-all`` — ``P − 1`` ``shift`` rounds of one ``r``-word
      slot to every other processor, packed into a single fused
      exchange when fusion is on.

    Both variants cost ``(P − 1) · r`` algorithmic words per processor
    — :func:`repro.core.parallel_symk.symk_words_per_processor` —
    and the conformance suite asserts executed ledgers match this
    prediction field for field.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"variant must be one of {VARIANTS}, got {variant!r}"
        )
    if P < 1 or rank < 1:
        raise ConfigurationError(
            f"need P >= 1 and rank >= 1, got P={P}, rank={rank}"
        )
    ledger = CommunicationLedger(P)
    if P == 1:
        return ledger
    tag = "symk-z"
    if variant == "point-to-point":
        rounds = [
            [(p, (p + 1) % P, rank) for p in range(P)]
            for _ in range(P - 1)
        ]
        labels = [f"{tag}:step{step}" for step in range(P - 1)]
        fused = False
    else:
        rounds = [
            [(src, (src + shift) % P, rank) for src in range(P)]
            for shift in range(1, P)
        ]
        labels = [f"{tag}:shift{shift}" for shift in range(1, P)]
        fused = fusion
    _record_phase(ledger, tag, rounds, labels, fused)
    return ledger


# -- flop counts -----------------------------------------------------------------


def parallel_flops(partition: TetrahedralPartition, n: int) -> int:
    """Critical-path phase-2 work: the largest per-processor ternary
    multiplication count (§7.1)."""
    b = padded_block_size(partition, n)
    return max(
        partition.ternary_multiplications(p, b)
        for p in range(partition.P)
    )


def gemm_plan_flops(n: int) -> float:
    """Per-vector flops of the ``gemm`` plan strategy: one product of
    the ``n × n(n+1)/2`` symmetry-reduced unfolding."""
    return 2.0 * n * (n * (n + 1) // 2)


def scatter_plan_ops(n: int) -> float:
    """Per-vector scatter ops of the ``bincount`` plan strategy: a
    bounded number of weighted scatter-adds per packed entry."""
    return 6.0 * (n * (n + 1) * (n + 2) // 6)


def symk_plan_flops(n: int, rank: int) -> float:
    """Per-vector flops of the sequential low-rank path: two GEMVs
    against the ``n × r`` factors (``z = Vᵀx``, ``y = V w``)."""
    return 4.0 * n * rank


def symk_parallel_flops(P: int, n: int, rank: int) -> float:
    """Critical-path per-processor flops of the distributed low-rank
    path: the two GEMVs on one ``⌈n/P⌉``-row block plus the rank-order
    reduction of ``P`` ``r``-word partials."""
    b = -(-n // P)
    return 4.0 * b * rank + float(P * rank)
