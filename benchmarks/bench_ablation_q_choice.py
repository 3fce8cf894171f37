"""Ablation — choosing q: communication vs. parallelism trade-off.

At a fixed problem size, growing q (hence P = q(q²+1)) cuts both the
per-processor words (∝ n/q for the leading term) and the per-processor
flops (∝ n³/P), at the price of more synchronous steps
(q³/2 + 3q²/2 − 1 per phase). This table is the design-space view the
partition scheme implies; the α-β-γ cost model prices the regimes.
"""

from repro.core.bounds import (
    computation_cost_leading,
    optimal_bandwidth_cost,
    processors_for_q,
    schedule_step_count,
)
from repro.machine.cost import CostModel

N = 13_000  # a size where all three q values divide cleanly enough


def build_rows():
    rows = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        P = processors_for_q(q)
        words = optimal_bandwidth_cost(N, q)
        steps = 2 * schedule_step_count(q)
        flops = computation_cost_leading(N, P)
        rows.append((q, P, words, steps, flops))
    return rows


def test_q_choice(benchmark):
    rows = benchmark(build_rows)
    model = CostModel()
    print(f"\n[ablation — q trade-off at n={N}]")
    print(f"{'q':>3} {'P':>5} {'words/proc':>11} {'steps':>6} {'flops/proc':>12} {'est time':>10}")
    previous_words = float("inf")
    previous_flops = float("inf")
    for q, P, words, steps, flops in rows:
        estimate = (
            model.alpha * steps + model.beta * words + model.gamma * flops
        )
        print(
            f"{q:>3} {P:>5} {words:>11.0f} {steps:>6} {flops:>12.0f}"
            f" {estimate * 1e3:>9.3f}ms"
        )
        # Monotone: more processors, less data and work per processor...
        assert words < previous_words
        assert flops < previous_flops
        previous_words, previous_flops = words, flops
    # ... but more latency steps.
    step_counts = [row[3] for row in rows]
    assert all(a < b for a, b in zip(step_counts, step_counts[1:]))
