"""Experiment P1 — compiled execution plans vs the unplanned kernels.

Three comparisons the plan layer is built for:

* **plan-vs-unplanned**: ``SequentialPlan.apply`` (compiled gemm
  operator) against the bincount scatter kernel that re-derives fused
  weights every call;
* **batch-vs-loop**: ``apply_batch(X)`` for ``X ∈ R^{n×s}`` against
  ``s`` independent kernel calls — the multi-vector engine's payoff;
* **threaded-vs-serial**: the opt-in phase-2 thread pool of
  :class:`~repro.core.parallel_sttsv.ParallelSTTSV`.

``benchmarks/run_plans_bench.py`` runs the same comparisons standalone
and records machine-readable numbers in ``BENCH_sttsv.json``.
"""

import numpy as np
import pytest

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.plans import SequentialPlan
from repro.core.sttsv_sequential import sttsv_packed, sttsv_packed_bincount
from repro.machine.machine import Machine
from repro.tensor.dense import random_symmetric

N = 120
S = 16


@pytest.fixture(scope="module")
def workload():
    tensor = random_symmetric(N, seed=0)
    rng = np.random.default_rng(1)
    return tensor, rng.normal(size=N), rng.normal(size=(N, S))


@pytest.fixture(scope="module")
def gemm_plan(workload):
    tensor, _, _ = workload
    return SequentialPlan(tensor, strategy="gemm")


def test_unplanned_bincount_kernel(benchmark, workload):
    """Baseline: the seed's fastest kernel, weights recomputed every call."""
    tensor, x, _ = workload
    y = benchmark(lambda: sttsv_packed_bincount(tensor, x))
    assert np.allclose(y, sttsv_packed(tensor, x))


def test_planned_apply(benchmark, workload, gemm_plan):
    """Compiled gemm plan: one GEMV over the precompiled operator."""
    tensor, x, _ = workload
    y = benchmark(lambda: gemm_plan.apply(x))
    assert np.allclose(y, sttsv_packed(tensor, x))


def test_looped_batch(benchmark, workload):
    """s independent kernel calls — what apply_batch replaces."""
    tensor, _, X = workload
    Y = benchmark(
        lambda: np.column_stack(
            [sttsv_packed_bincount(tensor, X[:, c]) for c in range(S)]
        )
    )
    assert Y.shape == (N, S)


def test_batched_apply(benchmark, workload, gemm_plan):
    """One multi-column GEMM for the whole batch."""
    tensor, _, X = workload
    Y = benchmark(lambda: gemm_plan.apply_batch(X))
    reference = np.column_stack(
        [sttsv_packed(tensor, X[:, c]) for c in range(S)]
    )
    assert np.allclose(Y, reference, rtol=1e-12, atol=1e-12)
    print(
        f"\n[P1 — batched engine at n={N}, s={S}]"
        f" operator={gemm_plan.nbytes() / 1e6:.1f} MB,"
        f" strategy={gemm_plan.strategy}"
    )


def test_parallel_local_compute(benchmark, partition_q2):
    """Phase 2 on the simulated q=2 machine."""
    n = 90
    tensor = random_symmetric(n, seed=2)
    x = np.random.default_rng(3).normal(size=n)
    machine = Machine(partition_q2.P)
    algo = ParallelSTTSV(partition_q2, n)
    algo.load(machine, tensor, x)
    algo.run(machine)  # warm x_full/tensor_blocks state

    benchmark(lambda: algo._local_compute(machine))
    assert np.allclose(algo.gather_result(machine), sttsv_packed(tensor, x))
