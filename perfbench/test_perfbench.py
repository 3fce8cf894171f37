"""Tests of the benchmark itself: seeded op streams, output checks that
count a wrong reply as failed, and refusal to run without the program.

Run with ``python -m pytest perfbench/test_perfbench.py``; none of them
starts a server.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    ENGINE_N,
    Checks,
    direct_ops,
    engine_ops,
    fleet_ops,
    import_repro,
    phase_stream,
    stream_bytes,
)
from engine import EngineBench, Phase  # noqa: E402
from serve import DirectBench, FleetBench, Op  # noqa: E402

import_repro()

STREAMS = {
    "engine-simulated": lambda seed, s: engine_ops(seed, "engine-simulated", s),
    "engine-shm": lambda seed, s: engine_ops(seed, "engine-shm", s),
    "serve-direct": direct_ops,
    "serve-fleet-stream": fleet_ops,
}


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_equal_seeds_give_identical_streams_and_different_seeds_differ(workload):
    make = STREAMS[workload]
    for stream in (phase_stream(False, 0), phase_stream(False, 1), phase_stream(True, 0)):
        first = stream_bytes(make(7, stream), 200)
        assert first == stream_bytes(make(7, stream), 200)
        assert first != stream_bytes(make(8, stream), 200)
    assert stream_bytes(make(7, 2), 50) != stream_bytes(make(7, 3), 50)


def test_engine_streams_do_not_repeat_across_workloads():
    assert stream_bytes(engine_ops(1, "engine-simulated", 2), 20) != stream_bytes(
        engine_ops(1, "engine-shm", 2), 20
    )


def perturbed(y):
    y = y.copy()
    y[0] += 1e-9 * max(1.0, abs(y[0]))
    return y


def test_direct_check_counts_a_perturbed_reply_as_failed():
    from repro.core.plans import BlockedPlan, sequential_plan

    bench = DirectBench(seed=3)
    ops = []
    for index, x in (op for _, op in zip(range(12), direct_ops(3, 2))):
        tensor = bench.tensors[index]
        plan = BlockedPlan(tensor) if index == len(bench.tensors) - 1 else sequential_plan(tensor)
        ops.append(Op("read", index, x, y=plan.apply(x)))
    checks = Checks()
    bench.check(ops, checks)
    assert (checks.attempted, checks.failed) == (12, 0)
    ops[5].y = perturbed(ops[5].y)
    ops[7].y, ops[7].error = None, "ServiceError: [overloaded] busy"
    checks = Checks()
    bench.check(ops, checks)
    assert (checks.attempted, checks.failed) == (12, 2)


def test_fleet_check_counts_a_perturbed_or_unfenced_read_as_failed():
    from repro.tensor.symk import SymKTensor

    bench = FleetBench(seed=4)
    tensor = SymKTensor(bench.tensor.lambda_.copy(), bench.tensor.V.copy(), bench.tensor.m)
    ops, epoch = [], 0
    for _, item in zip(range(40), fleet_ops(4, 2)):
        if item[0] == "update":
            epoch += 1
            tensor.rank1_update(item[1], item[2])
            ops.append(Op("update", (item[1], item[2]), None, y=epoch, epoch=epoch))
        else:
            ops.append(Op("read", None, item[1], y=tensor.ttsv(item[1]), epoch=epoch, fence=epoch))
    assert 0 < epoch < 40
    checks = Checks()
    bench.check(ops, checks)
    assert (checks.attempted, checks.failed) == (40, 0)
    reads = [op for op in ops if op.kind == "read" and op.epoch > 0]
    reads[0].y = perturbed(reads[0].y)
    reads[1].fence = reads[1].epoch + 1  # served behind its fence
    checks = Checks()
    bench.check(ops, checks)
    assert (checks.attempted, checks.failed) == (40, 2)


def test_engine_check_counts_wrong_words_and_perturbed_y_as_failed():
    from repro import sttsv

    bench = EngineBench("engine-simulated", seed=5)
    phase = Phase()
    for _, x in zip(range(4), engine_ops(5, "engine-simulated", 2)):
        phase.xs.append(x)
        phase.ys.append(sttsv(bench.tensor, x))
        phase.ledgers.append((120, 0, 0, 0))
    checks = Checks()
    bench.check([phase], checks)
    assert (checks.attempted, checks.failed) == (4, 0)
    phase.ys[1] = phase.ys[1] * (1 + 1e-6)
    phase.ledgers[2] = (121, 0, 0, 0)
    checks = Checks()
    bench.check([phase], checks)
    assert (checks.attempted, checks.failed) == (4, 2)
    assert phase.xs[0].shape == (ENGINE_N,)


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [*spec["command"], "--workload", "engine-simulated", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_stop_children_ends_every_process_it_started():
    script = (
        "import multiprocessing, time\n"
        "from multiprocessing import resource_tracker\n"
        "from common import _ended, descendants, stop_children\n"
        "resource_tracker.ensure_running()\n"
        "tracker = resource_tracker._resource_tracker._pid\n"
        "worker = multiprocessing.get_context('fork').Process(target=time.sleep, args=(60,))\n"
        "worker.start()\n"
        "started = [tracker, worker.pid]\n"
        "stop_children()\n"
        "print(all(_ended(pid) for pid in started), descendants(__import__('os').getpid()))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split("\n")[0] == "True []"
