"""Tail percentile and median choice, workload seeding and the no-program exit."""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

from run import BENCH, MIN_BEYOND, ROOT, tail
from workloads import PASSES, WORKLOADS, pass_ops


@pytest.mark.parametrize("n", [11, 110, 209, 231])
def test_tail_has_exactly_ten_samples_beyond(n):
    p, value, beyond = tail([float(i) for i in range(n)])
    assert beyond == 10
    assert value == n - 11
    assert p == pytest.approx(100 * (n - 10) / n)


def test_tail_reads_the_slowest_op_at_the_fixed_pass_count():
    # Every workload's slowest op is slower than the rest by a wide margin
    # at the seed; with PASSES latencies of it, the tail must be one of them.
    for workload, ops in WORKLOADS.items():
        passes = PASSES[workload]
        assert passes >= MIN_BEYOND + 1
        latencies = [float(i) for i in range(len(ops) - 1) for _ in range(passes)]
        latencies += [1e6] * passes
        assert tail(latencies)[1] == 1e6


def test_median_reads_one_op_at_the_fixed_pass_count():
    # With an odd number of latencies whose middle op has an odd number of
    # them, the median is one op's own median, never the mean of two ops.
    for workload, ops in WORKLOADS.items():
        passes = PASSES[workload]
        latencies = [float(i) for i in range(len(ops)) for _ in range(passes)]
        assert statistics.median(latencies) == (len(ops) - 1) / 2


def test_same_seed_same_ops_and_every_op_once():
    for workload, ops in WORKLOADS.items():
        first = pass_ops(workload, 7, 0)
        assert first == pass_ops(workload, 7, 0)
        assert sorted(o["id"] for o in first) == sorted(o["id"] for o in ops)
        assert first != pass_ops(workload, 8, 0)


def test_exits_nonzero_without_result_when_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "clip-edge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
