"""floqtess benchmark: one workload, closed loop, one fresh interpreter per pass.

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 40 --trace 0

A pass runs every op of the workload once, in an order shuffled by the seed,
in a new ``python3`` process (single thread, BLAS pools pinned to one
thread).  A run makes a fixed number of passes per workload
(``workloads.PASSES``), one after another, so every commit is measured on
the same number of latencies; ``--seconds`` is the run length those counts
were chosen to fill and is recorded, not used to stop.  Every op's output is
checked against ``golden.json``.

The machine's speed drifts, so each latency and set-up time is scaled to a
reference speed measured by a fixed probe loop timed during and around it
(``speed.py``); the unscaled figures are in the details line.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the
environment stamp and details (tail percentile and sample count, fail ratio,
dominant layer).  A traced run alternates untraced and traced passes, so it
also reports the tracing overhead, and writes its spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import golden
import speed
import tracing
from workloads import PASSES, TRACE_PASSES, WORKLOADS, pass_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# The tail is the latency with this many samples beyond it.
MIN_BEYOND = 10
# Start no pass after this, so that a much slower commit still ends within
# 180 s; such a run has fewer passes than PASSES, and its details say so.
HARD_STOP_S = 150.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class PassError(RuntimeError):
    pass


def run_pass(ops: list[dict], trace: bool, hash_seed: int) -> dict:
    """Run one pass in a fresh interpreter; add its set-up time to the result,
    raw and at the probe's reference speed."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    request = json.dumps({"ops": ops, "trace": trace})
    probe_before = speed.probe()
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    ) as proc:
        try:
            proc.stdin.write(request)
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker died early; its exit code says so below
        line = proc.stdout.readline()
        ready = perf_counter()
        body = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "READY":
        raise PassError(f"pass worker exited with code {proc.returncode}")
    doc = json.loads(body)
    # Set-up is probed before the start, during the worker's imports and
    # right after READY, before the first op.
    setup = ready - start - doc["setup_spent_s"]
    doc["setup_raw_s"] = setup
    doc["setup_s"] = speed.scale(
        setup, probe_before + doc["setup_ticks"] + doc["probes"][0])
    return doc


def environment(child_env: dict, seed) -> dict:
    """Environment stamp: versions and kernel from the pass, machine, commit, seed."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": child_env["python"],
        "numpy": child_env["numpy"],
        "kernel": child_env["kernel"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_head": git_head(),
        "seed": seed,
    }


def git_head() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest percentile with
    at least MIN_BEYOND samples beyond its nearest-rank position."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(1, n - MIN_BEYOND)
    return 100 * rank / n, xs[rank - 1], n - rank


def scaled_latencies(p: dict, in_op: bool = True) -> list[float]:
    """A pass's op latencies at the probe's reference speed, from the probe
    units around each op and, if ``in_op``, those taken while it ran."""
    probes = p["probes"]
    return [speed.scale(r["s"], probes[i] + (r["ticks"] if in_op else []) + probes[i + 1])
            for i, r in enumerate(p["results"])]


def timings(passes: list[dict], latencies_of, setup_key: str) -> dict:
    """The time metrics, from each pass's op latencies and set-up time."""
    per_pass = [latencies_of(p) for p in passes]
    latencies = [s for pass_latencies in per_pass for s in pass_latencies]
    return {
        "ops_per_s": statistics.median(len(xs) / sum(xs) for xs in per_pass),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail(latencies)[1] * 1e3,
        "setup_s": statistics.median(p[setup_key] for p in passes),
    }


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, at the probe's reference speed; the raw
    figures go to the details."""
    metrics = timings(passes, scaled_latencies, "setup_s")
    metrics["peak_rss_mb"] = max(p["maxrss_kb"] for p in passes) / 1024
    raw = timings(passes, lambda p: [r["s"] for r in p["results"]], "setup_raw_s")
    percentile, _, beyond = tail([r["s"] for p in passes for r in p["results"]])
    probes = [x for p in passes for probe in p["probes"] for x in probe]
    probes += [x for p in passes for r in p["results"] for x in r["ticks"]]
    details = {
        "tail_percentile": percentile,
        "tail_samples": sum(len(p["results"]) for p in passes),
        "tail_beyond": beyond,
        "raw": raw,
        "probe_unit_ms": {"min": min(probes) * 1e3,
                          "median": statistics.median(probes) * 1e3,
                          "max": max(probes) * 1e3, "count": len(probes)},
    }
    return metrics, details


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    layer = tracing.median_metrics([
        tracing.pass_layer_metrics(p["spans"], p["counts"]) for p in traced
    ])
    # Traced passes take no in-op probe units, so both kinds are scaled by
    # their boundary probes alone, or the overhead would compare two scalings.
    def rate(ps):
        return (sum(len(p["results"]) for p in ps)
                / sum(sum(scaled_latencies(p, in_op=False)) for p in ps))

    plain, with_trace = rate(untraced), rate(traced)
    layer["trace.overhead_ops_per_s"] = plain - with_trace
    layer["trace.overhead_pct"] = 100 * (plain - with_trace) / plain
    dominant, share = tracing.dominant_layer(layer)
    self_share, inclusive_share = tracing.shares([p["spans"] for p in traced])
    details = {
        "untraced_ops_per_s": plain,
        "traced_ops_per_s": with_trace,
        "dominant_layer": dominant,
        "dominant_share": share,
        "self_share": self_share,
        "inclusive_share": inclusive_share,
    }
    return layer, details


def write_spans(workload: str, seed: int, env: dict, traced: list[dict]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps({"env": env, "fields": [
            "pass", "span", "parent", "name", "start", "end", "op"]}) + "\n")
        for i, p in enumerate(traced):
            for span in p["spans"]:
                f.write(json.dumps([i, *span]) + "\n")
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    records = golden.load()
    count = TRACE_PASSES if trace else PASSES[workload]
    passes = []
    started = perf_counter()
    for index in range(count):
        ops = pass_ops(workload, seed, index)
        traced = trace and index % 2 == 1
        doc = run_pass(ops, traced, hash_seed=(seed * 1000 + index) % 2**32)
        doc["traced"] = traced
        passes.append(doc)
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(passes) > HARD_STOP_S:
            break

    failures = [
        why for p in passes for r in p["results"]
        if (why := golden.mismatch(records, workload, r)) is not None
    ]
    attempted = sum(len(p["results"]) for p in passes)
    env = environment(passes[0]["env"], seed)
    details = {
        "workload": workload,
        "passes": len(passes),
        "passes_planned": count,
        "seconds": perf_counter() - started,
        "seconds_requested": seconds,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
    }
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics, more = per_layer(untraced, traced)
        more["spans_file"] = str(write_spans(workload, seed, env, traced).relative_to(ROOT))
    else:
        metrics, more = end_to_end(untraced)
    details.update(more)
    print(json.dumps({"env": env, "details": details}))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "floqtess" / "__init__.py").is_file():
        print(f"error: no floqtess sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
