"""One benchmark pass in a fresh interpreter.

Reads ``{"ops": [...], "trace": bool}`` as JSON on stdin, imports floqtess,
prints ``READY`` once the op list is built, runs every op once in the given
order and prints one JSON line with per-op latencies and outputs, the
machine-speed probes (see ``speed.py``) and, when tracing, the pass's spans
and counters.  ``run.py`` starts it as

    python3 perfbench/worker.py < request.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from time import perf_counter

import speed

# Probe the machine's speed while the imports below run: they are most of
# the set-up time, which is short, so it is sampled more densely than an op.
SETUP = speed.Sampler(interval=0.01)
if __name__ == "__main__":
    SETUP.start()

import numpy  # noqa: E402

import tracing  # noqa: E402
# Every traced module is loaded before tracing.install looks for bindings.
from floqtess import catalog, cli, coloring, derive, floquet, geodist, hypgeo, surface  # noqa: E402, F401


def run_table(op) -> dict:
    argv = [
        "table", "--genus", str(op["genus"]),
        "--orientable", "true" if op["orientable"] else "false",
        "--mode", "auto",
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(), "exit": code}


def run_pipeline(op) -> dict:
    """complex build --derive D | isg | distance --mode exact, as library calls.

    The colouring fallback is the CLI's own: face colouring when the complex
    is a colour-code tiling, else the edge colouring.  The exact search runs
    only where it can answer: k > 0 and n <= 40.
    """
    g, orientable = op["genus"], op["orientable"]
    base = surface.fundamental_polygon(g, orientable)
    p = (4 if orientable else 2) * g
    make = derive.incenter_complex if op["derive"] == "incenter" else derive.clip_complex
    cx = make(base, p, p)
    try:
        schedule, kind = coloring.three_color(cx), "face-coloring"
    except ValueError:
        schedule, kind = coloring.edge_three_color(cx), "edge-coloring"
    result = floquet.run_schedule(schedule, 9)
    d = None
    if result.k_inst and result.n <= 40:
        d = floquet.exact_distance(schedule, result)
    return {
        "n": result.n,
        "k": result.k_inst,
        "steady_round": result.steady_round,
        "ranks": list(result.ranks),
        "schedule": kind,
        "d": d,
    }


RUNNERS = {"table": run_table, "pipeline": run_pipeline}


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ``ru_maxrss`` also counts the pre-exec copy of the parent that forked
    this process, so it tracks the parent's size; ``VmHWM`` starts at exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    request = json.loads(sys.stdin.read())
    ops = [(op["id"], RUNNERS[op["kind"]], op) for op in request["ops"]]
    rec = None
    if request["trace"]:
        rec = tracing.Recorder()
        tracing.install(rec)
    setup_ticks, setup_spent = SETUP.stop(perf_counter())
    print("READY", flush=True)

    # A traced pass is not sampled during its ops, so that no probe time
    # lands in a span; its ops are scaled by the boundary probes alone.
    sampler = speed.Sampler() if rec is None else None
    results = []
    probes = [speed.probe()]
    for op_id, runner, op in ops:
        opened = None
        if rec is not None:
            rec.op_id = op_id
            opened = rec.open()
        error = out = None
        if sampler is not None:
            sampler.start()
        start = perf_counter()
        try:
            out = runner(op)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        ticks, spent = sampler.stop(end) if sampler is not None else ([], 0.0)
        if rec is not None:
            rec.close(opened, tracing.OP)
        results.append({"id": op_id, "s": end - start - spent, "ticks": ticks,
                        "out": out, "error": error})
        probes.append(speed.probe())

    doc = {
        "results": results,
        "probes": probes,
        "setup_ticks": setup_ticks,
        "setup_spent_s": setup_spent,
        "maxrss_kb": peak_rss_kb(),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel": getattr(floquet, "KERNEL", "absent"),
        },
    }
    if rec is not None:
        doc["spans"] = rec.spans
        doc["counts"] = dict(rec.counts)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
