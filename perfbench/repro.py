"""Reproducibility check: run the benchmark as two sets on one commit and
compare them against the bounds in BENCHMARK.json.

    python3 perfbench/repro.py --runs 10            # every workload
    python3 perfbench/repro.py --runs 5 --workload clip-edge

Set A uses seeds 1..N and set B seeds 1001..1000+N, so the two sets share no
op order.  For each workload and end-to-end metric it prints each set's
median and its quartile spread (Q3 - Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and whether

* ``steady``: each set's spread is within the metric's bound, and
* ``agree``: the two medians differ by no more than the bound, as a share
  of set A's median, in either direction.

Every run gets ``--seconds`` from ``run_seconds`` in BENCHMARK.json.

Exits 1 if any run fails, is incorrect, or any check does not hold.  The
raw runs and the verdicts go to ``perfbench/out/repro.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SET_SEED_BASE = (1, 1001)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    raw: dict = {}
    for base in SET_SEED_BASE:
        for workload in args.workload or names:
            for seed in range(base, base + args.runs):
                run = one_run(workload, seed, spec["run_seconds"])
                raw.setdefault(workload, {}).setdefault(base, []).append(run)
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v:.5g}" for k, v in run.items()), file=sys.stderr)

    ok = True
    verdicts = []
    print(f"{'workload':14} {'metric':12} {'bound':>5} {'median A':>11} {'spread A':>8}"
          f" {'median B':>11} {'spread B':>8} {'B worse':>8}  verdict")
    for workload, sets in raw.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[run[name] for run in runs] for runs in sets.values()]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            steady = all(s <= bound for s in spreads)
            worse = worse_by(medians[0], medians[1], metric["better"])
            agree = abs(worse) <= bound
            ok &= steady and agree
            verdicts.append({
                "workload": workload, "metric": name, "bound": bound,
                "medians": medians, "spreads": spreads, "b_worse_by": worse,
                "steady": steady, "agree": agree,
                "under_a_third": all(s < bound / 3 for s in spreads),
            })
            cells = [f"{medians[0]:11.5g}", f"{spreads[0]:8.2%}"]
            cells += [f"{medians[1]:11.5g}", f"{spreads[1]:8.2%}", f"{worse:8.2%}"]
            verdict = ("steady" if steady else "UNSTEADY") + (
                ", agree" if agree else ", DISAGREE")
            print(f"{workload:14} {name:12} {bound:5.2f} " + " ".join(cells) + "  " + verdict)

    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "repro.json").write_text(
        json.dumps({"runs": raw, "verdicts": verdicts}, indent=1) + "\n"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
