"""Golden records: the expected output of every op, and the comparator.

``golden.json`` maps workload -> op id -> output, as the pass worker reports
it: for a ``table`` op the SHA-256 of the CSV stdout and the exit code, for a
pipeline op ``(n, k, steady_round, ranks, schedule, d)``.  Capture it again
(only when the program's output is meant to change) with

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def load(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text())["records"]


def mismatch(records: dict, workload: str, result: dict) -> str | None:
    """Why one op result fails its golden record, or None if it matches."""
    if result["error"] is not None:
        return f"{result['id']}: raised {result['error']}"
    expected = records.get(workload, {}).get(result["id"])
    if expected is None:
        return f"{result['id']}: no golden record"
    if result["out"] != expected:
        return f"{result['id']}: output {result['out']} != golden {expected}"
    return None


def capture() -> dict:
    from run import environment, run_pass
    from workloads import WORKLOADS

    records = {}
    env = None
    for workload, ops in WORKLOADS.items():
        doc = run_pass(ops, trace=False, hash_seed=0)
        env = doc["env"]
        errors = [r for r in doc["results"] if r["error"] is not None]
        if errors:
            raise SystemExit(f"{workload}: ops failed while capturing: {errors}")
        records[workload] = {r["id"]: r["out"] for r in doc["results"]}
    return {"captured_with": environment(env, seed=None), "records": records}


if __name__ == "__main__":
    doc = capture()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.name}: " + ", ".join(
        f"{w} {len(r)} ops" for w, r in doc["records"].items()
    ), file=sys.stderr)
