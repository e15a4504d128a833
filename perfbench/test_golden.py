"""The comparator accepts real outputs and flags a corrupted golden record.

The program is not changed: a copy of the records is corrupted instead.
"""

import copy

import golden
from run import run_pass
from workloads import WORKLOADS

CHEAP = {"table-sweep": "table-o2", "incenter-isg": "incenter-o2", "clip-edge": "clip-n3"}


def cheap_results():
    out = {}
    for workload, op_id in CHEAP.items():
        ops = [op for op in WORKLOADS[workload] if op["id"] == op_id]
        (result,) = run_pass(ops, trace=False, hash_seed=0)["results"]
        out[workload] = result
    return out


def test_every_op_has_a_golden_record():
    records = golden.load()
    for workload, ops in WORKLOADS.items():
        assert sorted(records[workload]) == sorted(op["id"] for op in ops)


def test_comparator_matches_and_flags_corruption():
    records = golden.load()
    results = cheap_results()
    for workload, result in results.items():
        assert golden.mismatch(records, workload, result) is None

    corrupted = copy.deepcopy(records)
    sha = corrupted["table-sweep"]["table-o2"]["sha256"]
    corrupted["table-sweep"]["table-o2"]["sha256"] = ("0" if sha[0] != "0" else "1") + sha[1:]
    corrupted["incenter-isg"]["incenter-o2"]["d"] += 1
    corrupted["clip-edge"]["clip-n3"]["ranks"][-1] -= 1
    for workload, result in results.items():
        why = golden.mismatch(corrupted, workload, result)
        assert why is not None and why.startswith(CHEAP[workload])
    # The corruption lives in the copy only.
    assert golden.mismatch(golden.load(), "table-sweep", results["table-sweep"]) is None


def test_comparator_flags_errors_and_unknown_ops():
    records = golden.load()
    raised = {"id": "table-o2", "s": 0.1, "out": None, "error": "ValueError: boom"}
    assert "raised" in golden.mismatch(records, "table-sweep", raised)
    unknown = {"id": "table-o99", "s": 0.1, "out": {}, "error": None}
    assert "no golden record" in golden.mismatch(records, "table-sweep", unknown)
