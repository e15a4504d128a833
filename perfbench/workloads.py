"""The benchmark's workloads: named op lists, shuffled per pass by the seed.

An op is a JSON-able dict with a stable ``id`` (the golden-record key) and
the arguments the pass worker needs.  The op sets are fixed; the seed only
decides the order in which each pass runs them.
"""

from __future__ import annotations

import random


def _table_ops():
    # Orientable surfaces take the "position" admission rule and
    # non-orientable ones the "size" rule; both are covered.  Non-orientable
    # g = 6..8 are left out for run length: together they cost as much as
    # the g = 5 orientable op, and a run makes PASSES passes.  Seven ops
    # (an odd count) put the median latency inside one op's own samples,
    # not between the slowest of one op and the fastest of the next.
    ops = []
    for orientable, genera in ((True, range(2, 6)), (False, range(3, 6))):
        for g in genera:
            ops.append({
                "id": f"table-{'o' if orientable else 'n'}{g}",
                "kind": "table",
                "genus": g,
                "orientable": orientable,
            })
    return ops


def _pipeline_ops(derive, orientable_genera, nonorientable_genera):
    ops = []
    for orientable, genera in (
        (True, orientable_genera), (False, nonorientable_genera)
    ):
        for g in genera:
            ops.append({
                "id": f"{derive}-{'o' if orientable else 'n'}{g}",
                "kind": "pipeline",
                "derive": derive,
                "genus": g,
                "orientable": orientable,
            })
    return ops


WORKLOADS = {
    # The code table, the paper's main artefact: catalog enumeration plus
    # code_params and the geometric estimator on every admitted row.
    "table-sweep": _table_ops(),
    # Face-coloured schedules up to n = 96: floquet.run_schedule dominates.
    # Orientable g = 10, 11 (n = 80, 88) are left out for run length; that
    # also keeps the n = 96 op, the tail, well clear of the next slowest.
    "incenter-isg": _pipeline_ops("incenter", [*range(2, 10), 12], range(3, 13)),
    # Clipped complexes are not colour-code tilings, so three_color rejects
    # them and the edge-colouring backtrack runs; g >= 11 is left out only
    # for run length (the search grows about 4x per genus).
    "clip-edge": _pipeline_ops("clip", range(2, 11), range(3, 13)),
}


# Passes per run, fixed so that every commit is measured on the same number
# of latencies and the tail percentile always reads the same op.  At least
# eleven passes give the slowest op eleven latencies, so the sample with ten
# beyond it (the tail) is one of that op's own: its fastest with eleven, its
# second fastest with twelve.  incenter-isg has the cheapest passes, so it
# takes the twelfth pass, which steadies its tail (n = 96) the most.
PASSES = {"table-sweep": 11, "incenter-isg": 12, "clip-edge": 11}
# A traced run alternates untraced and traced passes: two of each.
TRACE_PASSES = 4


def pass_ops(workload: str, seed: int, pass_index: int) -> list[dict]:
    """Every op of the workload once, in an order fixed by (seed, pass)."""
    ops = list(WORKLOADS[workload])
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(ops)
    return ops
