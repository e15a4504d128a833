"""Self-time arithmetic on synthetic span trees, and wrapping in a real pass.

    python3 -m pytest perfbench
"""

import pytest

import tracing
from run import run_pass
from workloads import WORKLOADS


def span(sid, parent, name, start, end):
    return (sid, parent, name, start, end, "op-1")


# op 0..10
#   A 1..4        (children A1 1.5..2.5 and A2 3..3.5, both named "x")
#   B 5..9
#     B1 6..8
#       B1a 6.5..7
TREE = [
    span(0, None, tracing.OP, 0.0, 10.0),
    span(1, 0, "A", 1.0, 4.0),
    span(2, 1, "x", 1.5, 2.5),
    span(3, 1, "x", 3.0, 3.5),
    span(4, 0, "B", 5.0, 9.0),
    span(5, 4, "B1", 6.0, 8.0),
    span(6, 5, "B1a", 6.5, 7.0),
]


def test_self_time_nested_and_sibling_children():
    selfs = tracing.self_times(TREE)
    assert selfs == pytest.approx({0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 2.0, 5: 1.5, 6: 0.5})
    # A grandchild reduces only its own parent, never the grandparent twice.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        span(0, None, "P", 0.0, 10.0),
        span(1, 0, "c", 1.0, 5.0),
        span(2, 0, "c", 3.0, 7.0),    # overlaps the first child: union 1..7
        span(3, 0, "c", 9.0, 12.0),   # runs past the parent: counts 9..10
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_self_by_name_sums_spans_of_one_name():
    assert tracing.self_by_name(TREE)["x"] == pytest.approx(1.5)


def test_layer_metrics_and_shares():
    layer_a, layer_b = tracing.LAYERS[:2]
    spans = [
        span(0, None, tracing.OP, 0.0, 8.0),
        span(1, 0, layer_a, 0.0, 6.0),
        span(2, 1, layer_b, 1.0, 2.0),
        span(3, 1, layer_b, 3.0, 5.0),
    ]
    m = tracing.pass_layer_metrics(spans, {"catalog.triples_scanned": 200,
                                           "catalog.signatures_admitted": 5})
    assert m[f"{layer_a}.calls"] == 1 and m[f"{layer_b}.calls"] == 2
    assert m[f"{layer_a}.self_s"] == pytest.approx(3.0)
    assert m[f"{layer_b}.self_s"] == pytest.approx(3.0)
    assert m["trace.unwrapped_self_s"] == pytest.approx(2.0)
    assert m["trace.op_s"] == pytest.approx(8.0)
    assert m["catalog.admitted_per_scanned"] == pytest.approx(0.025)
    self_share, inclusive_share = tracing.shares([spans, spans])
    assert self_share[layer_a] == pytest.approx(3 / 8)
    assert self_share["unwrapped"] == pytest.approx(2 / 8)
    assert inclusive_share[layer_a] == pytest.approx(6 / 8)


def test_traced_pass_wraps_every_binding():
    ops = [op for op in WORKLOADS["table-sweep"] if op["id"] == "table-o2"]
    doc = run_pass(ops, trace=True, hash_seed=0)
    m = tracing.pass_layer_metrics(doc["spans"], doc["counts"])
    assert m["cli.main.calls"] == 1
    # catalog calls these through its own ``from ... import`` bindings, and
    # geodist calls semiregular_profile through its binding of hypgeo's.
    assert m["catalog.enumerate_signatures.calls"] == 1
    assert m["derive.semiregular_counts_direct.calls"] > m["catalog.signatures_admitted"]
    assert m["floquet.code_params.calls"] == m["catalog.signatures_admitted"]
    assert m["hypgeo.semiregular_profile.calls_per_estimate"] == 3
    assert m["floquet.code_params.exact_rows"] == 1
    # g = 2 orientable: m_max = 36, so 17 even sizes and C(19, 3) triples.
    assert m["catalog.triples_scanned"] == 969
    assert all(s[5] == "table-o2" for s in doc["spans"])
