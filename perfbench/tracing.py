"""Spans and counters recorded from outside the program, and their arithmetic.

The pass worker wraps the public functions listed in ``LAYERS`` at every
``floqtess`` module attribute that holds them (``from x import f`` makes a
second binding, and each binding is wrapped).  Each call records a span
``(span_id, parent_id, name, start, end, op_id)``; the benchmark adds one
root span named ``op`` around every op.  The parent process turns the spans
of one traced pass into per-layer metrics with :func:`pass_layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

OP = "op"

LAYERS = (
    "cli.main",
    "catalog.enumerate_signatures",
    "derive.semiregular_counts_direct",
    "floquet.code_params",
    "geodist.estimate_distance",
    "hypgeo.semiregular_profile",
    "floquet.run_schedule",
    "floquet.exact_distance",
    "coloring.three_color",
    "coloring.edge_three_color",
    "derive.incenter_complex",
    "derive.clip_complex",
    "surface.fundamental_polygon",
)

COUNTERS = (
    "catalog.triples_scanned",
    "catalog.signatures_admitted",
    "floquet.code_params.exact_rows",
    "floquet.run_schedule.checks_measured",
    "floquet.exact_distance.weight_reached",
    "coloring.three_color.rejected",
)


# ---------------------------------------------------------------- worker side


class Recorder:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id: str | None = None
        self._stack: list = [None]
        self._next = 0

    def open(self) -> tuple[int, int | None, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, opened: tuple, name: str) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, parent, start = opened
        self.spans.append((sid, parent, name, start, end, self.op_id))


def _count_enumeration(counts, bound, result, exc):
    from floqtess import catalog

    args = bound.arguments
    genus, orientable, m_max = args["genus"], args["orientable"], args["m_max"]
    if m_max is None:
        m_max = catalog.default_m_max(2 - 2 * genus if orientable else 2 - genus)
    counts["catalog.triples_scanned"] += comb(len(range(4, m_max + 1, 2)) + 2, 3)
    if exc is None:
        counts["catalog.signatures_admitted"] += len(result)


def _count_code_params(counts, bound, result, exc):
    if exc is None and result.d_source == "exact":
        counts["floquet.code_params.exact_rows"] += 1


def _count_run_schedule(counts, bound, result, exc):
    args = bound.arguments
    edges = len(args["schedule"].complex.edges)
    counts["floquet.run_schedule.checks_measured"] += args["rounds"] * edges


def _count_exact_distance(counts, bound, result, exc):
    if exc is None:
        counts["floquet.exact_distance.weight_reached"] += result


def _count_three_color(counts, bound, result, exc):
    if isinstance(exc, ValueError):
        counts["coloring.three_color.rejected"] += 1


_HOOKS = {
    "catalog.enumerate_signatures": _count_enumeration,
    "floquet.code_params": _count_code_params,
    "floquet.run_schedule": _count_run_schedule,
    "floquet.exact_distance": _count_exact_distance,
    "coloring.three_color": _count_three_color,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = _HOOKS.get(name)
    if hook is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = rec.open()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(opened, name)

        return traced

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced_counted(*args, **kwargs):
        opened = rec.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(opened, name)
            hook(rec.counts, _bind(sig, args, kwargs), None, exc)
            raise
        rec.close(opened, name)
        hook(rec.counts, _bind(sig, args, kwargs), result, None)
        return result

    return traced_counted


def _bind(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def install(rec: Recorder) -> None:
    """Wrap every binding of every layer function in the loaded floqtess modules."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "floqtess" or name.startswith("floqtess."))
    ]
    for layer in LAYERS:
        module_name, func_name = layer.split(".")
        original = getattr(sys.modules[f"floqtess.{module_name}"], func_name)
        wrapped = _wrap(rec, layer, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


# ---------------------------------------------------------------- parent side


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans.

    Children are clipped to the parent's interval and overlapping children
    are merged, so time is never subtracted twice.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _op in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


def self_by_name(spans) -> dict:
    """Summed self time per span name."""
    selfs = self_times(spans)
    totals: dict = defaultdict(float)
    for span in spans:
        totals[span[2]] += selfs[span[0]]
    return dict(totals)


def pass_layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = self_by_name(spans)
    calls = Counter(span[2] for span in spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    scanned = out["catalog.triples_scanned"]
    out["catalog.admitted_per_scanned"] = (
        out["catalog.signatures_admitted"] / scanned if scanned else 0.0
    )
    estimates = calls["geodist.estimate_distance"]
    out["hypgeo.semiregular_profile.calls_per_estimate"] = (
        calls["hypgeo.semiregular_profile"] / estimates if estimates else 0.0
    )
    out["trace.unwrapped_self_s"] = selfs.get(OP, 0.0)
    out["trace.op_s"] = sum(end - start for _, _, name, start, end, _ in spans if name == OP)
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def shares(passes) -> tuple[dict, dict]:
    """Self and inclusive time of each span name as a share of op time,
    over the span lists of several passes (span ids are per pass).

    Inclusive time sums span durations; no layer calls itself, so nothing is
    counted twice.
    """
    selfs: dict = defaultdict(float)
    inclusive: dict = defaultdict(float)
    for spans in passes:
        for name, t in self_by_name(spans).items():
            selfs[name] += t
        for _, _, name, start, end, _ in spans:
            inclusive[name] += end - start
    total = inclusive.pop(OP, 0.0) or 1.0
    self_share = {name: t / total for name, t in selfs.items() if name != OP}
    self_share["unwrapped"] = selfs.get(OP, 0.0) / total
    return self_share, {name: t / total for name, t in inclusive.items()}


def dominant_layer(metrics: dict) -> tuple[str, float]:
    """The layer with the largest self time and its share of op time."""
    layer = max(LAYERS, key=lambda name: metrics[f"{name}.self_s"])
    total = metrics["trace.op_s"]
    return layer, (metrics[f"{layer}.self_s"] / total if total else 0.0)
