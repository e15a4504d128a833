"""Batch command-line front end.

Subcommands cover the pipeline end to end: closed-form geometry (geom),
fundamental-polygon complexes and their derivations (complex build), face
colorings (color), measurement-schedule simulation (isg), distance
computation (distance), per-genus parameter tables (table) and the
orientable versus non-orientable genus-doubling check (equiv).  Output is
deterministic: identical invocations print identical bytes.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from .catalog import build_table, equivalence_check, table_to_csv, table_to_json
from .coloring import NotColorCodeTiling, edge_three_color, three_color
from .derive import clip_complex, incenter_complex
from .floquet import exact_distance, run_schedule
from .geodist import estimate_distance
from .hypgeo import (
    polygon_area,
    regular_apothem_circumradius,
    regular_edge_length,
    semiregular_profile,
)
from .surface import deserialize, fundamental_polygon, serialize

_REGULAR_RE = re.compile(r"^\{\s*(\d+)\s*,\s*(\d+)\s*\}$")
_TRIPLE_RE = re.compile(r"^\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]$")


def _round12(obj):
    """Floats at 12 significant digits, applied across a JSON tree."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(doc) -> None:
    print(json.dumps(_round12(doc), indent=2))


def _module_of(exc: BaseException) -> str:
    """Deepest package module on the exception's traceback."""
    name = "floqtess"
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("floqtess"):
            name = mod
        tb = tb.tb_next
    return name


def _parse_sig(text: str):
    s = text.strip()
    m = _REGULAR_RE.match(s)
    if m:
        return "regular", (int(m.group(1)), int(m.group(2)))
    m = _TRIPLE_RE.match(s)
    if m:
        return "semiregular", tuple(int(g) for g in m.groups())
    raise ValueError(
        f"unrecognized signature {text!r}: expected {{p,q}} or [m1,m2,m3]"
    )


def _bool_flag(text: str) -> bool:
    v = text.lower()
    if v in ("true", "false"):
        return v == "true"
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _genus_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
        if a > b:
            raise argparse.ArgumentTypeError(f"empty genus range {text!r}")
        return tuple(range(a, b + 1))
    return (int(text),)


def _load_complex(path: str):
    return deserialize(Path(path).read_text())


def _schedule_for(cx):
    """Face coloring when the complex is a color-code tiling, else the
    plain edge coloring (same measurement cadence, no logical guarantee)."""
    try:
        return three_color(cx), "face-coloring"
    except NotColorCodeTiling:
        return edge_three_color(cx), "edge-coloring"


def _vertex_signature(cx) -> tuple[int, int, int]:
    """The face-size triple around every vertex; fails if non-uniform."""
    sizes: dict = {v: [] for v in cx.vertices}
    for face in cx.faces:
        for slot in face:
            tail, _ = cx.walk_ends(slot)
            sizes[tail].append(len(face))
    patterns = {tuple(sorted(s)) for s in sizes.values()}
    if len(patterns) != 1 or len(next(iter(patterns))) != 3:
        raise ValueError(
            "complex has no uniform tri-valent vertex type; "
            f"saw patterns {sorted(patterns)}"
        )
    return next(iter(patterns))


def cmd_geom(args) -> int:
    kind, sig = _parse_sig(args.sig)
    if kind == "regular":
        p, q = sig
        a, r = regular_apothem_circumradius((p, q))
        doc = {
            "signature": {"kind": "regular", "p": p, "q": q},
            "edge_length": regular_edge_length((p, q)),
            "apothem": a,
            "circumradius": r,
            "face_area": polygon_area((p, q)),
        }
    else:
        profile = semiregular_profile(sig)
        doc = {
            "signature": {"kind": "semiregular", "m": list(sig)},
            "edge_length": profile.l,
            "apothems": list(profile.a),
            "circumradii": list(profile.r),
            "incenter_gaps": list(profile.A),
        }
    _emit(doc)
    return 0


def cmd_complex_build(args) -> int:
    base = fundamental_polygon(args.genus, args.orientable)
    cx = base
    if args.derive is not None:
        p = (4 if args.orientable else 2) * args.genus
        make = clip_complex if args.derive == "clip" else incenter_complex
        cx = make(base, p, p)
    _emit(serialize(cx))
    return 0


def cmd_color(args) -> int:
    cx = _load_complex(args.infile)
    try:
        assign = three_color(cx)
    except NotColorCodeTiling as exc:
        _emit({"colorable": False, "error": f"{_module_of(exc)}: {exc}"})
        return 1
    _emit(assign.checks_json())
    return 0


def cmd_isg(args) -> int:
    cx = _load_complex(args.infile)
    schedule, kind = _schedule_for(cx)
    result = run_schedule(schedule, args.rounds)
    _emit({
        "n": result.n,
        "schedule": kind,
        "rounds": args.rounds,
        "ranks": list(result.ranks),
        "steady_round": result.steady_round,
        "k": result.k_inst,
    })
    return 0


def cmd_distance(args) -> int:
    cx = _load_complex(args.infile)
    if args.mode == "exact":
        schedule, kind = _schedule_for(cx)
        result = run_schedule(schedule, 9)
        d = exact_distance(schedule, result)
        _emit({
            "n": result.n,
            "k": result.k_inst,
            "d": d,
            "d_source": "exact",
            "schedule": kind,
            "steady_round": result.steady_round,
        })
        return 0
    m = _vertex_signature(cx)
    est = estimate_distance(m, cx.genus, cx.orientable)
    doc = {
        "signature": list(m),
        "genus": cx.genus,
        "orientable": cx.orientable,
    }
    doc.update(est.as_json())
    doc["d_source"] = "geometric-estimate"
    _emit(doc)
    return 0


def cmd_table(args) -> int:
    rows = build_table(args.genus, args.orientable, args.mode)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(rows))
    else:
        _emit(table_to_json(rows))
    return 0


def cmd_equiv(args) -> int:
    _emit(equivalence_check(args.genus).as_json())
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="floqtess",
        description="Floquet codes from hyperbolic tessellations: "
        "geometry, complexes, schedules, distances and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geom", help="metric profile of a tessellation signature")
    p.add_argument(
        "--sig", required=True,
        help="signature: regular {p,q} or semi-regular [m1,m2,m3]",
    )
    p.set_defaults(func=cmd_geom)

    p = sub.add_parser("complex", help="construct surface complexes")
    csub = p.add_subparsers(dest="action", required=True)
    b = csub.add_parser(
        "build", help="fundamental polygon, optionally clipped or subdivided"
    )
    b.add_argument("--genus", type=int, required=True, help="surface genus")
    b.add_argument(
        "--orientable", type=_bool_flag, required=True,
        help="true for orientable, false for non-orientable",
    )
    b.add_argument(
        "--derive", choices=("clip", "incenter"), default=None,
        help="derive a tri-valent complex instead of the bare polygon",
    )
    b.set_defaults(func=cmd_complex_build)

    p = sub.add_parser("color", help="face 3-coloring and check list")
    p.add_argument("--in", dest="infile", required=True, help="complex JSON file")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("isg", help="measurement rounds and stabilizer ranks")
    p.add_argument("--in", dest="infile", required=True, help="complex JSON file")
    p.add_argument(
        "--rounds", type=int, default=9,
        help="measurement rounds to simulate (default 9, minimum 6)",
    )
    p.set_defaults(func=cmd_isg)

    p = sub.add_parser("distance", help="code distance of a complex")
    p.add_argument("--in", dest="infile", required=True, help="complex JSON file")
    p.add_argument(
        "--mode", choices=("exact", "geo"), required=True,
        help="exact operator search or geometric estimate",
    )
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("table", help="[[n,k,d]] table over a genus range")
    p.add_argument(
        "--genus", type=_genus_range, required=True,
        help="single genus G or inclusive range A..B",
    )
    p.add_argument(
        "--orientable", type=_bool_flag, required=True,
        help="true for orientable, false for non-orientable",
    )
    p.add_argument(
        "--mode", choices=("exact", "geo", "auto"), default="auto",
        help="distance mode per row (default auto)",
    )
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "equiv",
        help="orientable genus H versus non-orientable genus 2H report",
    )
    p.add_argument("--genus", type=int, required=True, help="orientable genus H")
    p.set_defaults(func=cmd_equiv)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {_module_of(exc)}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
