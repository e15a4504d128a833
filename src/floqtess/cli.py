"""Batch command-line front end.

Subcommands cover the pipeline end to end: closed-form geometry (geom),
fundamental-polygon complexes and their derivations (complex build), face
colorings (color), measurement-schedule simulation (isg), distance
computation (distance), per-genus parameter tables (table) and the
orientable versus non-orientable genus-doubling check (equiv).  Output is
deterministic: identical invocations print identical bytes.  Exit codes:
0 success, 1 domain error, 2 usage error.

``_COMMANDS`` declares each command and its options once.  A well-formed
invocation (the command words, then exact ``--flag value`` pairs that pass
their types and choices) is read straight off it and builds no argparse
parser; help, usage errors and every other form go to the whole parser,
built from the same declarations, so they print its bytes unchanged.
``argparse`` is imported only for help, usage errors and rejected values,
and the package imports no ``dataclasses``, so a well-formed call starts
without either.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .catalog import build_table, equivalence_check, table_to_csv
from .coloring import NotColorCodeTiling, edge_three_color, three_color
from .derive import polygon_complex
from .floquet import exact_distance, run_schedule
from .geodist import estimate_distance
from .hypgeo import regular_profile, semiregular_profile
from .surface import deserialize, fundamental_polygon, serialize

if TYPE_CHECKING:
    import argparse

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
        # The spec names the module also where ``__name__`` is
        # ``"__main__"`` (``python -m floqtess.cli``).
        spec = tb.tb_frame.f_globals.get("__spec__")
        if spec is not None and spec.name.startswith("floqtess"):
            name = spec.name
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


def _type_error() -> type[Exception]:
    """argparse's ArgumentTypeError, which the type functions raise on a
    rejected value: argparse is imported then, not with this module."""
    import argparse

    return argparse.ArgumentTypeError


def _bool_flag(text: str) -> bool:
    v = text.lower()
    if v in ("true", "false"):
        return v == "true"
    raise _type_error()(f"expected true or false, got {text!r}")


def _genus_range(text: str) -> tuple[int, ...]:
    try:
        a, b = map(int, text.split("..", 1) if ".." in text else (text, text))
    except ValueError:
        raise _type_error()(f"expected a genus G or a range A..B, got {text!r}") from None
    if a > b:
        raise _type_error()(f"empty genus range {text!r}")
    return tuple(range(a, b + 1))


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
    fm = cx.flag_map()
    patterns = {
        tuple(sorted(len(cx.faces[fm.face[i >> 1]]) for i in rotation))
        for rotation in fm.rotations
    }
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
        doc = {"signature": {"kind": "regular", "p": p, "q": q}, **regular_profile(sig)}
    else:
        doc = {"signature": {"kind": "semiregular", "m": list(sig)},
               **semiregular_profile(sig)}
    _emit(doc)
    return 0


def cmd_complex_build(args) -> int:
    if args.derive is None:
        cx = fundamental_polygon(args.genus, args.orientable)
    else:
        cx = polygon_complex(args.derive, args.genus, args.orientable)
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
    _emit({
        "signature": list(m),
        "genus": cx.genus,
        "orientable": cx.orientable,
        **estimate_distance(m, cx.genus, cx.orientable),
        "d_source": "geometric-estimate",
    })
    return 0


def cmd_table(args) -> int:
    rows = build_table(args.genus, args.orientable, args.mode)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(rows))
    else:
        _emit([r.as_json() for r in rows])
    return 0


def cmd_equiv(args) -> int:
    _emit(equivalence_check(args.genus))
    return 0


_ORIENTABLE = ("--orientable", {
    "type": _bool_flag, "required": True,
    "help": "true for orientable, false for non-orientable",
})
_INFILE = ("--in", {"dest": "infile", "required": True, "help": "complex JSON file"})

# Every command once, in help order: name -> (help text, func, options), the
# options as (flag, add_argument keywords) pairs.  A command with actions
# (complex) has None for func and its actions, in the same form, as options.
_COMMANDS = {
    "geom": ("metric profile of a tessellation signature", cmd_geom, (
        ("--sig", {
            "required": True,
            "help": "signature: regular {p,q} or semi-regular [m1,m2,m3]",
        }),
    )),
    "complex": ("construct surface complexes", None, {
        "build": (
            "fundamental polygon, optionally clipped or subdivided",
            cmd_complex_build, (
                ("--genus", {"type": int, "required": True, "help": "surface genus"}),
                _ORIENTABLE,
                ("--derive", {
                    "choices": ("clip", "incenter"), "default": None,
                    "help": "derive a tri-valent complex instead of the bare polygon",
                }),
            ),
        ),
    }),
    "color": ("face 3-coloring and check list", cmd_color, (_INFILE,)),
    "isg": ("measurement rounds and stabilizer ranks", cmd_isg, (
        _INFILE,
        ("--rounds", {
            "type": int, "default": 9,
            "help": "measurement rounds to simulate (default 9, minimum 6)",
        }),
    )),
    "distance": ("code distance of a complex", cmd_distance, (
        _INFILE,
        ("--mode", {
            "choices": ("exact", "geo"), "required": True,
            "help": "exact operator search or geometric estimate",
        }),
    )),
    "table": ("[[n,k,d]] table over a genus range", cmd_table, (
        ("--genus", {
            "type": _genus_range, "required": True,
            "help": "single genus G or inclusive range A..B",
        }),
        _ORIENTABLE,
        ("--mode", {
            "choices": ("geo", "auto"), "default": "auto",
            "help": "distance per row: geo estimates every row, auto (the "
            "default) searches exactly on incenter rows with n <= 40",
        }),
        ("--format", {
            "choices": ("csv", "json"), "default": "csv",
            "help": "output format (default csv)",
        }),
    )),
    "equiv": (
        "orientable genus H versus non-orientable genus 2H report", cmd_equiv,
        (("--genus", {"type": int, "required": True, "help": "orientable genus H"}),),
    ),
}


def _add_commands(parser: argparse.ArgumentParser, commands: dict, dest: str) -> None:
    """Add ``commands`` (in ``_COMMANDS`` form) as subparsers named in ``dest``."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (text, func, options) in commands.items():
        p = sub.add_parser(name, help=text)
        if func is None:
            _add_commands(p, options, "action")
            continue
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, each command a subparser, built once per process
    from ``_COMMANDS``; parsing leaves it as is.  ``_parse`` hands it only
    what ``_parse_declared`` does not accept (help, usage errors and any
    other form), so those print its bytes."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="floqtess",
        description="Floquet codes from hyperbolic tessellations: "
        "geometry, complexes, schedules, distances and tables.",
    )
    _add_commands(parser, _COMMANDS, "command")
    return parser


def _parse_declared(argv: list[str]) -> SimpleNamespace | None:
    """The whole parser's namespace for argv as a SimpleNamespace, read
    straight off ``_COMMANDS``, or None unless argv is the command words
    followed by exact ``--flag value`` pairs: each flag declared and given
    once, no value starting with "-", every value passing its type and
    choices, and every required flag given.  Any argv it accepts, the whole
    parser reads the same way."""
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[name]
    found = {"command": name}
    words = argv[1:]
    if func is None:
        if not words or words[0] not in options:
            return None
        found["action"] = words[0]
        _, func, options = options[words[0]]
        words = words[1:]
    given = dict(zip(words[::2], words[1::2]))
    if len(words) % 2 or 2 * len(given) != len(words):
        return None
    if not given.keys() <= dict(options).keys():
        return None
    for flag, kw in options:
        dest = kw.get("dest", flag[2:])
        if flag not in given:
            if kw.get("required"):
                return None
            found[dest] = kw.get("default")
            continue
        value = given[flag]
        if value.startswith("-"):
            return None
        if "type" in kw:
            # The except tuple is built only once the type has raised; the
            # whole parser, which imports argparse anyway, reads argv next.
            try:
                value = kw["type"](value)
            except (_type_error(), TypeError, ValueError):
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        found[dest] = value
    return SimpleNamespace(func=func, **found)


def _parse(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    """The whole parser's namespace for argv.  A well-formed invocation is
    read off ``_COMMANDS`` into a SimpleNamespace and builds no parser;
    everything else (help, a missing or unknown command, any usage error
    or other form) goes to the whole parser, so it prints its bytes."""
    args = _parse_declared(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {_module_of(exc)}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
