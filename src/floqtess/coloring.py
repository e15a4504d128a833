"""Three-colorings of tri-valent even-faced tessellations and their checks.

A complex qualifies as a color-code tiling when it is tri-valent, every face
has even size, and the face-adjacency graph is properly 3-colorable.  Faces
then get colors R/G/B, each edge takes the unique color absent from its two
incident faces, and every edge becomes a two-body check on its endpoint
qubits with the Pauli type fixed by the edge color: green XX, blue YY,
red ZZ.  Rounds cycle green, blue, red.

For tri-valent complexes whose face graph is *not* 3-colorable (e.g. the
two-faced clipped fundamental polygons) a proper 3-edge-coloring still exists
whenever the edge set splits into three perfect matchings;
:func:`edge_three_color` finds one so the measurement schedule can run
without face colors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .surface import SurfaceComplex

__all__ = [
    "COLORS",
    "PAULI_OF",
    "ROUND_COLOR",
    "Check",
    "NotColorCodeTiling",
    "TilingCheck",
    "ColorAssignment",
    "EdgeSchedule",
    "is_color_code_tiling",
    "three_color",
    "edge_three_color",
    "checks_for_round",
]

COLORS = ("R", "G", "B")
PAULI_OF = {"G": "XX", "B": "YY", "R": "ZZ"}
#: Measurement order within one period: green, blue, red.
ROUND_COLOR = ("G", "B", "R")


class NotColorCodeTiling(ValueError):
    """The complex fails the color-code tiling test; no face coloring exists."""


@dataclass(frozen=True)
class Check:
    """A two-body measurement check on the qubits at an edge's endpoints."""

    color: str
    pauli: str
    qubits: tuple

    def __post_init__(self) -> None:
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        if PAULI_OF[self.color] != self.pauli:
            raise ValueError(f"color {self.color} carries {PAULI_OF[self.color]}, not {self.pauli}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != 2:
            raise ValueError("a check acts on exactly two qubits")
        if self.qubits[0] == self.qubits[1]:
            raise ValueError("check endpoints must be distinct qubits")

    def as_json(self) -> dict:
        return {"color": self.color, "pauli": self.pauli, "qubits": list(self.qubits)}


@dataclass(frozen=True)
class TilingCheck:
    """Outcome of the color-code tiling test; falsy when it fails."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _face_pairs(c: SurfaceComplex) -> dict:
    """edge id -> (face index, face index) of its two slots."""
    sides: dict = {}
    for f, face in enumerate(c.faces):
        for eid, _ in face:
            sides.setdefault(eid, []).append(f)
    return {eid: tuple(fs) for eid, fs in sides.items()}


def _search_face_coloring(c: SurfaceComplex) -> list[str] | None:
    """Deterministic backtracking: faces in index order, colors R < G < B."""
    adj: list[set[int]] = [set() for _ in c.faces]
    for f1, f2 in _face_pairs(c).values():
        if f1 == f2:
            return None
        adj[f1].add(f2)
        adj[f2].add(f1)

    colors: list[str | None] = [None] * len(c.faces)

    def extend(i: int) -> bool:
        if i == len(colors):
            return True
        taken = {colors[j] for j in adj[i] if colors[j] is not None}
        for color in COLORS:
            if color not in taken:
                colors[i] = color
                if extend(i + 1):
                    return True
                colors[i] = None
        return False

    return colors if extend(0) else None


def is_color_code_tiling(c: SurfaceComplex) -> TilingCheck:
    """Tri-valent, even faces, and face graph properly 3-colorable.

    The returned diagnostics name the first violated condition.
    """
    for v, d in c.vertex_degrees().items():
        if d != 3:
            return TilingCheck(False, f"vertex {v!r} has degree {d}, need 3")
    for e in c.edges:
        if e.ends[0] == e.ends[1]:
            return TilingCheck(False, f"edge {e.id!r} is a loop")
    for f, face in enumerate(c.faces):
        if len(face) % 2:
            return TilingCheck(False, f"face {f} has odd size {len(face)}")
    for eid, (f1, f2) in _face_pairs(c).items():
        if f1 == f2:
            return TilingCheck(False, f"face {f1} is adjacent to itself across edge {eid!r}")
    if _search_face_coloring(c) is None:
        return TilingCheck(False, "face-adjacency graph admits no proper 3-coloring")
    return TilingCheck(True)


def _checks_from_edge_colors(c: SurfaceComplex, edge_color: Mapping) -> dict:
    checks: dict[str, list[Check]] = {color: [] for color in ROUND_COLOR}
    for e in c.edges:
        color = edge_color[e.id]
        checks[color].append(Check(color, PAULI_OF[color], e.ends))
    return {color: tuple(lst) for color, lst in checks.items()}


@dataclass(frozen=True)
class ColorAssignment:
    """A validated face 3-coloring with induced edge colors and checks.

    ``face_color[i]`` colors face i; ``edge_color[eid]`` is the unique color
    different from both incident faces; ``checks[color]`` lists the two-body
    checks of that color in edge order.
    """

    complex: SurfaceComplex
    face_color: tuple[str, ...]
    edge_color: dict = field(compare=False)
    checks: dict = field(compare=False)

    def __post_init__(self) -> None:
        c = self.complex
        if len(self.face_color) != len(c.faces):
            raise ValueError("one color per face required")
        if any(color not in COLORS for color in self.face_color):
            raise ValueError("face colors must be R, G or B")
        for f, face in enumerate(c.faces):
            if len(face) % 2:
                raise ValueError(f"face {f} has odd size {len(face)}")
        for v, d in c.vertex_degrees().items():
            if d != 3:
                raise ValueError(f"vertex {v!r} has degree {d}, need 3")
        pairs = _face_pairs(c)
        for eid, (f1, f2) in pairs.items():
            c1, c2 = self.face_color[f1], self.face_color[f2]
            if c1 == c2:
                raise ValueError(
                    f"faces {f1} and {f2} share edge {eid!r} but both are {c1}"
                )
            expect = next(col for col in COLORS if col not in (c1, c2))
            if self.edge_color[eid] != expect:
                raise ValueError(
                    f"edge {eid!r} must take the color absent from its faces ({expect})"
                )
        # Induced structure: every vertex meets all three face colors.
        fm = c.flag_map()
        labels, _ = fm.orbit_labels([fm.s1, fm.s2])
        at_vertex: dict[int, set[str]] = {}
        for i, (f, _, _) in enumerate(fm.flags):
            at_vertex.setdefault(labels[i], set()).add(self.face_color[f])
        for lab, seen in at_vertex.items():
            if seen != set(COLORS):
                raise ValueError(f"a vertex touches face colors {sorted(seen)}, need all three")
        if self.checks != _checks_from_edge_colors(c, self.edge_color):
            raise ValueError("checks do not match the edge coloring")

    def checks_json(self) -> list[dict]:
        return [ch.as_json() for color in ROUND_COLOR for ch in self.checks[color]]


@dataclass(frozen=True)
class EdgeSchedule:
    """A proper 3-edge-coloring of a tri-valent complex, with checks.

    The face-free fallback: it induces the same measurement schedule as a
    :class:`ColorAssignment` but exists on tri-valent complexes whose face
    graph is not 3-colorable.
    """

    complex: SurfaceComplex
    edge_color: dict = field(compare=False)
    checks: dict = field(compare=False)

    def __post_init__(self) -> None:
        c = self.complex
        for v, d in c.vertex_degrees().items():
            if d != 3:
                raise ValueError(f"vertex {v!r} has degree {d}, need 3")
        seen: dict = {v: set() for v in c.vertices}
        for e in c.edges:
            color = self.edge_color[e.id]
            if color not in COLORS:
                raise ValueError(f"edge {e.id!r} has unknown color {color!r}")
            for v in e.ends:
                if color in seen[v]:
                    raise ValueError(f"two {color} edges meet at vertex {v!r}")
                seen[v].add(color)
        if self.checks != _checks_from_edge_colors(c, self.edge_color):
            raise ValueError("checks do not match the edge coloring")

    def checks_json(self) -> list[dict]:
        return [ch.as_json() for color in ROUND_COLOR for ch in self.checks[color]]


def three_color(c: SurfaceComplex) -> ColorAssignment:
    """Deterministic proper face 3-coloring with induced edges and checks.

    Faces are colored by backtracking in index order with color order
    R < G < B, so the lowest-index face is red and identical complexes yield
    identical assignments.  Raises NotColorCodeTiling (with the diagnostic)
    when the complex is not a color-code tiling; never returns a partial
    assignment.
    """
    verdict = is_color_code_tiling(c)
    if not verdict:
        raise NotColorCodeTiling(f"not a color-code tiling: {verdict.reason}")
    face_color = _search_face_coloring(c)
    assert face_color is not None  # is_color_code_tiling ran the same search
    edge_color = {}
    for eid, (f1, f2) in _face_pairs(c).items():
        c1, c2 = face_color[f1], face_color[f2]
        edge_color[eid] = next(col for col in COLORS if col not in (c1, c2))
    edge_color = {e.id: edge_color[e.id] for e in c.edges}
    return ColorAssignment(
        complex=c,
        face_color=tuple(face_color),
        edge_color=edge_color,
        checks=_checks_from_edge_colors(c, edge_color),
    )


def edge_three_color(c: SurfaceComplex) -> EdgeSchedule:
    """Proper 3-edge-coloring by deterministic backtracking in edge order.

    Works whenever the tri-valent complex's edges split into three perfect
    matchings, face colors or not.  Raises ValueError if no such coloring
    exists.
    """
    for v, d in c.vertex_degrees().items():
        if d != 3:
            raise ValueError(f"vertex {v!r} has degree {d}, need 3")
    for e in c.edges:
        if e.ends[0] == e.ends[1]:
            raise ValueError(f"edge {e.id!r} is a loop; no perfect matching contains it")
    order = [e.id for e in c.edges]
    incident: dict = {v: [] for v in c.vertices}
    for e in c.edges:
        for v in set(e.ends):
            incident[v].append(e.id)
    color_of: dict = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        eid = order[i]
        ends = c.edge_by_id(eid).ends
        taken = {
            color_of[other]
            for v in set(ends)
            for other in incident[v]
            if other in color_of
        }
        for color in COLORS:
            if color not in taken:
                color_of[eid] = color
                if extend(i + 1):
                    return True
                del color_of[eid]
        return False

    if not extend(0):
        raise ValueError("edges do not split into three perfect matchings")
    edge_color = {eid: color_of[eid] for eid in order}
    return EdgeSchedule(
        complex=c, edge_color=edge_color, checks=_checks_from_edge_colors(c, edge_color)
    )


def checks_for_round(assign: ColorAssignment | EdgeSchedule, r: int) -> tuple[Check, ...]:
    """Checks measured at round r: green at r=3n, blue at 3n+1, red at 3n+2."""
    return assign.checks[ROUND_COLOR[r % 3]]
