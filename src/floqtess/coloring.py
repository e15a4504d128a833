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
:func:`edge_three_color` finds the lexicographically least one, so the
measurement schedule can run without face colors.  Its backtracking search
colors every edge that a choice forces before it makes the next choice,
which keeps it fast on large complexes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .surface import SurfaceComplex

__all__ = [
    "COLORS",
    "PAULI_OF",
    "ROUND_COLOR",
    "NotColorCodeTiling",
    "EdgeSchedule",
    "ColorAssignment",
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
class EdgeSchedule:
    """A proper 3-edge-coloring of a tri-valent complex, with its checks.

    ``edge_color[eid]`` colors each edge; ``checks[color]`` is derived from
    it and holds the end pairs of that color's edges in edge order.  Each
    pair is a two-body check whose Pauli type ``PAULI_OF[color]`` is fixed
    by the color.  Such a coloring can exist without face colors, as on the
    two-faced clipped polygons; :class:`ColorAssignment` adds them.
    """

    complex: SurfaceComplex
    edge_color: dict = field(compare=False)
    checks: dict = field(init=False, compare=False)

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
        checks: dict = {color: [] for color in ROUND_COLOR}
        for e in c.edges:
            checks[self.edge_color[e.id]].append(e.ends)
        object.__setattr__(self, "checks", {col: tuple(v) for col, v in checks.items()})

    def checks_json(self) -> list[dict]:
        return [
            {"color": color, "pauli": PAULI_OF[color], "qubits": list(pair)}
            for color in ROUND_COLOR
            for pair in self.checks[color]
        ]


@dataclass(frozen=True)
class ColorAssignment(EdgeSchedule):
    """An edge schedule induced by a proper face 3-coloring.

    ``face_color[i]`` colors face i, and every edge takes the unique color
    absent from its two incident faces.  At a tri-valent vertex the three
    corners are pairwise separated by its three edges, so once the faces
    across every edge differ, every vertex meets all three face colors.
    """

    face_color: tuple[str, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.face_color) != len(self.complex.faces):
            raise ValueError("one color per face required")
        if any(color not in COLORS for color in self.face_color):
            raise ValueError("face colors must be R, G or B")
        for eid, (f1, f2) in self.complex.flag_map().edge_faces.items():
            c1, c2 = self.face_color[f1], self.face_color[f2]
            if c1 == c2:
                raise ValueError(
                    f"faces {f1} and {f2} share edge {eid!r} but both are {c1}"
                )
            if self.edge_color[eid] != _third(c1, c2):
                raise ValueError(
                    f"edge {eid!r} must take the color absent from its faces "
                    f"({_third(c1, c2)})"
                )


def _third(c1: str, c2: str) -> str:
    return next(col for col in COLORS if col not in (c1, c2))


def _face_classes(c: SurfaceComplex, pairs: Mapping) -> list[int] | None:
    """Color class per face by forced propagation, or None on a conflict.

    The three faces at a tri-valent vertex with no self-adjacent face are
    pairwise adjacent, so two colored faces force the third.  A BFS over
    vertices from a corner of face 0 reaches every vertex of the connected
    surface, and each step shares an edge, hence two colored faces, with an
    earlier vertex: the coloring is unique up to a permutation of classes.
    """
    faces_at: dict = {v: set() for v in c.vertices}
    nbrs: dict = {v: [] for v in c.vertices}
    for e in c.edges:
        u, w = e.ends
        faces_at[u].update(pairs[e.id])
        faces_at[w].update(pairs[e.id])
        nbrs[u].append(w)
        nbrs[w].append(u)
    cls: list[int | None] = [None] * len(c.faces)
    start = c.walk_ends(c.faces[0][0])[0]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        taken = [cls[f] for f in faces_at[v] if cls[f] is not None]
        if len(set(taken)) != len(taken):
            return None
        free = [k for k in range(3) if k not in taken]
        for f in faces_at[v]:
            if cls[f] is None:
                cls[f] = free.pop()
        for w in nbrs[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return cls


def three_color(c: SurfaceComplex) -> ColorAssignment:
    """The proper face 3-coloring with induced edges and checks.

    Colors are forced once two faces at a vertex are fixed, so the coloring
    is unique up to permuting R, G, B; classes are named R, G, B in order of
    first appearance by face index, so face 0 is red and identical complexes
    yield identical assignments.  Raises NotColorCodeTiling, naming the
    first violated condition, when the complex is not tri-valent with even
    faces and a properly 3-colorable face graph; never returns a partial
    assignment.
    """

    def reject(reason: str) -> NotColorCodeTiling:
        return NotColorCodeTiling(f"not a color-code tiling: {reason}")

    for v, d in c.vertex_degrees().items():
        if d != 3:
            raise reject(f"vertex {v!r} has degree {d}, need 3")
    for e in c.edges:
        if e.ends[0] == e.ends[1]:
            raise reject(f"edge {e.id!r} is a loop")
    for f, face in enumerate(c.faces):
        if len(face) % 2:
            raise reject(f"face {f} has odd size {len(face)}")
    pairs = c.flag_map().edge_faces
    for eid, (f1, f2) in pairs.items():
        if f1 == f2:
            raise reject(f"face {f1} is adjacent to itself across edge {eid!r}")
    cls = _face_classes(c, pairs)
    if cls is None:
        raise reject("face-adjacency graph admits no proper 3-coloring")
    name = dict(zip(dict.fromkeys(cls), COLORS))
    face_color = tuple(name[k] for k in cls)
    edge_color = {
        e.id: _third(face_color[pairs[e.id][0]], face_color[pairs[e.id][1]])
        for e in c.edges
    }
    return ColorAssignment(complex=c, edge_color=edge_color, face_color=face_color)


def edge_three_color(c: SurfaceComplex) -> EdgeSchedule:
    """The lexicographically least proper 3-edge-coloring in edge order.

    The search branches on the first uncolored edge in ``c.edges``, trying
    colors in ``COLORS`` order.  After each choice an uncolored neighbour
    edge with one color left takes it, transitively, and one with none left
    sends the search back.  A forced color holds in every proper completion
    of the partial coloring, so propagation cuts only dead branches and the
    first full coloring reached is still the lexicographically least.  One
    trail of colored edges undoes a choice with all it forced, and the
    stack is explicit, so large complexes need no recursion.  Raises
    ValueError if the tri-valent complex's edges do not split into three
    perfect matchings.
    """
    for v, d in c.vertex_degrees().items():
        if d != 3:
            raise ValueError(f"vertex {v!r} has degree {d}, need 3")
    for e in c.edges:
        if e.ends[0] == e.ends[1]:
            raise ValueError(f"edge {e.id!r} is a loop; no perfect matching contains it")
    vid = {v: k for k, v in enumerate(c.vertices)}
    ends = [(vid[e.ends[0]], vid[e.ends[1]]) for e in c.edges]
    incident: list = [[] for _ in vid]
    for i, (u, w) in enumerate(ends):
        incident[u].append(i)
        incident[w].append(i)
    # An edge's neighbours include itself, which is colored when they are read.
    nbrs = [incident[u] + incident[w] for u, w in ends]
    # Colors are the bits 1, 2, 4 (R, G, B), so the lowest set bit of an
    # option mask is the next color in COLORS order.  used[v] holds the
    # colors at vertex v; trail lists the colored edges in coloring order.
    m = len(ends)
    color = [0] * m
    used = [0] * len(vid)
    trail: list = []
    decisions: list = []  # (trail length before, edge, colors left to try)
    i, options = 0, 0b111
    while i < m:
        if not options:
            if not decisions:
                raise ValueError("edges do not split into three perfect matchings")
            mark, i, options = decisions.pop()
            for k in trail[mark:]:
                u, w = ends[k]
                used[u] ^= color[k]
                used[w] ^= color[k]
                color[k] = 0
            del trail[mark:]
            continue
        low = options & -options
        head = len(trail)
        decisions.append((head, i, options ^ low))
        u, w = ends[i]
        color[i] = low
        used[u] |= low
        used[w] |= low
        trail.append(i)
        # Color every neighbour left with one color, transitively; a
        # neighbour left with none sends the search back to this decision.
        while head < len(trail) and options:
            for j in nbrs[trail[head]]:
                if not color[j]:
                    u, w = ends[j]
                    free = 0b111 & ~(used[u] | used[w])
                    if not free & (free - 1):
                        if not free:
                            options = 0
                            break
                        color[j] = free
                        used[u] |= free
                        used[w] |= free
                        trail.append(j)
            head += 1
        if not options:
            continue
        while i < m and color[i]:
            i += 1
        if i < m:
            u, w = ends[i]
            options = 0b111 & ~(used[u] | used[w])
    name = dict(zip((1, 2, 4), COLORS))
    edge_color = {e.id: name[bit] for e, bit in zip(c.edges, color)}
    return EdgeSchedule(complex=c, edge_color=edge_color)


def checks_for_round(schedule: EdgeSchedule, r: int) -> tuple:
    """Qubit pairs of the checks measured at round r: green at r=3n, blue
    at 3n+1, red at 3n+2."""
    return schedule.checks[ROUND_COLOR[r % 3]]
