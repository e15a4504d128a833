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
which keeps it fast on large complexes.  Both colorings and
:class:`EdgeSchedule` first name the same fault: a vertex of degree other
than 3, or a loop (``SurfaceComplex.trivalence_fault``, found once per
complex).
"""

from __future__ import annotations

from itertools import permutations

from .hypgeo import _Record
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
]

COLORS = ("R", "G", "B")
PAULI_OF = {"G": "XX", "B": "YY", "R": "ZZ"}
#: Measurement order within one period: green, blue, red.
ROUND_COLOR = ("G", "B", "R")
# The third color of each ordered pair of distinct colors.
_THIRD = {(a, b): c for a, b, c in permutations(COLORS)}


class NotColorCodeTiling(ValueError):
    """The complex fails the color-code tiling test; no face coloring exists."""


class EdgeSchedule(_Record):
    """A proper 3-edge-coloring of a tri-valent complex, with its checks.

    ``edge_color[eid]`` colors each edge; ``checks[color]`` is derived from
    it and holds the end pairs of that color's edges in edge order.  Each
    pair is a two-body check whose Pauli type ``PAULI_OF[color]`` is fixed
    by the color.  Such a coloring can exist without face colors, as on the
    two-faced clipped polygons; :class:`ColorAssignment` adds them.
    """

    complex: SurfaceComplex
    edge_color: dict
    checks: dict
    _compared = ("complex", "edge_color")
    _hashed = ("complex",)

    def __init__(self, complex: SurfaceComplex, edge_color: dict) -> None:
        self.__dict__.update(complex=complex, edge_color=edge_color)
        self.__post_init__()

    def __post_init__(self) -> None:
        c = self.complex
        if c.trivalence_fault is not None:
            raise ValueError(c.trivalence_fault)
        self._check_proper()
        checks: dict = {color: [] for color in ROUND_COLOR}
        for e in c.edges:
            checks[self.edge_color[e.id]].append(e.ends)
        object.__setattr__(self, "checks", {col: tuple(v) for col, v in checks.items()})

    def _check_proper(self) -> None:
        """Raise unless the coloring covers exactly the complex's edges (the
        first uncolored edge, in edge order, is named before the first id
        that is not an edge), each edge is R, G or B and no color repeats at
        a vertex."""
        edges = self.complex.edges
        for e in edges:
            if e.id not in self.edge_color:
                raise ValueError(f"edge {e.id!r} has no color")
        if len(self.edge_color) != len(edges):
            ids = {e.id for e in edges}
            extra = next(eid for eid in self.edge_color if eid not in ids)
            raise ValueError(f"colored id {extra!r} is not an edge of the complex")
        seen: dict = {v: set() for v in self.complex.vertices}
        for e in edges:
            color = self.edge_color[e.id]
            if color not in COLORS:
                raise ValueError(f"edge {e.id!r} has unknown color {color!r}")
            for v in e.ends:
                if color in seen[v]:
                    raise ValueError(f"two {color} edges meet at vertex {v!r}")
                seen[v].add(color)

    def checks_json(self) -> list[dict]:
        return [
            {"color": color, "pauli": PAULI_OF[color], "qubits": list(pair)}
            for color in ROUND_COLOR
            for pair in self.checks[color]
        ]


class ColorAssignment(EdgeSchedule):
    """An edge schedule induced by a proper face 3-coloring.

    ``face_color[i]`` colors face i; ``edge_color`` is derived from it: each
    edge takes the color absent from its two faces, looked up in a table
    keyed by the ordered pair of face colors.  That coloring is proper
    without a scan: each edge at a tri-valent vertex without loops separates
    two of its three corners, so once the faces across every edge differ
    the corners take three colors and each edge the one it does not touch.
    """

    edge_color: dict
    face_color: tuple[str, ...]
    _compared = _hashed = ("complex", "face_color")

    def __init__(self, complex: SurfaceComplex, face_color: tuple[str, ...]) -> None:
        self.__dict__.update(complex=complex, face_color=face_color)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.face_color) != len(self.complex.faces):
            raise ValueError("one color per face required")
        if any(color not in COLORS for color in self.face_color):
            raise ValueError("face colors must be R, G or B")
        face_color = self.face_color
        edge_color = {}
        for eid, (f1, f2) in self.complex.flag_map().edge_faces.items():
            c1, c2 = face_color[f1], face_color[f2]
            if c1 == c2:
                raise ValueError(
                    f"faces {f1} and {f2} share edge {eid!r} but both are {c1}"
                )
            edge_color[eid] = _THIRD[c1, c2]
        object.__setattr__(self, "edge_color", edge_color)
        super().__post_init__()

    def _check_proper(self) -> None:
        """Nothing to check: every edge is colored from its two faces, and
        properly, as the class docstring shows."""


def _face_classes(c: SurfaceComplex) -> list[int] | None:
    """Color class per face by forced propagation, or None on a conflict.

    The three faces at a tri-valent vertex with no self-adjacent face are
    pairwise adjacent, so two colored faces force the third.  A vertex is a
    flag-map rotation: its faces are its flags' faces, and sigma0 of a flag
    reaches a neighbour.  A BFS from rotation 0, a corner of face 0, reaches
    every vertex of the connected surface, and each step shares an edge,
    hence two colored faces, with an earlier vertex: the coloring is unique
    up to a permutation of classes.  Per vertex, one pass over the rotation
    clears the taken classes from a 3-bit mask of free ones (a class taken
    twice is a conflict) and queues the neighbours; the uncolored faces
    then take the highest free classes in rotation order.

    The complex must be tri-valent without loops or self-adjacent faces,
    as :func:`three_color` checks before it calls this: each rotation then
    has three distinct faces, and nothing else is checked here.
    """
    fm = c.flag_map()
    face, vertex, rotations = fm.face, fm.vertex, fm.rotations
    cls: list[int | None] = [None] * len(c.faces)
    seen = [False] * len(rotations)
    seen[0] = True
    queue = [0]
    for v in queue:  # the queue grows while it is read
        free = 0b111
        blank = []
        for i in rotations[v]:
            f = face[i >> 1]
            k = cls[f]
            if k is None:
                blank.append(f)
            elif free >> k & 1:
                free ^= 1 << k
            else:
                return None
            w = vertex[i ^ 1]
            if not seen[w]:
                seen[w] = True
                queue.append(w)
        for f in blank:
            k = free.bit_length() - 1
            cls[f] = k
            free ^= 1 << k
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

    if c.trivalence_fault is not None:
        raise reject(c.trivalence_fault)
    for f, face in enumerate(c.faces):
        if len(face) % 2:
            raise reject(f"face {f} has odd size {len(face)}")
    for eid, (f1, f2) in c.flag_map().edge_faces.items():
        if f1 == f2:
            raise reject(f"face {f1} is adjacent to itself across edge {eid!r}")
    cls = _face_classes(c)
    if cls is None:
        raise reject("face-adjacency graph admits no proper 3-coloring")
    name = dict(zip(dict.fromkeys(cls), COLORS))
    return ColorAssignment(complex=c, face_color=tuple(name[k] for k in cls))


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
    if c.trivalence_fault is not None:
        raise ValueError(c.trivalence_fault)
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

