"""Combinatorial closed surfaces as polygonal complexes.

A :class:`SurfaceComplex` is a polygonal cell structure on a closed surface:
faces are cyclic sequences of directed edge slots, every edge is shared by
exactly two slots, and vertices are the corner identifications.  This is a
combinatorial map, so duals and derived subdivisions can be built by corner
traversal without any geometric embedding.

Fundamental polygons provide the explicit instances: the 4g-gon with opposite
sides identified (orientable genus g) and the 2g-gon with the a1 a1 a2 a2 ...
identification (non-orientable genus g).  Counting for general {p,q}
tessellations is arithmetic only; no triangle-group quotients are constructed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from .hypgeo import RegularSig, _check_genus, _genus_chi

__all__ = [
    "SurfaceError",
    "Edge",
    "SurfaceComplex",
    "fundamental_polygon",
    "polygon_surface",
    "regular_counts",
    "dual",
    "isomorphic",
    "serialize",
    "deserialize",
]

VertexId = Any
#: A directed appearance of an edge on a face boundary: (edge id, +1 or -1).
Slot = tuple[Any, int]


class SurfaceError(ValueError):
    """A document or complex violates the closed-surface contract."""


@dataclass(frozen=True)
class Edge:
    """An undirected edge with an intrinsic end order (ends[0] -> ends[1])."""

    id: Any
    ends: tuple[VertexId, VertexId]

    def __post_init__(self) -> None:
        ends = tuple(self.ends)
        if len(ends) != 2:
            raise SurfaceError(f"edge {self.id!r}: ends must be a pair")
        object.__setattr__(self, "ends", ends)


class _FlagMap:
    """Flag structure of a face list: one flag per (face, slot, end).

    Flags are indexed densely; the three involutions are

    * ``sigma0``: swap the two ends of one slot,
    * ``sigma1``: step to the adjacent slot-end across a face corner,
    * ``sigma2``: cross to the other slot of the same edge, staying at the
      same intrinsic end of the edge.

    Vertices of the complex are the orbits of <sigma1, sigma2>; faces are the
    orbits of <sigma0, sigma1>; edges are the orbits of <sigma0, sigma2>.
    Only the face list and the slot pairing are needed, never the vertex ids,
    which lets constructors recover vertices from the gluing.

    A flag ``(f, j, t)`` sits at the tail (t = 0) or head (t = 1) of slot j
    as face f walks it; :meth:`end` and :meth:`flag` translate to and from
    the intrinsic end of the edge, and no other code needs that convention.
    ``rotations`` holds one psi -> sigma2 sigma1 psi cycle per vertex, in
    order of each vertex's first flag and starting at it; ``vertex`` maps
    every flag to its cycle; ``edge_faces`` maps an edge id to the faces of
    its first and second slot.
    """

    def __init__(self, faces: Sequence[Sequence[Slot]]):
        self.faces = faces
        self.index: dict[tuple[int, int, int], int] = {}
        self.flags: list[tuple[int, int, int]] = []
        for f, face in enumerate(faces):
            for j in range(len(face)):
                for t in (0, 1):
                    self.index[(f, j, t)] = len(self.flags)
                    self.flags.append((f, j, t))

        slots_of: dict[Any, list[tuple[int, int]]] = {}
        for f, face in enumerate(faces):
            for j, (eid, _) in enumerate(face):
                slots_of.setdefault(eid, []).append((f, j))
        for eid, slots in slots_of.items():
            if len(slots) < 2:
                raise SurfaceError(
                    f"open surface: edge {eid!r} appears in {len(slots)} face slot(s), need 2"
                )
            if len(slots) > 2:
                raise SurfaceError(
                    f"edge {eid!r} appears in {len(slots)} face slots; a surface allows 2"
                )
        self.slots_of = slots_of
        self.edge_faces = {eid: (a[0], b[0]) for eid, (a, b) in slots_of.items()}

        n = len(self.flags)
        self.s0 = [0] * n
        self.s1 = [0] * n
        self.s2 = [0] * n
        for i, (f, j, t) in enumerate(self.flags):
            self.s0[i] = self.index[(f, j, 1 - t)]
            L = len(faces[f])
            if t == 1:
                self.s1[i] = self.index[(f, (j + 1) % L, 0)]
            else:
                self.s1[i] = self.index[(f, (j - 1) % L, 1)]
            eid, end = self.end(i)
            a, b = slots_of[eid]
            self.s2[i] = self.flag(*(b if a == (f, j) else a), end)

        self.vertex = [-1] * n
        self.rotations: list[list[int]] = []
        for start in range(n):
            if self.vertex[start] != -1:
                continue
            v = len(self.rotations)
            cycle = []
            i = start
            while True:
                cycle.append(i)
                self.vertex[i] = self.vertex[self.s1[i]] = v
                i = self.s2[self.s1[i]]
                if i == start:
                    break
                if self.vertex[i] != -1:
                    raise AssertionError("vertex rotation failed to close")
            self.rotations.append(cycle)

    def end(self, i: int) -> tuple[Any, int]:
        """(edge id, intrinsic end of that edge) at flag i."""
        f, j, t = self.flags[i]
        eid, d = self.faces[f][j]
        return eid, t if d == 1 else 1 - t

    def flag(self, f: int, j: int, end: int) -> int:
        """The flag of slot j of face f at the given intrinsic edge end."""
        return self.index[(f, j, end if self.faces[f][j][1] == 1 else 1 - end)]

    def connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for nb in (self.s0[i], self.s1[i], self.s2[i]):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.flags)

    def orientable(self) -> bool:
        """Two-color flags so that every involution swaps colors."""
        n = len(self.flags)
        color = [-1] * n
        for start in range(n):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                i = stack.pop()
                for g in (self.s0, self.s1, self.s2):
                    nb = g[i]
                    if color[nb] == -1:
                        color[nb] = 1 - color[i]
                        stack.append(nb)
                    elif color[nb] == color[i]:
                        return False
        return True


@dataclass(frozen=True)
class SurfaceComplex:
    """A validated polygonal complex on a closed surface.

    Construction performs full validation: edge slots pair up, face
    boundaries are closed walks, the vertex set matches the corner orbits
    (so vertex links are single cycles), the complex is connected, the Euler
    characteristic matches the declared genus and orientability, and the
    declared orientability agrees with orientation propagation.  Instances
    are immutable.
    """

    orientable: bool
    genus: int
    vertices: tuple[VertexId, ...]
    edges: tuple[Edge, ...]
    faces: tuple[tuple[Slot, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self,
            "edges",
            tuple(e if isinstance(e, Edge) else Edge(*e) for e in self.edges),
        )
        object.__setattr__(
            self,
            "faces",
            tuple(tuple((eid, d) for eid, d in face) for face in self.faces),
        )
        _validate(self)

    @property
    def chi(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def edge_by_id(self, eid: Any) -> Edge:
        return self._edge_index[eid]  # populated by _validate

    def flag_map(self) -> _FlagMap:
        return self._flag_map  # built once by _validate

    def walk_ends(self, slot: Slot) -> tuple[VertexId, VertexId]:
        """(tail, head) of a directed slot."""
        u, v = self.edge_by_id(slot[0]).ends
        return (u, v) if slot[1] == 1 else (v, u)

    def face_sizes(self) -> list[int]:
        return sorted(len(face) for face in self.faces)

    def vertex_degrees(self) -> dict[VertexId, int]:
        deg: dict[VertexId, int] = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e.ends[0]] += 1
            deg[e.ends[1]] += 1
        return deg


def _validate(c: SurfaceComplex) -> None:
    if len(set(c.vertices)) != len(c.vertices):
        raise SurfaceError("duplicate vertex ids")
    ids = [e.id for e in c.edges]
    if len(set(ids)) != len(ids):
        raise SurfaceError("duplicate edge ids")
    vset = set(c.vertices)
    index = {}
    for e in c.edges:
        for v in e.ends:
            if v not in vset:
                raise SurfaceError(f"edge {e.id!r} references unknown vertex {v!r}")
        index[e.id] = e
    object.__setattr__(c, "_edge_index", index)

    if not c.faces:
        raise SurfaceError("complex has no faces")
    for f, face in enumerate(c.faces):
        if not face:
            raise SurfaceError(f"face {f} is empty")
        for eid, d in face:
            if eid not in index:
                raise SurfaceError(f"face {f} references unknown edge {eid!r}")
            if d not in (1, -1):
                raise SurfaceError(f"face {f}: direction must be +1 or -1, got {d!r}")

    # Slot pairing (exactly two per edge) is enforced by the flag map.
    fm = _FlagMap(c.faces)
    object.__setattr__(c, "_flag_map", fm)

    for f, face in enumerate(c.faces):
        for j in range(len(face)):
            head = c.walk_ends(face[j])[1]
            tail = c.walk_ends(face[(j + 1) % len(face)])[0]
            if head != tail:
                raise SurfaceError(
                    f"face {f} is not a closed walk at slot {j}: "
                    f"{head!r} != {tail!r}"
                )

    if not fm.connected():
        raise SurfaceError("complex is not connected")

    n_orbits = len(fm.rotations)
    if n_orbits != len(c.vertices):
        raise SurfaceError(
            f"corner orbits give {n_orbits} vertices but {len(c.vertices)} are declared "
            f"(pinched or isolated vertex)"
        )

    floor = 0 if c.orientable else 1
    if c.genus < floor:
        raise SurfaceError(f"genus {c.genus} below minimum for this orientability")
    expect = _genus_chi(c.genus, c.orientable)
    if c.chi != expect:
        raise SurfaceError(
            f"Euler characteristic {c.chi} does not match declared "
            f"{'orientable' if c.orientable else 'non-orientable'} genus {c.genus} "
            f"(expected {expect})"
        )

    if fm.orientable() != c.orientable:
        raise SurfaceError(
            "declared orientability disagrees with orientation propagation"
        )


def polygon_surface(word: Sequence[Slot]) -> SurfaceComplex:
    """Close up a single polygon whose boundary word identifies its sides.

    ``word`` lists the boundary as (label, direction) pairs; each label must
    occur exactly twice.  Vertices are recovered from the corner orbits, and
    genus and orientability are inferred from the result.
    """
    word = [(lab, d) for lab, d in word]
    for _, d in word:
        if d not in (1, -1):
            raise SurfaceError("directions must be +1 or -1")
    faces = [word]
    fm = _FlagMap(faces)
    n_orbits = len(fm.rotations)

    edges = []
    seen = set()
    for lab, _ in word:
        if lab in seen:
            continue
        seen.add(lab)
        f, j = fm.slots_of[lab][0]
        edges.append(Edge(lab, tuple(fm.vertex[fm.flag(f, j, end)] for end in (0, 1))))

    orientable = fm.orientable()
    chi = n_orbits - len(edges) + 1
    if orientable:
        if chi % 2:
            raise SurfaceError("orientable gluing produced odd Euler characteristic")
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    return SurfaceComplex(
        orientable=orientable,
        genus=genus,
        vertices=tuple(range(n_orbits)),
        edges=tuple(edges),
        faces=(tuple(word),),
    )


def fundamental_polygon(genus: int, orientable: bool) -> SurfaceComplex:
    """Minimal one-face complex for the closed hyperbolic surface.

    Orientable genus g (g >= 2): the 4g-gon with opposite sides identified
    (boundary word a1 ... a2g a1^-1 ... a2g^-1), giving one vertex, 2g edges,
    one face — the {4g,4g} tessellation.  Non-orientable genus g (g >= 3):
    the 2g-gon with word a1 a1 a2 a2 ... ag ag, giving one vertex, g edges,
    one face — the {2g,2g} tessellation.
    """
    _check_genus(genus, orientable)
    if orientable:
        word = [(i, 1) for i in range(2 * genus)] + [(i, -1) for i in range(2 * genus)]
    else:
        word = [(i, 1) for i in range(genus) for _ in range(2)]
    c = polygon_surface(word)
    if c.genus != genus or c.orientable != orientable:
        raise AssertionError("fundamental polygon gluing produced the wrong surface")
    return c


def _counts_from_chi(p: int, q: int, chi: int) -> tuple[int, int, int] | None:
    """(F, E, V) of {p,q} on a surface of characteristic chi, or None."""
    RegularSig(p, q)
    if chi >= 0:
        raise ValueError(f"hyperbolic surfaces have negative characteristic, got {chi}")
    D = p * q - 2 * p - 2 * q
    nums = (-2 * chi * q, -chi * p * q, -2 * chi * p)
    counts = []
    for num in nums:
        quo, rem = divmod(num, D)
        if rem or quo <= 0:
            return None
        counts.append(quo)
    return tuple(counts)


def regular_counts(
    p: int, q: int, genus: int, orientable: bool
) -> tuple[int, int, int] | None:
    """(F, E, V) of the {p,q} tessellation on the given surface, or None.

    With D = pq - 2p - 2q (> 0 by hyperbolicity) and chi the Euler
    characteristic: F = -2 chi q / D, E = -chi p q / D, V = -2 chi p / D.
    Returns None when any of the three is not a positive integer — the
    tessellation does not exist on that surface.  When counts are returned
    they satisfy qV = 2E = pF and V - E + F = chi exactly.
    """
    return _counts_from_chi(p, q, _check_genus(genus, orientable))


def dual(c: SurfaceComplex) -> SurfaceComplex:
    """Swap faces and vertices: incenters become vertices, vertex links faces.

    The dual reuses the source edge ids; its vertex i is source face i, and
    its faces are the edge cycles around the source vertices.  Euler
    characteristic, orientability and genus carry over.
    """
    fm = c.flag_map()

    # Map each source vertex to its rotation so dual faces follow the
    # declared vertex order.
    rotation_of: dict[Any, int] = {}
    for i in range(len(fm.flags)):
        eid, end = fm.end(i)
        rotation_of.setdefault(c.edge_by_id(eid).ends[end], fm.vertex[i])

    dual_faces = []
    for v in c.vertices:
        cyc = fm.rotations[rotation_of[v]]
        walk: list[Slot] = []
        for i in cyc[:1] + cyc[:0:-1]:  # the rotation, walked backwards
            f, j, _ = fm.flags[i]
            eid = c.faces[f][j][0]
            walk.append((eid, 1 if (f, j) == fm.slots_of[eid][0] else -1))
        dual_faces.append(tuple(walk))

    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=tuple(range(len(c.faces))),
        edges=tuple(Edge(e.id, fm.edge_faces[e.id]) for e in c.edges),
        faces=tuple(dual_faces),
    )


def _certificate(c: SurfaceComplex) -> tuple:
    """Canonical encoding of the flag structure, invariant under relabeling."""
    fm = c.flag_map()
    n = len(fm.flags)
    gens = (fm.s0, fm.s1, fm.s2)
    best = None
    for start in range(n):
        order = [-1] * n
        order[start] = 0
        queue = [start]
        nxt = 1
        for i in queue:
            for g in gens:
                nb = g[i]
                if order[nb] == -1:
                    order[nb] = nxt
                    nxt += 1
                    queue.append(nb)
        by_label = sorted(range(n), key=order.__getitem__)
        enc = tuple((order[fm.s0[i]], order[fm.s1[i]], order[fm.s2[i]]) for i in by_label)
        if best is None or enc < best:
            best = enc
    return (n, best)


def isomorphic(a: SurfaceComplex, b: SurfaceComplex) -> bool:
    """Combinatorial-map isomorphism (up to any relabeling of cells)."""
    return _certificate(a) == _certificate(b)


def serialize(c: SurfaceComplex) -> dict:
    """Plain-JSON document for a complex; inverse of :func:`deserialize`."""
    return {
        "orientable": c.orientable,
        "genus": c.genus,
        "vertices": list(c.vertices),
        "edges": [{"id": e.id, "ends": list(e.ends)} for e in c.edges],
        "faces": [[{"edge": eid, "dir": d} for eid, d in face] for face in c.faces],
    }


def _require_id(value: Any, where: str) -> None:
    """Vertex and edge ids are dictionary keys, so they must be hashable."""
    try:
        hash(value)
    except TypeError:
        raise SurfaceError(f"{where} must be a scalar id, got {value!r}") from None


def deserialize(doc: dict | str) -> SurfaceComplex:
    """Parse and fully validate a complex document.

    Accepts a dict or a JSON string.  Raises :class:`SurfaceError` naming the
    first missing or malformed key; structural violations (open surface,
    characteristic mismatch, ...) surface as :class:`SurfaceError` too.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SurfaceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SurfaceError("complex document must be a JSON object")
    for key in ("orientable", "genus", "vertices", "edges", "faces"):
        if key not in doc:
            raise SurfaceError(f"missing required key: {key!r}")
    if not isinstance(doc["orientable"], bool):
        raise SurfaceError("key 'orientable' must be a boolean")
    if not isinstance(doc["genus"], int) or isinstance(doc["genus"], bool):
        raise SurfaceError("key 'genus' must be an integer")
    for key in ("vertices", "edges", "faces"):
        if not isinstance(doc[key], (list, tuple)):
            raise SurfaceError(f"key {key!r} must be a list")
    for pos, v in enumerate(doc["vertices"]):
        _require_id(v, f"vertices[{pos}]")
    edges = []
    for pos, rec in enumerate(doc["edges"]):
        if not isinstance(rec, dict) or "id" not in rec or "ends" not in rec:
            raise SurfaceError(f"edges[{pos}] must be an object with 'id' and 'ends'")
        if not isinstance(rec["ends"], (list, tuple)) or len(rec["ends"]) != 2:
            raise SurfaceError(f"edges[{pos}].ends must be a pair")
        _require_id(rec["id"], f"edges[{pos}].id")
        for end in rec["ends"]:
            _require_id(end, f"edges[{pos}].ends")
        edges.append(Edge(rec["id"], tuple(rec["ends"])))
    faces = []
    for fpos, face in enumerate(doc["faces"]):
        if not isinstance(face, (list, tuple)):
            raise SurfaceError(f"faces[{fpos}] must be a list of slots")
        slots = []
        for spos, rec in enumerate(face):
            if not isinstance(rec, dict) or "edge" not in rec or "dir" not in rec:
                raise SurfaceError(
                    f"faces[{fpos}][{spos}] must be an object with 'edge' and 'dir'"
                )
            _require_id(rec["edge"], f"faces[{fpos}][{spos}].edge")
            slots.append((rec["edge"], rec["dir"]))
        faces.append(tuple(slots))
    return SurfaceComplex(
        orientable=doc["orientable"],
        genus=doc["genus"],
        vertices=tuple(doc["vertices"]),
        edges=tuple(edges),
        faces=tuple(faces),
    )
