"""Combinatorial closed surfaces as polygonal complexes.

A :class:`SurfaceComplex` is a polygonal cell structure on a closed surface:
faces are cyclic sequences of directed edge slots, every edge is shared by
exactly two slots, and vertices are the corner identifications.  This is a
combinatorial map, so derived subdivisions can be built by corner traversal
without any geometric embedding.

Fundamental polygons provide the explicit instances: the 4g-gon with opposite
sides identified (orientable genus g) and the 2g-gon with the a1 a1 a2 a2 ...
identification (non-orientable genus g).  They are the only source complexes
the pipeline builds; no triangle-group quotients are constructed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Any, NamedTuple, Sequence

from .hypgeo import _check_genus, _genus_chi, _polygon_sides

__all__ = [
    "SurfaceError",
    "Edge",
    "SurfaceComplex",
    "fundamental_polygon",
    "isomorphic",
    "serialize",
    "deserialize",
]

VertexId = Any
#: A directed appearance of an edge on a face boundary: (edge id, +1 or -1).
Slot = tuple[Any, int]


class SurfaceError(ValueError):
    """A document or complex violates the closed-surface contract."""


class Edge(NamedTuple):
    """An undirected edge with an intrinsic end order (ends[0] -> ends[1])."""

    id: Any
    ends: tuple[VertexId, VertexId]


class _FlagMap:
    """Flag structure of a face list: one flag per (face, slot, end).

    Flag ids are computed, not looked up: the flag at the tail (t = 0) or
    head (t = 1) of slot j as face f walks it is ``2 * (base[f] + j) + t``,
    where ``base[f]`` numbers the first slot of face f, so flag i lies on
    face ``face[i >> 1]``.  The involutions are

    * ``sigma0``: swap the two ends of one slot, ``i ^ 1``,
    * ``sigma1``: step to the adjacent slot-end across a face corner,
    * ``sigma2``: cross to the other slot of the same edge, staying at the
      same intrinsic end of the edge; t flips when the slots disagree.

    ``s1`` and ``s2`` hold sigma1 and sigma2 as arrays; sigma0 needs none.

    Vertices of the complex are the orbits of <sigma1, sigma2>; faces are the
    orbits of <sigma0, sigma1>; edges are the orbits of <sigma0, sigma2>.
    Only the face list and the slot pairing are needed, never the vertex ids,
    which lets constructors recover vertices from the gluing.

    The map reads the slots into per-slot arrays (``face``, ``edge`` and
    ``rev``, which runs its edge backwards) and checks those arrays whole;
    one loop over the slots pairs each with the other slot of its edge and
    writes sigma2 on the pair's four flags, and one walk of psi = sigma2
    sigma1 from each flag no earlier walk reached lists the rotations.  A
    face list it cannot read (an empty face, a malformed slot, an
    unhashable edge id, a direction other than the int +1 or -1) is
    rejected with an unnamed :class:`SurfaceError`, which validation
    replaces by the first fault in face and slot order; one it can read is
    rejected naming the first edge without exactly two slots.

    :meth:`end` and :meth:`flag` translate to and from the intrinsic end of
    the edge through ``edge`` and ``rev``: validation names an open walk's
    vertices with :meth:`end`, the derivations find the flag at an edge end
    with :meth:`flag`.  :meth:`sweep` two-colours the flags.  ``rotations``
    holds one cycle of psi per vertex, in order of each vertex's first flag
    and starting at it, so its length is the vertex's degree; ``vertex``
    maps every flag to its cycle; ``first`` maps an edge id to the tail
    flag of its first slot, and ``edge_faces`` to the faces of both slots.
    Validation never reads edge_faces, so it is built on first read."""

    def __init__(self, faces: Sequence[Sequence[Slot]]):
        self.faces = faces
        sizes = [len(face) for face in faces]
        self.base = base = list(accumulate(sizes, initial=0))
        self.face = [f for f, size in enumerate(sizes) for _ in range(size)]
        n = 2 * base[-1]
        tails = range(0, n, 2)
        try:
            self.edge = edge = [eid for face in faces for eid, _ in face]
            dirs = [d for face in faces for _, d in face]
        except (TypeError, ValueError):  # a slot that is not a pair
            dirs = None
        if (
            dirs is None
            or 0 in sizes
            or not {*map(type, dirs)} <= {int}
            or dirs.count(1) + dirs.count(-1) != len(dirs)
        ):
            raise SurfaceError("unreadable face list")
        self.rev = rev = [d != 1 for d in dirs]

        # One pass pairs each later slot of an edge with its first slot
        # (tail flags; keys in order of first appearance) and writes sigma2
        # on the four flags of the pair: the flags at one intrinsic end.
        self.first = first = {}
        add = first.setdefault
        self.s2 = s2 = [-1] * n
        try:
            for i, eid, r in zip(tails, edge, rev):
                j = add(eid, i)
                if j != i:
                    x = r ^ rev[j >> 1]  # the slots run the edge opposite ways
                    s2[i] = j + x
                    s2[j] = i + x
                    s2[i + 1] = j + 1 - x
                    s2[j + 1] = i + 1 - x
        except TypeError:  # an unhashable edge id
            raise SurfaceError("unreadable face list") from None
        # Two slots per edge: E = slots / 2 and every slot has a partner (an
        # edge in three slots or more leaves another in one, unpartnered).
        if 2 * len(first) != len(edge) or -1 in s2:
            for eid, count in Counter(edge).items():  # name the first bad edge
                if count < 2:
                    raise SurfaceError(
                        f"open surface: edge {eid!r} appears in {count} face slot(s), need 2"
                    )
                if count > 2:
                    raise SurfaceError(
                        f"edge {eid!r} appears in {count} face slots; a surface allows 2"
                    )

        self.s1 = s1 = [0] * n
        s1[0::2] = range(-1, n - 1, 2)
        s1[1::2] = range(2, n + 1, 2)
        for a, b in zip(base, base[1:]):  # each face's last head meets its first tail
            s1[2 * a], s1[2 * b - 1] = 2 * b - 1, 2 * a

        # Each rotation starts at the first flag no earlier one reached and
        # steps by psi = s2 after s1, marking both flags of every corner.
        self.vertex = vertex = [-1] * n
        self.rotations = rotations = []
        start = reached = 0
        while reached < n:
            start = vertex.index(-1, start)
            k, rotation, i = len(rotations), [], start
            while True:
                rotation.append(i)
                j = s1[i]
                vertex[i] = vertex[j] = k
                i = s2[j]
                if i == start:
                    break
            rotations.append(rotation)
            reached += 2 * len(rotation)

    @cached_property
    def edge_faces(self) -> dict[Any, tuple[int, int]]:
        face, s2 = self.face, self.s2
        return {eid: (face[i >> 1], face[s2[i] >> 1]) for eid, i in self.first.items()}

    def end(self, i: int) -> tuple[Any, int]:
        """(edge id, intrinsic end of that edge) at flag i."""
        return self.edge[i >> 1], (i & 1) ^ self.rev[i >> 1]

    def flag(self, i: int, end: int) -> int:
        """The flag on the slot of flag i at the given intrinsic edge end."""
        return (i & ~1) + (end ^ self.rev[i >> 1])

    def sweep(self) -> tuple[bool, bool]:
        """(connected, orientable) from one sweep from flag 0 that two-colours
        the flags so that every involution swaps colours.  Flag i of face f
        takes colour ``(i & 1) ^ colour[f]``, which sigma0 and sigma1 always
        swap, so the sweep colours faces: s2 from a tail flag i to face g
        forces ``colour[g] = colour[f] ^ 1 ^ (s2[i] & 1)``."""
        s2, face, base = self.s2, self.face, self.base
        colour = [-1] * len(self.faces)
        colour[0] = 0
        stack = [0]
        orientable = True
        while stack:
            f = stack.pop()
            flip = colour[f] ^ 1
            for j in s2[2 * base[f]:2 * base[f + 1]:2]:  # s2 of f's tail flags
                g, want = face[j >> 1], flip ^ (j & 1)
                if colour[g] == -1:
                    colour[g] = want
                    stack.append(g)
                elif colour[g] != want:
                    orientable = False
        return -1 not in colour, orientable


@dataclass(frozen=True)
class SurfaceComplex:
    """A validated polygonal complex on a closed surface.

    Construction performs full validation: every declared edge appears in
    exactly two face slots, face boundaries are closed walks, the complex is
    connected, each declared vertex carries exactly one corner orbit (so
    vertex links are single cycles), the Euler characteristic matches the declared genus and
    orientability, and the declared orientability agrees with orientation
    propagation.  Edges may be given as (id, ends) pairs; they are stored as
    :class:`Edge` records with tuple ends, and faces as tuples of slot
    tuples.  Instances are immutable.
    """

    orientable: bool
    genus: int
    vertices: tuple[VertexId, ...]
    edges: tuple[Edge, ...]
    faces: tuple[tuple[Slot, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        edges = tuple(self.edges)
        # Edge records with tuple ends, as every derivation builds, are kept.
        if not (
            {*map(type, edges)} <= {Edge} and {*map(type, map(itemgetter(1), edges))} <= {tuple}
        ):
            edges = tuple(map(_as_edge, edges))
        object.__setattr__(self, "edges", edges)
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
        return self.edge_by_id(slot[0]).ends[::slot[1]]

    def vertex_degrees(self) -> dict[VertexId, int]:
        """Declared edge ends at each vertex (a loop counts twice), in vertex
        order; read once by _validate off the vertex's rotation, whose length
        is that count since every declared edge has two face slots."""
        return dict(self._degrees)

    @cached_property
    def trivalence_fault(self) -> str | None:
        """The first vertex whose degree is not 3, else the first loop, as a
        reason; None when the complex is tri-valent without loops.  Read
        off the degrees validation stored, once per complex: both
        colourings and their schedules name this fault first."""
        for v, d in self._degrees.items():
            if d != 3:
                return f"vertex {v!r} has degree {d}, need 3"
        for e in self.edges:
            if e.ends[0] == e.ends[1]:
                return f"edge {e.id!r} is a loop"
        return None


def _as_edge(e) -> Edge:
    """An (id, ends) pair as an Edge with tuple ends; one that is kept as is."""
    try:
        eid, ends = e
        return e if type(e) is Edge and type(ends) is tuple else Edge(eid, tuple(ends))
    except (TypeError, ValueError):
        raise SurfaceError(f"edge {e!r} must be an (id, ends) pair") from None


def _hashable(value: Any) -> bool:
    """Whether the value can be a dictionary key (an id must be)."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _slot_fault(faces, index) -> str | None:
    """The first fault of the face list in face and slot order, or None: an
    empty face, a slot that is not an (edge id, direction) pair, an edge id
    that is unhashable or missing from ``index`` (the declared edges), or a
    direction other than the int +1 or -1."""
    for f, face in enumerate(faces):
        if not face:
            return f"face {f} is empty"
        for j, slot in enumerate(face):
            try:
                eid, d = slot
            except (TypeError, ValueError):
                return f"face {f}: slot {j} must be an (edge id, direction) pair, got {slot!r}"
            if not _hashable(eid):
                return f"face {f}: slot {j} has unhashable edge id {eid!r}"
            if eid not in index:
                return f"face {f} references unknown edge {eid!r}"
            if type(d) is not int or d not in (1, -1):
                return f"face {f}: direction must be +1 or -1, got {d!r}"
    return None


def _validate(c: SurfaceComplex) -> None:
    if type(c.orientable) is not bool:
        raise SurfaceError(f"orientable must be a boolean, got {c.orientable!r}")
    if type(c.genus) is not int:
        raise SurfaceError(f"genus must be an integer, got {c.genus!r}")
    try:
        vertices = set(c.vertices)
    except TypeError:
        v = next(v for v in c.vertices if not _hashable(v))
        raise SurfaceError(f"vertex {v!r} must be a hashable id") from None
    if len(vertices) != len(c.vertices):
        raise SurfaceError("duplicate vertex ids")
    try:
        index = {e.id: e for e in c.edges}
    except TypeError:
        eid = next(e.id for e in c.edges if not _hashable(e.id))
        raise SurfaceError(f"edge id {eid!r} must be hashable") from None
    if len(index) != len(c.edges):
        raise SurfaceError("duplicate edge ids")
    ends = [e.ends for e in c.edges]
    try:
        valid = {*map(len, ends)} <= {2} and vertices.issuperset(chain.from_iterable(ends))
    except TypeError:  # an unhashable end, which no vertex can be
        valid = False
    if not valid:
        for e in c.edges:
            if len(e.ends) != 2:
                raise SurfaceError(f"edge {e.id!r}: ends must be a pair")
            for v in e.ends:
                if not _hashable(v) or v not in vertices:
                    raise SurfaceError(f"edge {e.id!r} references unknown vertex {v!r}")
    object.__setattr__(c, "_edge_index", index)

    # Faces and slots are stored as tuples; one a derivation built as
    # tuples is kept, not copied.  The flag map reads and checks every slot
    # once; only when it rejects the faces are they walked again, with the
    # declared edges, for the first fault in face and slot order (an
    # undeclared edge in one slot leaves that edge with one slot).
    faces = tuple(map(tuple, c.faces))
    if not faces:
        raise SurfaceError("complex has no faces")
    try:
        if not {*map(type, chain.from_iterable(faces))} <= {tuple}:
            faces = tuple(tuple(map(tuple, face)) for face in faces)
        fm = _FlagMap(faces)
    except (TypeError, ValueError):
        fault = _slot_fault(faces, index)
        if fault is None:
            raise
        raise SurfaceError(fault) from None
    object.__setattr__(c, "faces", faces)
    first = fm.first
    if not first.keys() <= index.keys():  # an undeclared edge in two slots
        eid = next(eid for eid in first if eid not in index)
        raise SurfaceError(f"face {fm.face[first[eid] >> 1]} references unknown edge {eid!r}")
    if len(first) < len(index):
        eid = next(e.id for e in c.edges if e.id not in first)
        raise SurfaceError(f"open surface: edge {eid!r} appears in 0 face slot(s), need 2")
    object.__setattr__(c, "_flag_map", fm)

    # Every flag lies at one end of its edge and in one rotation.  The
    # faces are closed walks exactly when the edge ends in each rotation all
    # name one vertex, its owner; ends 0 and 1 of an edge's first slot are
    # flags i and i ^ 1, i its tail flag plus rev.
    rev, vertex = fm.rev, fm.vertex
    unset = object()
    owner = [unset] * len(fm.rotations)
    for i, (u, v) in zip(map(first.__getitem__, index), ends):
        i += rev[i >> 1]
        a, b = vertex[i], vertex[i ^ 1]
        if owner[a] is unset:
            owner[a] = u
        elif owner[a] != u:
            _raise_open_walk(c, fm)
        if owner[b] is unset:
            owner[b] = v
        elif owner[b] != v:
            _raise_open_walk(c, fm)

    connected, orientable = fm.sweep()
    if not connected:
        raise SurfaceError("complex is not connected")

    n_orbits = len(fm.rotations)
    if n_orbits != len(c.vertices):
        raise SurfaceError(
            f"corner orbits give {n_orbits} vertices but {len(c.vertices)} are declared "
            f"(pinched or isolated vertex)"
        )
    # There are as many orbits as vertices, so a vertex owning two
    # (pinched) leaves another one unowned.
    if len(set(owner)) != n_orbits:
        pinched = next(v for pos, v in enumerate(owner) if v in owner[:pos])
        raise SurfaceError(
            f"vertex {pinched!r} carries more than one corner orbit (pinched vertex)"
        )
    # Every declared edge has two slots, so each edge end at v is one corner
    # of v: v's degree is its rotation's length (keys in vertex order).
    degrees = dict.fromkeys(c.vertices, 0)
    degrees.update(zip(owner, map(len, fm.rotations)))
    object.__setattr__(c, "_degrees", degrees)

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

    if orientable != c.orientable:
        raise SurfaceError(
            "declared orientability disagrees with orientation propagation"
        )


def _raise_open_walk(c: SurfaceComplex, fm: _FlagMap) -> None:
    """Name the first slot whose head is not the tail after it: named[i] is
    the vertex at the edge end of flag i, its slot's tail (even i) or head
    (odd i); sigma1 takes a head flag to the tail after it."""
    index = c._edge_index
    named = [index[eid].ends[end] for eid, end in map(fm.end, range(len(fm.s1)))]
    heads = named[1::2]
    after = [named[i] for i in fm.s1[1::2]]
    k = next(k for k, (head, tail) in enumerate(zip(heads, after)) if head != tail)
    f = fm.face[k]
    raise SurfaceError(
        f"face {f} is not a closed walk at slot {k - fm.base[f]}: "
        f"{heads[k]!r} != {after[k]!r}"
    )


def fundamental_polygon(genus: int, orientable: bool) -> SurfaceComplex:
    """Minimal one-face complex for the closed hyperbolic surface.

    Orientable genus g (g >= 2): the 4g-gon with opposite sides identified
    (boundary word a1 ... a2g a1^-1 ... a2g^-1), giving one vertex, 2g edges,
    one face — the {4g,4g} tessellation.  Non-orientable genus g (g >= 3):
    the 2g-gon with word a1 a1 a2 a2 ... ag ag, giving one vertex, g edges,
    one face — the {2g,2g} tessellation.  Both are declared in closed form,
    each side label a loop at vertex 0, and validation proves them.
    """
    _check_genus(genus, orientable)
    labels = range(_polygon_sides(genus, orientable) // 2)
    if orientable:
        word = [(i, d) for d in (1, -1) for i in labels]
    else:
        word = [(i, 1) for i in labels for _ in range(2)]
    return SurfaceComplex(
        orientable=orientable,
        genus=genus,
        vertices=(0,),
        edges=tuple(map(Edge._make, zip(labels, repeat((0, 0))))),
        faces=(word,),
    )


def _certificate(c: SurfaceComplex) -> tuple:
    """Canonical encoding of the flag structure, invariant under relabeling."""
    fm = c.flag_map()
    n = len(fm.s1)
    sigma = s0, s1, s2 = [i ^ 1 for i in range(n)], fm.s1, fm.s2
    best = None
    for start in range(n):
        order = [-1] * n
        order[start] = 0
        queue = [start]
        nxt = 1
        for i in queue:
            for g in sigma:
                nb = g[i]
                if order[nb] == -1:
                    order[nb] = nxt
                    nxt += 1
                    queue.append(nb)
        by_label = sorted(range(n), key=order.__getitem__)
        enc = tuple((order[s0[i]], order[s1[i]], order[s2[i]]) for i in by_label)
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
    if not _hashable(value):
        raise SurfaceError(f"{where} must be a scalar id, got {value!r}")


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
            if not isinstance(rec["dir"], int) or isinstance(rec["dir"], bool):
                raise SurfaceError(
                    f"faces[{fpos}][{spos}].dir must be an integer, got {rec['dir']!r}"
                )
            slots.append((rec["edge"], rec["dir"]))
        faces.append(tuple(slots))
    return SurfaceComplex(
        orientable=doc["orientable"],
        genus=doc["genus"],
        vertices=tuple(doc["vertices"]),
        edges=tuple(edges),
        faces=tuple(faces),
    )
