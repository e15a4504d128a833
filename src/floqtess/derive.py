"""Derived tri-valent tessellations: corner clipping and incenter subdivision.

Both derivations turn a regular {p,q} tessellation into a tri-valent
semi-regular one.  Clipping cuts every vertex, replacing it with a small
q-gon and truncating each p-gon to a 2p-gon, giving vertex type [2p, 2p, q].
Incenter subdivision joins face incenters across edges and radii, producing
one 2p-gon per face, one 2q-gon per vertex and one quadrilateral per edge:
vertex type [2p, 2q, 4].

Each derivation is an explicit rewrite read off the flags of a concrete
complex (see ``surface._FlagMap``: flag (f, j, t) is the computed id
``2 * (base[f] + j) + t``, and validating the result builds one flag map and
sweeps it once).  Cell counts come from the signature alone
(:func:`semiregular_counts_direct`); the tests check both derivations
against the closed-form count transformers of ``tests/reference.py``.  The
incenter subdivision has one vertex per flag, one edge per sigma_k pair and
one face per orbit of two involutions: <s0, s1> gives a 2p-gon, <s1, s2> a
2q-gon, <s0, s2> a quadrilateral.  Clipping merges each sigma2 pair into a
vertex, which shrinks every quadrilateral to the middle segment of its
source edge.  Each face is read straight off an orbit the source's flag
map already lists: a source face's flags in order (its <s0, s1> orbit), a
vertex rotation (every other flag of its <s1, s2> orbit) or an edge's four
flags (<s0, s2>), so self-adjacent faces (unavoidable on one-faced
fundamental polygons) need no special casing.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .hypgeo import SemiRegularSig, _Record, _as_semiregular, _check_genus, _polygon_sides
from .surface import Edge, SurfaceComplex, _FlagMap, fundamental_polygon

__all__ = [
    "DerivedCounts",
    "clip_complex",
    "incenter_complex",
    "polygon_route",
    "polygon_complex",
    "semiregular_counts_direct",
]


class DerivedCounts(_Record):
    """Cell counts of a tri-valent semi-regular tessellation."""

    n_f: int
    n_e: int
    n_v: int
    signature: SemiRegularSig
    _compared = _hashed = ("n_f", "n_e", "n_v", "signature")

    def __init__(self, n_f: int, n_e: int, n_v: int, signature: SemiRegularSig) -> None:
        self.__dict__.update(n_f=n_f, n_e=n_e, n_v=n_v, signature=signature)
        self.__post_init__()

    def __post_init__(self) -> None:
        if min(self.n_f, self.n_e, self.n_v) <= 0:
            raise ValueError("cell counts must be positive")
        if 2 * self.n_e != 3 * self.n_v:
            raise ValueError(
                f"not tri-valent: 2*{self.n_e} edges != 3*{self.n_v} vertices"
            )


def _require_pq(c: SurfaceComplex, p: int, q: int) -> None:
    sizes = set(len(face) for face in c.faces)
    if sizes != {p}:
        raise ValueError(f"source complex is not {{{p},{q}}}: face sizes {sorted(sizes)}")
    degrees = set(c.vertex_degrees().values())
    if degrees != {q}:
        raise ValueError(
            f"source complex is not {{{p},{q}}}: vertex degrees {sorted(degrees)}"
        )


def _pair_names(sigma_k: list[int], leads, names) -> list[tuple[str, int]]:
    """(derived edge, direction) of the sigma_k step from every flag: each
    pair's name, given once, with +1 on its leading flag in ``leads`` and
    -1 on that flag's partner."""
    table = [("", 0)] * len(sigma_k)
    for i, name in zip(leads, names):
        table[i] = (name, 1)
        table[sigma_k[i]] = (name, -1)
    return table


def _slot_labels(fm: _FlagMap) -> list[str]:
    """"{f}.{j}" of every slot, in the flag map's slot order."""
    return [f"{f}.{j}" for f, face in enumerate(fm.faces) for j in range(len(face))]


def _edge_end_flags(c: SurfaceComplex, fm: _FlagMap) -> list[int]:
    """The flags at end 0 and end 1 of each source edge's first slot, in
    edge order."""
    ends0 = [fm.flag(fm.first[e.id], 0) for e in c.edges]
    return [i for a in ends0 for i in (a, a ^ 1)]  # sigma0 of end 0 is end 1


def _face_flags(fm: _FlagMap, along_face: list) -> list[tuple]:
    """The entries of ``along_face`` on each source face's flags in order:
    the face's orbit of <s0, s1> from flag (f, 0, 0), steps s0 and s1
    taking turns."""
    base = fm.base
    return [tuple(along_face[2 * a:2 * b]) for a, b in zip(base, base[1:])]


def clip_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """Explicit clipping of a {p,q} complex.

    Derived vertices are the sigma2 pairs of source flags, the edge-ends of
    the source ("e{i}.{end}").  Edges are the surviving middle segment of
    each source edge ("A{i}"), then one cut per sigma1 pair, named after the
    corner (f, j) of its leading head flag ("B{f}.{j}").  Faces are the
    truncated 2p-gons, then the q-gons, read off the orbits the flag map
    lists: a source face's flags in order, where sigma0 crosses an A
    segment and sigma1 a cut, and a vertex rotation, whose sigma1 steps
    cross the cuts (sigma2 stays put).  Each step is read off a per-flag
    table of (edge, direction).
    """
    _require_pq(c, p, q)
    fm = c.flag_map()
    s1, s2 = fm.s1, fm.s2
    vertices = [f"e{i}.{t}" for i in range(len(c.edges)) for t in "01"]
    # The derived vertex of every flag, 2 * (source edge) + end: the sigma2
    # pair at that end of the edge.
    vertex = [0] * len(s1)
    for v, i in enumerate(_edge_end_flags(c, fm)):
        vertex[i] = vertex[s2[i]] = v
    segments = [f"A{i}" for i in range(len(c.edges))]
    cuts = range(1, len(s1), 2)  # the head flags, which lead sigma1
    cut_names = ["B" + label for label in _slot_labels(fm)]
    # leaving end 0 runs along the segment forwards
    along = [(segments[v >> 1], 1 - 2 * (v & 1)) for v in vertex]
    across = _pair_names(s1, cuts, cut_names)
    along[1::2] = across[1::2]  # a face's head flags step across a cut
    ends = [*zip(vertices[0::2], vertices[1::2])]
    ends += [(vertices[vertex[i]], vertices[vertex[s1[i]]]) for i in cuts]
    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=tuple(vertices),
        edges=tuple(map(Edge._make, zip(segments + cut_names, ends))),
        # each flag of a rotation crosses one cut by sigma1 (sigma2 stays put)
        faces=tuple(
            _face_flags(fm, along)
            + [tuple(map(across.__getitem__, rotation)) for rotation in fm.rotations]
        ),
    )


def incenter_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """Explicit incenter subdivision of a {p,q} complex.

    One derived vertex per source flag ("f{face}.{slot}.{end}") and one edge
    per sigma_k pair, named from its leading flag: "s0.{f}.{j}" along slot j
    of face f, "s1.{f}.{j}" across the corner after it, "s2.{e}.{end}"
    across that end of source edge e; s0 and s1 are listed by corner, s2 by
    source edge and end.  Faces are the 2p-gons and 2q-gons read off the
    source faces' flags and the vertex rotations, then the quadrilaterals:
    the (0, 2) orbit of the tail flag i of each source edge's first slot,
    i, s0(i), s2 s0(i) and s0 s2 s0(i).  Each step is read off a per-flag
    table of (edge, direction), filled once per pair.
    """
    _require_pq(c, p, q)
    fm = c.flag_map()
    s1, s2 = fm.s1, fm.s2
    firsts = [fm.first[e.id] for e in c.edges]
    labels = _slot_labels(fm)
    vname = [f"f{label}.{t}" for label in labels for t in "01"]
    # the tail flag of a slot leads its s0 pair, the head flag its s1 pair;
    # the flags on each edge's first slot lead s2
    heads, crossing = range(1, len(s1), 2), _edge_end_flags(c, fm)
    names = (
        ["s0." + label for label in labels],
        ["s1." + label for label in labels],
        [f"s2.{e}.{end}" for e in range(len(firsts)) for end in "01"],
    )
    t0 = [step for name in names[0] for step in ((name, 1), (name, -1))]
    t1 = _pair_names(s1, heads, names[1])
    t2 = _pair_names(s2, crossing, names[2])
    along = t0[:]
    along[1::2] = t1[1::2]  # a face's head flags step by s1
    corner = list(zip(t1, map(t2.__getitem__, s1)))  # s1, then s2 where it lands
    opposite = [s2[i ^ 1] for i in firsts]
    quads = [(t0[i], t2[i ^ 1], t0[j], t2[j ^ 1]) for i, j in zip(firsts, opposite)]
    ends = [*zip(vname[0::2], vname[1::2])]
    ends += [(vname[i], vname[s1[i]]) for i in heads]
    ends += [(vname[i], vname[s2[i]]) for i in crossing]
    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=tuple(vname),
        edges=tuple(map(Edge._make, zip(chain.from_iterable(names), ends))),
        faces=tuple(
            _face_flags(fm, along)
            + [tuple(chain.from_iterable(map(corner.__getitem__, r))) for r in fm.rotations]
            + quads
        ),
    )


def polygon_route(m, genus: int, orientable: bool) -> str | None:
    """How :func:`polygon_complex` builds m, with p the polygon's sides:
    "incenter" for [4,2p,2p], "clip" for [p,2p,2p], else None (no explicit
    construction here)."""
    p = _polygon_sides(genus, orientable)
    ms = tuple(sorted(m))
    if ms == tuple(sorted((4, 2 * p, 2 * p))):
        return "incenter"
    if ms == tuple(sorted((p, 2 * p, 2 * p))):
        return "clip"
    return None


def polygon_complex(route: str, genus: int, orientable: bool) -> SurfaceComplex:
    """The surface's fundamental polygon, read as the one-faced {p,p} with p
    its sides, clipped when ``route`` is "clip" and incenter-subdivided when
    it is "incenter"; any other route raises ValueError."""
    make = {"clip": clip_complex, "incenter": incenter_complex}.get(route)
    if make is None:
        raise ValueError(f"unknown explicit construction route {route!r}")
    p = _polygon_sides(genus, orientable)
    return make(fundamental_polygon(genus, orientable), p, p)


def semiregular_counts_direct(
    m: SemiRegularSig | Sequence[int], genus: int, orientable: bool
) -> DerivedCounts | None:
    """Cell counts of a tri-valent [m1,m2,m3] tiling on a closed surface.

    Trivalence fixes everything: n_v = chi / (1/m1 + 1/m2 + 1/m3 - 1/2),
    n_e = 3 n_v / 2, and each vertex meets one face of each position, so
    faces of size s number (positions with m_i = s) * n_v / s.  Counts are
    returned only when integral, else None (the tiling does not exist on
    that surface under vertex-transitive counting).

    The surface fixes the admission rule.  Non-orientable surfaces need
    each face-size-class count integral (the rule the published
    non-orientable tables obey, e.g. [12,12,6] with n_v = 6 has a single
    hexagon and one dodecagon pair); orientable ones also need n_v/m_i
    integral at every position, which matches the published orientable
    tables (it excludes [16,16,8] at genus 2, which the size rule would
    admit at the same chi = -2).
    """
    sig = _as_semiregular(m)
    chi = _check_genus(genus, orientable)
    n_v = _admitted_vertex_count(sig.m, chi, orientable)
    if n_v is None:
        return None
    # Euler: chi = n_v - 3 n_v / 2 + n_f.
    return DerivedCounts(n_f=chi + n_v // 2, n_e=3 * n_v // 2, n_v=n_v, signature=sig)


def _admitted_vertex_count(
    m: tuple[int, int, int], chi: int, position: bool
) -> int | None:
    """n_v of a tri-valent [m1,m2,m3] tiling at this chi < 0, or None if not admitted.

    In integers: with den = m1 m2 m3 - 2(m1 m2 + m2 m3 + m1 m3), the triple
    is hyperbolic iff den > 0 and n_v = 2|chi| m1 m2 m3 / den, which must be
    a positive even integer (n_e = 3 n_v / 2).  The position rule then needs
    m_i | n_v at every position, the size rule (multiplicity of s) * n_v
    divisible by s for each face size s.  Each skips one test: the face
    counts sum to n_f = chi + n_v/2, so n_v/m3 = chi + n_v/2 - n_v/m1 -
    n_v/m2 and the class of m1's size are integral once the others are.

    ``catalog.enumerate_signatures`` admits a row through it and
    ``floquet.code_params`` reads the row's n from it again.  Nothing is
    cached: most triples are tested once, a call takes under a microsecond,
    and a cache would keep an entry alive for each, for the garbage
    collector to sweep.
    """
    m1, m2, m3 = m
    prod = m1 * m2 * m3
    den = prod - 2 * (m1 * m2 + m2 * m3 + m1 * m3)
    if den <= 0:
        return None
    n_v, rem = divmod(-2 * chi * prod, den)
    if rem or n_v % 2:
        return None
    if position:
        return None if n_v % m1 or n_v % m2 else n_v
    for s in {*m} - {m1}:
        if m.count(s) * n_v % s:
            return None
    return n_v
