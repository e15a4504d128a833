"""Derived tri-valent tessellations: corner clipping and incenter subdivision.

Both derivations turn a regular {p,q} tessellation into a tri-valent
semi-regular one.  Clipping cuts every vertex, replacing it with a small
q-gon and truncating each p-gon to a 2p-gon, giving vertex type [2p, 2p, q].
Incenter subdivision joins face incenters across edges and radii, producing
one 2p-gon per face, one 2q-gon per vertex and one quadrilateral per edge:
vertex type [2p, 2q, 4].

Each derivation is an explicit rewrite read off the flags of a concrete
complex (see ``surface._FlagMap``: flag (f, j, t) is the computed id
``fm.id(f, j, t)``, and validating the result builds one flag map and sweeps
it once).  Cell counts come from the signature alone
(:func:`semiregular_counts_direct`); the tests check both derivations
against the closed-form count transformers of ``tests/reference.py``.  The
incenter subdivision has one vertex per flag, one edge per sigma_k pair and
one face per orbit of two involutions: <s0, s1> gives a 2p-gon, <s1, s2> a
2q-gon, <s0, s2> a quadrilateral.  Clipping merges each sigma2 pair into a
vertex, which shrinks every quadrilateral to the middle segment of its
source edge.  Faces are walks round these orbits, so self-adjacent faces
(unavoidable on one-faced fundamental polygons) need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .hypgeo import SemiRegularSig, _as_semiregular, _check_genus, _polygon_sides
from .surface import Edge, SurfaceComplex, _FlagMap, fundamental_polygon

__all__ = [
    "DerivedCounts",
    "clip_complex",
    "incenter_complex",
    "polygon_route",
    "polygon_complex",
    "semiregular_counts_direct",
]


@dataclass(frozen=True)
class DerivedCounts:
    """Cell counts of a tri-valent semi-regular tessellation."""

    n_f: int
    n_e: int
    n_v: int
    signature: SemiRegularSig

    def __post_init__(self) -> None:
        if min(self.n_f, self.n_e, self.n_v) <= 0:
            raise ValueError("cell counts must be positive")
        if 2 * self.n_e != 3 * self.n_v:
            raise ValueError(
                f"not tri-valent: 2*{self.n_e} edges != 3*{self.n_v} vertices"
            )

    @property
    def chi(self) -> int:
        return self.n_v - self.n_e + self.n_f


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


def _walks(fm: _FlagMap) -> list[tuple[int, tuple[int, int]]]:
    """(start, steps) of the (0, 1) walk round each source face from its flag
    (f, 0, 0), then of the (1, 2) walk round each vertex from its rotation."""
    return [(fm.id(f, 0, 0), (0, 1)) for f in range(len(fm.faces))] + [
        (rotation[0], (1, 2)) for rotation in fm.rotations
    ]


def clip_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """Explicit clipping of a {p,q} complex.

    Derived vertices are the sigma2 pairs of source flags, the edge-ends of
    the source ("e{i}.{end}").  Edges are the surviving middle segment of
    each source edge ("A{i}"), then one cut per sigma1 pair, named after the
    corner (f, j) of its leading head flag ("B{f}.{j}").  Faces are the
    truncated 2p-gons, then the q-gons: the walks of :func:`_walks`, where
    sigma0 crosses an A segment, sigma1 a cut, and sigma2 stays put; each
    step is read off a per-flag table of (edge, direction).
    """
    _require_pq(c, p, q)
    fm = c.flag_map()
    eindex = {e.id: i for i, e in enumerate(c.edges)}
    vertices = tuple(f"e{i}.{t}" for i in range(len(c.edges)) for t in (0, 1))
    segments = [f"A{i}" for i in range(len(c.edges))]
    # The derived vertex of every flag, 2 * (source edge) + end.
    vertex = [2 * eindex[eid] + end for eid, end in map(fm.end, range(len(fm.s0)))]
    cuts = range(1, len(fm.s0), 2)  # the head flags, which lead sigma1
    cut_names = ["B" + label for label in _slot_labels(fm)]
    table = (
        # leaving end 0 runs along the segment forwards
        [(segments[v >> 1], 1 - 2 * (v & 1)) for v in vertex],
        _pair_names(fm.s1, cuts, cut_names),
    )
    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=vertices,
        edges=tuple(Edge(a, (f"e{i}.0", f"e{i}.1")) for i, a in enumerate(segments))
        + tuple(
            Edge(name, (vertices[vertex[i]], vertices[vertex[fm.s1[i]]]))
            for i, name in zip(cuts, cut_names)
        ),
        faces=tuple(
            tuple(table[k][i] for k, i in fm.walk(start, steps) if k != 2)
            for start, steps in _walks(fm)
        ),
    )


def incenter_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """Explicit incenter subdivision of a {p,q} complex.

    One derived vertex per source flag ("f{face}.{slot}.{end}") and one edge
    per sigma_k pair, named from its leading flag: "s0.{f}.{j}" along slot j
    of face f, "s1.{f}.{j}" across the corner after it, "s2.{e}.{end}"
    across that end of source edge e; s0 and s1 are listed by corner, s2 by
    source edge and end.  Faces are the 2p-gons and 2q-gons of the walks of
    :func:`_walks`, then the quadrilaterals: the (0, 2) walk from the tail
    flag of each source edge's first slot.  Each step is read off a
    per-flag table of (edge, direction), filled once per pair.
    """
    _require_pq(c, p, q)
    fm = c.flag_map()
    firsts = [fm.first[e.id] for e in c.edges]
    labels = _slot_labels(fm)
    vname = [f"f{label}.{t}" for label in labels for t in (0, 1)]
    # flags with t = k lead s_k; the flags on each edge's first slot lead s2
    leading = (
        range(0, len(fm.s0), 2),
        range(1, len(fm.s0), 2),
        [fm.flag(i, end) for i in firsts for end in (0, 1)],
    )
    names = (
        ["s0." + label for label in labels],
        ["s1." + label for label in labels],
        [f"s2.{e}.{end}" for e in range(len(firsts)) for end in (0, 1)],
    )
    table = [_pair_names(fm.sigma[k], leading[k], names[k]) for k in (0, 1, 2)]
    quads = [(i, (0, 2)) for i in firsts]
    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=tuple(vname),
        edges=tuple(
            Edge(name, (vname[i], vname[fm.sigma[k][i]]))
            for k in (0, 1, 2)
            for i, name in zip(leading[k], names[k])
        ),
        faces=tuple(
            tuple(table[k][i] for k, i in fm.walk(start, steps))
            for start, steps in _walks(fm) + quads
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
    divisible by s for each face size s.
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
        if any(n_v % x for x in m):
            return None
    elif any(m.count(s) * n_v % s for s in set(m)):
        return None
    return n_v
