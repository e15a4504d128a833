"""Derived tri-valent tessellations: corner clipping and incenter subdivision.

Both derivations turn a regular {p,q} tessellation into a tri-valent
semi-regular one.  Clipping cuts every vertex, replacing it with a small
q-gon and truncating each p-gon to a 2p-gon, giving vertex type [2p, 2p, q].
Incenter subdivision joins face incenters across edges and radii, producing
one 2p-gon per face, one 2q-gon per vertex and one quadrilateral per edge:
vertex type [2p, 2q, 4].

Each derivation exists twice: as a pure count transformer (arithmetic on the
Euler characteristic, valid for any surface the source tessellation fits) and
as an explicit combinatorial-map rewrite of a concrete complex.  The rewrites
are corner-level, so self-adjacent faces — unavoidable on one-faced
fundamental polygons — need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .hypgeo import SemiRegularSig
from .surface import Edge, SurfaceComplex, _counts_from_chi

__all__ = [
    "DerivedCounts",
    "clip_counts",
    "incenter_counts",
    "clip_complex",
    "incenter_complex",
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

    def face_census(self) -> dict[int, int]:
        """Number of faces of each size, keyed by polygon size."""
        m = self.signature.m
        out = {}
        for size in sorted(set(m)):
            corners = m.count(size) * self.n_v
            if corners % size:
                raise ValueError(
                    f"face count for size {size} is not integral: {corners}/{size}"
                )
            out[size] = corners // size
        return out


def _source_counts(p: int, q: int, chi: int) -> tuple[int, int, int]:
    got = _counts_from_chi(p, q, chi)
    if got is None:
        raise ValueError(
            f"{{{p},{q}}} has non-integral cell counts at chi={chi}; nothing to derive"
        )
    return got


def clip_counts(p: int, q: int, chi: int) -> DerivedCounts:
    """Counts after clipping {p,q} on a surface of characteristic chi.

    Faces: the F truncated 2p-gons plus the V new q-gons.  Every source edge
    survives and every corner cut adds one edge, so n_e = E + qV = (3/2)pF,
    and the derived vertices are the pF edge-ends: n_v = pF = 2E.
    """
    F, E, V = _source_counts(p, q, chi)
    return DerivedCounts(
        n_f=F + V,
        n_e=E + q * V,
        n_v=p * F,
        signature=SemiRegularSig((2 * p, 2 * p, q)),
    )


def incenter_counts(p: int, q: int, chi: int) -> DerivedCounts:
    """Counts after incenter subdivision of {p,q} at characteristic chi.

    One 2p-gon per source face, one 2q-gon per source vertex, one
    quadrilateral per source edge; n_e = 3pF and n_v = 2pF (two derived
    vertices per source edge-side).
    """
    F, E, V = _source_counts(p, q, chi)
    return DerivedCounts(
        n_f=F + E + V,
        n_e=3 * p * F,
        n_v=2 * p * F,
        signature=SemiRegularSig((2 * p, 2 * q, 4)),
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


def clip_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """Explicit clipping of a {p,q} complex.

    Derived vertices are the edge-ends of the source ("e{i}.0"/"e{i}.1"),
    edges are the surviving middle segment of each source edge ("A{i}") plus
    one cut per corner ("B{f}.{j}"), and faces are the truncated 2p-gons
    followed by the q-gons around the source vertices.
    """
    _require_pq(c, p, q)
    fm = c.flag_map()
    eindex = {e.id: i for i, e in enumerate(c.edges)}

    def half_edge(flag: int) -> str:
        eid, end = fm.end(flag)
        return f"e{eindex[eid]}.{end}"

    vertices = tuple(f"e{i}.{t}" for i in range(len(c.edges)) for t in (0, 1))
    edges = [
        Edge(f"A{i}", (f"e{i}.0", f"e{i}.1")) for i in range(len(c.edges))
    ]
    # One cut per corner (f, j): the sigma1 pair (f,j,1) ~ (f,j+1,0).
    for f, face in enumerate(c.faces):
        for j in range(len(face)):
            tail = fm.index[(f, j, 1)]
            edges.append(Edge(f"B{f}.{j}", (half_edge(tail), half_edge(fm.s1[tail]))))

    faces = []
    for f, face in enumerate(c.faces):
        walk = []
        for j, (eid, d) in enumerate(face):
            walk.append((f"A{eindex[eid]}", d))
            walk.append((f"B{f}.{j}", 1))
        faces.append(tuple(walk))

    for cyc in fm.rotations:
        walk = []
        for psi in cyc:
            f, j, t = fm.flags[psi]
            if t == 1:
                corner, d = (f, j), 1
            else:
                pf, pj, _ = fm.flags[fm.s1[psi]]  # sigma1 partner holds the corner key
                corner, d = (pf, pj), -1
            walk.append((f"B{corner[0]}.{corner[1]}", d))
        faces.append(tuple(walk))

    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=vertices,
        edges=tuple(edges),
        faces=tuple(faces),
    )


def incenter_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """Explicit incenter subdivision of a {p,q} complex.

    Derived vertices are the corner flags of the source ("f{face}.{slot}.{end}").
    Each flag carries three derived edges: "s0.{f}.{j}" along its slot (between
    the truncated face and the edge quadrilateral), "s1.{f}.{j}" across its
    corner (between the truncated face and the vertex 2q-gon) and
    "s2.{e}.{end}" across its source edge (between the 2q-gon and the
    quadrilateral).  Faces are listed as all 2p-gons, then all 2q-gons, then
    all quadrilaterals.
    """
    _require_pq(c, p, q)
    fm = c.flag_map()
    eindex = {e.id: i for i, e in enumerate(c.edges)}

    def vname(flag: int) -> str:
        f, j, t = fm.flags[flag]
        return f"f{f}.{j}.{t}"

    def s2_key(flag: int) -> tuple[str, int]:
        """Edge id of the sigma2 pair through `flag`, and the traversal
        direction when leaving from `flag`."""
        eid, end = fm.end(flag)
        first = fm.slots_of[eid][0] == fm.flags[flag][:2]
        return f"s2.{eindex[eid]}.{end}", 1 if first else -1

    vertices = tuple(vname(i) for i in range(len(fm.flags)))

    edges = []
    for f, face in enumerate(c.faces):
        for j in range(len(face)):
            edges.append(
                Edge(f"s0.{f}.{j}", (vname(fm.index[(f, j, 0)]), vname(fm.index[(f, j, 1)])))
            )
    for f, face in enumerate(c.faces):
        for j in range(len(face)):
            i = fm.index[(f, j, 1)]
            edges.append(Edge(f"s1.{f}.{j}", (vname(i), vname(fm.s1[i]))))
    for ei, e in enumerate(c.edges):
        for end in (0, 1):
            i = fm.flag(*fm.slots_of[e.id][0], end)
            edges.append(Edge(f"s2.{ei}.{end}", (vname(i), vname(fm.s2[i]))))

    def s1_step(flag: int) -> tuple[str, int]:
        """(edge id, dir) crossing the corner at `flag`."""
        f, j, t = fm.flags[flag]
        if t == 1:
            return f"s1.{f}.{j}", 1
        pf, pj, _ = fm.flags[fm.s1[flag]]
        return f"s1.{pf}.{pj}", -1

    faces = []
    for f, face in enumerate(c.faces):
        walk = []
        for j in range(len(face)):
            walk.append((f"s0.{f}.{j}", 1))
            walk.append((f"s1.{f}.{j}", 1))
        faces.append(tuple(walk))

    for cyc in fm.rotations:
        walk = []
        for psi in cyc:
            walk.append(s1_step(psi))
            walk.append(s2_key(fm.s1[psi]))
        faces.append(tuple(walk))

    for ei, e in enumerate(c.edges):
        (fa, ja), _ = fm.slots_of[e.id]
        i0 = fm.index[(fa, ja, 0)]
        walk = [(f"s0.{fa}.{ja}", 1)]
        key, d2 = s2_key(fm.s0[i0])
        walk.append((key, d2))
        across = fm.s2[fm.s0[i0]]
        fb, jb, tb = fm.flags[across]
        walk.append((f"s0.{fb}.{jb}", 1 if tb == 0 else -1))
        key, d2 = s2_key(fm.s0[across])
        walk.append((key, d2))
        if fm.s2[fm.s0[across]] != i0:
            raise AssertionError("edge quadrilateral failed to close")
        faces.append(tuple(walk))

    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=vertices,
        edges=tuple(edges),
        faces=tuple(faces),
    )


def semiregular_counts_direct(
    m: SemiRegularSig | Sequence[int],
    chi: int,
    integrality: Literal["size", "position"] = "size",
) -> DerivedCounts | None:
    """Cell counts of a tri-valent [m1,m2,m3] tiling directly from chi.

    Trivalence fixes everything: n_v = chi / (1/m1 + 1/m2 + 1/m3 - 1/2),
    n_e = 3 n_v / 2, and each vertex meets one face of each position, so
    faces of size s number (positions with m_i = s) * n_v / s.  Counts are
    returned only when integral, else None (the tiling does not exist on
    that surface under vertex-transitive counting).

    ``integrality`` picks the admission rule: "size" requires each
    face-size-class count to be integral (the rule the published
    non-orientable tables obey — e.g. [12,12,6] with n_v = 6 has a single
    hexagon and one dodecagon pair); "position" additionally requires
    n_v/m_i integral at every position, which matches the published
    orientable tables (it excludes [16,16,8] at chi = -2, where the size
    rule would not).
    """
    sig = m if isinstance(m, SemiRegularSig) else SemiRegularSig(m)
    if integrality not in ("size", "position"):
        raise ValueError(f"integrality must be 'size' or 'position', got {integrality!r}")
    if chi >= 0:
        raise ValueError(f"hyperbolic surfaces have negative characteristic, got {chi}")
    n_v = _admitted_vertex_count(sig.m, chi, integrality == "position")
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
