"""Polygonal complexes: gluing, validation, duals, counting, serialization."""

import hashlib
import json
import math
import random
from collections import Counter
from functools import reduce
from operator import getitem
from types import SimpleNamespace

import pytest

from floqtess import hypgeo, surface
from floqtess.cli import _parse_sig
from floqtess.derive import clip_complex, incenter_complex
from floqtess.hypgeo import RegularSig, SemiRegularSig, _check_genus, _genus_chi
from floqtess.surface import (
    Edge,
    SurfaceComplex,
    SurfaceError,
    deserialize,
    fundamental_polygon,
    serialize,
)
from helpers import face_sizes
from reference import (
    isomorphic,
    polygon_surface,
    reference_dual,
    regular_counts,
    surface_area,
    walk,
    walk_clip_complex,
    walk_incenter_complex,
)
from test_coloring import honeycomb_torus
from test_floquet import schedule_complexes


class TestFundamentalPolygon:
    def test_orientable_genus2(self):
        c = fundamental_polygon(2, True)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 4, 1)
        assert c.chi == -2
        assert c.orientable
        # One octagon face, one valence-8 vertex: the {8,8} cell structure.
        assert face_sizes(c) == [8]
        assert c.vertex_degrees()[c.vertices[0]] == 8

    def test_nonorientable_genus3(self):
        c = fundamental_polygon(3, False)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 3, 1)
        assert c.chi == -1
        assert not c.orientable
        assert face_sizes(c) == [6]

    @pytest.mark.parametrize("genus", range(2, 9))
    def test_orientable_family(self, genus):
        c = fundamental_polygon(genus, True)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 2 * genus, 1)
        assert c.chi == 2 - 2 * genus
        assert face_sizes(c) == [4 * genus]

    @pytest.mark.parametrize("genus", range(3, 10))
    def test_nonorientable_family(self, genus):
        c = fundamental_polygon(genus, False)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, genus, 1)
        assert c.chi == 2 - genus
        assert face_sizes(c) == [2 * genus]

    @pytest.mark.parametrize(
        "genus,orientable",
        [(g, True) for g in range(2, 13)] + [(g, False) for g in range(3, 13)],
    )
    def test_declaration_matches_gluing(self, genus, orientable):
        """The declared complex is the one the general gluing of the paper's
        boundary word finds: same vertices, edge ends, genus and orientation."""
        if orientable:  # a1 ... a2g a1^-1 ... a2g^-1
            word = [(i, 1) for i in range(2 * genus)] + [(i, -1) for i in range(2 * genus)]
        else:  # a1 a1 a2 a2 ... ag ag
            word = [(i // 2, 1) for i in range(2 * genus)]
        c = fundamental_polygon(genus, orientable)
        assert serialize(c) == serialize(polygon_surface(word))

    def test_genus_floors(self):
        with pytest.raises(ValueError):
            fundamental_polygon(1, True)
        with pytest.raises(ValueError):
            fundamental_polygon(2, False)


class TestPolygonSurface:
    def test_torus_commutator_word(self):
        c = polygon_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1)])
        assert c.orientable
        assert c.genus == 1
        assert c.chi == 0
        assert len(c.vertices) == 1

    def test_klein_bottle(self):
        c = polygon_surface([("a", 1), ("b", 1), ("a", 1), ("b", -1)])
        assert not c.orientable
        assert c.chi == 0
        assert c.genus == 2

    def test_projective_plane(self):
        c = polygon_surface([("a", 1), ("a", 1)])
        assert not c.orientable
        assert c.chi == 1
        assert c.genus == 1

    def test_sphere(self):
        c = polygon_surface([("a", 1), ("a", -1)])
        assert c.orientable
        assert c.chi == 2
        assert c.genus == 0
        assert len(c.vertices) == 2

    def test_unpaired_side_rejected(self):
        with pytest.raises(SurfaceError, match="open surface"):
            polygon_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1), ("c", 1)])

    def test_triple_side_rejected(self):
        with pytest.raises(SurfaceError, match="face slots"):
            polygon_surface([("a", 1), ("a", 1), ("a", -1), ("b", 1), ("b", -1)])


def _derived(genus, orientable, derive):
    base = fundamental_polygon(genus, orientable)
    if derive == "bare":
        return base
    p = (4 if orientable else 2) * genus
    return (clip_complex if derive == "clip" else incenter_complex)(base, p, p)


def corner(fm, i):
    """(face, slot, t) of flag i of flag map fm: the inverse of the flag id
    ``2 * (fm.base[f] + j) + t``."""
    f = fm.face[i >> 1]
    return f, (i >> 1) - fm.base[f], i & 1


class TestFlagMap:
    # sha256 of json.dumps(serialize(...)): pins vertex, edge and face order
    # and the walk direction of every face, of each complex and its dual.
    PINS = {
        (2, True, "bare"): ("51a7f7ea8c8698981f79cefe22cd0ceca7a2335436e5e48fdca7694ed4019ec4",
                            "b0e1c41720f0a5ba970f63caee5a8e0a4541a3b92ea6a6e889b17ed5e244fa1a"),
        (2, True, "clip"): ("c1af4b6f3f798cbf55054e3fd215461b022b0f6c6b79ce413725f309aa3404b3",
                            "656e665c632c531d66d0999a06e74b8833fda017d70e5c857ffbe7901cbabf6a"),
        (2, True, "incenter"): ("05b10c838053aa64da1e607494a490979ee0a91cddbf94942f3296339855c89e",
                                "b96725256c57877b627f851536ec9ffc3cc9d5c4bcc71bf594bdd25f6296f317"),
        (3, False, "bare"): ("0ed9df1a9fc501200e89ce8f1ca7d182c7e2ce107bb4916223ab6b57fdd955d9",
                             "0ed9df1a9fc501200e89ce8f1ca7d182c7e2ce107bb4916223ab6b57fdd955d9"),
        (3, False, "clip"): ("24b708ba7e53e36e1f58801471619b3b0e48f2bbec4c4e3bd57cd9c954430549",
                             "298e2b0f7a5299bf108401c022acf498a0c88493395db13cabbff010a5ad7635"),
        (3, False, "incenter"): ("eae3668895bc56f92a1a40b6539c531d404691d2eb31ae29fc9dae2b912d94b3",
                                 "209503e152a14648388e3efaaaa600fac840cd8b974b9541bf63bb923db12fc0"),
    }

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_serialization_pinned(self, key):
        c = _derived(*key)
        got = tuple(
            hashlib.sha256(json.dumps(serialize(x)).encode()).hexdigest()
            for x in (c, reference_dual(c))
        )
        assert got == self.PINS[key]

    @pytest.mark.parametrize("derive", ["clip", "incenter"])
    @pytest.mark.parametrize("genus,orientable", [(2, True), (3, True), (3, False), (4, False)])
    def test_rotations(self, genus, orientable, derive):
        c = _derived(genus, orientable, derive)
        fm = c.flag_map()
        assert len(fm.rotations) == len(c.vertices)
        degree = c.vertex_degrees()
        at = set()
        in_cycle = [0] * len(fm.s1)
        for k, cyc in enumerate(fm.rotations):
            eid, end = fm.end(cyc[0])
            v = c.edge_by_id(eid).ends[end]
            at.add(v)
            assert len(cyc) == degree[v]
            for pos, psi in enumerate(cyc):
                assert fm.s2[fm.s1[psi]] == cyc[(pos + 1) % len(cyc)]
                eid, end = fm.end(psi)
                assert c.edge_by_id(eid).ends[end] == v
                assert fm.vertex[psi] == fm.vertex[fm.s1[psi]] == k
                in_cycle[psi] += 1
        assert at == set(c.vertices)
        for i in range(len(fm.s1)):
            assert in_cycle[i] + in_cycle[fm.s1[i]] == 1

    @pytest.mark.parametrize("derive", ["bare", "clip", "incenter"])
    def test_end_and_flag_are_inverse(self, derive):
        c = _derived(3, False, derive)
        fm = c.flag_map()
        for i in range(len(fm.s1)):
            f, j, t = corner(fm, i)
            assert 2 * (fm.base[f] + j) + t == i
            eid, end = fm.end(i)
            assert eid == c.faces[f][j][0]
            assert fm.flag(i, end) == i
            assert fm.flag(i ^ 1, end) == i
            assert fm.end(fm.s2[i]) == (eid, end)
            assert fm.end(i ^ 1) == (eid, 1 - end)
        for eid, (f1, f2) in fm.edge_faces.items():
            assert [f for f, face in enumerate(c.faces) for e, _ in face if e == eid] == [f1, f2]

    @pytest.mark.parametrize("derive", ["bare", "clip", "incenter"])
    def test_leads_and_walk(self, derive):
        c = _derived(3, False, derive)
        fm = c.flag_map()
        # The flag of each sigma2 pair on the slot where its edge first
        # appears in the face list comes first (dual slots run from it);
        # fm.first lists the tail flag of that slot.
        first = {}
        for f, face in enumerate(c.faces):
            for j, (eid, _) in enumerate(face):
                first.setdefault(eid, (f, j))
        for i in range(len(fm.s1)):
            f, j, t = corner(fm, i)
            assert (fm.s2[i] > i) == (first[c.faces[f][j][0]] == (f, j))
        assert fm.first == {eid: 2 * (fm.base[f] + j) for eid, (f, j) in first.items()}
        # (0, 1) orbits are the faces, (1, 2) orbits the vertex rotations,
        # and (0, 2) orbits the four flags of one edge.
        for f, face in enumerate(c.faces):
            steps = list(walk(fm, 2 * fm.base[f], (0, 1)))
            assert steps == [
                (t, 2 * (fm.base[f] + j) + t) for j in range(len(face)) for t in (0, 1)
            ]
        for rotation in fm.rotations:
            steps = list(walk(fm, rotation[0], (1, 2)))
            assert [i for k, i in steps if k == 1] == rotation
            assert len(steps) == 2 * len(rotation)
            # Backwards from its first flag, the rotation is the (2, 1)
            # walk's sigma2 steps: the orbit the dual's faces read.
            steps = list(walk(fm, rotation[0], (2, 1)))
            assert [i for k, i in steps if k == 2] == [rotation[0], *rotation[:0:-1]]
        for i in range(len(fm.s1)):
            steps = list(walk(fm, i, (0, 2)))
            assert [k for k, _ in steps] == [0, 2, 0, 2]
            assert {fm.end(j)[0] for _, j in steps} == {fm.end(i)[0]}

    def test_built_once(self):
        c = _derived(2, True, "incenter")
        assert c.flag_map() is c.flag_map()

    @pytest.mark.parametrize("derive", ["bare", "clip", "incenter"])
    def test_validation_leaves_s0_and_edge_faces_unbuilt(self, derive):
        fm = _derived(3, False, derive).flag_map()
        assert "edge_faces" not in vars(fm)
        assert fm.edge_faces is fm.edge_faces


def reference_flag_map(faces):
    """The dict-based flag map that ``surface._FlagMap`` replaced, as an
    oracle: flags are listed in (face, slot, t) order, every involution is
    looked up by its tuple key, and connectivity and orientability come from
    a flag-by-flag sweep."""
    index, flags, slots_of = {}, [], {}
    for f, face in enumerate(faces):
        for j, (eid, _) in enumerate(face):
            slots_of.setdefault(eid, []).append((f, j))
            for t in (0, 1):
                index[(f, j, t)] = len(flags)
                flags.append((f, j, t))

    def end(i):
        f, j, t = flags[i]
        eid, d = faces[f][j]
        return eid, t if d == 1 else 1 - t

    n = len(flags)
    s0, s1, s2 = [0] * n, [0] * n, [0] * n
    for i, (f, j, t) in enumerate(flags):
        s0[i] = index[(f, j, 1 - t)]
        size = len(faces[f])
        s1[i] = index[(f, (j + 1) % size, 0)] if t else index[(f, (j - 1) % size, 1)]
        eid, e = end(i)
        a, b = slots_of[eid]
        g, k = b if a == (f, j) else a
        s2[i] = index[(g, k, e if faces[g][k][1] == 1 else 1 - e)]

    vertex, rotations = [-1] * n, []
    for start in range(n):
        if vertex[start] == -1:
            rotation, i = [start], s2[s1[start]]
            while i != start:
                rotation.append(i)
                i = s2[s1[i]]
            for i in rotation:
                vertex[i] = vertex[s1[i]] = len(rotations)
            rotations.append(rotation)

    color, orientable = [-1] * n, True
    color[0], stack = 0, [0]
    while stack:
        i = stack.pop()
        for nb in (s0[i], s1[i], s2[i]):
            if color[nb] == -1:
                color[nb] = 1 - color[i]
                stack.append(nb)
            elif color[nb] == color[i]:
                orientable = False
    return SimpleNamespace(
        flags=flags,
        end=end,
        s0=s0,
        s1=s1,
        s2=s2,
        rotations=rotations,
        vertex=vertex,
        edge_faces={eid: (a[0], b[0]) for eid, (a, b) in slots_of.items()},
        first={eid: a for eid, (a, _) in slots_of.items()},
        sweep=(-1 not in color, orientable),
    )


def _oracle_complexes():
    """Every incenter and clip complex of the code tables, then the torus."""
    out = {}
    for orientable, genera in ((True, range(2, 13)), (False, range(3, 13))):
        for g in genera:
            for derive in ("incenter", "clip"):
                out[f"{derive}-{'o' if orientable else 'n'}{g}"] = (g, orientable, derive)
    out["torus"] = None
    return out


def _random_faces(seed):
    """A random gluing: m edges, each on two slots with random directions,
    shuffled and cut into faces.  It may be disconnected or non-orientable."""
    rng = random.Random(seed)
    m = rng.randrange(1, 9)
    slots = [(f"e{k}", rng.choice((1, -1))) for k in range(m) for _ in (0, 1)]
    rng.shuffle(slots)
    cuts = sorted(rng.sample(range(1, 2 * m), rng.randrange(0, min(4, 2 * m - 1) + 1)))
    return [slots[a:b] for a, b in zip([0, *cuts], [*cuts, 2 * m])]


class TestFlagMapOracle:
    @staticmethod
    def assert_matches(fm, faces):
        ref = reference_flag_map(faces)
        assert ref.s0 == [i ^ 1 for i in range(len(fm.s1))]
        assert (fm.s1, fm.s2) == (ref.s1, ref.s2)
        assert fm.rotations == ref.rotations
        assert fm.vertex == ref.vertex
        assert list(fm.edge_faces.items()) == list(ref.edge_faces.items())
        assert fm.sweep() == ref.sweep
        assert [corner(fm, i) for i in range(len(fm.s1))] == ref.flags
        assert [fm.end(i) for i in range(len(fm.s1))] == list(map(ref.end, range(len(ref.flags))))
        assert fm.first == {eid: 2 * (fm.base[f] + j) for eid, (f, j) in ref.first.items()}

    @pytest.mark.parametrize("dualize", [False, True], ids=["complex", "dual"])
    @pytest.mark.parametrize("key", list(_oracle_complexes()))
    def test_matches_reference(self, key, dualize):
        spec = _oracle_complexes()[key]
        if spec is None:
            c = polygon_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1)])
        else:
            c = _derived(*spec)
        if dualize:
            c = reference_dual(c)
        self.assert_matches(c.flag_map(), c.faces)

    @pytest.mark.parametrize("key", [key for key, spec in _oracle_complexes().items() if spec])
    def test_walk_route_matches_reference(self, key):
        """The complexes the walk-based oracles derive have the same map."""
        genus, orientable, derive = _oracle_complexes()[key]
        p = (4 if orientable else 2) * genus
        make = walk_clip_complex if derive == "clip" else walk_incenter_complex
        c = make(fundamental_polygon(genus, orientable), p, p)
        self.assert_matches(c.flag_map(), c.faces)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_gluings_match_reference(self, seed):
        faces = _random_faces(seed)
        self.assert_matches(surface._FlagMap(faces), faces)

    def test_random_gluings_cover_every_sweep_outcome(self):
        outcomes = {reference_flag_map(_random_faces(seed)).sweep for seed in range(40)}
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _two_projective_planes(**changes):
    """Two disjoint projective planes as one complex, declared orientable
    genus 0 (chi = 2 matches): only connectivity and orientability fail."""
    doc = {
        "orientable": True,
        "genus": 0,
        "vertices": ("u", "v"),
        "edges": (Edge("a", ("u", "u")), Edge("b", ("v", "v"))),
        "faces": ((("a", 1), ("a", 1)), (("b", 1), ("b", 1))),
    }
    doc.update(changes)
    return doc


def _fields(c, **changes):
    """The fields of complex c, with some replaced."""
    doc = {
        "orientable": c.orientable,
        "genus": c.genus,
        "vertices": c.vertices,
        "edges": c.edges,
        "faces": c.faces,
    }
    doc.update(changes)
    return doc


def _octagon(**changes):
    return _fields(fundamental_polygon(2, True), **changes)


_WORD = fundamental_polygon(2, True).faces[0]  # 0 1 2 3 0^-1 1^-1 2^-1 3^-1


def _incenter_ends(eid, ends, **changes):
    """The orientable genus-2 incenter complex with edge ``eid``'s ends
    replaced by ``ends``."""
    c = incenter_complex(fundamental_polygon(2, True), 8, 8)
    edges = tuple(Edge(e.id, ends) if e.id == eid else e for e in c.edges)
    return _fields(c, edges=edges, **changes)


class TestValidationErrors:
    """Each check of ``_validate`` keeps its text and its place: every case
    breaks that check and a later one, and must get the earlier message."""

    CASES = {
        "edge-record": (  # a one-element record, and duplicate vertex ids
            _octagon(vertices=(0, 0), edges=((3,),) + _octagon()["edges"][1:]),
            "edge (3,) must be an (id, ends) pair",
        ),
        "unhashable-vertex": (
            _octagon(vertices=([0], 0, 0)),
            "vertex [0] must be a hashable id",
        ),
        "duplicate-vertex": (
            _octagon(vertices=(0, 0), edges=_octagon()["edges"] * 2),
            "duplicate vertex ids",
        ),
        "duplicate-edge": (
            _octagon(edges=(Edge(0, (0, 0)), Edge(0, (0, "x")))),
            "duplicate edge ids",
        ),
        "unhashable-edge-id": (
            _octagon(edges=(Edge([0], (0, 0)), Edge(0, (0, "x")), Edge(0, (0, 0)))),
            "edge id [0] must be hashable",
        ),
        "unknown-vertex": (
            _octagon(edges=(Edge(0, (0, 0)), Edge(1, (0, "x"))), faces=()),
            "edge 1 references unknown vertex 'x'",
        ),
        "unhashable-end": (
            _octagon(edges=(Edge(0, (0, 0)), Edge(1, (0, [1]))), faces=()),
            "edge 1 references unknown vertex [1]",
        ),
        "no-faces": (_octagon(faces=(), genus=-5), "complex has no faces"),
        "empty-face": (_octagon(faces=((), ((99, 1),))), "face 0 is empty"),
        # a malformed slot, then an unknown edge in the next one
        "slot-triple": (
            _octagon(faces=(_WORD[:2] + ((2, 1, 1), (99, 1)) + _WORD[4:],)),
            "face 0: slot 2 must be an (edge id, direction) pair, got (2, 1, 1)",
        ),
        "slot-single": (
            _octagon(faces=(_WORD[:2] + ((2,), (99, 1)) + _WORD[4:],)),
            "face 0: slot 2 must be an (edge id, direction) pair, got (2,)",
        ),
        "slot-scalar": (
            _octagon(faces=(_WORD[:2] + (2, (99, 1)) + _WORD[4:],)),
            "face 0: slot 2 must be an (edge id, direction) pair, got 2",
        ),
        "slot-unhashable-edge": (
            _octagon(faces=(_WORD[:2] + (([2], 1), (99, 1)) + _WORD[4:],)),
            "face 0: slot 2 has unhashable edge id [2]",
        ),
        "unknown-edge-before-slot": (  # the unknown edge comes first here
            _octagon(faces=(_WORD[:2] + ((99, 1), (2, 1, 1)) + _WORD[4:],)),
            "face 0 references unknown edge 99",
        ),
        "unknown-edge": (
            _octagon(faces=(((99, 2),) + _WORD[1:],)),
            "face 0 references unknown edge 99",
        ),
        "bad-direction": (
            _octagon(faces=(((0, 2),) + _WORD[1:-1],)),
            "face 0: direction must be +1 or -1, got 2",
        ),
        "unknown-edge-twice": (  # an undeclared edge in two slots; edge 0 in none
            _octagon(faces=(((99, 1),) + _WORD[1:4] + ((99, -1),) + _WORD[5:],)),
            "face 0 references unknown edge 99",
        ),
        "open-surface": (
            _octagon(faces=(((0, 1), (1, 1), (2, 1), (3, 1), (1, -1), (1, 1), (2, -1), (3, -1)),)),
            "open surface: edge 0 appears in 1 face slot(s), need 2",
        ),
        "triple-slot": (
            _octagon(faces=(((1, 1), (0, 1), (2, 1), (3, 1), (1, -1), (1, 1), (2, -1), (3, -1)),)),
            "edge 1 appears in 3 face slots; a surface allows 2",
        ),
        # slots = 2E again, with the surplus and the short edge in two faces
        "triple-slot-two-faces": (
            _two_projective_planes(faces=((("a", 1), ("a", 1)), (("a", 1), ("b", 1)))),
            "edge 'a' appears in 3 face slots; a surface allows 2",
        ),
        "open-surface-two-faces": (
            _two_projective_planes(faces=((("b", 1), ("a", 1)), (("a", 1), ("a", 1)))),
            "open surface: edge 'b' appears in 1 face slot(s), need 2",
        ),
        "quadruple-slot": (  # edge 1 in 4 slots, edges 0 and 2 in 1: slots = 2E
            _octagon(faces=(((1, 1), (0, 1), (1, -1), (2, 1), (1, 1), (1, -1), (3, 1), (3, -1)),)),
            "edge 1 appears in 4 face slots; a surface allows 2",
        ),
        "unused-edge": (  # chi -3 against genus 2, so the Euler check fails too
            _octagon(edges=_octagon()["edges"] + (Edge("x", (0, 0)),)),
            "open surface: edge 'x' appears in 0 face slot(s), need 2",
        ),
        "closed-walk": (
            _two_projective_planes(edges=(Edge("a", ("u", "u")), Edge("b", ("u", "v")))),
            "face 1 is not a closed walk at slot 0: 'v' != 'u'",
        ),
        "closed-walk-wrap": (  # face 1 walks u v w x and wraps to u; chi 3 fails too
            {
                "orientable": True,
                "genus": 0,
                "vertices": ("u", "v", "w", "x"),
                "edges": (
                    Edge("a", ("u", "u")),
                    Edge("b", ("u", "v")),
                    Edge("c", ("v", "w")),
                    Edge("d", ("w", "x")),
                ),
                "faces": (
                    (("a", 1), ("a", 1)),
                    (("b", 1), ("c", 1), ("d", 1)),
                    (("d", -1), ("c", -1), ("b", -1)),
                ),
            },
            "face 1 is not a closed walk at slot 2: 'x' != 'u'",
        ),
        # Incenter complexes, declared genus 3 so the Euler check fails too.
        # s0.0.0 is the first edge read, so its swapped ends name two
        # vertices first and a later edge end finds the fault.
        "closed-walk-swapped-ends": (
            _incenter_ends("s0.0.0", ("f0.0.1", "f0.0.0"), genus=3),
            "face 0 is not a closed walk at slot 0: 'f0.0.0' != 'f0.0.1'",
        ),
        # Only end 0 of s1.0.0 is wrong (f0.1.0 for f0.0.1), and an earlier
        # edge has already named that corner f0.0.1, so only the end-0
        # check of the closed-walk loop can see it.
        "closed-walk-tail": (
            _incenter_ends("s1.0.0", ("f0.1.0", "f0.1.0"), genus=3),
            "face 0 is not a closed walk at slot 0: 'f0.0.1' != 'f0.1.0'",
        ),
        "not-connected": (_two_projective_planes(), "complex is not connected"),
        "not-connected-spare-vertex": (
            _two_projective_planes(vertices=("u", "v", "w")),
            "complex is not connected",
        ),
        "corner-orbits": (
            _octagon(vertices=(0, "spare")),
            "corner orbits give 1 vertices but 2 are declared (pinched or isolated vertex)",
        ),
        "pinched-vertex": (
            {
                "orientable": True,
                "genus": 1,
                "vertices": ("v", "w"),
                "edges": (Edge("a", ("v", "v")),),
                "faces": ((("a", 1), ("a", -1)),),
            },
            "vertex 'v' carries more than one corner orbit (pinched vertex)",
        ),
        "genus-floor": (
            _fields(fundamental_polygon(3, False), genus=0),
            "genus 0 below minimum for this orientability",
        ),
        "euler": (
            _fields(fundamental_polygon(4, False), orientable=True, genus=3),
            "Euler characteristic -2 does not match declared orientable genus 3 (expected -4)",
        ),
        "orientation": (
            _fields(fundamental_polygon(4, False), orientable=True, genus=2),
            "declared orientability disagrees with orientation propagation",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_message_and_precedence(self, case):
        fields, message = self.CASES[case]
        with pytest.raises(SurfaceError) as info:
            SurfaceComplex(**fields)
        assert str(info.value) == message


def declared_degrees(c):
    """Declared edge ends at each vertex (a loop counts twice), in vertex order."""
    ends = Counter(v for e in c.edges for v in e.ends)
    return {v: ends[v] for v in c.vertices}


class TestVertexDegrees:
    """Validation reads each vertex's degree off the length of its rotation;
    it must equal the declared edge-end count."""

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_schedule_complexes(self, build):
        c = build()
        assert c.vertex_degrees() == declared_degrees(c)
        assert list(c.vertex_degrees()) == list(c.vertices)

    @pytest.mark.parametrize(
        "genus,orientable", [(g, True) for g in range(2, 13)] + [(g, False) for g in range(3, 13)]
    )
    def test_fundamental_polygons(self, genus, orientable):
        c = fundamental_polygon(genus, orientable)
        assert c.vertex_degrees() == declared_degrees(c) == {0: 2 * len(c.edges)}


class TestConstructorScalars:
    """The constructor is the only check of a document's values:
    :func:`deserialize` decodes the records and passes the values on, so a
    complex the constructor accepts survives a JSON round trip (see
    ``TestSerialization.test_json_round_trip``)."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"orientable": 1}, "orientable must be a boolean, got 1"),
            ({"genus": 2.0}, "genus must be an integer, got 2.0"),
            ({"faces": (((0, True),) + _WORD[1:],)}, "face 0: direction must be +1 or -1, got True"),
            ({"faces": (((0, 1.0),) + _WORD[1:],)}, "face 0: direction must be +1 or -1, got 1.0"),
        ],
        ids=["orientable-int", "genus-float", "direction-bool", "direction-float"],
    )
    def test_rejected(self, changes, message):
        with pytest.raises(SurfaceError) as info:
            SurfaceComplex(**_octagon(**changes))
        assert str(info.value) == message


class TestEdgeRecords:
    def test_edge_is_a_plain_record(self):
        assert Edge("a", (0, 0)) == ("a", (0, 0))
        assert Edge("a", [0, 1, 2]).ends == [0, 1, 2]  # checked by the complex

    @pytest.mark.parametrize(
        "as_given",
        [lambda e: (e.id, e.ends), lambda e: Edge(e.id, list(e.ends)), lambda e: [e.id, list(e.ends)]],
        ids=["pairs", "edge-list-ends", "list-pairs"],
    )
    def test_stored_as_edges_with_tuple_ends(self, as_given):
        c = fundamental_polygon(2, True)
        got = SurfaceComplex(**_fields(c, edges=[as_given(e) for e in c.edges]))
        assert got == c
        assert all(type(e) is Edge and type(e.ends) is tuple for e in got.edges)

    def test_tuple_edges_pass_through(self):
        c = fundamental_polygon(2, True)
        got = SurfaceComplex(**_fields(c))
        assert all(a is b for a, b in zip(got.edges, c.edges))

    @pytest.mark.parametrize("make", [Edge, lambda eid, ends: (eid, list(ends))])
    def test_ends_must_be_a_pair(self, make):
        c = fundamental_polygon(2, True)
        edges = (make(0, (0, 0, 0)),) + c.edges[1:]
        with pytest.raises(SurfaceError) as info:
            SurfaceComplex(**_fields(c, edges=edges))
        assert str(info.value) == "edge 0: ends must be a pair"


class TestFaceSlots:
    """Validation stores faces as tuples of (edge id, direction) tuples in
    the slot loop it runs anyway: faces given so are kept, not copied."""

    def test_tuple_faces_pass_through(self):
        c = incenter_complex(fundamental_polygon(3, True), 12, 12)
        got = SurfaceComplex(**_fields(c))
        assert type(got.faces) is tuple
        assert all(a is b for a, b in zip(got.faces, c.faces))

    def test_other_sequences_stored_as_tuples(self):
        c = fundamental_polygon(2, True)
        for faces in ([[list(slot) for slot in face] for face in c.faces], (iter(_WORD),)):
            got = SurfaceComplex(**_fields(c, faces=faces))
            assert got == c
            assert type(got.faces) is tuple
            assert all(type(f) is tuple and all(type(s) is tuple for s in f) for f in got.faces)

    @pytest.mark.parametrize("slot", [(0, 1, 1), (0,), 5], ids=["triple", "single", "scalar"])
    def test_malformed_slot_raises_surface_error(self, slot):
        with pytest.raises(SurfaceError) as info:
            SurfaceComplex(**_octagon(faces=((slot,) + _WORD[1:],)))
        expected = f"face 0: slot 0 must be an (edge id, direction) pair, got {slot!r}"
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "slot, shown",
        [([0, 1, 1], (0, 1, 1)), ([0], (0,)), (5, 5)],
        ids=["triple", "single", "scalar"],
    )
    def test_malformed_slot_of_a_list_face(self, slot, shown):
        """Slots given as lists are stored as tuples first, then checked."""
        with pytest.raises(SurfaceError) as info:
            SurfaceComplex(**_octagon(faces=([slot, *map(list, _WORD[1:])],)))
        expected = f"face 0: slot 0 must be an (edge id, direction) pair, got {shown!r}"
        assert str(info.value) == expected


class TestOneFlagMapBuild:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The face lists of every flag map built while the test runs."""
        builds = []

        class Counting(surface._FlagMap):
            def __init__(self, faces):
                builds.append(faces)
                super().__init__(faces)

        monkeypatch.setattr(surface, "_FlagMap", Counting)
        return builds

    @pytest.mark.parametrize("make", [incenter_complex, clip_complex])
    @pytest.mark.parametrize("genus,orientable", [(2, True), (5, True), (3, False), (8, False)])
    def test_derived_complex_builds_one(self, builds, make, genus, orientable):
        base = fundamental_polygon(genus, orientable)
        p = (4 if orientable else 2) * genus
        builds.clear()
        c = make(base, p, p)
        assert builds == [c.faces]

    @pytest.mark.parametrize("genus,orientable", [(2, True), (12, True), (3, False), (8, False)])
    def test_fundamental_polygon_builds_one(self, builds, genus, orientable):
        c = fundamental_polygon(genus, orientable)
        assert builds == [c.faces]
        assert isinstance(c.flag_map(), surface._FlagMap)

    def test_flag_map_of_other_faces_not_reused(self, builds):
        """Validation checks a flag map left on the instance only when it
        was built from the same faces; else it builds its own."""
        fields = _fields(fundamental_polygon(3, False))
        builds.clear()
        c = object.__new__(SurfaceComplex)
        object.__setattr__(c, "_flag_map", surface._FlagMap([_WORD]))
        c.__init__(**fields)
        assert builds == [[_WORD], c.faces]
        assert c.flag_map().faces == c.faces
        c = object.__new__(SurfaceComplex)
        object.__setattr__(c, "_flag_map", surface._FlagMap([_WORD]))
        with pytest.raises(SurfaceError) as info:
            c.__init__(**{**fields, "faces": (fields["faces"][0][:-1],)})
        assert str(info.value) == "open surface: edge 2 appears in 1 face slot(s), need 2"


class TestOrientability:
    def test_fundamental_polygons(self):
        assert fundamental_polygon(3, True).flag_map().sweep() == (True, True)
        assert fundamental_polygon(4, False).flag_map().sweep() == (True, False)

    def test_torus(self):
        torus = polygon_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1)])
        assert torus.flag_map().sweep() == (True, True)

    def test_declared_flag_must_match_propagation(self):
        # chi(FP(4, non-orientable)) = -2 = chi(genus-2 orientable), so the
        # characteristic check alone cannot catch a flipped flag; orientation
        # propagation must.
        doc = serialize(fundamental_polygon(4, False))
        doc["orientable"] = True
        doc["genus"] = 2
        with pytest.raises(SurfaceError, match="orientation propagation"):
            deserialize(doc)


class TestEulerCharacteristic:
    def test_examples(self):
        assert fundamental_polygon(2, True).chi == -2
        assert fundamental_polygon(3, False).chi == -1

    def test_matches_chi_property(self):
        c = fundamental_polygon(5, True)
        assert c.chi == len(c.vertices) - len(c.edges) + len(c.faces) == -8


class TestRegularCounts:
    def test_octagonal_trivalent_genus2(self):
        assert regular_counts(8, 3, 2, True) == (6, 24, 16)

    def test_octagon_octagon_genus2(self):
        assert regular_counts(8, 8, 2, True) == (1, 4, 1)

    def test_hexagonal_nonorientable(self):
        assert regular_counts(6, 6, 3, False) == (1, 3, 1)

    def test_non_integral(self):
        assert regular_counts(12, 5, 2, True) is None

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            regular_counts(4, 4, 2, True)

    def test_counting_identities_sweep(self):
        surfaces = [(g, True) for g in range(2, 31)] + [(g, False) for g in range(3, 31)]
        checked = 0
        for p in range(3, 61):
            for q in range(3, 61):
                if 1 / p + 1 / q >= 0.5:
                    continue
                for genus, orientable in surfaces:
                    got = regular_counts(p, q, genus, orientable)
                    if got is None:
                        continue
                    F, E, V = got
                    chi = 2 - 2 * genus if orientable else 2 - genus
                    assert q * V == 2 * E == p * F
                    assert V - E + F == chi
                    checked += 1
        assert checked > 1000

    def test_face_areas_tile_the_surface(self):
        for p in range(3, 51):
            for q in range(3, 51):
                if 1 / p + 1 / q >= 0.5:
                    continue
                for genus in range(2, 21):
                    got = regular_counts(p, q, genus, True)
                    if got is None:
                        continue
                    F = got[0]
                    assert hypgeo.regular_profile((p, q))["face_area"] * F == pytest.approx(
                        surface_area(genus, True), abs=1e-9
                    )


def _dual_cases():
    """The fundamental polygon and its clip and incenter complexes at
    orientable g = 2..12 and non-orientable g = 3..12, then the honeycomb
    tori."""
    for orientable, genera in ((True, range(2, 13)), (False, range(3, 13))):
        for g in genera:
            for derive in ("bare", "clip", "incenter"):
                yield pytest.param(
                    lambda g=g, o=orientable, d=derive: _derived(g, o, d),
                    id=f"{derive}-{'o' if orientable else 'n'}{g}",
                )
    for L in (2, 3, 4, 6):
        yield pytest.param(lambda L=L: honeycomb_torus(L), id=f"honeycomb-{L}")


class TestDual:
    def test_involution_on_small_complexes(self):
        for c in (
            fundamental_polygon(2, True),
            fundamental_polygon(3, True),
            fundamental_polygon(3, False),
            fundamental_polygon(5, False),
            polygon_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1)]),
        ):
            assert isomorphic(reference_dual(reference_dual(c)), c)

    def test_swaps_faces_and_vertices(self):
        c = fundamental_polygon(3, True)
        d = reference_dual(c)
        assert len(d.vertices) == len(c.faces)
        assert len(d.faces) == len(c.vertices)
        assert len(d.edges) == len(c.edges)
        assert d.chi == c.chi
        assert d.orientable == c.orientable
        # {12,12} cell structure dualizes to itself here.
        assert face_sizes(d) == [12]

    @pytest.mark.parametrize("case", _dual_cases())
    def test_matches_walk_oracle(self, case):
        # The flag map's rotations give the dual the walks step out: each
        # vertex's rotation read backwards from its first flag, each slot
        # running forwards from the first slot of its edge, is the dual face
        # of that vertex; on each complex and on its dual.
        c = case()
        for x in (c, reference_dual(c)):
            fm = x.flag_map()
            read = {}
            for r in fm.rotations:
                eid, end = fm.end(r[0])
                read[x.edge_by_id(eid).ends[end]] = tuple(
                    (fm.edge[i >> 1], 1 if fm.s2[i] > i else -1) for i in (r[0], *r[:0:-1])
                )
            assert reference_dual(x).faces == tuple(map(read.__getitem__, x.vertices))

    def test_count_swap_for_trivalent_octagonal(self):
        # The dual of {8,3} is {3,8}: counts swap faces and vertices.
        F, E, V = regular_counts(8, 3, 2, True)
        assert regular_counts(3, 8, 2, True) == (V, E, F)
        assert (V, E, F) == (16, 24, 6)


def _edit(*path, value):
    """A document edit: the item at ``path`` set to ``value``, in place."""
    *head, last = path

    def edit(doc):
        reduce(getitem, head, doc)[last] = value
        return doc

    return edit


# Malformed documents made from the serialized genus-2 octagon, and the
# message each is rejected with, by deserialize or by the CLI reading it.
# The first eight are record faults that deserialize names; the
# SurfaceComplex constructor names the value faults of the rest.
MALFORMED = {
    "list-document": (lambda doc: [], "complex document must be a JSON object"),
    "vertices-scalar": (_edit("vertices", value=5), "key 'vertices' must be a list"),
    "edges-string": (_edit("edges", value="abc"), "key 'edges' must be a list"),
    "faces-object": (_edit("faces", value={}), "key 'faces' must be a list"),
    "face-scalar": (_edit("faces", 0, value=7), "faces[0] must be a list of slots"),
    "edge-scalar": (
        _edit("edges", 0, value=5), "edges[0] must be an object with 'id' and 'ends'"
    ),
    "ends-string": (_edit("edges", 0, "ends", value="00"), "edges[0].ends must be a pair"),
    "slot-scalar": (
        _edit("faces", 0, 0, value=7), "faces[0][0] must be an object with 'edge' and 'dir'"
    ),
    "orientable-int": (_edit("orientable", value=1), "orientable must be a boolean, got 1"),
    "genus-bool": (_edit("genus", value=True), "genus must be an integer, got True"),
    "genus-float": (_edit("genus", value=2.0), "genus must be an integer, got 2.0"),
    "ends-single": (_edit("edges", 0, "ends", value=[0]), "edge 0: ends must be a pair"),
    "vertex-list": (_edit("vertices", 0, value=[0]), "vertex [0] must be a hashable id"),
    "edge-id-object": (_edit("edges", 0, "id", value={}), "edge id {} must be hashable"),
    "end-list": (
        _edit("edges", 0, "ends", value=[[0], 0]), "edge 0 references unknown vertex [0]"
    ),
    "slot-edge-list": (
        _edit("faces", 0, 0, "edge", value=[0]), "face 0: slot 0 has unhashable edge id [0]"
    ),
    # True == 1 == 1.0, so only a type check keeps these from being
    # accepted and written back as they came.
    "direction-bool": (
        _edit("faces", 0, 1, "dir", value=True), "face 0: direction must be +1 or -1, got True"
    ),
    "direction-float": (
        _edit("faces", 0, 1, "dir", value=1.0), "face 0: direction must be +1 or -1, got 1.0"
    ),
}


class TestSerialization:
    def test_roundtrip_identity(self):
        for c in (fundamental_polygon(2, True), fundamental_polygon(3, False)):
            assert deserialize(serialize(c)) == c
            assert deserialize(json.dumps(serialize(c))) == c

    @pytest.mark.parametrize("derive", ["bare", "clip", "incenter"])
    @pytest.mark.parametrize(
        "genus,orientable", [(g, True) for g in range(2, 13)] + [(g, False) for g in range(3, 13)]
    )
    def test_json_round_trip(self, genus, orientable, derive):
        c = _derived(genus, orientable, derive)
        for x in (c, reference_dual(c)):
            assert deserialize(json.dumps(serialize(x))) == x

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_schedule_complexes_round_trip(self, build):
        c = build()
        assert deserialize(json.dumps(serialize(c))) == c

    def test_schema_keys(self):
        doc = serialize(fundamental_polygon(2, True))
        assert set(doc) == {"orientable", "genus", "vertices", "edges", "faces"}
        assert doc["edges"][0].keys() == {"id", "ends"}
        assert doc["faces"][0][0].keys() == {"edge", "dir"}

    def test_missing_faces_key_named(self):
        doc = serialize(fundamental_polygon(2, True))
        del doc["faces"]
        with pytest.raises(SurfaceError, match="'faces'"):
            deserialize(doc)

    def test_missing_edges_key_named(self):
        doc = serialize(fundamental_polygon(2, True))
        del doc["edges"]
        with pytest.raises(SurfaceError, match="'edges'"):
            deserialize(doc)

    def test_open_surface_rejected(self):
        doc = serialize(fundamental_polygon(2, True))
        doc["faces"][0] = doc["faces"][0][:-1]  # drop one slot
        with pytest.raises(SurfaceError, match="open surface"):
            deserialize(doc)

    def test_bad_json_text(self):
        with pytest.raises(SurfaceError, match="not valid JSON"):
            deserialize("{not json")

    def test_bad_direction(self):
        doc = serialize(fundamental_polygon(2, True))
        doc["faces"][0][0]["dir"] = 2
        with pytest.raises(SurfaceError, match="direction"):
            deserialize(doc)

    def test_isolated_vertex_rejected(self):
        doc = serialize(fundamental_polygon(2, True))
        doc["vertices"].append("spare")
        with pytest.raises(SurfaceError, match="pinched or isolated"):
            deserialize(doc)

    def test_chi_mismatch_rejected(self):
        doc = serialize(fundamental_polygon(2, True))
        doc["genus"] = 3
        with pytest.raises(SurfaceError, match="[Ee]uler characteristic"):
            deserialize(doc)

    @pytest.mark.parametrize("make, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_records_rejected(self, make, message):
        with pytest.raises(SurfaceError) as info:
            deserialize(make(serialize(fundamental_polygon(2, True))))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "where, message",
        [("ends", "edges[0].ends must be a pair"), ("vertices", "key 'vertices' must be a list")],
        ids=["ends", "vertices"],
    )
    def test_object_for_a_list_rejected(self, where, message):
        """An object keyed by the real ids, here the string vertex ids of
        the genus-2 incenter complex, reads as those ids under tuple(): only
        deserialize's list checks reject it."""
        doc = serialize(incenter_complex(fundamental_polygon(2, True), 8, 8))
        owner = doc["edges"][0] if where == "ends" else doc
        ids = owner[where]
        owner[where] = dict.fromkeys(ids, 0)
        assert tuple(owner[where]) == tuple(ids) and isinstance(ids[0], str)
        with pytest.raises(SurfaceError) as info:
            deserialize(json.dumps(doc))
        assert str(info.value) == message


class TestIsomorphism:
    def test_relabeling_is_isomorphic(self):
        c = fundamental_polygon(2, True)
        doc = serialize(c)
        rename = {0: "north", 1: "south", 2: "east", 3: "west"}
        for rec in doc["edges"]:
            rec["id"] = rename[rec["id"]]
        for face in doc["faces"]:
            for slot in face:
                slot["edge"] = rename[slot["edge"]]
        assert isomorphic(deserialize(doc), c)

    def test_distinguishes_different_surfaces(self):
        assert not isomorphic(fundamental_polygon(2, True), fundamental_polygon(3, True))
        assert not isomorphic(fundamental_polygon(4, False), fundamental_polygon(2, True))


class TestTessSignature:
    """A tessellation signature on a surface: the signature checks its own
    hyperbolicity, and the genus rule gives the floor and chi."""

    def test_regular(self):
        assert RegularSig(8, 3) == RegularSig(8, 3)
        assert _check_genus(2, True) == _genus_chi(2, True) == -2

    def test_semiregular(self):
        assert SemiRegularSig((6, 6, 8)).m == (6, 6, 8)
        assert _check_genus(3, False) == _genus_chi(3, False) == -1

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            RegularSig(4, 4)
        with pytest.raises(ValueError, match="Euclidean"):
            SemiRegularSig((6, 6, 6))

    def test_genus_floors(self):
        with pytest.raises(ValueError):
            _check_genus(1, True)
        with pytest.raises(ValueError):
            _check_genus(2, False)

    def test_bad_kind(self):
        assert _parse_sig("{8,3}") == ("regular", (8, 3))
        assert _parse_sig("[6,6,8]") == ("semiregular", (6, 6, 8))
        with pytest.raises(ValueError, match="unrecognized signature"):
            _parse_sig("(8,3)")
