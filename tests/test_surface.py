"""Polygonal complexes: gluing, validation, duals, counting, serialization."""

import hashlib
import json
import math

import pytest

from floqtess import hypgeo
from floqtess.cli import _parse_sig
from floqtess.derive import clip_complex, incenter_complex
from floqtess.hypgeo import RegularSig, SemiRegularSig, _check_genus, _genus_chi
from floqtess.surface import (
    Edge,
    SurfaceComplex,
    SurfaceError,
    deserialize,
    dual,
    fundamental_polygon,
    isomorphic,
    polygon_surface,
    regular_counts,
    serialize,
)


class TestFundamentalPolygon:
    def test_orientable_genus2(self):
        c = fundamental_polygon(2, True)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 4, 1)
        assert c.chi == -2
        assert c.orientable
        # One octagon face, one valence-8 vertex: the {8,8} cell structure.
        assert c.face_sizes() == [8]
        assert c.vertex_degrees()[c.vertices[0]] == 8

    def test_nonorientable_genus3(self):
        c = fundamental_polygon(3, False)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 3, 1)
        assert c.chi == -1
        assert not c.orientable
        assert c.face_sizes() == [6]

    @pytest.mark.parametrize("genus", range(2, 9))
    def test_orientable_family(self, genus):
        c = fundamental_polygon(genus, True)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 2 * genus, 1)
        assert c.chi == 2 - 2 * genus
        assert c.face_sizes() == [4 * genus]

    @pytest.mark.parametrize("genus", range(3, 10))
    def test_nonorientable_family(self, genus):
        c = fundamental_polygon(genus, False)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, genus, 1)
        assert c.chi == 2 - genus
        assert c.face_sizes() == [2 * genus]

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
            for x in (c, dual(c))
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
        in_cycle = [0] * len(fm.flags)
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
        for i in range(len(fm.flags)):
            assert in_cycle[i] + in_cycle[fm.s1[i]] == 1

    @pytest.mark.parametrize("derive", ["bare", "clip", "incenter"])
    def test_end_and_flag_are_inverse(self, derive):
        c = _derived(3, False, derive)
        fm = c.flag_map()
        for i, (f, j, _) in enumerate(fm.flags):
            eid, end = fm.end(i)
            assert eid == c.faces[f][j][0]
            assert fm.flag(f, j, end) == i
            assert fm.end(fm.s2[i]) == (eid, end)
            assert fm.end(fm.s0[i]) == (eid, 1 - end)
        for eid, (f1, f2) in fm.edge_faces.items():
            assert [f for f, face in enumerate(c.faces) for e, _ in face if e == eid] == [f1, f2]

    def test_built_once(self):
        c = _derived(2, True, "incenter")
        assert c.flag_map() is c.flag_map()


class TestOrientability:
    def test_fundamental_polygons(self):
        assert fundamental_polygon(3, True).flag_map().orientable()
        assert not fundamental_polygon(4, False).flag_map().orientable()

    def test_torus(self):
        torus = polygon_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1)])
        assert torus.flag_map().orientable()

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
                    assert hypgeo.polygon_area((p, q)) * F == pytest.approx(
                        hypgeo.surface_area(genus, True), abs=1e-9
                    )


class TestDual:
    def test_involution_on_small_complexes(self):
        for c in (
            fundamental_polygon(2, True),
            fundamental_polygon(3, True),
            fundamental_polygon(3, False),
            fundamental_polygon(5, False),
            polygon_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1)]),
        ):
            assert isomorphic(dual(dual(c)), c)

    def test_swaps_faces_and_vertices(self):
        c = fundamental_polygon(3, True)
        d = dual(c)
        assert len(d.vertices) == len(c.faces)
        assert len(d.faces) == len(c.vertices)
        assert len(d.edges) == len(c.edges)
        assert d.chi == c.chi
        assert d.orientable == c.orientable
        # {12,12} cell structure dualizes to itself here.
        assert d.face_sizes() == [12]

    def test_count_swap_for_trivalent_octagonal(self):
        # The dual of {8,3} is {3,8}: counts swap faces and vertices.
        F, E, V = regular_counts(8, 3, 2, True)
        assert regular_counts(3, 8, 2, True) == (V, E, F)
        assert (V, E, F) == (16, 24, 6)


class TestSerialization:
    def test_roundtrip_identity(self):
        for c in (fundamental_polygon(2, True), fundamental_polygon(3, False)):
            assert deserialize(serialize(c)) == c
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


    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(vertices=5), "'vertices' must be a list"),
            (lambda d: d.update(edges="abc"), "'edges' must be a list"),
            (lambda d: d.update(faces={}), "'faces' must be a list"),
            (lambda d: d["faces"].__setitem__(0, 7), r"faces\[0\] must be a list"),
            (lambda d: d["vertices"].__setitem__(0, [0]), r"vertices\[0\] must be a scalar id"),
            (lambda d: d["edges"][0].update(id={}), r"edges\[0\]\.id must be a scalar id"),
            (lambda d: d["edges"][0].update(ends=[[0], 0]), r"edges\[0\]\.ends must be a scalar id"),
            (lambda d: d["faces"][0][0].update(edge=[0]), r"faces\[0\]\[0\]\.edge must be a scalar id"),
        ],
    )
    def test_malformed_containers_and_ids(self, mutate, message):
        doc = serialize(fundamental_polygon(2, True))
        mutate(doc)
        with pytest.raises(SurfaceError, match=message):
            deserialize(doc)

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
