"""Polygonal complexes: gluing, validation, duals, counting, serialization."""

import json
import math

import pytest

from floqtess import hypgeo
from floqtess.surface import (
    Edge,
    SurfaceComplex,
    SurfaceError,
    TessSignature,
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
    def test_regular(self):
        sig = TessSignature("regular", (8, 3), 2, True)
        assert sig.chi == -2
        assert str(sig) == "{8,3} g=2"

    def test_semiregular(self):
        sig = TessSignature("semiregular", (6, 6, 8), 3, False)
        assert sig.chi == -1
        assert str(sig) == "[6,6,8] g=3 non-orientable"

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            TessSignature("regular", (4, 4), 2, True)
        with pytest.raises(ValueError, match="Euclidean"):
            TessSignature("semiregular", (6, 6, 6), 2, True)

    def test_genus_floors(self):
        with pytest.raises(ValueError):
            TessSignature("regular", (8, 3), 1, True)
        with pytest.raises(ValueError):
            TessSignature("semiregular", (6, 6, 8), 2, False)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            TessSignature("fancy", (8, 3), 2, True)
