"""Clipping and incenter subdivision: counts and explicit rewrites."""

import hashlib
import json
import re
from collections import Counter

import pytest

from floqtess.derive import (
    DerivedCounts,
    _admitted_vertex_count,
    clip_complex,
    incenter_complex,
    polygon_complex,
    polygon_route,
    semiregular_counts_direct,
)
from floqtess.hypgeo import SemiRegularSig
from floqtess.surface import fundamental_polygon, serialize
from helpers import face_census
from reference import (
    _counts_from_chi,
    clip_counts,
    incenter_counts,
    isomorphic,
    reference_dual,
    walk_clip_complex,
    walk_incenter_complex,
)
from test_coloring import honeycomb_torus


POLYGONS = [(g, True) for g in range(2, 13)] + [(g, False) for g in range(3, 13)]


def census_of(c):
    return dict(Counter(len(face) for face in c.faces))


class TestClipCounts:
    def test_octagon_genus2(self):
        got = clip_counts(8, 8, -2)
        assert (got.n_f, got.n_e, got.n_v) == (2, 12, 8)
        assert tuple(got.signature.m) == (16, 16, 8)
        assert got.n_v - got.n_e + got.n_f == -2

    def test_hexagon_nonorientable(self):
        got = clip_counts(6, 6, -1)
        assert got.n_v == 6
        assert tuple(got.signature.m) == (12, 12, 6)

    def test_chi_preserved_generally(self):
        for p, q, chi in [(8, 3, -2), (10, 3, -4), (8, 8, -6), (12, 3, -6)]:
            got = clip_counts(p, q, chi)
            assert got.n_v - got.n_e + got.n_f == chi

    def test_non_integral_source_rejected(self):
        # {12,5} has no integral counts at chi = -2.
        with pytest.raises(ValueError, match="non-integral"):
            clip_counts(12, 5, -2)


class TestIncenterCounts:
    def test_octagon_genus2(self):
        got = incenter_counts(8, 8, -2)
        assert (got.n_f, got.n_e, got.n_v) == (6, 24, 16)
        assert tuple(got.signature.m) == (16, 16, 4)
        assert face_census(got) == {4: 4, 16: 2}

    def test_hexagon_nonorientable(self):
        got = incenter_counts(6, 6, -1)
        assert got.n_v == 12
        assert face_census(got) == {4: 3, 12: 2}

    def test_trivalent_octagonal_genus2(self):
        got = incenter_counts(8, 3, -2)
        assert got.n_v == 96
        assert tuple(got.signature.m) == (16, 6, 4)

    def test_census_matches_source_cells(self):
        # {2p: F, 2q: V, 4: E}, merging coincident sizes.
        for p, q, chi in [(8, 3, -2), (8, 8, -2), (10, 3, -4), (6, 6, -1)]:
            F, E, V = _counts_from_chi(p, q, chi)
            census = face_census(incenter_counts(p, q, chi))
            expect = {}
            for size, count in ((2 * p, F), (2 * q, V), (4, E)):
                expect[size] = expect.get(size, 0) + count
            assert census == expect


class TestExplicitClip:
    def test_octagon_fundamental_polygon(self):
        c = clip_complex(fundamental_polygon(2, True), 8, 8)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (8, 12, 2)
        assert c.chi == -2
        assert c.orientable
        assert set(c.vertex_degrees().values()) == {3}
        assert census_of(c) == {16: 1, 8: 1}

    def test_counts_match_counting_op(self):
        for genus, orientable, pq in [(2, True, 8), (3, True, 12), (3, False, 6), (5, False, 10)]:
            src = fundamental_polygon(genus, orientable)
            got = clip_complex(src, pq, pq)
            counts = clip_counts(pq, pq, src.chi)
            assert (len(got.faces), len(got.edges), len(got.vertices)) == (
                counts.n_f,
                counts.n_e,
                counts.n_v,
            )
            assert got.chi == src.chi
            assert got.orientable == src.orientable
            assert set(got.vertex_degrees().values()) == {3}
            # census {2p: F, q: V}
            expect = {}
            for size, count in ((2 * pq, 1), (pq, 1)):
                expect[size] = expect.get(size, 0) + count
            assert census_of(got) == expect

    def test_wrong_signature_rejected(self):
        with pytest.raises(ValueError, match="not \\{6,6\\}"):
            clip_complex(fundamental_polygon(2, True), 6, 6)


class TestExplicitIncenter:
    def test_octagon_fundamental_polygon(self):
        c = incenter_complex(fundamental_polygon(2, True), 8, 8)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (16, 24, 6)
        assert census_of(c) == {16: 2, 4: 4}
        assert set(c.vertex_degrees().values()) == {3}
        assert c.orientable

    def test_hexagon_nonorientable(self):
        c = incenter_complex(fundamental_polygon(3, False), 6, 6)
        assert len(c.vertices) == 12
        assert census_of(c) == {12: 2, 4: 3}
        assert not c.orientable
        assert c.chi == -1

    def test_counts_match_counting_op(self):
        for genus, orientable in [(2, True), (3, True), (4, True), (3, False), (4, False), (5, False)]:
            src = fundamental_polygon(genus, orientable)
            p = len(src.faces[0])
            got = incenter_complex(src, p, p)
            counts = incenter_counts(p, p, src.chi)
            assert (len(got.faces), len(got.edges), len(got.vertices)) == (
                counts.n_f,
                counts.n_e,
                counts.n_v,
            )
            assert got.chi == src.chi
            assert got.orientable == src.orientable
            assert set(got.vertex_degrees().values()) == {3}

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (6, 8, "source complex is not {6,8}: face sizes [8]"),
            (8, 6, "source complex is not {8,6}: vertex degrees [8]"),
        ],
    )
    def test_rejects_a_source_of_another_signature(self, p, q, message):
        with pytest.raises(ValueError) as info:
            incenter_complex(fundamental_polygon(2, True), p, q)
        assert str(info.value) == message

    def test_face_order_groups_by_role(self):
        # 2p-gons first, then vertex 2q-gons, then edge quadrilaterals.
        src = fundamental_polygon(2, True)
        c = incenter_complex(src, 8, 8)
        sizes = [len(face) for face in c.faces]
        assert sizes == [16, 16, 4, 4, 4, 4]

    def test_dual_of_derived_is_involutive(self):
        c = incenter_complex(fundamental_polygon(2, True), 8, 8)
        assert isomorphic(reference_dual(reference_dual(c)), c)


class TestPolygonRoute:
    @pytest.mark.parametrize("genus,orientable", POLYGONS)
    def test_routes_in_any_entry_order(self, genus, orientable):
        p = (4 if orientable else 2) * genus
        for m, route in (((4, 2 * p, 2 * p), "incenter"), ((p, 2 * p, 2 * p), "clip")):
            for order in ((0, 1, 2), (1, 0, 2), (1, 2, 0)):
                assert polygon_route(tuple(m[i] for i in order), genus, orientable) == route
        # one size off, or the other surface's polygon: no route
        assert polygon_route((4, 2 * p, 2 * p + 2), genus, orientable) is None
        assert polygon_route((4, 2 * p, 2 * p), genus, not orientable) is None

    @pytest.mark.parametrize("route,make", [("clip", clip_complex), ("incenter", incenter_complex)])
    @pytest.mark.parametrize("genus,orientable", [(2, True), (3, False)])
    def test_polygon_complex_derives_the_polygon(self, route, make, genus, orientable):
        p = (4 if orientable else 2) * genus
        want = make(fundamental_polygon(genus, orientable), p, p)
        assert polygon_complex(route, genus, orientable) == want

    @pytest.mark.parametrize("route", [None, "quotient"])
    def test_unknown_route_raises(self, route):
        # Only "clip" and "incenter" name a construction; any other route is
        # refused by name rather than built as one of them.
        with pytest.raises(ValueError, match=f"unknown explicit construction route {route!r}"):
            polygon_complex(route, 2, True)


class TestMultiFaceSources:
    """Derivations of multi-face tori ({6,3} honeycombs and a {3,6} dual)
    and of every one-face fundamental polygon.

    The digests are sha256 of json.dumps(serialize(...)).  The tori's were
    taken from the derivations as they stood before they were rebuilt on
    flag-orbit walks, the polygons' while the polygons were still found by
    gluing their boundary words; they pin names, edge and face order, start
    flags and directions.
    """

    TORUS = (0, True, 1)  # (chi, orientable, genus)
    SOURCES = {
        "honeycomb-2": (lambda: honeycomb_torus(2), 6, 3, TORUS),
        "honeycomb-3": (lambda: honeycomb_torus(3), 6, 3, TORUS),
        "honeycomb-4": (lambda: honeycomb_torus(4), 6, 3, TORUS),
        "dual-honeycomb-3": (lambda: reference_dual(honeycomb_torus(3)), 3, 6, TORUS),
        **{
            f"polygon-{'o' if o else 'n'}{g}": (
                lambda g=g, o=o: fundamental_polygon(g, o),
                (4 if o else 2) * g,
                (4 if o else 2) * g,
                (2 - (2 if o else 1) * g, o, g),
            )
            for g, o in POLYGONS
        },
    }
    PINS = {
        ("honeycomb-2", "clip"): "104fcfe5f13adb9fa366d13a929f74a3b5f19c8cceaebe4bc272eea250965c85",
        ("honeycomb-2", "incenter"): "41ed3984292f30c6b079d27d343fd6c3023fb26ed962b46d1e19af5ea961cf58",
        ("honeycomb-3", "clip"): "fde4d2e79a0c6cc398ead382f43808b40a5f50f8575748946d8d2d4a9322f991",
        ("honeycomb-3", "incenter"): "155b9a82aa668c8b5fb84440a533114a61ff45192f9b0c42d7a9f0a9c5f36d1e",
        ("honeycomb-4", "clip"): "7c2b665f9c8cba058d8d5de5c5c0e5b6fd098170671a41abb8530f590223c2d8",
        ("honeycomb-4", "incenter"): "a2e654d003129f4d903f2f6b1be9b271ecec6012ddad796f51c1df9e8e49a00d",
        ("dual-honeycomb-3", "clip"): "bc7a6b2c843b60d1016459dbdfbda7422fe112562abe35fe45723f3589e93bc8",
        ("dual-honeycomb-3", "incenter"): "1141405d0b44990b1496d0dffbd0a25ff48763fed7f5bbe642b71200e0a11cd3",
        ("polygon-o2", "clip"): "c1af4b6f3f798cbf55054e3fd215461b022b0f6c6b79ce413725f309aa3404b3",
        ("polygon-o2", "incenter"): "05b10c838053aa64da1e607494a490979ee0a91cddbf94942f3296339855c89e",
        ("polygon-o3", "clip"): "0b6db4aeedafc385ca5e328bec5cae4f0d90727b71551a2e86159e2af317c153",
        ("polygon-o3", "incenter"): "baa742032ae51c9f453080eb4b4857dc2e383bef38799c29fb287a26e6e6661c",
        ("polygon-o4", "clip"): "af5c5068bbe13bf4c413dbd69aee68c9a7048a92102d6ff1dc1da13046add2b0",
        ("polygon-o4", "incenter"): "1b04ece3e884728856ebc0b9708e999ac78f1280fbd1ed10756b9d084696a3a5",
        ("polygon-o5", "clip"): "3cbe640a24b68e309eae79fce294a9e5f103ccbe5a1a78f1ea73b770bc5a144d",
        ("polygon-o5", "incenter"): "4c5be44e7c769751905163d298ec0943444b644bbbc2f96bc3995e35f311deae",
        ("polygon-o6", "clip"): "7c4128afe4053c05f080bfdd685f5160e02ae5cfd0fcf93cb34df7b7768be6d6",
        ("polygon-o6", "incenter"): "ac1c9484211511a7b84465c379c8366b908273125b141b7e4b7ac1ff14164fb0",
        ("polygon-o7", "clip"): "1905f472405d1e09297997572dcd599a7e439fc457b711daf4be5990fb0c6af4",
        ("polygon-o7", "incenter"): "d9dc7e55c43f87ce9962488bd702772436594a4691249b0b976638e74e3d2aed",
        ("polygon-o8", "clip"): "0d80835a4475429b4397a3bec6097df57a97f9a528f9ee4f888ea7c51eee2954",
        ("polygon-o8", "incenter"): "63788ab1bc4be0d6b7fb1b4bb92b88de75c6ad8c34c9eb044a1af0d83a7e2809",
        ("polygon-o9", "clip"): "cd1d01de8e954823b19492eaf127061ed8175a3b80e82340e8a9ad85552a70a4",
        ("polygon-o9", "incenter"): "3038338278c7e1ca91efdfd677d258bfe49a0914e2f2a98bd1a13619015666c7",
        ("polygon-o10", "clip"): "986f9b3f03c92c5eb57c5dd5af4b274a42f1c5fc7724ee925371e5998a1cc822",
        ("polygon-o10", "incenter"): "9b710ed571089f883609035cc694e78ca44eeae4aae19839bad54d4ec074760f",
        ("polygon-o11", "clip"): "f91881d4090e2ef890dbea263d09930adbcdbc5ce29f21cbc361205cf1a51638",
        ("polygon-o11", "incenter"): "fc5f82df92489cc7b2f04effb149e27bb06eade1d85373d79cb1fd2f3092b2b1",
        ("polygon-o12", "clip"): "1243901f2555abf89220678a98337092b516e2bb89130962925f45d8e1be77e4",
        ("polygon-o12", "incenter"): "4a748ce524ede949457df1e99a765bd76cbeee560feb58ea4e353e78258cb2b5",
        ("polygon-n3", "clip"): "24b708ba7e53e36e1f58801471619b3b0e48f2bbec4c4e3bd57cd9c954430549",
        ("polygon-n3", "incenter"): "eae3668895bc56f92a1a40b6539c531d404691d2eb31ae29fc9dae2b912d94b3",
        ("polygon-n4", "clip"): "17913d7849274470389d538df29f46bc46db3fcbc105e03313f517d894d3d79a",
        ("polygon-n4", "incenter"): "8c11ef177d2a686c11da61309a7fb7c0a7573dd7b26bfd39a77e625dcd24b386",
        ("polygon-n5", "clip"): "9fa31e2ef5603f5ed3ba2e42413c0c208009b16564229e4539fdc8565eb820c6",
        ("polygon-n5", "incenter"): "6e9f12c6cad2e8315861618a545bd3bbbf3d1e17c624a1fdd7f346add5b3a64f",
        ("polygon-n6", "clip"): "15b890deef6f29d7efa35e71130c222e21a7d7df610627b16bf8dbd552048ac4",
        ("polygon-n6", "incenter"): "146304d5a6f702417bc06afbb08cbde264ccf4a83a1bafea36d4757307d887f0",
        ("polygon-n7", "clip"): "2abbafc64261fbed8aa333f4dbab25037972c98f26277d72600844d913572665",
        ("polygon-n7", "incenter"): "ef98c69608d82d6260d590239fd57066920b5dfd7f968efd2748848b3220f32c",
        ("polygon-n8", "clip"): "74ced92f2514bf9b7640da7560678e30e7e02abdd3cac9ccfb4808ab5e62bccc",
        ("polygon-n8", "incenter"): "df78cd852fadda3614d6ac29d53586ca192e47d4ff745b7fbd7173995ed79fb2",
        ("polygon-n9", "clip"): "cadc7191c940364006e98fda8035039f5edaa4313610e65c8c90003b58083ff2",
        ("polygon-n9", "incenter"): "b09a8a2a5512e124288a4bccf8acb25e03949eb7db98a8ae5868bafdb2a0ca6b",
        ("polygon-n10", "clip"): "f36208b2211ba123dc5e6004febc47db12f309f8b4db57def4a2a1abaf858dde",
        ("polygon-n10", "incenter"): "10e9eca6ff201be47b033be345ca7a468ff06dd8277154f965f2efceebece19d",
        ("polygon-n11", "clip"): "a5f8e6f8c9ee6a1476f0360a2b0ab8d19c39ee63ac55294d8fe26a0016e06260",
        ("polygon-n11", "incenter"): "8d27132b3531aabb83b3a59b6017df16512217334ccbf301d93785a9ee327f75",
        ("polygon-n12", "clip"): "f4b9bdf893b744296d807e41c94824be69eddeb1ea2a6b2ba1d79c7cb810b262",
        ("polygon-n12", "incenter"): "cdbe9e0ea3c9ede744a651ce773e146368bcbfb60af865239dcc0cb71dbaef2c",
    }

    @pytest.mark.parametrize("source,derive", sorted(PINS))
    def test_pinned_and_trivalent(self, source, derive):
        make, p, q, surface = self.SOURCES[source]
        src = make()
        F, E, V = len(src.faces), len(src.edges), len(src.vertices)
        if derive == "clip":
            c = clip_complex(src, p, q)
            cells, sizes = (2 * E, E + q * V, F + V), ((2 * p, F), (q, V))
        else:
            c = incenter_complex(src, p, q)
            cells, sizes = (2 * p * F, 3 * p * F, F + E + V), ((2 * p, F), (2 * q, V), (4, E))
        digest = hashlib.sha256(json.dumps(serialize(c)).encode()).hexdigest()
        assert digest == self.PINS[source, derive]
        assert (len(c.vertices), len(c.edges), len(c.faces)) == cells
        assert set(c.vertex_degrees().values()) == {3}
        census = Counter()
        for size, count in sizes:
            census[size] += count
        assert census_of(c) == dict(census)
        assert (c.chi, c.orientable, c.genus) == surface


# Every array and table a flag map holds, edge_faces (built on first read)
# included.
FLAG_MAP_FIELDS = (
    "faces", "base", "face", "edge", "rev", "first",
    "s1", "s2", "rotations", "vertex", "edge_faces",
)


class TestWalkOracle:
    """The derivations read each face off an orbit the flag map lists; the
    walk-based oracles step the same faces out one flag at a time."""

    ROUTES = {
        "clip": (clip_complex, walk_clip_complex),
        "incenter": (incenter_complex, walk_incenter_complex),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("source", sorted(TestMultiFaceSources.SOURCES))
    def test_same_complex_and_flag_map(self, source, route):
        make, p, q, _ = TestMultiFaceSources.SOURCES[source]
        src = make()
        derive, oracle = self.ROUTES[route]
        got, want = derive(src, p, q), oracle(src, p, q)
        assert got.vertices == want.vertices
        assert got.edges == want.edges
        assert got.faces == want.faces
        a, b = got.flag_map(), want.flag_map()
        for name in FLAG_MAP_FIELDS:
            assert getattr(a, name) == getattr(b, name), name


class TestDirectCounts:
    def test_table_anchors(self):
        assert semiregular_counts_direct((8, 8, 8), 4, False).n_v == 16
        assert semiregular_counts_direct((6, 6, 8), 4, False).n_v == 48
        assert semiregular_counts_direct((6, 6, 8), 3, False).n_v == 24

    def test_size_rule_admits_published_nonorientable_rows(self):
        got = semiregular_counts_direct((12, 12, 6), 3, False)
        assert (got.n_f, got.n_e, got.n_v) == (2, 9, 6)
        got = semiregular_counts_direct((16, 16, 4), 3, False)
        assert got.n_v == 8
        assert face_census(got) == {4: 2, 16: 1}

    def test_non_integer_face_sizes_rejected(self):
        with pytest.raises(TypeError, match="triple of integers"):
            semiregular_counts_direct((6.5, 6, 8), 4, False)

    @pytest.mark.parametrize(
        "m, error, message",
        [
            ((6, 6, 6), ValueError, "[6,6,6] is a Euclidean triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)"),
            ((4, 8, 8), ValueError, "[4,8,8] is a Euclidean triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)"),
            ((4, 6, 8), ValueError, "[4,6,8] is a spherical triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)"),
            ((6, 6.0, 8), TypeError, "vertex type must be a triple of integers"),
            ((6, "6", 8), TypeError, "vertex type must be a triple of integers"),
        ],
    )
    def test_invalid_triples_raise_exact_errors(self, m, error, message):
        for genus, orientable in ((4, False), (2, True)):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                semiregular_counts_direct(m, genus, orientable)

    def test_position_rule_is_stricter(self):
        # Both surfaces have chi = -2.
        assert semiregular_counts_direct((16, 16, 8), 2, True) is None
        assert semiregular_counts_direct((16, 16, 8), 4, False).n_v == 8

    def test_non_integral_vertex_count(self):
        # n_v = 40|chi|/7 for [8,10,10].
        assert semiregular_counts_direct((8, 10, 10), 4, False) is None

    def test_non_integral_size_class(self):
        # n_v = 6 is integral but only 6/10 of a decagon would fit.
        assert semiregular_counts_direct((6, 10, 15), 3, False) is None

    def test_agrees_with_clip_counts(self):
        for p, q, chi in [(8, 8, -2), (6, 6, -1), (8, 3, -2), (10, 10, -3)]:
            expect = clip_counts(p, q, chi)
            got = semiregular_counts_direct((2 * p, 2 * p, q), 2 - chi, False)
            assert got is not None
            assert (got.n_f, got.n_e, got.n_v) == (expect.n_f, expect.n_e, expect.n_v)

    def test_agrees_with_incenter_counts(self):
        for p, q, chi in [(8, 8, -2), (6, 6, -1), (8, 3, -2), (12, 3, -6)]:
            expect = incenter_counts(p, q, chi)
            got = semiregular_counts_direct((2 * p, 2 * q, 4), 2 - chi, False)
            assert got is not None
            assert (got.n_f, got.n_e, got.n_v) == (expect.n_f, expect.n_e, expect.n_v)

    def test_rejects_nonnegative_chi(self):
        # Orientable genus 1 and non-orientable genus 2 both have chi = 0.
        with pytest.raises(ValueError, match="genus must be"):
            semiregular_counts_direct((6, 6, 8), 1, True)
        with pytest.raises(ValueError, match="genus must be"):
            semiregular_counts_direct((6, 6, 8), 2, False)


def any_form_vertex_count(m, chi, position):
    """The admission rules restated with any() over generator expressions:
    n_v = 2|chi| m1 m2 m3 / den a positive even integer, then m_i | n_v at
    every position, or (multiplicity of s) * n_v divisible by s per size."""
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


class TestAdmittedVertexCount:
    # Every ordered triple of sizes 3..20, odd and repeated sizes included,
    # at the chi of orientable genus 2..6 and 12 and of non-orientable
    # genus 3..8 and 12.
    TRIPLES = [(a, b, c) for a in range(3, 21) for b in range(3, 21) for c in range(3, 21)]
    CHIS = sorted({2 - 2 * g for g in (2, 3, 4, 5, 6, 12)} | {2 - g for g in (3, 4, 5, 6, 7, 8, 12)})

    @pytest.mark.parametrize("position", [True, False], ids=["position", "size"])
    def test_admits_what_the_rule_admits(self, position):
        admitted = 0
        for chi in self.CHIS:
            for m in self.TRIPLES:
                want = any_form_vertex_count(m, chi, position)
                assert _admitted_vertex_count(m, chi, position) == want, (m, chi)
                admitted += want is not None
        assert admitted > 3000


class TestDerivedCountsType:
    def test_non_integral_face_census_rejected(self):
        # 3 n_v = 2 n_e holds, but 12 vertices carry 12/8 octagons.
        counts = DerivedCounts(n_f=4, n_e=18, n_v=12, signature=SemiRegularSig((6, 6, 8)))
        with pytest.raises(ValueError, match="^face count for size 8 is not integral: 12/8$"):
            face_census(counts)

    def test_rejects_non_trivalent(self):
        with pytest.raises(ValueError, match="tri-valent"):
            DerivedCounts(n_f=2, n_e=10, n_v=8, signature=SemiRegularSig((16, 16, 8)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            DerivedCounts(n_f=0, n_e=12, n_v=8, signature=SemiRegularSig((16, 16, 8)))
