"""Clipping and incenter subdivision: counts and explicit rewrites."""

import hashlib
import json
import re
from collections import Counter

import pytest

from floqtess.derive import (
    DerivedCounts,
    clip_complex,
    clip_counts,
    incenter_complex,
    incenter_counts,
    semiregular_counts_direct,
)
from floqtess.hypgeo import SemiRegularSig
from floqtess.surface import (
    _counts_from_chi,
    dual,
    fundamental_polygon,
    isomorphic,
    serialize,
)
from helpers import face_census
from test_coloring import honeycomb_torus


def census_of(c):
    return dict(Counter(len(face) for face in c.faces))


class TestClipCounts:
    def test_octagon_genus2(self):
        got = clip_counts(8, 8, -2)
        assert (got.n_f, got.n_e, got.n_v) == (2, 12, 8)
        assert tuple(got.signature.m) == (16, 16, 8)
        assert got.chi == -2

    def test_hexagon_nonorientable(self):
        got = clip_counts(6, 6, -1)
        assert got.n_v == 6
        assert tuple(got.signature.m) == (12, 12, 6)

    def test_chi_preserved_generally(self):
        for p, q, chi in [(8, 3, -2), (10, 3, -4), (8, 8, -6), (12, 3, -6)]:
            assert clip_counts(p, q, chi).chi == chi

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

    def test_face_order_groups_by_role(self):
        # 2p-gons first, then vertex 2q-gons, then edge quadrilaterals.
        src = fundamental_polygon(2, True)
        c = incenter_complex(src, 8, 8)
        sizes = [len(face) for face in c.faces]
        assert sizes == [16, 16, 4, 4, 4, 4]

    def test_dual_of_derived_is_involutive(self):
        c = incenter_complex(fundamental_polygon(2, True), 8, 8)
        assert isomorphic(dual(dual(c)), c)


class TestMultiFaceSources:
    """Derivations of multi-face tori ({6,3} honeycombs and a {3,6} dual)
    and of one-face fundamental polygons.

    The digests are sha256 of json.dumps(serialize(...)).  The tori's were
    taken from the derivations as they stood before they were rebuilt on
    flag-orbit walks, the polygons' before the walks gave way to flag
    slices; they pin names, edge and face order, start flags and directions.
    """

    TORUS = (0, True, 1)  # (chi, orientable, genus)
    SOURCES = {
        "honeycomb-2": (lambda: honeycomb_torus(2), 6, 3, TORUS),
        "honeycomb-3": (lambda: honeycomb_torus(3), 6, 3, TORUS),
        "honeycomb-4": (lambda: honeycomb_torus(4), 6, 3, TORUS),
        "dual-honeycomb-3": (lambda: dual(honeycomb_torus(3)), 3, 6, TORUS),
        "polygon-o2": (lambda: fundamental_polygon(2, True), 8, 8, (-2, True, 2)),
        "polygon-o5": (lambda: fundamental_polygon(5, True), 20, 20, (-8, True, 5)),
        "polygon-o12": (lambda: fundamental_polygon(12, True), 48, 48, (-22, True, 12)),
        "polygon-n3": (lambda: fundamental_polygon(3, False), 6, 6, (-1, False, 3)),
        "polygon-n8": (lambda: fundamental_polygon(8, False), 16, 16, (-6, False, 8)),
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
        ("polygon-o5", "clip"): "3cbe640a24b68e309eae79fce294a9e5f103ccbe5a1a78f1ea73b770bc5a144d",
        ("polygon-o5", "incenter"): "4c5be44e7c769751905163d298ec0943444b644bbbc2f96bc3995e35f311deae",
        ("polygon-o12", "clip"): "1243901f2555abf89220678a98337092b516e2bb89130962925f45d8e1be77e4",
        ("polygon-o12", "incenter"): "4a748ce524ede949457df1e99a765bd76cbeee560feb58ea4e353e78258cb2b5",
        ("polygon-n3", "clip"): "24b708ba7e53e36e1f58801471619b3b0e48f2bbec4c4e3bd57cd9c954430549",
        ("polygon-n3", "incenter"): "eae3668895bc56f92a1a40b6539c531d404691d2eb31ae29fc9dae2b912d94b3",
        ("polygon-n8", "clip"): "74ced92f2514bf9b7640da7560678e30e7e02abdd3cac9ccfb4808ab5e62bccc",
        ("polygon-n8", "incenter"): "df78cd852fadda3614d6ac29d53586ca192e47d4ff745b7fbd7173995ed79fb2",
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
