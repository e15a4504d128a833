"""Clipping and incenter subdivision: counts and explicit rewrites."""

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
from floqtess.surface import _counts_from_chi, dual, fundamental_polygon, isomorphic


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
        assert got.face_census() == {4: 4, 16: 2}

    def test_hexagon_nonorientable(self):
        got = incenter_counts(6, 6, -1)
        assert got.n_v == 12
        assert got.face_census() == {4: 3, 12: 2}

    def test_trivalent_octagonal_genus2(self):
        got = incenter_counts(8, 3, -2)
        assert got.n_v == 96
        assert tuple(got.signature.m) == (16, 6, 4)

    def test_census_matches_source_cells(self):
        # {2p: F, 2q: V, 4: E}, merging coincident sizes.
        for p, q, chi in [(8, 3, -2), (8, 8, -2), (10, 3, -4), (6, 6, -1)]:
            F, E, V = _counts_from_chi(p, q, chi)
            census = incenter_counts(p, q, chi).face_census()
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


class TestDirectCounts:
    def test_table_anchors(self):
        assert semiregular_counts_direct((8, 8, 8), -2).n_v == 16
        assert semiregular_counts_direct((6, 6, 8), -2).n_v == 48
        assert semiregular_counts_direct((6, 6, 8), -1).n_v == 24

    def test_size_rule_admits_published_nonorientable_rows(self):
        got = semiregular_counts_direct((12, 12, 6), -1)
        assert (got.n_f, got.n_e, got.n_v) == (2, 9, 6)
        got = semiregular_counts_direct((16, 16, 4), -1)
        assert got.n_v == 8
        assert got.face_census() == {4: 2, 16: 1}

    def test_non_integer_face_sizes_rejected(self):
        with pytest.raises(TypeError, match="triple of integers"):
            semiregular_counts_direct((6.5, 6, 8), -2)

    def test_position_rule_is_stricter(self):
        assert semiregular_counts_direct((12, 12, 6), -1, "position") is None
        assert semiregular_counts_direct((16, 16, 8), -2, "position") is None
        assert semiregular_counts_direct((16, 16, 8), -2, "size").n_v == 8

    def test_non_integral_vertex_count(self):
        # n_v = 40|chi|/7 for [8,10,10].
        assert semiregular_counts_direct((8, 10, 10), -2) is None

    def test_non_integral_size_class(self):
        # n_v = 6 is integral but only 6/10 of a decagon would fit.
        assert semiregular_counts_direct((6, 10, 15), -1) is None

    def test_agrees_with_clip_counts(self):
        for p, q, chi in [(8, 8, -2), (6, 6, -1), (8, 3, -2), (10, 10, -3)]:
            expect = clip_counts(p, q, chi)
            got = semiregular_counts_direct((2 * p, 2 * p, q), chi)
            assert got is not None
            assert (got.n_f, got.n_e, got.n_v) == (expect.n_f, expect.n_e, expect.n_v)

    def test_agrees_with_incenter_counts(self):
        for p, q, chi in [(8, 8, -2), (6, 6, -1), (8, 3, -2), (12, 3, -6)]:
            expect = incenter_counts(p, q, chi)
            got = semiregular_counts_direct((2 * p, 2 * q, 4), chi)
            assert got is not None
            assert (got.n_f, got.n_e, got.n_v) == (expect.n_f, expect.n_e, expect.n_v)

    def test_rejects_bad_rule_name(self):
        with pytest.raises(ValueError, match="integrality"):
            semiregular_counts_direct((6, 6, 8), -2, "strict")

    def test_rejects_nonnegative_chi(self):
        with pytest.raises(ValueError, match="characteristic"):
            semiregular_counts_direct((6, 6, 8), 0)


class TestDerivedCountsType:
    def test_rejects_non_trivalent(self):
        with pytest.raises(ValueError, match="tri-valent"):
            DerivedCounts(n_f=2, n_e=10, n_v=8, signature=SemiRegularSig((16, 16, 8)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            DerivedCounts(n_f=0, n_e=12, n_v=8, signature=SemiRegularSig((16, 16, 8)))
