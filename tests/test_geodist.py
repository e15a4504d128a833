"""Geometric distance estimator: anchors, conventions, monotonicity."""

import math

import pytest

from floqtess.geodist import (
    DistanceEstimate,
    _ceil_guard,
    estimate_distance,
)
from floqtess.hypgeo import systole

# [6,6,8] family estimates across orientable genus 2..9; the winning
# convention flips between conventions as the systole grows.
HEXHEX_OCT_SEQ = [4, 5, 6, 6, 7, 7, 7, 8]


class TestCeilGuard:
    def test_plain_values(self):
        assert _ceil_guard(2.3) == 3
        assert _ceil_guard(0.4) == 1

    def test_exact_integers_stay_put(self):
        assert _ceil_guard(2.0) == 2
        assert _ceil_guard(2.0 + 4e-16) == 2
        assert _ceil_guard(1.0) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _ceil_guard(0.0)
        with pytest.raises(ValueError):
            _ceil_guard(math.inf)


def per_red_class(m, genus, orientable=True):
    """(d_X, d_Z) for each red class, from the systole and chords an estimate used."""
    est = estimate_distance(m, genus, orientable)
    return [
        (2 * _ceil_guard(est.systole_used / t_r), _ceil_guard(est.systole_used / t_gb))
        for _, t_r, t_gb in est.chords_used
    ]


class TestSingleConvention:
    def test_octagon_red_dX(self):
        # systole / chord is exactly 2 for this family; doubling gives 4.
        assert per_red_class((6, 6, 8), 2)[2][0] == 4

    def test_octagon_red_dZ(self):
        assert per_red_class((6, 6, 8), 2)[2][1] == 5

    def test_dX_always_even(self):
        for m in [(6, 6, 8), (4, 8, 10), (4, 6, 14), (8, 8, 8)]:
            for g in (2, 3, 5):
                assert estimate_distance(m, g, True).d_X % 2 == 0
                for d_x, _ in per_red_class(m, g):
                    assert d_x % 2 == 0

    def test_red_index_checked(self):
        # Every red class is tried, each once, in index order.
        est = estimate_distance((6, 6, 8), 2, True)
        assert [red for red, _, _ in est.chords_used] == [0, 1, 2]
        best = min(min(pair) for pair in per_red_class((6, 6, 8), 2))
        assert est.d == max(2, best)

    def test_inadmissible_signature(self):
        with pytest.raises(ValueError, match="Euclidean"):
            estimate_distance((6, 6, 6), 2, True)


class TestEstimateDistance:
    def test_hexhex_octagon_anchor(self):
        est = estimate_distance((6, 6, 8), 2, True)
        assert est.d == 4
        assert est.convention_tag == "red=6(class 0),Z"

    def test_incenter_class_anchor(self):
        est = estimate_distance((4, 16, 16), 2, True)
        assert est.d == 2
        assert est.d_Z == 2
        assert est.d_X == 4

    def test_family_sequence(self):
        got = [estimate_distance((6, 6, 8), g, True).d for g in range(2, 10)]
        assert got == HEXHEX_OCT_SEQ

    def test_clamped_knife_edge(self):
        # systole / t_gb is exactly 1 here; without the clamp d would be 1.
        est = estimate_distance((6, 12, 12), 3, False)
        assert est.d == 2
        assert est.convention_tag.endswith(",clamped")

    def test_nonorientable_values(self):
        assert estimate_distance((4, 12, 12), 3, False).d == 2
        assert estimate_distance((6, 6, 8), 3, False).d == 3
        assert estimate_distance((8, 16, 16), 4, False).d == 2

    def test_scaling_sig(self):
        assert estimate_distance((8, 8, 8), 5, True).d == 4

    def test_monotone_in_genus(self):
        for m in [(6, 6, 8), (4, 6, 14), (4, 16, 16), (8, 8, 8)]:
            seq = [estimate_distance(m, g, True).d for g in range(2, 31)]
            assert seq == sorted(seq)
        for m in [(6, 6, 8), (4, 12, 12)]:
            seq = [estimate_distance(m, g, False).d for g in range(3, 31)]
            assert seq == sorted(seq)

    def test_deterministic(self):
        a = estimate_distance((4, 8, 10), 2, True)
        b = estimate_distance((4, 8, 10), 2, True)
        assert a == b

    def test_systole_recorded(self):
        est = estimate_distance((6, 6, 8), 4, True)
        assert est.systole_used == systole(4, True)
        assert len(est.chords_used) == 3

    def test_json_shape(self):
        doc = estimate_distance((6, 6, 8), 2, True).as_json()
        assert set(doc) == {"d", "d_X", "d_Z", "systole", "chords", "convention"}
        assert doc["d"] == 4


class TestDistanceEstimateType:
    def test_invariants(self):
        with pytest.raises(ValueError, match="d >= 2"):
            DistanceEstimate(2, 1, 1, 1.0, (), "t")
        with pytest.raises(ValueError, match="even"):
            DistanceEstimate(3, 2, 2, 1.0, (), "t")
