"""Geometric distance estimator: anchors, conventions, monotonicity."""

import math

import pytest

from floqtess import geodist
from floqtess.catalog import build_table, enumerate_signatures, equivalence_check
from floqtess.geodist import (
    DistanceEstimate,
    _ceil_guard,
    estimate_distance,
)
from floqtess.hypgeo import SemiRegularSig, systole

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
        with pytest.raises(TypeError, match="triple of integers"):
            estimate_distance((6.5, 6, 8), 2, True)

    def test_takes_a_validated_signature(self):
        assert estimate_distance(SemiRegularSig((6, 6, 8)), 3, True) == estimate_distance(
            (6, 6, 8), 3, True
        )


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


# Every row a table prints over orientable g = 2..12 and non-orientable
# g = 3..12: 1171 rows over 338 distinct ordered triples.
SWEEP = [
    (m, g, o)
    for o, genera in ((True, range(2, 13)), (False, range(3, 13)))
    for g in genera
    for m in enumerate_signatures(g, o)
]


@pytest.fixture()
def cold_cache():
    geodist._chord_table.cache_clear()
    yield
    geodist._chord_table.cache_clear()


@pytest.fixture()
def solves(monkeypatch):
    """The ordered triples whose profile geodist solves, in call order."""
    seen = []
    real = geodist.semiregular_profile

    def spy(sig):
        seen.append(sig.m)
        return real(sig)

    monkeypatch.setattr(geodist, "semiregular_profile", spy)
    return seen


class TestChordCache:
    def test_sweep_size(self):
        assert len(SWEEP) == 1171
        assert len({m for m, _, _ in SWEEP}) == 338
        assert geodist._chord_table.cache_info().maxsize is None

    def test_cold_and_warm_estimates_agree(self, cold_cache):
        cold = []
        for row in SWEEP:
            geodist._chord_table.cache_clear()
            cold.append(estimate_distance(*row))
        for row in SWEEP:
            estimate_distance(*row)
        warm = [estimate_distance(*row) for row in SWEEP]
        assert warm == cold
        assert [e.as_json() for e in warm] == [e.as_json() for e in cold]

    @pytest.mark.parametrize("orientable", [True, False])
    @pytest.mark.parametrize("mode", ["auto", "geo"])
    def test_one_solve_per_triple_over_a_table(self, cold_cache, solves, orientable, mode):
        rows = build_table(range(2 if orientable else 3, 13), orientable, mode)
        estimated = {r.signature for r in rows if r.d_source == "geometric-estimate"}
        assert len(solves) == len(set(solves))
        assert set(solves) == estimated

    @pytest.mark.parametrize("h", [2, 3, 4, 5, 6])
    def test_one_solve_per_triple_within_equiv(self, cold_cache, solves, h):
        report = equivalence_check(h)
        estimated = {
            tuple(row["signature"]) for row in report.rows
            if "geometric-estimate" in (row["orientable"]["d_source"],
                                        row["nonorientable"]["d_source"])
        }
        assert len(solves) == len(set(solves))
        assert set(solves) == estimated

    def test_reordered_triple_keeps_its_own_classes(self, cold_cache):
        alone = estimate_distance((8, 6, 6), 2, True)
        geodist._chord_table.cache_clear()
        first = estimate_distance((6, 6, 8), 2, True)
        after = estimate_distance((8, 6, 6), 2, True)
        assert after == alone
        assert after.convention_tag == "red=8(class 0),X"
        assert first.convention_tag == "red=6(class 0),Z"
        assert [c[1:] for c in after.chords_used] == [
            c[1:] for c in (first.chords_used[2], first.chords_used[0], first.chords_used[1])
        ]

    def test_bad_triples_raise_on_every_call(self, cold_cache):
        for _ in range(3):
            with pytest.raises(ValueError, match="Euclidean"):
                estimate_distance((6, 6, 6), 2, True)
            with pytest.raises(TypeError, match="triple of integers"):
                estimate_distance((6.5, 6, 8), 2, True)
        assert geodist._chord_table.cache_info().currsize == 0
