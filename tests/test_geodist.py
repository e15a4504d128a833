"""Geometric distance estimator: anchors, conventions, monotonicity."""

import hashlib
import importlib
import json
import math
from itertools import permutations

import numpy as np
import pytest

from floqtess import cli, derive, geodist, hypgeo
from floqtess.catalog import build_table, enumerate_signatures, equivalence_check
from floqtess.geodist import estimate_distance
from floqtess.hypgeo import SemiRegularSig, systole
import reference

# [6,6,8] family estimates across orientable genus 2..9; the winning
# convention flips between conventions as the systole grows.
HEXHEX_OCT_SEQ = [4, 5, 6, 6, 7, 7, 7, 8]

# An estimate's keys, in the order ``distance --mode geo`` prints them.
KEYS = ["d", "d_X", "d_Z", "systole", "chords", "convention"]


def ceiling(ratio):
    """The estimator's ceiling rule, restated on the test side:
    ceil(ratio - _CEIL_EPS), at least 1, of a positive finite ratio."""
    assert 0 < ratio < math.inf
    return max(1, math.ceil(ratio - geodist._CEIL_EPS))


def estimate_at_ratio(monkeypatch, ratio):
    """An estimate whose six systole/chord ratios all equal ``ratio``
    exactly: a systole of ``ratio`` over chords of length 1."""
    monkeypatch.setattr(geodist, "systole", lambda genus, orientable: ratio)
    monkeypatch.setattr(geodist, "_chord_table", lambda sig: ((0, 1.0, 1.0),) * 3)
    return estimate_distance((6, 6, 8), 2, True)


class TestCeilGuard:
    # The ceiling rule of estimate_distance itself, read off d_Z (and d_X,
    # twice it) of an estimate whose every ratio is the one given.
    def test_plain_values(self, monkeypatch):
        for ratio, want in [(2.3, 3), (0.4, 1)]:
            est = estimate_at_ratio(monkeypatch, ratio)
            assert (est["d_X"], est["d_Z"]) == (2 * want, want), ratio

    def test_exact_integers_stay_put(self, monkeypatch):
        for ratio, want in [(2.0, 2), (2.0 + 4e-16, 2), (1.0, 1)]:
            est = estimate_at_ratio(monkeypatch, ratio)
            assert (est["d_X"], est["d_Z"]) == (2 * want, want), ratio

    def test_rejects_nonpositive(self, monkeypatch):
        for ratio in (0.0, math.inf):
            with pytest.raises(ValueError) as info:
                estimate_at_ratio(monkeypatch, ratio)
            assert str(info.value) == f"ratio must be positive and finite, got {ratio}"


def per_red_class(m, genus, orientable=True):
    """(d_X, d_Z) for each red class, from the systole and chords an estimate used."""
    est = estimate_distance(m, genus, orientable)
    return [
        (2 * ceiling(est["systole"] / t_r), ceiling(est["systole"] / t_gb))
        for _, t_r, t_gb in est["chords"]
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
                assert estimate_distance(m, g, True)["d_X"] % 2 == 0
                for d_x, _ in per_red_class(m, g):
                    assert d_x % 2 == 0

    def test_red_index_checked(self):
        # Every red class is tried, each once, in index order.
        est = estimate_distance((6, 6, 8), 2, True)
        assert [red for red, _, _ in est["chords"]] == [0, 1, 2]
        best = min(min(pair) for pair in per_red_class((6, 6, 8), 2))
        assert est["d"] == max(2, best)

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
        assert est["d"] == 4
        assert est["convention"] == "red=6(class 0),Z"

    def test_incenter_class_anchor(self):
        est = estimate_distance((4, 16, 16), 2, True)
        assert est["d"] == 2
        assert est["d_Z"] == 2
        assert est["d_X"] == 4

    def test_family_sequence(self):
        got = [estimate_distance((6, 6, 8), g, True)["d"] for g in range(2, 10)]
        assert got == HEXHEX_OCT_SEQ

    def test_clamped_knife_edge(self):
        # systole / t_gb is exactly 1 here; without the clamp d would be 1.
        est = estimate_distance((6, 12, 12), 3, False)
        assert est["d"] == 2
        assert est["convention"].endswith(",clamped")

    def test_nonorientable_values(self):
        assert estimate_distance((4, 12, 12), 3, False)["d"] == 2
        assert estimate_distance((6, 6, 8), 3, False)["d"] == 3
        assert estimate_distance((8, 16, 16), 4, False)["d"] == 2

    def test_scaling_sig(self):
        assert estimate_distance((8, 8, 8), 5, True)["d"] == 4

    def test_monotone_in_genus(self):
        for m in [(6, 6, 8), (4, 6, 14), (4, 16, 16), (8, 8, 8)]:
            seq = [estimate_distance(m, g, True)["d"] for g in range(2, 31)]
            assert seq == sorted(seq)
        for m in [(6, 6, 8), (4, 12, 12)]:
            seq = [estimate_distance(m, g, False)["d"] for g in range(3, 31)]
            assert seq == sorted(seq)

    def test_deterministic(self):
        a = estimate_distance((4, 8, 10), 2, True)
        b = estimate_distance((4, 8, 10), 2, True)
        assert a == b

    def test_systole_recorded(self):
        est = estimate_distance((6, 6, 8), 4, True)
        assert est["systole"] == systole(4, True)
        assert len(est["chords"]) == 3

    def test_json_shape(self):
        doc = estimate_distance((6, 6, 8), 2, True)
        assert list(doc) == KEYS
        assert doc["d"] == 4


# Every row a table prints over orientable g = 2..12 and non-orientable
# g = 3..12: 1171 rows over 338 distinct ordered triples.
SWEEP = [
    (m, g, o)
    for o, genera in ((True, range(2, 13)), (False, range(3, 13)))
    for g in genera
    for m in enumerate_signatures(g, o)
]


class TestEstimateDocument:
    def test_invariants(self):
        # What the clamp and the doubled ceiling make of every row.
        for row in SWEEP:
            doc = estimate_distance(*row)
            assert list(doc) == KEYS, row
            low = min(doc["d_X"], doc["d_Z"])
            assert doc["d"] == max(2, low) >= 2, row
            assert doc["d_X"] % 2 == 0, row
            assert doc["convention"].endswith(",clamped") == (low < 2), row

    def test_ceilings_are_the_guards(self):
        # The estimator's ceilings give what the test-side rule gives: the
        # winning red class's (d_X, d_Z), recomputed, on every row.
        for row in SWEEP:
            doc = estimate_distance(*row)
            red = int(doc["convention"].split("(class ", 1)[1][0])
            _, t_r, t_gb = doc["chords"][red]
            want = (2 * ceiling(doc["systole"] / t_r), ceiling(doc["systole"] / t_gb))
            assert (doc["d_X"], doc["d_Z"]) == want, row

    @pytest.mark.parametrize(
        "t_r, t_gb, got",
        [(math.inf, 1.0, "0.0"), (1.0, math.inf, "0.0"), (math.nan, 1.0, "nan"),
         (1.0, -1.0, "-3.057141838961996"), (1e-320, 1.0, "inf")],
        ids=["x-zero", "z-zero", "x-nan", "z-negative", "x-overflow"],
    )
    def test_out_of_range_ratios_raise_the_guards_error(self, monkeypatch, t_r, t_gb, got):
        # The genus-2 systole over the one bad chord, X checked first.
        monkeypatch.setattr(geodist, "_chord_table", lambda sig: ((0, t_r, t_gb),) * 3)
        with pytest.raises(ValueError) as info:
            estimate_distance((6, 6, 8), 2, True)
        assert str(info.value) == f"ratio must be positive and finite, got {got}"

    # sha256 of the rounded, indented estimate documents of every SWEEP row,
    # as ``distance --mode geo`` rounds and indents its own; taken before
    # the estimate was a plain dict.  The only pin on X-convention documents.
    SWEEP_SHA = "ecc463288064849ae708e4c77024c14480deae3fa692a80860ca764d8285d630"

    def test_sweep_documents_pinned(self):
        docs = [estimate_distance(*row) for row in SWEEP]
        text = json.dumps(cli._round12(docs), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SWEEP_SHA
        kinds = [doc["convention"].split(",", 1)[1] for doc in docs]
        assert {k: kinds.count(k) for k in set(kinds)} == {"Z": 1103, "X": 30, "Z,clamped": 38}


def test_estimate_equals_the_search_on_every_exact_row():
    # Auto settles 12 rows by the exact search, each an incenter row with
    # n <= 40: orientable g = 2..5 and non-orientable g = 3..10.  The
    # estimate gives the same d on every one (d = 2 on all of them).
    exact = [
        r for o, genera in ((True, range(2, 13)), (False, range(3, 13)))
        for r in build_table(genera, o) if r.d_source == "exact"
    ]
    assert [(r.genus, r.orientable) for r in exact] == (
        [(g, True) for g in range(2, 6)] + [(g, False) for g in range(3, 11)]
    )
    for r in exact:
        assert r.n <= 40
        assert estimate_distance(r.signature, r.genus, r.orientable)["d"] == r.d, r


def clear_caches():
    geodist._chord_table.cache_clear()
    hypgeo._SEMIREGULAR.clear()


@pytest.fixture()
def cold_cache():
    clear_caches()
    yield
    clear_caches()


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
            tuple(row["signature"]) for row in report["rows"]
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
        assert after["convention"] == "red=8(class 0),X"
        assert first["convention"] == "red=6(class 0),Z"
        chords = first["chords"]
        assert [c[1:] for c in after["chords"]] == [
            c[1:] for c in (chords[2], chords[0], chords[1])
        ]

    def test_a_cached_systole_keeps_the_genus_checks(self, cold_cache):
        # After an estimate at (2, True), pairs that the genus check
        # rejects, equal to (2, True) or not, raise what systole raises, on
        # every call.
        estimate_distance((6, 6, 8), 2, True)
        for genus, orientable in [(2.0, True), (np.int64(2), True), ([2], True),
                                  (2, 0), (2, [])]:
            with pytest.raises((TypeError, ValueError)) as want:
                systole(genus, orientable)
            for _ in range(2):
                with pytest.raises(want.type) as got:
                    estimate_distance((6, 6, 8), genus, orientable)
                assert str(got.value) == str(want.value)

    def test_memos_hold_one_entry_per_triple(self, cold_cache):
        # The benchmark's table sweep, cold: the signature checks and the
        # chords are memoized once per distinct triple, and nothing per row
        # (no vertex count and no systole is kept).
        rows = [r for o, genera in ((True, range(2, 6)), (False, range(3, 6)))
                for r in build_table(genera, o)]
        triples = {r.signature for r in rows}
        estimated = {r.signature for r in rows if r.d_source == "geometric-estimate"}
        assert len(rows) > len(triples) > len(estimated) > 0
        assert set(hypgeo._SEMIREGULAR) == triples
        assert all(sig.m == m for m, sig in hypgeo._SEMIREGULAR.items())
        assert geodist._chord_table.cache_info().currsize == len(estimated)
        assert not hasattr(derive._admitted_vertex_count, "cache_info")
        modules = ("catalog", "cli", "coloring", "derive", "floquet", "geodist",
                   "hypgeo", "surface")
        memoized = {
            (name, attr)
            for name in modules
            for attr, value in vars(importlib.import_module(f"floqtess.{name}")).items()
            if hasattr(value, "cache_info")
        }
        assert memoized == {("geodist", "_chord_table"), ("cli", "_build_parser")}

    def test_chords_equal_the_oracle_bit_for_bit(self, cold_cache):
        # Every ordering of every table triple, each solved cold, against
        # the chords as first written; == sees a last-bit change that the
        # 12-digit CLI digests round away.
        triples = {p for m, _, _ in SWEEP for p in permutations(m)}
        assert len(triples) == 1516
        for m in sorted(triples):
            geodist._chord_table.cache_clear()
            assert geodist._chord_table(m) == reference.chord_table(m), m

    @pytest.mark.parametrize("gap", [0.0, -0.5, math.nan])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_gap_not_positive_raises(self, cold_cache, monkeypatch, gap, at):
        real = geodist.semiregular_profile

        def profile(sig):
            doc = real(sig)
            doc["incenter_gaps"][at] = gap
            return doc

        monkeypatch.setattr(geodist, "semiregular_profile", profile)
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                estimate_distance((6, 6, 8), 2, True)
            assert str(info.value) == "incenter gap must be positive"
        assert geodist._chord_table.cache_info().currsize == 0

    def test_bad_triples_raise_on_every_call(self, cold_cache):
        for _ in range(3):
            with pytest.raises(ValueError, match="Euclidean"):
                estimate_distance((6, 6, 6), 2, True)
            with pytest.raises(TypeError, match="triple of integers"):
                estimate_distance((6.5, 6, 8), 2, True)
        assert geodist._chord_table.cache_info().currsize == 0
