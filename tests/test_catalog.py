"""Catalog: enumeration, tables, genus equivalence; reference reports and rates."""

import csv
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from floqtess import catalog, cli
from floqtess.catalog import (
    CSV_HEADER,
    build_table,
    default_m_max,
    enumerate_signatures,
    equivalence_check,
    table_to_csv,
)
from floqtess.derive import _admitted_vertex_count, semiregular_counts_direct
from floqtess.floquet import code_params
from helpers import face_census
import reference
from reference import encoding_rate, estimator_report, family_report


class TestReferenceData:
    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_orientable_rows_recount(self, genus):
        for row in reference.SEMIREGULAR_ORIENTABLE[genus]:
            counts = semiregular_counts_direct(row.m, genus, True)
            assert counts is not None and counts[0] == row.n
            assert row.k == 2 * genus

    @pytest.mark.parametrize("genus", [3, 5, 7])
    def test_nonorientable_rows_recount(self, genus):
        for row in reference.SEMIREGULAR_NONORIENTABLE[genus]:
            counts = semiregular_counts_direct(row.m, genus, False)
            assert counts is not None and counts[0] == row.n
            assert row.k == genus

    def test_regular_rows_as_quasi_regular_triples(self):
        for genus, p, n, k, d in reference.REGULAR_ORIENTABLE:
            counts = semiregular_counts_direct((p, p, p), genus, True)
            assert counts is not None and counts[0] == n
            assert k == 2 * genus

    def test_family_closed_forms(self):
        for row in reference.HEXHEX_ORIENTABLE:
            assert (row.n, row.k) == (48 * (row.genus - 1), 2 * row.genus)
        for row in reference.HEXHEX_NONORIENTABLE:
            assert (row.n, row.k) == (24 * (row.genus - 2), row.genus)

    def test_ratio_checker_flags_exactly_one_row(self):
        bad_o = [r.genus for r in reference.HEXHEX_ORIENTABLE
                 if not reference.ratios_consistent(r)]
        bad_no = [r.genus for r in reference.HEXHEX_NONORIENTABLE
                  if not reference.ratios_consistent(r)]
        assert bad_o == [8] and bad_no == []

    def test_flagged_row_ratios_fit_half_its_n(self):
        # The one flagged row's printed ratios all reproduce from n/2,
        # pinning the inconsistency to the row itself.
        row = next(r for r in reference.HEXHEX_ORIENTABLE if r.genus == 8)
        half = row._replace(n=row.n // 2)
        assert reference.ratios_consistent(half)

    def test_dedup_collapses_repeated_listing(self):
        table = reference.SEMIREGULAR_NONORIENTABLE[3]
        unique = reference.dedup(table)
        assert len(table) == 16 and len(unique) == 13
        assert len(set(unique)) == len(unique)


def fraction_enumeration(genus, orientable, m_max=None):
    """Brute-force reference: every even triple, admitted in Fraction arithmetic."""
    chi = 2 - 2 * genus if orientable else 2 - genus
    if m_max is None:
        m_max = 12 * abs(chi) + 12
    inverse = {x: Fraction(1, x) for x in range(4, m_max + 1, 2)}
    out = []
    for m in combinations_with_replacement(sorted(inverse), 3):
        slack = inverse[m[0]] + inverse[m[1]] + inverse[m[2]] - Fraction(1, 2)
        if slack >= 0:
            continue
        n_v = chi / slack
        if n_v.denominator != 1 or n_v.numerator % 2:
            continue
        per_size = {}
        for x in m:
            per_size[x] = per_size.get(x, 0) + n_v / x
        if any(count.denominator != 1 for count in per_size.values()):
            continue
        if orientable and any((n_v / x).denominator != 1 for x in m):
            continue
        out.append(m)
    return tuple(out)


def unfiltered_enumeration(genus, orientable, m_max=None):
    """The bounded loop without the inline n_v test: every m3 up to the
    bound goes through _admitted_vertex_count."""
    chi = 2 - 2 * genus if orientable else 2 - genus
    if m_max is None:
        m_max = default_m_max(chi)
    scale = 2 * (1 if orientable else 3) * abs(chi) + 2
    out = []
    for m1 in range(4, m_max + 1, 2):
        for m2 in range(m1, m_max + 1, 2):
            c = m1 * m2 - 2 * (m1 + m2)
            if c <= 0:
                continue
            top = min(m_max, scale * m1 * m2 // c)
            if top < m2:
                break
            for m3 in range(m2, top + 1, 2):
                if _admitted_vertex_count((m1, m2, m3), chi, orientable) is not None:
                    out.append((m1, m2, m3))
    return tuple(out)


# Caps from the smallest allowed to one below the default, at the two lowest genera.
M_MAX_VARIANTS = [
    (g, o, m_max)
    for g, o in ((2, True), (3, False))
    for m_max in (4, 5, 20, default_m_max(2 - (2 * g if o else g)) - 1)
]


class TestEnumerateSignatures:
    def test_rejects_small_m_max(self):
        with pytest.raises(ValueError) as info:
            enumerate_signatures(2, True, 2)
        assert str(info.value) == "m_max must be at least 4, got 2"

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_orientable_matches_reference_exactly(self, genus):
        sigs = enumerate_signatures(genus, True)
        assert set(sigs) == {r.m for r in reference.SEMIREGULAR_ORIENTABLE[genus]}

    @pytest.mark.parametrize("genus", [3, 5, 7])
    def test_nonorientable_covers_reference(self, genus):
        sigs = set(enumerate_signatures(genus, False))
        printed = {r.m for r in reference.SEMIREGULAR_NONORIENTABLE[genus]}
        assert printed <= sigs

    @pytest.mark.parametrize(
        "genus, orientable, m_max",
        [(g, True, None) for g in range(2, 9)]
        + [(g, False, None) for g in range(3, 13)]
        + M_MAX_VARIANTS,
    )
    def test_matches_fraction_oracle(self, genus, orientable, m_max):
        assert enumerate_signatures(genus, orientable, m_max) == fraction_enumeration(
            genus, orientable, m_max
        )

    @pytest.mark.parametrize(
        "genus, orientable, m_max",
        [(g, True, None) for g in range(2, 31)]
        + [(g, False, None) for g in range(3, 31)]
        + M_MAX_VARIANTS,
    )
    def test_inline_n_v_test_drops_no_triple(self, genus, orientable, m_max):
        assert enumerate_signatures(genus, orientable, m_max) == unfiltered_enumeration(
            genus, orientable, m_max
        )

    @pytest.mark.parametrize("genus, orientable", [(2, True), (7, True), (3, False), (12, False)])
    def test_admitted_triples_satisfy_the_m3_bound(self, genus, orientable):
        # The m3 loop stops where n_v < m3 (position rule) or 3 n_v < m3
        # (size rule); no admitted triple may lie there.
        reach = 1 if orientable else 3
        for m in enumerate_signatures(genus, orientable):
            n_v, _, n_f = semiregular_counts_direct(m, genus, orientable)
            assert reach * n_v >= m[2]
            assert n_f == sum(face_census(m, n_v).values())

    @pytest.mark.parametrize(
        "genus, orientable",
        [(g, True) for g in range(2, 31)] + [(g, False) for g in range(3, 31)],
    )
    def test_default_cap_loses_nothing(self, genus, orientable):
        # The wide cap lies above the m3 loop's own bound at (4, 6),
        # 6 (2 reach |chi| + 2), the largest over even pairs, so only the
        # proven m3 bound stops the wide loops.
        chi = 2 - 2 * genus if orientable else 2 - genus
        wide = enumerate_signatures(genus, orientable, m_max=4 * default_m_max(chi))
        assert wide == enumerate_signatures(genus, orientable)

    @pytest.mark.parametrize(
        "genus, orientable",
        [(g, True) for g in range(2, 7)] + [(g, False) for g in range(3, 9)],
    )
    def test_admitted_counts_agree_with_code_params(self, genus, orientable):
        # enumerate_signatures and semiregular_counts_direct both admit
        # through _admitted_vertex_count; code_params takes n from the latter.
        for m in enumerate_signatures(genus, orientable):
            n_v, _, _ = semiregular_counts_direct(m, genus, orientable)
            assert n_v == code_params(m, genus, orientable, "geo").n

    def test_sorted_lexicographically(self):
        sigs = enumerate_signatures(2, True)
        assert list(sigs) == sorted(sigs)
        assert all(m[0] <= m[1] <= m[2] for m in sigs)

    def test_euclidean_triple_absent(self):
        assert (6, 6, 6) not in enumerate_signatures(2, True, m_max=36)

    def test_two_face_complex_signature_present_nonorientable(self):
        # Size-merged counting admits triples the position rule rejects:
        # at chi = -1 the (6,12,12) type has n = 6 and one 12-gon per
        # *size*, half a face per position.
        assert (6, 12, 12) in enumerate_signatures(3, False)
        assert semiregular_counts_direct((6, 12, 12), 3, False)[0] == 6

    def test_default_bound_is_attained(self):
        chi = 2 - 2 * 2
        top = default_m_max(chi)
        assert top == 36
        assert (4, 6, top) in enumerate_signatures(2, True)

    def test_m_max_validation(self):
        with pytest.raises(ValueError):
            enumerate_signatures(2, True, m_max=2)
        with pytest.raises(ValueError):
            default_m_max(0)

    def test_genus_floors(self):
        with pytest.raises(ValueError):
            enumerate_signatures(1, True)
        with pytest.raises(ValueError):
            enumerate_signatures(2, False)


class TestBuildTable:
    def test_genus2_orientable_auto(self):
        rows = build_table(2, True, "auto")
        ref = {r.m: r for r in reference.SEMIREGULAR_ORIENTABLE[2]}
        assert len(rows) == 22
        for row in rows:
            assert (row.n, row.k) == (ref[row.signature].n, ref[row.signature].k)
            assert abs(row.d - ref[row.signature].d) <= 1

    def test_exact_rows_marked(self):
        rows = build_table(2, True, "auto")
        by_sig = {r.signature: r for r in rows}
        assert by_sig[(4, 16, 16)].d_source == "exact"
        assert by_sig[(4, 16, 16)].d == 2
        assert by_sig[(6, 6, 8)].d_source == "geometric-estimate"

    def test_rows_conserve_euler_characteristic(self):
        for row in build_table(3, False, "geo"):
            slack = sum(Fraction(1, x) for x in row.signature) - Fraction(1, 2)
            assert row.n * slack == 2 - 3  # chi of the genus-3 crosscap surface

    def test_ratio_columns_exact(self):
        # JSON carries the correctly rounded float of each exact ratio, and
        # the CSV prints that float to 12 significant digits.
        rows = build_table(2, True, "auto")
        lines = csv.reader(table_to_csv(rows).splitlines()[1:])
        for row, line in zip(rows, lines, strict=True):
            exact = [float(Fraction(row.k, row.n)),
                     float(Fraction(row.k * row.d**2, row.n)),
                     float(Fraction(row.d, row.n))]
            doc = row.as_json()
            assert [doc["k_n"], doc["kd2_n"], doc["d_n"]] == exact
            assert line[-3:] == [f"{x:.12g}" for x in exact]

    def test_deterministic(self):
        a = build_table((3, 2), True, "geo")
        b = build_table([2, 3, 3], True, "geo")
        assert a == b
        assert table_to_csv(a) == table_to_csv(b)


class TestFamilyTable:
    def test_orientable_scaling(self):
        genera = [r.genus for r in reference.HEXHEX_ORIENTABLE]
        rows = [code_params((6, 6, 8), g, True, "geo") for g in genera]
        for row in rows:
            assert (row.n, row.k) == (48 * (row.genus - 1), 2 * row.genus)

    def test_orientable_estimates_through_genus9(self):
        rows = [code_params((6, 6, 8), g, True, "geo") for g in range(2, 10)]
        assert [r.d for r in rows] == [4, 5, 6, 6, 7, 7, 7, 8]

    def test_nonorientable_scaling(self):
        genera = [r.genus for r in reference.HEXHEX_NONORIENTABLE]
        rows = [code_params((6, 6, 8), g, False, "geo") for g in genera]
        for row in rows:
            assert (row.n, row.k) == (24 * (row.genus - 2), row.genus)

    def test_genus4_nonorientable_equals_genus2_orientable(self):
        no_row = code_params((6, 6, 8), 4, False, "geo")
        o_row = code_params((6, 6, 8), 2, True, "geo")
        assert (no_row.n, no_row.k, no_row.d) == (o_row.n, o_row.k, o_row.d) == (48, 4, 4)


class TestSerialization:
    def test_csv_header(self):
        text = table_to_csv(build_table(2, True, "geo"))
        assert text.splitlines()[0] == ",".join(CSV_HEADER)

    def test_csv_quotes_signature(self):
        text = table_to_csv(build_table(2, True, "geo"))
        assert '"[4,6,14]"' in text.splitlines()[1]

    def test_csv_floats_12_sig_digits(self):
        row = build_table(2, True, "geo")[0]  # [4,6,14]: k/n = 4/168
        line = table_to_csv([row]).splitlines()[1]
        assert "0.0238095238095" in line

    def test_json_rows(self):
        docs = [r.as_json() for r in build_table(2, True, "geo")[:1]]
        doc = docs[0]
        assert doc["signature"] == [4, 6, 14]
        assert doc["d_source"] == "geometric-estimate"
        assert doc["k_n"] == pytest.approx(4 / 168)
        assert "convention" in doc


class TestEstimatorReport:
    def test_genus2_within_tolerance(self):
        report = estimator_report(2, True)
        assert report["ok"]
        assert len(report["rows"]) == 22
        deltas = {tuple(e["signature"]): e["delta"] for e in report["deviations"]}
        assert deltas == {(4, 8, 16): -1, (8, 8, 8): -1}

    def test_rows_carry_convention(self):
        report = estimator_report(2, True)
        assert all(e["convention"] for e in report["rows"])

    def test_nonorientable_report_shape(self):
        report = estimator_report(3, False)
        assert report["genus"] == 3 and not report["orientable"]
        assert {tuple(e["signature"]) for e in report["rows"]} == {
            r.m for r in reference.SEMIREGULAR_NONORIENTABLE[3]
        }


class TestFamilyReport:
    def test_orientable_flags_inconsistent_row(self):
        report = family_report(True)
        assert [e["genus"] for e in report["flagged"]] == [8]
        assert report["ok"]

    def test_inconsistent_row_still_reported(self):
        report = family_report(True)
        entry = next(e for e in report["deviations"] if e["genus"] == 8)
        assert entry["reference_d"] == 5 and not entry["reference_row_consistent"]

    def test_genus_filter(self):
        report = family_report(True, genera=range(2, 10))
        assert [e["genus"] for e in report["rows"]] == list(range(2, 10))


def _odd(rows) -> list:
    return [(e["genus"], tuple(e["signature"]), e["reference_d"])
            for e in rows if e["parity"] == "odd"]


class TestParity:
    """Odd reference distances, listed per table (visible under ``-s``).

    Every exact distance of a face-coloured schedule measured so far is
    even, so no such schedule can reproduce an odd published d.
    """

    @pytest.mark.parametrize("orientable, odd, total", [(True, 66, 159), (False, 0, 77)])
    def test_semiregular_odd_rows(self, orientable, odd, total):
        tables = (reference.SEMIREGULAR_ORIENTABLE if orientable
                  else reference.SEMIREGULAR_NONORIENTABLE)
        rows = [e for g in sorted(tables) for e in estimator_report(g, orientable)["rows"]]
        assert all(e["parity"] == ("even", "odd")[e["reference_d"] % 2] for e in rows)
        listed = _odd(rows)
        print(f"odd semi-regular reference d, orientable={orientable}: {listed}")
        assert (len(listed), len(rows)) == (odd, total)

    @pytest.mark.parametrize("orientable, odd_genera", [
        (True, [3, 6, 7, 8, 13, 14, 15, 16, 17, 18, 30, 40]),
        (False, []),
    ])
    def test_family_odd_rows(self, orientable, odd_genera):
        rows = family_report(orientable)["rows"]
        assert all(e["parity"] == ("even", "odd")[e["reference_d"] % 2] for e in rows)
        listed = _odd(rows)
        print(f"odd [6,6,8] reference d, orientable={orientable}: {listed}")
        assert len(rows) == 31
        assert [g for g, _, _ in listed] == odd_genera


class TestRates:
    def test_doubled_rate_matches_quoted_hexagonal_form(self):
        # (g/(g-1)) * (p-3)/(3p) for [6,6,2p], exactly, at any scale.
        for g, p in [(2, 4), (7, 19), (100, 100), (1000, 1000)]:
            quoted = Fraction(g, g - 1) * Fraction(p - 3, 3 * p)
            assert 2 * encoding_rate((6, 6, 2 * p), g) == quoted

    def test_doubled_rate_matches_quoted_even_pair_form(self):
        # (g/(g-1)) * (pq-p-2q)/(pq) for [2p,2p,2q].
        for g, p, q in [(2, 4, 5), (3, 7, 9), (100, 100, 100)]:
            quoted = Fraction(g, g - 1) * Fraction(p * q - p - 2 * q, p * q)
            assert 2 * encoding_rate((2 * p, 2 * p, 2 * q), g) == quoted

    def test_doubled_is_twice_measured(self):
        # Twice the measured rate is the k = 4 - 2*chi convention.
        for m, g in [((6, 6, 8), 2), ((8, 8, 8), 5), ((4, 6, 14), 3)]:
            chi = 2 - 2 * g
            n, _, _ = semiregular_counts_direct(m, 2 * g, False)
            assert 2 * encoding_rate(m, g) == Fraction(4 - 2 * chi, n)

    def test_measured_rate_agrees_with_counted_rows(self):
        for row in reference.SEMIREGULAR_ORIENTABLE[2]:
            assert encoding_rate(row.m, 2) == Fraction(row.k, row.n)

    def test_limits_approached_monotonically(self):
        hex_gaps = [
            Fraction(1, 3) - 2 * encoding_rate((6, 6, 2 * s), s)
            for s in (10, 100, 1000, 10000)
        ]
        pair_gaps = [
            1 - 2 * encoding_rate((2 * s, 2 * s, 2 * s), s)
            for s in (10, 100, 1000, 10000)
        ]
        for gaps in (hex_gaps, pair_gaps):
            assert all(g > 0 for g in gaps)
            assert gaps == sorted(gaps, reverse=True)

    def test_euclidean_rejected(self):
        with pytest.raises(ValueError, match="Euclidean"):
            encoding_rate((6, 6, 6), 2)


class TestEquivalence:
    def test_h2(self):
        report = equivalence_check(2)
        assert report["ok"]
        assert report["genus_nonorientable"] == 4
        assert len(report["rows"]) == 22 and not report["mismatches"]
        assert report["systole_difference"] == 0.0

    def test_h2_anchor_row(self):
        report = equivalence_check(2)
        entry = next(r for r in report["rows"] if r["signature"] == [6, 6, 8])
        assert entry["orientable"] == entry["nonorientable"]
        assert entry["orientable"]["n"] == 48 and entry["orientable"]["d"] == 4

    def test_h3_exact_pair(self):
        report = equivalence_check(3)
        assert report["ok"]
        entry = next(r for r in report["rows"] if r["signature"] == [4, 24, 24])
        assert entry["orientable"]["d_source"] == "exact"
        assert entry["nonorientable"]["d_source"] == "exact"
        assert entry["orientable"]["d"] == entry["nonorientable"]["d"] == 2

    def test_both_surfaces_take_the_same_distance_route(self):
        # ``match`` compares d whole, which is sound only because both rows
        # of a pair take the same route.
        for h in (2, 3, 4):
            for entry in equivalence_check(h)["rows"]:
                assert entry["orientable"]["d_source"] == entry["nonorientable"]["d_source"]

    def test_json_shape(self):
        doc = equivalence_check(2)
        assert doc["ok"] and doc["signatures_checked"] == 22
        assert doc["mismatches"] == []

    def test_mismatch_is_reported(self, monkeypatch, capsys):
        # One non-orientable row of h = 2 comes back with d + 2: exactly that
        # entry is a mismatch, the report is not ok, and ``equiv`` prints it
        # and still exits 0.
        real = catalog.code_params

        def off_by_two(m, genus, orientable, d_mode="auto"):
            p = real(m, genus, orientable, d_mode)
            if not orientable and tuple(m) == (6, 6, 8):
                p = p._replace(d=p.d + 2)
            return p

        monkeypatch.setattr(catalog, "code_params", off_by_two)
        report = equivalence_check(2)
        entry = next(r for r in report["rows"] if r["signature"] == [6, 6, 8])
        assert report["mismatches"] == [entry]
        assert entry["match"] is False
        assert entry["nonorientable"]["d"] == entry["orientable"]["d"] + 2
        assert report["ok"] is False
        assert cli.main(["equiv", "--genus", "2"]) == 0
        assert '"ok": false' in capsys.readouterr().out

    def test_genus_floor(self):
        with pytest.raises(ValueError):
            equivalence_check(1)
