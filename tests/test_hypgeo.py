"""Closed-form geometry against high-precision reference values.

Reference constants were produced offline with 50-digit mpmath evaluations of
the same closed forms (and, for the semi-regular edge length, 200-step
bisection of the corner-angle equation at 50 digits), then rounded to 17
significant digits.
"""

import math
import random

import pytest

from floqtess import hypgeo
from floqtess.catalog import enumerate_signatures
from floqtess.hypgeo import (
    MetricProfile,
    RegularSig,
    SemiRegularSig,
    incenter_chord,
    polygon_area,
    regular_apothem_circumradius,
    regular_edge_length,
    semiregular_edge_length,
    semiregular_profile,
    systole,
)
from reference import surface_area


def _hyperbolic(m) -> bool:
    try:
        SemiRegularSig(m)
    except ValueError:
        return False
    return True


def _random_triples() -> list[tuple[int, int, int]]:
    """300 seeded hyperbolic triples with face sizes up to 200."""
    rng = random.Random(20260814)
    triples = [(3, 7, 200), (200, 200, 200), (3, 7, 50), (4, 5, 21)]
    while len(triples) < 300:
        m = tuple(sorted(rng.randint(3, 200) for _ in range(3)))
        if _hyperbolic(m):
            triples.append(m)
    return triples


# Near-Euclidean triples (roots near c = 1) and huge faces.
_EXTREMES = [(3, 7, 43), (3, 8, 25), (4, 5, 21), (4, 6, 13), (3, 10, 16), (5, 5, 11),
             (6, 6, 7), (3, 3000, 3000), (3, 7, 10**6), (10**6, 10**6, 10**6)]


def _table_signatures() -> list[tuple[int, int, int]]:
    """Every signature the tables admit, orientable g = 2..12 and
    non-orientable g = 3..12, each once."""
    found = {m for g in range(2, 13) for m in enumerate_signatures(g, True)}
    found |= {m for g in range(3, 13) for m in enumerate_signatures(g, False)}
    return sorted(found)


def reference_edge_length(m) -> float:
    """Oracle independent of the closed form: plain bisection of the
    residual over [1, 1e6] down to 4 ulps, then two Newton steps."""
    cosines = [math.cos(math.pi / mi) for mi in SemiRegularSig(m).m]

    def residual(c):
        return math.fsum(math.asin(k / c) for k in cosines) - math.pi

    lo, hi = 1.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(lo):
            break
    c = 0.5 * (lo + hi)
    for _ in range(2):
        f = residual(c)
        fp = -math.fsum(k / (c * math.sqrt(c * c - k * k)) for k in cosines)
        step = f / fp
        if c - step > 1.0:
            c -= step
    assert abs(residual(c)) < hypgeo.EDGE_EQ_TOL
    return 2.0 * math.acosh(c)


# {p,q} closed forms at 50-digit precision.
L_88 = 3.0571418389619963
L_83 = 0.72703983935051471
A_88 = 1.5285709194809982
R_88 = 2.4484524476780758
A_83 = 0.76428545974049908
R_83 = 0.86070630416378054

# Root of the corner-angle equation for [6,6,8] and derived quantities.
C_668 = 1.0238379279294731
L_668 = 0.43583315698283863
A6_668 = 0.36351991967525735
A8_668 = 0.49718638448852319
GAP68 = 0.86070630416378054
CHORD_68_VIA6 = 1.5285709194809982
CHORD_68_VIA8 = 1.2832905599804685


class TestRegular:
    def test_edge_length_88(self):
        assert regular_edge_length((8, 8)) == pytest.approx(L_88, abs=1e-14)
        # {p,p} edge length equals the diagonal form 2*arccosh(cot(pi/p))
        assert regular_edge_length((8, 8)) == pytest.approx(
            2 * math.acosh(1 / math.tan(math.pi / 8)), abs=1e-14
        )

    def test_edge_length_83(self):
        assert regular_edge_length((8, 3)) == pytest.approx(L_83, abs=1e-14)

    @pytest.mark.parametrize("sig", [(8.5, 8), (8, 8.0)])
    def test_non_integer_signature_rejected(self, sig):
        with pytest.raises(TypeError, match="must be integers"):
            regular_edge_length(sig)
        with pytest.raises(TypeError, match="must be integers"):
            regular_apothem_circumradius(sig)

    def test_apothem_circumradius(self):
        a, r = regular_apothem_circumradius((8, 8))
        assert a == pytest.approx(A_88, abs=1e-14)
        assert r == pytest.approx(R_88, abs=1e-14)
        a, r = regular_apothem_circumradius((8, 3))
        assert a == pytest.approx(A_83, abs=1e-14)
        assert r == pytest.approx(R_83, abs=1e-14)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(3, 51) for q in range(3, 51)
                                     if 1 / p + 1 / q < 0.5])
    def test_apothem_below_circumradius(self, p, q):
        a, r = regular_apothem_circumradius((p, q))
        assert 0 < a < r

    def test_euclidean_rejected(self):
        with pytest.raises(ValueError, match="[Ee]uclidean"):
            RegularSig(4, 4)
        with pytest.raises(ValueError, match="[Ee]uclidean"):
            regular_edge_length((6, 3))

    def test_spherical_rejected(self):
        with pytest.raises(ValueError, match="[Ss]pherical"):
            RegularSig(3, 5)

    def test_area_88(self):
        assert polygon_area((8, 8)) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_area_83(self):
        assert polygon_area((8, 3)) == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_closed_forms_agree_everywhere(self):
        # The equivalent single-arccosh form of the edge length,
        # arccosh[(cos^2(pi/q) + cos(2pi/p)) / sin^2(pi/q)], agrees to 1e-12
        # on all small hyperbolic signatures.
        for p in range(3, 51):
            for q in range(3, 51):
                if 1 / p + 1 / q < 0.5:
                    length = regular_edge_length((p, q))
                    sq = math.sin(math.pi / q)
                    alt = math.acosh(
                        (math.cos(math.pi / q) ** 2 + math.cos(2 * math.pi / p)) / sq**2
                    )
                    assert length > 0
                    assert abs(length - alt) <= 1e-12 * max(1.0, length)

    @pytest.mark.parametrize("q", [10**155, 10**300], ids=["1e155", "1e300"])
    def test_edge_length_past_the_single_arccosh_range(self, q):
        # sin^2(pi/q) overflows the single-arccosh form's quotient (10^155)
        # or underflows to 0 (10^300); the primary form stays finite.
        want = 2 * math.acosh(math.cos(math.pi / 3) / math.sin(math.pi / q))
        assert regular_edge_length((3, q)) == want


class TestSurfaceArea:
    def test_orientable_genus2(self):
        assert surface_area(2, True) == pytest.approx(4 * math.pi)

    def test_nonorientable_genus3(self):
        assert surface_area(3, False) == pytest.approx(2 * math.pi)

    def test_equal_chi_equal_area(self):
        for h in range(2, 12):
            assert surface_area(2 * h, False) == pytest.approx(surface_area(h, True))

    @pytest.mark.parametrize("genus,orientable", [(1, True), (0, True), (2, False), (1, False)])
    def test_genus_floor(self, genus, orientable):
        with pytest.raises(ValueError):
            surface_area(genus, orientable)


class TestSemiRegular:
    def test_668_root(self):
        l = semiregular_edge_length([6, 6, 8])
        assert l == pytest.approx(L_668, abs=1e-13)
        assert math.cosh(l / 2) == pytest.approx(C_668, abs=1e-13)

    def test_668_profile(self):
        prof = semiregular_profile([6, 6, 8])
        assert prof.a[0] == pytest.approx(A6_668, abs=1e-13)
        assert prof.a[1] == pytest.approx(A6_668, abs=1e-13)
        assert prof.a[2] == pytest.approx(A8_668, abs=1e-13)
        assert prof.A[0] == pytest.approx(2 * A6_668, abs=1e-13)  # between the hexagons
        assert prof.A[1] == pytest.approx(GAP68, abs=1e-13)
        assert prof.A[2] == pytest.approx(GAP68, abs=1e-13)

    @pytest.mark.parametrize("m", [(6.5, 6, 8), (6, 6.0, 8), (6, 6, "8")])
    def test_non_integer_face_sizes_rejected(self, m):
        # Passed through unchanged, not truncated to [6,6,8].
        with pytest.raises(TypeError, match="triple of integers"):
            semiregular_profile(m)
        with pytest.raises(TypeError, match="triple of integers"):
            semiregular_edge_length(m)

    def test_profile_pythagoras(self):
        prof = semiregular_profile([4, 6, 36])
        ch = math.cosh(prof.l / 2)
        for ai, ri in zip(prof.a, prof.r):
            assert math.cosh(ri) == pytest.approx(math.cosh(ai) * ch, rel=1e-14)

    @pytest.mark.parametrize("k", range(8, 101, 2))
    def test_uniform_triple_degenerates_to_regular(self, k):
        # Both reduce to 2 acosh(2 cos(pi/k) / sqrt(3)).
        assert semiregular_edge_length([k, k, k]) == pytest.approx(
            regular_edge_length((k, 3)), rel=1e-14
        )

    def test_euclidean_triple_rejected(self):
        with pytest.raises(ValueError, match="Euclidean triple"):
            semiregular_edge_length([6, 6, 6])
        with pytest.raises(ValueError, match="Euclidean triple"):
            SemiRegularSig((4, 8, 8))

    def test_spherical_triple_rejected(self):
        with pytest.raises(ValueError, match="spherical triple"):
            SemiRegularSig((3, 3, 4))

    def test_residual_small_on_random_admissible_triples(self):
        # The solver itself raises if the residual exceeds 1e-10; exercise a
        # broad sample of the domain it promises to cover.
        for m in _random_triples():
            l = semiregular_edge_length(m)
            assert l > 0
            c = math.cosh(l / 2)
            res = abs(math.fsum(math.asin(math.cos(math.pi / mi) / c) for mi in m) - math.pi)
            assert res < 1e-10

    def test_edge_length_decreasing_in_face_size(self):
        # Larger faces at fixed partners -> larger root c -> longer edge.
        prev = 0.0
        for m3 in range(8, 60, 2):
            l = semiregular_edge_length([6, 6, m3])
            assert l > prev
            prev = l


class TestEdgeLengthReplay:
    """The closed form plus one Newton step reproduces the plain bisection's
    root: to 1e-13 everywhere, and to the bit on the extremes."""

    @staticmethod
    def _agrees(m):
        want = reference_edge_length(m)
        assert semiregular_edge_length(m) == pytest.approx(want, rel=1e-13, abs=0), m

    def test_agrees_with_bisection_on_table_signatures(self):
        sigs = _table_signatures()
        assert len(sigs) == 338
        for m in sigs:
            self._agrees(m)

    def test_agrees_with_bisection_on_random_triples(self):
        for m in _random_triples():
            self._agrees(m)

    @pytest.mark.parametrize("m", _EXTREMES)
    def test_bit_equal_on_extremes(self, m):
        assert semiregular_edge_length(m) == reference_edge_length(m)

    def test_triangle_exists_is_acute_and_has_root_past_one(self):
        # The closed form's proof obligations: P > 0 (a triangle), the two
        # shorter sides' squares reach the longest's (acute, so the
        # principal arcsin branch) and c > 1 (a real edge length).
        for m in _table_signatures() + _random_triples() + _EXTREMES:
            k1, k2, k3 = sorted(math.cos(math.pi / mi) for mi in m)
            heron = (k1 + k2 + k3) * (k2 + k3 - k1) * (k1 + k3 - k2) * (k1 + k2 - k3)
            assert heron > 0.0, m
            assert k1 * k1 + k2 * k2 >= k3 * k3, m
            assert 2.0 * k1 * k2 * k3 / math.sqrt(heron) > 1.0, m

    def test_closed_form_root(self):
        # The 50-digit root, to within 2 ulps.
        l = semiregular_edge_length([6, 6, 8])
        assert abs(math.cosh(l / 2) - C_668) <= 2 * math.ulp(C_668)

    def test_few_residual_evaluations_per_solve(self, monkeypatch):
        # One for the Newton step, one for the residual check.
        calls = []
        edge_eq = hypgeo._edge_eq

        def counted(*args):
            calls.append(args)
            return edge_eq(*args)

        monkeypatch.setattr(hypgeo, "_edge_eq", counted)
        for m in _table_signatures() + _EXTREMES:
            calls.clear()
            semiregular_edge_length(m)
            assert len(calls) == 2, m

    def test_bad_root_raises(self, monkeypatch):
        monkeypatch.setattr(hypgeo, "_edge_eq", lambda c, cosines: 1.0)
        message = r"solve for \[6, 6, 8\] left residual 1\.000e\+00"
        with pytest.raises(ArithmeticError, match=message):
            semiregular_edge_length([6, 6, 8])


class TestIncenterChord:
    @pytest.mark.parametrize(
        "A, m, message",
        [
            (0.0, 6, "incenter gap must be positive"),
            (1.0, 2, "face size must be an integer >= 3"),
        ],
    )
    def test_rejected(self, A, m, message):
        with pytest.raises(ValueError) as info:
            incenter_chord(A, m)
        assert str(info.value) == message

    def test_square_route_doubles(self):
        rng = random.Random(7)
        for _ in range(200):
            A = rng.uniform(1e-3, 5.0)
            assert incenter_chord(A, 4) == pytest.approx(2 * A, abs=1e-12)

    def test_668_chords(self):
        assert incenter_chord(GAP68, 6) == pytest.approx(CHORD_68_VIA6, abs=1e-13)
        assert incenter_chord(GAP68, 8) == pytest.approx(CHORD_68_VIA8, abs=1e-13)

    def test_octagon_route_is_hypotenuse_form(self):
        # cos(pi/2) = 0 leaves arccosh(cosh^2 A).
        A = 0.86070630416378054
        assert incenter_chord(A, 8) == pytest.approx(math.acosh(math.cosh(A) ** 2), abs=1e-14)

    @pytest.mark.parametrize("m", range(3, 13))
    def test_chord_dominates_gap_for_small_faces(self, m):
        # Guaranteed only while cos(4pi/m) <= cosh(A)/(cosh(A)+1); for m <= 12
        # that holds for every A > 0.
        rng = random.Random(m)
        for _ in range(50):
            A = rng.uniform(1e-2, 4.0)
            assert incenter_chord(A, m) >= A - 1e-12


class TestSystole:
    def test_orientable(self):
        assert systole(2, True) == pytest.approx(L_88, abs=1e-14)
        assert systole(3, True) == pytest.approx(3.9833047820988736, abs=1e-13)

    def test_nonorientable(self):
        assert systole(3, False) == pytest.approx(2.2924316695611777, abs=1e-13)
        assert systole(5, False) == pytest.approx(3.5796408201434303, abs=1e-13)
        assert systole(7, False) == pytest.approx(4.3144074125084709, abs=1e-13)

    def test_even_nonorientable_matches_orientable_half_genus(self):
        for h in range(2, 16):
            assert systole(2 * h, False) == pytest.approx(systole(h, True), abs=1e-13)

    def test_monotone_in_genus(self):
        vals = [systole(g, True) for g in range(2, 30)]
        assert vals == sorted(vals)


class TestAdmissibility:
    """SemiRegularSig is the hyperbolicity test for a vertex type."""

    def test_examples(self):
        assert SemiRegularSig((8, 8, 8)).m == (8, 8, 8)
        with pytest.raises(ValueError, match="Euclidean"):
            SemiRegularSig((6, 6, 6))
        assert SemiRegularSig((4, 6, 14)).m == (4, 6, 14)

    def test_boundary_is_exact(self):
        # 1/4 + 1/8 + 1/8 = 1/2 exactly; float arithmetic must not let it in.
        for m in ((4, 8, 8), (4, 6, 12), (3, 7, 42)):
            with pytest.raises(ValueError, match="Euclidean"):
                SemiRegularSig(m)
        assert SemiRegularSig((3, 7, 43)).m == (3, 7, 43)

    def test_rejects_degenerate_entries(self):
        with pytest.raises(ValueError, match=">= 3"):
            SemiRegularSig((2, 8, 8))


class TestMetricProfileInvariants:
    def test_rejects_apothem_past_circumradius(self):
        with pytest.raises(ValueError):
            MetricProfile(l=1.0, a=(0.9, 0.2, 0.3), r=(0.5, 0.6, 0.7))
