"""Hyperbolic trigonometry for regular and tri-valent semi-regular tessellations.

Everything here is closed-form geometry at curvature -1: edge lengths,
apothems, circumradii and face areas of the regular {p,q} tilings, the
edge-length equation for semi-regular vertex types [m1, m2, m3] with three
faces per vertex, distances between incenters of adjacent faces, and the
systole of the closed surfaces the tilings live on.

All functions are pure and operate in double precision; lengths are in
natural units (curvature -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "RegularSig",
    "SemiRegularSig",
    "MetricProfile",
    "regular_edge_length",
    "regular_apothem_circumradius",
    "polygon_area",
    "surface_area",
    "semiregular_edge_length",
    "semiregular_profile",
    "incenter_chord",
    "systole",
]

#: Residual tolerance for the semi-regular edge-length equation.
EDGE_EQ_TOL = 1e-10


def _curvature_class(weights: Sequence[Fraction]) -> str:
    """Classify a corner-angle budget: sum of 1/m over the faces at a vertex.

    Returns "hyperbolic", "euclidean" or "spherical" according to whether the
    total is below, at, or above 1/2 (exact rational comparison).
    """
    total = sum(weights, Fraction(0))
    if total < Fraction(1, 2):
        return "hyperbolic"
    if total == Fraction(1, 2):
        return "euclidean"
    return "spherical"


@dataclass(frozen=True)
class RegularSig:
    """A regular tessellation {p, q}: p-gons, q around each vertex.

    Only hyperbolic signatures are representable: 1/p + 1/q < 1/2.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("p and q must be integers")
        if self.p < 3 or self.q < 3:
            raise ValueError(f"{{{self.p},{self.q}}}: face size and valence must be >= 3")
        cls = _curvature_class([Fraction(1, self.p), Fraction(1, self.q)])
        if cls != "hyperbolic":
            raise ValueError(
                f"{{{self.p},{self.q}}} is {cls.capitalize()}, not hyperbolic "
                f"(need 1/p + 1/q < 1/2)"
            )


@dataclass(frozen=True)
class SemiRegularSig:
    """A tri-valent semi-regular vertex type [m1, m2, m3].

    Each vertex meets one m1-gon, one m2-gon and one m3-gon.  Only hyperbolic
    types are representable: 1/m1 + 1/m2 + 1/m3 < 1/2, equivalently the three
    interior angles (m_i - 2)pi/m_i sum to more than 2 pi.
    """

    m: tuple[int, int, int]

    def __post_init__(self) -> None:
        m = tuple(self.m)
        if len(m) != 3 or not all(isinstance(x, int) for x in m):
            raise TypeError("vertex type must be a triple of integers")
        object.__setattr__(self, "m", m)
        if any(x < 3 for x in m):
            raise ValueError(f"[{m[0]},{m[1]},{m[2]}]: face sizes must be >= 3")
        cls = _curvature_class([Fraction(1, x) for x in m])
        if cls != "hyperbolic":
            label = "Euclidean triple" if cls == "euclidean" else "spherical triple"
            raise ValueError(
                f"[{m[0]},{m[1]},{m[2]}] is a {label} (need 1/m1 + 1/m2 + 1/m3 < 1/2)"
            )


@dataclass(frozen=True)
class MetricProfile:
    """Metric data of a semi-regular type: edge length, apothems, circumradii.

    ``a[i]`` and ``r[i]`` are the apothem and circumradius of the m_i-gon;
    ``A[i] = a[i] + a[(i+1) % 3]`` is the distance between the incenters of
    two adjacent faces of sizes m_i and m_{i+1} (their shared edge being
    orthogonal to the segment joining the incenters).
    """

    l: float
    a: tuple[float, float, float]
    r: tuple[float, float, float]
    A: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not self.l > 0:
            raise ValueError("edge length must be positive")
        if not all(ai < ri for ai, ri in zip(self.a, self.r)):
            raise ValueError("apothem must be below circumradius")
        for i in range(3):
            if self.A[i] != self.a[i] + self.a[(i + 1) % 3]:
                raise ValueError("incenter gaps must equal sums of adjacent apothems")


def regular_edge_length(sig: RegularSig | tuple[int, int]) -> float:
    """Edge length of the hyperbolic {p,q} tessellation.

    Computed as 2*arccosh(cos(pi/p)/sin(pi/q)) and cross-checked against the
    equivalent single-arccosh form
    arccosh[(cos^2(pi/q) + cos(2pi/p)) / sin^2(pi/q)]; the two must agree to
    1e-12 or an ArithmeticError is raised.
    """
    sig = _as_regular(sig)
    p, q = sig.p, sig.q
    primary = 2.0 * math.acosh(math.cos(math.pi / p) / math.sin(math.pi / q))
    sq = math.sin(math.pi / q)
    alt = math.acosh((math.cos(math.pi / q) ** 2 + math.cos(2.0 * math.pi / p)) / sq**2)
    if abs(primary - alt) > 1e-12 * max(1.0, primary):
        raise ArithmeticError(
            f"edge-length closed forms disagree for {{{p},{q}}}: {primary!r} vs {alt!r}"
        )
    return primary


def regular_apothem_circumradius(sig: RegularSig | tuple[int, int]) -> tuple[float, float]:
    """Apothem and circumradius (a, r) of the {p,q} face, a < r."""
    sig = _as_regular(sig)
    p, q = sig.p, sig.q
    a = math.acosh(math.cos(math.pi / q) / math.sin(math.pi / p))
    r = math.acosh(1.0 / (math.tan(math.pi / p) * math.tan(math.pi / q)))
    return a, r


def polygon_area(sig: RegularSig | tuple[int, int]) -> float:
    """Area of one face of {p,q}: angle defect (pq - 2p - 2q) pi / q."""
    sig = _as_regular(sig)
    p, q = sig.p, sig.q
    return (p * q - 2 * p - 2 * q) * math.pi / q


def _genus_chi(genus: int, orientable: bool) -> int:
    """Euler characteristic of the closed surface of this genus."""
    return 2 - 2 * genus if orientable else 2 - genus


def _check_genus(genus: int, orientable: bool) -> int:
    """Validate the hyperbolic genus range and return the Euler characteristic."""
    if not isinstance(genus, int):
        raise TypeError("genus must be an integer")
    floor = 2 if orientable else 3
    if genus < floor:
        raise ValueError(
            f"{'orientable' if orientable else 'non-orientable'} genus must be "
            f">= {floor}, got {genus}"
        )
    return _genus_chi(genus, orientable)


def surface_area(genus: int, orientable: bool) -> float:
    """Area of the closed hyperbolic surface: -2 pi chi (Gauss-Bonnet).

    chi = 2 - 2*genus for orientable surfaces (genus >= 2) and 2 - genus for
    non-orientable ones (genus >= 3); below those minima the surface admits
    no hyperbolic metric.
    """
    chi = _check_genus(genus, orientable)
    return -2.0 * math.pi * chi


def _edge_eq(c: float, cosines: Sequence[float]) -> float:
    """Corner-angle equation residual at c = cosh(l/2): sum of half-angles - pi."""
    return math.fsum(math.asin(k / c) for k in cosines) - math.pi


def semiregular_edge_length(sig: SemiRegularSig | Sequence[int]) -> float:
    """Common edge length of the tri-valent semi-regular tiling [m1, m2, m3].

    Solves pi = sum_i arcsin(cos(pi/m_i) / cosh(l/2)) for l.  The left side
    is strictly decreasing in cosh(l/2), so the root is bracketed on
    [1, 1e6] and found by bisection, then polished with two Newton steps.
    The residual at the returned root is below 1e-10 (ArithmeticError
    otherwise, which would indicate a solver bug rather than bad input).
    """
    sig = _as_semiregular(sig)
    cosines = [math.cos(math.pi / mi) for mi in sig.m]

    lo, hi = 1.0, 1e6
    # Hyperbolicity makes the residual positive at c = 1 and negative at
    # c = 1e6, strictly decreasing in between.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _edge_eq(mid, cosines) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(lo):
            break
    c = 0.5 * (lo + hi)

    for _ in range(2):
        f = _edge_eq(c, cosines)
        fp = -math.fsum(k / (c * math.sqrt(c * c - k * k)) for k in cosines)
        step = f / fp
        if c - step > 1.0:
            c -= step

    residual = abs(_edge_eq(c, cosines))
    if residual >= EDGE_EQ_TOL:
        raise ArithmeticError(
            f"edge-length solve for {list(sig.m)} left residual {residual:.3e}"
        )
    return 2.0 * math.acosh(c)


def semiregular_profile(sig: SemiRegularSig | Sequence[int]) -> MetricProfile:
    """Edge length, apothems, circumradii and incenter gaps of [m1, m2, m3].

    The apothem of the m_i-gon is a_i = arcsinh(tanh(l/2) cot(pi/m_i)) and
    its circumradius satisfies cosh(r_i) = cosh(a_i) cosh(l/2) (right-angled
    triangle between incenter, edge midpoint and vertex).  A[i] is the
    incenter-to-incenter distance across the edge shared by the m_i- and
    m_{i+1}-gons.
    """
    sig = _as_semiregular(sig)
    l = semiregular_edge_length(sig)
    th = math.tanh(0.5 * l)
    ch = math.cosh(0.5 * l)
    a = tuple(math.asinh(th / math.tan(math.pi / mi)) for mi in sig.m)
    r = tuple(math.acosh(math.cosh(ai) * ch) for ai in a)
    A = tuple(a[i] + a[(i + 1) % 3] for i in range(3))
    return MetricProfile(l=l, a=a, r=r, A=A)


def incenter_chord(A: float, m_next: int) -> float:
    """Distance between incenters of two faces one face apart around a vertex.

    Both faces touch a common m_next-gon whose incenter is at distance A from
    each; walking two edges around the m_next-gon turns the incenter gap into
    arccosh[cosh^2(A) - sinh^2(A) cos(4 pi / m_next)].  For m_next = 4 this
    collapses to 2A (the two segments are collinear).
    """
    if not A > 0:
        raise ValueError("incenter gap must be positive")
    if not (isinstance(m_next, int) and m_next >= 3):
        raise ValueError("face size must be an integer >= 3")
    ch, sh = math.cosh(A), math.sinh(A)
    arg = ch * ch - sh * sh * math.cos(4.0 * math.pi / m_next)
    # arg >= 1 always (cos <= 1 and cosh^2 - sinh^2 = 1); guard rounding.
    return math.acosh(max(arg, 1.0))


def systole(genus: int, orientable: bool) -> float:
    """Length of the shortest homologically non-trivial cycle.

    Orientable genus g: 2 arccosh(cot(pi/4g)), from the regular 4g-gon
    fundamental polygon.  Non-orientable genus g: 2 arccosh(cot(pi/2g)) by
    the analogous 2g-gon; for even g this is exact, for odd g it is a
    convention.
    """
    _check_genus(genus, orientable)
    sides = (4 if orientable else 2) * genus
    return 2.0 * math.acosh(1.0 / math.tan(math.pi / sides))


def _as_regular(sig: RegularSig | tuple[int, int]) -> RegularSig:
    if isinstance(sig, RegularSig):
        return sig
    p, q = sig
    return RegularSig(p, q)


def _as_semiregular(sig: SemiRegularSig | Sequence[int]) -> SemiRegularSig:
    if isinstance(sig, SemiRegularSig):
        return sig
    return SemiRegularSig(sig)
