"""Hyperbolic trigonometry for regular and tri-valent semi-regular tessellations.

Everything here is closed-form geometry at curvature -1: edge lengths,
apothems, circumradii and face areas of the regular {p,q} tilings, the
edge length of semi-regular vertex types [m1, m2, m3] with three faces per
vertex (a triangle's circumdiameter, polished by one Newton step),
distances between incenters of adjacent faces, and the systole of the
closed surfaces the tilings live on.

All functions are pure and operate in double precision; lengths are in
natural units (curvature -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "RegularSig",
    "SemiRegularSig",
    "MetricProfile",
    "regular_edge_length",
    "regular_apothem_circumradius",
    "polygon_area",
    "semiregular_edge_length",
    "semiregular_profile",
    "incenter_chord",
    "systole",
]

#: Residual tolerance for the semi-regular edge-length equation.
EDGE_EQ_TOL = 1e-10


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
        # The angle excess 1/2 - 1/p - 1/q, scaled by 2pq: hyperbolic iff > 0.
        excess = self.p * self.q - 2 * (self.p + self.q)
        if excess <= 0:
            raise ValueError(
                f"{{{self.p},{self.q}}} is {'Euclidean' if excess == 0 else 'Spherical'}, "
                f"not hyperbolic (need 1/p + 1/q < 1/2)"
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
        m1, m2, m3 = m
        # The angle excess 1/2 - sum 1/m_i, scaled by 2 m1 m2 m3.
        excess = m1 * m2 * m3 - 2 * (m1 * m2 + m2 * m3 + m1 * m3)
        if excess <= 0:
            label = "Euclidean" if excess == 0 else "spherical"
            raise ValueError(
                f"[{m[0]},{m[1]},{m[2]}] is a {label} triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)"
            )


@dataclass(frozen=True)
class MetricProfile:
    """Metric data of a semi-regular type: edge length, apothems, circumradii.

    ``a[i]`` and ``r[i]`` are the apothem and circumradius of the m_i-gon.
    """

    l: float
    a: tuple[float, float, float]
    r: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not self.l > 0:
            raise ValueError("edge length must be positive")
        if not all(ai < ri for ai, ri in zip(self.a, self.r)):
            raise ValueError("apothem must be below circumradius")

    @property
    def A(self) -> tuple[float, float, float]:
        """``A[i] = a[i] + a[(i+1) % 3]``, the distance between the incenters
        of two adjacent faces of sizes m_i and m_{i+1} (their shared edge
        being orthogonal to the segment joining the incenters)."""
        a = self.a
        return tuple(a[i] + a[(i + 1) % 3] for i in range(3))


def regular_edge_length(sig: RegularSig | tuple[int, int]) -> float:
    """Edge length of the hyperbolic {p,q} tessellation:
    2*arccosh(cos(pi/p)/sin(pi/q))."""
    sig = _as_regular(sig)
    p, q = sig.p, sig.q
    return 2.0 * math.acosh(math.cos(math.pi / p) / math.sin(math.pi / q))


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


def _polygon_sides(genus: int, orientable: bool) -> int:
    """Sides of the fundamental polygon: the 4g-gon (orientable) or 2g-gon."""
    return (4 if orientable else 2) * genus


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


def _edge_eq(c: float, cosines: Sequence[float]) -> float:
    """Corner-angle equation residual at c = cosh(l/2): sum of half-angles - pi."""
    k1, k2, k3 = cosines
    return math.fsum((math.asin(k1 / c), math.asin(k2 / c), math.asin(k3 / c))) - math.pi


def semiregular_edge_length(sig: SemiRegularSig | Sequence[int]) -> float:
    """Common edge length of the tri-valent semi-regular tiling [m1, m2, m3].

    Solves pi = sum_i arcsin(k_i / c) for c = cosh(l/2), k_i = cos(pi/m_i),
    in closed form.  At the root the half-angles theta_i = arcsin(k_i / c)
    sum to pi, so they are the angles of a Euclidean triangle.  By the law
    of sines, sin(theta_i) = k_i / c says that triangle has sides k_i and
    circumdiameter c, so c = 2 k1 k2 k3 / sqrt(P) with P Heron's product
    (k1+k2+k3)(k2+k3-k1)(k1+k3-k2)(k1+k2-k3).  The principal arcsin branch
    is the right one because the triangle is acute for every hyperbolic
    triple, so every theta_i is below pi/2.  Every side lies in [1/2, 1),
    so the triangle is acute once the squares of the two sides other than
    the longest sum to 1 or more.  They do when both are at least
    cos(pi/4); otherwise a 3 appears, hyperbolicity forces both its
    partners to be at least 7, and 1/4 + cos^2(pi/7) > 1.  The same bounds
    give P > 0: any two sides sum to at least 1, more than the third.  And
    c > 1: the residual is strictly decreasing in c and positive at c = 1,
    where it is pi (1/2 - sum_i 1/m_i) > 0.

    One Newton step polishes the rounded closed form.  The residual at the
    returned root is below 1e-10 (ArithmeticError otherwise, which would
    indicate a solver bug rather than bad input).
    """
    sig = _as_semiregular(sig)
    cosines = k1, k2, k3 = tuple(math.cos(math.pi / mi) for mi in sig.m)
    heron = (k1 + k2 + k3) * (k2 + k3 - k1) * (k1 + k3 - k2) * (k1 + k2 - k3)
    c = 2.0 * k1 * k2 * k3 / math.sqrt(heron)

    cc = c * c
    slopes = (
        k1 / (c * math.sqrt(cc - k1 * k1)),
        k2 / (c * math.sqrt(cc - k2 * k2)),
        k3 / (c * math.sqrt(cc - k3 * k3)),
    )
    step = _edge_eq(c, cosines) / -math.fsum(slopes)
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
    return MetricProfile(l=l, a=a, r=r)


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
    sides = _polygon_sides(genus, orientable)
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
