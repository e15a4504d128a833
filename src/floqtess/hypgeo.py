"""Hyperbolic trigonometry for regular and tri-valent semi-regular tessellations.

Everything here is closed-form geometry at curvature -1: edge lengths,
apothems, circumradii and face areas of the regular {p,q} tilings, the
edge length of semi-regular vertex types [m1, m2, m3] with three faces per
vertex (a triangle's circumdiameter, polished by one Newton step) and
the incenter gaps between adjacent faces, and the systole of the closed
surfaces the tilings live on.  The two profile functions return the
documents ``floqtess geom`` prints after the signature.

All functions are pure and operate in double precision; lengths are in
natural units (curvature -1).
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "RegularSig",
    "SemiRegularSig",
    "regular_profile",
    "semiregular_edge_length",
    "semiregular_profile",
    "systole",
]

#: Residual tolerance for the semi-regular edge-length equation.
EDGE_EQ_TOL = 1e-10


class _Record:
    """Base of the immutable records: ``__init__`` stores the fields and runs
    any ``__post_init__`` checks; assigning or deleting then raises.  Records
    of one class are equal on the ``_compared`` fields, which their repr
    shows; ``_hashed`` are hashed."""

    def __setattr__(self, *args) -> None:  # (name, value), or (name,) as __delattr__
        raise AttributeError(f"cannot {'assign to' if args[1:] else 'delete'} field {args[0]!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        return [mine[f] for f in self._compared] == [theirs[f] for f in self._compared]

    def __hash__(self) -> int:
        return hash(tuple([self.__dict__[f] for f in self._hashed]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._compared)
        return f"{self.__class__.__name__}({fields})"


class RegularSig(_Record):
    """A regular tessellation {p, q}: p-gons, q around each vertex.

    Only hyperbolic signatures are representable: 1/p + 1/q < 1/2.
    """

    p: int
    q: int
    _compared = _hashed = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        self.__dict__.update(p=p, q=q)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("p and q must be integers")
        if self.p < 3 or self.q < 3:
            raise ValueError(f"{{{self.p},{self.q}}}: face size and valence must be >= 3")
        # The angle excess 1/2 - 1/p - 1/q, scaled by 2pq: hyperbolic iff > 0.
        excess = self.p * self.q - 2 * (self.p + self.q)
        if excess <= 0:
            raise ValueError(
                f"{{{self.p},{self.q}}} is {'Euclidean' if excess == 0 else 'spherical'}, "
                f"not hyperbolic (need 1/p + 1/q < 1/2)"
            )


class SemiRegularSig(_Record):
    """A tri-valent semi-regular vertex type [m1, m2, m3].

    Each vertex meets one m1-gon, one m2-gon and one m3-gon.  Only hyperbolic
    types are representable: 1/m1 + 1/m2 + 1/m3 < 1/2, equivalently the three
    interior angles (m_i - 2)pi/m_i sum to more than 2 pi.
    """

    m: tuple[int, int, int]
    _compared = _hashed = ("m",)

    def __init__(self, m: Sequence[int]) -> None:
        self.__dict__["m"] = m
        self.__post_init__()

    def __post_init__(self) -> None:
        m = tuple(self.m)
        m1, m2, m3 = m if len(m) == 3 else (None, None, None)
        if not (isinstance(m1, int) and isinstance(m2, int) and isinstance(m3, int)):
            raise TypeError("vertex type must be a triple of integers")
        self.__dict__["m"] = m
        if m1 < 3 or m2 < 3 or m3 < 3:
            raise ValueError(f"[{m1},{m2},{m3}]: face sizes must be >= 3")
        # The angle excess 1/2 - sum 1/m_i, scaled by 2 m1 m2 m3.
        excess = m1 * m2 * m3 - 2 * (m1 * m2 + m2 * m3 + m1 * m3)
        if excess <= 0:
            label = "Euclidean" if excess == 0 else "spherical"
            raise ValueError(
                f"[{m1},{m2},{m3}] is a {label} triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)"
            )


def regular_profile(sig: RegularSig | tuple[int, int]) -> dict:
    """Edge length, apothem, circumradius and face area of {p,q}.

    The edge length is 2 arccosh(cos(pi/p) / sin(pi/q)), the apothem
    arccosh(cos(pi/q) / sin(pi/p)) and the circumradius
    arccosh(cot(pi/p) cot(pi/q)), below which the apothem lies.  The face
    area is the angle defect (pq - 2p - 2q) pi / q.
    """
    sig = _as_regular(sig)
    p, q = sig.p, sig.q
    return {
        "edge_length": 2.0 * math.acosh(math.cos(math.pi / p) / math.sin(math.pi / q)),
        "apothem": math.acosh(math.cos(math.pi / q) / math.sin(math.pi / p)),
        "circumradius": math.acosh(1.0 / (math.tan(math.pi / p) * math.tan(math.pi / q))),
        "face_area": (p * q - 2 * p - 2 * q) * math.pi / q,
    }


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
    m1, m2, m3 = sig.m
    k1, k2, k3 = cosines = math.cos(math.pi / m1), math.cos(math.pi / m2), math.cos(math.pi / m3)
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


def semiregular_profile(sig: SemiRegularSig | Sequence[int]) -> dict:
    """Edge length, apothems, circumradii and incenter gaps of [m1, m2, m3].

    The apothem of the m_i-gon is a_i = arcsinh(tanh(l/2) cot(pi/m_i)) and
    its circumradius satisfies cosh(r_i) = cosh(a_i) cosh(l/2) (right-angled
    triangle between incenter, edge midpoint and vertex).  The incenter gap
    a_i + a_{i+1} is the incenter-to-incenter distance across the edge
    shared by the m_i- and m_{i+1}-gons, that edge being orthogonal to the
    segment joining the incenters.
    """
    sig = _as_semiregular(sig)
    m1, m2, m3 = sig.m
    l = semiregular_edge_length(sig)
    th = math.tanh(0.5 * l)
    ch = math.cosh(0.5 * l)
    a1 = math.asinh(th / math.tan(math.pi / m1))
    a2 = math.asinh(th / math.tan(math.pi / m2))
    a3 = math.asinh(th / math.tan(math.pi / m3))
    return {
        "edge_length": l,
        "apothems": [a1, a2, a3],
        "circumradii": [math.acosh(math.cosh(a1) * ch), math.acosh(math.cosh(a2) * ch),
                        math.acosh(math.cosh(a3) * ch)],
        "incenter_gaps": [a1 + a2, a2 + a3, a3 + a1],
    }


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


# Each triple of exact ints that passed the SemiRegularSig checks, and the
# SemiRegularSig built then; filled by ``_as_semiregular``, never evicted.
_SEMIREGULAR: dict[tuple[int, int, int], SemiRegularSig] = {}


def _as_semiregular(sig: SemiRegularSig | Sequence[int]) -> SemiRegularSig:
    """``sig`` itself if it is a SemiRegularSig, else ``SemiRegularSig(sig)``
    checked once per distinct triple per process.

    A triple of three exact ints is looked up by value: its first call runs
    the constructor's checks and every later call, in any sequence type,
    gets the same object back, so a table row pays for the checks only on
    a new triple.  Any other input (floats,
    numpy integers, bools, another length) goes through the constructor on
    every call and raises what it raises: ``(6, 6, 8.0)`` compares and
    hashes equal to ``(6, 6, 8)``, so a lookup by value alone would let it
    through.  A rejected triple is never stored.  Nothing here depends on
    a genus.
    """
    if isinstance(sig, SemiRegularSig):
        return sig
    m = tuple(sig)
    if len(m) == 3 and type(m[0]) is type(m[1]) is type(m[2]) is int:
        checked = _SEMIREGULAR.get(m)
        if checked is None:
            checked = _SEMIREGULAR[m] = SemiRegularSig(m)
        return checked
    return SemiRegularSig(m)
