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
    "regular_profile",
    "semiregular_edge_length",
    "semiregular_profile",
    "systole",
]

#: Residual tolerance for the semi-regular edge-length equation.
EDGE_EQ_TOL = 1e-10


class _Record:
    """Base of the immutable records: ``__init__`` checks and stores the
    fields once; assigning or deleting then raises.  Records of one class
    are equal on the ``_compared`` fields, which their repr shows;
    ``_hashed`` are hashed."""

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


def regular_profile(sig: Sequence[int]) -> dict:
    """Edge length, apothem, circumradius and face area of {p,q}.

    ``sig`` is the int pair (p, q): p-gons, q around each vertex.  Only
    hyperbolic signatures, 1/p + 1/q < 1/2, have a profile; others raise.
    The edge length is 2 arccosh(cos(pi/p) / sin(pi/q)), the apothem
    arccosh(cos(pi/q) / sin(pi/p)) and the circumradius
    arccosh(cot(pi/p) cot(pi/q)), below which the apothem lies.  The face
    area is the angle defect (pq - 2p - 2q) pi / q.
    """
    p, q = sig
    if not (type(p) is int and type(q) is int):
        raise TypeError("p and q must be integers")
    if p < 3 or q < 3:
        raise ValueError(f"{{{p},{q}}}: face size and valence must be >= 3")
    # The angle excess 1/2 - 1/p - 1/q, scaled by 2pq: hyperbolic iff > 0.
    excess = p * q - 2 * (p + q)
    if excess <= 0:
        raise ValueError(
            f"{{{p},{q}}} is {'Euclidean' if excess == 0 else 'spherical'}, "
            f"not hyperbolic (need 1/p + 1/q < 1/2)"
        )
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
    """Validate the genus (an int, not a bool, in the hyperbolic range) and
    ``orientable`` (a boolean), and return the Euler characteristic."""
    if type(genus) is not int:
        raise TypeError("genus must be an integer")
    if type(orientable) is not bool:
        raise TypeError(f"orientable must be a boolean, got {orientable!r}")
    floor = 2 if orientable else 3
    if genus < floor:
        raise ValueError(
            f"{'orientable' if orientable else 'non-orientable'} genus must be "
            f">= {floor}, got {genus}"
        )
    return _genus_chi(genus, orientable)


def _check_semiregular(m: Sequence[int]) -> tuple[int, int, int]:
    """The tri-valent vertex type [m1, m2, m3], any sequence of three ints
    (not bools), as a tuple, once it is hyperbolic: 1/m1 + 1/m2 + 1/m3 <
    1/2, equivalently the three interior angles (m_i - 2)pi/m_i sum to
    more than 2 pi.  Checked on every call; nothing is kept."""
    m = tuple(m)
    m1, m2, m3 = m if len(m) == 3 else (None, None, None)
    if not (type(m1) is int and type(m2) is int and type(m3) is int):
        raise TypeError("vertex type must be a triple of integers")
    if m1 < 3 or m2 < 3 or m3 < 3:
        raise ValueError(f"[{m1},{m2},{m3}]: face sizes must be >= 3")
    # The angle excess 1/2 - sum 1/m_i, scaled by 2 m1 m2 m3.
    excess = m1 * m2 * m3 - 2 * (m1 * m2 + m2 * m3 + m1 * m3)
    if excess <= 0:
        label = "Euclidean" if excess == 0 else "spherical"
        raise ValueError(
            f"[{m1},{m2},{m3}] is a {label} triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)"
        )
    return m


def _edge_eq(c: float, cosines: Sequence[float]) -> float:
    """Corner-angle equation residual at c = cosh(l/2): sum of half-angles - pi."""
    k1, k2, k3 = cosines
    return math.fsum((math.asin(k1 / c), math.asin(k2 / c), math.asin(k3 / c))) - math.pi


def semiregular_edge_length(sig: Sequence[int]) -> float:
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

    ``sig`` is the vertex type as a sequence of three ints, checked by
    ``_check_semiregular`` on every call.  One Newton step polishes the
    rounded closed form.  The residual at the
    returned root is below 1e-10 (ArithmeticError otherwise, which would
    indicate a solver bug rather than bad input).
    """
    m1, m2, m3 = m = _check_semiregular(sig)
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
            f"edge-length solve for {list(m)} left residual {residual:.3e}"
        )
    return 2.0 * math.acosh(c)


def semiregular_profile(sig: Sequence[int]) -> dict:
    """Edge length, apothems, circumradii and incenter gaps of [m1, m2, m3].

    The apothem of the m_i-gon is a_i = arcsinh(tanh(l/2) cot(pi/m_i)) and
    its circumradius satisfies cosh(r_i) = cosh(a_i) cosh(l/2) (right-angled
    triangle between incenter, edge midpoint and vertex).  The incenter gap
    a_i + a_{i+1} is the incenter-to-incenter distance across the edge
    shared by the m_i- and m_{i+1}-gons, that edge being orthogonal to the
    segment joining the incenters.  ``sig`` is checked as in
    ``semiregular_edge_length``.
    """
    m1, m2, m3 = m = _check_semiregular(sig)
    l = semiregular_edge_length(m)
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
