"""Geometric distance estimates from systole and chord lengths.

A logical operator is charged the length of the shortest nontrivial
geodesic; dividing by the span a single Pauli can cover bounds the number
of qubits it needs.  X-type supports hop between faces of the two non-red
classes (chords across a pivot face), Z-type supports walk straight
through face centres.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence

from .hypgeo import _check_semiregular, semiregular_profile, systole

# Ratios sitting within this distance above an integer count as that
# integer: several families make systole/chord an exact integer and float
# noise must not push the ceiling up a step.
_CEIL_EPS = 1e-9


@cache
def _chord_table(m: tuple[int, int, int]) -> tuple:
    """``(red, t_r, t_gb)`` for each red class of the ordered triple ``m``,
    in class order.

    t_r: shortest chord across either non-red pivot face; t_gb: centre
    distance between the two non-red classes.  With j, k the classes after
    red (mod 3), A is the profile's ``incenter_gaps``: A[red] and A[k] from
    red to j and k, A[j] from j to k.  A chord joins two faces that touch a
    pivot m-gon two edges apart round it, each at the gap A from its
    incenter, so by the law of cosines it is
    arccosh[cosh^2(A) - sinh^2(A) cos(4 pi / m)], which collapses to 2A at
    m = 4 (the two segments are collinear); t_r is the shorter of A[red]
    pivoted at j and A[k] pivoted at k.  The argument is at least 1
    (cos <= 1 and cosh^2 - sinh^2 = 1) and clamped there against rounding;
    a gap that is not positive raises ValueError.

    Both depend on the ordered triple alone, so the table is keyed by
    ``m``, the plain tuple of ints ``hypgeo._check_semiregular`` returned,
    and solves each triple once per process; nothing is evicted.  It is
    the package's only per-triple cache.  The profile, which checks ``m``
    again, is read through this module's binding of
    ``semiregular_profile``, so a wrapper there sees every solve.
    """
    A0, A1, A2 = semiregular_profile(m)["incenter_gaps"]
    if not (A0 > 0 and A1 > 0 and A2 > 0):
        raise ValueError("incenter gap must be positive")
    # cos(4 pi / m) per position; cosh^2 and sinh^2 per gap, pivoted at both its faces.
    k0 = math.cos(4.0 * math.pi / m[0])
    k1 = math.cos(4.0 * math.pi / m[1])
    k2 = math.cos(4.0 * math.pi / m[2])
    ch, sh = math.cosh(A0), math.sinh(A0)
    c0, s0 = ch * ch, sh * sh
    ch, sh = math.cosh(A1), math.sinh(A1)
    c1, s1 = ch * ch, sh * sh
    ch, sh = math.cosh(A2), math.sinh(A2)
    c2, s2 = ch * ch, sh * sh
    return (
        (0, min(math.acosh(max(c0 - s0 * k1, 1.0)), math.acosh(max(c2 - s2 * k2, 1.0))), A1),
        (1, min(math.acosh(max(c1 - s1 * k2, 1.0)), math.acosh(max(c0 - s0 * k0, 1.0))), A2),
        (2, min(math.acosh(max(c2 - s2 * k0, 1.0)), math.acosh(max(c1 - s1 * k1, 1.0))), A0),
    )


def estimate_distance(m: Sequence[int], genus: int, orientable: bool) -> dict:
    """Minimum of d_X and d_Z over all three red-class choices.

    Returns the document ``distance --mode geo`` prints, the winning
    choice recorded under ``convention``.  ``d`` is clamped to 2 (a
    weight-1 logical would contradict k > 0 two-body dynamics) and the
    clamp, when active, is part of the tag.

    Per distinct triple, once per process: its chords (``_chord_table``).
    Per row: the vertex type's checks (``hypgeo._check_semiregular``); the
    systole, genus checks included (``systole``); the six
    systole/chord ratios, each of which must be positive and finite
    (ValueError otherwise), and their ceilings, ceil(ratio - _CEIL_EPS) and
    at least 1, with d_X twice its ceiling; then the minimum, the clamp and
    the tag.
    """
    m = _check_semiregular(m)
    length = systole(genus, orientable)
    chords = _chord_table(m)
    best = None  # (value, red, kind, dX, dZ)
    for red, t_r, t_gb in chords:
        # Each ratio must be positive and finite (X checked first, Z formed
        # only after); its ceiling is ceil(ratio - _CEIL_EPS), at least 1.
        x = length / t_r
        if not (0.0 < x < math.inf and 0.0 < (z := length / t_gb) < math.inf):
            bad = z if 0.0 < x < math.inf else x
            raise ValueError(f"ratio must be positive and finite, got {bad}")
        d_x = 2 * (math.ceil(x - _CEIL_EPS) or 1)
        d_z = math.ceil(z - _CEIL_EPS) or 1
        val, kind = (d_x, "X") if d_x <= d_z else (d_z, "Z")
        if best is None or val < best[0]:
            best = (val, red, kind, d_x, d_z)
    val, red, kind, d_x, d_z = best
    d = max(2, val)
    tag = f"red={m[red]}(class {red}),{kind}"
    if d != val:
        tag += ",clamped"
    return {"d": d, "d_X": d_x, "d_Z": d_z, "systole": length,
            "chords": chords, "convention": tag}
