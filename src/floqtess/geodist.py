"""Geometric distance estimates from systole and chord lengths.

A logical operator is charged the length of the shortest nontrivial
geodesic; dividing by the span a single Pauli can cover bounds the number
of qubits it needs.  X-type supports hop between faces of the two non-red
classes (chords across a pivot face), Z-type supports walk straight
through face centres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .hypgeo import (
    SemiRegularSig,
    _as_semiregular,
    incenter_chord,
    semiregular_profile,
    systole,
)

# Ratios sitting within this distance above an integer count as that
# integer: several families make systole/chord an exact integer and float
# noise must not push the ceiling up a step.
_CEIL_EPS = 1e-9


def _ceil_guard(ratio: float) -> int:
    if ratio <= 0 or not math.isfinite(ratio):
        raise ValueError(f"ratio must be positive and finite, got {ratio}")
    return max(1, math.ceil(ratio - _CEIL_EPS))


@dataclass(frozen=True)
class DistanceEstimate:
    """Estimated distance with the winning colour convention recorded."""

    d_X: int
    d_Z: int
    d: int
    systole_used: float
    chords_used: tuple  # (red class index, t_r, t_gb) per choice
    convention_tag: str

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("estimates are clamped to d >= 2")
        if self.d_X % 2:
            raise ValueError("d_X is twice a ceiling, hence even")

    def as_json(self) -> dict:
        return {
            "d": self.d,
            "d_X": self.d_X,
            "d_Z": self.d_Z,
            "systole": self.systole_used,
            "chords": [list(c) for c in self.chords_used],
            "convention": self.convention_tag,
        }


@cache
def _chord_table(sig: SemiRegularSig) -> tuple:
    """``(red, t_r, t_gb)`` for each red class of ``sig``, in class order.

    t_r: shortest chord across either non-red pivot face; t_gb: centre
    distance between the two non-red classes.  With j, k the classes after
    red (mod 3), the gaps are the profile's ``A``: A[red] and A[k] from red
    to j and k, A[j] from j to k.  Both depend on the ordered triple alone
    (a SemiRegularSig hashes and compares as its ``m``), so a table over
    many genera works out each signature's edge length (the closed form
    plus one Newton step) once per process, and nothing is evicted.  The
    profile is read through this module's binding of
    ``semiregular_profile``, so a wrapper put there sees every real solve.
    """
    A, m = semiregular_profile(sig).A, sig.m
    table = []
    for red in range(3):
        j, k = (red + 1) % 3, (red + 2) % 3
        t_r = min(incenter_chord(A[red], m[j]), incenter_chord(A[k], m[k]))
        table.append((red, t_r, A[j]))
    return tuple(table)


def estimate_distance(
    m: SemiRegularSig | Sequence[int], genus: int, orientable: bool
) -> DistanceEstimate:
    """Minimum of d_X and d_Z over all three red-class choices.

    The winning choice is recorded in ``convention_tag``; the result is
    clamped to 2 (a weight-1 logical would contradict k > 0 two-body
    dynamics) and the clamp, when active, is part of the tag.  The chords
    come from a per-process cache keyed by the ordered triple; the
    systole, ceilings and clamp are worked out on every call.
    """
    sig = _as_semiregular(m)
    length = systole(genus, orientable)
    chords = _chord_table(sig)
    best = None  # (value, red, kind, dX, dZ)
    for red, t_r, t_gb in chords:
        d_x = 2 * _ceil_guard(length / t_r)
        d_z = _ceil_guard(length / t_gb)
        val, kind = (d_x, "X") if d_x <= d_z else (d_z, "Z")
        if best is None or val < best[0]:
            best = (val, red, kind, d_x, d_z)
    val, red, kind, d_x, d_z = best
    d = max(2, val)
    tag = f"red={sig.m[red]}(class {red}),{kind}"
    if d != val:
        tag += ",clamped"
    return DistanceEstimate(d_x, d_z, d, length, chords, tag)
