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

from .hypgeo import SemiRegularSig, incenter_chord, semiregular_profile, systole

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


def _chords(prof, m, red: int) -> tuple:
    """(t_r, t_gb) for the given red class of m, whose profile is ``prof``.

    t_r: shortest chord across either non-red pivot face; t_gb: centre
    distance between the two non-red classes.
    """
    j, k = (i for i in range(3) if i != red)
    t_r = min(
        incenter_chord(prof.a[red] + prof.a[j], m[j]),
        incenter_chord(prof.a[red] + prof.a[k], m[k]),
    )
    t_gb = prof.a[j] + prof.a[k]
    return t_r, t_gb


def estimate_distance(m, genus: int, orientable: bool) -> DistanceEstimate:
    """Minimum of d_X and d_Z over all three red-class choices.

    The winning choice is recorded in ``convention_tag``; the result is
    clamped to 2 (a weight-1 logical would contradict k > 0 two-body
    dynamics) and the clamp, when active, is part of the tag.
    """
    sig = SemiRegularSig(m)
    length = systole(genus, orientable)
    prof = semiregular_profile(sig.m)
    chords = []
    best = None  # (value, red, kind, dX, dZ)
    for red in range(3):
        t_r, t_gb = _chords(prof, sig.m, red)
        chords.append((red, t_r, t_gb))
        d_x = 2 * _ceil_guard(length / t_r)
        d_z = _ceil_guard(length / t_gb)
        for kind, val in (("X", d_x), ("Z", d_z)):
            if best is None or val < best[0]:
                best = (val, red, kind, d_x, d_z)
    val, red, kind, d_x, d_z = best
    d = max(2, val)
    tag = f"red={sig.m[red]}(class {red}),{kind}"
    if d != val:
        tag += ",clamped"
    return DistanceEstimate(d_x, d_z, d, length, tuple(chords), tag)
