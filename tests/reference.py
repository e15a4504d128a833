"""Published reference tables and the estimator reports scored against them.

Test fixtures, not pipeline code: nothing in ``floqtess`` imports this
module.  Each row pins the published ``[[n, k, d]]`` for one tessellation
signature at one genus.  ``n`` and ``k`` are reproduced exactly by the
counting rules; ``d`` is a reference point compared under an explicit
tolerance, never asserted as ground truth.  The two single-family tables
carry their ratio columns verbatim, so a row whose ratios contradict its
own ``[[n, k, d]]`` entry can be flagged mechanically and excluded from
tolerance scoring instead of silently skewing it.

:func:`encoding_rate` is the exact closed form of k/n that the quoted
family rate formulas are checked against, and :func:`estimator_report`
and :func:`family_report` score :func:`floqtess.geodist.estimate_distance`
against the tables.

The closed-form oracles below are the paper's count formulas, which the
tests compare the pipeline against: :func:`surface_area` (Gauss-Bonnet),
:func:`regular_counts` (the cells of {p,q} on a surface),
:func:`clip_counts` and :func:`incenter_counts` (the cells after each
derivation, from the characteristic alone) and :func:`polygon_surface`,
which glues any one-polygon boundary word and recovers its vertices,
genus and orientability from the corner orbits.  :func:`incenter_chord`
is the chord between incenters one face apart as it was first written,
and :func:`chord_table` composes it over a profile's gaps as
``geodist._chord_table`` first did; the tests hold the package's
straight-line chords equal to it, bit for bit.

:func:`walk_clip_complex` and :func:`walk_incenter_complex` are the
derivations as they were first written, each face stepped out by
:func:`walk` round its orbit of two flag involutions; the tests hold the
pipeline's versions, which read the same faces off the orbits the flag map
lists, equal to them.  :func:`reference_dual` steps out the dual the same
way; the package builds no dual, and the tests take every dual they use
as an input from it.  :func:`isomorphic` compares two complexes by a
canonical encoding of their flag maps, and :func:`face_stabilizer` gives
the row of a face's cycle operator, built with :func:`_pauli_row`; the
package calls neither, and the tests check derived complexes and steady
phases with them.

:class:`StabilizerGroup` is a group as the tuple of its canonical rows,
so equal groups compare equal; the tests compare the ISG run's steady
phases, read off with ``helpers._canonical_rows``, against reference
trajectories with it.  :func:`reference_min_logical_weight` is the exact
distance search as it was first written, over such groups with the eager
tables :func:`reference_syndromes` and :func:`reference_cosupport_graph`,
enumerating supports with :func:`connected_supports` and their letterings
with :func:`_weight_hits`; :func:`_phase_tables` builds the same tables
lazily off a run's slot state.  The oracle searches only supports
connected in a phase's co-support graph, a prune the pipeline does not
make: the pipeline's search settles every weight by syndrome collisions
over the run's slot states, over every support, and the tests hold the
two to the same distances, with each witness checked to be a logical of
that weight.

:func:`reference_measure_round` is the ISG kernel as it stood before its
set-bit loops stepped through a per-run table of powers of two, shifts
and all; the tests hold the kernel's slot state after every measured
round equal to its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from floqtess import floquet
from floqtess.coloring import PAULI_OF
from floqtess.derive import _pair_names, _require_pq, _slot_labels
from floqtess.floquet import _LETTERS
from floqtess.geodist import estimate_distance
from floqtess.hypgeo import _check_genus, _check_semiregular, regular_profile, semiregular_profile
from floqtess.surface import Edge, Slot, SurfaceComplex, SurfaceError, _FlagMap
from helpers import _bits, _canonical_rows, reduce_vec


class RefRow(NamedTuple):
    m: tuple[int, int, int]
    n: int
    k: int
    d: int


class FamilyRow(NamedTuple):
    genus: int
    n: int
    k: int
    d: int
    k_n: float
    kd2_n: float
    d_n: float


def _rows(*items) -> tuple[RefRow, ...]:
    return tuple(RefRow(tuple(sorted(m)), n, k, d) for m, n, k, d in items)


# Regular {p,3} rows, realised as the quasi-regular triple [p,p,p]:
# (genus, p, n, k, d).
REGULAR_ORIENTABLE = (
    (2, 8, 16, 4, 3),
    (2, 10, 10, 4, 2),
    (3, 8, 32, 6, 3),
    (3, 10, 20, 6, 2),
    (3, 14, 14, 6, 2),
    (4, 8, 48, 8, 4),
    (4, 10, 30, 8, 3),
    (4, 12, 24, 8, 2),
    (4, 18, 18, 8, 2),
    (5, 8, 64, 10, 4),
    (5, 10, 40, 10, 3),
    (5, 14, 28, 10, 2),
    (5, 22, 22, 10, 2),
)

SEMIREGULAR_ORIENTABLE = {
    2: _rows(
        ((4, 6, 14), 168, 4, 5),
        ((4, 6, 16), 96, 4, 4),
        ((4, 6, 18), 72, 4, 3),
        ((4, 6, 20), 60, 4, 3),
        ((4, 6, 24), 48, 4, 3),
        ((4, 6, 36), 36, 4, 2),
        ((4, 8, 10), 80, 4, 4),
        ((4, 8, 12), 48, 4, 3),
        ((4, 8, 16), 32, 4, 3),
        ((4, 8, 24), 24, 4, 2),
        ((4, 10, 10), 40, 4, 3),
        ((4, 10, 20), 20, 4, 2),
        ((4, 12, 12), 24, 4, 2),
        ((4, 16, 16), 16, 4, 2),
        ((6, 6, 8), 48, 4, 4),
        ((6, 6, 10), 30, 4, 3),
        ((6, 6, 12), 24, 4, 3),
        ((6, 6, 18), 18, 4, 2),
        ((6, 8, 8), 24, 4, 3),
        ((6, 12, 12), 12, 4, 2),
        ((8, 8, 8), 16, 4, 3),
        ((10, 10, 10), 10, 4, 2),
    ),
    3: _rows(
        ((4, 6, 14), 336, 6, 7),
        ((4, 6, 16), 192, 6, 5),
        ((4, 6, 18), 144, 6, 4),
        ((4, 6, 20), 120, 6, 4),
        ((4, 6, 24), 96, 6, 3),
        ((4, 6, 28), 84, 6, 3),
        ((4, 6, 36), 72, 6, 3),
        ((4, 6, 60), 60, 6, 2),
        ((4, 8, 10), 160, 6, 5),
        ((4, 8, 12), 96, 6, 4),
        ((4, 8, 16), 64, 6, 3),
        ((4, 8, 24), 48, 6, 2),
        ((4, 8, 40), 40, 6, 2),
        ((4, 10, 10), 80, 6, 4),
        ((4, 10, 12), 60, 6, 3),
        ((4, 10, 20), 40, 6, 2),
        ((4, 12, 12), 48, 6, 3),
        ((4, 12, 18), 36, 6, 2),
        ((4, 14, 28), 28, 6, 2),
        ((4, 16, 16), 32, 6, 2),
        ((4, 24, 24), 24, 6, 2),
        ((6, 6, 8), 96, 6, 5),
        ((6, 6, 10), 60, 6, 4),
        ((6, 6, 12), 48, 6, 3),
        ((6, 6, 14), 42, 6, 3),
        ((6, 6, 18), 36, 6, 3),
        ((6, 6, 30), 30, 6, 2),
        ((6, 8, 8), 48, 6, 4),
        ((6, 8, 24), 24, 6, 2),
        ((6, 10, 10), 30, 6, 3),
        ((6, 12, 12), 24, 6, 2),
        ((6, 18, 18), 18, 6, 2),
        ((8, 8, 8), 32, 6, 3),
        ((8, 8, 12), 24, 6, 3),
        ((8, 16, 16), 16, 6, 2),
        ((10, 10, 10), 20, 6, 2),
        ((14, 14, 14), 14, 6, 2),
    ),
    4: _rows(
        ((4, 6, 14), 504, 8, 8),
        ((4, 6, 16), 288, 8, 6),
        ((4, 6, 18), 216, 8, 5),
        ((4, 6, 20), 180, 8, 4),
        ((4, 6, 24), 144, 8, 4),
        ((4, 6, 30), 120, 8, 3),
        ((4, 6, 36), 108, 8, 3),
        ((4, 6, 48), 96, 8, 3),
        ((4, 6, 84), 84, 8, 2),
        ((4, 8, 10), 240, 8, 6),
        ((4, 8, 12), 144, 8, 5),
        ((4, 8, 14), 112, 8, 4),
        ((4, 8, 16), 96, 8, 4),
        ((4, 8, 20), 80, 8, 3),
        ((4, 8, 24), 72, 8, 3),
        ((4, 8, 32), 64, 8, 2),
        ((4, 8, 56), 56, 8, 2),
        ((4, 10, 10), 120, 8, 4),
        ((4, 10, 20), 60, 8, 3),
        ((4, 12, 12), 72, 8, 3),
        ((4, 12, 24), 48, 8, 2),
        ((4, 14, 14), 56, 8, 3),
        ((4, 16, 16), 48, 8, 2),
        ((4, 18, 36), 36, 8, 2),
        ((4, 20, 20), 40, 8, 2),
        ((4, 32, 32), 32, 8, 2),
        ((6, 6, 8), 144, 8, 6),
        ((6, 6, 10), 90, 8, 4),
        ((6, 6, 12), 72, 8, 4),
        ((6, 6, 18), 54, 8, 3),
        ((6, 6, 24), 48, 8, 3),
        ((6, 6, 42), 42, 8, 2),
        ((6, 8, 8), 72, 8, 4),
        ((6, 8, 12), 48, 8, 3),
        ((6, 10, 30), 30, 8, 2),
        ((6, 12, 12), 36, 8, 3),
        ((6, 24, 24), 24, 8, 2),
        ((8, 8, 8), 48, 8, 4),
        ((8, 8, 10), 40, 8, 3),
        ((8, 8, 16), 32, 8, 2),
        ((8, 12, 24), 24, 8, 2),
        ((10, 10, 10), 30, 8, 3),
        ((10, 20, 20), 20, 8, 2),
        ((12, 12, 12), 24, 8, 2),
        ((18, 18, 18), 18, 8, 2),
    ),
    5: _rows(
        ((4, 6, 14), 672, 10, 9),
        ((4, 6, 16), 384, 10, 6),
        ((4, 6, 18), 288, 10, 5),
        ((4, 6, 20), 240, 10, 5),
        ((4, 6, 24), 192, 10, 4),
        ((4, 6, 28), 168, 10, 4),
        ((4, 6, 36), 144, 10, 3),
        ((4, 6, 44), 132, 10, 3),
        ((4, 6, 60), 120, 10, 3),
        ((4, 6, 108), 108, 10, 2),
        ((4, 8, 10), 320, 10, 7),
        ((4, 8, 12), 192, 10, 5),
        ((4, 8, 16), 128, 10, 4),
        ((4, 8, 24), 96, 10, 3),
        ((4, 8, 40), 80, 10, 2),
        ((4, 8, 72), 72, 10, 2),
        ((4, 10, 10), 160, 10, 5),
        ((4, 10, 12), 120, 10, 4),
        ((4, 10, 20), 80, 10, 3),
        ((4, 10, 60), 60, 10, 2),
        ((4, 12, 12), 96, 10, 3),
        ((4, 12, 14), 84, 10, 3),
        ((4, 12, 18), 72, 10, 3),
        ((4, 12, 30), 60, 10, 2),
        ((4, 14, 28), 56, 10, 2),
        ((4, 16, 16), 64, 10, 3),
        ((4, 16, 48), 48, 10, 2),
        ((4, 22, 44), 44, 10, 2),
        ((4, 24, 24), 48, 10, 2),
        ((4, 40, 40), 40, 10, 2),
        ((6, 6, 8), 192, 10, 6),
        ((6, 6, 10), 120, 10, 5),
        ((6, 6, 12), 96, 10, 4),
        ((6, 6, 14), 84, 10, 4),
        ((6, 6, 18), 72, 10, 3),
        ((6, 6, 22), 66, 10, 3),
        ((6, 6, 30), 60, 10, 3),
        ((6, 6, 54), 54, 10, 2),
        ((6, 8, 8), 96, 10, 4),
        ((6, 8, 24), 48, 10, 2),
        ((6, 10, 10), 60, 10, 3),
        ((6, 12, 12), 48, 10, 3),
        ((6, 12, 36), 36, 10, 2),
        ((6, 14, 14), 42, 10, 2),
        ((6, 18, 18), 36, 10, 2),
        ((6, 30, 30), 30, 10, 2),
        ((8, 8, 8), 64, 10, 4),
        ((8, 8, 12), 48, 10, 3),
        ((8, 8, 20), 40, 10, 2),
        ((8, 16, 16), 32, 10, 2),
        ((10, 10, 10), 40, 10, 3),
        ((10, 10, 30), 30, 10, 2),
        ((12, 24, 24), 24, 10, 2),
        ((14, 14, 14), 28, 10, 2),
        ((22, 22, 22), 22, 10, 2),
    ),
}

# Non-orientable rows as printed, duplicates and all: the source lists the
# clip of {p,q} and of {q,p} as separate rows even though they sort to the
# same triple.  Compare through dedup().
SEMIREGULAR_NONORIENTABLE = {
    3: _rows(
        ((6, 6, 8), 24, 3, 4),
        ((6, 16, 4), 48, 3, 4),
        ((6, 6, 12), 12, 3, 2),
        ((6, 24, 4), 24, 3, 2),
        ((8, 8, 6), 12, 3, 4),
        ((8, 12, 4), 24, 3, 4),
        ((8, 8, 8), 8, 3, 2),
        ((8, 16, 4), 16, 3, 2),
        ((10, 10, 4), 20, 3, 4),
        ((10, 8, 4), 40, 3, 4),
        ((12, 12, 4), 12, 3, 2),
        ((12, 8, 4), 24, 3, 4),
        ((12, 12, 6), 6, 3, 2),
        ((12, 12, 4), 12, 3, 2),
        ((16, 16, 4), 8, 3, 2),
        ((16, 8, 4), 16, 3, 2),
    ),
    5: _rows(
        ((6, 6, 8), 72, 5, 6),
        ((6, 16, 4), 144, 5, 6),
        ((6, 6, 12), 36, 5, 4),
        ((6, 24, 4), 72, 5, 4),
        ((6, 6, 24), 24, 5, 2),
        ((6, 48, 4), 48, 5, 2),
        ((8, 8, 6), 36, 5, 4),
        ((8, 12, 4), 72, 5, 6),
        ((8, 8, 8), 24, 5, 4),
        ((8, 16, 4), 48, 5, 4),
        ((8, 8, 10), 20, 5, 4),
        ((8, 20, 4), 40, 5, 4),
        ((8, 8, 16), 16, 5, 2),
        ((8, 32, 4), 32, 5, 2),
        ((10, 10, 4), 60, 5, 6),
        ((10, 8, 4), 120, 5, 6),
        ((12, 12, 4), 36, 5, 4),
        ((12, 8, 4), 72, 5, 6),
        ((12, 12, 6), 18, 5, 4),
        ((12, 12, 4), 36, 5, 4),
        ((12, 12, 12), 12, 5, 2),
        ((12, 24, 4), 24, 5, 2),
        ((14, 14, 4), 28, 5, 4),
        ((14, 8, 4), 56, 5, 4),
        ((16, 16, 4), 24, 5, 4),
        ((16, 8, 4), 48, 5, 4),
        ((20, 20, 4), 20, 5, 2),
        ((20, 8, 4), 40, 5, 4),
        ((20, 20, 10), 10, 5, 2),
        ((20, 20, 4), 20, 5, 2),
        ((24, 24, 6), 12, 5, 2),
        ((24, 12, 4), 24, 5, 2),
        ((32, 32, 4), 16, 5, 2),
        ((32, 8, 4), 32, 5, 2),
    ),
    7: _rows(
        ((6, 6, 8), 120, 7, 6),
        ((6, 16, 4), 240, 7, 6),
        ((6, 6, 12), 60, 7, 4),
        ((6, 24, 4), 120, 7, 4),
        ((6, 6, 16), 48, 7, 4),
        ((6, 32, 4), 96, 7, 4),
        ((6, 6, 36), 36, 7, 2),
        ((6, 72, 4), 72, 7, 2),
        ((8, 8, 6), 60, 7, 6),
        ((8, 12, 4), 120, 7, 6),
        ((8, 8, 8), 40, 7, 4),
        ((8, 16, 4), 80, 7, 4),
        ((8, 8, 14), 28, 7, 4),
        ((8, 28, 4), 56, 7, 4),
        ((8, 8, 24), 24, 7, 2),
        ((8, 48, 4), 48, 7, 2),
        ((10, 10, 4), 100, 7, 6),
        ((10, 8, 4), 200, 7, 8),
        ((10, 10, 20), 20, 7, 2),
        ((10, 40, 4), 40, 7, 2),
        ((12, 12, 4), 60, 7, 4),
        ((12, 8, 4), 120, 7, 6),
        ((12, 12, 6), 30, 7, 4),
        ((12, 12, 4), 60, 7, 4),
        ((12, 12, 8), 24, 7, 4),
        ((12, 16, 4), 48, 7, 4),
        ((12, 12, 18), 18, 7, 2),
        ((12, 36, 4), 36, 7, 2),
        ((16, 16, 4), 40, 7, 4),
        ((16, 8, 4), 80, 7, 4),
        ((16, 16, 6), 24, 7, 4),
        ((16, 12, 4), 48, 7, 4),
        ((16, 16, 16), 16, 7, 2),
        ((16, 32, 4), 32, 7, 2),
        ((18, 18, 4), 36, 7, 4),
        ((18, 8, 4), 72, 7, 4),
        ((28, 28, 4), 28, 7, 2),
        ((28, 8, 4), 56, 7, 4),
        ((28, 28, 14), 14, 7, 2),
        ((28, 28, 4), 28, 7, 2),
        ((32, 32, 8), 16, 7, 2),
        ((32, 16, 4), 32, 7, 2),
        ((36, 36, 6), 18, 7, 2),
        ((36, 12, 4), 36, 7, 2),
        ((48, 48, 4), 24, 7, 2),
        ((48, 8, 4), 48, 7, 2),
    ),
}

HEXHEX_SIGNATURE = (6, 6, 8)

# [6,6,8] family over orientable genus 2..50: (g, n, k, d, k/n, kd²/n, d/n)
# with the ratio columns kept verbatim.
HEXHEX_ORIENTABLE = tuple(FamilyRow(*row) for row in (
    (2, 48, 4, 4, 0.083, 1.333, 0.08333),
    (3, 96, 6, 5, 0.062, 1.562, 0.052),
    (4, 144, 8, 6, 0.055, 2.0, 0.041),
    (5, 192, 10, 6, 0.052, 1.875, 0.031),
    (6, 240, 12, 7, 0.05, 2.45, 0.029),
    (7, 288, 14, 7, 0.048, 2.381, 0.024),
    (8, 336, 16, 5, 0.095, 2.38, 0.029),
    (9, 384, 18, 8, 0.046, 3.0, 0.02),
    (10, 432, 20, 8, 0.046, 2.962, 0.018),
    (11, 480, 22, 8, 0.045, 2.933, 0.016),
    (12, 528, 24, 8, 0.045, 2.909, 0.015),
    (13, 576, 26, 9, 0.045, 3.656, 0.015),
    (14, 624, 28, 9, 0.044, 3.634, 0.014),
    (15, 672, 30, 9, 0.044, 3.616, 0.013),
    (16, 720, 32, 9, 0.044, 3.6, 0.012),
    (17, 768, 34, 9, 0.044, 3.585, 0.011),
    (18, 816, 36, 9, 0.044, 3.573, 0.011),
    (19, 864, 38, 10, 0.043, 4.398, 0.011),
    (20, 912, 40, 10, 0.043, 4.385, 0.01),
    (21, 960, 42, 10, 0.043, 4.375, 0.01),
    (22, 1008, 44, 10, 0.043, 4.365, 0.009),
    (23, 1056, 46, 10, 0.043, 4.356, 0.009),
    (24, 1104, 48, 10, 0.043, 4.347, 0.009),
    (25, 1152, 50, 10, 0.043, 4.34, 0.008),
    (26, 1200, 52, 10, 0.043, 4.333, 0.008),
    (27, 1248, 54, 10, 0.043, 4.326, 0.008),
    (28, 1296, 56, 10, 0.043, 4.32, 0.007),
    (29, 1344, 58, 10, 0.043, 4.315, 0.007),
    (30, 1392, 60, 11, 0.043, 5.215, 0.007),
    (40, 1872, 80, 11, 0.042, 5.17, 0.005),
    (50, 2352, 100, 12, 0.042, 6.122, 0.005),
))

# Same family over non-orientable genus 3..51.
HEXHEX_NONORIENTABLE = tuple(FamilyRow(*row) for row in (
    (3, 24, 3, 4, 0.125, 2.0, 0.16666),
    (4, 48, 4, 4, 0.083, 1.333, 0.08333),
    (5, 72, 5, 6, 0.069, 2.5, 0.08333),
    (6, 96, 6, 6, 0.062, 2.25, 0.0625),
    (7, 120, 7, 6, 0.058, 2.1, 0.05),
    (8, 144, 8, 8, 0.055, 3.555, 0.05555),
    (9, 168, 9, 8, 0.053, 3.428, 0.04761),
    (10, 192, 10, 8, 0.052, 3.333, 0.04166),
    (11, 216, 11, 8, 0.05, 3.259, 0.03703),
    (12, 240, 12, 8, 0.05, 3.2, 0.03333),
    (13, 264, 13, 8, 0.049, 3.151, 0.0303),
    (14, 288, 14, 8, 0.048, 3.111, 0.02777),
    (15, 312, 15, 8, 0.048, 3.076, 0.02564),
    (16, 336, 16, 8, 0.047, 3.047, 0.0238),
    (17, 360, 17, 10, 0.047, 4.722, 0.02777),
    (18, 384, 18, 10, 0.046, 4.687, 0.02604),
    (19, 408, 19, 10, 0.046, 4.656, 0.0245),
    (20, 432, 20, 10, 0.046, 4.629, 0.02314),
    (21, 456, 21, 10, 0.046, 4.605, 0.02192),
    (22, 480, 22, 10, 0.045, 4.583, 0.02083),
    (23, 504, 23, 10, 0.045, 4.563, 0.01984),
    (24, 528, 24, 10, 0.045, 4.545, 0.01893),
    (25, 552, 25, 10, 0.045, 4.528, 0.01811),
    (26, 576, 26, 10, 0.045, 4.513, 0.01736),
    (27, 600, 27, 10, 0.045, 4.5, 0.01666),
    (28, 624, 28, 10, 0.044, 4.487, 0.01602),
    (29, 648, 29, 10, 0.044, 4.475, 0.01543),
    (30, 672, 30, 10, 0.044, 4.464, 0.01488),
    (31, 696, 31, 10, 0.044, 4.454, 0.01436),
    (41, 936, 41, 12, 0.043, 6.307, 0.01282),
    (51, 1176, 51, 12, 0.043, 6.244, 0.0102),
))


def dedup(rows):
    """Unique rows, first occurrence order."""
    return tuple(dict.fromkeys(rows))


# Printed ratios are truncated, not rounded, so a correct row can sit up
# to ~15% below the recomputed value at these magnitudes; a row built from
# the wrong n is off by ~100%.  The threshold separates the two regimes.
_RATIO_RTOL = 0.35


def ratios_consistent(row: FamilyRow) -> bool:
    """True when the row's ratio columns agree with its own n, k, d."""
    true = (row.k / row.n, row.k * row.d**2 / row.n, row.d / row.n)
    printed = (row.k_n, row.kd2_n, row.d_n)
    return all(abs(p - t) <= _RATIO_RTOL * t for p, t in zip(printed, true))


def encoding_rate(m: Sequence[int], genus: int, orientable: bool = True) -> Fraction:
    """k/n as exact arithmetic, whether or not the cell counts are integral.

    Twice this is the rate under the k = 4 - 2*chi convention (twice the
    steady-state logical count), where the quoted family formulas hold
    exactly: (g/(g-1))*(p-3)/(3p) for [6,6,2p] and (g/(g-1))*(pq-p-2q)/(pq)
    for [2p,2p,2q], with limits 1/3 and 1.
    """
    chi = _check_genus(genus, orientable)
    slack = Fraction(1, 2) - sum(Fraction(1, x) for x in _check_semiregular(m))
    return (2 - chi) * slack / abs(chi)


def surface_area(genus: int, orientable: bool) -> float:
    """Area of the closed hyperbolic surface: -2 pi chi (Gauss-Bonnet).

    chi = 2 - 2*genus for orientable surfaces (genus >= 2) and 2 - genus for
    non-orientable ones (genus >= 3); below those minima the surface admits
    no hyperbolic metric.
    """
    chi = _check_genus(genus, orientable)
    return -2.0 * math.pi * chi


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


def chord_table(m: Sequence[int]) -> tuple:
    """``geodist._chord_table`` as it was first written: each red class's
    shorter chord by :func:`incenter_chord` over the profile's gaps."""
    A = semiregular_profile(m)["incenter_gaps"]
    table = []
    for red in range(3):
        j, k = (red + 1) % 3, (red + 2) % 3
        t_r = min(incenter_chord(A[red], m[j]), incenter_chord(A[k], m[k]))
        table.append((red, t_r, A[j]))
    return tuple(table)


def polygon_surface(word: Sequence[Slot]) -> SurfaceComplex:
    """Close up a single polygon whose boundary word identifies its sides.

    ``word`` lists the boundary as (label, direction) pairs; each label must
    occur exactly twice.  Vertices are recovered from the corner orbits, and
    genus and orientability are inferred from them; validation proves both.
    """
    word = tuple((lab, d) for lab, d in word)
    for _, d in word:
        if d not in (1, -1):
            raise SurfaceError("directions must be +1 or -1")
    fm = _FlagMap((word,))
    n_orbits = len(fm.rotations)

    edges = [  # in order of first appearance
        Edge(lab, tuple(fm.vertex[fm.flag(fm.first[lab], end)] for end in (0, 1)))
        for lab in dict.fromkeys(lab for lab, _ in word)
    ]

    orientable = fm.sweep()[1]  # one face is always connected
    # A closed connected orientable surface has even chi = 2 - 2g.
    chi = n_orbits - len(edges) + 1
    return SurfaceComplex(
        orientable=orientable,
        genus=(2 - chi) // 2 if orientable else 2 - chi,
        vertices=tuple(range(n_orbits)),
        edges=tuple(edges),
        faces=(word,),
    )


def walk(fm: _FlagMap, start: int, steps: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield (k, flag) and step to sigma_k of that flag, taking k from
    ``steps`` cyclically, until a whole word of steps ends at ``start``.
    No involution fixes a flag, so a walk by two of them goes once round
    one orbit."""
    i, sigma = start, (None, fm.s1, fm.s2)
    while True:
        for k in steps:
            yield k, i
            i = sigma[k][i] if k else i ^ 1
        if i == start:
            return


def _walks(fm: _FlagMap) -> list[tuple[int, tuple[int, int]]]:
    """(start, steps) of the (0, 1) walk round each source face from its flag
    (f, 0, 0), then of the (1, 2) walk round each vertex from its rotation."""
    return [(2 * fm.base[f], (0, 1)) for f in range(len(fm.faces))] + [
        (rotation[0], (1, 2)) for rotation in fm.rotations
    ]


def walk_clip_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """``derive.clip_complex`` with every face stepped out by a walk: the
    truncated 2p-gons and the q-gons are the walks of :func:`_walks`, where
    sigma0 crosses an A segment, sigma1 a cut, and sigma2 stays put; each
    step is read off a per-flag table of (edge, direction)."""
    _require_pq(c, p, q)
    fm = c.flag_map()
    eindex = {e.id: i for i, e in enumerate(c.edges)}
    vertices = tuple(f"e{i}.{t}" for i in range(len(c.edges)) for t in (0, 1))
    segments = [f"A{i}" for i in range(len(c.edges))]
    # The derived vertex of every flag, 2 * (source edge) + end.
    vertex = [2 * eindex[eid] + end for eid, end in map(fm.end, range(len(fm.s1)))]
    cuts = range(1, len(fm.s1), 2)  # the head flags, which lead sigma1
    cut_names = ["B" + label for label in _slot_labels(fm)]
    table = (
        # leaving end 0 runs along the segment forwards
        [(segments[v >> 1], 1 - 2 * (v & 1)) for v in vertex],
        _pair_names(fm.s1, cuts, cut_names),
    )
    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=vertices,
        edges=tuple(Edge(a, (f"e{i}.0", f"e{i}.1")) for i, a in enumerate(segments))
        + tuple(
            Edge(name, (vertices[vertex[i]], vertices[vertex[fm.s1[i]]]))
            for i, name in zip(cuts, cut_names)
        ),
        faces=tuple(
            tuple(table[k][i] for k, i in walk(fm, start, steps) if k != 2)
            for start, steps in _walks(fm)
        ),
    )


def walk_incenter_complex(c: SurfaceComplex, p: int, q: int) -> SurfaceComplex:
    """``derive.incenter_complex`` with every face stepped out by a walk:
    the 2p-gons and 2q-gons are the walks of :func:`_walks`, then the
    quadrilaterals the (0, 2) walk from the tail flag of each source edge's
    first slot.  Each step is read off a per-flag table of (edge,
    direction), filled once per pair."""
    _require_pq(c, p, q)
    fm = c.flag_map()
    firsts = [fm.first[e.id] for e in c.edges]
    labels = _slot_labels(fm)
    vname = [f"f{label}.{t}" for label in labels for t in (0, 1)]
    # flags with t = k lead s_k; the flags on each edge's first slot lead s2
    leading = (
        range(0, len(fm.s1), 2),
        range(1, len(fm.s1), 2),
        [fm.flag(i, end) for i in firsts for end in (0, 1)],
    )
    names = (
        ["s0." + label for label in labels],
        ["s1." + label for label in labels],
        [f"s2.{e}.{end}" for e in range(len(firsts)) for end in (0, 1)],
    )
    sigma = [i ^ 1 for i in range(len(fm.s1))], fm.s1, fm.s2
    table = [_pair_names(sigma[k], leading[k], names[k]) for k in (0, 1, 2)]
    quads = [(i, (0, 2)) for i in firsts]
    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=tuple(vname),
        edges=tuple(
            Edge(name, (vname[i], vname[sigma[k][i]]))
            for k in (0, 1, 2)
            for i, name in zip(leading[k], names[k])
        ),
        faces=tuple(
            tuple(table[k][i] for k, i in walk(fm, start, steps))
            for start, steps in _walks(fm) + quads
        ),
    )


def reference_dual(c: SurfaceComplex) -> SurfaceComplex:
    """The dual: faces and vertices swapped, the source edge ids reused.
    Its vertex i is source face i, and its faces are the edge cycles round
    the source vertices, in vertex order, each stepped out by a walk: the
    (2, 1) walk from each source vertex's first flag crosses the edges round
    the vertex against its rotation, and each crossing is a slot running
    forwards from the first slot of its edge (the flag whose s2 partner is
    later).  Euler characteristic, orientability and genus carry over."""
    fm = c.flag_map()
    start = {}
    for rotation in fm.rotations:
        eid, end = fm.end(rotation[0])
        start[c.edge_by_id(eid).ends[end]] = rotation[0]
    return SurfaceComplex(
        orientable=c.orientable,
        genus=c.genus,
        vertices=tuple(range(len(c.faces))),
        edges=tuple(Edge(e.id, fm.edge_faces[e.id]) for e in c.edges),
        faces=tuple(
            tuple(
                (fm.end(i)[0], 1 if fm.s2[i] > i else -1)
                for k, i in walk(fm, start[v], (2, 1))
                if k == 2
            )
            for v in c.vertices
        ),
    )


def _certificate(c: SurfaceComplex) -> tuple:
    """Canonical encoding of the flag structure, invariant under relabeling."""
    fm = c.flag_map()
    n = len(fm.s1)
    sigma = s0, s1, s2 = [i ^ 1 for i in range(n)], fm.s1, fm.s2
    best = None
    for start in range(n):
        order = [-1] * n
        order[start] = 0
        queue = [start]
        nxt = 1
        for i in queue:
            for g in sigma:
                nb = g[i]
                if order[nb] == -1:
                    order[nb] = nxt
                    nxt += 1
                    queue.append(nb)
        by_label = sorted(range(n), key=order.__getitem__)
        enc = tuple((order[s0[i]], order[s1[i]], order[s2[i]]) for i in by_label)
        if best is None or enc < best:
            best = enc
    return (n, best)


def isomorphic(a: SurfaceComplex, b: SurfaceComplex) -> bool:
    """Combinatorial-map isomorphism (up to any relabeling of cells)."""
    return _certificate(a) == _certificate(b)


def _counts_from_chi(p: int, q: int, chi: int) -> tuple[int, int, int] | None:
    """(F, E, V) of {p,q} on a surface of characteristic chi, or None."""
    regular_profile((p, q))  # raises unless {p,q} is hyperbolic
    if chi >= 0:
        raise ValueError(f"hyperbolic surfaces have negative characteristic, got {chi}")
    D = p * q - 2 * p - 2 * q
    nums = (-2 * chi * q, -chi * p * q, -2 * chi * p)
    counts = []
    for num in nums:
        quo, rem = divmod(num, D)
        if rem or quo <= 0:
            return None
        counts.append(quo)
    return tuple(counts)


def regular_counts(
    p: int, q: int, genus: int, orientable: bool
) -> tuple[int, int, int] | None:
    """(F, E, V) of the {p,q} tessellation on the given surface, or None.

    With D = pq - 2p - 2q (> 0 by hyperbolicity) and chi the Euler
    characteristic: F = -2 chi q / D, E = -chi p q / D, V = -2 chi p / D.
    Returns None when any of the three is not a positive integer — the
    tessellation does not exist on that surface.  When counts are returned
    they satisfy qV = 2E = pF and V - E + F = chi exactly.
    """
    return _counts_from_chi(p, q, _check_genus(genus, orientable))


def _source_counts(p: int, q: int, chi: int) -> tuple[int, int, int]:
    got = _counts_from_chi(p, q, chi)
    if got is None:
        raise ValueError(
            f"{{{p},{q}}} has non-integral cell counts at chi={chi}; nothing to derive"
        )
    return got


Counts = tuple[tuple[int, int, int], tuple[int, int, int]]


def clip_counts(p: int, q: int, chi: int) -> Counts:
    """The signature [2p, 2p, q] and the counts (n_v, n_e, n_f) after
    clipping {p,q} on a surface of characteristic chi.

    Faces: the F truncated 2p-gons plus the V new q-gons.  Every source edge
    survives and every corner cut adds one edge, so n_e = E + qV = (3/2)pF,
    and the derived vertices are the pF edge-ends: n_v = pF = 2E.
    """
    F, E, V = _source_counts(p, q, chi)
    return (2 * p, 2 * p, q), (p * F, E + q * V, F + V)


def incenter_counts(p: int, q: int, chi: int) -> Counts:
    """The signature [2p, 2q, 4] and the counts (n_v, n_e, n_f) after
    incenter subdivision of {p,q} at characteristic chi.

    One 2p-gon per source face, one 2q-gon per source vertex, one
    quadrilateral per source edge; n_e = 3pF and n_v = 2pF (two derived
    vertices per source edge-side).
    """
    F, E, V = _source_counts(p, q, chi)
    return (2 * p, 2 * q, 4), (2 * p * F, 3 * p * F, F + E + V)


# Largest |estimated d - reference d| the reports count as within tolerance.
TOLERANCE = 1


def _scored(genus: int, orientable: bool, m, row, **extra) -> dict:
    """One report row: the estimated distance of ``m`` against ``row.d``."""
    est = estimate_distance(m, genus, orientable)
    return {
        "genus": genus,
        "orientable": orientable,
        "signature": list(m),
        "n": row.n,
        "k": row.k,
        "reference_d": row.d,
        "parity": "odd" if row.d % 2 else "even",
        "estimated_d": est["d"],
        "delta": est["d"] - row.d,
        "within_tolerance": abs(est["d"] - row.d) <= TOLERANCE,
        **extra,
        "convention": est["convention"],
    }


def estimator_report(genus: int, orientable: bool = True) -> dict:
    """Estimated-vs-reference distances at one genus, machine readable.

    ``n`` and ``k`` always match by construction (they are recounted), so
    the report concentrates on ``d``: every nonzero delta lands in
    ``deviations`` and ``ok`` says whether all rows sit within tolerance.
    Each row's ``parity`` is that of its reference ``d``.
    """
    tables = SEMIREGULAR_ORIENTABLE if orientable else SEMIREGULAR_NONORIENTABLE
    entries = [_scored(genus, orientable, row.m, row) for row in dedup(tables[genus])]
    return {
        "genus": genus,
        "orientable": orientable,
        "tolerance": TOLERANCE,
        "rows": entries,
        "deviations": [e for e in entries if e["delta"] != 0],
        "ok": all(e["within_tolerance"] for e in entries),
    }


def family_report(orientable: bool = True, genera: Iterable[int] | None = None) -> dict:
    """Estimator sweep over the [6,6,8] family reference rows.

    Rows whose own ratio columns contradict their [[n,k,d]] are flagged
    ``reference_row_consistent: false`` and excluded from the ``ok``
    verdict — a corrupt reference value cannot fail the estimator — but
    they still appear in ``rows`` and ``deviations``.
    """
    ref = HEXHEX_ORIENTABLE if orientable else HEXHEX_NONORIENTABLE
    if genera is not None:
        wanted = set(genera)
        ref = tuple(r for r in ref if r.genus in wanted)
    entries = [
        _scored(row.genus, orientable, HEXHEX_SIGNATURE, row,
                reference_row_consistent=ratios_consistent(row))
        for row in ref
    ]
    return {
        "signature": list(HEXHEX_SIGNATURE),
        "orientable": orientable,
        "tolerance": TOLERANCE,
        "rows": entries,
        "deviations": [e for e in entries if e["delta"] != 0],
        "flagged": [e for e in entries if not e["reference_row_consistent"]],
        "ok": all(
            e["within_tolerance"]
            for e in entries if e["reference_row_consistent"]
        ),
    }


def _pauli_row(n: int, letter: str, qubits) -> int:
    """The row ``(x << n) | z`` of ``letter`` on each of ``qubits``."""
    lx, lz = _LETTERS[letter]
    unit = (lx << n) | lz
    row = 0
    for q in qubits:
        row ^= unit << q
    return row


def face_stabilizer(assign, f: int) -> int:
    """Row of the face cycle operator: X/Y/Z on the boundary of a G/B/R face.

    The face's boundary checks carry the other two colours' letters, whose
    product is the letter of the face's own colour.
    """
    cx = assign.complex
    index = {v: i for i, v in enumerate(cx.vertices)}
    tails = (index[cx.edge_by_id(eid).ends[::d][0]] for eid, d in cx.faces[f])
    return _pauli_row(len(cx.vertices), PAULI_OF[assign.face_color[f]][0], tails)


@dataclass(frozen=True)
class StabilizerGroup:
    """Stabilizer group in reduced row-echelon symplectic form.

    Rows are ``(x << n) | z`` integers with strictly decreasing pivots (top
    set bits), and no row carries another row's pivot bit, so equal groups
    compare equal.  Construction checks this in one pass over the rows,
    lowest pivot first, and that the rows fit in ``2 n`` bits.
    """

    n: int
    rows: tuple = ()

    def __post_init__(self):
        rows = self.rows
        if not isinstance(rows, tuple):
            raise ValueError("rows are not in canonical reduced form")
        # piv holds the pivots below the row: the row is canonical when it
        # carries none of them and its top bit lies above them all, that is
        # when it exceeds piv and shares no bit with it.
        piv = 0
        for r in reversed(rows):
            if r <= piv or r & piv:
                raise ValueError("rows are not in canonical reduced form")
            piv |= 1 << (r.bit_length() - 1)
        if rows and rows[0].bit_length() > 2 * self.n:
            raise ValueError("row outside the 2n-bit symplectic range")

    @property
    def rank(self) -> int:
        return len(self.rows)


def reference_syndromes(rows: Sequence[int], n: int) -> list:
    """``syn[q]``: the ``(syndrome, row)`` of X, Y and Z on qubit ``q``.

    Bit ``i`` of a syndrome is set when the letter anticommutes with
    ``rows[i]``: X meets the row's Z part, Z its X part, and Y one part but
    not both.
    """
    meets = [0] * (2 * n)  # meets[j]: the rows that carry row bit j
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            meets[low.bit_length() - 1] |= bit
            row ^= low
    ux, uy, uz = ((lx << n) | lz for lx, lz in floquet._LETTERS.values())
    return [
        ((sx, ux << q), (sx ^ sz, uy << q), (sz, uz << q))
        for q, (sx, sz) in enumerate(zip(meets[:n], meets[n:]))
    ]


def reference_cosupport_graph(rows: Sequence[int], n: int) -> list:
    """Adjacency bitmasks of the qubits: ``q`` and ``r`` are adjacent when
    one of ``rows`` acts on both."""
    adj = [0] * n
    for row in rows:
        sup = m = ((row >> n) | row) & ((1 << n) - 1)
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= sup
            m ^= low
    return [a & ~(1 << q) for q, a in enumerate(adj)]


def connected_supports(adj, w: int):
    """Yield every connected w-subset, as a sorted tuple, of the graph in
    which vertex ``v`` has the neighbour bitmask ``adj[v]``.

    Each subset grows from its least vertex through larger first-seen
    vertices, never re-picking an earlier frontier vertex, so it comes out
    once.  The last level adds frontier vertices without a neighbour scan.
    A search that stops at its first hit never builds the other subsets.
    """
    if w == 1:
        yield from ((v,) for v in range(len(adj)))
        return

    def grow(members, frontier, seen):
        if len(members) == w - 1:
            for u in _bits(frontier):
                yield tuple(sorted(members + (u,)))
            return
        for u in _bits(frontier):
            frontier ^= 1 << u
            new = adj[u] & ~seen
            yield from grow(members + (u,), frontier | new, seen | new)

    for v0, nbrs in enumerate(adj):
        below = (2 << v0) - 1  # v0 and the vertices before it
        yield from grow((v0,), nbrs & ~below, nbrs | below)


class _Lazy(dict):
    """``[read(0), ..., read(size - 1)]``, each entry computed on first read."""

    def __init__(self, read, size: int):
        self.read, self.size = read, size

    def __missing__(self, i):
        value = self[i] = self.read(i)
        return value

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(self.__getitem__, range(self.size))


def _phase_tables(rows: list, basis: list, cols: list, n: int) -> tuple:
    """The search's tables ``(syn, adj)`` of one slot state (``basis`` its
    list pivot map), built qubit by qubit on first read: ``syn[q]``, the
    ``(syndrome, row)`` of X, Y and Z on ``q``, over slots (X reads
    ``cols[q]``, Z ``cols[n + q]``, Y their XOR); ``adj[q]``, the qubits
    sharing a canonical row with ``q``."""
    canonical = _canonical_rows(rows, basis)
    ux, uy, uz = ((lx << n) | lz for lx, lz in _LETTERS.values())

    def letters(q):
        return (cols[q], ux << q), (cols[q] ^ cols[n + q], uy << q), (cols[n + q], uz << q)

    def adjacent(q):
        on_q, a = ((1 << n) | 1) << q, 0
        for row in canonical:
            if row & on_q:
                a |= row
        return ((a >> n) | a) & ((1 << n) - 1) & ~(1 << q)

    return _Lazy(letters, n), _Lazy(adjacent, n)


def _weight_hits(syn, supports):
    """Yield the row ``(x << n) | z`` of each Pauli on one of ``supports``
    that commutes with every row behind ``syn``.

    Every qubit of a support carries X, Y or Z (never identity), so each hit
    has the weight ``w`` of its support.  A lettering commutes with all rows
    iff its ``w`` syndromes XOR to zero: the 3^(w-1) letterings of all but
    the last qubit are XOR-ed up once per support and matched against the
    last qubit's three syndromes.
    """
    for sup in supports:
        partial = [(0, 0)]
        for q in sup[:-1]:
            letters = syn[q]
            partial = [(s ^ ls, r | lr) for s, r in partial for ls, lr in letters]
        for ls, lr in syn[sup[-1]]:
            for s, r in partial:
                if s == ls:
                    yield r | lr


def reference_min_logical_weight(phases) -> int:
    """The exact distance search over :class:`StabilizerGroup` phases:
    weight 1 off row ORs, then each phase's tables built in full when the
    search first reaches it, supports from :func:`connected_supports`
    (looked up on each call) and membership by reduction against every
    canonical row."""
    for phase in phases:
        n = phase.n
        mask = (1 << n) - 1
        acts = differs = 0
        for row in phase.rows:
            acts |= row
            differs |= row ^ (row >> n)
        xs, zs, ys = acts >> n, acts & mask, differs & mask
        ux, uy, uz = ((lx << n) | lz for lx, lz in floquet._LETTERS.values())
        for q in _bits(mask & ~(xs & ys & zs)):
            for used, unit in ((zs, ux), (ys, uy), (xs, uz)):
                if not used >> q & 1 and reduce_vec(phase, unit << q):
                    return 1
    tables = [None] * len(phases)
    for w in range(2, floquet._EXACT_MAX_WEIGHT + 1):
        for i, phase in enumerate(phases):
            if tables[i] is None:
                tables[i] = (
                    reference_syndromes(phase.rows, phase.n),
                    reference_cosupport_graph(phase.rows, phase.n),
                )
            syn, adj = tables[i]
            for row in _weight_hits(syn, connected_supports(adj, w)):
                if reduce_vec(phase, row):
                    return w
    raise floquet.BoundExceeded(
        f"no logical operator of weight <= {floquet._EXACT_MAX_WEIGHT}; use geometric estimator"
    )


# floquet._measure_round as it stood before its set-bit loops read a per-run
# table of powers of two, kept verbatim so the tests hold every round's slot
# state of the kernel equal to this one's.
def reference_measure_round(rows: list, basis: list, cols: list, checks: list, swap: list) -> None:
    """Measure one round's checks, in order, on an echelon basis held in
    slots, in place.

    ``rows[s]`` is the row in slot ``s``, ``basis`` is the pivot -> slot
    map, a list over the 2n row bits: ``basis[p]`` is the slot of the row
    whose pivot (top set bit) is ``p``, or -1 when no row has that pivot.
    ``cols[j]`` is a mask over slots: bit ``s`` is bit ``j`` of
    ``rows[s]``.  A pivot can so move to another slot without a column bit
    being rewritten.  ``checks`` holds ``(c, hits)`` pairs, ``hits`` the
    set bits of ``c`` with its halves swapped, ``(z << n) | x``: a row
    anticommutes with ``c`` when it carries an odd number of them, so the
    XOR of ``cols`` over them marks the rows that anticommute with ``c``.
    ``swap[j]`` is bit j's swapped-half bit, ``j + n`` below n and ``j - n``
    from n on; :func:`run_schedule` builds it once per run.

    Any anticommuting row may leave, since the new group is <c> plus the
    rows that commute with c whichever leaves.  The lighter (fewer set
    bits; on a tie, the lower pivot) of the two lowest-pivot ones does,
    and is XOR-ed into the others.  A row XOR-ed with a row of higher pivot
    takes that pivot as its top bit; only the lowest can lie below the
    leaving row, and it takes over the freed pivot, so the pivots stay
    distinct and no other pivot moves.  The check is then reduced top bit
    by top bit and joins, in the freed slot, unless it is a dependent
    commuting check.  Each reduction step must clear its top bit and set
    none above it (RuntimeError otherwise, where a broken pivot -> slot map
    would loop forever).  Both per-check invariants are checked: the rank
    does not drop, and the new row commutes with every row.  A check costs
    its anticommuting rows, plus the bits of the row that leaves, plus the
    bits of the joined row; never the rank.

    Every set-bit scan reads the top bit, which builds fewer ints than
    isolating the lowest.  Their order is free: they only XOR, OR, or pick
    the two least of distinct pivots.
    """
    for c, hits in checks:
        anti = 0
        for j in hits:
            anti ^= cols[j]
        slot = len(rows)
        if anti:
            # The two lowest-pivot anticommuting rows: slot a, pivot pa below
            # slot b, pivot pb.  Pivots are distinct, so scan order is free.
            a = b = -1
            pa = pb = len(basis)
            m = anti
            while m:
                s = m.bit_length() - 1
                p = rows[s].bit_length() - 1
                if p < pa:
                    a, pa, b, pb = s, p, a, pa
                elif p < pb:
                    b, pb = s, p
                m ^= 1 << s
            g = rows[a]
            basis[pa] = -1
            if b >= 0 and rows[b].bit_count() < g.bit_count():
                g = rows[b]
                basis[pb] = a
                slot = b
            else:
                slot = a
            m = anti ^ (1 << slot)
            while m:
                s = m.bit_length() - 1
                rows[s] ^= g
                m ^= 1 << s
            # One XOR per bit of g adds g to the other anticommuting rows and
            # clears the slot it leaves.
            while g:
                j = g.bit_length() - 1
                cols[j] ^= anti
                g ^= 1 << j
        while c:
            top = c.bit_length() - 1
            s = basis[top]
            if s < 0:
                break
            c ^= rows[s]
            if c.bit_length() > top:
                raise RuntimeError(f"pivot {top} maps to slot {s}, whose row has another top bit")
        if not c:
            if anti:
                raise RuntimeError("measurement lowered the rank")
            continue
        new = 1 << slot
        # The rows anticommuting with c are the XOR of cols over the bits of
        # c with its halves swapped; the joining slot's bits are clear, so its
        # bit is set only by the join in the same pass and is masked out of
        # the test.
        anti = 0
        v = c
        while v:
            j = v.bit_length() - 1
            anti ^= cols[swap[j]]
            cols[j] |= new
            v ^= 1 << j
        if anti & ~new:
            raise RuntimeError("measurement broke commutativity")
        basis[c.bit_length() - 1] = slot
        if slot == len(rows):
            rows.append(c)
        else:
            rows[slot] = c
