"""Small readings of floqtess objects that only the tests need.

Nothing in ``floqtess`` imports this module.  Rows are the symplectic
int rows ``(x << n) | z`` of :mod:`floqtess.floquet`.
"""

from __future__ import annotations

from floqtess.floquet import _canonical_rows


def swap_halves(v: int, n: int) -> int:
    """``(z << n) | x`` of the row ``(x << n) | z``: the symplectic product
    of ``u`` and ``v`` is the parity of ``u & swap_halves(v, n)``."""
    return ((v & ((1 << n) - 1)) << n) | (v >> n)


def sympl(u: int, v: int, n: int) -> int:
    """1 when the rows ``u`` and ``v`` anticommute, else 0."""
    return (u & swap_halves(v, n)).bit_count() & 1


def steady_groups(result) -> tuple:
    """The three steady phases of a ``ScheduleResult`` as canonical groups
    (``reference.StabilizerGroup``), read off its slot states with
    ``floquet._canonical_rows``; ``()`` when the run did not settle."""
    from reference import StabilizerGroup  # reference imports this module

    return tuple(
        StabilizerGroup(result.n, _canonical_rows(rows, basis))
        for rows, basis, _ in result.phase_bases
    )


def reduce_vec(group, v: int) -> int:
    """``v`` reduced against every row of the canonical
    ``reference.StabilizerGroup`` ``group``: 0 exactly when ``v`` lies in
    the group."""
    for row in group.rows:
        if (v >> (row.bit_length() - 1)) & 1:
            v ^= row
    return v


def face_sizes(cx) -> list[int]:
    """The face sizes of a ``SurfaceComplex``, ascending."""
    return sorted(len(face) for face in cx.faces)


def face_census(counts) -> dict[int, int]:
    """Number of faces of each size of a ``DerivedCounts``, keyed by
    polygon size; ValueError when a size's face count is not integral."""
    m = counts.signature.m
    out = {}
    for size in sorted(set(m)):
        corners = m.count(size) * counts.n_v
        if corners % size:
            raise ValueError(
                f"face count for size {size} is not integral: {corners}/{size}"
            )
        out[size] = corners // size
    return out
