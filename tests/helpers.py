"""Small readings of floqtess objects that only the tests need.

Nothing in ``floqtess`` imports this module.  Rows are the symplectic
int rows ``(x << n) | z`` of :mod:`floqtess.floquet`.
"""

from __future__ import annotations


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _canonical_rows(rows: list, basis: list) -> tuple:
    """The canonical rows of a slot basis of ``floquet._measure_round``:
    pivots (top set bits) strictly decreasing and no row carrying another
    row's pivot bit, so equal groups give equal tuples.  One pass over the
    pivot map in ascending order, skipping free pivots (-1): each row XORs
    in the already-canonical rows of the lower pivots it carries
    (``v & piv``), and each XOR clears one such pivot bit and sets no
    other."""
    canonical: dict[int, int] = {}
    piv = 0
    for p, s in enumerate(basis):
        if s < 0:
            continue
        v = rows[s]
        m = v & piv
        while m:  # _bits inlined, top bit first: the XORs commute
            j = m.bit_length() - 1
            v ^= canonical[j]
            m ^= 1 << j
        canonical[p] = v
        piv |= 1 << p
    return tuple(reversed(canonical.values()))


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
    :func:`_canonical_rows`; ``()`` when the run did not settle."""
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
