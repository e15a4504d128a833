"""Symplectic Pauli algebra and the dynamics of measured check schedules.

Measuring the three colour classes cyclically drives the instantaneous
stabilizer group (ISG) into a period-3 steady state; the number of logical
qubits is read off its rank and the code distance from a minimum-weight
search over Paulis that commute with the ISG without belonging to it.
The ISG is updated one measured round per kernel call, the round's checks
in order, on rows held in slots, with a pivot -> slot map and one slot mask
per row bit.  The search grows connected supports with their letterings,
each letter's syndrome read off those masks; ``tests/reference.py`` keeps
the search as first written."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import geodist
from .coloring import PAULI_OF, ROUND_COLOR, three_color
from .derive import (
    _admitted_vertex_count,
    polygon_complex,
    polygon_route,
    semiregular_counts_direct,
)
from .hypgeo import SemiRegularSig, _check_genus

# (x, z) bits of each Pauli letter, in the order the search tries them.
_LETTERS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# Largest n the exact distance search takes on; largest weight it tries.
_EXACT_MAX_N = 40
_EXACT_MAX_WEIGHT = 6


class BoundExceeded(ValueError):
    """Exact search out of range; use the geometric estimator instead."""


def _pauli_row(n: int, letter: str, qubits) -> int:
    """The row ``(x << n) | z`` of ``letter`` on each of ``qubits``."""
    lx, lz = _LETTERS[letter]
    unit = (lx << n) | lz
    row = 0
    for q in qubits:
        row ^= unit << q
    return row


def _measure_round(rows: list, basis: dict, cols: list, checks: list, n: int) -> None:
    """Measure one round's checks, in order, on an echelon basis held in
    slots, in place.

    ``rows[s]`` is the row in slot ``s``, ``basis`` maps each pivot (top
    set bit) to the slot that holds it, and ``cols[j]`` is a mask over
    slots: bit ``s`` is bit ``j`` of ``rows[s]``.  A pivot can so move to
    another slot without a column bit being rewritten.  ``checks`` holds
    ``(c, hits)`` pairs, ``hits`` the set bits of ``c`` with its halves
    swapped, ``(z << n) | x``: a row anticommutes with ``c`` when it
    carries an odd number of them, so the XOR of ``cols`` over them marks
    the rows that anticommute with ``c``.

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
    swap = list(range(n, 2 * n)) + list(range(n))  # bit j's swapped-half bit
    for c, hits in checks:
        anti = 0
        for j in hits:
            anti ^= cols[j]
        slot = len(rows)
        if anti:
            # The two lowest-pivot anticommuting rows: slot a, pivot pa below
            # slot b, pivot pb.  Pivots are distinct, so scan order is free.
            a = b = -1
            pa = pb = 2 * n
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
            del basis[pa]
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
            s = basis.get(top)
            if s is None:
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


def _canonical_rows(rows: list, basis: dict) -> tuple:
    """The canonical rows of the slot basis of :func:`_measure_round`: pivots
    (top set bits) strictly decreasing and no row carrying another row's
    pivot bit, so equal groups give equal tuples.  One pass over the pivots
    in ascending order: each row XORs in the already-canonical rows of the
    lower pivots it carries (``v & piv``), and each XOR clears one such
    pivot bit and sets no other."""
    canonical: dict[int, int] = {}
    piv = 0
    for p in sorted(basis):
        v = rows[basis[p]]
        m = v & piv
        while m:  # _bits inlined, top bit first: the XORs commute
            j = m.bit_length() - 1
            v ^= canonical[j]
            m ^= 1 << j
        canonical[p] = v
        piv |= 1 << p
    return tuple(reversed(canonical.values()))


@dataclass(frozen=True, eq=False)
class ScheduleResult:
    """Per-round ISG ranks with steady-state bookkeeping.

    ``phase_bases`` holds the slot states ``(rows, basis, cols)``, as
    :func:`_measure_round` leaves them, of the three rounds before the steady
    round, or ``()`` when no steady state was reached.  Results compare by
    identity: field-wise equality would compare bases, not groups."""

    n: int
    ranks: tuple
    phase_bases: tuple
    steady_round: int | None
    k_inst: int | None


def run_schedule(schedule, rounds: int) -> ScheduleResult:
    """Measure the colour classes cyclically and watch the ISG settle.

    ``schedule`` is an EdgeSchedule, such as a ColorAssignment.  Steady
    state is entered at the first round ``r`` >= 3 whose rank equals that
    of round ``r-3``: ISG(r-3) lies in ISG(r), so equal ranks mean equal
    groups.  Measuring a round maps a group to a group whatever basis
    represents it, so the period-3 cycle then repeats forever: the rounds
    after ``r`` are copied from the cycle, not measured.  Until then one
    echelon basis is updated by :func:`_measure_round`, one call per
    measured round, its rows in slots (``rows``), each pivot mapped to its
    slot (``basis``) and each row bit to a mask of the slots that carry it
    (``cols``).  Its lighter-row rule keeps rows round a face light: at
    n = 96 the leaving rows carry 1256 bits over nine rounds, where always
    taking the lowest pivot let the growing product of a face's checks
    leave, 5400 bits.

    Each measured round keeps a copy of its slot state; the result holds
    those of the three steady phases, which share one logical count, read
    off their ranks.  The exact search reads them as they are.
    """
    if rounds < 6:
        raise ValueError("need at least 6 rounds to certify a steady state")
    cx = schedule.complex
    n = len(cx.vertices)
    index = {v: i for i, v in enumerate(cx.vertices)}
    # Each check row with the set bits of its swapped halves, built once per
    # run from the letter's (x, z) bits: x on qubits a, b puts bits a, b in
    # the swapped row and z puts bits n + a, n + b there.
    phase_checks = []
    for color in ROUND_COLOR:
        lx, lz = _LETTERS[PAULI_OF[color][0]]
        unit = (lx << n) | lz
        checks = []
        for u, w in schedule.checks[color]:
            a, b = index[u], index[w]
            hits = ((a, b) if lx else ()) + ((n + a, n + b) if lz else ())
            checks.append(((unit << a) ^ (unit << b), hits))
        phase_checks.append(checks)
    rows: list[int] = []
    basis: dict[int, int] = {}
    cols = [0] * (2 * n)
    snapshots: list = []
    ranks: list[int] = []
    steady = None
    for r in range(rounds):
        if steady is not None:
            ranks.append(ranks[r - 3])
            continue
        _measure_round(rows, basis, cols, phase_checks[r % 3], n)
        snapshots.append((rows[:], basis.copy(), cols[:]))
        ranks.append(len(basis))
        if r >= 3 and ranks[r] == ranks[r - 3]:
            steady = r
    k_inst, phase_bases = None, ()
    if steady is not None:
        ks = {n - ranks[r] for r in range(steady - 3, steady)}
        if len(ks) != 1:
            raise RuntimeError(
                f"steady phases disagree on the logical count: {sorted(ks)}"
            )
        k_inst = ks.pop()
        phase_bases = tuple(snapshots[steady - 3 : steady])
    return ScheduleResult(n, tuple(ranks), phase_bases, steady, k_inst)


def face_stabilizer(assign, f: int) -> int:
    """Row of the face cycle operator: X/Y/Z on the boundary of a G/B/R face.

    The face's boundary checks carry the other two colours' letters, whose
    product is the letter of the face's own colour.
    """
    cx = assign.complex
    index = {v: i for i, v in enumerate(cx.vertices)}
    tails = (index[cx.walk_ends(slot)[0]] for slot in cx.faces[f])
    return _pauli_row(len(cx.vertices), PAULI_OF[assign.face_color[f]][0], tails)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cosupport_graph(rows: list, basis: dict, n: int):
    """``adj(q)``: the qubits sharing a canonical row with ``q``, as a
    bitmask, computed on first call and cached."""
    canonical = _canonical_rows(rows, basis)

    def adjacent(q):
        on_q, a = ((1 << n) | 1) << q, 0
        for row in canonical:
            if row & on_q:
                a |= row
        return ((a >> n) | a) & ((1 << n) - 1) & ~(1 << q)

    return functools.cache(adjacent)


def _connected_logicals(adj, cols: list, n: int, w: int):
    """Yield the row ``(x << n) | z`` of each weight-``w`` Pauli (w >= 2) on
    a support connected in the graph ``adj`` that commutes with every row of
    the slot state whose slot masks are ``cols``.

    Supports grow from their least qubit through larger first-seen qubits,
    never re-picking an earlier frontier qubit, so each comes out once and
    a search that stops at its first hit reads no adjacency past it.  A
    prefix carries the ``(syndrome, row)`` of each of its letterings, built
    once for every support that extends it; a letter's syndrome over slots
    is read off ``cols`` (X ``cols[q]``, Z ``cols[n + q]``, Y their XOR).
    A lettering commutes iff its syndromes XOR to zero: the last qubit's
    letters are matched against the prefix's."""
    ux, uy, uz = ((lx << n) | lz for lx, lz in _LETTERS.values())

    def letters(q):
        sx, sz = cols[q], cols[n + q]
        return (sx, ux << q), (sx ^ sz, uy << q), (sz, uz << q)

    def grow(partial, depth, frontier, seen):
        if depth == w - 1:
            for u in _bits(frontier):
                for ls, lr in letters(u):
                    for s, r in partial:
                        if s == ls:
                            yield r | lr
            return
        for u in _bits(frontier):
            frontier ^= 1 << u
            new = adj(u) & ~seen
            extended = [(s ^ ls, r | lr) for s, r in partial for ls, lr in letters(u)]
            yield from grow(extended, depth + 1, frontier | new, seen | new)

    for v0 in range(n):
        nbrs = adj(v0)
        below = (2 << v0) - 1  # v0 and the qubits before it
        yield from grow(letters(v0), 1, nbrs & ~below, nbrs | below)


def exact_distance(schedule, result: ScheduleResult) -> int:
    """Minimum weight of a logical operator over the steady phases of ``result``.

    From weight 2 on, each phase is searched only on supports connected in
    its co-support graph (qubits adjacent when a canonical row acts on
    both), grown with their Pauli letterings by :func:`_connected_logicals`.
    The prune is exact: a minimum-weight logical split into parts that no
    row links would leave a lighter part that is itself a logical.
    Raises ValueError when k = 0 or the run is unsteady, and BoundExceeded
    past ``_EXACT_MAX_N`` qubits or weight ``_EXACT_MAX_WEIGHT``.
    """
    n = result.n
    if n > _EXACT_MAX_N:
        raise BoundExceeded(
            f"n={n} exceeds the exact-search bound {_EXACT_MAX_N}; use geometric estimator"
        )
    if result.k_inst == 0:
        raise ValueError(
            f"k = 0: every steady phase has full rank {n}, so no logical operator exists"
        )
    if result.steady_round is None:
        raise ValueError("schedule did not reach a steady state")
    return _min_logical_weight(result.phase_bases)


def _residue(rows: list, basis: dict, v: int) -> int:
    """``v`` reduced through a slot state's pivot map under the step guard
    of :func:`_measure_round`: 0 exactly when ``v`` lies in the group."""
    while v and (s := basis.get(top := v.bit_length() - 1)) is not None:
        v ^= rows[s]
        if v.bit_length() > top:
            raise RuntimeError(f"pivot {top} maps to slot {s}, whose row has another top bit")
    return v


def _min_logical_weight(phases) -> int:
    """The search of :func:`exact_distance` over slot states
    ``(rows, basis, cols)`` of :func:`_measure_round`, read as they are.

    Weight 1 is a scan of ``cols``: a letter on qubit q commutes with every
    row iff its syndrome over slots, read as in :func:`_connected_logicals`,
    is 0.  From weight 2 on, a phase's co-support graph is made when the
    search first reaches it, and :func:`_connected_logicals` yields its
    commuting letterings of connected supports.  Phases, supports and
    letters are tried in the same order at every weight.
    """
    n = len(phases[0][2]) // 2
    ux, uy, uz = ((lx << n) | lz for lx, lz in _LETTERS.values())
    for rows, basis, cols in phases:
        for q in range(n):
            sx, sz = cols[q], cols[n + q]
            for syndrome, unit in ((sx, ux), (sx ^ sz, uy), (sz, uz)):
                if not syndrome and _residue(rows, basis, unit << q):
                    return 1
    graphs = [None] * len(phases)
    for w in range(2, _EXACT_MAX_WEIGHT + 1):
        for i, (rows, basis, cols) in enumerate(phases):
            adj = graphs[i] = graphs[i] or _cosupport_graph(rows, basis, n)
            for row in _connected_logicals(adj, cols, n, w):
                if _residue(rows, basis, row):
                    return w
    raise BoundExceeded(
        f"no logical operator of weight <= {_EXACT_MAX_WEIGHT}; use geometric estimator"
    )


@dataclass(frozen=True)
class CodeParams:
    """[[n, k, d]] of one tessellation code plus distance provenance."""

    signature: tuple
    genus: int
    orientable: bool
    n: int
    k: int
    d: int
    d_source: str  # "exact" | "geometric-estimate"
    convention: str | None = None

    def __post_init__(self):
        if min(self.n, self.k, self.d) < 1:
            raise ValueError("n, k, d must be positive")
        if self.d_source not in ("exact", "geometric-estimate"):
            raise ValueError(f"unknown d_source {self.d_source!r}")

    def as_json(self) -> dict:
        doc = {
            "signature": list(self.signature),
            "genus": self.genus,
            "orientable": self.orientable,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "d_source": self.d_source,
            "k_n": self.k / self.n,
            "kd2_n": self.k * self.d * self.d / self.n,
            "d_n": self.d / self.n,
        }
        if self.convention is not None:
            doc["convention"] = self.convention
        return doc


def code_params(m, genus: int, orientable: bool, d_mode: str = "auto") -> CodeParams:
    """Assemble [[n,k,d]] for a signature on a genus-g surface.

    ``d_mode``: "geo" gives the geometric estimate on every row; "auto"
    gives the exact distance on incenter rows with n <= 40 and the estimate
    on every other row.  The exact route runs a 9-round schedule, which
    stops measuring once the period-3 cycle is certified (at round 6 on the
    incenter complexes up to genus 12), and searches weights up to 6.

    n is the vertex count of ``derive._admitted_vertex_count``, the one
    admission rule the catalog enumerates by; a signature it does not admit
    raises ValueError.  The exact route checks the explicit complex's
    vertex, edge and face counts against ``semiregular_counts_direct`` and
    raises RuntimeError on any mismatch.

    Auto mode never builds a clip complex, because a clipped fundamental
    polygon is never a colour-code tiling: the polygon has a single face,
    so after clipping every original side separates the clipped face from
    itself, and no face colouring is proper.  An incenter complex always is
    one: its faces come from the source's vertices, edges and faces, and
    every edge joins faces of two different kinds.  So auto takes the exact
    route on every incenter row with n <= 40 (each has d = 2), and any error
    of that route, BoundExceeded included, is raised, not replaced by an
    estimate.  Auto reads the route only on rows with n <= 40.
    """
    if d_mode not in ("geo", "auto"):
        raise ValueError(f"unknown d_mode {d_mode!r}")
    sig = SemiRegularSig(m)
    chi = _check_genus(genus, orientable)
    n = _admitted_vertex_count(sig.m, chi, orientable)
    if n is None:
        raise ValueError(
            f"{list(sig.m)} admits no integral cell counts at chi={chi}"
        )
    k = 2 - chi
    if (
        d_mode == "geo"
        or n > _EXACT_MAX_N
        or polygon_route(sig.m, genus, orientable) != "incenter"
    ):
        est = geodist.estimate_distance(sig, genus, orientable)
        return CodeParams(
            tuple(sig.m), genus, orientable, n, k, est.d,
            "geometric-estimate", est.convention_tag,
        )
    cx = polygon_complex("incenter", genus, orientable)
    counts = semiregular_counts_direct(sig, genus, orientable)
    cells = (len(cx.vertices), len(cx.edges), len(cx.faces))
    want = (counts.n_v, counts.n_e, counts.n_f)
    if cells != want:
        raise RuntimeError(
            "explicit complex has V={}, E={}, F={}, counts say V={}, E={}, F={}"
            .format(*cells, *want)
        )
    # The logical-count guarantee rides on the face colouring; an arbitrary
    # proper edge colouring measurably destroys it (clipped two-face
    # complexes settle at full rank), so only genuine colour-code tilings
    # take the exact route.
    schedule = three_color(cx)
    result = run_schedule(schedule, 9)
    if result.k_inst != k:
        raise RuntimeError(
            f"steady-state logical count {result.k_inst} disagrees with "
            f"the genus rule k={k}"
        )
    d = exact_distance(schedule, result)
    return CodeParams(tuple(sig.m), genus, orientable, n, k, d, "exact")
