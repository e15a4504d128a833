"""Symplectic Pauli algebra and the dynamics of measured check schedules.

Measuring the three colour classes cyclically drives the instantaneous
stabilizer group (ISG) into a period-3 steady state; the number of logical
qubits is read off its rank and the code distance from a minimum-weight
search over Paulis that commute with the ISG without belonging to it.
The ISG is updated one measured round per kernel call, the round's checks
in order, on rows held in slots, with a pivot -> slot map (a list over the
2n row bits, -1 on a free pivot) and one slot mask per row bit.  The search
reads each letter's syndrome off those masks: weight 1 is a syndrome of 0,
and each weight w from 2 on a collision between the letterings of a Pauli's
lowest w // 2 qubits and those of the rest, met once per Pauli as the
qubits are taken in order as anchors, so every Pauli of each weight is
tried and nothing is pruned; ``tests/reference.py`` keeps the search as
first written."""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import geodist
from .coloring import PAULI_OF, ROUND_COLOR, three_color
from .derive import (
    _admitted_vertex_count,
    polygon_complex,
    polygon_route,
    semiregular_counts_direct,
)
from .hypgeo import _Record, _as_semiregular, _check_genus

# (x, z) bits of each Pauli letter, in the order the search tries them.
_LETTERS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# Largest n the exact distance search takes on; largest weight it tries.
_EXACT_MAX_N = 40
_EXACT_MAX_WEIGHT = 6


class BoundExceeded(ValueError):
    """Exact search out of range; use the geometric estimator instead."""


def _measure_round(rows: list, basis: list, cols: list, checks: list, swap: list) -> None:
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


class ScheduleResult(_Record):
    """Per-round ISG ranks with steady-state bookkeeping.

    ``phase_bases`` holds the slot states ``(rows, basis, cols)``, as
    :func:`_measure_round` leaves them (``basis`` the list pivot map), of
    the three rounds before the steady round, or ``()`` when no steady
    state was reached.  Results compare by identity: field-wise equality
    would compare bases, not groups."""

    n: int
    ranks: tuple
    phase_bases: tuple
    steady_round: int | None
    k_inst: int | None
    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    def __init__(self, n, ranks, phase_bases, steady_round, k_inst) -> None:
        self.__dict__.update(
            n=n, ranks=ranks, phase_bases=phase_bases, steady_round=steady_round, k_inst=k_inst
        )


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
    slot by a list over the 2n row bits, -1 on a free pivot (``basis``),
    and each row bit to a mask of the slots that carry it (``cols``); the
    swapped-half table it reads is built once per run.  Its lighter-row
    rule keeps rows round a face light: at n = 96 the leaving rows carry
    1256 bits over nine rounds, where always taking the lowest pivot let
    the growing product of a face's checks leave, 5400 bits.

    Each measured round keeps a copy of its slot state and reads its rank
    off the pivot map (the pivots not -1); the result holds the states of
    the three steady phases, which share one logical count, since no
    measurement lowers the rank (:func:`_measure_round` checks it).  The
    exact search reads them as they are.
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
    swap = list(range(n, 2 * n)) + list(range(n))  # bit j's swapped-half bit
    rows: list[int] = []
    basis = [-1] * (2 * n)
    cols = [0] * (2 * n)
    snapshots: list = []
    ranks: list[int] = []
    steady = None
    for r in range(rounds):
        if steady is not None:
            ranks.append(ranks[r - 3])
            continue
        _measure_round(rows, basis, cols, phase_checks[r % 3], swap)
        snapshots.append((rows[:], basis[:], cols[:]))
        ranks.append(2 * n - basis.count(-1))
        if r >= 3 and ranks[r] == ranks[r - 3]:
            steady = r
    k_inst, phase_bases = None, ()
    if steady is not None:
        k_inst = n - ranks[steady]
        phase_bases = tuple(snapshots[steady - 3 : steady])
    return ScheduleResult(n, tuple(ranks), phase_bases, steady, k_inst)


def exact_distance(schedule, result: ScheduleResult) -> int:
    """Minimum weight of a logical operator over the steady phases of ``result``.

    Every Pauli of weight 1, 2, ... is tried, weight by weight and phase
    by phase, off the phases' syndromes, with no phase made canonical
    (:func:`_min_logical_weight`).  The search prunes no support, so the
    first weight with a commuting Pauli outside the group is the distance.
    Raises ValueError when k = 0 or the run is unsteady, and BoundExceeded
    past ``_EXACT_MAX_N`` qubits or weight ``_EXACT_MAX_WEIGHT``.

    ``schedule`` is never read: everything the search needs is in
    ``result``.  The parameter stays because callers pass it positionally,
    ``perfbench/worker.py`` among them, and ``perfbench/tracing.py`` binds
    the signature.
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


def _residue(rows: list, basis: list, v: int) -> int:
    """``v`` reduced through a slot state's list pivot map (-1 on a free
    pivot) under the step guard of :func:`_measure_round`: 0 exactly when
    ``v`` lies in the group."""
    while v and (s := basis[top := v.bit_length() - 1]) >= 0:
        v ^= rows[s]
        if v.bit_length() > top:
            raise RuntimeError(f"pivot {top} maps to slot {s}, whose row has another top bit")
    return v


def _letterings(table, u: int, pool, k: int) -> list:
    """``(syndrome, row)`` of every Pauli on qubit ``u`` and ``k`` qubits of
    ``pool``: the XOR of its letters' syndromes and the OR of their rows,
    read off ``table``, whose entry q holds the ``(syndrome, row)`` of X, Y
    and Z on q.  The supports come in ``combinations(pool, k)`` order, each
    with its 3^(k + 1) letterings."""
    out = []
    for others in combinations(pool, k):
        partial = table[u]
        for q in others:
            partial = [(s ^ ls, r | lr) for s, r in partial for ls, lr in table[q]]
        out += partial
    return out


def _min_logical_weight(phases) -> int:
    """The search of :func:`exact_distance` over slot states
    ``(rows, basis, cols)`` of :func:`_measure_round`, read as they are.

    A letter's syndrome over slots says which rows it anticommutes with: X
    on qubit q reads ``cols[q]``, Z ``cols[n + q]``, Y their XOR.  Weight 1
    is a scan of ``cols``: a letter commutes with every row iff its
    syndrome is 0.

    Each weight w from 2 to ``_EXACT_MAX_WEIGHT`` is then settled by
    syndrome collisions, phase by phase.  A weight-w Pauli is the product
    of the lettering of its lowest w // 2 qubits (its lower half) and that
    of the rest (its upper half), and commutes iff the two syndromes are
    equal.  The qubits are taken in order as anchors u.  At each, the upper
    halves whose lowest qubit is u (:func:`_letterings` of u and qubits
    above it) are matched against a dict of the lower halves met so far,
    keyed by syndrome; then the lower halves whose highest qubit is u (u and
    qubits below it) join the dict.  So the dict holds exactly the lower
    halves that lie below the anchor's upper halves, and every weight-w
    Pauli is met exactly once.  At w = 2 both halves are the anchor's three
    letters, read off the phase's letter table, which is filled as the
    anchor advances: a d = 2 search builds no lettering of two or more
    qubits.  Only non-zero syndromes join the dict: with no logical lighter
    than w, a lighter lettering of syndrome 0 lies in the group.  The dict
    holds at most 27 C(n, 3) lower halves, 266,760 at n = 40.  Nothing is
    pruned, so the first product outside the group gives w.
    """
    n = len(phases[0][2]) // 2
    ux, uy, uz = ((lx << n) | lz for lx, lz in _LETTERS.values())
    for rows, basis, cols in phases:
        for q in range(n):
            sx, sz = cols[q], cols[n + q]
            for syndrome, unit in ((sx, ux), (sx ^ sz, uy), (sz, uz)):
                if not syndrome and _residue(rows, basis, unit << q):
                    return 1
    tables: list[list] = [[] for _ in phases]
    for w in range(2, _EXACT_MAX_WEIGHT + 1):
        below, above = w // 2 - 1, w - w // 2 - 1
        for (rows, basis, cols), table in zip(phases, tables):
            lower: dict[int, list] = {}
            for u in range(n):
                if len(table) == u:
                    sx, sz = cols[u], cols[n + u]
                    table.append(((sx, ux << u), (sx ^ sz, uy << u), (sz, uz << u)))
                uppers = _letterings(table, u, range(u + 1, n), above) if above else table[u]
                for syndrome, row in uppers:
                    for other in lower.get(syndrome, ()):
                        if _residue(rows, basis, row | other):
                            return w
                lowers = _letterings(table, u, range(u), below) if below else table[u]
                for syndrome, row in lowers:
                    if syndrome:
                        lower.setdefault(syndrome, []).append(row)
    raise BoundExceeded(
        f"no logical operator of weight <= {_EXACT_MAX_WEIGHT}; use geometric estimator"
    )


class CodeParams(NamedTuple):
    """[[n, k, d]] of one tessellation code plus distance provenance.

    An immutable tuple record with named fields, built once per table row
    by ``code_params``; nothing in it is shared per triple or per genus but
    the signature tuple.  ``convention`` is the estimate's tag, None on
    exact rows.  The record checks nothing: ``code_params`` makes n, k
    and d positive and ``d_source`` one of its two values by construction.
    """

    signature: tuple
    genus: int
    orientable: bool
    n: int
    k: int
    d: int
    d_source: str  # "exact" | "geometric-estimate"
    convention: str | None

    def as_json(self) -> dict:
        # Unpacked once, in field order: faster than named reads.
        signature, genus, orientable, n, k, d, d_source, convention = self
        doc = {
            "signature": list(signature),
            "genus": genus,
            "orientable": orientable,
            "n": n,
            "k": k,
            "d": d,
            "d_source": d_source,
            "k_n": k / n,
            "kd2_n": k * d * d / n,
            "d_n": d / n,
        }
        if convention is not None:
            doc["convention"] = convention
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

    ``m`` is a SemiRegularSig or a sequence of three ints.  The
    signature's checks run once per distinct triple per process
    (``hypgeo._as_semiregular``), as do its chords (in
    ``geodist.estimate_distance``); nothing else is memoized.  Per row: the
    genus check, the vertex count, the route on rows with n <= 40, the
    estimate's systole and ceilings, and the record, whose n is a positive
    even vertex count, k = 2 - chi >= 3 and d >= 2 (the estimate's clamp)
    or >= 1 (the search).
    """
    if d_mode not in ("geo", "auto"):
        raise ValueError(f"unknown d_mode {d_mode!r}")
    sig = _as_semiregular(m)
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
            sig.m, genus, orientable, n, k, est["d"],
            "geometric-estimate", est["convention"],
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
    return CodeParams(sig.m, genus, orientable, n, k, d, "exact", None)
