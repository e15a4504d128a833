"""ISG dynamics: Pauli algebra, measurement updates, distance search."""

import functools
import math
import random
import signal
from itertools import combinations, product

import numpy as np
import pytest

from floqtess import floquet, hypgeo
from floqtess.catalog import build_table, equivalence_check, table_to_csv
from floqtess.cli import _schedule_for
from floqtess.coloring import (
    PAULI_OF,
    ROUND_COLOR,
    edge_three_color,
    three_color,
)
from floqtess import derive
from floqtess.derive import clip_complex, incenter_complex, polygon_complex, polygon_route
from floqtess.floquet import (
    BoundExceeded,
    CodeParams,
    _LETTERS,
    _letterings,
    _measure_round,
    _min_logical_weight,
    code_params,
    exact_distance,
    run_schedule,
)
from floqtess.hypgeo import SemiRegularSig
from floqtess.surface import fundamental_polygon
from helpers import _bits, _canonical_rows, reduce_vec, steady_groups, swap_halves, sympl
import reference
from reference import (
    StabilizerGroup,
    _pauli_row,
    _phase_tables,
    _weight_hits,
    connected_supports,
    face_stabilizer,
    reference_cosupport_graph,
    reference_measure_round,
    reference_min_logical_weight,
    reference_syndromes,
)
from test_coloring import honeycomb_torus


def weight(row, n):
    """Number of qubits the row ``(x << n) | z`` acts on."""
    return (((row >> n) | row) & ((1 << n) - 1)).bit_count()


def assert_commuting(rows, n):
    """Every pair of the symplectic rows commutes."""
    assert not any(sympl(u, v, n) for u, v in combinations(rows, 2)), "rows anticommute"


def reference_reduce_rows(vectors):
    """Canonical reduced basis by plain Gaussian elimination: each vector is
    reduced against every pivot in descending order, and a new pivot is
    cleared from every row that carries it."""
    basis = {}
    for v in vectors:
        for p in sorted(basis, reverse=True):
            if (v >> p) & 1:
                v ^= basis[p]
        if not v:
            continue
        p = v.bit_length() - 1
        for q in list(basis):
            if (basis[q] >> p) & 1:
                basis[q] ^= v
        basis[p] = v
    return tuple(basis[p] for p in sorted(basis, reverse=True))


def random_vectors(rng, n):
    """Rows over ``2 n`` bits in arbitrary order, dense and sparse, with
    zero, repeated and dependent (sums of earlier) vectors mixed in."""
    width = 2 * n
    vecs = []
    for _ in range(rng.randint(0, width + 3)):
        kind = rng.randrange(6)
        if kind == 0:
            vecs.append(0)
        elif kind == 1 and vecs:
            vecs.append(rng.choice(vecs))
        elif kind == 2 and len(vecs) >= 2:
            a, b = rng.sample(vecs, 2)
            vecs.append(a ^ b)
        elif kind == 3:
            sparse = rng.getrandbits(width) & rng.getrandbits(width)
            vecs.append(sparse & rng.getrandbits(width))
        else:
            vecs.append(rng.getrandbits(width))
    rng.shuffle(vecs)
    return vecs


def reference_measure(isg, c):
    """The per-check update the incremental step replaced: the first
    anticommuting row (highest pivot) absorbs the rest and is replaced by
    the check row ``c``, the rows are reduced to canonical form on every
    check, and the result is checked for rank and commutativity in
    O(rank^2)."""
    n = isg.n
    rows = list(isg.rows)
    anti = [i for i, r in enumerate(rows) if sympl(r, c, n)]
    if anti:
        g = rows[anti[0]]
        for i in anti[1:]:
            rows[i] ^= g
        rows[anti[0]] = c
    else:
        rows.append(c)
    out = StabilizerGroup(n, reference_reduce_rows(rows))
    assert out.rank >= isg.rank, "measurement lowered the rank"
    assert_commuting(out.rows, n)
    return out


def reference_run_schedule(schedule, rounds):
    """Per-round groups of the schedule, measured by :func:`reference_measure`."""
    cx = schedule.complex
    n = len(cx.vertices)
    index = {v: i for i, v in enumerate(cx.vertices)}
    group = StabilizerGroup(n)
    groups = []
    for r in range(rounds):
        letter = PAULI_OF[ROUND_COLOR[r % 3]][0]
        for u, w in schedule.checks[ROUND_COLOR[r % 3]]:
            group = reference_measure(group, _pauli_row(n, letter, (index[u], index[w])))
        groups.append(group)
    return tuple(groups)


@functools.cache
def reference_trajectory(schedule):
    """The first 12 groups of :func:`reference_run_schedule`, measured once
    per schedule: three tests compare every complex's run against them."""
    return reference_run_schedule(schedule, 12)


def schedule_complexes():
    """Every incenter and clip complex, orientable g=2..12, non-orientable
    g=3..12, and two face-colourable honeycomb tori."""
    for orientable, genera in ((True, range(2, 13)), (False, range(3, 13))):
        for g in genera:
            for derive in (incenter_complex, clip_complex):
                p = (4 if orientable else 2) * g
                yield pytest.param(
                    lambda d=derive, g=g, o=orientable, p=p: d(fundamental_polygon(g, o), p, p),
                    id=f"{derive.__name__}-{'o' if orientable else 'n'}{g}",
                )
    for L in (3, 6):
        yield pytest.param(lambda L=L: honeycomb_torus(L), id=f"honeycomb-{L}")


def reference_search(gen_x, gen_z, supports, w):
    """Loop reference for the weight search: every X/Y/Z lettering of every
    support, kept when it commutes with each generator ``(gen_x, gen_z)``."""
    gens = list(zip(gen_x, gen_z))
    hits = []
    for sup in supports:
        opts = [((1 << q, 0), (1 << q, 1 << q), (0, 1 << q)) for q in sup]
        for combo in product(*opts):
            cx = 0
            cz = 0
            for dx, dz in combo:
                cx |= dx
                cz |= dz
            for gx, gz in gens:
                if ((cx & gz).bit_count() + (cz & gx).bit_count()) & 1:
                    break
            else:
                hits.append((cx, cz))
    return hits


def split_rows(group):
    mask = (1 << group.n) - 1
    return [r >> group.n for r in group.rows], [r & mask for r in group.rows]


# Largest n the exhaustive 4^n sweep takes on.
_EXHAUSTIVE_MAX_N = 12


def _group_elements(group: StabilizerGroup) -> set:
    elems = {0}
    for row in group.rows:
        elems |= {e ^ row for e in elems}
    return elems


def exhaustive_distance(phases) -> int:
    """Distance by sweeping all 4^n Paulis; independent of the search prune."""
    n = phases[0].n
    if any(p.n != n for p in phases):
        raise ValueError("phase qubit counts differ")
    if n > _EXHAUSTIVE_MAX_N:
        raise ValueError(f"4^{n} sweep refused (bound {_EXHAUSTIVE_MAX_N})")
    # Bit j of tx[x] (tz[z]) is the parity of x's overlap with row j's Z
    # part (z's with its X part); a Pauli commutes with every row iff
    # tx[x] == tz[z].
    halves = np.arange(1 << n, dtype=np.uint64)
    low = (1 << n) - 1
    tests = []
    for phase in phases:
        tx = np.zeros(1 << n, dtype=np.uint64)
        tz = np.zeros(1 << n, dtype=np.uint64)
        for j, row in enumerate(phase.rows):
            bit = np.uint64(j)
            tx |= (np.bitwise_count(halves & np.uint64(row & low)) & 1) << bit
            tz |= (np.bitwise_count(halves & np.uint64(row >> n)) & 1) << bit
        tests.append((tx, tz, _group_elements(phase)))
    best = None
    # One sweep over all 4^n Paulis, a block of X parts at a time, every
    # phase tested on each block.
    block = max(1, (1 << 20) >> n)
    for x0 in range(0, 1 << n, block):
        xs = halves[x0:x0 + block]
        wts = np.bitwise_count(xs[:, None] | halves[None, :])
        for tx, tz, members in tests:
            ok = (tx[xs, None] == tz[None, :]) & (wts > 0)
            if best is not None:
                ok &= wts < best
            for i, z in zip(*np.nonzero(ok)):
                if ((x0 + int(i)) << n) | int(z) not in members:
                    w = int(wts[i, z])
                    if best is None or w < best:
                        best = w
    if best is None:
        raise ValueError("no logical operators found; is k zero?")
    return best


@pytest.fixture(scope="module")
def octagon():
    cx = incenter_complex(fundamental_polygon(2, True), 8, 8)
    assign = three_color(cx)
    return cx, assign, run_schedule(assign, 9)


@pytest.fixture(scope="module")
def genus12():
    # n=96, steady rank 72: syndromes wider than one 64-bit word.
    cx = incenter_complex(fundamental_polygon(12, True), 48, 48)
    assign = three_color(cx)
    return cx, assign, run_schedule(assign, 9)


@pytest.fixture(scope="module")
def hexagon_no():
    cx = incenter_complex(fundamental_polygon(3, False), 6, 6)
    assign = three_color(cx)
    return cx, assign, run_schedule(assign, 9)


class TestPauliOperator:
    # Paulis are rows (x << n) | z: qubit i carries X iff bit i of x, Z iff
    # bit i of z, and Y iff both.
    def test_construction(self):
        p = _pauli_row(6, "X", (0,)) ^ _pauli_row(6, "Y", (3,)) ^ _pauli_row(6, "Z", (5,))
        assert weight(p, 6) == 3
        assert p == (0b001001 << 6) | 0b101000

    def test_two_body(self):
        assert _pauli_row(4, "Y", (1, 3)) == (0b1010 << 4) | 0b1010

    def test_identity_weight_zero(self):
        assert _pauli_row(5, "X", ()) == 0
        assert weight(0, 5) == 0

    def test_self_inverse(self):
        # P P = I up to phase, so every Pauli commutes with itself: the
        # symplectic form is alternating.
        rng = random.Random(11)
        for _ in range(20):
            r = rng.getrandbits(34)
            assert sympl(r, r, 17) == 0

    def test_commutation_examples(self):
        x0 = _pauli_row(2, "X", (0,))
        z0 = _pauli_row(2, "Z", (0,))
        xx = _pauli_row(2, "X", (0, 1))
        zz = _pauli_row(2, "Z", (0, 1))
        assert sympl(x0, z0, 2) == 1
        assert sympl(xx, zz, 2) == 0

    def test_symplectic_bilinearity(self):
        rng = random.Random(23)
        for n in (3, 17, 64):
            for _ in range(40):
                a, b, c = (rng.getrandbits(2 * n) for _ in range(3))
                assert sympl(a ^ b, c, n) == sympl(a, c, n) ^ sympl(b, c, n)


class TestStabilizerGroup:
    def test_span_invariant_presentation(self):
        xx = _pauli_row(2, "X", (0, 1))
        zz = _pauli_row(2, "Z", (0, 1))
        yy = _pauli_row(2, "Y", (0, 1))
        a = StabilizerGroup(2, reference_reduce_rows([xx, zz]))
        b = StabilizerGroup(2, reference_reduce_rows([yy, zz]))  # YY = XX*ZZ
        assert a == b
        assert a.rank == 2
        assert reduce_vec(a, yy) == 0

    def test_rows_must_be_canonical(self):
        # Pivots 0 then 1: ascending, not descending.
        with pytest.raises(ValueError, match="canonical"):
            StabilizerGroup(2, (1, 3))
        # Row 3 carries bit 0, the pivot of row 1; and pivot 1 repeats.
        with pytest.raises(ValueError, match="canonical"):
            StabilizerGroup(2, (3, 1, 2))

    @pytest.mark.parametrize(
        "rows, ok",
        [
            ((), True),
            ((0b1010, 0b0101), True),
            ((0b1000, 0), False),  # zero row
            ((0b1001, 0b1000), False),  # repeated pivot
            ((0b0001, 0b1000), False),  # ascending pivots
            ((0b1010, 0b0010), False),  # row 1010 carries pivot bit 1 of row 0010
            ((-1,), False),  # negative row
            ([0b1000], False),  # rows must be a tuple
        ],
    )
    def test_canonical_cases(self, rows, ok):
        if ok:
            assert StabilizerGroup(2, rows).rows == rows
        else:
            with pytest.raises(ValueError, match="canonical"):
                StabilizerGroup(2, rows)

    def test_canonical_test_matches_reduction(self):
        # The O(rank) check accepts exactly the tuples that Gaussian
        # elimination leaves unchanged: canonical bases, bases broken by one
        # edit, and raw random tuples.
        rng = random.Random(20)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randint(1, 8)
            rows = list(reference_reduce_rows(random_vectors(rng, n)))
            edit = rng.randrange(6)
            if edit == 1 and len(rows) >= 2:
                i, j = rng.sample(range(len(rows)), 2)
                rows[i] ^= rows[j]
            elif edit == 2 and len(rows) >= 2:
                i, j = rng.sample(range(len(rows)), 2)
                rows[i], rows[j] = rows[j], rows[i]
            elif edit == 3:
                rows.insert(rng.randint(0, len(rows)), rng.choice(rows + [0]))
            elif edit == 4 and rows:
                i = rng.randrange(len(rows))
                rows[i] ^= rng.getrandbits(rows[i].bit_length() - 1)
            elif edit == 5:
                rows = random_vectors(rng, n)
            rows = tuple(rows)
            expected = rows == reference_reduce_rows(rows)
            try:
                StabilizerGroup(n, rows)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, (n, rows)
            seen[accepted] += 1
        assert min(seen.values()) > 500

    def test_rows_must_fit_the_qubits(self):
        assert StabilizerGroup(2, (1 << 3,)).rank == 1
        for r in (1 << 4, 1 << 10):
            with pytest.raises(ValueError, match="range"):
                StabilizerGroup(2, (r,))

    def test_contains_only_span(self):
        xx = _pauli_row(2, "X", (0, 1))
        g = StabilizerGroup(2, reference_reduce_rows([xx]))
        assert reduce_vec(g, xx) == 0
        assert reduce_vec(g, _pauli_row(2, "X", (0,))) != 0


class TestReduceRows:
    # _canonical_rows reads the canonical rows off an echelon basis held in
    # slots, as _measure_round keeps it.
    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_reference(self, n):
        # Vectors in arbitrary order, brought to an echelon basis that is
        # not reduced (each vector sheds only the pivots it meets on top)
        # and held in shuffled slots.
        rng = random.Random(100 + n)
        for _ in range(60):
            vecs = random_vectors(rng, n)
            echelon = {}
            for v in vecs:
                while v and v.bit_length() - 1 in echelon:
                    v ^= echelon[v.bit_length() - 1]
                if v:
                    echelon[v.bit_length() - 1] = v
            rows = list(echelon.values())
            rng.shuffle(rows)
            assert _canonical_rows(rows, pivots(rows, n)) == reference_reduce_rows(vecs)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_ascending_echelon_input(self, n):
        # An echelon basis {pivot: row} held in slots lowest pivot first.
        rng = random.Random(200 + n)
        for _ in range(60):
            tops = rng.sample(range(2 * n), rng.randint(0, 2 * n))
            basis = {p: (1 << p) | rng.getrandbits(p) for p in tops}
            rows = [basis[p] for p in sorted(basis)]
            out = _canonical_rows(rows, pivots(rows, n))
            assert out == reference_reduce_rows(rows)
            assert len(out) == len(rows)


def columns(rows, n):
    """The per-bit slot masks of the rows, built from scratch: bit ``s`` of
    ``cols[j]`` is bit ``j`` of ``rows[s]``."""
    cols = [0] * (2 * n)
    for s, row in enumerate(rows):
        for j in range(2 * n):
            if (row >> j) & 1:
                cols[j] |= 1 << s
    return cols


def pivot_map(slots, n):
    """The list pivot map of :func:`_measure_round` over ``2 n`` row bits
    that maps each pivot of ``slots`` (``{pivot: slot}``) to its slot and
    every other pivot to -1."""
    basis = [-1] * (2 * n)
    for p, s in slots.items():
        basis[p] = s
    return basis


def pivots(rows, n):
    """The list pivot map of the rows, each row's top set bit mapped to its
    slot."""
    return pivot_map({row.bit_length() - 1: s for s, row in enumerate(rows)}, n)


def held(basis):
    """The pivots a list pivot map holds (those not mapped to -1)."""
    return {p for p, s in enumerate(basis) if s >= 0}


def slot_state(rows, n):
    """The slot state ``(rows, basis, cols)`` of :func:`_measure_round` for
    rows with distinct top bits, one row per slot in the order given."""
    rows = list(rows)
    return rows, pivots(rows, n), columns(rows, n)


def with_hits(c, n):
    """The kernel's ``(c, hits)`` pair of check ``c``, its swapped bits
    found by a plain scan."""
    return c, tuple(j for j in range(2 * n) if (swap_halves(c, n) >> j) & 1)


def swap_table(n):
    """The kernel's swapped-half table: bit j's partner in the other half,
    found by a plain scan."""
    return [swap_halves(1 << j, n).bit_length() - 1 for j in range(2 * n)]


def bit_table(n):
    """The kernel's power-of-two table: bit j's mask, over the 2n row
    bits."""
    return [2**j for j in range(2 * n)]


def measure(state, c, n):
    """Measure check ``c`` into the slot state with :func:`_measure_round`,
    as a round of that one check."""
    _measure_round(*state, [with_hits(c, n)], swap_table(n), bit_table(n))


def spy_rounds(monkeypatch, step=None):
    """Replace ``floquet._measure_round`` by a spy that records each call's
    checks as one entry of the returned list, and replays them through the
    real kernel one check per call.  When given, ``step(one, rows, basis,
    cols, c, hits, n)`` stands in for each replayed check and must call
    ``one(rows, basis, cols, c, hits, n)``, the one-check kernel call, which
    passes the swapped-half and power-of-two tables run_schedule gave the
    round."""
    rounds = []
    kernel = floquet._measure_round

    def spy(rows, basis, cols, checks, swap, bits):
        def one(rows, basis, cols, c, hits, n):
            kernel(rows, basis, cols, [(c, hits)], swap, bits)

        n = len(swap) // 2
        assert swap == swap_table(n)
        assert bits == bit_table(n)
        rounds.append([c for c, _ in checks])
        for c, hits in checks:
            if step is None:
                one(rows, basis, cols, c, hits, n)
            else:
                step(one, rows, basis, cols, c, hits, n)

    monkeypatch.setattr(floquet, "_measure_round", spy)
    return rounds


def read_group(state, n):
    """The group of the slot state, read off with :func:`_canonical_rows`,
    as run_schedule does."""
    rows, basis, _ = state
    return StabilizerGroup(n, _canonical_rows(rows, basis))


def random_check_sequences(n):
    """Four random sequences of 6 n mixed-letter two-body checks on n
    qubits, with their hits: each check has two, three or four."""
    rng = random.Random(300 + n)
    for _ in range(4):
        checks = []
        for _ in range(6 * n):
            i, j = rng.sample(range(n), 2)
            a, b = rng.choice("XYZ"), rng.choice("XYZ")
            checks.append(with_hits(_pauli_row(n, a, (i,)) ^ _pauli_row(n, b, (j,)), n))
        yield checks


class TestMeasure:
    # Checks are measured into rows held in slots, with the pivot -> slot
    # map in basis and the per-bit slot masks in cols, by _measure_round.
    def test_new_commuting_check_joins(self):
        xx = _pauli_row(2, "X", (0, 1))
        state = slot_state((), 2)
        measure(state, xx, 2)
        g = read_group(state, 2)
        assert g.rank == 1 and reduce_vec(g, xx) == 0

    def test_idempotent_on_members(self):
        xx = _pauli_row(2, "X", (0, 1))
        rows, basis, cols = state = slot_state((), 2)
        measure(state, xx, 2)
        before = (list(rows), list(basis))
        measure(state, xx, 2)
        assert (rows, basis) == before

    def test_dependent_commuting_check_no_growth(self):
        xx01, xx12, xx02 = (
            _pauli_row(3, "X", (i, j)) for i, j in ((0, 1), (1, 2), (0, 2))
        )
        rows, basis, cols = state = slot_state((), 3)
        measure(state, xx01, 3)
        measure(state, xx12, 3)
        before = (list(rows), list(basis))
        measure(state, xx02, 3)
        assert (rows, basis) == before

    def test_anticommuting_row_replaced(self):
        zz = _pauli_row(2, "Z", (0, 1))
        zq = _pauli_row(2, "Z", (0,))
        xx = _pauli_row(2, "X", (0, 1))
        state = slot_state((), 2)
        for c in (zq, zz, xx):
            measure(state, c, 2)
        out = read_group(state, 2)
        assert out.rank == 2
        assert reduce_vec(out, xx) == 0 and reduce_vec(out, zz) == 0
        assert reduce_vec(out, zq) != 0

    @pytest.mark.parametrize(
        "check, kernel",
        [("X0", "round"), ("X1", "round"), ("X0", "residue"), ("X1", "residue")],
        ids=["X0", "X1", "X0-residue", "X1-residue"],
    )
    def test_broken_pivot_map_raises(self, check, kernel):
        # X0 and X1 (pivots 2 and 3) with their slots swapped in basis: the
        # reduction of X0 picks up bit 3, that of X1 keeps it.  Either must
        # raise at once instead of cycling between the two slots, in a
        # measured round and in ``_residue`` alike.
        n = 2
        rows, basis, _ = state = slot_state((_pauli_row(n, "X", (0,)),
                                             _pauli_row(n, "X", (1,))), n)
        basis[2], basis[3] = basis[3], basis[2]
        c = _pauli_row(n, "X", (int(check[1]),))

        def hung(signum, frame):
            raise TimeoutError("the reduction did not end")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(RuntimeError, match="another top bit"):
                if kernel == "residue":
                    floquet._residue(rows, basis, c)
                else:
                    measure(state, c, n)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_lighter_second_lowest_leaves(self):
        # Y0 Z1 (pivot x0, three bits) and X2 (pivot x2, one bit) both
        # anticommute with Z0 Z2.  X2 is lighter, so it leaves although its
        # pivot is higher; Y0 Z1 gains it and takes over the freed pivot,
        # and the check joins in the freed slot.
        n = 4
        heavy = _pauli_row(n, "Y", (0,)) ^ _pauli_row(n, "Z", (1,))
        light = _pauli_row(n, "X", (2,))
        c = _pauli_row(n, "Z", (0, 2))
        rows, basis, cols = state = slot_state((heavy, light), n)
        assert heavy.bit_length() < light.bit_length()
        assert heavy.bit_count() > light.bit_count()
        ref = reference_measure(read_group(state, n), c)
        measure(state, c, n)
        assert rows == [heavy ^ light, c]
        assert basis == pivot_map({light.bit_length() - 1: 0, c.bit_length() - 1: 1}, n)
        assert cols == columns(rows, n)
        assert read_group(state, n) == ref

    def test_three_anticommuting_rows(self):
        # X0 Z3, X1 and X2 all anticommute with Z0 Z1 Z2.  Of the two
        # lowest pivots, X1 is lighter and leaves; X0 Z3 takes its pivot,
        # X2 keeps its own, and both gain X1.
        n = 4
        low = _pauli_row(n, "X", (0,)) ^ _pauli_row(n, "Z", (3,))
        mid, top = _pauli_row(n, "X", (1,)), _pauli_row(n, "X", (2,))
        c = _pauli_row(n, "Z", (0, 1, 2))
        rows, basis, cols = state = slot_state((top, low, mid), n)
        ref = reference_measure(read_group(state, n), c)
        measure(state, c, n)
        assert rows == [top ^ mid, low ^ mid, c]
        assert basis == pivots(rows, n)
        assert basis[mid.bit_length() - 1] == 1 and basis[top.bit_length() - 1] == 0
        assert cols == columns(rows, n)
        assert read_group(state, n) == ref

    def test_rank_never_drops_random_walk(self):
        rng = random.Random(5)
        n = 8
        rows, basis, cols = state = slot_state((), n)
        for _ in range(120):
            i, j = rng.sample(range(n), 2)
            letter = rng.choice("XYZ")
            rank = len(held(basis))
            measure(state, _pauli_row(n, letter, (i, j)), n)
            assert len(held(basis)) >= rank
            assert_commuting(rows, n)

    @pytest.mark.parametrize("n", range(8, 25, 4))
    def test_random_checks_agree_with_reference(self, n):
        # One state restarts from the canonical rows on every check; the
        # running state stays in echelon form between checks, as in
        # run_schedule.
        rng = random.Random(n)
        ref = StabilizerGroup(n)
        state = slot_state((), n)
        many_anti = dependent = 0
        for _ in range(12 * n):
            i, j = rng.sample(range(n), 2)
            c = _pauli_row(n, rng.choice("XYZ"), (i, j))
            anti = sum(sympl(r, c, n) for r in ref.rows)
            nxt = reference_measure(ref, c)
            many_anti += anti >= 3
            dependent += not anti and nxt == ref
            fresh = slot_state(ref.rows, n)
            measure(fresh, c, n)
            assert read_group(fresh, n) == nxt
            measure(state, c, n)
            assert read_group(state, n) == nxt
            ref = nxt
        assert many_anti and dependent

    @pytest.mark.parametrize("n", range(8, 25, 4))
    def test_columns_track_basis(self, n):
        # Mixed-letter two-body checks, so the walk meets Y checks (four
        # swapped bits) and rows whose x and z halves both change.
        rng = random.Random(100 + n)
        rows, basis, cols = state = slot_state((), n)
        joined = left = 0
        for _ in range(12 * n):
            i, j = rng.sample(range(n), 2)
            a, b = rng.choice("XYZ"), rng.choice("XYZ")
            c = _pauli_row(n, a, (i,)) ^ _pauli_row(n, b, (j,))
            before = held(basis)
            measure(state, c, n)
            joined += bool(held(basis) - before)
            left += bool(before - held(basis))
            assert cols == columns(rows, n)
            assert basis == pivots(rows, n) and len(held(basis)) == len(rows)
        assert joined and left

    def test_rank_drop_raises(self):
        # X0 and ZZ anticommute, so this is no stabilizer group: dropping X0
        # for ZZ would lose a rank, which the update refuses.
        x0, zz = _pauli_row(2, "X", (0,)), _pauli_row(2, "Z", (0, 1))
        bad = slot_state(reference_reduce_rows([x0, zz]), 2)
        with pytest.raises(RuntimeError, match="lowered the rank"):
            measure(bad, zz, 2)

    def test_broken_commutativity_raises(self):
        # X2 Z0 and X0 anticommute; XX on qubits 2, 1 commutes with both but
        # reduces against X2 Z0 to X1 Z0, which anticommutes with X0.
        a = _pauli_row(3, "X", (2,)) ^ _pauli_row(3, "Z", (0,))
        b = _pauli_row(3, "X", (0,))
        bad = slot_state(reference_reduce_rows([a, b]), 3)
        with pytest.raises(RuntimeError, match="broke commutativity"):
            measure(bad, _pauli_row(3, "X", (2, 1)), 3)

    @pytest.mark.parametrize("n", range(8, 25, 4))
    def test_one_call_per_round_equals_one_per_check(self, n):
        # A whole random check sequence measured in one call leaves the slot
        # state that one call per check leaves, and the reference's group.
        for checks in random_check_sequences(n):
            whole, single = slot_state((), n), slot_state((), n)
            _measure_round(*whole, checks, swap_table(n), bit_table(n))
            ref = StabilizerGroup(n)
            for c, hits in checks:
                _measure_round(*single, [(c, hits)], swap_table(n), bit_table(n))
                ref = reference_measure(ref, c)
            assert whole == single
            rows, basis, cols = whole
            assert basis == pivots(rows, n) and cols == columns(rows, n)
            assert read_group(whole, n) == ref

    @pytest.mark.parametrize(
        "rows, swapped, check, match",
        [
            # X0 and X1 with their slots swapped in the pivot map.
            ((_pauli_row(5, "X", (0,)), _pauli_row(5, "X", (1,))), True,
             _pauli_row(5, "X", (0,)), "pivot 5 maps to slot 1, whose row has another top bit"),
            # X0 and ZZ anticommute: dropping X0 for ZZ would lose a rank.
            (reference_reduce_rows([_pauli_row(5, "X", (0,)), _pauli_row(5, "Z", (0, 1))]),
             False, _pauli_row(5, "Z", (0, 1)), "measurement lowered the rank"),
            # X2 Z0 and X0 anticommute; XX on qubits 2, 1 reduces to X1 Z0.
            (reference_reduce_rows([_pauli_row(5, "X", (2,)) ^ _pauli_row(5, "Z", (0,)),
                                    _pauli_row(5, "X", (0,))]),
             False, _pauli_row(5, "X", (2, 1)), "measurement broke commutativity"),
        ],
        ids=["broken-pivot-map", "rank-drop", "broken-commutativity"],
    )
    def test_fault_met_in_a_round_raises_as_in_replay(self, rows, swapped, check, match):
        # Two harmless checks on qubits 3 and 4 join first; the third check
        # of the round meets the fault and raises what measuring the checks
        # one call each raises.
        n = 5
        checks = [with_hits(c, n) for c in (
            _pauli_row(n, "Z", (3, 4)), _pauli_row(n, "X", (3, 4)), check)]
        messages = []
        for calls in ([checks], [[c] for c in checks]):
            state = slot_state(rows, n)
            if swapped:
                basis = state[1]
                p0, p1 = (row.bit_length() - 1 for row in rows)
                basis[p0], basis[p1] = basis[p1], basis[p0]
            done = 0
            with pytest.raises(RuntimeError) as info:
                for round_checks in calls:
                    _measure_round(*state, round_checks, swap_table(n), bit_table(n))
                    done += len(round_checks)
            assert done == (0 if len(calls) == 1 else 2)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == match


class TestKernelOracle:
    # The kernel steps its set-bit loops through the power-of-two table,
    # reads a two-hit check's masks directly, lets a lone anticommuting row
    # leave without the two-lowest-pivot scan and reads each reduction
    # step's top bit once.  reference_measure_round is the kernel as it was
    # before, so every slot state must be its own, bit for bit: the same
    # rows in the same slots, pivot map and masks.

    @pytest.mark.parametrize("n", range(8, 25, 4))
    def test_random_sequences_match_reference(self, n):
        # Whole sequences in one call, and one call per check; the second
        # also counts the checks each path of the kernel takes.
        paths = {"one": 0, "many": 0, "two-hit": 0, "four-hit": 0}
        for checks in random_check_sequences(n):
            whole, ref = slot_state((), n), slot_state((), n)
            _measure_round(*whole, checks, swap_table(n), bit_table(n))
            reference_measure_round(*ref, checks, swap_table(n))
            assert whole == ref
            single, ref = slot_state((), n), slot_state((), n)
            for c, hits in checks:
                anti = 0
                for j in hits:
                    anti ^= single[2][j]
                paths["one"] += anti.bit_count() == 1
                paths["many"] += anti.bit_count() >= 2
                paths["two-hit"] += len(hits) == 2
                paths["four-hit"] += len(hits) == 4
                _measure_round(*single, [(c, hits)], swap_table(n), bit_table(n))
                reference_measure_round(*ref, [(c, hits)], swap_table(n))
                assert single == ref
        assert all(paths.values()), paths

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_every_round_matches_reference(self, build, monkeypatch):
        # run_schedule's own rounds, each measured on a copy by the
        # reference kernel from the reference's own previous state.
        schedule, _ = _schedule_for(build())
        kernel = floquet._measure_round
        ref: list = []
        measured = []

        def spy(rows, basis, cols, checks, swap, bits):
            if not ref:
                ref.extend((rows[:], basis[:], cols[:]))
            reference_measure_round(*ref, checks, swap)
            kernel(rows, basis, cols, checks, swap, bits)
            assert [rows, basis, cols] == ref
            measured.append(len(checks))

        monkeypatch.setattr(floquet, "_measure_round", spy)
        result = run_schedule(schedule, 12)
        steady = result.steady_round
        assert len(measured) == (12 if steady is None else steady + 1)


class TestRunSchedule:
    def test_large_torus_has_no_size_ceiling(self):
        # n = 1152, 2304 row bits: the per-run tables have no size ceiling.
        result = run_schedule(three_color(honeycomb_torus(24)), 9)
        assert result.n == 1152
        assert result.ranks == (576, 768, 959, 1150, 1150, 1150, 1150, 1150, 1150)
        assert (result.steady_round, result.k_inst) == (6, 2)

    def test_octagon_trajectory(self, octagon):
        _, _, result = octagon
        assert result.n == 16
        assert result.ranks == (8, 9, 9, 12, 12, 12, 12, 12, 12)
        assert result.steady_round == 6
        assert result.k_inst == 4

    def test_hexagon_no_steady(self, hexagon_no):
        _, _, result = hexagon_no
        assert result.n == 12
        assert result.steady_round <= 9
        assert result.k_inst == 3

    def test_logical_count_accessors(self, octagon):
        _, _, result = octagon
        assert result.k_inst == 4
        assert all(result.n - p.rank == 4 for p in steady_groups(result))

    def test_needs_six_rounds(self, octagon):
        _, assign, _ = octagon
        with pytest.raises(ValueError, match="6 rounds"):
            run_schedule(assign, 5)

    def test_steady_phases_cycle(self, octagon):
        # The steady round's group is the first phase's, three rounds back.
        _, assign, result = octagon
        a, b, c = steady_groups(result)
        assert len({a, b, c}) == 3
        assert reference_run_schedule(assign, 9)[result.steady_round] == a
        assert result.ranks[result.steady_round] == a.rank

    def test_edge_schedule_loses_logicals(self):
        # An arbitrary proper edge colouring is measurably not the
        # colour-code schedule: the two-face clipped complex settles at
        # full rank.
        cx = clip_complex(fundamental_polygon(3, False), 6, 6)
        result = run_schedule(edge_three_color(cx), 9)
        assert result.k_inst == 0

    @staticmethod
    def count_checks(monkeypatch):
        """A list that gains one entry per check run_schedule measures."""
        calls = []

        def step(one, *args):
            calls.append(args[3])
            one(*args)

        spy_rounds(monkeypatch, step)
        return calls

    @staticmethod
    def leaving_rows(monkeypatch):
        """A list that gains the row that leaves at each anticommuting check
        run_schedule measures.  Each step is checked against the rule: of
        the two lowest-pivot anticommuting rows the lighter leaves (the
        lower pivot on a tie), every other anticommuting row gains it, and
        the pivots still map to the slots that hold them."""
        left = []

        def step(one, rows, basis, cols, c, hits, n):
            before = list(rows)
            one(rows, basis, cols, c, hits, n)
            anti = sorted((r.bit_length(), s) for s, r in enumerate(before) if sympl(r, c, n))
            if anti:
                out = min(anti[:2], key=lambda ps: (before[ps[1]].bit_count(), ps[0]))[1]
                g = before[out]
                assert all(rows[s] == before[s] ^ g for _, s in anti if s != out)
                left.append(g)
            assert basis == pivots(rows, n)

        spy_rounds(monkeypatch, step)
        return left

    def test_leaving_rows_stay_light(self, genus12, monkeypatch):
        # The lowest-pivot rule let the growing product of checks round a
        # face leave, 5400 bits over this run; the lighter of the two
        # lowest-pivot rows carries 1256.
        _, assign, expected = genus12
        left = self.leaving_rows(monkeypatch)
        result = run_schedule(assign, 9)
        assert result.ranks == expected.ranks
        assert steady_groups(result) == steady_groups(expected)
        assert left and sum(g.bit_count() for g in left) < 1400

    def test_stops_measuring_once_certified(self, octagon, monkeypatch):
        # Steady at round 6: rounds 0..6 are measured, 8 checks each, and
        # rounds 7 and 8 are copied from the cycle.
        _, assign, _ = octagon
        calls = self.count_checks(monkeypatch)
        result = run_schedule(assign, 9)
        assert len(calls) == 7 * 8
        assert result.steady_round == 6
        ref = reference_run_schedule(assign, 9)
        assert result.ranks == tuple(g.rank for g in ref)
        assert steady_groups(result) == ref[3:6]

    def test_kernel_called_once_per_measured_round(self, octagon, monkeypatch):
        # One kernel call per measured round, with that round's checks in
        # order: 7 calls at 9 rounds (steady at round 6), 6 uncertified.
        _, assign, _ = octagon
        n = 16
        index = {v: i for i, v in enumerate(assign.complex.vertices)}
        for rounds, calls in ((9, 7), (6, 6)):
            measured = spy_rounds(monkeypatch)
            run_schedule(assign, rounds)
            assert len(measured) == calls
            for r, checks in enumerate(measured):
                letter = PAULI_OF[ROUND_COLOR[r % 3]][0]
                assert checks == [
                    _pauli_row(n, letter, (index[u], index[w]))
                    for u, w in assign.checks[ROUND_COLOR[r % 3]]
                ]
            monkeypatch.undo()

    def test_long_run_measures_no_more(self, octagon, monkeypatch):
        _, assign, _ = octagon
        calls = self.count_checks(monkeypatch)
        result = run_schedule(assign, 300)
        assert len(calls) == 7 * 8
        assert result.steady_round == 6
        ref = reference_run_schedule(assign, 12)
        assert result.ranks[:12] == tuple(g.rank for g in ref)
        assert result.ranks[12:] == result.ranks[9:12] * 96
        assert steady_groups(result) == ref[3:6]

    def test_uncertified_run_measures_every_round(self, octagon, monkeypatch):
        _, assign, _ = octagon
        calls = self.count_checks(monkeypatch)
        result = run_schedule(assign, 6)
        assert len(calls) == 6 * 8
        assert result.steady_round is None and result.k_inst is None
        assert result.ranks == tuple(g.rank for g in reference_run_schedule(assign, 6))
        assert result.phase_bases == ()
        with pytest.raises(ValueError, match="did not reach a steady state"):
            exact_distance(assign, result)

    def test_genus32_holds_every_face(self):
        # n = 256: every steady phase keeps 2g = 64 logicals and contains
        # every face stabilizer.
        cx = incenter_complex(fundamental_polygon(32, True), 128, 128)
        assign = three_color(cx)
        result = run_schedule(assign, 9)
        assert result.n == 256 and result.k_inst == 64
        faces = [face_stabilizer(assign, f) for f in range(len(cx.faces))]
        for phase in steady_groups(result):
            assert all(reduce_vec(phase, row) == 0 for row in faces)

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_groups_agree_with_reference(self, build):
        # At 6, 9 and 12 rounds the ranks are the reference trajectory's, and
        # the rank-only certificate finds the steady round and logical count
        # that comparing whole groups finds.
        schedule, _ = _schedule_for(build())
        expected = reference_trajectory(schedule)
        for rounds in (6, 9, 12):
            result = run_schedule(schedule, rounds)
            ref = expected[:rounds]
            assert result.ranks == tuple(g.rank for g in ref)
            assert (result.steady_round, result.k_inst) == reference_steady(ref, result.n)

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_each_group_lies_in_the_one_three_rounds_later(self, build):
        # The theorem behind run_schedule's rank-only steady certificate.
        # A round's update is monotone (a subgroup is measured into a
        # subgroup of the image) and ISG(3) contains ISG(0), so by induction
        # ISG(r + 3) contains ISG(r); a group equals one that contains it
        # exactly when their ranks agree.
        schedule, _ = _schedule_for(build())
        groups = reference_trajectory(schedule)
        for early, late in zip(groups, groups[3:]):
            assert all(reduce_vec(late, row) == 0 for row in early.rows)
            assert (early == late) == (early.rank == late.rank)

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_check_rows_follow_their_letter(self, build, monkeypatch):
        # run_schedule builds each check row and its swapped bits from the
        # round letter's (x, z) bits; every measured check must be the
        # letter's row on its pair, with hits the swapped row's set bits.
        schedule, _ = _schedule_for(build())
        calls = []

        def step(one, rows, basis, cols, c, hits, n):
            # Checked before the step, which may fail on wrong hits itself.
            assert sorted(hits) == list(_bits(swap_halves(c, n)))
            calls.append(c)
            one(rows, basis, cols, c, hits, n)

        spy_rounds(monkeypatch, step)
        result = run_schedule(schedule, 9)
        cx = schedule.complex
        n = len(cx.vertices)
        index = {v: i for i, v in enumerate(cx.vertices)}
        expected = [
            _pauli_row(n, PAULI_OF[ROUND_COLOR[r % 3]][0], (index[u], index[w]))
            for r in range(result.steady_round + 1)
            for u, w in schedule.checks[ROUND_COLOR[r % 3]]
        ]
        assert calls == expected


def reference_steady(groups, n):
    """(steady_round, k_inst) of a measured trajectory: the first round from
    3 on whose group equals the one three rounds back, and its logical count."""
    for r in range(3, len(groups)):
        if groups[r] == groups[r - 3]:
            return r, n - groups[r].rank
    return None, None


class TestLazyGroups:
    # run_schedule keeps the slot bases of the three steady phases and never
    # makes them canonical itself.

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_agrees_with_reference(self, build):
        # At 6, 9 and 12 rounds the steady phases are the reference
        # trajectory's three rounds before its steady round.  The ranks
        # never fall, so each steady phase has the rank k_inst is read off.
        schedule, _ = _schedule_for(build())
        expected = reference_trajectory(schedule)
        n = len(schedule.complex.vertices)
        for rounds in (6, 9, 12):
            result = run_schedule(schedule, rounds)
            assert all(a <= b for a, b in zip(result.ranks, result.ranks[1:]))
            steady, _ = reference_steady(expected[:rounds], n)
            if steady is None:
                assert result.steady_round is None and result.phase_bases == ()
            else:
                assert steady_groups(result) == expected[steady - 3 : steady]
                ranks = [len(held(basis)) for _, basis, _ in result.phase_bases]
                assert ranks == [n - result.k_inst] * 3

    def test_canonical_only_where_read(self):
        # Orientable g = 12 incenter complex, n = 96: the steady test reads
        # ranks alone and the search reads the slot states as they are, so
        # the package has no canonical form to make; only the tests read
        # groups canonically (helpers._canonical_rows).
        assert not hasattr(floquet, "_canonical_rows")
        cx = incenter_complex(fundamental_polygon(12, True), 48, 48)
        result = run_schedule(three_color(cx), 9)
        assert result.n == 96 and result.k_inst == 24 and result.steady_round == 6
        assert [len(held(basis)) for _, basis, _ in result.phase_bases] == [72, 72, 72]


class TestFaceStabilizers:
    # The clip complexes are the ones three_color rejects.
    @pytest.mark.parametrize(
        "build", [p for p in schedule_complexes() if not p.id.startswith("clip")]
    )
    def test_membership_every_phase(self, build):
        cx = build()
        assign = three_color(cx)
        result = run_schedule(assign, 9)
        for phase in steady_groups(result):
            for f in range(len(cx.faces)):
                assert reduce_vec(phase, face_stabilizer(assign, f)) == 0

    @pytest.mark.parametrize(
        "build", [p for p in schedule_complexes() if not p.id.startswith("clip")]
    )
    def test_product_of_boundary_checks(self, build):
        # A face's letter comes from its own colour, its checks' letters
        # from theirs: the two must agree on every face.
        cx = build()
        assign = three_color(cx)
        n = len(cx.vertices)
        index = {v: i for i, v in enumerate(cx.vertices)}
        ends = {e.id: (index[e.ends[0]], index[e.ends[1]]) for e in cx.edges}
        for f, face in enumerate(cx.faces):
            product_row = 0
            for eid, _ in face:
                product_row ^= _pauli_row(n, PAULI_OF[assign.edge_color[eid]][0], ends[eid])
            assert face_stabilizer(assign, f) == product_row

    def test_weight_is_face_size(self, octagon):
        cx, assign, _ = octagon
        for f, face in enumerate(cx.faces):
            assert weight(face_stabilizer(assign, f), 16) == len(face)

    def test_commutes_with_every_check(self, hexagon_no):
        cx, assign, _ = hexagon_no
        index = {v: i for i, v in enumerate(cx.vertices)}
        checks = [
            _pauli_row(12, PAULI_OF[ROUND_COLOR[r]][0], (index[u], index[w]))
            for r in range(3)
            for u, w in assign.checks[ROUND_COLOR[r % 3]]
        ]
        assert len(checks) == len(cx.edges)
        for f in range(len(cx.faces)):
            stab = face_stabilizer(assign, f)
            assert not any(sympl(stab, c, 12) for c in checks)


def is_connected(adj, sub):
    """Whether the vertex set ``sub`` is connected in the bitmask graph."""
    sub = set(sub)
    seen = {min(sub)}
    stack = [min(sub)]
    while stack:
        v = stack.pop()
        for u in sub - seen:
            if (adj[v] >> u) & 1:
                seen.add(u)
                stack.append(u)
    return seen == sub


def random_graph(rng, n, p):
    adj = [0] * n
    for a, b in combinations(range(n), 2):
        if rng.random() < p:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


class TestCosupportGraph:
    def test_rows_link_their_qubits(self):
        gens = [
            _pauli_row(5, "X", (0, 1)),
            _pauli_row(5, "Z", (2,)) ^ _pauli_row(5, "Y", (3,)),
        ]
        group = StabilizerGroup(5, reference_reduce_rows(gens))
        _, adj = _phase_tables(*slot_state(group.rows, 5), 5)
        assert list(adj) == [0b10, 0b1, 0b1000, 0b100, 0]
        assert list(adj) == reference_cosupport_graph(group.rows, 5)

    def test_symmetric_without_loops(self, octagon):
        _, _, result = octagon
        for state in result.phase_bases:
            _, adj = _phase_tables(*state, result.n)
            for q in range(result.n):
                a = adj[q]
                assert not (a >> q) & 1
                assert all((adj[r] >> q) & 1 for r in range(result.n) if (a >> r) & 1)

    @pytest.mark.parametrize("fix", ["hexagon_no", "octagon", "genus12"])
    def test_tables_match_the_oracles(self, fix, request):
        # Every qubit of every steady phase: the oracle's lazy adjacency read
        # off the canonical rows is the eager graph of those rows, and its
        # lazy syndromes read off cols are the eager syndromes against the
        # slot rows.
        _, _, result = request.getfixturevalue(fix)
        n = result.n
        for state, phase in zip(result.phase_bases, steady_groups(result)):
            syn, lazy_adj = _phase_tables(*state, n)
            assert len(lazy_adj) == len(syn) == n
            assert [syn[q] for q in range(n)] == reference_syndromes(state[0], n)
            assert list(lazy_adj) == reference_cosupport_graph(phase.rows, n)

    def test_tables_are_read_lazily(self, octagon):
        # An entry of the oracle's tables is computed on its first read and
        # kept.
        _, _, result = octagon
        for table in _phase_tables(*result.phase_bases[0], result.n):
            assert list(dict.keys(table)) == []
            assert table[3] == table[3] and table[5] == table[5] and table[3] == table[3]
            assert list(dict.keys(table)) == [3, 5]


class TestConnectedSupports:
    def test_matches_brute_force(self, hexagon_no):
        _, _, result = hexagon_no
        for state in result.phase_bases:
            _, adj = _phase_tables(*state, result.n)
            for w in (2, 3, 4, 5):
                fast = sorted(connected_supports(adj, w))
                brute = [
                    s for s in combinations(range(len(adj)), w) if is_connected(adj, s)
                ]
                assert fast == brute
                assert len(set(fast)) == len(fast)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_match_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(6, 14)
        adj = random_graph(rng, n, rng.choice((0.15, 0.3, 0.6)))
        for w in range(1, 7):
            fast = list(connected_supports(adj, w))
            assert len(set(fast)) == len(fast)
            assert sorted(fast) == [
                s for s in combinations(range(n), w) if is_connected(adj, s)
            ]

    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_supports_are_lazy(self, w):
        # The oracle's search stops at its first logical, so the first
        # support must come out having read only the adjacency it grew
        # through: on a path the first is qubits 0..w-1, grown through
        # 0..w-2.
        n = 8
        path = [0] * n
        for v in range(n - 1):
            path[v] |= 1 << (v + 1)
            path[v + 1] |= 1 << v
        reads = []

        def read(q):
            reads.append(q)
            return path[q]

        first = next(connected_supports(reference._Lazy(read, n), w))
        assert first == tuple(range(w))
        assert reads == list(range(w - 1))


def reference_rows(hits, n):
    """The hits ``(cx, cz)`` of :func:`reference_search` as sorted rows."""
    return sorted((cx << n) | cz for cx, cz in hits)


def assert_letterings(state, phase, top):
    """The union over anchors u of ``floquet._letterings(syn, u, pool, k - 1)``,
    ``syn`` the oracle's letter table of the slot state of ``phase``, yields
    at each weight k = 2..top (at most n) every weight-k Pauli exactly once,
    3^k C(n, k) rows, each with the XOR of the oracle's letter syndromes:
    with ``pool`` the qubits above u, u is each row's lowest qubit, and with
    the qubits below it, its highest.  The syndrome-0 rows are the rows
    :func:`_weight_hits` finds over every k-subset."""
    n = phase.n
    syn, _ = _phase_tables(*state, n)
    for k in range(2, min(top, n) + 1):
        for pool, end in ((lambda u: range(u + 1, n), 0), (range, -1)):
            out = [
                (u, s, row) for u in range(n) for s, row in _letterings(syn, u, pool(u), k - 1)
            ]
            assert len(out) == len({row for _, _, row in out}) == 3**k * math.comb(n, k)
            for u, s, row in out:
                support = list(_bits(((row >> n) | row) & ((1 << n) - 1)))
                assert (len(support), support[end]) == (k, u)
                expected = 0
                for q in support:
                    on_q = ((1 << n) | 1) << q
                    (letter,) = (ls for ls, lr in syn[q] if row & on_q == lr)
                    expected ^= letter
                assert s == expected
            commuting = sorted(row for _, s, row in out if not s)
            assert commuting == sorted(_weight_hits(syn, combinations(range(n), k)))


class TestKernels:
    # Largest weight each fixture is searched up to; the genus-12 phases
    # (n=96, rank 72) are swept over all subsets only up to weight 2.  The
    # search's generator is checked from weight 2 to weight 3, the widest
    # half of a weight-6 Pauli.
    TOP_WEIGHT = {"hexagon_no": 5, "octagon": 5, "genus12": 2}

    @pytest.mark.parametrize("rule", ["subsets", "letterings"])
    @pytest.mark.parametrize("fix", ["hexagon_no", "octagon", "genus12"])
    def test_hits_agree_with_reference(self, fix, rule, request):
        # "subsets": the oracle's kernel over every support; "letterings":
        # the search's generator, every phase, against the oracle's
        # syndromes and kernel over every support.
        _, _, result = request.getfixturevalue(fix)
        pairs = list(zip(result.phase_bases, steady_groups(result)))
        for state, phase in pairs[:1] if rule == "subsets" else pairs:
            if rule == "subsets":
                syn, _ = _phase_tables(*state, phase.n)
                for w in range(1, self.TOP_WEIGHT[fix] + 1):
                    sups = list(combinations(range(phase.n), w))
                    assert sorted(_weight_hits(syn, sups)) == reference_rows(
                        reference_search(*split_rows(phase), sups, w), phase.n
                    )
            else:
                assert_letterings(state, phase, min(3, self.TOP_WEIGHT[fix]))

    def test_syndromes_match_symplectic_product(self, genus12):
        _, _, result = genus12
        rows, basis, cols = state = result.phase_bases[0]
        n = result.n
        assert (n, len(held(basis))) == (96, 72)
        syn, _ = _phase_tables(*state, n)
        assert len(syn) == n
        # Bit s of a syndrome is the letter's symplectic product with the
        # row in slot s.
        for q in (0, 1, 47, 95):
            for (s, row), letter in zip(syn[q], "XYZ"):
                assert row == _pauli_row(n, letter, (q,))
                assert s == sum(
                    sympl(row, r, n) << i for i, r in enumerate(rows)
                )

    def test_hits_are_lazy(self, octagon):
        # The search stops at its first logical, so supports past the
        # first hit must not be read.
        _, _, result = octagon
        phase = steady_groups(result)[0]
        sups = list(combinations(range(phase.n), 2))
        first = reference_rows(reference_search(*split_rows(phase), sups[:1], 2), phase.n)
        assert first

        def supports():
            yield sups[0]
            raise AssertionError("read a support past the first hit")

        syn, _ = _phase_tables(*result.phase_bases[0], phase.n)
        assert next(_weight_hits(syn, supports())) in first

    def test_hit_weights(self, octagon):
        _, _, result = octagon
        phase = steady_groups(result)[0]
        n = phase.n
        sups = list(combinations(range(n), 2))
        syn, _ = _phase_tables(*result.phase_bases[0], n)
        hits = list(_weight_hits(syn, sups))
        assert hits
        for row in hits:
            assert weight(row, n) == 2
            assert not any(sympl(row, r, n) for r in phase.rows)


def toric_code(L):
    """Generator labels of the L x L toric code: horizontal edges are
    qubits 0..L^2-1 and vertical edges L^2..2L^2-1, both row-major."""
    n = 2 * L * L

    def h(r, c):
        return L * (r % L) + c % L

    def v(r, c):
        return L * L + L * (r % L) + c % L

    gens = []
    for r, c in product(range(L), repeat=2):
        star = (h(r, c), h(r, c - 1), v(r, c), v(r - 1, c))
        plaquette = (h(r, c), h(r + 1, c), v(r, c), v(r, c + 1))
        gens.append("".join("X" if q in star else "I" for q in range(n)))
        gens.append("".join("Z" if q in plaquette else "I" for q in range(n)))
    return gens


# Generator labels and distance of small stabilizer codes.
SMALL_CODES = {
    "five-qubit": (["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], 3),
    "steane": (
        ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"], 3
    ),
    "rotated-surface": (
        [
            "XXIXXIIII", "IZZIZZIII", "IIIZZIZZI", "IIIIXXIXX",
            "IXXIIIIII", "IIIIIIXXI", "ZIIZIIIII", "IIIIIZIIZ",
        ],
        3,
    ),
    "shor": (
        [
            "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
            "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX",
        ],
        3,
    ),
    "four-two-two": (["XXXX", "ZZZZ"], 2),
    "repetition": (["ZZI", "IZZ"], 1),
    # Only Z-type rows act on qubit 0: its Z is a stabilizer, X and Y fail.
    "frozen-qubit": (["ZIIII", "IXXXX", "IZZZZ"], 2),
}


def grown_state(n, rank, seed):
    """The slot state of a random group of the given rank on n qubits, grown
    by measuring random dense Paulis drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    state = slot_state((), n)
    while len(state[0]) < rank:
        measure(state, rng.getrandbits(2 * n), n)
    return state


# (n, k, seed, d) of random groups from grown_state(n, n - k, seed) with
# d >= 3 by the 4^n sweep.  d = 4 is rare: 3 of seeds 0..39999 give it at
# n = 10, k = 1, and a d = 5 code with k >= 1 needs n >= 11.
RANDOM_GROUPS = [
    (5, 1, 582, 3), (6, 1, 1089, 3), (7, 1, 9, 3), (7, 1, 82, 3),
    (8, 1, 0, 3), (8, 1, 20, 3), (8, 2, 416, 3), (9, 1, 3, 3), (9, 1, 5, 3),
    (9, 2, 6, 3), (10, 1, 2, 3), (10, 1, 3, 3), (10, 2, 7, 3), (10, 2, 12, 3),
    (10, 1, 18697, 4), (10, 1, 24257, 4), (10, 1, 37805, 4),
]


def scrambled_code(labels, seed):
    """The code of ``labels`` with its qubits permuted, X/Y/Z relabelled
    per qubit, and its generators recombined."""
    n = len(labels[0])
    if any(len(label) != n for label in labels):
        raise ValueError(f"labels differ in length: {[len(label) for label in labels]}")
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    letters = [dict(zip("XYZ", rng.sample("XYZ", 3))) for _ in range(n)]
    gens = []
    for label in labels:
        x = z = 0
        for q, a in enumerate(label):
            if a != "I":
                lx, lz = _LETTERS[letters[q][a]]
                x |= lx << perm[q]
                z |= lz << perm[q]
        gens.append((x << n) | z)
    assert_commuting(gens, n)
    group = StabilizerGroup(n, reference_reduce_rows(gens))
    for _ in range(3 * len(gens)):
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] ^= gens[j]
    # The canonical rows, and with them the co-support graph, depend only
    # on the group, not on the generators it was given.
    assert StabilizerGroup(n, reference_reduce_rows(gens)) == group
    return group


class TestExactDistance:
    def test_octagon(self, octagon):
        _, assign, result = octagon
        assert exact_distance(assign, result) == 2

    def test_hexagon_no_matches_exhaustive(self, hexagon_no):
        _, assign, result = hexagon_no
        assert exact_distance(assign, result) == 2
        assert exhaustive_distance(steady_groups(result)) == 2

    def test_edge_schedule_small_instance_agrees(self):
        # k_inst = 1 here, so the search exercises a non-trivial row space.
        cx = clip_complex(fundamental_polygon(2, True), 8, 8)
        sched = edge_three_color(cx)
        result = run_schedule(sched, 9)
        assert result.k_inst == 1
        assert exact_distance(sched, result) == 2
        assert exhaustive_distance(steady_groups(result)) == 2

    @pytest.mark.parametrize("make", [incenter_complex, clip_complex])
    def test_reads_only_what_its_first_support_needs(self, monkeypatch, make):
        # Both distances are 2: weights 1 and 2 are read off the slot masks
        # alone, so no lettering of three or more qubits is generated.
        sched, _ = _schedule_for(make(fundamental_polygon(2, True), 8, 8))
        result = run_schedule(sched, 9)
        calls = spy_letterings(monkeypatch)
        assert exact_distance(sched, result) == 2
        assert calls == []

    def test_beyond_one_syndrome_word(self, genus12):
        _, assign, result = genus12
        assert _min_logical_weight(result.phase_bases) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_toric_code(self, seed):
        # A tessellation's edge graph says nothing about these qubits: a
        # search pruned on it missed every weight-4 logical.
        group = scrambled_code(toric_code(4), seed)
        assert group.rank == 30
        assert _min_logical_weight((slot_state(group.rows, group.n),) * 3) == 4

    def test_matches_exhaustive_on_small_complexes(self):
        # n is 8g / 4g (incenter / clip) on orientable surfaces and 4g / 2g
        # on non-orientable ones, so these genera hold every n <= 12 complex.
        checked = []
        for orientable, genera in ((True, (2, 3)), (False, range(3, 7))):
            for g in genera:
                p = (4 if orientable else 2) * g
                for derive in (incenter_complex, clip_complex):
                    cx = derive(fundamental_polygon(g, orientable), p, p)
                    sched, _ = _schedule_for(cx)
                    result = run_schedule(sched, 9)
                    if len(cx.vertices) > 12 or result.k_inst == 0:
                        continue
                    assert exact_distance(sched, result) == exhaustive_distance(
                        steady_groups(result)
                    )
                    checked.append((derive.__name__, orientable, g))
        assert checked == [
            ("clip_complex", True, 2),
            ("clip_complex", True, 3),
            ("incenter_complex", False, 3),
        ]

    def test_scrambled_code_rejects_mistyped_label(self):
        with pytest.raises(ValueError, match="differ in length"):
            scrambled_code(["XXII", "ZZI"], 0)

    @pytest.mark.parametrize("code", sorted(SMALL_CODES))
    def test_scrambled_small_codes_match_exhaustive(self, code):
        labels, d = SMALL_CODES[code]
        for seed in range(8):
            group = scrambled_code(labels, seed)
            state = slot_state(group.rows, group.n)
            assert _min_logical_weight((state,)) == exhaustive_distance((group,)) == d
            assert reference_min_logical_weight((group,)) == d
            assert_letterings(state, group, 3)

    @pytest.mark.parametrize(
        "code", ["five-qubit", "rotated-surface", "shor", "steane", "toric-3", "random"]
    )
    def test_weights_from_three_match_both_oracles(self, code, monkeypatch):
        # Groups with d >= 3, where the search runs past weight 2: more
        # scrambles than the test above, and the seeded random groups of
        # RANDOM_GROUPS, searched on the slot states they were grown in.  The
        # search gives the distance of the first-written search and, where
        # n <= 12, of the 4^n sweep, and the first product it finds outside
        # the group is a logical of weight d.
        cases = []
        if code == "random":
            for n, k, seed, d in RANDOM_GROUPS:
                state = grown_state(n, n - k, seed)
                cases.append((state, read_group(state, n), d))
        else:
            labels, d = (toric_code(3), 3) if code == "toric-3" else SMALL_CODES[code]
            for seed in range(8, 40):
                group = scrambled_code(labels, seed)
                cases.append((slot_state(group.rows, group.n), group, d))
        found = found_logicals(monkeypatch)
        for state, group, d in cases:
            n = group.n
            found.clear()
            assert _min_logical_weight((state,)) == d
            assert reference_min_logical_weight((group,)) == d
            if n <= _EXHAUSTIVE_MAX_N:
                assert exhaustive_distance((group,)) == d
            v, _ = found[0]
            assert weight(v, n) == d
            assert not any(sympl(v, row, n) for row in group.rows)
            assert reduce_vec(group, v) != 0

    @pytest.mark.parametrize("n", range(5, 11))
    def test_random_groups_weight_two_as_exhaustive(self, n, monkeypatch):
        # Groups of rank n - 1 grown by measuring random dense Paulis, as in
        # run_schedule's slot states: the search returns 2, on each phase
        # alone and on three together, exactly when the 4^n sweep does, and
        # then it has generated no lettering of three or more qubits.
        rng = random.Random(700 + n)
        passes = spy_letterings(monkeypatch)
        seen = set()
        for _ in range(6):
            states = []
            for _ in range(3):
                state = slot_state((), n)
                while len(state[0]) < n - 1:
                    measure(state, rng.getrandbits(2 * n), n)
                states.append(state)
            groups = [read_group(state, n) for state in states]
            for phases in ([0], [1], [2], [0, 1, 2]):
                d = exhaustive_distance(tuple(groups[i] for i in phases))
                passes.clear()
                assert _min_logical_weight(tuple(states[i] for i in phases)) == d
                assert (passes == []) == (d <= 2)
                seen.add(min(d, 3))
        assert {1, 2} <= seen and (n < 7 or 3 in seen)

    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_full_rank_search_meets_each_pauli_once(self, g, monkeypatch):
        # A full-rank phase has no logical, so the search runs through
        # weight 6.  From weight 2 on it must test each commuting Pauli of
        # each weight exactly once, leaving out only those whose lower half
        # (their lowest w // 2 qubits) commutes with the phase: that half
        # and the rest then lie in the group.
        cx = clip_complex(fundamental_polygon(g, False), 2 * g, 2 * g)
        result = run_schedule(edge_three_color(cx), 9)
        n = result.n
        assert result.k_inst == 0
        tested = []
        real = floquet._residue
        monkeypatch.setattr(floquet, "_residue",
                            lambda rows, basis, v: tested.append(v) or real(rows, basis, v))
        for state, phase in zip(result.phase_bases, steady_groups(result)):
            tested.clear()
            with pytest.raises(BoundExceeded, match="weight <= 6"):
                _min_logical_weight((state,))
            expected = []
            for w in range(2, 7):
                for sup in combinations(range(n), w):
                    lower = sum(((1 << n) | 1) << q for q in sup[: w // 2])
                    for row in reference_rows(reference_search(*split_rows(phase), [sup], w), n):
                        if any(sympl(row & lower, r, n) for r in phase.rows):
                            expected.append(row)
            assert sorted(v for v in tested if weight(v, n) >= 2) == sorted(expected)
            assert len(expected) > 0

    def test_bound_signal(self, genus12):
        _, assign, result = genus12
        with pytest.raises(BoundExceeded, match="geometric estimator"):
            exact_distance(assign, result)

    def test_weight_bound_signal(self):
        # Full-rank phases have no logical, so the search runs out of
        # weights; exact_distance itself refuses them earlier (k = 0).
        cx = clip_complex(fundamental_polygon(3, False), 6, 6)
        result = run_schedule(edge_three_color(cx), 9)
        with pytest.raises(BoundExceeded, match="weight <= 6"):
            _min_logical_weight(result.phase_bases)
        with pytest.raises(BoundExceeded, match="weight <= 6"):
            reference_min_logical_weight(steady_groups(result))

    def test_no_logicals_in_full_rank_group(self, monkeypatch):
        cx = clip_complex(fundamental_polygon(3, False), 6, 6)
        sched = edge_three_color(cx)
        result = run_schedule(sched, 9)
        # k_inst decides it: no steady phase is searched.
        passes = spy_letterings(monkeypatch)
        with pytest.raises(ValueError, match="k = 0") as info:
            exact_distance(sched, result)
        assert not isinstance(info.value, BoundExceeded)
        assert passes == []
        with pytest.raises(ValueError, match="no logical"):
            exhaustive_distance(steady_groups(result))

    def test_exhaustive_bound(self, octagon):
        _, _, result = octagon
        with pytest.raises(ValueError, match="refused"):
            exhaustive_distance(steady_groups(result))  # n=16 > 12


def spy_letterings(monkeypatch) -> list:
    """Spy on ``floquet._letterings``: the returned list gets ``k``, the
    number of qubits beside the anchor, of every call."""
    calls = []
    real = floquet._letterings

    def spy(table, u, pool, k):
        calls.append(k)
        return real(table, u, pool, k)

    monkeypatch.setattr(floquet, "_letterings", spy)
    return calls


def found_logicals(monkeypatch) -> list:
    """Spy on ``floquet._residue``: the returned list gets ``(v, rows)`` for
    every row ``v`` the search finds outside the group, ``rows`` the slot
    rows of the phase it was found in."""
    found = []
    real = floquet._residue

    def spy(rows, basis, v):
        residue = real(rows, basis, v)
        if residue:
            found.append((v, rows))
        return residue

    monkeypatch.setattr(floquet, "_residue", spy)
    return found


# The cases the exact search takes on (n <= 40, k > 0).
SEARCHED = {
    *(f"incenter_complex-o{g}" for g in range(2, 6)),
    *(f"incenter_complex-n{g}" for g in range(3, 11)),
    *(f"clip_complex-o{g}" for g in range(2, 11)),
    "honeycomb-3",
    "honeycomb-4-edge",
}


def assert_logical(found, result, w):
    """The first row of :func:`found_logicals` is a logical of weight ``w``
    of the steady phase it was found in: it commutes with every canonical
    row of that phase and does not lie in it."""
    v, rows = found[0]
    (phase,) = (
        group for state, group in zip(result.phase_bases, steady_groups(result))
        if state[0] is rows
    )
    assert weight(v, result.n) == w
    assert not any(sympl(v, row, result.n) for row in phase.rows)
    assert reduce_vec(phase, v) != 0


class TestSearchOracle:
    # The search over the run's slot states against the search as first
    # written, over canonical groups with eager tables: both give the same
    # distance, and the witness the search stops on, at any weight, is
    # checked against the group of the phase it was found in.

    @pytest.mark.parametrize(
        "build",
        [*schedule_complexes(), pytest.param(lambda: honeycomb_torus(4), id="honeycomb-4-edge")],
    )
    def test_same_distance_and_supports(self, build, monkeypatch, request):
        schedule, _ = _schedule_for(build())
        result = run_schedule(schedule, 9)
        case = request.node.callspec.id
        searched = result.n <= 40 and result.k_inst > 0
        assert searched == (case in SEARCHED)
        if not searched:
            with pytest.raises(ValueError, match="exact-search bound|k = 0"):
                exact_distance(schedule, result)
            return
        found = found_logicals(monkeypatch)
        d = exact_distance(schedule, result)
        assert reference_min_logical_weight(steady_groups(result)) == d
        assert d == (4 if case.startswith("honeycomb") else 2)
        assert_logical(found, result, d)

    @pytest.mark.parametrize(
        "build",
        [p for p in schedule_complexes() if p.id in SEARCHED]
        + [pytest.param(lambda: honeycomb_torus(4), id="honeycomb-4-edge")],
    )
    def test_each_phase_alone(self, build):
        # Phase by phase, so the collision loop's weight-2 pass meets phases
        # whose own distance is 2 and phases where it must find nothing.
        schedule, _ = _schedule_for(build())
        result = run_schedule(schedule, 9)
        for state, phase in zip(result.phase_bases, steady_groups(result)):
            assert _min_logical_weight((state,)) == reference_min_logical_weight((phase,))


class TestCodeParams:
    def test_estimated_row(self):
        cp = code_params((6, 6, 8), 2, True)
        assert (cp.n, cp.k, cp.d) == (48, 4, 4)
        assert cp.d_source == "geometric-estimate"
        doc = cp.as_json()
        assert doc["k_n"] == pytest.approx(0.0833, abs=5e-4)
        assert doc["kd2_n"] == pytest.approx(1.333, abs=5e-4)

    def test_exact_rows(self):
        cp = code_params((4, 16, 16), 2, True)
        assert (cp.n, cp.k, cp.d) == (16, 4, 2)
        assert cp.d_source == "exact"
        cp = code_params((4, 24, 24), 3, True)
        assert (cp.n, cp.k, cp.d) == (24, 6, 2)

    def test_nonorientable_rows(self):
        cp = code_params((4, 12, 12), 3, False)
        assert (cp.n, cp.k, cp.d) == (12, 3, 2)
        assert cp.d_source == "exact"
        # clip signature: auto takes the estimator without building it
        cp = code_params((6, 12, 12), 3, False)
        assert (cp.n, cp.k, cp.d) == (6, 3, 2)
        assert cp.d_source == "geometric-estimate"

    def test_scaling_example(self):
        cp = code_params((8, 8, 8), 5, True)
        assert (cp.n, cp.k, cp.d) == (64, 10, 4)

    def test_rejects_a_float_genus(self):
        with pytest.raises(TypeError) as info:
            code_params((6, 6, 8), 2.0, True)
        assert str(info.value) == "genus must be an integer"

    def test_auto_raises_the_exact_route_errors(self, monkeypatch):
        # Auto takes the exact route on an incenter row with n <= 40 and
        # gives no estimate in place of its errors, BoundExceeded included.
        def out_of_bounds(*args, **kwargs):
            raise BoundExceeded("search ran out of its bounds")

        def broken(*args, **kwargs):
            raise ValueError("unexpected failure in the exact route")

        monkeypatch.setattr(floquet, "_min_logical_weight", out_of_bounds)
        with pytest.raises(BoundExceeded, match="out of its bounds"):
            code_params((4, 16, 16), 2, True, d_mode="auto")
        monkeypatch.setattr(floquet, "_min_logical_weight", broken)
        with pytest.raises(ValueError, match="unexpected failure"):
            code_params((4, 16, 16), 2, True, d_mode="auto")

    def test_auto_raises_on_a_logical_count_off_the_genus_rule(self, monkeypatch):
        # The exact route checks the steady logical count against k = 2 - chi
        # before it searches; a schedule that settles one short is raised.
        real = floquet.run_schedule

        def one_short(schedule, rounds):
            r = real(schedule, rounds)
            return floquet.ScheduleResult(
                r.n, r.ranks, r.phase_bases, r.steady_round, r.k_inst - 1
            )

        monkeypatch.setattr(floquet, "run_schedule", one_short)
        with pytest.raises(RuntimeError, match="logical count 3 disagrees with the genus rule k=4"):
            code_params((4, 16, 16), 2, True, d_mode="auto")

    def test_auto_never_builds_a_clip(self, monkeypatch):
        # A clipped fundamental polygon is never a colour-code tiling, so
        # auto gives the geo row on every clip signature, even at n <= 40.
        # Orientable clips have no admitted cell counts (n_v = 4g is not a
        # multiple of 8g), so auto rejects them before any complex too.
        calls = []

        def counted(*args):
            calls.append(args)
            return clip_complex(*args)

        monkeypatch.setattr(derive, "clip_complex", counted)
        rows = 0
        for orientable, genera in ((True, range(2, 13)), (False, range(3, 13))):
            for genus in genera:
                p = (4 if orientable else 2) * genus
                m = (p, 2 * p, 2 * p)
                assert polygon_route(m, genus, orientable) == "clip"
                if orientable:
                    with pytest.raises(ValueError, match="no integral cell counts"):
                        code_params(m, genus, orientable)
                    continue
                geo = code_params(m, genus, orientable, "geo")
                assert geo.n <= floquet._EXACT_MAX_N
                assert code_params(m, genus, orientable) == geo
                rows += 1
        assert rows == 10
        assert calls == []

    def test_auto_builds_the_complex_at_most_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return incenter_complex(*args, **kwargs)

        monkeypatch.setattr("floqtess.derive.incenter_complex", counted)
        assert code_params((4, 16, 16), 2, True).d_source == "exact"
        assert len(calls) == 1
        # n = 96 is past the exact bound: no complex is built at all.
        assert code_params((4, 48, 48), 6, True).d_source == "geometric-estimate"
        assert len(calls) == 1

    def test_exact_route_checks_every_cell_count(self, monkeypatch):
        # Hand the [4,16,16] genus-2 row the clip complex of the same
        # octagon: the cross-check against the direct counts must name
        # every cell count of both.
        monkeypatch.setattr(
            floquet, "polygon_complex",
            lambda route, genus, orientable: polygon_complex("clip", genus, orientable),
        )
        with pytest.raises(
            RuntimeError,
            match=r"explicit complex has V=8, E=12, F=2, counts say V=16, E=24, F=6$",
        ):
            code_params((4, 16, 16), 2, True, "auto")

    def test_auto_reads_the_route_only_where_it_can_go_exact(self, monkeypatch):
        calls = []

        def counted(m, genus, orientable):
            calls.append((tuple(m), genus, orientable))
            return polygon_route(m, genus, orientable)

        monkeypatch.setattr(floquet, "polygon_route", counted)
        rows = build_table(range(2, 6), True) + build_table(range(3, 6), False)
        near = [(r.signature, r.genus, r.orientable) for r in rows if r.n <= floquet._EXACT_MAX_N]
        assert 0 < len(near) < len(rows)
        assert calls == near

    def test_geo_builds_the_signature_once(self, monkeypatch):
        # The counts, the estimator and the metric profile all take the
        # SemiRegularSig code_params validated, and a triple validated once
        # is not validated again in the process, on another genus or
        # surface either: three rows over two distinct triples, two checks.
        calls = []
        init = SemiRegularSig.__init__

        def counted(self, m):
            calls.append(m)
            init(self, m)

        monkeypatch.setattr(SemiRegularSig, "__init__", counted)
        monkeypatch.setattr(hypgeo, "_SEMIREGULAR", {})
        for m, genus, orientable in [((6, 6, 8), 2, True), ((4, 6, 14), 5, True),
                                     ((6, 6, 8), 3, False)]:
            assert code_params(m, genus, orientable, "geo").d_source == "geometric-estimate"
        assert calls == [(6, 6, 8), (4, 6, 14)]

    def test_a_checked_triple_does_not_admit_other_element_types(self, monkeypatch):
        # (6, 6, 8.0) and (6, 6, int64(8)) compare and hash equal to the
        # checked (6, 6, 8), so a signature cache keyed by the bare triple
        # would hand them its row; they must still be rejected.  Another
        # sequence type of the same ints is the same triple.
        monkeypatch.setattr(hypgeo, "_SEMIREGULAR", {})
        row = code_params((6, 6, 8), 2, True, "geo")
        for m in [(6, 6, 8.0), (6, 6, np.int64(8))]:
            with pytest.raises(TypeError) as info:
                code_params(m, 2, True, "geo")
            assert str(info.value) == "vertex type must be a triple of integers"
        assert code_params([6, 6, 8], 2, True, "geo") == row

    def test_inadmissible_counts(self):
        with pytest.raises(ValueError, match="integral"):
            code_params((8, 10, 10), 2, True)

    def test_genus_floors(self):
        with pytest.raises(ValueError, match="genus"):
            code_params((6, 6, 8), 1, True)
        with pytest.raises(ValueError, match="genus"):
            code_params((6, 6, 8), 2, False)

    def test_bad_mode(self):
        for mode in ("both", "exact"):
            with pytest.raises(ValueError, match="d_mode"):
                code_params((6, 6, 8), 2, True, mode)

    def test_ratio_columns(self):
        cp = CodeParams((6, 6, 8), 3, False, 24, 3, 4, "geometric-estimate", None)
        assert cp.as_json()["kd2_n"] == 2.0
        ratios = table_to_csv([cp]).splitlines()[1].split(",")[-3:]
        assert ratios == ["0.125", "2", "0.166666666667"]

    def test_row_invariants(self):
        # The record checks nothing, so what code_params builds holds by
        # construction on every table row in both modes and on both sides
        # of every equivalence entry: n positive and even, k = 2 - chi,
        # d >= 2, a known d_source, a convention exactly on estimated rows.
        keys = ["signature", "genus", "orientable", "n", "k", "d", "d_source",
                "k_n", "kd2_n", "d_n"]
        sources = ("exact", "geometric-estimate")
        for mode in ("auto", "geo"):
            rows = build_table(range(2, 13), True, mode) + build_table(range(3, 13), False, mode)
            assert len(rows) == 1171
            for r in rows:
                assert r.n > 0 and r.n % 2 == 0, r
                assert r.k == 2 - hypgeo._genus_chi(r.genus, r.orientable) and r.d >= 2 and r.d_source in sources, r
                assert (r.convention is None) == (r.d_source == "exact"), r
                doc = r.as_json()
                assert list(doc) == keys + ["convention"] * (r.convention is not None), r
        for h in range(2, 7):
            for entry in equivalence_check(h)["rows"]:
                for side in (entry["orientable"], entry["nonorientable"]):
                    assert side["n"] > 0 and side["n"] % 2 == 0, entry
                    assert side["k"] == 2 * h and side["d"] >= 2, entry
                    assert side["d_source"] in sources, entry

    def test_explicit_route_shapes(self):
        for m, genus, orientable, n in [((4, 16, 16), 2, True, 16), ((6, 12, 12), 3, False, 6)]:
            cx = polygon_complex(polygon_route(m, genus, orientable), genus, orientable)
            assert len(cx.vertices) == n
        assert polygon_route((6, 6, 8), 2, True) is None
