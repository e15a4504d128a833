"""Symplectic Pauli algebra and the dynamics of measured check schedules.

Measuring the three colour classes cyclically drives the instantaneous
stabilizer group (ISG) into a period-3 steady state; the number of logical
qubits is read off its rank and the code distance from a minimum-weight
search over Paulis that commute with the ISG without belonging to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from . import geodist
from .coloring import NotColorCodeTiling, checks_for_round, three_color
from .derive import clip_complex, incenter_complex, semiregular_counts_direct
from .hypgeo import SemiRegularSig, _check_genus
from .surface import fundamental_polygon

# Pauli letter a stabilizer on a face of the given colour is built from.
FACE_KIND = {"G": "X", "B": "Y", "R": "Z"}
# Largest n the exact distance search takes on by default.
_EXACT_MAX_N = 40


class BoundExceeded(ValueError):
    """Exact search out of range; use the geometric estimator instead."""


@dataclass(frozen=True)
class PauliOperator:
    """Phase-free n-qubit Pauli as a pair of bitmasks.

    Qubit ``i`` carries X iff bit ``i`` of ``x``, Z iff bit ``i`` of ``z``,
    and Y iff both.
    """

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        top = 1 << self.n
        if not (0 <= self.x < top and 0 <= self.z < top):
            raise ValueError("bitmask outside the qubit range")

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0)

    @classmethod
    def from_map(cls, n: int, ops: dict) -> "PauliOperator":
        """Build from ``{qubit: letter}`` with letters X, Y, Z."""
        x = z = 0
        for q, letter in ops.items():
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} outside range 0..{n - 1}")
            if letter in ("X", "Y"):
                x |= 1 << q
            if letter in ("Z", "Y"):
                z |= 1 << q
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {letter!r}")
        return cls(n, x, z)

    @classmethod
    def two_body(cls, n: int, pauli: str, i: int, j: int) -> "PauliOperator":
        """XX, YY or ZZ on the qubit pair ``(i, j)``."""
        if pauli not in ("XX", "YY", "ZZ"):
            raise ValueError(f"not a check type: {pauli!r}")
        if i == j:
            raise ValueError("check qubits must be distinct")
        return cls.from_map(n, {i: pauli[0], j: pauli[1]})

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple:
        return tuple(_bits(self.x | self.z))

    def commutes(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError("operators act on different qubit counts")
        return (
            (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        ) & 1 == 0

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("operators act on different qubit counts")
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z)

    def to_label(self) -> str:
        out = []
        for q in range(self.n):
            xb = (self.x >> q) & 1
            zb = (self.z >> q) & 1
            out.append("IXZY"[xb + 2 * zb])
        return "".join(out)

    def as_json(self) -> dict:
        return {
            "x": [(self.x >> q) & 1 for q in range(self.n)],
            "z": [(self.z >> q) & 1 for q in range(self.n)],
        }


def _swap_halves(v: int, n: int) -> int:
    """``(z << n) | x`` of the row ``(x << n) | z``: the symplectic product
    of ``u`` and ``v`` is the parity of ``u & _swap_halves(v, n)``."""
    return ((v & ((1 << n) - 1)) << n) | (v >> n)


def _sympl(u: int, v: int, n: int) -> int:
    return (u & _swap_halves(v, n)).bit_count() & 1


def _reduce_rows(vectors, n) -> tuple:
    """Canonical reduced basis (distinct descending pivots) of the span."""
    basis: dict[int, int] = {}
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


@dataclass(frozen=True)
class StabilizerGroup:
    """Stabilizer group in reduced row-echelon symplectic form.

    Rows are ``(x << n) | z`` integers with strictly decreasing pivots, so
    equal groups compare equal.
    """

    n: int
    rows: tuple = ()

    def __post_init__(self):
        if self.rows != _reduce_rows(self.rows, self.n):
            raise ValueError("rows are not in canonical reduced form")

    @classmethod
    def empty(cls, n: int) -> "StabilizerGroup":
        return cls(n, ())

    @classmethod
    def from_paulis(cls, n: int, paulis) -> "StabilizerGroup":
        vecs = []
        for p in paulis:
            if p.n != n:
                raise ValueError("operator qubit count mismatch")
            vecs.append((p.x << n) | p.z)
        group = cls(n, _reduce_rows(vecs, n))
        if not group.is_abelian():
            raise ValueError("generators do not pairwise commute")
        return group

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def generators(self) -> tuple:
        mask = (1 << self.n) - 1
        return tuple(
            PauliOperator(self.n, r >> self.n, r & mask) for r in self.rows
        )

    def is_abelian(self) -> bool:
        return not any(_sympl(u, v, self.n) for u, v in combinations(self.rows, 2))

    def _reduce_vec(self, v: int) -> int:
        for row in self.rows:
            p = row.bit_length() - 1
            if (v >> p) & 1:
                v ^= row
        return v

    def contains(self, op: PauliOperator) -> bool:
        if op.n != self.n:
            raise ValueError("operator qubit count mismatch")
        return self._reduce_vec((op.x << self.n) | op.z) == 0

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "generators": [g.as_json() for g in self.generators],
        }


def _measure_step(basis: dict, c: int, n: int) -> None:
    """Measure check ``c`` on the echelon basis ``{pivot: row}`` in place.

    The anticommuting row with the lowest pivot absorbs the other
    anticommuting rows (their pivots stay put) and leaves; the check is then
    reduced top bit by top bit and joins unless it is a dependent commuting
    check.  Both per-check invariants cost O(rank): the rank does not drop,
    and the new row commutes with every row.
    """
    swapped = _swap_halves(c, n)
    anti = [p for p, r in basis.items() if (r & swapped).bit_count() & 1]
    if anti:
        low = min(anti)
        g = basis.pop(low)
        for p in anti:
            if p != low:
                basis[p] ^= g
    while c:
        p = c.bit_length() - 1
        row = basis.get(p)
        if row is None:
            break
        c ^= row
    if not c:
        if anti:
            raise RuntimeError("measurement lowered the rank")
        return
    swapped = _swap_halves(c, n)
    if any((r & swapped).bit_count() & 1 for r in basis.values()):
        raise RuntimeError("measurement broke commutativity")
    basis[c.bit_length() - 1] = c


def measure(isg: StabilizerGroup, check: PauliOperator) -> StabilizerGroup:
    """Project the group onto the outcome algebra of a 2-qubit check.

    Commuting checks join the group (when independent); otherwise one
    anticommuting row absorbs the rest and is replaced by the check.
    """
    if check.n != isg.n:
        raise ValueError("check qubit count mismatch")
    if check.weight != 2:
        raise ValueError("check must be a 2-qubit Pauli")
    basis = {r.bit_length() - 1: r for r in isg.rows}
    _measure_step(basis, (check.x << isg.n) | check.z, isg.n)
    return StabilizerGroup(isg.n, _reduce_rows(basis.values(), isg.n))


@dataclass(frozen=True)
class ScheduleResult:
    """Per-round ISG trajectory with steady-state bookkeeping."""

    n: int
    ranks: tuple
    groups: tuple
    steady_round: int | None
    k_inst: int | None

    @property
    def steady_phases(self) -> tuple:
        """The three ISGs of the steady cycle (one per colour phase)."""
        if self.steady_round is None:
            raise ValueError("schedule did not reach a steady state")
        r = self.steady_round
        return self.groups[r - 3 : r]

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "ranks": list(self.ranks),
            "steady_round": self.steady_round,
            "k": self.k_inst,
        }


def check_operator(check, index: dict, n: int) -> PauliOperator:
    """Translate a coloured check into a Pauli over indexed qubits."""
    i, j = (index[q] for q in check.qubits)
    return PauliOperator.two_body(n, check.pauli, i, j)


def run_schedule(schedule, rounds: int) -> ScheduleResult:
    """Measure the colour classes cyclically and watch the ISG settle.

    ``schedule`` is an EdgeSchedule, such as a ColorAssignment.  Steady state is
    entered at round ``r`` when ISG(r) == ISG(r-3); determinism of the
    update then keeps the period-3 cycle forever.  One echelon basis is
    updated check by check across all rounds and made canonical once per
    round.
    """
    if rounds < 6:
        raise ValueError("need at least 6 rounds to certify a steady state")
    cx = schedule.complex
    n = len(cx.vertices)
    index = {v: i for i, v in enumerate(cx.vertices)}
    phase_ops = [
        [check_operator(ch, index, n) for ch in checks_for_round(schedule, r)]
        for r in range(3)
    ]
    basis: dict[int, int] = {}
    groups = []
    for r in range(rounds):
        for op in phase_ops[r % 3]:
            _measure_step(basis, (op.x << n) | op.z, n)
        groups.append(StabilizerGroup(n, _reduce_rows(basis.values(), n)))
    steady = next((r for r in range(3, rounds) if groups[r] == groups[r - 3]), None)
    k_inst = None
    if steady is not None:
        ks = {n - groups[r].rank for r in range(steady - 3, steady)}
        if len(ks) != 1:
            raise RuntimeError(
                f"steady phases disagree on the logical count: {sorted(ks)}"
            )
        k_inst = ks.pop()
    return ScheduleResult(n, tuple(g.rank for g in groups), tuple(groups), steady, k_inst)


def face_stabilizer(assign, f: int) -> PauliOperator:
    """Face cycle operator: X/Y/Z on the boundary of a G/B/R face."""
    cx = assign.complex
    n = len(cx.vertices)
    index = {v: i for i, v in enumerate(cx.vertices)}
    letter = FACE_KIND[assign.face_color[f]]
    x = z = 0
    for slot in cx.faces[f]:
        tail, _ = cx.walk_ends(slot)
        bit = 1 << index[tail]
        if letter in ("X", "Y"):
            x ^= bit
        if letter in ("Z", "Y"):
            z ^= bit
    return PauliOperator(n, x, z)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cosupport_graph(group: StabilizerGroup) -> list:
    """Adjacency bitmasks of the qubits: ``q`` and ``r`` are adjacent when
    some row of ``group`` acts on both."""
    n = group.n
    adj = [0] * n
    for row in group.rows:
        sup = ((row >> n) | row) & ((1 << n) - 1)
        for q in _bits(sup):
            adj[q] |= sup
    return [a & ~(1 << q) for q, a in enumerate(adj)]


def connected_supports(adj, w: int) -> list:
    """All connected w-subsets, as sorted tuples, of the graph in which
    vertex ``v`` has the neighbour bitmask ``adj[v]``.

    Each subset grows from its least vertex through larger first-seen
    vertices, never re-picking an earlier frontier vertex, so it comes out
    once.  The last level adds frontier vertices without a neighbour scan.
    """
    if w == 1:
        return [(v,) for v in range(len(adj))]
    out = []

    def grow(members, frontier, seen):
        if len(members) == w - 1:
            out.extend(tuple(sorted(members + (u,))) for u in _bits(frontier))
            return
        for u in _bits(frontier):
            frontier ^= 1 << u
            new = adj[u] & ~seen
            grow(members + (u,), frontier | new, seen | new)

    for v0, nbrs in enumerate(adj):
        below = (2 << v0) - 1  # v0 and the vertices before it
        grow((v0,), nbrs & ~below, nbrs | below)
    return out


# (x, z) bits of the letters X, Y, Z, in syndrome-table order.
_LETTERS = ((1, 0), (1, 1), (0, 1))
# Syndrome words held per chunk of candidates in the weight search (8 MB).
_CHUNK_WORDS = 1 << 20


def _syndrome_table(group: StabilizerGroup) -> np.ndarray:
    """``syn[q, letter, word]`` as uint64: bit ``i`` of the row-packed words
    is set when X, Y or Z on qubit ``q`` anticommutes with row ``i``."""
    n, rank = group.n, group.rank
    nbytes = -(-n // 8)
    mask = (1 << n) - 1

    def bits(values):
        raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(rank, nbytes)
        return np.unpackbits(rows, axis=1, count=n, bitorder="little")

    gx = bits(r >> n for r in group.rows)
    gz = bits(r & mask for r in group.rows)
    # X meets the rows' Z part, Z their X part, Y either one but not both.
    anti = np.stack([gz, gx ^ gz, gx]).astype(np.uint64)
    words = -(-rank // 64)
    anti = np.pad(anti, ((0, 0), (0, 64 * words - rank), (0, 0)))
    place = np.uint64(1) << np.arange(64, dtype=np.uint64)
    packed = (anti.reshape(3, words, 64, n) * place[:, None]).sum(axis=2)
    return np.ascontiguousarray(packed.transpose(2, 0, 1))


def _weight_hits(syn: np.ndarray, supports: list, w: int):
    """Yield the ``(x, z)`` bitmasks of weight-``w`` Paulis on ``supports``
    that commute with every row behind the syndrome table ``syn``.

    Every qubit of a support carries X, Y or Z (never identity), so each hit
    has weight exactly ``w``.  A lettering commutes with all rows iff the XOR
    of its ``w`` syndrome columns is zero; all 3^w letterings of a chunk of
    supports are tested at once.
    """
    words = syn.shape[2]
    letterings = list(product(_LETTERS, repeat=w))
    per_chunk = max(1, _CHUNK_WORDS // (3**w * max(words, 1)))
    for start in range(0, len(supports), per_chunk):
        chunk = supports[start : start + per_chunk]
        sup = np.array(chunk, dtype=np.intp)
        acc = syn[sup[:, 0]]
        for j in range(1, w):
            # Lettering index grows base 3 with the last qubit fastest,
            # matching the order of ``letterings``.
            acc = (acc[:, :, None, :] ^ syn[sup[:, j]][:, None, :, :]).reshape(
                len(chunk), 3 ** (j + 1), words
            )
        for s, lab in zip(*np.nonzero(~acc.any(axis=2))):
            x = z = 0
            for q, (lx, lz) in zip(chunk[s], letterings[lab]):
                x |= lx << q
                z |= lz << q
            yield x, z


def exact_distance(
    schedule, result: ScheduleResult, *, max_weight: int = 6, max_n: int = _EXACT_MAX_N
) -> int:
    """Minimum weight of a logical operator over the steady phases of ``result``.

    Each phase is searched only on supports connected in its co-support
    graph (qubits adjacent when a row acts on both).  The prune is exact:
    a minimum-weight logical split into parts that no row links would
    leave a lighter part that is itself a logical.  Raises ValueError when
    k = 0 and BoundExceeded past ``max_n`` or ``max_weight``.
    """
    n = result.n
    if n > max_n:
        raise BoundExceeded(
            f"n={n} exceeds the exact-search bound {max_n}; use geometric estimator"
        )
    phases = result.steady_phases
    if all(p.rank == n for p in phases):
        raise ValueError(
            f"k = 0: every steady phase has full rank {n}, so no logical operator exists"
        )
    return _min_logical_weight(phases, max_weight)


def _min_logical_weight(phases, max_weight: int) -> int:
    """The search of :func:`exact_distance` over any stabilizer groups."""
    searches = [(p, _syndrome_table(p), _cosupport_graph(p)) for p in phases]
    for w in range(1, max_weight + 1):
        for phase, syn, adj in searches:
            for hx, hz in _weight_hits(syn, connected_supports(adj, w), w):
                if phase._reduce_vec((hx << phase.n) | hz):
                    return w
    raise BoundExceeded(
        f"no logical operator of weight <= {max_weight}; use geometric estimator"
    )


def _group_elements(group: StabilizerGroup) -> set:
    elems = {0}
    for row in group.rows:
        elems |= {e ^ row for e in elems}
    return elems


def exhaustive_distance(result_or_phases, *, max_n: int = 12) -> int:
    """Distance by sweeping all 4^n Paulis; independent of the search prune."""
    if isinstance(result_or_phases, ScheduleResult):
        phases = result_or_phases.steady_phases
    else:
        phases = tuple(result_or_phases)
    n = phases[0].n
    if any(p.n != n for p in phases):
        raise ValueError("phase qubit counts differ")
    if n > max_n:
        raise ValueError(f"4^{n} sweep refused (bound {max_n})")
    mask = np.uint64((1 << n) - 1)
    shift = np.uint64(n)
    best = None
    chunk = 1 << 20
    for phase in phases:
        members = _group_elements(phase)
        gens = [(np.uint64(r >> n), np.uint64(r & int(mask))) for r in phase.rows]
        for start in range(0, 1 << (2 * n), chunk):
            idx = np.arange(
                start, min(start + chunk, 1 << (2 * n)), dtype=np.uint64
            )
            xs = idx >> shift
            zs = idx & mask
            ok = np.ones(idx.shape, dtype=bool)
            for gx, gz in gens:
                par = (np.bitwise_count(xs & gz) + np.bitwise_count(zs & gx)) & 1
                ok &= par == 0
            wts = np.bitwise_count(xs | zs)
            ok &= wts > 0
            if best is not None:
                ok &= wts < best
            for i in np.nonzero(ok)[0]:
                v = int(idx[i])
                if v not in members:
                    w = int(wts[i])
                    if best is None or w < best:
                        best = w
    if best is None:
        raise ValueError("no logical operators found; is k zero?")
    return best


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

    @property
    def k_n(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def kd2_n(self) -> Fraction:
        return Fraction(self.k * self.d * self.d, self.n)

    @property
    def d_n(self) -> Fraction:
        return Fraction(self.d, self.n)

    def as_json(self) -> dict:
        doc = {
            "signature": list(self.signature),
            "genus": self.genus,
            "orientable": self.orientable,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "d_source": self.d_source,
            "k_n": float(self.k_n),
            "kd2_n": float(self.kd2_n),
            "d_n": float(self.d_n),
        }
        if self.convention is not None:
            doc["convention"] = self.convention
        return doc


def _route(m, genus: int, orientable: bool) -> str | None:
    """'incenter' or 'clip': how :func:`explicit_complex` builds m, else None."""
    p = (4 if orientable else 2) * genus
    ms = tuple(sorted(m))
    if ms == tuple(sorted((4, 2 * p, 2 * p))):
        return "incenter"
    if ms == tuple(sorted((p, 2 * p, 2 * p))):
        return "clip"
    return None


def explicit_complex(m, genus: int, orientable: bool):
    """Build the tessellation when a fundamental-polygon route exists.

    Routes: incenter of {4g,4g} gives [4,8g,8g]; its clipping gives
    [4g,8g,8g]; the non-orientable {2g,2g} analogues give [4,4g,4g] and
    [2g,4g,4g].  Anything else has no explicit construction here.
    """
    route = _route(m, genus, orientable)
    if route is None:
        raise ValueError(
            f"no explicit construction route for {sorted(m)} at genus {genus} "
            f"({'orientable' if orientable else 'non-orientable'})"
        )
    p = (4 if orientable else 2) * genus
    make = incenter_complex if route == "incenter" else clip_complex
    return make(fundamental_polygon(genus, orientable), p, p)


def code_params(
    m,
    genus: int,
    orientable: bool = True,
    d_mode: str = "auto",
) -> CodeParams:
    """Assemble [[n,k,d]] for a signature on a genus-g surface.

    ``d_mode``: "exact" forces the oracle (explicit complex required),
    "geo" forces the estimator, "auto" prefers the oracle when an explicit
    complex exists with n <= 40.  The oracle simulates 9 rounds and searches
    weights up to 6.
    """
    if d_mode not in ("exact", "geo", "auto"):
        raise ValueError(f"unknown d_mode {d_mode!r}")
    sig = SemiRegularSig(m)
    chi = _check_genus(genus, orientable)
    counts = semiregular_counts_direct(
        sig.m, chi, integrality="position" if orientable else "size"
    )
    if counts is None:
        raise ValueError(
            f"{list(sig.m)} admits no integral cell counts at chi={chi}"
        )
    n = counts.n_v
    k = 2 - chi

    def estimate() -> CodeParams:
        est = geodist.estimate_distance(sig.m, genus, orientable)
        return CodeParams(
            tuple(sig.m), genus, orientable, n, k, est.d,
            "geometric-estimate", est.convention_tag,
        )

    def exact() -> CodeParams:
        cx = explicit_complex(sig.m, genus, orientable)
        if len(cx.vertices) != n:
            raise RuntimeError(
                f"explicit complex has {len(cx.vertices)} vertices, counts say {n}"
            )
        # The logical-count guarantee rides on the face colouring; an
        # arbitrary proper edge colouring measurably destroys it (clipped
        # two-face complexes settle at full rank), so only genuine
        # colour-code tilings take the exact route.
        schedule = three_color(cx)
        result = run_schedule(schedule, 9)
        if result.k_inst != k:
            raise RuntimeError(
                f"steady-state logical count {result.k_inst} disagrees with "
                f"the genus rule k={k}"
            )
        d = exact_distance(schedule, result)
        return CodeParams(tuple(sig.m), genus, orientable, n, k, d, "exact")

    if d_mode == "geo":
        return estimate()
    if d_mode == "exact":
        return exact()
    if _route(sig.m, genus, orientable) is None or n > _EXACT_MAX_N:
        return estimate()
    try:
        return exact()
    except (NotColorCodeTiling, BoundExceeded):
        # Not a colour-code tiling, or the search ran out of its bounds.
        return estimate()
