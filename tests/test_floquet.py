"""ISG dynamics: Pauli algebra, measurement updates, distance search."""

import random
from itertools import combinations, product

import pytest

from floqtess import floquet
from floqtess.cli import _schedule_for
from floqtess.coloring import checks_for_round, edge_three_color, three_color
from floqtess.derive import clip_complex, incenter_complex
from floqtess.floquet import (
    BoundExceeded,
    CodeParams,
    PauliOperator,
    ScheduleResult,
    StabilizerGroup,
    _cosupport_graph,
    _measure_step,
    _min_logical_weight,
    _reduce_rows,
    _sympl,
    _syndrome_table,
    _weight_hits,
    check_operator,
    code_params,
    connected_supports,
    exact_distance,
    exhaustive_distance,
    explicit_complex,
    face_stabilizer,
    measure,
    run_schedule,
)
from floqtess.surface import fundamental_polygon
from test_coloring import honeycomb_torus


def reference_measure(isg, check):
    """The per-check update the incremental step replaced: the first
    anticommuting row (highest pivot) absorbs the rest and is replaced by
    the check, the rows are reduced to canonical form on every check, and
    the result is checked for rank and commutativity in O(rank^2)."""
    n = isg.n
    c = (check.x << n) | check.z
    rows = list(isg.rows)
    anti = [i for i, r in enumerate(rows) if _sympl(r, c, n)]
    if anti:
        g = rows[anti[0]]
        for i in anti[1:]:
            rows[i] ^= g
        rows[anti[0]] = c
    else:
        rows.append(c)
    out = StabilizerGroup(n, _reduce_rows(rows, n))
    assert out.rank >= isg.rank, "measurement lowered the rank"
    assert out.is_abelian(), "measurement broke commutativity"
    return out


def reference_run_schedule(schedule, rounds):
    """Per-round groups of the schedule, measured by :func:`reference_measure`."""
    cx = schedule.complex
    n = len(cx.vertices)
    index = {v: i for i, v in enumerate(cx.vertices)}
    group = StabilizerGroup.empty(n)
    groups = []
    for r in range(rounds):
        for ch in checks_for_round(schedule, r):
            group = reference_measure(group, check_operator(ch, index, n))
        groups.append(group)
    return tuple(groups)


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


def rand_pauli(rng, n):
    return PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))


@pytest.fixture(scope="module")
def octagon():
    cx = incenter_complex(fundamental_polygon(2, True), 8, 8)
    assign = three_color(cx)
    return cx, assign, run_schedule(assign, 9)


@pytest.fixture(scope="module")
def genus12():
    # n=96, steady rank 72: the syndrome table needs two 64-bit words.
    cx = incenter_complex(fundamental_polygon(12, True), 48, 48)
    assign = three_color(cx)
    return cx, assign, run_schedule(assign, 9)


@pytest.fixture(scope="module")
def hexagon_no():
    cx = incenter_complex(fundamental_polygon(3, False), 6, 6)
    assign = three_color(cx)
    return cx, assign, run_schedule(assign, 9)


class TestPauliOperator:
    def test_construction(self):
        p = PauliOperator.from_map(6, {0: "X", 3: "Y", 5: "Z"})
        assert p.weight == 3
        assert p.support == (0, 3, 5)
        assert p.to_label() == "XIIYIZ"

    def test_two_body(self):
        p = PauliOperator.two_body(4, "YY", 1, 3)
        assert p.x == 0b1010 and p.z == 0b1010

    def test_identity_weight_zero(self):
        assert PauliOperator.identity(5).weight == 0

    def test_self_inverse(self):
        rng = random.Random(11)
        for _ in range(20):
            p = rand_pauli(rng, 17)
            assert (p * p).weight == 0

    def test_commutation_examples(self):
        x0 = PauliOperator.from_map(2, {0: "X"})
        z0 = PauliOperator.from_map(2, {0: "Z"})
        xx = PauliOperator.two_body(2, "XX", 0, 1)
        zz = PauliOperator.two_body(2, "ZZ", 0, 1)
        assert not x0.commutes(z0)
        assert xx.commutes(zz)

    def test_symplectic_bilinearity(self):
        rng = random.Random(23)
        for n in (3, 17, 64):
            for _ in range(40):
                a, b, c = (rand_pauli(rng, n) for _ in range(3))
                assert (a * b).commutes(c) == (a.commutes(c) == b.commutes(c))

    def test_json_bits(self):
        p = PauliOperator.from_map(3, {1: "Y"})
        assert p.as_json() == {"x": [0, 1, 0], "z": [0, 1, 0]}

    def test_guards(self):
        with pytest.raises(ValueError, match="outside"):
            PauliOperator(2, 4, 0)
        with pytest.raises(ValueError, match="letter"):
            PauliOperator.from_map(2, {0: "W"})
        with pytest.raises(ValueError, match="distinct"):
            PauliOperator.two_body(3, "XX", 1, 1)
        with pytest.raises(ValueError, match="qubit count"):
            PauliOperator.identity(2).commutes(PauliOperator.identity(3))


class TestStabilizerGroup:
    def test_span_invariant_presentation(self):
        xx = PauliOperator.two_body(2, "XX", 0, 1)
        zz = PauliOperator.two_body(2, "ZZ", 0, 1)
        yy = PauliOperator.two_body(2, "YY", 0, 1)
        a = StabilizerGroup.from_paulis(2, [xx, zz])
        b = StabilizerGroup.from_paulis(2, [yy, zz])  # YY = XX*ZZ
        assert a == b
        assert a.rank == 2
        assert a.contains(yy)

    def test_rejects_anticommuting_generators(self):
        x0 = PauliOperator.from_map(1, {0: "X"})
        z0 = PauliOperator.from_map(1, {0: "Z"})
        with pytest.raises(ValueError, match="commute"):
            StabilizerGroup.from_paulis(1, [x0, z0])

    def test_rows_must_be_canonical(self):
        with pytest.raises(ValueError, match="canonical"):
            StabilizerGroup(2, (1, 3))  # row 3 still carries row 1's pivot... no: 3 has pivot 1
        # a genuinely non-reduced pair
        with pytest.raises(ValueError, match="canonical"):
            StabilizerGroup(2, (3, 1, 2))

    def test_contains_only_span(self):
        xx = PauliOperator.two_body(2, "XX", 0, 1)
        g = StabilizerGroup.from_paulis(2, [xx])
        assert g.contains(xx)
        assert not g.contains(PauliOperator.from_map(2, {0: "X"}))

    def test_json_roundtrip_shape(self):
        xx = PauliOperator.two_body(2, "XX", 0, 1)
        doc = StabilizerGroup.from_paulis(2, [xx]).as_json()
        assert doc["n"] == 2
        assert doc["generators"] == [{"x": [1, 1], "z": [0, 0]}]


class TestMeasure:
    def test_new_commuting_check_joins(self):
        g = StabilizerGroup.empty(2)
        xx = PauliOperator.two_body(2, "XX", 0, 1)
        g = measure(g, xx)
        assert g.rank == 1 and g.contains(xx)

    def test_idempotent_on_members(self):
        g = StabilizerGroup.empty(2)
        xx = PauliOperator.two_body(2, "XX", 0, 1)
        g = measure(g, xx)
        assert measure(g, xx) == g

    def test_dependent_commuting_check_no_growth(self):
        xx01 = PauliOperator.two_body(3, "XX", 0, 1)
        xx12 = PauliOperator.two_body(3, "XX", 1, 2)
        xx02 = PauliOperator.two_body(3, "XX", 0, 2)
        g = StabilizerGroup.from_paulis(3, [xx01, xx12])
        assert measure(g, xx02) == g

    def test_anticommuting_row_replaced(self):
        zz = PauliOperator.two_body(2, "ZZ", 0, 1)
        zq = PauliOperator.from_map(2, {0: "Z"})
        g = StabilizerGroup.from_paulis(2, [zq, zz])
        xx = PauliOperator.two_body(2, "XX", 0, 1)
        out = measure(g, xx)
        assert out.rank == 2
        assert out.contains(xx) and out.contains(zz)
        assert not out.contains(zq)

    def test_rank_never_drops_random_walk(self):
        rng = random.Random(5)
        n = 8
        g = StabilizerGroup.empty(n)
        for _ in range(120):
            i, j = rng.sample(range(n), 2)
            p = rng.choice(("XX", "YY", "ZZ"))
            nxt = measure(g, PauliOperator.two_body(n, p, i, j))
            assert nxt.rank >= g.rank
            assert nxt.is_abelian()
            g = nxt

    def test_rejects_wide_checks(self):
        g = StabilizerGroup.empty(3)
        with pytest.raises(ValueError, match="2-qubit"):
            measure(g, PauliOperator.from_map(3, {0: "X", 1: "X", 2: "X"}))

    @pytest.mark.parametrize("n", range(8, 25, 4))
    def test_random_checks_agree_with_reference(self, n):
        # measure() starts from the canonical rows on every call; the running
        # basis stays in echelon form between checks, as in run_schedule.
        rng = random.Random(n)
        ref = StabilizerGroup.empty(n)
        basis = {}
        many_anti = dependent = 0
        for _ in range(12 * n):
            i, j = rng.sample(range(n), 2)
            check = PauliOperator.two_body(n, rng.choice(("XX", "YY", "ZZ")), i, j)
            c = (check.x << n) | check.z
            anti = sum(_sympl(r, c, n) for r in ref.rows)
            nxt = reference_measure(ref, check)
            many_anti += anti >= 3
            dependent += not anti and nxt == ref
            assert measure(ref, check) == nxt
            _measure_step(basis, c, n)
            assert StabilizerGroup(n, _reduce_rows(basis.values(), n)) == nxt
            ref = nxt
        assert many_anti and dependent

    def test_rank_drop_raises(self):
        # X0 and ZZ anticommute, so this is no stabilizer group: dropping X0
        # for ZZ would lose a rank, which the update refuses.
        x0, zz = PauliOperator.from_map(2, {0: "X"}), PauliOperator.two_body(2, "ZZ", 0, 1)
        bad = StabilizerGroup(2, _reduce_rows([(x0.x << 2) | x0.z, (zz.x << 2) | zz.z], 2))
        with pytest.raises(RuntimeError, match="lowered the rank"):
            measure(bad, zz)

    def test_broken_commutativity_raises(self):
        # X2 Z0 and X0 anticommute; XX on qubits 2, 1 commutes with both but
        # reduces against X2 Z0 to X1 Z0, which anticommutes with X0.
        a = PauliOperator.from_map(3, {2: "X", 0: "Z"})
        b = PauliOperator.from_map(3, {0: "X"})
        bad = StabilizerGroup(3, _reduce_rows([(p.x << 3) | p.z for p in (a, b)], 3))
        with pytest.raises(RuntimeError, match="broke commutativity"):
            measure(bad, PauliOperator.two_body(3, "XX", 2, 1))


class TestRunSchedule:
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
        assert all(result.n - p.rank == 4 for p in result.steady_phases)

    def test_needs_six_rounds(self, octagon):
        _, assign, _ = octagon
        with pytest.raises(ValueError, match="6 rounds"):
            run_schedule(assign, 5)

    def test_steady_phases_cycle(self, octagon):
        _, _, result = octagon
        a, b, c = result.steady_phases
        assert len({a, b, c}) == 3
        assert result.groups[result.steady_round] == a

    def test_edge_schedule_loses_logicals(self):
        # An arbitrary proper edge colouring is measurably not the
        # colour-code schedule: the two-face clipped complex settles at
        # full rank.
        cx = clip_complex(fundamental_polygon(3, False), 6, 6)
        result = run_schedule(edge_three_color(cx), 9)
        assert result.k_inst == 0

    def test_json_shape(self, octagon):
        _, _, result = octagon
        doc = result.as_json()
        assert doc["k"] == 4 and doc["steady_round"] == 6
        assert doc["ranks"][:3] == [8, 9, 9]

    @pytest.mark.parametrize("build", schedule_complexes())
    def test_groups_agree_with_reference(self, build):
        schedule, _ = _schedule_for(build())
        result = run_schedule(schedule, 9)
        assert result.groups == reference_run_schedule(schedule, 9)


class TestFaceStabilizers:
    @pytest.mark.parametrize("fix", ["octagon", "hexagon_no"])
    def test_membership_every_phase(self, fix, request):
        cx, assign, result = request.getfixturevalue(fix)
        for phase in result.steady_phases:
            for f in range(len(cx.faces)):
                assert phase.contains(face_stabilizer(assign, f))

    def test_weight_is_face_size(self, octagon):
        cx, assign, _ = octagon
        for f, face in enumerate(cx.faces):
            assert face_stabilizer(assign, f).weight == len(face)

    def test_commutes_with_every_check(self, hexagon_no):
        cx, assign, _ = hexagon_no
        index = {v: i for i, v in enumerate(cx.vertices)}
        ops = [
            PauliOperator.two_body(12, ch.pauli, index[ch.qubits[0]], index[ch.qubits[1]])
            for checks in assign.checks.values()
            for ch in checks
        ]
        for f in range(len(cx.faces)):
            stab = face_stabilizer(assign, f)
            assert all(stab.commutes(op) for op in ops)


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
        group = StabilizerGroup.from_paulis(
            5,
            [
                PauliOperator.from_map(5, {0: "X", 1: "X"}),
                PauliOperator.from_map(5, {2: "Z", 3: "Y"}),
            ],
        )
        assert _cosupport_graph(group) == [0b10, 0b1, 0b1000, 0b100, 0]

    def test_symmetric_without_loops(self, octagon):
        _, _, result = octagon
        for phase in result.steady_phases:
            adj = _cosupport_graph(phase)
            for q, a in enumerate(adj):
                assert not (a >> q) & 1
                assert all((adj[r] >> q) & 1 for r in range(phase.n) if (a >> r) & 1)


class TestConnectedSupports:
    def test_matches_brute_force(self, hexagon_no):
        _, _, result = hexagon_no
        for phase in result.steady_phases:
            adj = _cosupport_graph(phase)
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
            fast = connected_supports(adj, w)
            assert len(set(fast)) == len(fast)
            assert sorted(fast) == [
                s for s in combinations(range(n), w) if is_connected(adj, s)
            ]


class TestKernels:
    @pytest.mark.parametrize("rule", ["subsets", "connected"])
    @pytest.mark.parametrize("fix", ["hexagon_no", "octagon"])
    def test_hits_agree_with_reference(self, fix, rule, request):
        _, _, result = request.getfixturevalue(fix)
        phases = result.steady_phases
        for phase in phases[:1] if rule == "subsets" else phases:
            adj = _cosupport_graph(phase)
            syn = _syndrome_table(phase)
            for w in range(1, 6):
                if rule == "subsets":
                    sups = list(combinations(range(phase.n), w))
                else:
                    sups = connected_supports(adj, w)
                assert sorted(_weight_hits(syn, sups, w)) == sorted(
                    reference_search(*split_rows(phase), sups, w)
                )

    def test_small_chunks_agree_with_reference(self, hexagon_no, monkeypatch):
        _, _, result = hexagon_no
        phase = result.steady_phases[0]
        monkeypatch.setattr(floquet, "_CHUNK_WORDS", 50)
        syn = _syndrome_table(phase)
        for w in range(1, 5):
            sups = list(combinations(range(phase.n), w))
            assert sorted(_weight_hits(syn, sups, w)) == sorted(
                reference_search(*split_rows(phase), sups, w)
            )

    def test_two_syndrome_words_agree_with_reference(self, genus12):
        _, _, result = genus12
        for phase in result.steady_phases:
            syn = _syndrome_table(phase)
            assert (phase.n, phase.rank, syn.shape) == (96, 72, (96, 3, 2))
            for w in (1, 2):
                sups = list(combinations(range(phase.n), w))
                assert sorted(_weight_hits(syn, sups, w)) == sorted(
                    reference_search(*split_rows(phase), sups, w)
                )

    def test_hit_weights(self, octagon):
        _, _, result = octagon
        phase = result.steady_phases[0]
        gx, gz = split_rows(phase)
        sups = list(combinations(range(phase.n), 2))
        hits = list(_weight_hits(_syndrome_table(phase), sups, 2))
        assert hits
        for hx, hz in hits:
            assert (hx | hz).bit_count() == 2
            assert all(
                ((hx & z).bit_count() + (hz & x).bit_count()) % 2 == 0
                for x, z in zip(gx, gz)
            )


def toric_code(L):
    """Generators of the L x L toric code: horizontal edges are qubits
    0..L^2-1 and vertical edges L^2..2L^2-1, both row-major."""
    n = 2 * L * L

    def h(r, c):
        return L * (r % L) + c % L

    def v(r, c):
        return L * L + L * (r % L) + c % L

    gens = []
    for r, c in product(range(L), repeat=2):
        star = (h(r, c), h(r, c - 1), v(r, c), v(r - 1, c))
        plaquette = (h(r, c), h(r + 1, c), v(r, c), v(r, c + 1))
        gens.append(PauliOperator.from_map(n, {q: "X" for q in star}))
        gens.append(PauliOperator.from_map(n, {q: "Z" for q in plaquette}))
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
}


def scrambled_code(labels, seed):
    """The code of ``labels`` with its qubits permuted, X/Y/Z relabelled
    per qubit, and its generators recombined."""
    rng = random.Random(seed)
    n = len(labels[0])
    perm = rng.sample(range(n), n)
    letters = [dict(zip("XYZ", rng.sample("XYZ", 3))) for _ in range(n)]
    gens = [
        PauliOperator.from_map(
            n, {perm[q]: letters[q][a] for q, a in enumerate(label) if a != "I"}
        )
        for label in labels
    ]
    group = StabilizerGroup.from_paulis(n, gens)
    for _ in range(3 * len(gens)):
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = gens[i] * gens[j]
    # The canonical rows, and with them the co-support graph, depend only
    # on the group, not on the generators it was given.
    assert StabilizerGroup.from_paulis(n, gens) == group
    return group


class TestExactDistance:
    def test_octagon(self, octagon):
        _, assign, result = octagon
        assert exact_distance(assign, result) == 2

    def test_hexagon_no_matches_exhaustive(self, hexagon_no):
        _, assign, result = hexagon_no
        assert exact_distance(assign, result) == 2
        assert exhaustive_distance(result) == 2

    def test_edge_schedule_small_instance_agrees(self):
        # k_inst = 1 here, so the search exercises a non-trivial row space.
        cx = clip_complex(fundamental_polygon(2, True), 8, 8)
        sched = edge_three_color(cx)
        result = run_schedule(sched, 9)
        assert result.k_inst == 1
        assert exact_distance(sched, result) == 2
        assert exhaustive_distance(result) == 2

    def test_beyond_one_syndrome_word(self, genus12):
        _, assign, result = genus12
        assert exact_distance(assign, result, max_n=96) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_toric_code(self, seed):
        # The tessellation's edge graph says nothing about these qubits:
        # pruning on it missed every weight-4 logical.
        cx = incenter_complex(fundamental_polygon(4, True), 16, 16)
        sched = three_color(cx)
        gens = toric_code(4)
        perm = list(range(32))
        random.Random(seed).shuffle(perm)
        relabelled = [
            PauliOperator.from_map(
                32, {perm[q]: a for q, a in enumerate(g.to_label()) if a != "I"}
            )
            for g in gens
        ]
        group = StabilizerGroup.from_paulis(32, relabelled)
        assert group.rank == 30
        result = ScheduleResult(32, (30,) * 3, (group,) * 3, 3, 2)
        assert exact_distance(sched, result) == 4

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
                    assert exact_distance(sched, result) == exhaustive_distance(result)
                    checked.append((derive.__name__, orientable, g))
        assert checked == [
            ("clip_complex", True, 2),
            ("clip_complex", True, 3),
            ("incenter_complex", False, 3),
        ]

    @pytest.mark.parametrize("code", sorted(SMALL_CODES))
    def test_scrambled_small_codes_match_exhaustive(self, code):
        labels, d = SMALL_CODES[code]
        for seed in range(8):
            group = scrambled_code(labels, seed)
            assert _min_logical_weight((group,), 6) == exhaustive_distance((group,)) == d

    def test_bound_signal(self, octagon):
        _, assign, result = octagon
        with pytest.raises(BoundExceeded, match="geometric estimator"):
            exact_distance(assign, result, max_n=8)

    def test_no_logicals_in_full_rank_group(self):
        cx = clip_complex(fundamental_polygon(3, False), 6, 6)
        sched = edge_three_color(cx)
        result = run_schedule(sched, 9)
        with pytest.raises(ValueError, match="k = 0") as info:
            exact_distance(sched, result)
        assert not isinstance(info.value, BoundExceeded)
        with pytest.raises(ValueError, match="no logical"):
            exhaustive_distance(result)

    def test_exhaustive_bound(self, octagon):
        _, _, result = octagon
        with pytest.raises(ValueError, match="refused"):
            exhaustive_distance(result)  # n=16 > 12


class TestCodeParams:
    def test_estimated_row(self):
        cp = code_params((6, 6, 8), 2, True)
        assert (cp.n, cp.k, cp.d) == (48, 4, 4)
        assert cp.d_source == "geometric-estimate"
        assert float(cp.k_n) == pytest.approx(0.0833, abs=5e-4)
        assert float(cp.kd2_n) == pytest.approx(1.333, abs=5e-4)

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
        # two-faced clip signature: auto falls back to the estimator
        cp = code_params((6, 12, 12), 3, False)
        assert (cp.n, cp.k, cp.d) == (6, 3, 2)
        assert cp.d_source == "geometric-estimate"

    def test_scaling_example(self):
        cp = code_params((8, 8, 8), 5, True)
        assert (cp.n, cp.k, cp.d) == (64, 10, 4)

    def test_exact_mode_requires_route(self):
        with pytest.raises(ValueError, match="route"):
            code_params((6, 6, 8), 2, True, "exact")

    def test_exact_mode_requires_tiling(self):
        with pytest.raises(ValueError, match="color-code tiling"):
            code_params((6, 12, 12), 3, False, "exact")

    def test_auto_falls_back_only_on_expected_errors(self, monkeypatch):
        def out_of_bounds(*args, **kwargs):
            raise BoundExceeded("search ran out of its bounds")

        def broken(*args, **kwargs):
            raise ValueError("unexpected failure in the exact route")

        monkeypatch.setattr(floquet, "exact_distance", out_of_bounds)
        assert code_params((4, 16, 16), 2, True).d_source == "geometric-estimate"
        monkeypatch.setattr(floquet, "exact_distance", broken)
        with pytest.raises(ValueError, match="unexpected failure"):
            code_params((4, 16, 16), 2, True)

    def test_auto_builds_the_complex_at_most_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return incenter_complex(*args, **kwargs)

        monkeypatch.setattr(floquet, "incenter_complex", counted)
        assert code_params((4, 16, 16), 2, True).d_source == "exact"
        assert len(calls) == 1
        # n = 96 is past the exact bound: no complex is built at all.
        assert code_params((4, 48, 48), 6, True).d_source == "geometric-estimate"
        assert len(calls) == 1

    def test_inadmissible_counts(self):
        with pytest.raises(ValueError, match="integral"):
            code_params((8, 10, 10), 2, True)

    def test_genus_floors(self):
        with pytest.raises(ValueError, match="genus"):
            code_params((6, 6, 8), 1, True)
        with pytest.raises(ValueError, match="genus"):
            code_params((6, 6, 8), 2, False)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="d_mode"):
            code_params((6, 6, 8), 2, True, "both")

    def test_ratio_properties(self):
        cp = CodeParams((6, 6, 8), 3, False, 24, 3, 4, "geometric-estimate")
        assert float(cp.kd2_n) == 2.0
        assert cp.as_json()["kd2_n"] == 2.0

    def test_explicit_route_shapes(self):
        cx = explicit_complex((4, 16, 16), 2, True)
        assert len(cx.vertices) == 16
        cx = explicit_complex((6, 12, 12), 3, False)
        assert len(cx.vertices) == 6
        with pytest.raises(ValueError, match="route"):
            explicit_complex((6, 6, 8), 2, True)
