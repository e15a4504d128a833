"""Face/edge three-colorings and the induced two-body checks."""

import hashlib
import random
import sys
from collections import Counter
from functools import cached_property

import pytest

from floqtess.coloring import (
    COLORS,
    PAULI_OF,
    ROUND_COLOR,
    ColorAssignment,
    EdgeSchedule,
    NotColorCodeTiling,
    edge_three_color,
    three_color,
)
from floqtess.derive import clip_complex, incenter_complex
from floqtess.surface import Edge, SurfaceComplex, SurfaceError, fundamental_polygon


def reference_face_coloring(c: SurfaceComplex) -> list[str] | None:
    """Deterministic backtracking: faces in index order, colors R < G < B.

    The lexicographically least proper face coloring, or None.  Exponential
    in the worst case and recursive, so only for small complexes.
    """
    adj: list[set[int]] = [set() for _ in c.faces]
    for f1, f2 in c.flag_map().edge_faces.values():
        if f1 == f2:
            return None
        adj[f1].add(f2)
        adj[f2].add(f1)

    colors: list[str | None] = [None] * len(c.faces)

    def extend(i: int) -> bool:
        if i == len(colors):
            return True
        taken = {colors[j] for j in adj[i] if colors[j] is not None}
        for color in COLORS:
            if color not in taken:
                colors[i] = color
                if extend(i + 1):
                    return True
                colors[i] = None
        return False

    return colors if extend(0) else None


def reference_edge_coloring(c: SurfaceComplex) -> dict[str, str]:
    """Recursive backtracking: edges in ``c.edges`` order, colors R < G < B.

    The lexicographically least proper edge coloring.  It takes one stack
    frame per edge, so the recursion limit is raised while it runs.
    """
    order = [e.id for e in c.edges]
    incident: dict = {v: [] for v in c.vertices}
    for e in c.edges:
        for v in set(e.ends):
            incident[v].append(e.id)
    color_of: dict = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        eid = order[i]
        ends = c.edge_by_id(eid).ends
        taken = {
            color_of[other]
            for v in set(ends)
            for other in incident[v]
            if other in color_of
        }
        for color in COLORS:
            if color not in taken:
                color_of[eid] = color
                if extend(i + 1):
                    return True
                del color_of[eid]
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(order))
    try:
        assert extend(0), "edges do not split into three perfect matchings"
    finally:
        sys.setrecursionlimit(limit)
    return {eid: color_of[eid] for eid in order}


def honeycomb_torus(L: int) -> SurfaceComplex:
    """L x L honeycomb on the torus: L^2 hexagons, 2L^2 vertices, 3L^2 edges.

    Vertices u(x,y), w(x,y); edges a: u(x,y)-w(x,y), b: w(x,y)-u(x+1,y),
    c: w(x,y)-u(x,y+1), indices mod L.  Face (x,y) neighbours the faces at
    offsets (0,+-1), (+-1,0), (1,-1) and (-1,1), a triangular lattice, so
    the faces are 3-colorable exactly when 3 divides L.  At L = 2 the face
    graph is K4: tri-valent, even-faced and without self-adjacency, yet not
    3-colorable.
    """
    def u(x, y):
        return f"u{x % L}_{y % L}"

    def w(x, y):
        return f"w{x % L}_{y % L}"

    def edge(kind, x, y):
        return f"{kind}{x % L}_{y % L}"

    cells = [(x, y) for x in range(L) for y in range(L)]
    edges = []
    for x, y in cells:
        edges.append((edge("a", x, y), (u(x, y), w(x, y))))
        edges.append((edge("b", x, y), (w(x, y), u(x + 1, y))))
        edges.append((edge("c", x, y), (w(x, y), u(x, y + 1))))
    faces = [
        (
            (edge("b", x, y), 1),
            (edge("a", x + 1, y), 1),
            (edge("c", x + 1, y), 1),
            (edge("b", x, y + 1), -1),
            (edge("a", x, y + 1), -1),
            (edge("c", x, y), -1),
        )
        for x, y in cells
    ]
    vertices = [f(x, y) for f in (u, w) for x, y in cells]
    return SurfaceComplex(
        orientable=True, genus=1, vertices=vertices, edges=edges, faces=faces
    )


def petersen_projective_plane() -> SurfaceComplex:
    """The Petersen graph on the projective plane (the hemi-dodecahedron).

    Tri-valent and loop-free with six pentagons, but its edges do not split
    into three perfect matchings.
    """
    ends = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    pentagons = [
        ((9, -1), (3, -1), (8, 1), (11, -1), (14, -1)),
        ((12, 1), (14, 1), (6, -1), (1, 1), (7, 1)),
        ((10, -1), (5, -1), (4, -1), (9, 1), (12, -1)),
        ((1, 1), (2, 1), (3, 1), (4, 1), (0, 1)),
        ((0, -1), (5, 1), (13, -1), (11, -1), (6, -1)),
        ((8, 1), (13, 1), (10, 1), (7, -1), (2, 1)),
    ]
    return SurfaceComplex(
        orientable=False,
        genus=1,
        vertices=list(range(10)),
        edges=[(f"e{k}", e) for k, e in enumerate(ends)],
        faces=[tuple((f"e{k}", d) for k, d in face) for face in pentagons],
    )


def dumbbell_sphere() -> SurfaceComplex:
    """Two loops joined by an edge on the sphere: tri-valent, with loops."""
    return SurfaceComplex(
        orientable=True,
        genus=0,
        vertices=["u", "w"],
        edges=[("a", ("u", "u")), ("b", ("u", "w")), ("c", ("w", "w"))],
        faces=[(("a", 1),), (("c", 1),), (("a", -1), ("b", 1), ("c", -1), ("b", -1))],
    )


def clip(g: int, orientable: bool) -> SurfaceComplex:
    """The clipped fundamental polygon of genus g, {p,p} with p = 4g or 2g."""
    p = (4 if orientable else 2) * g
    return clip_complex(fundamental_polygon(g, orientable), p, p)


def with_shuffled_edges(c: SurfaceComplex, seed: int) -> SurfaceComplex:
    """The same complex with its ``edges`` list in a seeded random order."""
    edges = list(c.edges)
    random.Random(seed).shuffle(edges)
    return SurfaceComplex(
        orientable=c.orientable, genus=c.genus, vertices=c.vertices,
        edges=edges, faces=c.faces,
    )


def edge_coloring_digest(c: SurfaceComplex, edge_color) -> str:
    """sha256 of ``repr([(e.id, edge_color[e.id]) for e in c.edges])``."""
    pairs = [(e.id, edge_color[e.id]) for e in c.edges]
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def derived_complexes():
    """Every incenter and clip complex, orientable g=2..12, non-orientable g=3..12."""
    for orientable, genera in ((True, range(2, 13)), (False, range(3, 13))):
        for g in genera:
            for derive in (incenter_complex, clip_complex):
                yield pytest.param(
                    orientable, g, derive,
                    id=f"{derive.__name__}-{'o' if orientable else 'n'}{g}",
                )


@pytest.fixture(scope="module")
def octagon_incenter():
    return incenter_complex(fundamental_polygon(2, True), 8, 8)


class TestIsColorCodeTiling:
    """The tiling verdict: three_color raises NotColorCodeTiling with the reason."""

    def test_incenter_octagon_accepted(self, octagon_incenter):
        assert isinstance(three_color(octagon_incenter), ColorAssignment)

    def test_fundamental_polygon_rejected_on_degree(self):
        with pytest.raises(NotColorCodeTiling, match="degree 8"):
            three_color(fundamental_polygon(2, True))

    def test_clipped_polygon_rejected_on_self_adjacency(self):
        clip = clip_complex(fundamental_polygon(3, False), 6, 6)
        with pytest.raises(NotColorCodeTiling, match="adjacent to itself"):
            three_color(clip)

    def test_unused_edge_rejected_at_construction(self):
        """An edge that no face slot uses never reaches the colourers: the
        complex that declares it is an open surface."""
        base = incenter_complex(fundamental_polygon(3, False), 6, 6)
        v1, v2 = base.vertices[:2]
        with pytest.raises(SurfaceError) as info:
            SurfaceComplex(
                orientable=False,
                genus=4,
                vertices=base.vertices,
                edges=base.edges + (Edge("x", (v1, v2)),),
                faces=base.faces,
            )
        assert str(info.value) == "open surface: edge 'x' appears in 0 face slot(s), need 2"

    def test_k4_face_graph_rejected_by_search(self):
        with pytest.raises(NotColorCodeTiling, match="no proper 3-coloring"):
            three_color(honeycomb_torus(2))


class TestAgainstReference:
    @pytest.mark.parametrize("orientable,g,derive", derived_complexes())
    def test_derived_complexes(self, orientable, g, derive):
        p = (4 if orientable else 2) * g
        cx = derive(fundamental_polygon(g, orientable), p, p)
        expect = reference_face_coloring(cx)
        if expect is None:
            with pytest.raises(NotColorCodeTiling):
                three_color(cx)
        else:
            assert three_color(cx).face_color == tuple(expect)

    @pytest.mark.parametrize("L", range(2, 13))
    def test_honeycomb_tori(self, L):
        cx = honeycomb_torus(L)
        expect = reference_face_coloring(cx)
        assert (expect is not None) == (L % 3 == 0)
        if expect is None:
            with pytest.raises(NotColorCodeTiling, match="no proper 3-coloring"):
                three_color(cx)
        else:
            assert three_color(cx).face_color == tuple(expect)

    def test_past_the_recursion_limit(self):
        cx = honeycomb_torus(36)
        assign = three_color(cx)
        assert len(cx.faces) == 1296
        assert Counter(assign.face_color) == {"R": 432, "G": 432, "B": 432}

    @pytest.mark.parametrize(
        "orientable,g",
        [(True, g) for g in range(2, 10)] + [(False, g) for g in range(3, 13)],
        ids=lambda v: str(v),
    )
    def test_edge_coloring_clip_complexes(self, orientable, g):
        cx = clip(g, orientable)
        assert edge_three_color(cx).edge_color == reference_edge_coloring(cx)

    # reference_edge_coloring is too slow here.  The digests were made once
    # by edge_coloring_digest from the output of edge_three_color as a plain
    # backtrack in edge order, before it propagated forced colors; that
    # search returns the same lexicographically least coloring and took
    # about 0.3 / 1.2 / 5 s on these complexes.
    @pytest.mark.parametrize("g,digest", [
        (10, "89f096bb526d6f2d2c33060e7cb6462e1bd5023a1a2dcc02737dc442d56d4c46"),
        (11, "bd64b3a6f280d27cbb26f225edba32cc8e029c3dc2e7b6ab72116f4459b266b7"),
        (12, "3613e2e3ebbdfb3cb8961b3d23d93ddaa574965cdc3c56c4ddcb3be137127233"),
    ], ids=["o10", "o11", "o12"])
    def test_edge_coloring_pinned_past_reference_reach(self, g, digest):
        cx = clip(g, True)
        assert edge_coloring_digest(cx, edge_three_color(cx).edge_color) == digest

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "make",
        [pytest.param(lambda g=g: clip(g, True), id=f"clip-o{g}") for g in range(2, 5)]
        + [pytest.param(lambda g=g: clip(g, False), id=f"clip-n{g}") for g in range(3, 9)]
        + [pytest.param(lambda L=L: honeycomb_torus(L), id=f"honeycomb-{L}") for L in (2, 3)],
    )
    def test_edge_coloring_shuffled_edge_orders(self, make, seed):
        # Canonical edge orders rarely backtrack; shuffled ones do, and
        # exercise undoing a choice together with the colors it forced.
        cx = with_shuffled_edges(make(), seed)
        assert edge_three_color(cx).edge_color == reference_edge_coloring(cx)

    @pytest.mark.parametrize("L", range(2, 19))
    def test_edge_coloring_honeycomb_tori(self, L):
        cx = honeycomb_torus(L)
        assert edge_three_color(cx).edge_color == reference_edge_coloring(cx)


class TestThreeColor:
    def test_class_coloring_on_incenter(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        # Faces are listed 2p-gons, 2q-gons, quadrilaterals; the classes pick
        # up R, G, B respectively, so class sizes are (F, V, E) = (1, 1, 4).
        assert assign.face_color == ("R", "G", "B", "B", "B", "B")
        assert Counter(assign.face_color) == {"R": 1, "G": 1, "B": 4}

    def test_lowest_index_face_is_red(self, octagon_incenter):
        assert three_color(octagon_incenter).face_color[0] == "R"

    def test_deterministic(self, octagon_incenter):
        a = three_color(octagon_incenter)
        b = three_color(octagon_incenter)
        assert a == b
        assert a.face_color == b.face_color
        assert a.edge_color == b.edge_color
        assert a.checks == b.checks

    def test_checks_partition_edges(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        total = sum(len(v) for v in assign.checks.values())
        assert total == len(octagon_incenter.edges)
        pairs = [frozenset(pair) for v in assign.checks.values() for pair in v]
        assert len(pairs) == len(set(pairs)) == 24

    def test_each_vertex_in_three_checks_one_per_color(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        by_vertex = {}
        for color, checks in assign.checks.items():
            for pair in checks:
                for qubit in pair:
                    by_vertex.setdefault(qubit, []).append(color)
        for colors in by_vertex.values():
            assert sorted(colors) == ["B", "G", "R"]

    def test_edge_coloring_proper(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        at_vertex = {}
        for e in octagon_incenter.edges:
            for v in e.ends:
                at_vertex.setdefault(v, []).append(assign.edge_color[e.id])
        for colors in at_vertex.values():
            assert sorted(colors) == ["B", "G", "R"]

    def test_face_boundary_alternates_other_colors(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        for f, face in enumerate(octagon_incenter.faces):
            own = assign.face_color[f]
            boundary = [assign.edge_color[eid] for eid, _ in face]
            assert own not in boundary
            for k in range(len(boundary)):
                assert boundary[k] != boundary[(k + 1) % len(boundary)]

    def test_pauli_binding(self, octagon_incenter):
        docs = three_color(octagon_incenter).checks_json()
        assert {(d["color"], d["pauli"]) for d in docs} == {
            ("G", "XX"), ("B", "YY"), ("R", "ZZ")
        }

    def test_rejects_uncolorable_with_diagnostic(self):
        with pytest.raises(NotColorCodeTiling, match="not a color-code tiling.*degree"):
            three_color(fundamental_polygon(2, True))
        with pytest.raises(NotColorCodeTiling, match="no proper 3-coloring"):
            three_color(honeycomb_torus(2))

    def test_nonorientable_instance(self):
        inc = incenter_complex(fundamental_polygon(3, False), 6, 6)
        assign = three_color(inc)
        assert Counter(assign.face_color) == {"R": 1, "G": 1, "B": 3}
        assert sum(len(v) for v in assign.checks.values()) == 18


class TestChecksForRound:
    def test_round_cycle(self):
        assert ROUND_COLOR == ("G", "B", "R")
        assert [PAULI_OF[color] for color in ROUND_COLOR] == ["XX", "YY", "ZZ"]

    def test_union_of_one_period_is_all_edges(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        seen = set()
        for color in ROUND_COLOR:
            for pair in assign.checks[color]:
                seen.add(frozenset(pair))
        assert len(seen) == len(octagon_incenter.edges)


class TestEdgeSchedule:
    def test_clipped_hexagon_edge_colorable(self):
        clip = clip_complex(fundamental_polygon(3, False), 6, 6)
        sched = edge_three_color(clip)
        assert Counter(sched.edge_color.values()) == {"R": 3, "G": 3, "B": 3}
        at_vertex = {}
        for e in clip.edges:
            for v in e.ends:
                at_vertex.setdefault(v, []).append(sched.edge_color[e.id])
        for colors in at_vertex.values():
            assert sorted(colors) == ["B", "G", "R"]

    def test_k4_torus_edge_colorable_despite_face_failure(self):
        sched = edge_three_color(honeycomb_torus(2))
        assert Counter(sched.edge_color.values()) == {"R": 4, "G": 4, "B": 4}

    def test_deterministic(self):
        clip = clip_complex(fundamental_polygon(3, False), 6, 6)
        assert edge_three_color(clip).edge_color == edge_three_color(clip).edge_color

    def test_rejects_non_trivalent(self):
        with pytest.raises(ValueError, match="degree"):
            edge_three_color(fundamental_polygon(2, True))

    def test_rejects_graph_without_three_matchings(self):
        with pytest.raises(ValueError, match="do not split into three perfect matchings"):
            edge_three_color(petersen_projective_plane())

    @pytest.mark.parametrize("L", [19, 36])
    def test_edge_coloring_past_the_recursion_limit(self, L):
        # 1083 and 3888 edges: one stack frame per edge would overflow.
        cx = honeycomb_torus(L)
        sched = edge_three_color(cx)
        assert isinstance(sched, EdgeSchedule)
        assert Counter(sched.edge_color.values()) == {c: L * L for c in COLORS}

    @pytest.mark.parametrize(
        "g,orientable", [(16, True), (24, True), (32, True), (48, False)]
    )
    def test_large_genus_clip_complexes(self, g, orientable):
        cx = clip(g, orientable)
        sched = edge_three_color(cx)
        at_vertex = {}
        for e in cx.edges:
            for v in e.ends:
                at_vertex.setdefault(v, []).append(sched.edge_color[e.id])
        assert all(sorted(colors) == ["B", "G", "R"] for colors in at_vertex.values())
        third = len(cx.edges) // 3
        assert Counter(sched.edge_color.values()) == {c: third for c in COLORS}

    def test_checks_derived_from_edge_colors(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        sched = EdgeSchedule(complex=octagon_incenter, edge_color=assign.edge_color)
        assert sched.checks == assign.checks
        assert sched.checks_json() == assign.checks_json()
        for color in COLORS:
            assert sched.checks[color] == tuple(
                e.ends for e in octagon_incenter.edges if assign.edge_color[e.id] == color
            )

    def test_equality_reads_the_colouring(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        shift = dict(zip(COLORS, COLORS[1:] + COLORS[:1]))
        same = EdgeSchedule(complex=octagon_incenter, edge_color=dict(assign.edge_color))
        permuted = EdgeSchedule(
            complex=octagon_incenter,
            edge_color={eid: shift[c] for eid, c in assign.edge_color.items()},
        )
        base = EdgeSchedule(complex=octagon_incenter, edge_color=assign.edge_color)
        assert permuted.checks != base.checks
        assert permuted != base
        assert same == base and hash(same) == hash(base)

    def test_rejects_loops(self):
        cx = dumbbell_sphere()
        with pytest.raises(ValueError, match="edge 'a' is a loop"):
            EdgeSchedule(complex=cx, edge_color={"a": "R", "b": "G", "c": "B"})
        with pytest.raises(NotColorCodeTiling, match="edge 'a' is a loop"):
            three_color(cx)
        with pytest.raises(ValueError, match="edge 'a' is a loop"):
            edge_three_color(cx)

    def test_rejects_improper_edge_coloring(self, octagon_incenter):
        edge_color = {e.id: "R" for e in octagon_incenter.edges}
        with pytest.raises(ValueError, match="two R edges meet"):
            EdgeSchedule(complex=octagon_incenter, edge_color=edge_color)

    def test_rejects_unknown_edge_color(self, octagon_incenter):
        edge_color = {e.id: "R" for e in octagon_incenter.edges}
        edge_color[octagon_incenter.edges[0].id] = "X"
        with pytest.raises(ValueError, match="has unknown color 'X'"):
            EdgeSchedule(complex=octagon_incenter, edge_color=edge_color)

    def test_names_the_vertex_where_a_color_repeats(self, octagon_incenter):
        # The last edge, s2.3.1 (R), takes the G of s0.0.3, which meets it
        # at its first end: the scan in edge order stops there.
        edge_color = dict(three_color(octagon_incenter).edge_color)
        assert octagon_incenter.edges[-1] == ("s2.3.1", ("f0.3.1", "f0.7.0"))
        assert (edge_color["s2.3.1"], edge_color["s0.0.3"]) == ("R", "G")
        edge_color["s2.3.1"] = "G"
        with pytest.raises(ValueError) as info:
            EdgeSchedule(complex=octagon_incenter, edge_color=edge_color)
        assert str(info.value) == "two G edges meet at vertex 'f0.3.1'"

    def test_names_the_first_fault_in_edge_order(self, octagon_incenter):
        # The scan meets faults in edge order: an unknown colour on the
        # first edge is named before a repeat at the last edge (24th), and
        # a repeat at the 16th edge, s1.0.7 (B made G), before an unknown
        # colour on the last edge.
        proper = three_color(octagon_incenter).edge_color
        assert [e.id for e in octagon_incenter.edges].index("s1.0.7") == 15
        cases = [
            ({"s0.0.0": "X", "s2.3.1": "G"}, "edge 's0.0.0' has unknown color 'X'"),
            ({"s1.0.7": "G", "s2.3.1": "X"}, "two G edges meet at vertex 'f0.7.1'"),
        ]
        for faults, message in cases:
            with pytest.raises(ValueError) as info:
                EdgeSchedule(complex=octagon_incenter, edge_color={**proper, **faults})
            assert str(info.value) == message

    @staticmethod
    def clip_o2_colouring():
        cx = clip_complex(fundamental_polygon(2, True), 8, 8)
        return cx, dict(edge_three_color(cx).edge_color)

    def test_names_the_first_uncolored_edge(self):
        # A colouring without edge A0 (the first edge) is named, not left to
        # a KeyError; so is the first of two missing edges in edge order,
        # before an improper colour on another edge.
        cx, proper = self.clip_o2_colouring()
        assert [e.id for e in cx.edges][:2] == ["A0", "A1"]
        without_a0 = {eid: c for eid, c in proper.items() if eid != "A0"}
        improper = {eid: "R" for eid in proper if eid not in ("A0", "A1")}
        for edge_color in (without_a0, improper, {**without_a0, "bogus": "R"}):
            with pytest.raises(ValueError) as info:
                EdgeSchedule(complex=cx, edge_color=edge_color)
            assert str(info.value) == "edge 'A0' has no color"

    def test_names_a_colored_id_that_is_not_an_edge(self):
        # An extra id made the schedule compare unequal to the proper one;
        # it is refused before the properness scan.
        cx, proper = self.clip_o2_colouring()
        cases = [{**proper, "bogus": "R"}, {**proper, "bogus": "R", "A0": "X"}]
        for edge_color in cases:
            with pytest.raises(ValueError) as info:
                EdgeSchedule(complex=cx, edge_color=edge_color)
            assert str(info.value) == "colored id 'bogus' is not an edge of the complex"
        assert EdgeSchedule(complex=cx, edge_color=proper) == edge_three_color(cx)


class TestTrivalenceFault:
    """Both colourings and EdgeSchedule name the first trivalence fault in
    one wording, found once per complex."""

    def test_messages(self):
        cx = fundamental_polygon(2, True)
        with pytest.raises(NotColorCodeTiling) as info:
            three_color(cx)
        assert str(info.value) == "not a color-code tiling: vertex 0 has degree 8, need 3"
        for make in (edge_three_color, lambda c: EdgeSchedule(complex=c, edge_color={})):
            with pytest.raises(ValueError) as info:
                make(cx)
            assert type(info.value) is ValueError
            assert str(info.value) == "vertex 0 has degree 8, need 3"
        assert dumbbell_sphere().trivalence_fault == "edge 'a' is a loop"
        assert incenter_complex(cx, 8, 8).trivalence_fault is None

    def test_found_once_per_complex(self, monkeypatch):
        # The clip path reads it three times: the three_color rejection,
        # edge_three_color and the EdgeSchedule that returns.
        calls = []
        find = SurfaceComplex.trivalence_fault.func

        def counting(c):
            calls.append(c)
            return find(c)

        prop = cached_property(counting)
        prop.__set_name__(SurfaceComplex, "trivalence_fault")
        monkeypatch.setattr(SurfaceComplex, "trivalence_fault", prop)
        clip = clip_complex(fundamental_polygon(3, True), 12, 12)
        with pytest.raises(NotColorCodeTiling):
            three_color(clip)
        edge_three_color(clip)
        assert calls == [clip]
        incenter = incenter_complex(fundamental_polygon(3, True), 12, 12)
        three_color(incenter)
        assert calls == [clip, incenter]


class TestColorAssignment:
    def test_rejects_equal_colors_across_an_edge(self, octagon_incenter):
        with pytest.raises(ValueError, match="share edge"):
            ColorAssignment(
                complex=octagon_incenter,
                face_color=("R",) * len(octagon_incenter.faces),
            )

    @pytest.mark.parametrize(
        "genus,orientable",
        [(g, True) for g in range(2, 13)] + [(g, False) for g in range(3, 13)],
    )
    def test_induced_edge_colors_are_proper(self, genus, orientable):
        # ColorAssignment skips the per-vertex scan, which its docstring
        # proves cannot fail; rerun that scan on its edge colors here.
        p = (4 if orientable else 2) * genus
        assign = three_color(incenter_complex(fundamental_polygon(genus, orientable), p, p))
        sched = EdgeSchedule(complex=assign.complex, edge_color=assign.edge_color)
        assert sched.checks == assign.checks

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda g=g, o=o: incenter_complex(
                    fundamental_polygon(g, o), (4 if o else 2) * g, (4 if o else 2) * g
                ),
                id=f"incenter-{'o' if o else 'n'}{g}",
            )
            for o, genera in ((True, range(2, 13)), (False, range(3, 13)))
            for g in genera
        ]
        + [pytest.param(lambda L=L: honeycomb_torus(L), id=f"honeycomb-{L}") for L in (3, 6, 9)],
    )
    def test_edge_takes_the_color_absent_from_its_faces(self, build):
        assign = three_color(build())
        edge_faces = assign.complex.flag_map().edge_faces
        assert set(assign.edge_color) == set(edge_faces)
        for eid, (f1, f2) in edge_faces.items():
            (absent,) = set(COLORS) - {assign.face_color[f1], assign.face_color[f2]}
            assert assign.edge_color[eid] == absent


class TestJsonExport:
    def test_schema(self, octagon_incenter):
        docs = three_color(octagon_incenter).checks_json()
        assert len(docs) == 24
        assert all(list(d) == ["color", "pauli", "qubits"] for d in docs)
        assert all(d["pauli"] == PAULI_OF[d["color"]] for d in docs)
        ends = {tuple(e.ends) for e in octagon_incenter.edges}
        assert sorted(tuple(d["qubits"]) for d in docs) == sorted(ends)
        assert all(isinstance(d["qubits"], list) for d in docs)
        # Grouped green, blue, red.
        assert [d["pauli"] for d in docs] == ["XX"] * 8 + ["YY"] * 8 + ["ZZ"] * 8
