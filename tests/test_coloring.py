"""Face/edge three-colorings and the induced two-body checks."""

import hashlib
import random
import sys
from collections import Counter

import pytest

from floqtess.coloring import (
    COLORS,
    Check,
    ColorAssignment,
    EdgeSchedule,
    NotColorCodeTiling,
    checks_for_round,
    edge_three_color,
    three_color,
)
from floqtess.derive import clip_complex, incenter_complex
from floqtess.surface import SurfaceComplex, fundamental_polygon


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
        pairs = [frozenset(ch.qubits) for v in assign.checks.values() for ch in v]
        assert len(pairs) == len(set(pairs)) == 24

    def test_each_vertex_in_three_checks_one_per_color(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        by_vertex = {}
        for color, checks in assign.checks.items():
            for ch in checks:
                for qubit in ch.qubits:
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
        assign = three_color(octagon_incenter)
        for color, pauli in (("G", "XX"), ("B", "YY"), ("R", "ZZ")):
            assert {ch.pauli for ch in assign.checks[color]} == {pauli}

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
    def test_round_cycle(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        assert {ch.pauli for ch in checks_for_round(assign, 0)} == {"XX"}
        assert {ch.pauli for ch in checks_for_round(assign, 4)} == {"YY"}
        assert {ch.pauli for ch in checks_for_round(assign, 2)} == {"ZZ"}
        assert checks_for_round(assign, 0) == checks_for_round(assign, 3)

    def test_union_of_one_period_is_all_edges(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        seen = set()
        for r in range(3):
            for ch in checks_for_round(assign, r):
                seen.add(frozenset(ch.qubits))
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

    def test_rejects_improper_edge_coloring(self, octagon_incenter):
        edge_color = {e.id: "R" for e in octagon_incenter.edges}
        with pytest.raises(ValueError, match="two R edges meet"):
            EdgeSchedule(complex=octagon_incenter, edge_color=edge_color)


class TestColorAssignment:
    def test_rejects_equal_colors_across_an_edge(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        with pytest.raises(ValueError, match="share edge"):
            ColorAssignment(
                complex=octagon_incenter,
                edge_color=assign.edge_color,
                face_color=("R",) * len(octagon_incenter.faces),
            )

    def test_rejects_edge_color_not_absent_from_faces(self, octagon_incenter):
        assign = three_color(octagon_incenter)
        # Swapping two classes everywhere keeps the edge coloring proper but
        # no longer matches the face colors.
        swap = {"R": "G", "G": "R", "B": "B"}
        edge_color = {eid: swap[col] for eid, col in assign.edge_color.items()}
        with pytest.raises(ValueError, match="absent from its faces"):
            ColorAssignment(
                complex=octagon_incenter,
                edge_color=edge_color,
                face_color=assign.face_color,
            )


class TestCheckType:
    def test_pauli_must_match_color(self):
        with pytest.raises(ValueError, match="carries"):
            Check("G", "ZZ", ("a", "b"))

    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="distinct"):
            Check("G", "XX", ("a", "a"))

    def test_json_shape(self):
        assert Check("R", "ZZ", (3, 7)).as_json() == {
            "color": "R",
            "pauli": "ZZ",
            "qubits": [3, 7],
        }


class TestJsonExport:
    def test_schema(self, octagon_incenter):
        docs = three_color(octagon_incenter).checks_json()
        assert len(docs) == 24
        assert all(set(d) == {"color", "pauli", "qubits"} for d in docs)
        # Grouped green, blue, red.
        assert [d["pauli"] for d in docs] == ["XX"] * 8 + ["YY"] * 8 + ["ZZ"] * 8
