"""The package's seven immutable records: construction by position and by
keyword, every constructor check with its message, assignment and deletion
refused, and equality and hash over exactly the fields each record
compares or hashes."""

import pytest

from floqtess.coloring import ColorAssignment, EdgeSchedule, edge_three_color, three_color
from floqtess.derive import DerivedCounts, polygon_complex
from floqtess.floquet import ScheduleResult, run_schedule
from floqtess.hypgeo import RegularSig, SemiRegularSig
from floqtess.surface import SurfaceComplex, SurfaceError, fundamental_polygon

POLYGON = fundamental_polygon(2, True)
INCENTER = polygon_complex("incenter", 2, True)
CLIP = polygon_complex("clip", 2, True)
EDGE_COLOR = dict(edge_three_color(CLIP).edge_color)
FACE_COLOR = three_color(INCENTER).face_color
SIG = SemiRegularSig((6, 6, 8))
RESULT = run_schedule(three_color(INCENTER), 9)


def polygon_fields():
    return (True, 2, POLYGON.vertices, POLYGON.edges, POLYGON.faces)


# Per record: its field names in constructor order and the values of one
# valid instance.
RECORDS = {
    RegularSig: (("p", "q"), (7, 3)),
    SemiRegularSig: (("m",), ((6, 6, 8),)),
    SurfaceComplex: (("orientable", "genus", "vertices", "edges", "faces"), polygon_fields()),
    DerivedCounts: (("n_f", "n_e", "n_v", "signature"), (6, 24, 16, SIG)),
    EdgeSchedule: (("complex", "edge_color"), (CLIP, EDGE_COLOR)),
    ColorAssignment: (("complex", "face_color"), (INCENTER, FACE_COLOR)),
    ScheduleResult: (
        ("n", "ranks", "phase_bases", "steady_round", "k_inst"),
        (RESULT.n, RESULT.ranks, RESULT.phase_bases, RESULT.steady_round, RESULT.k_inst),
    ),
}

# Per record compared by value: the fields its hash covers.  Equality
# covers the same fields, but for EdgeSchedule's, which adds edge_color.
HASHED = {
    RegularSig: ("p", "q"),
    SemiRegularSig: ("m",),
    SurfaceComplex: RECORDS[SurfaceComplex][0],
    DerivedCounts: RECORDS[DerivedCounts][0],
    EdgeSchedule: ("complex",),
    ColorAssignment: ("complex", "face_color"),
}

IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_built_by_position_and_by_keyword(cls):
    names, values = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in names] == list(values)
    if cls in HASHED:
        assert by_position == by_keyword


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@pytest.mark.parametrize("name", ["field", "new"])
def test_assignment_and_deletion_raise(cls, name):
    names, values = RECORDS[cls]
    record = cls(*values)
    attr = names[0] if name == "field" else "other"
    with pytest.raises(AttributeError):
        setattr(record, attr, values[0])
    with pytest.raises(AttributeError):
        delattr(record, attr)
    assert getattr(record, names[0]) is values[0]


@pytest.mark.parametrize("cls", HASHED, ids=[cls.__name__ for cls in HASHED])
def test_equal_records_hash_their_fields(cls):
    _, values = RECORDS[cls]
    record, twin = cls(*values), cls(*values)
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(getattr(record, f) for f in HASHED[cls]))
    assert record != tuple(values) and record != object()


def test_signatures_differ_on_any_field():
    assert RegularSig(7, 3) != RegularSig(3, 7)
    assert RegularSig(7, 3) != RegularSig(7, 4)
    assert SemiRegularSig((6, 6, 8)) != SemiRegularSig((6, 8, 6))
    # A list is stored as its tuple, so both compare and hash alike.
    listed = SemiRegularSig([6, 6, 8])
    assert listed.m == (6, 6, 8) and listed == SIG and hash(listed) == hash(SIG)


def test_value_records_print_their_fields():
    assert repr(RegularSig(7, 3)) == "RegularSig(p=7, q=3)"
    assert repr(SIG) == "SemiRegularSig(m=(6, 6, 8))"
    assert repr(DerivedCounts(6, 24, 16, SIG)) == (
        "DerivedCounts(n_f=6, n_e=24, n_v=16, signature=SemiRegularSig(m=(6, 6, 8)))"
    )
    head = f"SurfaceComplex(orientable=True, genus=2, vertices={POLYGON.vertices!r}, edges="
    assert repr(POLYGON).startswith(head)


def test_complex_compares_every_field():
    names, values = RECORDS[SurfaceComplex]
    base = SurfaceComplex(*values)
    # Lists are stored as tuples and (id, ends) pairs as Edge records.
    listed = SurfaceComplex(
        True, 2, list(POLYGON.vertices), [(e.id, list(e.ends)) for e in POLYGON.edges],
        POLYGON.faces,
    )
    assert listed == base and hash(listed) == hash(base)
    assert type(listed.vertices) is tuple and listed.edges == POLYGON.edges
    flipped = SurfaceComplex(True, 2, (0,), POLYGON.edges[::-1], POLYGON.faces)
    assert flipped != base


def test_counts_differ_on_signature():
    assert DerivedCounts(6, 24, 16, SIG) != DerivedCounts(6, 24, 16, SemiRegularSig((4, 8, 10)))


def test_edge_schedule_compares_colors_but_hashes_the_complex():
    base = EdgeSchedule(CLIP, EDGE_COLOR)
    swap = {"R": "G", "G": "R", "B": "B"}
    other = EdgeSchedule(CLIP, {eid: swap[c] for eid, c in EDGE_COLOR.items()})
    assert other != base and hash(other) == hash(base) == hash((CLIP,))
    # The derived checks are not compared.
    assert other.checks != base.checks


def test_color_assignment_compares_complex_and_face_colors():
    base = ColorAssignment(INCENTER, FACE_COLOR)
    swap = {"R": "G", "G": "R", "B": "B"}
    other = ColorAssignment(INCENTER, tuple(swap[c] for c in FACE_COLOR))
    assert other != base
    assert other.edge_color != base.edge_color and other.checks != base.checks
    # The same colouring held as an edge schedule is another record.
    as_edges = EdgeSchedule(INCENTER, dict(base.edge_color))
    assert as_edges != base and base != as_edges
    with pytest.raises(TypeError):
        hash(ColorAssignment(INCENTER, list(FACE_COLOR)))


def test_schedule_results_compare_by_identity():
    names, values = RECORDS[ScheduleResult]
    record = ScheduleResult(*values)
    assert record == record and record != ScheduleResult(*values)
    assert hash(record) == object.__hash__(record)


# Two digons on the sphere: its faces differ across both edges, and both
# vertices have degree 2.
DIGONS = SurfaceComplex(
    True, 0, ("u", "v"), [("a", ("u", "v")), ("b", ("u", "v"))],
    [(("a", 1), ("b", -1)), (("b", 1), ("a", -1))],
)


def _raises(exc, message, call):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


CHECKS = {
    "regular-type": (TypeError, "p and q must be integers", lambda: RegularSig(7.0, 3)),
    "regular-small": (
        ValueError, "{2,7}: face size and valence must be >= 3", lambda: RegularSig(2, 7),
    ),
    "regular-euclidean": (
        ValueError, "{4,4} is Euclidean, not hyperbolic (need 1/p + 1/q < 1/2)",
        lambda: RegularSig(p=4, q=4),
    ),
    "regular-spherical": (
        ValueError, "{3,5} is spherical, not hyperbolic (need 1/p + 1/q < 1/2)",
        lambda: RegularSig(3, 5),
    ),
    "semiregular-length": (
        TypeError, "vertex type must be a triple of integers", lambda: SemiRegularSig((6, 6)),
    ),
    "semiregular-type": (
        TypeError, "vertex type must be a triple of integers",
        lambda: SemiRegularSig(m=(6, 6, 8.0)),
    ),
    "semiregular-small": (
        ValueError, "[2,6,8]: face sizes must be >= 3", lambda: SemiRegularSig((2, 6, 8)),
    ),
    "semiregular-euclidean": (
        ValueError, "[6,6,6] is a Euclidean triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)",
        lambda: SemiRegularSig((6, 6, 6)),
    ),
    "semiregular-spherical": (
        ValueError, "[4,6,8] is a spherical triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)",
        lambda: SemiRegularSig([4, 6, 8]),
    ),
    "complex-orientable": (
        SurfaceError, "orientable must be a boolean, got 1",
        lambda: SurfaceComplex(1, *polygon_fields()[1:]),
    ),
    "complex-genus": (
        SurfaceError, "genus must be an integer, got 2.0",
        lambda: SurfaceComplex(True, 2.0, *polygon_fields()[2:]),
    ),
    "complex-edge-pair": (
        SurfaceError, "edge 5 must be an (id, ends) pair",
        lambda: SurfaceComplex(True, 2, (0,), [*POLYGON.edges[:1], 5], POLYGON.faces),
    ),
    "complex-euler": (
        SurfaceError,
        "Euler characteristic -2 does not match declared orientable genus 3 (expected -4)",
        lambda: SurfaceComplex(True, 3, *polygon_fields()[2:]),
    ),
    "counts-positive": (
        ValueError, "cell counts must be positive", lambda: DerivedCounts(0, 3, 2, SIG),
    ),
    "counts-trivalent": (
        ValueError, "not tri-valent: 2*5 edges != 3*4 vertices",
        lambda: DerivedCounts(n_f=4, n_e=5, n_v=4, signature=SIG),
    ),
    "schedule-trivalent": (
        ValueError, "vertex 0 has degree 8, need 3", lambda: EdgeSchedule(POLYGON, {}),
    ),
    "schedule-uncolored": (
        ValueError, "edge 'A0' has no color",
        lambda: EdgeSchedule(CLIP, {k: v for k, v in EDGE_COLOR.items() if k != "A0"}),
    ),
    "schedule-extra": (
        ValueError, "colored id 'zz' is not an edge of the complex",
        lambda: EdgeSchedule(CLIP, {**EDGE_COLOR, "zz": "R"}),
    ),
    "schedule-unknown-color": (
        ValueError, "edge 'A0' has unknown color 'Q'",
        lambda: EdgeSchedule(complex=CLIP, edge_color={**EDGE_COLOR, "A0": "Q"}),
    ),
    "schedule-improper": (
        ValueError, "two G edges meet at vertex 'e0.1'",
        lambda: EdgeSchedule(CLIP, {**EDGE_COLOR, "A0": "G"}),
    ),
    "assignment-count": (
        ValueError, "one color per face required",
        lambda: ColorAssignment(INCENTER, FACE_COLOR[:-1]),
    ),
    "assignment-color": (
        ValueError, "face colors must be R, G or B",
        lambda: ColorAssignment(INCENTER, (*FACE_COLOR[:-1], "Q")),
    ),
    "assignment-improper": (
        ValueError, "faces 0 and 2 share edge 's0.0.0' but both are R",
        lambda: ColorAssignment(complex=INCENTER, face_color=("R",) * 6),
    ),
    # The face checks come before the tri-valence check.
    "assignment-first": (
        ValueError, "faces 0 and 0 share edge 0 but both are R",
        lambda: ColorAssignment(POLYGON, ("R",)),
    ),
    "assignment-trivalent": (
        ValueError, "vertex 'u' has degree 2, need 3",
        lambda: ColorAssignment(DIGONS, ("R", "G")),
    ),
}


@pytest.mark.parametrize("case", CHECKS.values(), ids=CHECKS.keys())
def test_constructor_checks(case):
    _raises(*case)
