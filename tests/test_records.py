"""The package's four immutable records: construction by position and by
keyword, every constructor check with its message, assignment and deletion
refused, equality and hash over exactly the fields each record compares or
hashes, and no field shared with the caller's mutable arguments.  The
signatures are no records: ``regular_profile`` checks the pair {p,q}
itself, ``_check_semiregular`` the vertex type [m1,m2,m3] and
``_check_genus`` the genus, with the messages pinned here too."""

import importlib
import pkgutil

import pytest

import floqtess
from floqtess.coloring import ColorAssignment, EdgeSchedule, edge_three_color, three_color
from floqtess.derive import polygon_complex
from floqtess.floquet import ScheduleResult, run_schedule
from floqtess.hypgeo import _Record, _check_genus, _check_semiregular, regular_profile
from floqtess.surface import SurfaceComplex, SurfaceError, fundamental_polygon

POLYGON = fundamental_polygon(2, True)
INCENTER = polygon_complex("incenter", 2, True)
CLIP = polygon_complex("clip", 2, True)
EDGE_COLOR = dict(edge_three_color(CLIP).edge_color)
FACE_COLOR = three_color(INCENTER).face_color
RESULT = run_schedule(three_color(INCENTER), 9)


def polygon_fields():
    return (True, 2, POLYGON.vertices, POLYGON.edges, POLYGON.faces)


# Per record: its field names in constructor order and the values of one
# valid instance.
RECORDS = {
    SurfaceComplex: (("orientable", "genus", "vertices", "edges", "faces"), polygon_fields()),
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
    SurfaceComplex: RECORDS[SurfaceComplex][0],
    EdgeSchedule: ("complex",),
    ColorAssignment: ("complex", "face_color"),
}

IDS = [cls.__name__ for cls in RECORDS]


def record_classes() -> set:
    """Every ``_Record`` subclass, at any depth, once each package module
    is imported."""
    for info in pkgutil.iter_modules(floqtess.__path__):
        importlib.import_module(f"floqtess.{info.name}")
    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_every_record_is_pinned():
    # A record added or retired must join or leave RECORDS, and so every
    # test here.
    assert record_classes() == set(RECORDS)


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
    # A vertex type is its ordered tuple; a list gives the same tuple.
    assert _check_semiregular((6, 6, 8)) != _check_semiregular((6, 8, 6))
    listed = _check_semiregular([6, 6, 8])
    assert type(listed) is tuple and listed == (6, 6, 8)


def test_value_records_print_their_fields():
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


def test_edge_schedule_keeps_its_own_colors():
    colors = dict(EDGE_COLOR)
    record = EdgeSchedule(CLIP, colors)
    colors["A0"] = "Q"
    del colors["A1"]
    assert record.edge_color == EDGE_COLOR and record.edge_color is not colors
    assert record == EdgeSchedule(CLIP, EDGE_COLOR)
    assert hash(record) == hash(EdgeSchedule(CLIP, EDGE_COLOR))
    # The checks still agree with the colors the record holds.
    for e in CLIP.edges:
        assert e.ends in record.checks[record.edge_color[e.id]]


def test_color_assignment_keeps_its_own_face_colors():
    colors = list(FACE_COLOR)
    record = ColorAssignment(INCENTER, colors)
    base = ColorAssignment(INCENTER, FACE_COLOR)
    # A list is stored as its tuple, so both compare and hash alike.
    assert type(record.face_color) is tuple and record.face_color == FACE_COLOR
    assert record == base and hash(record) == hash(base)
    colors[:] = [{"R": "G", "G": "R", "B": "B"}[c] for c in colors]
    assert record.face_color == FACE_COLOR and record == base
    assert hash(record) == hash(base)


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
    "regular-type": (TypeError, "p and q must be integers", lambda: regular_profile((7.0, 3))),
    "regular-bool": (TypeError, "p and q must be integers", lambda: regular_profile((True, 8))),
    "regular-small": (
        ValueError, "{2,7}: face size and valence must be >= 3",
        lambda: regular_profile((2, 7)),
    ),
    "regular-euclidean": (
        ValueError, "{4,4} is Euclidean, not hyperbolic (need 1/p + 1/q < 1/2)",
        lambda: regular_profile([4, 4]),
    ),
    "regular-spherical": (
        ValueError, "{3,5} is spherical, not hyperbolic (need 1/p + 1/q < 1/2)",
        lambda: regular_profile((3, 5)),
    ),
    "semiregular-length": (
        TypeError, "vertex type must be a triple of integers", lambda: _check_semiregular((6, 6)),
    ),
    "semiregular-type": (
        TypeError, "vertex type must be a triple of integers",
        lambda: _check_semiregular(m=(6, 6, 8.0)),
    ),
    "semiregular-bool": (
        TypeError, "vertex type must be a triple of integers",
        lambda: _check_semiregular((True, 8, 8)),
    ),
    "semiregular-small": (
        ValueError, "[2,6,8]: face sizes must be >= 3", lambda: _check_semiregular((2, 6, 8)),
    ),
    "semiregular-euclidean": (
        ValueError, "[6,6,6] is a Euclidean triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)",
        lambda: _check_semiregular((6, 6, 6)),
    ),
    "semiregular-spherical": (
        ValueError, "[4,6,8] is a spherical triple (need 1/m1 + 1/m2 + 1/m3 < 1/2)",
        lambda: _check_semiregular([4, 6, 8]),
    ),
    # A bool is no genus, though it is an int.
    "genus-bool": (TypeError, "genus must be an integer", lambda: _check_genus(True, True)),
    "polygon-bool": (
        TypeError, "genus must be an integer", lambda: fundamental_polygon(True, True),
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
