import itertools
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import geodetic_to_planar, polygon_violation

from v2xemu.geometry import _MAX_PAIRS, SpatialIndex
from v2xemu.scenario import (
    MAX_COORD,
    Building,
    FormatError,
    InvalidPolygonError,
    MissingEgoError,
    NonMonotoneTimestampError,
    Position,
    ScenarioStep,
    VehicleColumns,
    VehicleState,
    load_buildings,
    load_trace,
    planar_to_geodetic,
    step_from_json,
    step_to_json,
    write_buildings,
    write_trace,
)

# ---------------------------------------------------------------------------
# basic types
# ---------------------------------------------------------------------------


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position(math.nan, 0.0)
    with pytest.raises(ValueError):
        Position(0.0, math.inf)


def test_coordinates_are_bounded_by_max_coord():
    edge, beyond = MAX_COORD, math.nextafter(MAX_COORD, math.inf)
    for x, y in [(edge, -edge), (-edge, edge)]:
        Position(x, y)
        VehicleColumns(["v"], [_row(x=x, y=y)])
    for x, y in [(beyond, 0.0), (0.0, -beyond), (1e200, 0.0)]:
        message = re.escape(f"position ({x}, {y}) beyond 1e+09 m")
        with pytest.raises(ValueError, match=message):
            Position(x, y)
        with pytest.raises(ValueError, match=message):
            VehicleColumns(["v"], [_row(x=x, y=y)])


def test_heading_normalized():
    v = VehicleState(id="a", position=Position(0, 0), speed=1.0, heading=-math.pi / 2)
    assert v.heading == pytest.approx(3 * math.pi / 2)
    v = VehicleState(id="a", position=Position(0, 0), speed=1.0, heading=2 * math.pi)
    assert v.heading == 0.0


def test_vehicle_dimensions_positive():
    with pytest.raises(ValueError):
        VehicleState(id="a", position=Position(0, 0), speed=1.0, heading=0.0, height=0.0)


def test_vehicle_defaults():
    v = VehicleState(id="a", position=Position(0, 0), speed=1.0, heading=0.0)
    assert (v.length, v.width, v.height) == (4.5, 1.8, 1.5)


def test_step_rejects_duplicated_ego_id(vehicle):
    with pytest.raises(ValueError):
        ScenarioStep(timestamp=0.0, ego=vehicle("e", 0, 0), others=(vehicle("e", 5, 5),))


def test_step_rejects_duplicated_vehicle_id(vehicle):
    with pytest.raises(ValueError, match="'v1' appears more than once"):
        ScenarioStep(
            timestamp=0.0,
            ego=vehicle("e", 0, 0),
            others=(vehicle("v1", 5, 5), vehicle("v2", 9, 9), vehicle("v1", 50, 0)),
        )


# ---------------------------------------------------------------------------
# vehicle columns
# ---------------------------------------------------------------------------


def _row(x=0.0, y=0.0, speed=1.0, heading=0.0, length=4.5, width=1.8, height=1.5):
    return (x, y, speed, heading, length, width, height)


def test_columns_normalise_headings_as_python_does():
    headings = [0.0, -0.0, -1e-20, 1e-320, -math.pi / 2, 2 * math.pi, 7.0, -7.0, 1e300, -1e300, 3.0]
    cols = VehicleColumns([f"v{i}" for i in range(len(headings))], [_row(heading=h) for h in headings])
    got = cols.values[:, 3].tolist()
    assert [math.copysign(1.0, h) for h in got] == [1.0] * len(got)
    expected = [h % (2 * math.pi) for h in headings]
    expected[2] = 0.0  # -1e-20 % (2*pi) rounds up to 2*pi, which wraps to 0.0
    assert got == expected == [VehicleState("v", Position(0, 0), 1.0, h).heading for h in headings]
    assert all(0 <= h < 2 * math.pi for h in got)


def test_columns_are_a_sequence_of_vehicle_states(vehicle):
    cars = [vehicle("b", 1.0, 2.0, heading=-1.0), vehicle("a", 3.0, 4.0, height=3.2)]
    cols = VehicleColumns.of(cars)
    assert cols.ids == ("b", "a")  # input order
    assert len(cols) == 2 and list(cols) == cars and cols[-1] == cars[1]
    assert cols == VehicleColumns(["b", "a"], cols.values) != VehicleColumns(["a", "b"], cols.values)
    assert VehicleColumns.of(cols) is cols
    with pytest.raises(ValueError):
        cols.values[0, 0] = 5.0  # read-only
    with pytest.raises(IndexError):
        cols[2]


def test_step_holds_others_as_columns(vehicle):
    step = ScenarioStep(timestamp=0.0, ego=vehicle("e", 0, 0), others=[vehicle("v1", 5, 5)])
    assert isinstance(step.others, VehicleColumns)
    assert step.others.values.shape == (1, 7)
    assert ScenarioStep(timestamp=0.0, ego=vehicle("e", 0, 0), others=()).others.values.shape == (0, 7)


@pytest.mark.parametrize(
    "bad, message",
    [
        (_row(x=math.nan), r"non-finite position \(nan, 0.0\)"),
        (_row(speed=math.inf), "vehicle 'v1': non-finite speed inf"),
        (_row(heading=-math.inf), "vehicle 'v1': non-finite heading"),
        (_row(height=0.0), "vehicle 'v1': dimensions must be positive and finite, got length 4.5, width 1.8, height 0.0"),
        (_row(width=math.nan), "width nan"),
    ],
    ids=["x-nan", "speed-inf", "heading-inf", "height-zero", "width-nan"],
)
def test_columns_name_the_first_bad_vehicle_as_vehicle_state_does(bad, message):
    # v2 is bad too, but comes after v1 in input order
    with pytest.raises(ValueError, match=message):
        VehicleColumns(["v0", "v1", "v2"], [_row(), bad, _row(length=-1.0)])


def test_columns_need_one_row_per_id():
    with pytest.raises(ValueError, match="2 vehicle ids but 1 rows"):
        VehicleColumns(["a", "b"], [_row()])


# ---------------------------------------------------------------------------
# polygon validation: Building is a plain record, SpatialIndex checks it
# ---------------------------------------------------------------------------


def _index(*polygons, ids=None):
    ids = ids or [f"b{k}" for k in range(len(polygons))]
    return SpatialIndex([Building(bid, tuple(pts)) for bid, pts in zip(ids, polygons)])


def _rejects(pts) -> str:
    with pytest.raises(InvalidPolygonError) as exc:
        _index(pts)
    assert str(exc.value) == f"building 'b0': {polygon_violation(pts)}"
    return str(exc.value)


def test_polygon_needs_three_vertices():
    assert "needs >= 3 vertices, got 2" in _rejects([(0, 0), (1, 0)])
    assert "got 0" in _rejects([])


def test_polygon_rejects_degenerate_edge():
    assert "degenerate zero-length edge at vertex 0" in _rejects([(0, 0), (0, 0), (1, 1)])


def test_polygon_rejects_bowtie():
    assert "edges 0 and 2 intersect" in _rejects([(0, 0), (10, 10), (10, 0), (0, 10)])


def test_polygon_rejects_repeated_vertex():
    assert "edges 0 and 1 fold back" in _rejects([(0, 0), (10, 0), (0, 0), (0, 10)])


def test_concave_polygon_accepted():
    idx = _index([(0, 0), (20, 0), (20, 10), (10, 10), (10, 20), (0, 20)])
    assert idx._wall_count.tolist() == [6]


def test_triangle_accepted():
    _index([(0, 0), (5, 0), (0, 5)])


def test_building_is_a_plain_record():
    # no check at construction: the index is where a polygon gets checked
    assert Building(id="b", vertices=((0, 0), (1, 0))).vertices[1][0] == 1


def _convex_chain(n):
    # vertices on a parabola: integer coordinates, no three collinear
    return [(float(i), float(i * i)) for i in range(n)]


def test_polygon_pairs_span_several_groups():
    n = 400
    assert n * (n - 1) // 2 > _MAX_PAIRS  # the pairs take two groups
    assert _index(_convex_chain(n))._wall_count.tolist() == [n]
    # row i holds the pairs (i, j > i); k is the first row of the second group
    k = sum(total <= _MAX_PAIRS for total in itertools.accumulate(n - 1 - i for i in range(n)))
    for swap in (k + 1, n - 3):
        pts = _convex_chain(n)
        pts[swap], pts[swap + 1] = pts[swap + 1], pts[swap]  # edges swap - 1 and swap + 1 now cross
        assert f"edges {swap - 1} and {swap + 1} intersect" in _rejects(pts)


_grid_point = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (float(p[0]), float(p[1])))
_float_point = st.tuples(st.floats(-100, 100), st.floats(-100, 100))


@given(st.lists(_grid_point, max_size=8) | st.lists(_float_point | _grid_point, max_size=8))
def test_polygon_check_matches_reference(pts):
    # grid points make collinear, repeated and touching vertices common
    expected = polygon_violation(pts)
    if expected is None:
        _index(pts)
    else:
        _rejects(pts)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


@given(
    st.floats(-60, 60),
    st.floats(-179, 179),
    st.floats(-5000, 5000),
    st.floats(-5000, 5000),
)
def test_projection_round_trip(lat0, lon0, x, y):
    back_x, back_y = geodetic_to_planar(lat0, lon0, *planar_to_geodetic(lat0, lon0, x, y))
    assert back_x == pytest.approx(x, abs=1e-6)
    assert back_y == pytest.approx(y, abs=1e-6)


def test_meters_per_degree_latitude():
    lat, lon = planar_to_geodetic(0.0, 0.0, 0.0, 111_195.08023353292)
    assert lat == pytest.approx(1.0, abs=1e-9)
    assert lon == 0.0


def test_longitude_scale_shrinks_with_latitude():
    _, lon_eq = planar_to_geodetic(0.0, 0.0, 1000.0, 0.0)
    _, lon_60 = planar_to_geodetic(60.0, 0.0, 1000.0, 0.0)
    assert lon_60 - 0.0 == pytest.approx(2 * lon_eq, rel=1e-9)


# ---------------------------------------------------------------------------
# file i/o
# ---------------------------------------------------------------------------


def _step(t, vehicle, n=2):
    return ScenarioStep(
        timestamp=t,
        ego=vehicle("ego", 0.0, t),
        others=tuple(vehicle(f"v{i}", 10.0 * (i + 1), t) for i in range(n)),
    )


def test_trace_round_trip(tmp_path, vehicle):
    steps = [_step(t * 0.1, vehicle) for t in range(5)]
    path = tmp_path / "trace.jsonl"
    assert write_trace(path, steps) == 5
    loaded = list(load_trace(path))
    assert loaded == steps


def test_trace_optional_dimensions_default(tmp_path):
    rec = {
        "t": 0.0,
        "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0},
        "vehicles": [{"id": "v", "x": 5, "y": 0, "speed": 1, "heading": 0, "height": 3.2}],
    }
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    (step,) = load_trace(path)
    assert step.ego.height == 1.5
    assert step.others[0].height == 3.2


def test_trace_missing_ego(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"t": 0.0, "vehicles": []}\n')
    with pytest.raises(MissingEgoError):
        list(load_trace(path))


def test_trace_non_monotone_timestamps(tmp_path, vehicle):
    steps = [_step(0.2, vehicle), _step(0.1, vehicle)]
    path = tmp_path / "t.jsonl"
    write_trace(path, steps)
    with pytest.raises(NonMonotoneTimestampError) as exc:
        list(load_trace(path))
    assert "line 2" in str(exc.value)


def test_trace_bad_json_names_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"t": 0.0, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}}\nnot json\n')
    with pytest.raises(FormatError) as exc:
        list(load_trace(path))
    assert "line 2" in str(exc.value)


def test_trace_bad_timestamp_type_names_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"t": null, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}}\n')
    with pytest.raises(FormatError) as exc:
        list(load_trace(path))
    assert f"{path}, line 1" in str(exc.value)


def test_trace_is_lazy(tmp_path, vehicle):
    path = tmp_path / "t.jsonl"
    write_trace(path, [_step(0.0, vehicle)])
    with open(path, "a", encoding="utf-8") as f:
        f.write("garbage\n")
    it = load_trace(path)
    next(it)  # first step parses fine; the bad line only fails when reached
    with pytest.raises(FormatError):
        next(it)


def test_buildings_round_trip(tmp_path, square_building):
    buildings = [square_building("b0", 0, 0, 10), square_building("b1", 50, 50, 20)]
    path = tmp_path / "b.json"
    write_buildings(path, buildings)
    assert load_buildings(path).buildings == tuple(buildings)


def test_buildings_duplicate_id(tmp_path):
    data = [
        {"id": "b0", "vertices": [[0, 0], [1, 0], [1, 1]]},
        {"id": "b0", "vertices": [[5, 5], [6, 5], [6, 6]]},
    ]
    path = tmp_path / "b.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as exc:
        load_buildings(path)
    assert "duplicate" in str(exc.value)


def test_buildings_top_level_must_be_array(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"id": "b0"}')
    with pytest.raises(FormatError):
        load_buildings(path)


def test_buildings_invalid_polygon_propagates(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps([{"id": "b0", "vertices": [[0, 0], [1, 0]]}]))
    with pytest.raises(InvalidPolygonError, match="'b0': needs >= 3 vertices, got 2"):
        load_buildings(path)


def test_step_json_round_trip(vehicle):
    step = _step(1.5, vehicle)
    assert step_from_json(step_to_json(step)) == step
