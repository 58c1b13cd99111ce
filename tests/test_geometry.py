import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import columns_of, index_of
from oracles import (
    bbox_diagonal,
    brute_force_classify,
    building_in_range,
    first_blocker,
    is_between,
    link_conditions,
    orthogonal_distance,
    point_to_line_distance,
    segment_intersects_building,
    segments_intersect,
    sort_then_filter,
    without_building_blockers,
)
from v2xemu import geometry
from v2xemu.geometry import (
    CullingRanges,
    LinkClassifier,
    LinkCondition,
    SpatialIndex,
    _segment_hits,
)
from v2xemu.rng import substream
from v2xemu.scenario import (
    MAX_COORD,
    Position,
    VehicleColumns,
    VehicleState,
    buildings_from_json,
    buildings_to_json,
)
from v2xemu.synth import SynthConfig, make_buildings


def _veh(vid, x, y):
    return VehicleState(id=vid, position=Position(x, y), speed=0.0, heading=0.0)


def _rect(bid, x0, y0, w, h):
    return {"id": bid, "vertices": [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]}


def _classify_step(ego, others, index, ranges=None, nlosv_threshold=1.0):
    """``{target_id: (condition, blocker_id)}`` mapped from the classifier's
    index arrays, in the brute-force oracle's format."""
    clf = LinkClassifier(index, ranges=ranges, nlosv_threshold=nlosv_threshold)
    cand = clf.select_candidates(ego, columns_of(others))
    hit, between = clf.classify_candidates(cand)
    labels = {}
    for tid, cond, b, v in zip(cand.target_ids, link_conditions(hit, between), hit.tolist(), between.tolist()):
        blocker = index.ids[b] if b >= 0 else cand.target_ids[v] if v >= 0 else None
        labels[tid] = (cond, blocker)
    return labels


def _ids(index, center, radius):
    return [index.ids[i] for i in index.candidate_indices(center, radius)]


# ---------------------------------------------------------------------------
# scalar geometry facts (reference helpers in tests/oracles.py)
# ---------------------------------------------------------------------------


def test_orthogonal_distance_pinned():
    # |100*60 - 100*50| / sqrt(2*100^2), from an independent evaluation
    d = orthogonal_distance(Position(0, 0), Position(100, 100), Position(50, 60))
    assert d == pytest.approx(7.071067811865475, abs=1e-12)


def test_orthogonal_distance_vertical_line():
    assert orthogonal_distance(Position(0, 0), Position(0, 10), Position(3.0, 5.0)) == 3.0


def test_orthogonal_distance_point_on_line():
    assert orthogonal_distance(Position(0, 0), Position(10, 0), Position(4.0, 0.0)) == 0.0


def test_orthogonal_distance_degenerate_raises():
    with pytest.raises(ValueError):
        orthogonal_distance(Position(1, 1), Position(1, 1), Position(0, 0))


@given(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
)
def test_orthogonal_distance_matches_reference(ax, ay, bx, by, px, py):
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    mine = orthogonal_distance(Position(ax, ay), Position(bx, by), Position(px, py))
    ref = point_to_line_distance((ax, ay), (bx, by), (px, py))
    assert mine == pytest.approx(ref, abs=1e-9)


def test_is_between_basic():
    e, t = Position(0, 0), Position(100, 0)
    assert is_between(e, t, Position(50, 0.5), 1.0)
    assert not is_between(e, t, Position(50, 1.0), 1.0)  # strict threshold
    assert not is_between(e, t, Position(50, 1.5), 1.0)
    assert not is_between(e, t, Position(0, 0), 1.0)  # t = 0 excluded
    assert not is_between(e, t, Position(100, 0), 1.0)  # t = 1 excluded
    assert not is_between(e, t, Position(150, 0.0), 1.0)  # beyond target
    assert not is_between(e, t, Position(-10, 0.0), 1.0)  # behind ego


def test_segment_intersects_building():
    b = _rect("b", 40, -10, 20, 20)["vertices"]
    assert segment_intersects_building(Position(0, 0), Position(100, 0), b)
    assert not segment_intersects_building(Position(0, 20), Position(100, 20), b)
    # touching a corner counts (closed segments)
    assert segment_intersects_building(Position(0, 10), Position(80, 10), b)


def test_segment_inside_building_without_crossing():
    # both endpoints inside: no wall is crossed, so no intersection is seen
    b = _rect("b", 0, 0, 100, 100)["vertices"]
    assert not segment_intersects_building(Position(10, 10), Position(20, 20), b)


def test_bbox_diagonal():
    bs = [_rect("a", 0, 0, 10, 10), _rect("b", 90, 40, 10, 10)]
    assert index_of(bs).diagonal == math.hypot(100, 50)
    assert index_of([]).diagonal == 0.0
    # the float the vertex loop gives, on a city and on random ones
    for buildings in (_CITY, *(_random_city(substream(7, "diag", i), 30, -1e5 * i) for i in range(5))):
        assert index_of(buildings).diagonal == bbox_diagonal([(b["id"], b["vertices"]) for b in buildings])


# ---------------------------------------------------------------------------
# spatial index
# ---------------------------------------------------------------------------


def _random_city(rng, n_buildings, offset=0.0):
    out = []
    for i in range(n_buildings):
        x0, y0 = rng.uniform(0, 900, size=2) + offset
        w, h = rng.uniform(5, 80, size=2)
        out.append(_rect(f"b{i:03d}", float(x0), float(y0), float(w), float(h)))
    return out


def _mixed_city(rng, n_buildings, offset=0.0):
    """Regular polygons of 3 to 1000 vertices among rectangles."""
    out = _random_city(rng, n_buildings, offset)
    for i, n in enumerate((3, 5, 17, 200, 1000)):
        cx, cy = rng.uniform(0, 900, size=2) + offset
        r = float(rng.uniform(20, 60))
        turns = 2 * math.pi * np.arange(n) / n
        vertices = zip((cx + r * np.cos(turns)).tolist(), (cy + r * np.sin(turns)).tolist())
        out.append({"id": f"p{i}", "vertices": list(vertices)})
    return out


def _dist2(v, cx, cy):
    # products, not ``** 2``: a float power goes through libm ``pow``, which
    # can be an ulp off the correctly rounded square the index computes
    dx, dy = v[0] - cx, v[1] - cy
    return dx * dx + dy * dy


def _linear_scan(buildings, center, radius):
    if math.isinf(radius):
        return sorted(b["id"] for b in buildings)
    keep = []
    for b in buildings:
        best = min(_dist2(v, center.x, center.y) for v in b["vertices"])
        if best < radius * radius:
            keep.append(b["id"])
    return sorted(keep)


@pytest.mark.parametrize(
    "offset, city",
    [(0.0, _random_city), (1e6, _random_city), (-3e7, _random_city), (0.0, _mixed_city)],
    ids=["0.0", "1000000.0", "-30000000.0", "mixed"],
)
def test_query_radius_matches_linear_scan(offset, city):
    rng = substream(101, "test", "index")
    buildings = city(rng, 60, offset)
    index = index_of(buildings)
    on_boundary = 0
    for _ in range(50):
        cx, cy = (rng.uniform(-100, 1100, size=2) + offset).tolist()
        center = Position(cx, cy)
        # besides a random radius, the nearest-vertex distance of a random
        # building and the next float above it: the strict `<` boundary;
        # and zero, within which no vertex lies
        b = buildings[int(rng.integers(len(buildings)))]
        d2 = min(_dist2(v, cx, cy) for v in b["vertices"])
        r = math.sqrt(d2)
        on_boundary += r * r == d2
        for radius in (float(rng.uniform(1, 600)), r, math.nextafter(r, math.inf), 0.0):
            assert sorted(_ids(index, center, radius)) == _linear_scan(buildings, center, radius)
    assert on_boundary > 0  # some radii square exactly to a vertex distance


def test_index_memory_does_not_scale_with_the_largest_polygon():
    # one 1000-vertex polygon among the 2000 rectangles of the 50x40 city
    records = buildings_to_json(make_buildings(SynthConfig(blocks=(50, 40))))
    buildings = buildings_from_json(records + _mixed_city(substream(101, "test", "index"), 0))
    tracemalloc.start()
    try:
        index = SpatialIndex(buildings)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(index) == 2005
    assert held < 5e6, f"index holds {held / 1e6:.1f} MB"


def test_query_radius_edge_cases(square_building):
    index = index_of([square_building("b0", 0, 0, 10)])
    assert _ids(index, Position(5, 5), math.inf) == ["b0"]
    assert _ids(index, Position(5, 5), 0.0) == []
    assert _ids(index, Position(5, 5), -1.0) == []
    # nearest-vertex metric: center of the square is sqrt(50) from every corner
    assert _ids(index, Position(5, 5), 7.0) == []
    assert _ids(index, Position(5, 5), 7.1) == ["b0"]


def test_candidate_indices_ascending_without_duplicates(square_building):
    # each building is listed once, in index order
    index = index_of(
        [square_building("c", 0, 0, 200), square_building("a", 30, 300, 5), square_building("b", 90, 250, 40)]
    )
    assert index.candidate_indices(Position(100, 100), 500.0).tolist() == [0, 1, 2]
    assert index.candidate_indices(Position(40, 260), 60.0).tolist() == [0, 1]


def test_empty_index():
    index = index_of([])
    assert _ids(index, Position(0, 0), math.inf) == []
    assert len(index) == 0


def test_index_takes_only_building_columns(square_building):
    for buildings in ([], [square_building("a", 0, 0, 5)], None):
        with pytest.raises(TypeError, match="SpatialIndex takes BuildingColumns"):
            SpatialIndex(buildings)


def test_index_sorts_buildings_by_id(square_building):
    index = index_of([square_building("z", 0, 0, 5), square_building("a", 20, 0, 5)])
    assert index.ids == ("a", "z")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_blocked_by_wall(square_building):
    index = index_of([square_building("b0", 40, -5, 20, )])
    ego = _veh("ego", 0, 0)
    assert _classify_step(ego, [_veh("v1", 100, 0)], index) == {"v1": ("NLOSb", "b0")}


def test_classify_nlosv_and_los():
    index = index_of([])
    ego = _veh("ego", 0, 0)
    others = [_veh("far", 100, 0), _veh("mid", 50, 0.4), _veh("side", 50, 80)]
    assert _classify_step(ego, others, index) == {
        "far": ("NLOSv", "mid"),
        "mid": ("LOS", None),
        "side": ("LOS", None),
    }


def test_nlosb_beats_nlosv(square_building):
    index = index_of([square_building("b0", 40, -5, 20)])
    ego = _veh("ego", 0, 0)
    others = [_veh("far", 100, 0), _veh("mid", 50, 0.4)]
    assert _classify_step(ego, others, index)["far"] == ("NLOSb", "b0")


def test_first_blocking_building_reported(square_building):
    # both squares cross the link: the nearer one is reported, whatever
    # its id; at equal near distances the smaller id wins
    ego, v = _veh("ego", 0, 0), _veh("v", 100, 0)
    for near, far in (("b0", "b1"), ("b1", "b0")):
        index = index_of([square_building(far, 60, -5, 10), square_building(near, 30, -5, 10)])
        assert _classify_step(ego, [v], index)["v"] == ("NLOSb", near)
    # two boxes share the wall the link runs along
    rects = [_rect("b1", 30, 0, 10, 5), _rect("b0", 30, -5, 10, 5)]
    assert _classify_step(ego, [v], index_of(rects))["v"] == ("NLOSb", "b0")
    for b in rects:
        assert segment_intersects_building(ego.position, v.position, b["vertices"])


def test_degenerate_coincident_target():
    index = index_of([])
    assert _classify_step(_veh("ego", 5, 5), [_veh("twin", 5, 5)], index) == {"twin": ("LOS", None)}


def test_culling_excludes_far_targets():
    index = index_of([])
    res = _classify_step(
        _veh("ego", 0, 0),
        [_veh("near", 50, 0), _veh("far", 500, 0)],
        index,
        ranges=CullingRanges(r_b=math.inf, r_v=100.0),
    )
    assert list(res) == ["near"]


def test_culled_building_not_seen(square_building):
    # wall crosses the link but sits outside r_b of the ego: marked LOS
    index = index_of([square_building("b0", 400, -5, 20)])
    ego = _veh("ego", 0, 0)
    others = [_veh("v", 1000, 0)]
    full = _classify_step(ego, others, index, ranges=CullingRanges(r_b=math.inf, r_v=math.inf))
    culled = _classify_step(ego, others, index, ranges=CullingRanges(r_b=100.0, r_v=math.inf))
    assert full["v"] == ("NLOSb", "b0")
    assert culled["v"] == ("LOS", None)


def test_input_order_does_not_matter(square_building):
    index = index_of([square_building("b0", 40, -5, 20)])
    ego = _veh("ego", 0, 0)
    others = [_veh("a", 100, 0), _veh("c", 50, 0.4), _veh("b", 20, 30)]
    res1 = _classify_step(ego, others, index)
    res2 = _classify_step(ego, list(reversed(others)), index)
    assert list(res1.items()) == list(res2.items())


def test_counts_sum_to_total(square_building):
    index = index_of([square_building("b0", 40, -5, 20)])
    ego = _veh("ego", 0, 0)
    others = [_veh(f"v{i}", 10.0 * i, 3.0 * i) for i in range(1, 8)]
    clf = LinkClassifier(index)
    hit, between = clf.classify_candidates(clf.select_candidates(ego, columns_of(others)))
    conditions = link_conditions(hit, between)
    assert hit.size == between.size == len(conditions) == 7
    assert sum(conditions.count(c.value) for c in LinkCondition) == 7
    # a vehicle is only looked for on links no building blocks
    assert not np.any((hit >= 0) & (between >= 0))


def test_select_candidates_takes_only_columns():
    clf = LinkClassifier(index_of([]))
    with pytest.raises(TypeError, match="^select_candidates takes VehicleColumns, got list$"):
        clf.select_candidates(_veh("ego", 0, 0), [_veh("v", 10, 0)])


def test_candidates_list_the_culled_walls(square_building):
    index = index_of([square_building(b, x, 0, 10) for b, x in (("c", 0), ("a", 500), ("b", 20))])
    cand = LinkClassifier(index, CullingRanges(r_b=100.0)).select_candidates(_veh("ego", 0, 0), columns_of([]))
    ax, ay, bx, by = cand.wall_arrays
    # buildings "b" then "c" (index order), walls in edge order
    assert ax.tolist() == [20, 30, 30, 20, 0, 10, 10, 0]
    assert by.tolist() == [0, 10, 10, 0, 0, 10, 10, 0]


def test_classifier_rejects_bad_params(square_building):
    index = index_of([])
    for threshold in (0.0, math.nan, math.inf):  # nan and inf would silently change every NLOSv label
        with pytest.raises(ValueError, match="nlosv_threshold"):
            LinkClassifier(index, nlosv_threshold=threshold)
    with pytest.raises(ValueError):
        CullingRanges(r_b=-1.0)
    with pytest.raises(ValueError):
        CullingRanges(r_b=math.nan)
    with pytest.raises(ValueError):
        CullingRanges(r_v=math.nan)


# ---------------------------------------------------------------------------
# equivalence with the brute-force reference
# ---------------------------------------------------------------------------


def _to_tuples(ego, others, buildings):
    return (
        (ego.position.x, ego.position.y),
        [(v.id, v.position.x, v.position.y) for v in others],
        [(b["id"], list(b["vertices"])) for b in buildings],
    )


def _compare_with_oracle(ego, others, buildings, r_b, r_v, threshold):
    """The classifier against the brute-force oracle: the same links,
    labels and NLOSv blockers. An NLOSb link names a building in range
    with a wall on the link; the oracle names the first such in id order,
    the classifier the nearest, so the two may differ."""
    index = index_of(buildings)
    mine = _classify_step(
        ego, others, index, ranges=CullingRanges(r_b=r_b, r_v=r_v), nlosv_threshold=threshold
    )
    e, vs, bs = _to_tuples(ego, others, buildings)
    ref = brute_force_classify(e, vs, bs, r_b, r_v, threshold)
    assert without_building_blockers(mine) == without_building_blockers(ref)
    by_id = {b["id"]: b for b in buildings}
    targets = {v.id: v.position for v in others}
    for tid, (cond, blocker) in mine.items():
        if cond == "NLOSb":
            b = by_id[blocker]
            assert building_in_range(ego.position.x, ego.position.y, b["vertices"], r_b)
            assert segment_intersects_building(ego.position, targets[tid], b["vertices"])
    return mine


coord = st.floats(0, 1000)


@settings(max_examples=40)
@given(st.data())
def test_matches_brute_force(data):
    n_b = data.draw(st.integers(0, 8), label="buildings")
    n_v = data.draw(st.integers(1, 10), label="vehicles")
    buildings = []
    for i in range(n_b):
        x0 = data.draw(coord, label=f"bx{i}")
        y0 = data.draw(coord, label=f"by{i}")
        w = data.draw(st.floats(1, 100), label=f"bw{i}")
        h = data.draw(st.floats(1, 100), label=f"bh{i}")
        buildings.append(_rect(f"b{i:02d}", x0, y0, w, h))
    ego = _veh("ego", data.draw(coord, label="ex"), data.draw(coord, label="ey"))
    others = [
        _veh(f"v{i:02d}", data.draw(coord, label=f"vx{i}"), data.draw(coord, label=f"vy{i}"))
        for i in range(n_v)
    ]
    r_b = data.draw(st.one_of(st.just(math.inf), st.floats(10, 2000)), label="r_b")
    r_v = data.draw(st.one_of(st.just(math.inf), st.floats(10, 2000)), label="r_v")
    threshold = data.draw(st.floats(0.1, 5), label="threshold")
    _compare_with_oracle(ego, others, buildings, r_b, r_v, threshold)


# 10 m grid points put many vehicles on one line through the ego, so
# NLOSv corridors are common; some points lie beyond 300 m
_fleet_point = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(lambda p: (10.0 * p[0], 10.0 * p[1]))
_float_point = st.tuples(st.floats(-400, 400), st.floats(-400, 400))


@pytest.mark.parametrize("r_v", [0.0, 300.0, math.inf], ids=["r0", "r300", "unculled"])
@settings(max_examples=40)
@given(
    ego=_fleet_point | _float_point,
    fleet=st.lists(st.tuples(st.integers(0, 999), _fleet_point | _float_point), max_size=30, unique_by=lambda v: v[0]),
)
def test_cull_on_columns_matches_sort_then_filter(r_v, ego, fleet):
    # unpadded numeric ids in random file order: "v10" sorts before "v2"
    vehicles = [(f"v{k}", x, y) for k, (x, y) in fleet]
    cols = VehicleColumns([v[0] for v in vehicles], [(x, y, 1.0, 0.0, 4.5, 1.8, 1.5) for _, x, y in vehicles])
    clf = LinkClassifier(index_of([]), CullingRanges(r_v=r_v))
    cand = clf.select_candidates(_veh("ego", *ego), cols)
    ref = sort_then_filter(ego, vehicles, r_v)
    ids, dist, vx, vy = zip(*ref) if ref else ((), (), (), ())
    assert cand.target_ids == ids
    for got, want in ((cand.distances, dist), (cand.vx, vx), (cand.vy, vy)):
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    # NLOSv blockers, as positions in the id-sorted in-range list
    _, between = clf.classify_candidates(cand)
    labels = brute_force_classify(ego, vehicles, [], math.inf, r_v, clf.nlosv_threshold)
    assert between.tolist() == [ids.index(labels[t][1]) if labels[t][0] == "NLOSv" else -1 for t in ids]


def test_small_blocks_change_nothing(monkeypatch):
    # with blocks of a few pairs, links are paired with buildings over many
    # blocks, nearest first, and a link hit in one block is done
    rng = substream(304, "test", "blocks")
    buildings = _random_city(rng, 40)
    ego = _veh("ego", 500, 500)
    others = [_veh(f"v{i:03d}", float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000))) for i in range(60)]
    index = index_of(buildings)
    whole = _classify_step(ego, others, index)
    monkeypatch.setattr(geometry, "_MAX_PAIRS", 8)
    assert _classify_step(ego, others, index) == whole
    _compare_with_oracle(ego, others, buildings, math.inf, math.inf, 1.0)


_grid = st.integers(-20, 20)
_scene_point = st.tuples(_grid, _grid).map(lambda p: (float(p[0]), float(p[1]))) | st.tuples(
    st.floats(-25, 25), st.floats(-25, 25)
)


@st.composite
def _blocker_scenes(draw):
    """Rectangles and L shapes on a 1 m grid, so that near distances tie
    and links meet walls at their ends, with an ego and targets on the grid
    or off it. An ego inside a building's box, as in the notch of an L,
    pairs that building with every link, and most of those pairs miss."""
    buildings = []
    for i in range(draw(st.integers(1, 12), label="buildings")):
        x0, y0, w, h = draw(_grid), draw(_grid), draw(st.integers(1, 12)), draw(st.integers(1, 12))
        corners = [(0, 0), (w, 0), (w, h), (0, h)]
        if w > 1 and h > 1 and draw(st.booleans(), label="L"):  # the corner (w, h) cut away
            cw, ch = draw(st.integers(1, w - 1)), draw(st.integers(1, h - 1))
            corners[2:3] = [(w, h - ch), (w - cw, h - ch), (w - cw, h)]
        fx, fy = draw(st.booleans()), draw(st.booleans())  # mirrored, so the cut may be at any corner
        verts = [(x0 + (w - u if fx else u), y0 + (h - v if fy else v)) for u, v in corners]
        buildings.append({"id": f"b{i:02d}", "vertices": verts})
    ego = draw(_scene_point, label="ego")
    targets = draw(st.lists(_scene_point, min_size=1, max_size=12), label="targets")
    r_b = draw(st.just(math.inf) | st.floats(1, 40), label="r_b")
    return buildings, ego, targets, r_b


# the link to (7.5, 13) has the bearing and reach of b2 (near 10) but
# misses it, then touches b1 (near 12) and b0 (near 13)
_FAR_HIT_SCENE = (
    [_rect("b0", -5, 13, 25, 1), _rect("b1", 0, 12, 8, 8), _rect("b2", 10, -20, 2, 40)],
    (0.0, 0.0),
    [(7.5, 13.0)],
    math.inf,
)


# links along the axes from the ego (dx = 0 or dy = 0), one along b3's
# left edge, and links that end on a corner of b0 or b1, one touching b1
# only there
_AXES_SCENE = (
    [_rect("b0", 0, 0, 3, 4), _rect("b1", 6, -2, 2, 8), _rect("b2", -9, 1, 3, 2), _rect("b3", 4, 5, 2, 2)],
    (4.0, 2.0),
    [(4.0, 10.0), (4.0, -3.0), (10.0, 2.0), (-12.0, 2.0), (8.0, 6.0), (6.0, -2.0), (3.0, 4.0)],
    math.inf,
)


@pytest.mark.parametrize("max_pairs", [geometry._MAX_PAIRS, 8], ids=["default-blocks", "blocks-of-8"])
@given(scene=_blocker_scenes())
@example(scene=_FAR_HIT_SCENE)
@example(scene=_AXES_SCENE)
def test_fresh_classifier_reports_the_first_blocker_by_near_distance(max_pairs, scene):
    buildings, ego, targets, r_b = scene
    others = [_veh(f"v{i:02d}", x, y) for i, (x, y) in enumerate(targets)]
    with patch.object(geometry, "_MAX_PAIRS", max_pairs):
        mine = _classify_step(_veh("ego", *ego), others, index_of(buildings), ranges=CullingRanges(r_b=r_b))
    bs = [(b["id"], b["vertices"]) for b in buildings]
    for v in others:
        cond, blocker = mine[v.id]
        want = first_blocker(ego, (v.position.x, v.position.y), bs, r_b)
        assert (blocker if cond == "NLOSb" else None) == want


def test_pass_tests_only_the_buildings_whose_padded_box_the_link_meets():
    # the link from (0, 0) to v at (100, 100) runs along y = x; the links to
    # w1 and w2 meet no building, but with them the links' common box holds
    # c-behind
    buildings = [
        _rect("a-side", 60, 10, 20, 10),  # in the link's box, wholly below the line
        _rect("b-graze", 50 + 5e-7, 40, 10, 10),  # misses the line by 5e-7, its padded box does not
        _rect("c-behind", -30, -30, 10, 10),  # on the line, behind the ego
        _rect("d-block", 70, 60, 10, 20),  # across the line
    ]
    index = index_of(buildings)
    tested = []
    hits = LinkClassifier._hits

    def recording(self, ego, targets, link, b):
        tested.extend(zip(link.tolist(), (index.ids[i] for i in b.tolist())))
        return hits(self, ego, targets, link, b)

    with patch.object(LinkClassifier, "_hits", recording):
        others = [_veh("v", 100.0, 100.0), _veh("w1", -40.0, 5.0), _veh("w2", 5.0, -40.0)]
        labels = _classify_step(_veh("ego", 0.0, 0.0), others, index)
    # nearest first: b-graze's padded box is 64.0 m away, d-block's 92.2 m
    assert tested == [(0, "b-graze"), (0, "d-block")]
    assert labels == {"v": ("NLOSb", "d-block"), "w1": ("LOS", None), "w2": ("LOS", None)}


def test_nlosb_set_nested_in_r_b():
    rng = substream(303, "test", "nested")
    buildings = _random_city(rng, 40)
    index = index_of(buildings)
    ego = _veh("ego", 500, 500)
    others = [
        _veh(f"v{i:03d}", float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
        for i in range(60)
    ]
    previous: set[str] = set()
    for r_b in (50.0, 150.0, 400.0, math.inf):
        res = _classify_step(ego, others, index, ranges=CullingRanges(r_b=r_b, r_v=math.inf))
        now = {tid for tid, (cond, _) in res.items() if cond == "NLOSb"}
        assert previous <= now
        previous = now


# ---------------------------------------------------------------------------
# degenerate geometry against the brute-force reference
#
# Integer coordinates make the cross products exact, so these links really
# run along walls, end on vertices and graze corners instead of missing
# them by a rounding error.
# ---------------------------------------------------------------------------

small = st.integers(-3, 30)
side = st.integers(1, 8)


def _oracle_case(ego_xy, targets, buildings, threshold=1.0):
    ego = _veh("ego", *ego_xy)
    others = [_veh(f"v{i:02d}", x, y) for i, (x, y) in enumerate(targets)]
    _compare_with_oracle(ego, others, buildings, math.inf, math.inf, threshold)


@st.composite
def grid_rects(draw, n=st.integers(1, 4)):
    return [
        _rect(f"b{i}", draw(small), draw(small), draw(side), draw(side))
        for i in range(draw(n))
    ]


@given(grid_rects(), st.integers(0, 3), st.integers(-4, 12), st.integers(-4, 12), st.integers(0, 3))
def test_link_along_a_wall(buildings, wall, s_ego, s_target, which):
    # both endpoints on the line of one wall: before, on, across or past it
    b = buildings[which % len(buildings)]
    (ax, ay), (cx, cy) = b["vertices"][wall], b["vertices"][(wall + 1) % 4]
    ux, uy = (cx - ax) / 4, (cy - ay) / 4  # exact: quarters of integer edges
    _oracle_case(
        (ax + s_ego * ux, ay + s_ego * uy),
        [(ax + s_target * ux, ay + s_target * uy), (ax + 2 * ux, ay + 2 * uy + 0.5)],
        buildings,
    )


@given(grid_rects(), st.integers(0, 3), small, small, st.booleans())
def test_link_ending_on_a_vertex(buildings, corner, x, y, ego_on_vertex):
    on, off = buildings[0]["vertices"][corner], (float(x), float(y))
    ego, target = (on, off) if ego_on_vertex else (off, on)
    _oracle_case(ego, [target], buildings)


@given(grid_rects(), st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5), st.integers(1, 5))
def test_link_grazing_a_corner(buildings, corner, dx, dy, before, after):
    # the link passes exactly through a corner of the first building
    vx, vy = buildings[0]["vertices"][corner]
    if dx == 0 and dy == 0:
        dx = 1
    _oracle_case(
        (vx - before * dx, vy - before * dy),
        [(vx + after * dx, vy + after * dy), (vx - dy, vy + dx)],
        buildings,
    )


@given(grid_rects(n=st.integers(0, 3)), small, small, st.lists(st.tuples(small, small), max_size=4))
def test_target_coincident_with_ego(buildings, x, y, more):
    _oracle_case((float(x), float(y)), [(float(x), float(y))] + more, buildings)


@given(
    st.integers(1, 40),
    st.integers(-5, 45),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 0.25]),
    st.booleans(),
)
def test_third_vehicle_on_corridor_bounds(length, along, threshold, offset_in_thr, vertical):
    # third vehicles at t = 0 and t = 1 (on the ego and on the target), at
    # a lateral offset of exactly the threshold, and at a drawn offset
    def pt(a, lateral):
        return (lateral, float(a)) if vertical else (float(a), lateral)

    targets = [
        pt(length, 0.0),
        pt(0, 0.0),
        pt(length, 0.0),
        pt(along, threshold),
        pt(along, -threshold),
        pt(along, offset_in_thr * threshold),
    ]
    _oracle_case(pt(0, 0.0), targets, [], threshold=threshold)


_CITY = buildings_to_json(make_buildings(SynthConfig(blocks=(50, 40))))


@settings(max_examples=10)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(-30, 30), st.floats(-30, 30), st.booleans())
def test_long_diagonal_link_across_a_large_city(fx, fy, jx, jy, flip):
    # one unculled link from near one corner of a 50x40-block city to near
    # the opposite one, with vehicles on the link (t = fx, fy and 0.5)
    x1 = max(v[0] for b in _CITY for v in b["vertices"])
    y1 = max(v[1] for b in _CITY for v in b["vertices"])
    ego, target = (jx, jy), (x1 - jx, y1 - jy)
    if flip:
        ego, target = (ego[0], target[1]), (target[0], ego[1])
    on_link = [
        (ego[0] + f * (target[0] - ego[0]), ego[1] + f * (target[1] - ego[1])) for f in (fx, fy, 0.5)
    ]
    others = [_veh(f"v{i}", x, y) for i, (x, y) in enumerate([target] + on_link)]
    mine = _compare_with_oracle(_veh("ego", *ego), others, _CITY, math.inf, math.inf, 1.0)
    assert mine["v0"][0] == "NLOSb"


# ---------------------------------------------------------------------------
# the closed-segment kernel against the scalar reference
#
# On a small integer grid collinear overlaps, T-junctions, shared endpoints
# and zero-length segments are common, and every product is exact.
# ---------------------------------------------------------------------------


def _kernel_vs_oracle(pairs, shared_p=False):
    seg = np.array(pairs, dtype=np.float64).reshape(-1, 8).T  # rows px, py, qx, qy, ax, ay, bx, by
    p = seg[0:2, :1] if shared_p else seg[0:2]
    got = _segment_hits(p, seg[2:4], seg[4:6], seg[6:8])
    want = [
        segments_intersect(tuple(p[:, 0 if shared_p else k]), tuple(seg[2:4, k]), tuple(seg[4:6, k]), tuple(seg[6:8, k]))
        for k in range(seg.shape[1])
    ]
    assert got.tolist() == want


@pytest.mark.parametrize(
    "pair, hit",
    [
        (((0, 0, 2, 0), (1, 0, 3, 0)), True),  # collinear overlap
        (((0, 0, 1, 0), (2, 0, 3, 0)), False),  # collinear, apart
        (((0, 0, 1, 0), (1, 0, 3, 0)), True),  # collinear, end to end
        (((0, 0, 2, 0), (1, 0, 1, 2)), True),  # T-junction
        (((0, 0, 2, 0), (1, 1, 1, 2)), False),  # T short of the bar
        (((0, 0, 1, 1), (1, 1, 2, 0)), True),  # shared endpoint
        (((0, 0, 2, 2), (0, 2, 2, 0)), True),  # proper crossing
        (((0, 0, 1, 0), (2, -1, 2, 1)), False),  # beyond the end
        (((1, 1, 1, 1), (0, 0, 2, 2)), True),  # a point on the segment
        (((1, 1, 1, 1), (1, 1, 1, 1)), True),  # the same point
        (((1, 1, 1, 1), (0, 1, 0, 3)), False),  # a point on the line, off the segment
    ],
)
def test_segment_kernel_degenerate_cases(pair, hit):
    _kernel_vs_oracle([pair])
    assert _segment_hits(*np.array(pair, dtype=np.float64).reshape(4, 2, 1)).tolist() == [hit]


_grid = st.integers(-2, 2)
_grid_segment = st.tuples(_grid, _grid, _grid, _grid)


@given(st.lists(st.tuples(_grid_segment, _grid_segment), min_size=1, max_size=40), st.booleans())
def test_segment_kernel_matches_oracle_on_a_grid(pairs, shared_p):
    # element by element; shared_p tests every pair from one point, as
    # links from the ego are
    _kernel_vs_oracle(pairs, shared_p)


# ---------------------------------------------------------------------------
# the link-box pairing near the coordinate bound
#
# Scenes sit in a corner of the coordinate range, where a metre holds few
# floats; links run straight left of the ego and to both sides of it, and
# the ego stands inside, or on the edge of, a building box.
# ---------------------------------------------------------------------------

_FAR = MAX_COORD - 1000.0
_on_or_in = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)


@given(
    corner=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    home=st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(2, 60), st.integers(2, 60)),
    at=st.tuples(_on_or_in, _on_or_in),
    others=st.lists(
        st.tuples(st.floats(-300, 300), st.floats(-300, 300), st.floats(1, 80), st.floats(1, 80)), max_size=6
    ),
    left=st.lists(st.tuples(st.floats(1, 300), st.sampled_from([0.0, 1e-9, -1e-9]) | st.floats(-3, 3)), max_size=6),
    anywhere=st.lists(st.tuples(st.floats(-400, 400), st.floats(-400, 400)), max_size=6),
)
# the ego on the right edge of b00: links left along the x axis (dy = 0), up
# and down along that edge (dx = 0), and to a corner of b02 and of b00
@example(
    corner=(1.0, -1.0),
    home=(0, 0, 10, 10),
    at=(1.0, 0.5),
    others=[(100.0, 40.0, 20.0, 20.0)],
    left=[(50.0, 0.0), (200.0, 0.0)],
    anywhere=[(10.0, 200.0), (10.0, -100.0), (100.0, 40.0), (0.0, 10.0)],
)
# the ego inside b00: links along the axes, one across b02 (dx = 0), and
# to two corners of b02, one touching b02 only there
@example(
    corner=(-1.0, 1.0),
    home=(50, 50, 60, 60),
    at=(0.5, 0.5),
    others=[(70.0, 90.0, 20.0, 5.0)],
    left=[(20.0, 0.0), (40.0, 0.0)],
    anywhere=[(80.0, 100.0), (80.0, 60.0), (90.0, 95.0), (70.0, 90.0)],
)
def test_matches_brute_force_near_the_coordinate_bound(corner, home, at, others, left, anywhere):
    ox, oy = corner[0] * _FAR, corner[1] * _FAR
    hx, hy, w, h = home
    buildings = [_rect("b00", ox + hx, oy + hy, w, h)]
    # a box across the -x axis of the ego, so bearings on both sides of +-pi meet it
    buildings.append(_rect("b01", ox + hx - 150, oy + hy + at[1] * h - 4, 20, 8))
    buildings += [_rect(f"b{i + 2:02d}", ox + x, oy + y, bw, bh) for i, (x, y, bw, bh) in enumerate(others)]
    ex, ey = ox + hx + at[0] * w, oy + hy + at[1] * h
    targets = [(ex - d, ey + e) for d, e in left] + [(ox + x, oy + y) for x, y in anywhere]
    others = [_veh(f"v{i:02d}", x, y) for i, (x, y) in enumerate(targets)]
    _compare_with_oracle(_veh("ego", ex, ey), others, buildings, math.inf, math.inf, 1.0)
