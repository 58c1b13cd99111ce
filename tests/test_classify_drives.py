"""A classifier kept for a whole drive against a fresh one per step.

The kept classifier carries each NLOSb link's blocker to the next step as
a first guess. Labels and NLOSv blockers must not depend on that history:
they must equal what a fresh classifier gives for the same step. Only the
reported NLOSb building may differ, and it must still be culled and touch
its link.
"""
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import columns_of, index_of
from oracles import segment_intersects_building
from v2xemu import geometry
from v2xemu.geometry import CullingRanges, LinkClassifier
from v2xemu.scenario import Position, VehicleState


def _veh(vid, x, y):
    return VehicleState(id=vid, position=Position(x, y), speed=0.0, heading=0.0)


def _rect(bid, x0, y0, w, h):
    return {"id": bid, "vertices": [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]}


def _check_drive(buildings, drive, r_b, r_v=math.inf, threshold=1.0):
    """Classify ``drive``, a list of (ego (x, y), [(id, x, y), ...]) steps,
    with one kept classifier and a fresh one per step, and compare."""
    index = index_of(buildings)
    vertices = {b["id"]: b["vertices"] for b in buildings}
    ranges = CullingRanges(r_b=r_b, r_v=r_v)
    kept = LinkClassifier(index, ranges, threshold)
    for ego_xy, others in drive:
        ego = _veh("ego", *ego_xy)
        vehicles = columns_of(_veh(vid, x, y) for vid, x, y in others)
        cand = kept.select_candidates(ego, vehicles)
        hit, between = kept.classify_candidates(cand)
        fresh = LinkClassifier(index, ranges, threshold)
        want_hit, want_between = fresh.classify_candidates(fresh.select_candidates(ego, vehicles))
        assert (hit >= 0).tolist() == (want_hit >= 0).tolist()
        assert between.tolist() == want_between.tolist()
        culled = set(cand.building_indices.tolist())
        for tid, x, y, b in zip(cand.target_ids, cand.vx.tolist(), cand.vy.tolist(), hit.tolist()):
            if b >= 0:
                assert b in culled
                assert segment_intersects_building(ego.position, Position(x, y), vertices[index.ids[b]])
        # the hints are this step's NLOSb links and nothing else
        assert kept._hints == {tid: b for tid, b in zip(cand.target_ids, hit.tolist()) if b >= 0}


# ---------------------------------------------------------------------------
# one case per way a hint can go stale
# ---------------------------------------------------------------------------

WALL = _rect("wall", 10, -5, 2, 10)  # across the x axis between x = 10 and 12
SIDE = _rect("side", 10, 20, 2, 10)
NEAR = _rect("near", -20, 10, 2, 2)  # off both links, within 25 m of both egos below


def test_a_kept_blocker_is_reported_again():
    index = index_of([WALL, SIDE])
    clf = LinkClassifier(index)
    for x in (30.0, 31.0, 32.0):
        cand = clf.select_candidates(_veh("ego", 0, 0), columns_of([_veh("v", x, 0)]))
        hit, _ = clf.classify_candidates(cand)
        assert hit.tolist() == [index.ids.index("wall")]
    assert clf._hints == {"v": index.ids.index("wall")}


def test_a_link_that_leaves_its_blocker_is_classified_afresh():
    # blocked, then the target swings round to where nothing blocks it,
    # then behind the other building
    _check_drive([WALL, SIDE], [((0, 0), [("v", 30, 0)]), ((0, 0), [("v", 0, 30)]), ((0, 0), [("v", 22, 44)])], math.inf)


def test_an_ego_that_teleports():
    _check_drive([WALL, SIDE], [((0, 0), [("v", 30, 0)]), ((40, 0), [("v", 30, 0)]), ((11, 50), [("v", 11, 0)])], math.inf)


def test_an_id_that_comes_back_elsewhere():
    # "v" leaves for a step, and "w" takes its place behind the wall
    _check_drive(
        [WALL, SIDE],
        [((0, 0), [("v", 30, 0)]), ((0, 0), [("w", 30, 0)]), ((0, 0), [("v", 0, -30), ("w", 30, 0)])],
        math.inf,
    )


def test_a_hinted_building_that_leaves_r_b():
    # the wall blocks the link, then the ego backs off until the wall's
    # nearest vertex is beyond r_b: the link is LOS, as a fresh classifier
    # says, though the wall still crosses it
    drive = [((0, 0), [("v", 30, 0)]), ((-15, 0), [("v", 30, 0)])]
    _check_drive([WALL, NEAR], drive, r_b=25.0)
    index = index_of([WALL, NEAR])
    clf = LinkClassifier(index, CullingRanges(r_b=25.0))
    for (ego, others), culled, hit in zip(drive, (["near", "wall"], ["near"]), (["wall"], [])):
        cand = clf.select_candidates(_veh("ego", *ego), columns_of(_veh(*o) for o in others))
        assert [index.ids[b] for b in cand.building_indices] == culled
        assert [index.ids[b] for b in clf.classify_candidates(cand)[0] if b >= 0] == hit


def test_a_degenerate_link_takes_no_hint():
    # the target sits on the ego, which sits on the wall: no building
    # test runs on a link that short, with or without a hint
    _check_drive([WALL], [((0, 0), [("v", 30, 0)]), ((10, 0), [("v", 10, 0)]), ((0, 0), [("v", 30, 0)])], math.inf)


def test_many_hints_in_blocks_of_8(monkeypatch):
    # a row of walls, each blocking a fan of links: every link carries its
    # blocker, so the hint test alone spans many blocks; then the ego
    # steps aside and half of the hints go stale at once
    monkeypatch.setattr(geometry, "_MAX_PAIRS", 8)
    walls = [_rect(f"w{i}", 10, 20 * i - 5, 2, 10) for i in range(6)]
    others = [(f"v{i}{j}", 30, 20 * i + j - 2) for i in range(6) for j in range(5)]
    _check_drive(walls, [((0, 20 * i), others) for i in (0, 0, 1, 1, 0)] + [((0, 7), others)], math.inf)


def test_every_carried_blocker_is_kept_over_a_nearer_one(monkeypatch):
    # each link crosses two walls; once the ego and the targets swap sides
    # the other wall is nearer, but every link, in every block of the hint
    # test, reports the wall it carried
    monkeypatch.setattr(geometry, "_MAX_PAIRS", 8)
    index = index_of([_rect("a", 10, -50, 2, 100), _rect("b", 30, -50, 2, 100)])
    clf = LinkClassifier(index)
    for ego_x, target_x in ((-10, 60), (60, -10)):
        cand = clf.select_candidates(_veh("ego", ego_x, 0), columns_of(_veh(f"v{i:02}", target_x, i) for i in range(12)))
        assert [index.ids[b] for b in clf.classify_candidates(cand)[0]] == ["a"] * 12


# ---------------------------------------------------------------------------
# random drives
# ---------------------------------------------------------------------------

small = st.integers(-3, 30)
side = st.integers(1, 8)
point = st.tuples(small, small).map(lambda p: (float(p[0]), float(p[1])))
IDS = ("a", "b", "c", "d", "e")


@st.composite
def drives(draw):
    """A city of grid rectangles and a drive over it. Each step every
    vehicle stays, moves a metre, jumps anywhere or is absent, and the ego
    stays, moves or jumps; integer coordinates put links along walls and
    through vertices, and a vehicle may sit on the ego."""
    buildings = [_rect(f"b{i}", draw(small), draw(small), draw(side), draw(side)) for i in range(draw(st.integers(1, 5)))]
    ego = draw(point)
    where = {vid: draw(point) for vid in IDS}
    drive = []
    nudge = st.sampled_from(((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
    for _ in range(draw(st.integers(1, 6))):
        move = draw(st.sampled_from(("stay", "nudge", "jump")))
        if move == "nudge":
            dx, dy = draw(nudge)
            ego = (ego[0] + dx, ego[1] + dy)
        elif move == "jump":
            ego = draw(point)
        others = []
        for vid in IDS:
            move = draw(st.sampled_from(("stay", "nudge", "jump", "absent", "on-ego")))
            if move == "absent":
                continue
            if move == "nudge":
                dx, dy = draw(nudge)
                where[vid] = (where[vid][0] + dx, where[vid][1] + dy)
            elif move == "jump":
                where[vid] = draw(point)
            elif move == "on-ego":
                where[vid] = ego
            others.append((vid, *where[vid]))
        drive.append((ego, others))
    return buildings, drive


@pytest.mark.parametrize("max_pairs", [None, 8], ids=["default-blocks", "blocks-of-8"])
@given(
    drives(),
    st.sampled_from((math.inf, 4.0, 12.0, 25.0)),
    st.sampled_from((math.inf, 20.0)),
    st.sampled_from((0.5, 1.0, 3.0)),
)
@example(([WALL, NEAR], [((0, 0), [("a", 30, 0)]), ((-15, 0), [("a", 30, 0)])]), 25.0, math.inf, 1.0)
def test_kept_classifier_matches_a_fresh_one_per_step(max_pairs, drive, r_b, r_v, threshold):
    buildings, steps = drive
    with pytest.MonkeyPatch.context() as mp:
        if max_pairs is not None:
            mp.setattr(geometry, "_MAX_PAIRS", max_pairs)
        _check_drive(buildings, steps, r_b, r_v, threshold)
