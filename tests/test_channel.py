import gc
import math
import random
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import index_of
from oracles import (
    knife_edge_branch_hp,
    los_delivery_boundary_hp,
    nlosv_extra_hp,
    nu_hp,
    pl_los_hp,
    pl_nlosb_hp,
)
from v2xemu.channel import (
    MAX_SHADOWING_STD,
    MIN_ASSESS_DISTANCE,
    RadioConfig,
    ShadowingTracker,
    fresnel_radius,
    knife_edge_loss,
    link_height_at,
    link_rx_power,
    nlosv_extra_loss,
    path_loss_los,
    path_loss_nlosb,
    update_shadowing,
    wavelength,
)
from v2xemu.config import config_from_dict
from v2xemu.geometry import LinkCondition
from v2xemu.gnss import GnssConfig, GnssTracker
from v2xemu.pipeline import Emulator
from v2xemu.rng import EpisodeTable, draws, key
from v2xemu.scenario import Position, ScenarioStep, VehicleState

FC = 5.9


# ---------------------------------------------------------------------------
# path loss formulas, pinned against the high-precision oracle
# ---------------------------------------------------------------------------


def test_pl_los_log_free_point():
    assert path_loss_los(1.0, 1.0) == pytest.approx(38.77, abs=1e-15)


def test_pl_los_pinned():
    assert path_loss_los(100.0, FC) == pytest.approx(float(pl_los_hp(100, "5.9")), abs=1e-12)
    assert path_loss_los(100.0, FC) == pytest.approx(86.19950661188702, abs=1e-9)
    assert path_loss_los(10.0, FC) == pytest.approx(69.49950661188702, abs=1e-9)


def test_pl_los_decade_slope():
    assert path_loss_los(100.0, FC) - path_loss_los(10.0, FC) == pytest.approx(16.7, abs=1e-9)


def test_pl_nlosb_log_free_point():
    assert path_loss_nlosb(1.0, 1.0) == pytest.approx(36.85, abs=1e-15)


def test_pl_nlosb_pinned():
    assert path_loss_nlosb(100.0, FC) == pytest.approx(float(pl_nlosb_hp(100, "5.9")), abs=1e-12)
    assert path_loss_nlosb(100.0, FC) == pytest.approx(111.41910302003652, abs=1e-9)
    assert path_loss_nlosb(400.0, FC) == pytest.approx(129.4809027598754, abs=1e-9)


def test_domain_errors():
    with pytest.raises(ValueError):
        path_loss_los(0.0, FC)
    with pytest.raises(ValueError):
        path_loss_nlosb(-5.0, FC)


@given(st.floats(2, 1e5), st.floats(2, 1e5))
def test_pl_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    if hi - lo < max(1e-9, hi * 1e-9):
        return
    assert path_loss_los(hi, FC) > path_loss_los(lo, FC)
    assert path_loss_nlosb(hi, FC) > path_loss_nlosb(lo, FC)


def test_nlosb_dominates_los_beyond_2m():
    for d in np.geomspace(2.0, 1e4, 300):
        assert path_loss_nlosb(float(d), FC) > path_loss_los(float(d), FC)


# ---------------------------------------------------------------------------
# knife edge / NLOSv
# ---------------------------------------------------------------------------


def test_knife_edge_zero_at_and_below_threshold():
    assert knife_edge_loss(0.7) == 0.0
    assert knife_edge_loss(0.0) == 0.0
    assert knife_edge_loss(-3.0) == 0.0


def test_knife_edge_branch_point_from_above():
    just_above = math.nextafter(0.7, math.inf)
    expected = float(knife_edge_branch_hp("0.7"))
    assert expected == pytest.approx(11.840750293771823, abs=1e-12)
    assert knife_edge_loss(just_above) == pytest.approx(expected, abs=1e-9)


@given(st.floats(0.701, 100) | st.floats(1e150, 1e308))
@example(1.5e154)  # (nu - 0.1) ** 2 is beyond the float range
@example(1e308)  # the loss is +inf
def test_knife_edge_increases(nu):
    step = max(nu * 1e-6, 1e-6)
    loss = knife_edge_loss(nu)
    assert knife_edge_loss(nu + step) > loss or loss == knife_edge_loss(nu + step) == math.inf


def test_wavelength_pinned():
    assert wavelength(FC) == pytest.approx(0.05081228101694915, abs=1e-15)


def test_fresnel_radius_pinned():
    assert fresnel_radius(wavelength(FC), 50.0, 50.0) == pytest.approx(
        1.1270789792307054, abs=1e-12
    )


def test_fresnel_radius_domain():
    with pytest.raises(ValueError):
        fresnel_radius(0.05, 0.0, 50.0)
    with pytest.raises(ValueError):
        nlosv_extra_loss(3.0, 1.5, -1.0, 50.0, FC)
    with pytest.raises(ValueError):
        fresnel_radius(0.05, 50.0, math.nan)


def test_nlosv_zero_when_blocker_below_link():
    assert nlosv_extra_loss(1.2, 1.5, 50.0, 50.0, FC) == 0.0


def test_nlosv_at_a_fresnel_radius_that_underflows_to_zero():
    # the limit of nu: +inf above the link, -inf below it, 0 on it
    assert fresnel_radius(wavelength(FC), 5e-324, 1.0) == 0.0
    assert nlosv_extra_loss(1.7, 1.6, 5e-324, 1.0, FC) == math.inf
    assert nlosv_extra_loss(1.5, 1.6, 5e-324, 1.0, FC) == 0.0
    assert nlosv_extra_loss(1.6, 1.6, 1.0, 5e-324, FC) == 0.0


def test_nlosv_subcritical_example():
    # H = 0.5 m at the midpoint of a 100 m link: nu stays below 0.7
    nu = float(nu_hp("0.5", 0, 50, 50, "5.9"))
    assert nu == pytest.approx(0.6273799744443709, abs=1e-12)
    assert nlosv_extra_loss(2.0, 1.5, 50.0, 50.0, FC) == 0.0


def test_nlosv_truck_blocker_matches_oracle():
    mine = nlosv_extra_loss(3.2, 1.6, 50.0, 50.0, FC)
    ref = float(nlosv_extra_hp("3.2", "1.6", 50, 50, "5.9"))
    assert mine == pytest.approx(ref, abs=1e-9)
    assert mine > 6.9


def test_link_height_interpolation():
    assert link_height_at(1.6, 1.6, 30.0, 70.0) == pytest.approx(1.6)
    assert link_height_at(1.0, 3.0, 50.0, 50.0) == pytest.approx(2.0)
    assert link_height_at(1.0, 3.0, 25.0, 75.0) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# shadowing
# ---------------------------------------------------------------------------


def test_update_shadowing_zero_displacement_keeps_value():
    assert update_shadowing(1.234, 0.0, noise=5.0, std=3.0, d_corr=10.0) == 1.234


def test_update_shadowing_large_displacement_is_fresh():
    out = update_shadowing(100.0, 1e9, noise=0.5, std=3.0, d_corr=10.0)
    assert out == pytest.approx(1.5, abs=1e-12)


def test_tracker_statistics():
    tracker = ShadowingTracker(seed=5, std=3.0, d_corr=10.0)
    n = 20_000
    values = np.empty(n)
    for i in range(n):
        values[i] = tracker.update_links(("v1",), 0.0, 0.0, (10.0 * (i + 1),), (0.0,), float(i))[0]
    assert values.std() == pytest.approx(3.0, abs=0.15)
    centered = values - values.mean()
    lag1 = float(centered[:-1] @ centered[1:] / ((n - 1) * centered.var()))
    assert lag1 == pytest.approx(math.exp(-1.0), abs=0.05)


def test_tracker_links_do_not_interact():
    a = ShadowingTracker(seed=9, std=3.0, d_corr=10.0)
    b = ShadowingTracker(seed=9, std=3.0, d_corr=10.0)
    seq_a = [a.update_links(("x",), 0.0, 0.0, (5.0 * i,), (0.0,), float(i))[0] for i in range(10)]
    # same tracker but each step also updates a second link
    out = [b.update_links(("noise", "x"), 0.0, 0.0, (0.0, 5.0 * i), (3.0 * i, 0.0), float(i))[1] for i in range(10)]
    assert out == seq_a


def _no_links(tracker, t):
    """A call of ``tracker`` at ``t`` that updates no link, so only evicts."""
    tracker.update_links((), 0.0, 0.0, (), (), t)


def test_tracker_eviction_reinitializes():
    t1 = ShadowingTracker(seed=3, std=3.0, d_corr=10.0, eviction_s=5.0)
    first = t1.update_links(("v",), 0.0, 0.0, (10.0,), (0.0,), 0.0)[0]
    _no_links(t1, 100.0)
    assert "v" not in t1._state
    again = t1.update_links(("v",), 0.0, 0.0, (10.0,), (0.0,), 100.5)[0]
    # fresh stationary sample from the stream of a new episode, not a
    # continuation of the old value and not a repeat of the first
    assert again != first


def _holds(tracker, key) -> bool:
    """Whether any container attribute of ``tracker`` holds ``key``, or a
    tuple item of one."""
    containers = [v for v in vars(tracker).values() if isinstance(v, (dict, set, list, tuple))]
    return any(key in v or any(isinstance(e, tuple) and key in e for e in v) for v in containers)


def test_tracker_eviction_leaves_nothing_of_the_link_behind():
    tracker = ShadowingTracker(seed=3, std=3.0, d_corr=10.0, eviction_s=5.0)
    tracker.update_links(("v",), 0.0, 0.0, (10.0,), (0.0,), 0.0)
    tracker.update_links(("w",), 0.0, 0.0, (20.0,), (0.0,), 4.0)
    _no_links(tracker, 6.0)
    assert not _holds(tracker, "v")
    assert _holds(tracker, "w")


def test_tracker_episode_draws_from_its_own_stream():
    # each episode's first value is the first draw of the episode keyed by
    # the link's id and the time it was first seen
    tracker = ShadowingTracker(seed=3, std=3.0, d_corr=10.0, eviction_s=5.0)
    (first,), (z,) = tracker.update_links(("v",), 0.0, 0.0, (10.0,), (0.0,), 0.0), draws((key(3, "shadow", "v", 0.0),), (0,))[0]
    assert first == 3.0 * z
    _no_links(tracker, 100.0)
    (again,), (z,) = tracker.update_links(("v",), 0.0, 0.0, (10.0,), (0.0,), 100.5), draws((key(3, "shadow", "v", 100.5),), (0,))[0]
    assert again == 3.0 * z


def test_tracker_refuses_a_time_not_after_its_last_call():
    tracker = ShadowingTracker(seed=3, std=3.0, d_corr=10.0, eviction_s=5.0)
    tracker.update_links(("v", "w"), 0.0, 0.0, (10.0, 20.0), (0.0, 0.0), 1.0)
    tracker.update_links(("v",), 0.0, 0.0, (15.0,), (0.0,), 5.5)  # w comes due after 6 s
    before = dict(tracker._state)
    for t in (5.5, 5.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"time {t} is not after the last update at 5\.5"):
            tracker.update_links(("v", "x"), 0.0, 0.0, (15.0, 30.0), (0.0, 0.0), t)
        assert tracker._state == before and list(tracker._state) == ["w", "v"]
    # the next call at a later time is served as if the refused ones were not
    (value,), (z,) = tracker.update_links(("x",), 0.0, 0.0, (30.0,), (0.0,), 6.5), draws((key(3, "shadow", "x", 6.5),), (0,))[0]
    assert value == 3.0 * z
    assert list(tracker._state) == ["v", "x"]


@pytest.mark.parametrize("eviction_s", [math.nan, -5.0, -math.inf])
def test_tracker_rejects_bad_eviction_horizon(eviction_s):
    # a nan horizon would evict nothing, so memory would grow without bound
    with pytest.raises(ValueError, match="eviction_s"):
        ShadowingTracker(seed=3, std=3.0, d_corr=10.0, eviction_s=eviction_s)


def test_tracker_memory_stays_flat_as_ids_come_and_go():
    # 10 new ids per 0.1 s step, each seen once: the shadowing keeps the
    # last 5 s of ids and the GNSS the last 20 * t_corr = 20 s, so both
    # tables are full after 2010 ids and stay at that size
    shadow = ShadowingTracker(seed=1, std=3.0, d_corr=10.0, eviction_s=5.0)
    gnss = GnssTracker(seed=1, cfg=GnssConfig(t_corr=1.0))

    def churn(first_step, last_step):
        for k in range(first_step, last_step):
            t = k / 10
            vids = [f"v{k}-{i}" for i in range(10)]
            shadow.update_links(vids, 0.0, 0.0, (10.0,) * 10, (0.0,) * 10, t)
            gnss.errors_at(vids, t)

    tracemalloc.start()
    try:
        churn(0, 205)
        full = tracemalloc.get_traced_memory()[0]
        churn(205, 305)  # 1000 more ids
        grown = tracemalloc.get_traced_memory()[0] - full
    finally:
        tracemalloc.stop()
    assert (len(shadow._state), len(gnss._state)) == (510, 2010)
    # state kept for good would be about 2.7 KB per id, 2.7 MB for these 1000
    assert grown < 2e5, f"{full / 1e6:.2f} MB after 2050 ids, {grown / 1e6:.2f} MB more after 3050"


def test_tracker_entries_are_not_tracked_by_the_collector():
    # an entry holds only floats, an int key and an int count, so once a
    # collection has run, no later collection scans it
    shadow = ShadowingTracker(seed=1, std=3.0, d_corr=10.0)
    gnss = GnssTracker(seed=1, cfg=GnssConfig())
    vids = [f"v{i}" for i in range(50)]
    for t in (0.0, 0.1):
        shadow.update_links(vids, 0.0, 0.0, [10.0 + i for i in range(50)], (0.0,) * 50, t)
        gnss.errors_at(vids, t)
    gc.collect()
    entries = [*shadow._state.values(), *gnss._state.values()]
    assert len(entries) == 100
    assert not any(gc.is_tracked(entry) for entry in entries)


def test_long_churn_adds_no_object_for_the_collector_to_scan():
    # 400 s at the default horizons (60 s shadowing, 200 s GNSS): 10 new
    # ids per 0.1 s step, each live for 9 steps, so 90 live links a step,
    # all through both trackers. What a full collection scans must not
    # grow with the ids the trackers hold
    place = random.Random(16)
    shadow = ShadowingTracker(seed=2, std=3.0, d_corr=10.0)
    gnss = GnssTracker(seed=2, cfg=GnssConfig())
    live: list = []
    gc.collect()
    before = len(gc.get_objects())
    for k in range(4000):
        t = k / 10
        live = live[10:] + [(f"v{k}-{i}", place.uniform(-300, 300), place.uniform(-300, 300)) for i in range(10)]
        vids, xs, ys = zip(*live)
        shadow.update_links(vids, 10.0 * t, 0.0, xs, ys, t)
        gnss.errors_at(vids, t)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(shadow._state) > 6000 and len(gnss._state) > 20000
    # entries holding a numpy generator each added about 4400 per 1000 ids
    assert grown / 40 < 5, f"{grown} more tracked objects after 40000 ids"


def _scan_evict(table: EpisodeTable, cutoff: float) -> None:
    """Eviction by a scan of the whole table: every entry last updated
    before ``cutoff``, its third item from the end."""
    state = table._state
    for k in [k for k, entry in state.items() if entry[-3] < cutoff]:
        del state[k]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sets(st.sampled_from(["a", "b", "c"])), st.integers(1, 4)), max_size=100))
# a link seen again inside the horizon, then left to expire
@example([({"a"}, 1), (set(), 4), ({"a"}, 1), (set(), 4), (set(), 4), (set(), 4)])
# links updated in one order, then expiring one call apart
@example([({"a", "b"}, 1), ({"c"}, 1), ({"a"}, 4), (set(), 4), (set(), 4), (set(), 4)])
def test_eviction_matches_a_full_scan(schedule):
    # three ids and horizons of 2 and 2.5 s, with time moving on by 0.25
    # to 1 s a call: ids are often seen again after they expired, or just
    # before. The reference trackers evict by a scan of their whole table,
    # after each call's update
    shadow, shadow_ref = (ShadowingTracker(seed=5, std=3.0, d_corr=10.0, eviction_s=2.0) for _ in range(2))
    gnss, gnss_ref = (GnssTracker(seed=5, cfg=GnssConfig(t_corr=0.125)) for _ in range(2))
    t, last = 0.0, {}
    for vids, dt in schedule:
        t += dt / 4
        vids = sorted(vids)
        xs, ys = [t] * len(vids), [1.0] * len(vids)
        got = shadow.update_links(vids, 0.0, 0.0, xs, ys, t), gnss.errors_at(vids, t)
        with patch.object(EpisodeTable, "_evict", _scan_evict):
            assert got == (shadow_ref.update_links(vids, 0.0, 0.0, xs, ys, t), gnss_ref.errors_at(vids, t))
        assert shadow._state == shadow_ref._state and gnss._state == gnss_ref._state
        # each table lists its ids in order of last update
        last.update(dict.fromkeys(vids, t))
        for tracker in (shadow, gnss):
            assert [last[vid] for vid in tracker._state] == sorted(last[vid] for vid in tracker._state)


def test_tracker_determinism():
    def run():
        t = ShadowingTracker(seed=11, std=3.0, d_corr=10.0)
        return [t.update_links(("v",), 0.0, 0.0, (2.0 * i,), (0.0,), float(i))[0] for i in range(50)]

    assert run() == run()


# ---------------------------------------------------------------------------
# received power per link
# ---------------------------------------------------------------------------


def _radio(**kw):
    kw.setdefault("tx_power", 23.0)
    kw.setdefault("sensitivity", -82.0)
    kw.setdefault("carrier_freq", FC)
    return RadioConfig(**kw)


def _rx(condition, d2d, shadow=0.0, d1=math.nan, d2=math.nan, h_blocker=math.nan):
    """rx_power of a single link, both antennas at 1.6 m."""
    return link_rx_power(_radio(), condition, d2d, 1.6, 1.6, d1, d2, h_blocker, shadow)


def test_assess_los_pinned():
    rx = _rx(LinkCondition.LOS, 100.0)
    assert rx == pytest.approx(23.0 - float(pl_los_hp(100, "5.9")), abs=1e-9)
    assert rx == pytest.approx(-63.19950661188702, abs=1e-9)
    assert rx >= -82.0


def test_assess_nlosb_pinned_not_delivered():
    rx = _rx(LinkCondition.NLOSB, 400.0)
    assert rx == pytest.approx(23.0 - float(pl_nlosb_hp(400, "5.9")), abs=1e-9)
    assert rx == pytest.approx(-106.4809027598754, abs=1e-9)
    assert rx < -82.0


def test_assess_nlosv_adds_extra_loss():
    plain = _rx(LinkCondition.LOS, 100.0)
    blocked = _rx(LinkCondition.NLOSV, 100.0, d1=50.0, d2=50.0, h_blocker=3.2)
    extra = nlosv_extra_loss(3.2, 1.6, 50.0, 50.0, FC)
    assert extra > 0.0
    assert blocked == pytest.approx(plain - extra, abs=1e-12)


def test_assess_nlosv_requires_blocker():
    with pytest.raises(ValueError):
        _rx(LinkCondition.NLOSV, 100.0)  # d1/d2 left nan


@given(
    st.floats(1, 1e4),
    st.floats(-20, 20),
    st.sampled_from([LinkCondition.LOS, LinkCondition.NLOSB]),
)
def test_budget_identity(d, shadow, condition):
    pl = path_loss_nlosb(d, FC) if condition is LinkCondition.NLOSB else path_loss_los(d, FC)
    assert _rx(condition, d, shadow=shadow) == 23.0 - pl - shadow


def test_los_delivery_boundary_pinned():
    d_star = float(los_delivery_boundary_hp(23, -82, "5.9"))
    assert d_star == pytest.approx(1335.912603577917, abs=1e-6)
    assert _rx(LinkCondition.LOS, d_star * 0.999) >= -82.0
    assert _rx(LinkCondition.LOS, d_star * 1.001) < -82.0


# From vehicle states through Emulator.step: antenna heights, the 3D
# distance floor and the blocker split come from the trace.


def _veh(vid, x, y, height=1.5):
    return VehicleState(id=vid, position=Position(x, y), speed=0.0, heading=0.0, height=height)


def _step(*others, **config):
    config = config_from_dict({"shadowing_std": 0.0, "antenna_height_offset": 0.1, **config})
    return Emulator(config, index_of([])).step(ScenarioStep(timestamp=0.0, ego=_veh("e", 0, 0), others=others))


def _step_rx(*others):
    res = _step(*others)
    return dict(zip(res.target_ids, zip(res.conditions, res.rx_power.tolist())))


def test_assess_boundary_delivered():
    rx = _rx(LinkCondition.LOS, 100.0)
    at = _step(_veh("v", 100, 0), sensitivity=rx)
    assert at.rx_power.tolist() == [rx]
    assert [m.sender_id for m in at.messages] == ["v"]  # rx == sensitivity counts as received
    assert _step(_veh("v", 100, 0), sensitivity=math.nextafter(rx, 0.0)).messages == ()


def test_budget_from_states_flat_link():
    # same heights: the 3D distance equals the 2D one
    assert _step_rx(_veh("v", 100, 0)) == {"v": (LinkCondition.LOS, _rx(LinkCondition.LOS, 100.0))}


def test_budget_from_states_antenna_height_difference():
    ((_, rx),) = _step_rx(_veh("v", 30, 0, height=3.2)).values()
    d3d = math.hypot(30.0, 1.7)
    assert rx == pytest.approx(23.0 - path_loss_los(d3d, FC), abs=1e-12)


def test_budget_from_states_floors_tiny_distance():
    ((_, rx),) = _step_rx(_veh("v", 0.05, 0)).values()
    assert rx == 23.0 - path_loss_los(MIN_ASSESS_DISTANCE, FC)


def test_budget_from_states_nlosv_geometry():
    got = _step_rx(_veh("v", 100, 0), _veh("t", 40, 0.2, height=3.2))
    cond, rx = got["v"]
    assert cond is LinkCondition.NLOSV
    # antennas at 1.6 m on both ends; the blocker projects 40 m along
    expected_extra = nlosv_extra_loss(3.2, 1.6, 40.0, 60.0, FC)
    assert expected_extra > 0.0
    assert rx == pytest.approx(23.0 - path_loss_los(100.0, FC) - expected_extra, abs=1e-9)


def test_budget_from_states_nlosv_split_runs_from_the_ego():
    # the target's antenna is higher than the ego's, so the link's height
    # at the blocker depends on which end the blocker is nearer
    got = _step_rx(_veh("v", 100, 0, height=4.0), _veh("t", 40, 0.2, height=3.9))
    cond, rx = got["v"]
    assert cond is LinkCondition.NLOSV
    d3d = math.hypot(100.0, 2.5)
    extra = nlosv_extra_loss(3.9, 1.6 + 2.5 * 0.4, 40.0, 60.0, FC)
    swapped = nlosv_extra_loss(3.9, 1.6 + 2.5 * 0.6, 60.0, 40.0, FC)
    assert extra - swapped > 1.0
    assert rx == pytest.approx(23.0 - path_loss_los(d3d, FC) - extra, abs=1e-9)


def test_step_prices_each_link_in_target_id_order():
    # "a" behind a building, "b" in the open, "c" behind "d"
    wall = index_of([{"id": "w", "vertices": [(200, -5), (220, -5), (220, 15), (200, 15)]}])
    config = config_from_dict({"shadowing_std": 0.0, "antenna_height_offset": 0.1})
    others = (_veh("d", -40, 0.2, height=2.6), _veh("c", -100, 0), _veh("b", 0, 100), _veh("a", 400, 0))
    res = Emulator(config, wall).step(ScenarioStep(timestamp=0.0, ego=_veh("e", 0, 0), others=others))
    assert res.target_ids == ("a", "b", "c", "d")
    assert res.conditions == (LinkCondition.NLOSB, LinkCondition.LOS, LinkCondition.NLOSV, LinkCondition.LOS)
    assert res.rx_power.dtype == np.float64
    expected = [
        _rx(LinkCondition.NLOSB, 400.0),
        _rx(LinkCondition.LOS, 100.0),
        _rx(LinkCondition.NLOSV, 100.0, d1=40.0, d2=60.0, h_blocker=2.6),
        23.0 - path_loss_los(math.hypot(math.hypot(40.0, 0.2), 1.1), FC),  # antennas at 1.6 m and 2.7 m
    ]
    assert res.rx_power.tolist() == pytest.approx(expected, abs=1e-9)
    delivered = [tid for tid, rx in zip(res.target_ids, res.rx_power.tolist()) if rx >= -82.0]
    assert delivered == ["b", "c", "d"]
    assert [(m.sender_id, m.condition, m.rx_power) for m in res.messages] == [
        (tid, res.conditions[i], res.rx_power[i]) for i, tid in enumerate(res.target_ids) if tid in delivered
    ]


def test_radio_config_validation():
    # TR 38.901 states its models, and so the path-loss fits, for 0.5-100 GHz
    for fc in (0.0, 1e-9, 101.0, math.nan):
        with pytest.raises(ValueError, match="carrier_freq"):
            RadioConfig(carrier_freq=fc)
    for fc in (0.5, 100.0):
        assert RadioConfig(carrier_freq=fc).carrier_freq == fc
    with pytest.raises(ValueError):
        RadioConfig(shadowing_std=-1.0)
    with pytest.raises(ValueError):
        RadioConfig(decorrelation_distance=0.0)
    # a larger std could shadow a link to an infinite received power
    assert RadioConfig(shadowing_std=MAX_SHADOWING_STD).shadowing_std == 1e9
    for std in (1.000001e9, 1e308):
        with pytest.raises(ValueError, match=rf"^shadowing_std must be within \[0, 1e\+09\] dB, got {re.escape(str(std))}$"):
            RadioConfig(shadowing_std=std)
    # every field finite: nan passed the sign checks and then a run
    # delivered nothing
    for key, value in (
        ("shadowing_std", math.nan),
        ("decorrelation_distance", math.nan),
        ("decorrelation_distance", math.inf),
        ("tx_power", math.nan),
        ("tx_power", math.inf),
        ("sensitivity", math.inf),
        ("sensitivity", -math.inf),
    ):
        with pytest.raises(ValueError, match=key):
            RadioConfig(**{key: value})
