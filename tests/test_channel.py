import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    knife_edge_branch_hp,
    los_delivery_boundary_hp,
    nlosv_extra_hp,
    nu_hp,
    pl_los_hp,
    pl_nlosb_hp,
)
from v2xemu.channel import (
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
from v2xemu.geometry import LinkCondition, SpatialIndex
from v2xemu.pipeline import Emulator
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


@given(st.floats(0.701, 100))
def test_knife_edge_increases(nu):
    step = max(nu * 1e-6, 1e-6)
    assert knife_edge_loss(nu + step) > knife_edge_loss(nu)


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
        values[i] = tracker.update("v1", 0.0, 0.0, 10.0 * (i + 1), 0.0, float(i))
    assert values.std() == pytest.approx(3.0, abs=0.15)
    centered = values - values.mean()
    lag1 = float(centered[:-1] @ centered[1:] / ((n - 1) * centered.var()))
    assert lag1 == pytest.approx(math.exp(-1.0), abs=0.05)


def test_tracker_links_do_not_interact():
    a = ShadowingTracker(seed=9, std=3.0, d_corr=10.0)
    b = ShadowingTracker(seed=9, std=3.0, d_corr=10.0)
    seq_a = [a.update("x", 0.0, 0.0, 5.0 * i, 0.0, float(i)) for i in range(10)]
    # same tracker but interleaved with updates of a second link
    out = []
    for i in range(10):
        b.update("noise", 0.0, 0.0, 0.0, 3.0 * i, float(i))
        out.append(b.update("x", 0.0, 0.0, 5.0 * i, 0.0, float(i)))
    assert out == seq_a


def test_tracker_eviction_reinitializes():
    t1 = ShadowingTracker(seed=3, std=3.0, d_corr=10.0, eviction_s=5.0)
    first = t1.update("v", 0.0, 0.0, 10.0, 0.0, 0.0)
    t1.evict_stale(100.0)
    assert "v" not in t1._state
    again = t1.update("v", 0.0, 0.0, 10.0, 0.0, 100.0)
    # fresh stationary sample from the next draw of the link's stream,
    # not a continuation of the old value and not a repeat of the first
    assert again != first


def test_tracker_determinism():
    def run():
        t = ShadowingTracker(seed=11, std=3.0, d_corr=10.0)
        return [t.update("v", 0.0, 0.0, 2.0 * i, 0.0, float(i)) for i in range(50)]

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
    (rx,) = link_rx_power(
        _radio(),
        conditions=[condition],
        distance_2d=np.array([d2d]),
        h_ego=1.6,
        h_target=np.array([1.6]),
        d1=np.array([d1]),
        d2=np.array([d2]),
        h_blocker=np.array([h_blocker]),
        shadow_db=[shadow],
    )
    return float(rx)


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


def test_rx_power_one_entry_per_link_in_order():
    conditions = [LinkCondition.NLOSB, LinkCondition.LOS, LinkCondition.NLOSV]
    nan = math.nan
    rx = link_rx_power(
        _radio(),
        conditions=conditions,
        distance_2d=np.array([400.0, 100.0, 100.0]),
        h_ego=1.6,
        h_target=np.array([1.6, 1.6, 1.6]),
        d1=np.array([nan, nan, 50.0]),
        d2=np.array([nan, nan, 50.0]),
        h_blocker=np.array([nan, nan, 3.2]),
        shadow_db=[0.0, 1.5, 0.0],
    )
    assert rx.tolist() == [
        _rx(LinkCondition.NLOSB, 400.0),
        _rx(LinkCondition.LOS, 100.0, shadow=1.5),
        _rx(LinkCondition.NLOSV, 100.0, d1=50.0, d2=50.0, h_blocker=3.2),
    ]
    assert link_rx_power(
        _radio(),
        conditions=(),
        distance_2d=np.empty(0),
        h_ego=1.6,
        h_target=np.empty(0),
        d1=np.empty(0),
        d2=np.empty(0),
        h_blocker=np.empty(0),
        shadow_db=[],
    ).shape == (0,)


# From vehicle states through Emulator.step: antenna heights, the 3D
# distance floor and the blocker split come from the trace.


def _veh(vid, x, y, height=1.5):
    return VehicleState(id=vid, position=Position(x, y), speed=0.0, heading=0.0, height=height)


def _step(*others, **config):
    config = config_from_dict({"shadowing_std": 0.0, "antenna_height_offset": 0.1, **config})
    return Emulator(config, SpatialIndex([])).step(ScenarioStep(timestamp=0.0, ego=_veh("e", 0, 0), others=others))


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
