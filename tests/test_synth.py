import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import city_diagonal, reference_city, reference_fleet

from v2xemu.scenario import Position, VehicleColumns, VehicleState, buildings_to_json, step_to_line
from v2xemu.synth import (
    MAX_BLOCKS,
    MAX_STEPS,
    MAX_VEHICLES,
    SPEED_RANGE,
    TRUCK_HEIGHT,
    SynthConfig,
    SyntheticTrace,
    make_buildings,
)


def test_building_grid_layout():
    cfg = SynthConfig(blocks=(3, 2), block_size=80.0, street_width=20.0)
    cols = make_buildings(cfg)
    assert len(cols.ids) == 6 and cols.counts.tolist() == [4] * 6  # len(cols) is 3: ids, counts, xy
    assert list(cols.ids) == [f"b{k:04d}" for k in range(6)]
    xs, ys = cols.xy[:, :4].tolist()  # the vertices of b0000
    assert min(xs) == 10.0 and max(xs) == 90.0  # street_width/2 inset, 80 m side
    assert min(ys) == 10.0 and max(ys) == 90.0
    # second block starts one pitch (100 m) to the right
    assert cols.xy[0, 4:8].min() == 110.0


def test_city_diagonal_covers_extent():
    cfg = SynthConfig(blocks=10)
    assert city_diagonal(cfg) == pytest.approx(math.hypot(1020.0, 1020.0))


def test_trace_shape_and_ids():
    cfg = SynthConfig(blocks=3, vehicle_count=8, duration_s=1.0, step_period=0.1, seed=5)
    trace = SyntheticTrace(cfg)
    steps = list(trace)
    assert len(steps) == len(trace) == 10
    first = steps[0]
    assert first.ego.id == "ego"
    assert len(first.others) == 7
    assert [v.id for v in first.others] == [f"v{i:04d}" for i in range(1, 8)]
    assert steps[1].timestamp == pytest.approx(0.1)


def test_trace_is_reiterable_and_deterministic():
    cfg = SynthConfig(blocks=3, vehicle_count=6, duration_s=2.0, seed=9)
    trace = SyntheticTrace(cfg)
    a = [step_to_line(s) for s in trace]
    b = [step_to_line(s) for s in trace]
    assert a == b
    trace2 = SyntheticTrace(cfg)
    assert a == [step_to_line(s) for s in trace2]


def test_different_seed_different_trace():
    base = dict(blocks=3, vehicle_count=6, duration_s=1.0)
    t1 = SyntheticTrace(SynthConfig(seed=1, **base))
    t2 = SyntheticTrace(SynthConfig(seed=2, **base))
    assert [step_to_line(s) for s in t1] != [step_to_line(s) for s in t2]


def test_synthesis_makes_a_record_for_the_ego_only(monkeypatch):
    # each step packs its vehicles into columns; the ego is the one record
    made, points = [], []
    post_init, point_init = VehicleState.__post_init__, Position.__post_init__
    monkeypatch.setattr(VehicleState, "__post_init__", lambda v: (made.append(v.id), post_init(v)))
    monkeypatch.setattr(Position, "__post_init__", lambda p: (points.append(p), point_init(p)))
    cfg = SynthConfig(blocks=3, vehicle_count=50, duration_s=1.0, seed=5)
    steps = list(SyntheticTrace(cfg))
    assert made == ["ego"] * len(steps) == ["ego"] * 10
    assert len(points) == len(steps)
    assert all(isinstance(step.others, VehicleColumns) and len(step.others.ids) == 49 for step in steps)


@given(
    grid=st.tuples(st.integers(1, 4), st.integers(1, 3)),
    vehicles=st.integers(1, 30),
    # a pitch of 1-30 m against 0.8-28 m driven a step: some steps pass
    # no intersection, others several
    block_size=st.floats(0.5, 20.0),
    street_width=st.floats(0.5, 10.0),
    step_period=st.sampled_from((0.1, 0.5, 1.0, 2.0)),
    steps=st.integers(1, 12),
    truck_fraction=st.sampled_from((0.0, 0.3, 1.0)),
    seed=st.integers(0, 2**32),
)
def test_synthesis_matches_the_reference_fleet(grid, vehicles, block_size, street_width, step_period, steps,
                                               truck_fraction, seed):
    cfg = SynthConfig(blocks=grid, block_size=block_size, street_width=street_width, vehicle_count=vehicles,
                      duration_s=steps * step_period, step_period=step_period, seed=seed,
                      truck_fraction=truck_fraction)
    # the written bytes: json.dumps gives every float's shortest repr
    lines = [step_to_line(step) for step in SyntheticTrace(cfg)]
    assert lines == [json.dumps(record, separators=(",", ":")) for record in reference_fleet(cfg)]
    assert json.dumps(buildings_to_json(make_buildings(cfg))) == json.dumps(reference_city(cfg))


def test_a_vehicle_walks_the_same_in_any_fleet():
    # 6 m of pitch against 5-7 m a step: most steps pass an intersection
    small, large = (SynthConfig(blocks=(3, 2), block_size=4.0, street_width=2.0, vehicle_count=n, duration_s=20.0,
                                step_period=0.5, seed=3, truck_fraction=0.5) for n in (4, 40))
    for a, b in zip(SyntheticTrace(small), SyntheticTrace(large), strict=True):
        assert a.ego == b.ego
        assert a.others.ids == b.others.ids[:3]
        assert np.array_equal(a.others.values, b.others.values[:3])


def test_vehicles_stay_on_streets():
    cfg = SynthConfig(blocks=4, vehicle_count=20, duration_s=5.0, seed=3)
    trace = SyntheticTrace(cfg)
    lane = cfg.street_width / 4.0
    pitch = cfg.pitch
    for step in trace:
        for v in (step.ego, *step.others):
            # on a street: lane-offset from some grid line on one axis and
            # within the city extent on the other
            dx = min(v.position.x % pitch, pitch - (v.position.x % pitch))
            dy = min(v.position.y % pitch, pitch - (v.position.y % pitch))
            assert abs(dx - lane) < 1e-6 or abs(dy - lane) < 1e-6
            assert -cfg.street_width / 2 <= v.position.x <= 4 * pitch + cfg.street_width / 2
            assert -cfg.street_width / 2 <= v.position.y <= 4 * pitch + cfg.street_width / 2


def test_speeds_within_range_and_constant():
    cfg = SynthConfig(blocks=3, vehicle_count=10, duration_s=2.0, seed=11)
    trace = SyntheticTrace(cfg)
    steps = list(trace)
    lo, hi = SPEED_RANGE
    speeds0 = {v.id: v.speed for v in (steps[0].ego, *steps[0].others)}
    for s in speeds0.values():
        assert lo <= s <= hi
    for step in steps[1:]:
        for v in (step.ego, *step.others):
            assert v.speed == speeds0[v.id]


def test_truck_fraction_rough():
    cfg = SynthConfig(blocks=5, vehicle_count=400, duration_s=0.1, seed=13, truck_fraction=0.1)
    trace = SyntheticTrace(cfg)
    (step,) = list(trace)
    trucks = sum(1 for v in (step.ego, *step.others) if v.height == TRUCK_HEIGHT)
    assert 15 <= trucks <= 85  # 400 draws at p = 0.1


def test_validation():
    with pytest.raises(ValueError):
        SynthConfig(blocks=0)
    with pytest.raises(ValueError):
        SynthConfig(vehicle_count=0)
    with pytest.raises(ValueError):
        SynthConfig(street_width=0.0)
    assert SynthConfig(truck_fraction=0.0).truck_fraction == 0.0
    assert SynthConfig(truck_fraction=1.0).truck_fraction == 1.0
    for bad in (math.nan, -0.5, 1.5):
        with pytest.raises(ValueError, match=rf"^truck_fraction must be within \[0, 1\], got {bad}$"):
            SynthConfig(truck_fraction=bad)
    # a negative duration once passed the step bound as |duration_s / step_period| and gave one step
    assert SynthConfig(duration_s=0.0).step_count == 1
    for bad in (-5.0, -0.05, -1e-300):
        with pytest.raises(ValueError, match=rf"^duration_s must be >= 0, got {bad}$"):
            SynthConfig(duration_s=bad)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        for field in ("block_size", "street_width"):
            with pytest.raises(ValueError, match=rf"must be positive and finite, got .*{field} {bad}"):
                SynthConfig(**{field: bad})


def test_synth_city_stays_within_the_coordinate_bound():
    # the far corner, max(nx, ny) blocks of one pitch, and the lane a
    # quarter street (5 m) beyond it: 2 * (5e8 - 2.5) + 5 is the bound
    SynthConfig(blocks=(1, 2), block_size=5e8 - 22.5)
    for cfg in ({"block_size": 1e308}, {"street_width": 1e308}, {"block_size": 1.7e308, "street_width": 1.7e308},
                {"blocks": (1, 2), "block_size": 5e8 - 22.0}, {"blocks": 1, "block_size": 1e9 - 20.0}):
        with pytest.raises(ValueError, match=r"^the city reaches beyond 1e\+09 m: "):
            SynthConfig(**cfg)
    for duration, period in ((60.0, 0.0), (60.0, -0.1), (60.0, math.inf), (60.0, math.nan),
                             (math.inf, 0.1), (math.nan, 0.1), (-math.inf, 0.1), (60.0, 1e-320)):
        with pytest.raises(ValueError, match="step_period"):
            SynthConfig(duration_s=duration, step_period=period)


def test_synth_step_count_is_bounded():
    assert SynthConfig(duration_s=MAX_STEPS * 0.5, step_period=0.5).step_count == MAX_STEPS
    with pytest.raises(ValueError, match=r"duration_s / step_period\| <= 10000000"):
        SynthConfig(duration_s=(MAX_STEPS + 1) * 0.5, step_period=0.5)


def test_synth_city_and_fleet_are_bounded():
    # every block's building and every vehicle's row is built before
    # the first step, so an unbounded count would exhaust memory first
    assert SynthConfig(blocks=(1000, 100), block_size=1.0, street_width=1.0).grid == (1000, 100)
    assert SynthConfig(vehicle_count=MAX_VEHICLES).vehicle_count == MAX_VEHICLES
    for blocks, named in ((100_000, "100000 x 100000 blocks is 10000000000"), ((1001, 100), "1001 x 100 blocks is 100100")):
        with pytest.raises(ValueError, match=rf"^{named}; need at most {MAX_BLOCKS}$"):
            SynthConfig(blocks=blocks, block_size=1.0, street_width=1.0)
    with pytest.raises(ValueError, match=rf"must be within \[1, {MAX_VEHICLES}\], got {MAX_VEHICLES + 1}$"):
        SynthConfig(vehicle_count=MAX_VEHICLES + 1)
