import math

import pytest
from oracles import city_diagonal

from v2xemu.scenario import step_to_line
from v2xemu.synth import MAX_STEPS, SynthConfig, TRUCK_HEIGHT, generate_synthetic_scenario, make_buildings


def test_building_grid_layout():
    cfg = SynthConfig(blocks=(3, 2), block_size=80.0, street_width=20.0)
    buildings = make_buildings(cfg)
    assert len(buildings) == 6
    assert [b.id for b in buildings] == [f"b{k:04d}" for k in range(6)]
    b0 = buildings[0]
    xs = [v[0] for v in b0.vertices]
    ys = [v[1] for v in b0.vertices]
    assert min(xs) == 10.0 and max(xs) == 90.0  # street_width/2 inset, 80 m side
    assert min(ys) == 10.0 and max(ys) == 90.0
    # second block starts one pitch (100 m) to the right
    assert min(v[0] for v in buildings[1].vertices) == 110.0


def test_city_diagonal_covers_extent():
    cfg = SynthConfig(blocks=10)
    assert city_diagonal(cfg) == pytest.approx(math.hypot(1020.0, 1020.0))


def test_trace_shape_and_ids():
    cfg = SynthConfig(blocks=3, vehicle_count=8, duration_s=1.0, step_period=0.1, seed=5)
    _, trace = generate_synthetic_scenario(cfg)
    steps = list(trace)
    assert len(steps) == len(trace) == 10
    first = steps[0]
    assert first.ego.id == "ego"
    assert len(first.others) == 7
    assert [v.id for v in first.others] == [f"v{i:04d}" for i in range(1, 8)]
    assert steps[1].timestamp == pytest.approx(0.1)


def test_trace_is_reiterable_and_deterministic():
    cfg = SynthConfig(blocks=3, vehicle_count=6, duration_s=2.0, seed=9)
    _, trace = generate_synthetic_scenario(cfg)
    a = [step_to_line(s) for s in trace]
    b = [step_to_line(s) for s in trace]
    assert a == b
    _, trace2 = generate_synthetic_scenario(cfg)
    assert a == [step_to_line(s) for s in trace2]


def test_different_seed_different_trace():
    base = dict(blocks=3, vehicle_count=6, duration_s=1.0)
    _, t1 = generate_synthetic_scenario(SynthConfig(seed=1, **base))
    _, t2 = generate_synthetic_scenario(SynthConfig(seed=2, **base))
    assert [step_to_line(s) for s in t1] != [step_to_line(s) for s in t2]


def test_vehicles_stay_on_streets():
    cfg = SynthConfig(blocks=4, vehicle_count=20, duration_s=5.0, seed=3)
    buildings, trace = generate_synthetic_scenario(cfg)
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
    _, trace = generate_synthetic_scenario(cfg)
    steps = list(trace)
    lo, hi = cfg.speed_range
    speeds0 = {v.id: v.speed for v in (steps[0].ego, *steps[0].others)}
    for s in speeds0.values():
        assert lo <= s <= hi
    for step in steps[1:]:
        for v in (step.ego, *step.others):
            assert v.speed == speeds0[v.id]


def test_truck_fraction_rough():
    cfg = SynthConfig(blocks=5, vehicle_count=400, duration_s=0.1, seed=13, truck_fraction=0.1)
    _, trace = generate_synthetic_scenario(cfg)
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
    for duration, period in ((60.0, 0.0), (60.0, -0.1), (60.0, math.inf), (60.0, math.nan),
                             (math.inf, 0.1), (math.nan, 0.1), (-math.inf, 0.1), (60.0, 1e-320)):
        with pytest.raises(ValueError, match="step_period"):
            SynthConfig(duration_s=duration, step_period=period)


def test_synth_step_count_is_bounded():
    assert SynthConfig(duration_s=MAX_STEPS * 0.5, step_period=0.5).step_count == MAX_STEPS
    with pytest.raises(ValueError, match=r"duration_s / step_period\| <= 10000000"):
        SynthConfig(duration_s=(MAX_STEPS + 1) * 0.5, step_period=0.5)
