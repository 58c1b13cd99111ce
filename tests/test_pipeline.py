import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import index_of
from oracles import geodetic_to_planar, serial_sweep_scores

import v2xemu

from v2xemu.channel import path_loss_los
from v2xemu.config import config_from_dict
from v2xemu.geometry import CullingRanges, LinkCondition, SpatialIndex
from v2xemu.gnss import GnssTracker, error_offset
from v2xemu.pipeline import (
    METRICS_HEADER,
    SWEEP_HEADER,
    TOP_TRAFFIC_STEPS,
    EgoFix,
    Emulator,
    ReceivedMessage,
    RunSummary,
    StepError,
    StepMetrics,
    json_line,
    run,
    sweep,
    write_sweep_csv,
)
from v2xemu.scenario import (
    Position,
    ScenarioStep,
    VehicleState,
)
from v2xemu.synth import SynthConfig, SyntheticTrace, make_buildings


def _veh(vid, x, y, **kw):
    kw.setdefault("speed", 10.0)
    kw.setdefault("heading", 0.0)
    return VehicleState(id=vid, position=Position(x, y), **kw)


def _static_trace(n_steps, others_xy, dt=0.1):
    steps = []
    for k in range(n_steps):
        steps.append(
            ScenarioStep(
                timestamp=k * dt,
                ego=_veh("ego", 0.0, 0.0),
                others=tuple(_veh(vid, x, y) for vid, x, y in others_xy),
            )
        )
    return steps


@pytest.fixture(scope="module")
def small_city():
    cfg = SynthConfig(blocks=4, vehicle_count=30, duration_s=5.0, step_period=0.1, seed=21)
    buildings, trace = make_buildings(cfg), SyntheticTrace(cfg)
    return SpatialIndex(buildings), list(trace)


# ---------------------------------------------------------------------------
# single-step semantics
# ---------------------------------------------------------------------------


def test_empty_scenario_emits_no_messages():
    cfg = config_from_dict({})
    results = list(map(Emulator(cfg, index_of([])).step, _static_trace(3, [])))
    assert len(results) == 3
    for res in results:
        assert res.messages == ()
        m = res.metrics
        assert (m.total_in_range, m.los, m.nlosb, m.nlosv, m.delivered) == (0, 0, 0, 0, 0)


def test_single_los_vehicle_pinned_rx():
    # flat geometry, zero shadowing: rx is exactly tx - PL_LOS(100)
    cfg = config_from_dict({"shadowing_std": 0.0})
    trace = _static_trace(5, [("v1", 100.0, 0.0)])
    results = list(map(Emulator(cfg, index_of([])).step, trace))
    for res in results:
        assert len(res.messages) == 1
        msg = res.messages[0]
        assert msg.sender_id == "v1"
        assert msg.condition is LinkCondition.LOS
        assert msg.rx_power == pytest.approx(23.0 - path_loss_los(100.0, 5.9), abs=1e-12)
        assert msg.rx_power == pytest.approx(-63.19950661188702, abs=1e-9)


def test_counts_add_up_and_delivered_bounded(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 1})
    for res in map(Emulator(cfg, buildings).step, trace):
        m = res.metrics
        assert m.los + m.nlosb + m.nlosv == m.total_in_range
        assert m.delivered <= m.total_in_range
        assert m.wall_delay >= 0.0


def test_filter_soundness(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 2})
    for res in map(Emulator(cfg, buildings).step, trace):
        m = res.metrics
        assert len(res.target_ids) == len(res.conditions) == res.rx_power.size == m.total_in_range
        above = [tid for tid, rx in zip(res.target_ids, res.rx_power.tolist()) if rx >= cfg.radio.sensitivity]
        assert [msg.sender_id for msg in res.messages] == above
        by_id = dict(zip(res.target_ids, zip(res.conditions, res.rx_power.tolist())))
        assert all(by_id[msg.sender_id] == (msg.condition, msg.rx_power) for msg in res.messages)


def test_messages_sorted_by_sender(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 3})
    for res in map(Emulator(cfg, buildings).step, trace):
        ids = [m.sender_id for m in res.messages]
        assert ids == sorted(ids)


def test_over_budget_flag(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"budget_s": 1e-9, "seed": 1})
    res = Emulator(cfg, buildings).step(trace[0])
    assert res.metrics.over_budget
    cfg = config_from_dict({"budget_s": 1e9, "seed": 1})
    res = Emulator(cfg, buildings).step(trace[0])
    assert not res.metrics.over_budget


def test_step_error_carries_context():
    cfg = config_from_dict({})
    bad = ScenarioStep(
        timestamp=2.5,
        ego=_veh("ego", 0.0, 0.0),
        others=(_veh("v1", 100.0, 0.0),),
    )
    emu = Emulator(cfg, index_of([]))
    emu.shadowing.update_links = lambda *a, **k: (_ for _ in ()).throw(ValueError("boom"))
    with pytest.raises(RuntimeError, match="t=2.5"):
        emu.step(bad)


def test_run_path_builds_no_vehicle_state_for_others(tmp_path, small_city, monkeypatch):
    from v2xemu import scenario

    buildings, trace = small_city
    path = tmp_path / "trace.jsonl"
    scenario.write_trace(path, trace[:10])
    made = []
    post_init = VehicleState.__post_init__
    monkeypatch.setattr(VehicleState, "__post_init__", lambda v: (made.append(v.id), post_init(v)))
    emu = Emulator(config_from_dict({"seed": 1}), buildings)
    delivered = sum(len(emu.step(step).messages) for step in scenario.load_trace(path))
    assert delivered > 0
    assert made == ["ego"] * 10


def test_step_path_builds_no_position_per_link(tmp_path, small_city, monkeypatch):
    # links and messages travel as floats from classification to emit: the
    # ego's record holds the one Position a step builds
    from v2xemu import scenario

    buildings, trace = small_city
    path = tmp_path / "trace.jsonl"
    scenario.write_trace(path, trace[:10])
    made = []
    post_init = Position.__post_init__
    monkeypatch.setattr(Position, "__post_init__", lambda p: (made.append((p.x, p.y)), post_init(p)))
    emu = Emulator(config_from_dict({"seed": 1}), buildings)
    results = [emu.step(step) for step in scenario.load_trace(path)]
    assert sum(len(res.target_ids) for res in results) > sum(len(res.messages) for res in results) > 0
    assert made == [(step.ego.position.x, step.ego.position.y) for step in trace[:10]]


def test_step_error_is_typed_with_time_and_cause():
    emu = Emulator(config_from_dict({}), index_of([]))
    boom = ValueError("boom")

    def broken(*args, **kwargs):
        raise boom

    emu.shadowing.update_links = broken
    step = ScenarioStep(timestamp=2.5, ego=_veh("ego", 0.0, 0.0), others=(_veh("v1", 100.0, 0.0),))
    with pytest.raises(StepError) as exc:
        emu.step(step)
    assert exc.value.timestamp == 2.5
    assert exc.value.__cause__ is boom
    assert str(exc.value) == "step t=2.5: boom"


@pytest.mark.parametrize("order", [(2, 0), (1, 1)], ids=["backwards", "repeated"])
def test_step_refuses_a_time_not_after_the_last(order):
    # a tracker does not advance a node asked about an earlier time, so a
    # step back in time would reuse the errors drawn for the later one
    trace = SyntheticTrace(SynthConfig(vehicle_count=20, duration_s=0.3, seed=2))
    steps = list(trace)
    first, second = (steps[k] for k in order)
    emu = Emulator(config_from_dict({}), index_of([]))
    emu.step(first)
    with pytest.raises(StepError) as exc:
        emu.step(second)
    assert exc.value.timestamp == second.timestamp
    assert isinstance(exc.value.__cause__, ValueError)
    assert str(exc.value) == f"step t={second.timestamp}: timestamp {second.timestamp} not after {first.timestamp}"


# ---------------------------------------------------------------------------
# GNSS application at the output boundary
# ---------------------------------------------------------------------------


def test_reported_position_offset_is_current_gnss_error():
    cfg = config_from_dict({"shadowing_std": 0.0, "seed": 77})
    trace = _static_trace(10, [("v1", 100.0, 0.0)])
    results = list(map(Emulator(cfg, index_of([])).step, trace))
    # replay the sender's error states at the delivery instants
    tracker = GnssTracker(seed=77, cfg=cfg.gnss)
    for res in results:
        (msg,) = res.messages
        de, dn = error_offset(tracker.errors_at(("v1",), res.metrics.step_t)[0])
        x, y = geodetic_to_planar(0.0, 0.0, msg.lat, msg.lon)
        assert x == pytest.approx(100.0 + de, abs=1e-6)
        assert y == pytest.approx(0.0 + dn, abs=1e-6)


def test_undelivered_senders_do_not_advance_gnss():
    # v2 is far outside coverage: its error stream must never be touched,
    # so v1's reported fixes are unchanged by v2's presence
    cfg = config_from_dict({"shadowing_std": 0.0, "seed": 5})
    with_far = list(map(Emulator(cfg, index_of([])).step, _static_trace(5, [("v1", 100.0, 0.0), ("v2", 4000.0, 0.0)])))
    alone = list(map(Emulator(cfg, index_of([])).step, _static_trace(5, [("v1", 100.0, 0.0)])))
    for a, b in zip(with_far, alone):
        msgs_a = [m for m in a.messages if m.sender_id == "v1"]
        msgs_b = list(b.messages)
        assert [(m.lat, m.lon) for m in msgs_a] == [(m.lat, m.lon) for m in msgs_b]


def test_step_forgets_a_departed_vehicle_whole():
    # v1 is delivered at t = 0 and then leaves; with t_corr = 0.01 s the
    # GNSS horizon is 0.2 s and the shadowing one 0.1 s, so by t = 0.3
    # neither tracker holds anything of it, while the ego keeps its fix
    cfg = config_from_dict({"seed": 5, "t_corr": 0.01, "shadow_eviction_s": 0.1})
    emu = Emulator(cfg, index_of([]))
    first, *rest = _static_trace(4, [("v1", 100.0, 0.0)])
    assert emu.step(first).messages
    for step in rest:
        emu.step(replace(step, others=()))
    assert "v1" not in emu.gnss._state and "v1" not in emu.shadowing._state
    assert "ego" in emu.ego_gnss._state


def test_ego_gnss_forgets_ego_ids_that_changed():
    # a new ego id on every step, as a pseudonym change gives: the ego's
    # tracker keeps only the ids seen in the last 20 * t_corr
    cfg = config_from_dict({"seed": 5})
    emu = Emulator(cfg, index_of([]))
    held = []
    for k in range(5000):
        emu.step(ScenarioStep(timestamp=k / 10, ego=_veh(f"ego{k}", 0.0, 0.0), others=()))
        held.append(len(emu.ego_gnss._state))
    assert max(held) <= 20 * cfg.ego_gnss_config.t_corr / 0.1 + 1


def test_ego_fix_uses_ego_gnss_config():
    trace = _static_trace(3, [])
    base = config_from_dict({"seed": 9})
    fixed = config_from_dict({"seed": 9, "ego_gnss": {"sigma": 0.0}})
    noisy = [r.ego_fix for r in map(Emulator(base, index_of([])).step, trace)]
    clean = [r.ego_fix for r in map(Emulator(fixed, index_of([])).step, trace)]
    assert any((f.lat, f.lon) != (0.0, 0.0) for f in noisy)
    for f in clean:
        assert (f.lat, f.lon) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------


def test_run_writes_all_outputs(tmp_path, small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 4, "r_b": 300, "r_v": 300})
    summary = run(cfg, buildings, trace, tmp_path / "out")
    out = tmp_path / "out"
    assert summary.steps == len(trace)
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert ",".join(rows[0]) == METRICS_HEADER
    assert rows[0][-1] == "over_budget"
    assert {row[-1] for row in rows[1:]} <= {"True", "False"}
    assert len(rows) == len(trace) + 1
    msgs = [json.loads(line) for line in (out / "messages.jsonl").read_text().splitlines()]
    assert summary.messages == len(msgs)
    for m in msgs:
        assert set(m) == {
            "step_t",
            "sender_id",
            "lat",
            "lon",
            "speed",
            "heading",
            "condition",
            "rx_power",
        }
        assert m["condition"] in ("LOS", "NLOSb", "NLOSv")
        assert m["rx_power"] >= cfg.radio.sensitivity
    fixes = (out / "ego_fixes.jsonl").read_text().splitlines()
    assert len(fixes) == len(trace)
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["seed"] == 4 and echo["r_b"] == 300.0


def test_output_lines_refuse_non_finite_numbers():
    # bare NaN/Infinity would make the line invalid JSON
    with pytest.raises(ValueError):
        json_line(EgoFix(step_t=math.nan, lat=0.0, lon=0.0))
    msg = ReceivedMessage(0.0, "v1", 0.0, 0.0, math.nan, 0.0, LinkCondition.LOS, -70.0)
    with pytest.raises(ValueError):
        json_line(msg)


def test_output_line_bytes():
    # key order and spelling are the output format: fields in declaration
    # order, the condition as its label string
    msg = ReceivedMessage(0.5, "v1", 1.25, -2.5, 10.0, 90.0, LinkCondition.NLOSB, -70.5)
    assert json_line(msg) == (
        '{"step_t":0.5,"sender_id":"v1","lat":1.25,"lon":-2.5,'
        '"speed":10.0,"heading":90.0,"condition":"NLOSb","rx_power":-70.5}'
    )
    assert json_line(EgoFix(step_t=0.1, lat=1.0, lon=-1.0)) == '{"step_t":0.1,"lat":1.0,"lon":-1.0}'


def test_runs_are_reproducible(tmp_path, small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 6, "r_b": 300, "r_v": 300})
    run(cfg, buildings, trace, tmp_path / "a")
    run(cfg, buildings, trace, tmp_path / "b")
    for name in ("messages.jsonl", "ego_fixes.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_self_reference_is_clean(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 7})
    _, (row,) = sweep(cfg, buildings, trace, [math.inf], [math.inf])
    assert row.nlosb_missed == 0
    assert row.delivered_diff == 0
    assert row.mean_delay_top50 > 0.0
    assert row.max_delay >= row.mean_delay_all


def test_sweep_missed_monotone_and_one_sided(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 7})
    _, rows = sweep(cfg, buildings, trace, [100.0, 250.0, math.inf], [math.inf])
    missed = [r.nlosb_missed for r in rows]
    assert missed[0] >= missed[1] >= missed[2] == 0
    assert all(r.total_reference_nlosb == rows[0].total_reference_nlosb for r in rows)
    assert rows[0].total_reference_nlosb > 0


def test_sweep_culled_nlosb_is_subset_per_step(small_city):
    buildings, trace = small_city
    full_cfg = config_from_dict({"seed": 8, "r_b": "inf"})
    culled_cfg = config_from_dict({"seed": 8, "r_b": 120})
    full_sets = [
        {tid for tid, c in zip(r.target_ids, r.conditions) if c is LinkCondition.NLOSB}
        for r in map(Emulator(full_cfg, buildings).step, trace)
    ]
    culled_sets = [
        {tid for tid, c in zip(r.target_ids, r.conditions) if c is LinkCondition.NLOSB}
        for r in map(Emulator(culled_cfg, buildings).step, trace)
    ]
    assert any(culled_sets)  # scenario actually has blockage
    for culled, full in zip(culled_sets, full_sets):
        assert culled <= full


def test_sweep_runs_every_pair_on_the_index_it_was_given(small_city, monkeypatch):
    buildings, trace = small_city
    built = []
    init = SpatialIndex.__init__
    monkeypatch.setattr(SpatialIndex, "__init__", lambda idx, *a: (built.append(1), init(idx, *a))[1])
    _, rows = sweep(config_from_dict({"seed": 7}), buildings, trace[:5], [100.0, 300.0, math.inf], [300.0])
    assert len(rows) == 3
    assert built == []


def test_sweep_rejects_empty_lists(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({})
    with pytest.raises(ValueError):
        sweep(cfg, buildings, trace, [], [100])


def test_sweep_accepts_one_shot_iterator(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 7})
    _, rows = sweep(cfg, buildings, iter(trace[:10]), [math.inf], [math.inf])
    assert rows[0].nlosb_missed == 0


def test_sweep_scores_match_the_serial_oracle(small_city):
    # (inf, inf) among the pairs, (100, inf) twice, and r_v < r_b
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 7})
    rb_values, rv_values = [100.0, math.inf, 100.0, 300.0], [math.inf, 50.0]

    def serial_run(r_b, r_v, steps):
        return map(Emulator(replace(cfg, ranges=CullingRanges(r_b, r_v)), buildings).step, steps)

    total, expected = serial_sweep_scores(serial_run, trace, rb_values, rv_values)
    reference, rows = sweep(cfg, buildings, iter(trace), rb_values, rv_values)
    assert total > 0
    assert reference[:2] == (math.inf, math.inf)
    assert (reference.nlosb_missed, reference.total_reference_nlosb, reference.delivered_diff) == (0, total, 0)
    assert [(r.rb, r.rv, r.nlosb_missed, r.delivered_diff) for r in rows] == expected
    assert {r.total_reference_nlosb for r in rows} == {total}
    assert any(r.nlosb_missed for r in rows) and any(r.delivered_diff for r in rows)


def _metrics(total_in_range, wall_delay, delivered=0, over_budget=False):
    return StepMetrics(
        0.0, wall_delay, total_in_range, total_in_range, 0, 0, delivered, 0.0, 0.0, 0.0, 0.0, over_budget
    )


_STEP = st.tuples(
    st.integers(0, 4), st.sampled_from([1e-3, 2e-3, 0.1]) | st.floats(1e-6, 1.0), st.integers(0, 4), st.booleans()
)


@given(st.integers(0, 3 * TOP_TRAFFIC_STEPS).flatmap(lambda n: st.lists(_STEP, min_size=n, max_size=n)))
def test_busiest_steps_heap_keeps_the_delays_of_a_full_sort(steps):
    # few totals and repeated delays make ties on both keys; runs shorter
    # than TOP_TRAFFIC_STEPS keep every step
    summary = RunSummary()
    for total, delay, delivered, over_budget in steps:
        summary.add(_metrics(total, delay, delivered, over_budget))
    top = [s[1] for s in sorted(steps, key=lambda s: (-s[0], s[1]))[:TOP_TRAFFIC_STEPS]]
    assert sorted(-d for _, d in summary.busiest) == sorted(top)  # the heap holds negated delays
    assert summary.steps == len(steps)
    assert summary.messages == sum(s[2] for s in steps)
    assert summary.over_budget == sum(1 for s in steps if s[3])
    row = summary.row(CullingRanges(), 0)
    delays = [s[1] for s in steps]
    if steps:
        assert row.mean_delay_top50 == pytest.approx(sum(top) / len(top), rel=1e-12)
        assert row.max_delay == summary.delay_max == max(delays)
        assert row.mean_delay_all == summary.delay_mean == pytest.approx(sum(delays) / len(delays), rel=1e-12)
    else:
        assert row[2:5] == (0.0, 0.0, 0.0)
        assert summary.delay_mean == summary.delay_max == 0.0


def test_sweep_memory_stays_flat_as_the_trace_doubles():
    # with every vehicle in range and delivered from step 0, the trackers
    # hold every id after the first step, so only a stored trace or
    # per-step records could grow
    def sweep_peak(steps):
        synth = SynthConfig(blocks=3, vehicle_count=30, duration_s=steps * 0.1, step_period=0.1, seed=4)
        buildings, trace = make_buildings(synth), SyntheticTrace(synth)
        index = SpatialIndex(buildings)
        cfg = config_from_dict({"seed": 4, "sensitivity": -200})
        tracemalloc.start()
        try:
            sweep(cfg, index, trace, [100.0, math.inf], [math.inf])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = sweep_peak(100), sweep_peak(200)
    assert long < 1.1 * short, f"peak {short / 1e6:.2f} MB at 100 steps, {long / 1e6:.2f} MB at 200"


def test_sweep_csv_round_trip(tmp_path, small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 7})
    _, rows = sweep(cfg, buildings, trace[:10], [200.0], [200.0])
    write_sweep_csv(tmp_path / "sweep.csv", rows)
    with open(tmp_path / "sweep.csv", newline="") as f:
        got = list(csv.reader(f))
    assert ",".join(got[0]) == SWEEP_HEADER
    assert len(got) == 2
    assert float(got[1][0]) == 200.0


_FIRST_STEP = """
import sys
from v2xemu.config import config_from_dict
from v2xemu.geometry import SpatialIndex
from v2xemu.pipeline import Emulator
from v2xemu.synth import SynthConfig, SyntheticTrace, make_buildings

cfg = SynthConfig(blocks=4, vehicle_count=30, duration_s=0.3, seed=1)
buildings, steps = make_buildings(cfg), list(SyntheticTrace(cfg))
emu = Emulator(config_from_dict({"r_b": 300.0, "r_v": 300.0}), SpatialIndex(buildings))
before = set(sys.modules)
for step in steps:
    emu.step(step)
assert set(sys.modules) == before, f"the steps imported {sorted(set(sys.modules) - before)}"
"""


def test_first_step_imports_nothing_lazily():
    # numpy imports submodules such as numpy.random and numpy.ma on first
    # use; any import inside step 0 adds milliseconds to its wall_delay
    src = str(Path(v2xemu.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _FIRST_STEP], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
