import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import geodetic_to_planar

import v2xemu

from v2xemu.channel import path_loss_los
from v2xemu.config import config_from_dict
from v2xemu.geometry import LinkCondition, SpatialIndex
from v2xemu.gnss import GnssTracker, error_offset
from v2xemu.pipeline import (
    METRICS_HEADER,
    SWEEP_HEADER,
    EgoFix,
    Emulator,
    ReceivedMessage,
    StepError,
    json_line,
    run,
    run_steps,
    sweep,
    write_sweep_csv,
)
from v2xemu.scenario import (
    Position,
    ScenarioStep,
    VehicleState,
)
from v2xemu.synth import SynthConfig, generate_synthetic_scenario


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
    buildings, trace = generate_synthetic_scenario(cfg)
    return SpatialIndex(buildings), list(trace)


# ---------------------------------------------------------------------------
# single-step semantics
# ---------------------------------------------------------------------------


def test_empty_scenario_emits_no_messages():
    cfg = config_from_dict({})
    results = list(run_steps(cfg, SpatialIndex([]), _static_trace(3, [])))
    assert len(results) == 3
    for res in results:
        assert res.messages == ()
        m = res.metrics
        assert (m.total_in_range, m.los, m.nlosb, m.nlosv, m.delivered) == (0, 0, 0, 0, 0)


def test_single_los_vehicle_pinned_rx():
    # flat geometry, zero shadowing: rx is exactly tx - PL_LOS(100)
    cfg = config_from_dict({"shadowing_std": 0.0})
    trace = _static_trace(5, [("v1", 100.0, 0.0)])
    results = list(run_steps(cfg, SpatialIndex([]), trace))
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
    for res in run_steps(cfg, buildings, trace):
        m = res.metrics
        assert m.los + m.nlosb + m.nlosv == m.total_in_range
        assert m.delivered <= m.total_in_range
        assert m.wall_delay >= 0.0


def test_filter_soundness(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 2})
    for res in run_steps(cfg, buildings, trace):
        m = res.metrics
        assert len(res.target_ids) == len(res.conditions) == res.rx_power.size == m.total_in_range
        above = [tid for tid, rx in zip(res.target_ids, res.rx_power.tolist()) if rx >= cfg.radio.sensitivity]
        assert [msg.sender_id for msg in res.messages] == above
        by_id = dict(zip(res.target_ids, zip(res.conditions, res.rx_power.tolist())))
        assert all(by_id[msg.sender_id] == (msg.condition, msg.rx_power) for msg in res.messages)


def test_messages_sorted_by_sender(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 3})
    for res in run_steps(cfg, buildings, trace):
        ids = [m.sender_id for m in res.messages]
        assert ids == sorted(ids)


def test_over_budget_flag(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"budget_s": 1e-9, "seed": 1})
    res = next(iter(run_steps(cfg, buildings, trace[:1])))
    assert res.metrics.over_budget
    cfg = config_from_dict({"budget_s": 1e9, "seed": 1})
    res = next(iter(run_steps(cfg, buildings, trace[:1])))
    assert not res.metrics.over_budget


def test_step_error_carries_context():
    cfg = config_from_dict({})
    bad = ScenarioStep(
        timestamp=2.5,
        ego=_veh("ego", 0.0, 0.0),
        others=(_veh("v1", 100.0, 0.0),),
    )
    emu = Emulator(cfg, SpatialIndex([]))
    emu.shadowing.update = lambda *a, **k: (_ for _ in ()).throw(ValueError("boom"))
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
    emu = Emulator(config_from_dict({}), SpatialIndex([]))
    boom = ValueError("boom")

    def broken(*args, **kwargs):
        raise boom

    emu.shadowing.update = broken
    step = ScenarioStep(timestamp=2.5, ego=_veh("ego", 0.0, 0.0), others=(_veh("v1", 100.0, 0.0),))
    with pytest.raises(StepError) as exc:
        emu.step(step)
    assert exc.value.timestamp == 2.5
    assert exc.value.__cause__ is boom
    assert str(exc.value) == "step t=2.5: boom"


# ---------------------------------------------------------------------------
# GNSS application at the output boundary
# ---------------------------------------------------------------------------


def test_reported_position_offset_is_current_gnss_error():
    cfg = config_from_dict({"shadowing_std": 0.0, "seed": 77})
    trace = _static_trace(10, [("v1", 100.0, 0.0)])
    results = list(run_steps(cfg, SpatialIndex([]), trace))
    # replay the sender's error states at the delivery instants
    tracker = GnssTracker(seed=77, cfg=cfg.gnss)
    for res in results:
        (msg,) = res.messages
        de, dn = error_offset(tracker.error_at("v1", res.metrics.step_t))
        x, y = geodetic_to_planar(0.0, 0.0, msg.lat, msg.lon)
        assert x == pytest.approx(100.0 + de, abs=1e-6)
        assert y == pytest.approx(0.0 + dn, abs=1e-6)


def test_undelivered_senders_do_not_advance_gnss():
    # v2 is far outside coverage: its error stream must never be touched,
    # so v1's reported fixes are unchanged by v2's presence
    cfg = config_from_dict({"shadowing_std": 0.0, "seed": 5})
    with_far = list(run_steps(cfg, SpatialIndex([]), _static_trace(5, [("v1", 100.0, 0.0), ("v2", 4000.0, 0.0)])))
    alone = list(run_steps(cfg, SpatialIndex([]), _static_trace(5, [("v1", 100.0, 0.0)])))
    for a, b in zip(with_far, alone):
        msgs_a = [m for m in a.messages if m.sender_id == "v1"]
        msgs_b = list(b.messages)
        assert [(m.lat, m.lon) for m in msgs_a] == [(m.lat, m.lon) for m in msgs_b]


def test_ego_fix_uses_ego_gnss_config():
    trace = _static_trace(3, [])
    base = config_from_dict({"seed": 9})
    fixed = config_from_dict({"seed": 9, "ego_gnss": {"sigma": 0.0}})
    noisy = [r.ego_fix for r in run_steps(base, SpatialIndex([]), trace)]
    clean = [r.ego_fix for r in run_steps(fixed, SpatialIndex([]), trace)]
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
    (row,) = sweep(cfg, buildings, trace, [math.inf], [math.inf])
    assert row.nlosb_missed == 0
    assert row.delivered_diff == 0
    assert row.mean_delay_top50 > 0.0
    assert row.max_delay >= row.mean_delay_all


def test_sweep_missed_monotone_and_one_sided(small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 7})
    rows = sweep(cfg, buildings, trace, [100.0, 250.0, math.inf], [math.inf])
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
        for r in run_steps(full_cfg, buildings, trace)
    ]
    culled_sets = [
        {tid for tid, c in zip(r.target_ids, r.conditions) if c is LinkCondition.NLOSB}
        for r in run_steps(culled_cfg, buildings, trace)
    ]
    assert any(culled_sets)  # scenario actually has blockage
    for culled, full in zip(culled_sets, full_sets):
        assert culled <= full


def test_sweep_runs_every_pair_on_the_index_it_was_given(small_city, monkeypatch):
    buildings, trace = small_city
    built = []
    init = SpatialIndex.__init__
    monkeypatch.setattr(SpatialIndex, "__init__", lambda idx, *a: (built.append(1), init(idx, *a))[1])
    rows = sweep(config_from_dict({"seed": 7}), buildings, trace[:5], [100.0, 300.0, math.inf], [300.0])
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
    rows = sweep(cfg, buildings, iter(trace[:10]), [math.inf], [math.inf])
    assert rows[0].nlosb_missed == 0


def test_sweep_csv_round_trip(tmp_path, small_city):
    buildings, trace = small_city
    cfg = config_from_dict({"seed": 7})
    rows = sweep(cfg, buildings, trace[:10], [200.0], [200.0])
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
from v2xemu.synth import SynthConfig, generate_synthetic_scenario

assert "numpy.random" in sys.modules, "numpy.random would be imported inside the first step"
buildings, trace = generate_synthetic_scenario(SynthConfig(blocks=4, vehicle_count=30, duration_s=0.3, seed=1))
emu = Emulator(config_from_dict({"r_b": 300.0, "r_v": 300.0}), SpatialIndex(buildings))
for step in trace:
    emu.step(step)
assert "numpy.ma" not in sys.modules, "a culled step imported numpy.ma"
"""


def test_first_step_imports_nothing_lazily():
    # numpy imports numpy.random and numpy.ma on first use; either import
    # inside step 0 adds milliseconds to its wall_delay
    src = str(Path(v2xemu.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _FIRST_STEP], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
