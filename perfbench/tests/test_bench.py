"""Tests of the benchmark's own logic (not of the emulator).

Run: python3 -m pytest perfbench/tests
"""
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from stats import percentile, self_time  # noqa: E402
from workloads import RESPAWN_STEPS, WORKLOADS, iter_steps  # noqa: E402


def test_p99_refused_below_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_emit_self_time_never_negative():
    rng = random.Random(0)
    for _ in range(2000):
        start = rng.uniform(0, 1)
        end = start + rng.uniform(0, 1)
        children = []
        for _ in range(rng.randint(0, 4)):
            s = rng.uniform(start - 0.5, end + 0.5)
            children.append((s, s + rng.uniform(0, 1)))
        t = self_time(start, end, children)
        assert 0.0 <= t <= end - start
    # parse and step spans inside the interval leave exactly the rest
    assert self_time(0.0, 10.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)
    assert self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 8.0)]) == pytest.approx(3.0)


def test_churn_relabelling_keeps_dense_order_and_counts_ids():
    churn = replace(WORKLOADS["churn-300"], vehicles=40, steps=60)
    dense = replace(churn, name="dense", churn=False)
    seen = set()
    for c, d in zip(iter_steps(churn, 3, 1), iter_steps(dense, 3, 1), strict=True):
        assert c.timestamp == d.timestamp and c.ego == d.ego
        assert [v.position for v in c.others] == [v.position for v in d.others]
        order_c = sorted(range(len(c.others)), key=lambda i: c.others[i].id)
        order_d = sorted(range(len(d.others)), key=lambda i: d.others[i].id)
        assert order_c == order_d
        seen.update(v.id for v in c.others)
    expected = sum((churn.steps - 1 + i % RESPAWN_STEPS) // RESPAWN_STEPS + 1 for i in range(1, churn.vehicles))
    assert len(seen) == expected


def _write_outputs(d: Path, rows, messages, fixes):
    d.mkdir(parents=True, exist_ok=True)
    header = "step_t,wall_delay,total_in_range,los,nlosb,nlosv,delivered,t_cull,t_classify,t_channel,t_gnss\n"
    body = "".join(f"{t},0.001,{tot},{a},{b},{c},{dl},0,0,0,0\n" for t, tot, a, b, c, dl in rows)
    (d / "metrics.csv").write_text(header + body)
    (d / "messages.jsonl").write_text("".join(m + "\n" for m in messages))
    (d / "ego_fixes.jsonl").write_text("".join(f + "\n" for f in fixes))


GOOD_ROWS = [(0.0, 3, 1, 1, 1, 1), (0.1, 2, 2, 0, 0, 1), (0.2, 0, 0, 0, 0, 0)]
GOOD_MSGS = ['{"step_t":0.0,"sender_id":"v1","rx_power":-80.5}', '{"step_t":0.1,"sender_id":"v2","rx_power":-70.0}']
GOOD_FIXES = ['{"step_t":0.0,"lat":1.0,"lon":2.0}', '{"step_t":0.1,"lat":1.0,"lon":2.0}', '{"step_t":0.2,"lat":1.0,"lon":2.0}']


def test_gate_accepts_consistent_outputs(tmp_path):
    _write_outputs(tmp_path, GOOD_ROWS, GOOD_MSGS, GOOD_FIXES)
    report = gate.check_outputs(tmp_path, 3)
    assert not report.failed and not report.problems
    assert gate.main([str(tmp_path), "3"]) == 0


@pytest.mark.parametrize(
    "rows, msgs, fixes, steps, bad",
    [
        (GOOD_ROWS, [GOOD_MSGS[0], '{"step_t":0.1,"sender_id":"v2","rx_power":NaN}'], GOOD_FIXES, 3, {1}),
        (GOOD_ROWS, GOOD_MSGS, [*GOOD_FIXES[:2], '{"step_t":0.2,"lat":Infinity,"lon":2.0}'], 3, {2}),
        ([GOOD_ROWS[0], (0.1, 2, 0, 2, 1, 1), GOOD_ROWS[2]], GOOD_MSGS, GOOD_FIXES, 3, {1}),
        (GOOD_ROWS, GOOD_MSGS, GOOD_FIXES, 4, {3}),
        (GOOD_ROWS[:2], GOOD_MSGS, GOOD_FIXES[:2], 3, {2}),
    ],
    ids=["bare-nan-message", "infinity-fix", "flipped-label-count", "too-few-steps", "missing-step"],
)
def test_gate_rejects_bad_outputs(tmp_path, rows, msgs, fixes, steps, bad):
    _write_outputs(tmp_path, rows, msgs, fixes)
    report = gate.check_outputs(tmp_path, steps)
    assert bad <= report.failed
    assert gate.main([str(tmp_path), str(steps)]) == 1


def test_label_digest_ignores_random_columns(tmp_path):
    _write_outputs(tmp_path / "a", GOOD_ROWS, GOOD_MSGS, GOOD_FIXES)
    other = [(t, tot, a, b, c, dl + 1) for t, tot, a, b, c, dl in GOOD_ROWS]
    _write_outputs(tmp_path / "b", other, GOOD_MSGS[:1], GOOD_FIXES)
    a, b = gate.check_outputs(tmp_path / "a", 3), gate.check_outputs(tmp_path / "b", 3)
    assert a.label_digest == b.label_digest
    assert a.draw_digest != b.draw_digest


def test_replays_with_different_draws_fail_the_run(tmp_path):
    # as written by the two children, which run under different hash seeds
    _write_outputs(tmp_path / "a" / "r0", GOOD_ROWS, GOOD_MSGS, GOOD_FIXES)
    _write_outputs(tmp_path / "b" / "r0", GOOD_ROWS, GOOD_MSGS[::-1], GOOD_FIXES)
    reports, attempted, failed = run.gate_replays(tmp_path, [("a/r0", 0), ("b/r0", 0)], 3, None)
    assert reports[0].draw_digest != reports[1].draw_digest
    assert (attempted, failed) == (6, 3)
    # replays of different drives may differ
    assert run.gate_replays(tmp_path, [("a/r0", 0), ("b/r0", 1)], 3, None)[2] == 0


def test_labels_checked_against_pin_and_between_replays(tmp_path):
    _write_outputs(tmp_path / "r0", GOOD_ROWS, GOOD_MSGS, GOOD_FIXES)
    flipped = [GOOD_ROWS[0], (0.1, 2, 1, 1, 0, 1), GOOD_ROWS[2]]
    _write_outputs(tmp_path / "r1", flipped, GOOD_MSGS, GOOD_FIXES)
    drives = [("r0", 0), ("r1", 1)]
    pin = gate.combine([gate.check_outputs(tmp_path / d, 3).label_digest for d, _ in drives])
    assert run.gate_replays(tmp_path, drives, 3, pin)[2] == 0
    assert run.gate_replays(tmp_path, [("r0", 1), ("r1", 0)], 3, pin)[2] == 6
    assert run.gate_replays(tmp_path, drives, 3, "0" * 64)[2] == 6
    # unpinned seed: replays of one drive must still agree with each other
    assert run.gate_replays(tmp_path, [("r0", 0), ("r1", 0)], 3, None)[2] == 3


def test_missing_hook_target_records_nothing(monkeypatch):
    hooks = (("v2xemu.geometry", "NoSuchClass.method", "x", None), ("no_such_module", "f", "y", None))
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    assert tracing.Recorder().install() == []


def test_cull_hook_counts_walls_the_program_returned():
    from v2xemu.geometry import CullingRanges, LinkClassifier, SpatialIndex
    from v2xemu.synth import SynthConfig, SyntheticTrace, make_buildings

    cfg = SynthConfig(blocks=4, vehicle_count=5, duration_s=0.1)
    step = next(iter(SyntheticTrace(cfg)))
    classifier = LinkClassifier(SpatialIndex(make_buildings(cfg)), CullingRanges(r_b=150.0, r_v=150.0))
    rec = tracing.Recorder()
    cull = rec.wrap("geometry.cull", classifier.select_candidates, tracing.culled_walls)
    cand = cull(step.ego, step.others)
    assert rec.counts == [("geometry.cull", len(cand.wall_arrays[0]), 0, -1)]
    assert 0 < rec.counts[0][1] < 4 * 16
    # a count that no longer fits the returned value is dropped, not raised
    rec.wrap("geometry.cull", lambda: object(), tracing.culled_walls)()
    assert len(rec.counts) == 1 and len(rec.spans) == 2


def test_benchmark_json_matches_the_bench():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # churn-300 runs on request only: a fourth workload does not fit the run budget
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n != "churn-300"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert [k for k in predictions if not k.startswith("_")] == list(run.PER_LAYER)
