"""Release checklist for the emulator, one test per sign-off item.

Each test exercises a shipping requirement end to end and prints a
single ``[PASS]``/``[FAIL]`` line with its measured runtime, so a plain
``pytest -v tests/test_acceptance.py`` run doubles as the sign-off
report. Runtime budgets are asserted, not just reported.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (
    bbox_diagonal,
    brute_force_classify,
    city_diagonal,
    knife_edge_branch_hp,
    nlosv_extra_hp,
    pl_los_hp,
    pl_nlosb_hp,
)
from v2xemu.channel import (
    fresnel_radius,
    nlosv_extra_loss,
    path_loss_los,
    path_loss_nlosb,
    update_shadowing,
    wavelength,
)
from v2xemu.config import config_from_dict
from v2xemu.geometry import (
    CullingRanges,
    LinkClassifier,
    SpatialIndex,
    link_conditions,
)
from v2xemu.gnss import GnssConfig, init_error, update_error
from v2xemu.pipeline import run, run_steps, sweep
from v2xemu.rng import substream
from v2xemu.scenario import Building, Position, VehicleState
from v2xemu.synth import SynthConfig, generate_synthetic_scenario

SUITE_SEED = 20260814


def _classify(clf: LinkClassifier, ego, others) -> dict:
    """``{target_id: (condition, blocker_id)}`` mapped from the classifier's
    index arrays, in the brute-force oracle's format."""
    cand = clf.select_candidates(ego, others)
    hit, between = clf.classify_candidates(cand)
    labels = {}
    for tid, cond, b, v in zip(cand.target_ids, link_conditions(hit, between), hit.tolist(), between.tolist()):
        blocker = clf.index.buildings[b].id if b >= 0 else cand.target_ids[v] if v >= 0 else None
        labels[tid] = (cond.value, blocker)
    return labels


def _finish(label: str, t0: float, budget_s: float, detail: str = "") -> None:
    """Print the sign-off line and enforce the runtime budget."""
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget_s
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail} [{elapsed:.2f} s / budget {budget_s:.0f} s]")
    assert ok, f"{label}: runtime {elapsed:.2f} s exceeds {budget_s:.0f} s budget"


# ---------------------------------------------------------------- formulas


def test_path_loss_formulas_match_high_precision_reference():
    t0 = time.perf_counter()
    tol = 1e-9

    err_los = abs(path_loss_los(100.0, 5.9) - float(pl_los_hp(100, "5.9")))
    err_nlosb = abs(path_loss_nlosb(100.0, 5.9) - float(pl_nlosb_hp(100, "5.9")))
    assert err_los <= tol
    assert err_nlosb <= tol

    # Blocker below the link line: no extra attenuation.
    assert nlosv_extra_loss(1.0, 2.0, 50.0, 50.0, 5.9) == 0.0

    # Just above the diffraction threshold: matches the branch expression
    # and documents the model's jump at the switch point.
    r_f = fresnel_radius(wavelength(5.9), 50.0, 50.0)
    h_at = 0.7 * r_f / math.sqrt(2.0) + 1e-9  # clearance ratio barely > 0.7
    got = nlosv_extra_loss(h_at, 0.0, 50.0, 50.0, 5.9)
    err_branch = abs(got - float(nlosv_extra_hp(h_at, 0, 50, 50, "5.9")))
    assert err_branch <= tol
    assert abs(got - float(knife_edge_branch_hp("0.7"))) < 1e-6

    # Blocker above the line but inside the clearance margin: still free.
    sub = nlosv_extra_loss(0.5, 0.0, 50.0, 50.0, 5.9)
    assert sub == 0.0
    assert float(nlosv_extra_hp("0.5", 0, 50, 50, "5.9")) == 0.0

    _finish(
        "formula fidelity",
        t0,
        1.0,
        f"max |err| = {max(err_los, err_nlosb, err_branch):.2e} dB (tol {tol:.0e})",
    )


# ------------------------------------------------------------ oracle parity


def test_classifier_matches_brute_force_on_random_scenes():
    t0 = time.perf_counter()
    scenarios = 200
    checked = 0
    for i in range(scenarios):
        rng = substream(SUITE_SEED, "acceptance", "scenes", i)
        n_v = int(rng.integers(1, 51))
        n_b = int(rng.integers(0, 101))

        vehicles = []
        for j in range(n_v):
            x, y = rng.uniform(0.0, 1000.0, size=2)
            vehicles.append((f"v{j:02d}", float(x), float(y)))
        buildings = []
        for j in range(n_b):
            x0, y0 = rng.uniform(0.0, 1000.0, size=2)
            w, h = rng.uniform(5.0, 120.0, size=2)
            buildings.append(
                (f"b{j:02d}", [(float(x0), float(y0)), (float(x0 + w), float(y0)),
                               (float(x0 + w), float(y0 + h)), (float(x0), float(y0 + h))])
            )
        ex, ey = (float(c) for c in rng.uniform(0.0, 1000.0, size=2))
        threshold = float(rng.uniform(0.5, 3.0))

        objs = [Building(bid, tuple(verts)) for bid, verts in buildings]
        diag = bbox_diagonal(buildings, points=[(ex, ey)] + [(x, y) for _, x, y in vehicles])

        ego = VehicleState("ego", Position(ex, ey), speed=0.0, heading=0.0)
        others = [VehicleState(vid, Position(x, y), speed=0.0, heading=0.0) for vid, x, y in vehicles]
        clf = LinkClassifier(
            SpatialIndex(objs), ranges=CullingRanges(r_b=diag, r_v=diag), nlosv_threshold=threshold
        )
        got = _classify(clf, ego, others)
        want = brute_force_classify((ex, ey), vehicles, buildings, diag, diag, threshold)
        assert got == want, f"scene {i}: mismatch"
        checked += len(want)

    _finish(
        "brute-force classifier parity",
        t0,
        30.0,
        f"{scenarios} random scenes, {checked} links, labels and blockers match exactly",
    )


# ----------------------------------------------------------------- culling


def test_building_culling_is_nested_and_monotone():
    t0 = time.perf_counter()
    cfg = SynthConfig(blocks=10, vehicle_count=500, duration_s=60.0, seed=7)
    buildings, trace = generate_synthetic_scenario(cfg)
    index = SpatialIndex(buildings)
    diag = city_diagonal(cfg)
    radii = [100.0, 300.0, 500.0, 900.0, diag]

    nlosb_by_radius: dict[float, list[frozenset]] = {}
    for r_b in radii:
        clf = LinkClassifier(index, ranges=CullingRanges(r_b=r_b, r_v=diag))
        per_step = []
        for step in trace:
            labels = _classify(clf, step.ego, step.others)
            per_step.append(frozenset(tid for tid, (cond, _) in labels.items() if cond == "NLOSb"))
        nlosb_by_radius[r_b] = per_step

    for lo, hi in zip(radii, radii[1:]):
        for k, (s_lo, s_hi) in enumerate(zip(nlosb_by_radius[lo], nlosb_by_radius[hi])):
            assert s_lo <= s_hi, f"step {k}: NLOSb at r_b={lo} not nested in r_b={hi}"

    reference = nlosb_by_radius[diag]
    total_ref = sum(len(s) for s in reference)
    assert total_ref > 0, "scenario produced no building-blocked links"
    fractions = []
    for r_b in radii:
        missed = sum(len(ref - got) for ref, got in zip(reference, nlosb_by_radius[r_b]))
        fractions.append(missed / total_ref)
    for smaller, larger in zip(fractions, fractions[1:]):
        assert smaller >= larger, f"missed fraction not monotone: {fractions}"
    assert fractions[-1] == 0.0

    _finish(
        "culling nestedness/monotonicity",
        t0,
        300.0,
        "missed fraction by r_b " + str([round(f, 4) for f in fractions]),
    )


@pytest.fixture(scope="module")
def large_city_measurements():
    """Shared expensive fixture: a 2000-building, 500-vehicle city with
    per-step cost measured culled vs. unculled, plus the trade-off sweep
    at (300, 300). Consumed by the speedup and delay-report tests."""
    t0 = time.perf_counter()
    cfg = SynthConfig(blocks=(50, 40), vehicle_count=500, duration_s=10.0, seed=11)
    buildings, trace = generate_synthetic_scenario(cfg)
    buildings = SpatialIndex(buildings)
    diag = city_diagonal(cfg)

    def mean_step_cost(r: float) -> float:
        econf = config_from_dict({"seed": 11, "r_b": r, "r_v": r})
        costs = [
            res.metrics.t_cull + res.metrics.t_classify + res.metrics.t_channel
            for res in run_steps(econf, buildings, trace)
        ]
        return float(np.mean(costs))

    culled_cost = mean_step_cost(300.0)
    full_cost = mean_step_cost(diag)
    rows = sweep(
        config_from_dict({"seed": 11}),
        buildings,
        trace,
        rb_values=[300.0],
        rv_values=[300.0],
    )
    return {
        "building_count": len(buildings),
        "vehicle_count": cfg.vehicle_count,
        "culled_cost": culled_cost,
        "full_cost": full_cost,
        "sweep_rows": rows,
        "elapsed": time.perf_counter() - t0,
    }


def test_culling_speeds_up_large_city_at_least_5x(large_city_measurements):
    m = large_city_measurements
    assert m["building_count"] >= 2000
    assert m["vehicle_count"] >= 500
    speedup = m["full_cost"] / m["culled_cost"]
    assert speedup >= 5.0, (
        f"culled {m['culled_cost'] * 1e3:.2f} ms vs full {m['full_cost'] * 1e3:.2f} ms "
        f"per step: only {speedup:.1f}x"
    )
    ok = m["elapsed"] < 600.0
    status = "PASS" if ok else "FAIL"
    print(
        f"[{status}] culling speedup: {speedup:.1f}x "
        f"({m['full_cost'] * 1e3:.2f} ms -> {m['culled_cost'] * 1e3:.2f} ms per step) "
        f"[{m['elapsed']:.2f} s / budget 600 s]"
    )
    assert ok


# -------------------------------------------------------------- statistics


def test_position_error_statistics():
    t0 = time.perf_counter()
    cfg = GnssConfig()  # sigma 2.32 m, t_corr 10 s
    rng = substream(SUITE_SEED, "acceptance", "gnss")
    n = 100_000
    state = init_error(cfg, rng)
    mu = np.empty(n)
    for i in range(n):
        state = update_error(state, 1.0, cfg, rng)
        mu[i] = state.mu

    centered = mu - mu.mean()
    var = float(np.dot(centered, centered))
    worst = 0.0
    for k in range(1, 31):
        got = float(np.dot(centered[:-k], centered[k:])) / var
        want = math.exp(-k / cfg.t_corr)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 0.05, f"lag {k}: autocorr {got:.4f} vs {want:.4f}"

    window = 600
    peaks = np.abs(mu[: (n // window) * window]).reshape(-1, window).max(axis=1)
    frac = float(np.mean(peaks > 5.0))
    assert frac >= 0.5, f"only {frac:.0%} of {window} s windows reach a 5 m error peak"

    _finish(
        "position error statistics",
        t0,
        60.0,
        f"max autocorr dev {worst:.3f} (tol 0.05); 5 m peak in {frac:.0%} of windows",
    )


def test_shadowing_statistics():
    t0 = time.perf_counter()
    std, d_corr, n = 3.0, 10.0, 100_000
    rng = substream(SUITE_SEED, "acceptance", "shadow")
    series = np.empty(n)
    value = std * float(rng.standard_normal())
    for i in range(n):
        value = update_shadowing(value, 10.0, float(rng.standard_normal()), std, d_corr)
        series[i] = value

    got_std = float(series.std())
    assert abs(got_std - 3.0) <= 0.06, f"std {got_std:.4f} outside 3 +/- 0.06 dB"

    centered = series - series.mean()
    lag1 = float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered))
    want = math.exp(-1.0)
    assert abs(lag1 - want) <= 0.02, f"lag-1 autocorr {lag1:.4f} vs e^-1 = {want:.4f}"

    _finish(
        "shadowing statistics",
        t0,
        60.0,
        f"std {got_std:.3f} dB, lag-1 {lag1:.3f} (e^-1 = {want:.3f})",
    )


# ------------------------------------------------- determinism + soundness


def test_same_seed_runs_are_byte_identical_and_filter_is_sound(tmp_path):
    t0 = time.perf_counter()
    cfg_city = SynthConfig(blocks=10, vehicle_count=500, duration_s=10.0, seed=13)
    buildings, trace = generate_synthetic_scenario(cfg_city)
    buildings = SpatialIndex(buildings)

    econf = config_from_dict({"seed": 13, "r_b": 300.0, "r_v": 300.0})
    pair = []
    for rep in range(2):
        out = tmp_path / f"r{rep}"
        run(econf, buildings, trace, out)
        pair.append((out / "messages.jsonl").read_bytes())
    assert pair[0] == pair[1], "same-seed runs differ"

    delivered = 0
    for line in pair[0].decode("utf-8").splitlines():
        msg = json.loads(line)
        assert msg["rx_power"] >= -82.0, f"delivered below sensitivity: {msg}"
        delivered += 1
    assert delivered > 0, "no messages delivered; soundness check is vacuous"

    _finish(
        "determinism + filter soundness",
        t0,
        300.0,
        f"{delivered} delivered messages checked, same-seed runs byte-identical",
    )


def test_sweep_reports_subsecond_mean_delay(large_city_measurements):
    rows = large_city_measurements["sweep_rows"]
    assert len(rows) == 1
    row = rows[0]
    assert row.rb == 300.0 and row.rv == 300.0
    assert row.mean_delay_top50 < 1.0, f"mean_delay_top50 = {row.mean_delay_top50:.3f} s"
    print(
        f"[PASS] real-time budget report: mean_delay_top50 = "
        f"{row.mean_delay_top50 * 1e3:.1f} ms at (300, 300) "
        f"[runtime shared with the speedup measurement]"
    )
