import csv
import math
import tracemalloc

import numpy as np
import pytest

from v2xemu.cli import main
from v2xemu.gnss import (
    TWO_PI,
    GnssConfig,
    GnssErrorState,
    GnssTracker,
    error_offset,
    tracked_series,
    update_error,
)
from v2xemu.rng import draws, key

ZERO = GnssErrorState(0.0, 0.0)


def _tracked(state, dt, cfg, k, n):
    """``update_error`` with draw ``n`` of the episode ``k``, as a tracker
    makes it."""
    (noise,), (u,) = draws((k,), (n,))
    return update_error(state, dt, cfg, noise, TWO_PI * u)


def _node_states(seed, cfg, n, dt):
    """The states of one node of a ``GnssTracker`` asked at t = 0 and then
    every ``dt`` seconds, n times; the stationary start is left out."""
    tracker = GnssTracker(seed, cfg)
    return [tracker.errors_at(("ego",), i * dt)[0] for i in range(n + 1)][1:]


def test_update_rejects_negative_dt():
    cfg = GnssConfig()
    with pytest.raises(ValueError):
        update_error(ZERO, -1.0, cfg, 0.5, 1.0)


def test_zero_dt_is_identity():
    cfg = GnssConfig()
    state = GnssErrorState(mu=1.25, theta=0.5)
    out = update_error(state, 0.0, cfg, 0.5, 1.0)
    assert out == state


def test_infinite_gap_from_zero_is_the_stationary_draw():
    # how a tracker starts a node: exactly (sigma * noise, angle)
    cfg = GnssConfig(sigma=2.32)
    assert update_error(ZERO, math.inf, cfg, -0.7, 4.5) == (2.32 * -0.7, 4.5)


def test_config_validation():
    with pytest.raises(ValueError):
        GnssConfig(sigma=-1.0)
    with pytest.raises(ValueError):
        GnssConfig(t_corr=0.0)
    for t_corr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_corr"):
            GnssConfig(t_corr=t_corr)


def test_init_is_stationary():
    cfg = GnssConfig(sigma=2.32, t_corr=10.0)
    tracker = GnssTracker(seed=1, cfg=cfg)  # each node's first state
    mus = np.array([error.mu for error in tracker.errors_at([f"v{i}" for i in range(20_000)], 0.0)])
    assert mus.mean() == pytest.approx(0.0, abs=0.05)
    assert mus.std() == pytest.approx(2.32, abs=0.05)


def test_magnitude_autocorrelation():
    cfg = GnssConfig(sigma=2.32, t_corr=10.0)
    mu = np.array([state.mu for state in _node_states(2, cfg, 20_000, 1.0)])
    centered = mu - mu.mean()
    var = float(centered @ centered) / len(mu)
    for k in (1, 5, 10):
        emp = float(centered[:-k] @ centered[k:]) / ((len(mu) - k) * var)
        assert emp == pytest.approx(math.exp(-k / 10.0), abs=0.08)


def test_stationary_rms_matches_sigma():
    cfg = GnssConfig(sigma=2.32, t_corr=10.0)
    mu = np.array([state.mu for state in _node_states(3, cfg, 5000, 1.0)])
    rms = math.sqrt(float(mu @ mu) / len(mu))
    assert rms == pytest.approx(2.32, abs=0.35)


def test_gnss_diag_csv_is_a_tracker_nodes_states(tmp_path, capsys):
    # the series gnss-diag prints is the one a run's tracker draws: one
    # node asked at t = 0 and then at every step, bit for bit
    path = tmp_path / "series.csv"
    argv = ["gnss-diag", "--duration", "1000", "--step", "2", "--seed", "3", "--set", "t_corr=5", "--csv", str(path)]
    assert main(argv) == 0
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    tracker = GnssTracker(seed=3, cfg=GnssConfig(t_corr=5.0))
    tracker.errors_at(("ego",), 0.0)
    expected = []
    for t in (float(row[0]) for row in rows):
        state = tracker.errors_at(("ego",), t)[0]
        expected.append([repr(x) for x in (t, *state, *error_offset(state))])
    assert len(rows) == 500 and [row[0] for row in rows[:2]] == ["2.0", "4.0"]
    assert rows == expected  # repr writes a float's shortest round-trip digits


def test_tracked_series_holds_two_arrays_not_an_object_per_sample():
    # 10^5 samples as two float64 arrays take 1.6 MB; an object per sample
    # would take 14 MB
    tracemalloc.start()
    try:
        series = tracked_series(3, GnssConfig(), 1e5, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    mu, theta = series
    assert mu.dtype == theta.dtype == np.float64
    assert len(mu) == len(theta) == 10**5


def test_stationary_rms_guards():
    cfg = GnssConfig(t_corr=10.0)
    with pytest.raises(ValueError):
        tracked_series(0, cfg, 999.0, 1.0)  # < 100 * t_corr
    with pytest.raises(ValueError):
        tracked_series(0, cfg, 2000.0, 0.0)


def test_offset_magnitude_is_mu():
    state = GnssErrorState(mu=-3.0, theta=1.234)
    de, dn = error_offset(state)
    assert math.hypot(de, dn) == pytest.approx(3.0, abs=1e-12)
    assert error_offset((-3.0, 1.234)) == (de, dn)  # any (mu, theta) pair


def test_offset_direction_near_uniform():
    # the applied offset bearing (sign of mu folded in) should not favor a
    # half-plane; wide tolerance, it only needs to catch gross bias
    east = 0
    north = 0
    n = 20_000
    for state in _node_states(4, GnssConfig(), n, 1.0):
        de, dn = error_offset(state)
        east += de > 0
        north += dn > 0
    assert abs(east / n - 0.5) < 0.1
    assert abs(north / n - 0.5) < 0.1


def test_tracker_refuses_a_time_not_after_its_last_call():
    cfg = GnssConfig(t_corr=1.0)
    tracker = GnssTracker(seed=5, cfg=cfg)
    tracker.errors_at(["v1", "v2"], 0.0)
    tracker.errors_at(("v1",), 19.5)  # v2 comes due after 20 s
    before = dict(tracker._state)
    for t in (19.5, 10.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"time {t} is not after the last update at 19\.5"):
            tracker.errors_at(["v1", "v3"], t)
        assert tracker._state == before and list(tracker._state) == ["v2", "v1"]
    # the refused calls drew nothing: the next advance matches a fresh
    # tracker that never saw them
    fresh = GnssTracker(seed=5, cfg=cfg)
    fresh.errors_at(["v1", "v2"], 0.0)
    fresh.errors_at(("v1",), 19.5)
    assert tracker.errors_at(("v1",), 24.5)[0] == fresh.errors_at(("v1",), 24.5)[0]
    assert tracker._state == fresh._state and list(tracker._state) == ["v1"]


def test_tracker_nodes_independent():
    t1 = GnssTracker(seed=6, cfg=GnssConfig())
    t2 = GnssTracker(seed=6, cfg=GnssConfig())
    seq1 = [t1.errors_at(("a",), float(t))[0] for t in range(5)]
    # each step also asks for another node, which must not disturb node a
    out = [t2.errors_at(["b", "a"], float(t))[1] for t in range(5)]
    assert out == seq1


def test_tracker_lazy_gap_single_update():
    # one big gap is one recursion step with the composed coefficient
    tracker = GnssTracker(seed=7, cfg=GnssConfig(sigma=2.32, t_corr=10.0))
    s0 = tracker.errors_at(("v",), 0.0)[0]
    s1 = tracker.errors_at(("v",), 30.0)[0]
    k = key(7, "gnss", "v", 0.0)  # the node's episode began at t = 0
    expect0 = _tracked(ZERO, math.inf, GnssConfig(), k, 0)
    expect1 = _tracked(expect0, 30.0, GnssConfig(), k, 1)
    assert (s0, s1) == (expect0, expect1)


def test_tracker_continues_a_node_inside_the_horizon():
    # unseen for just under 20 * t_corr at the last call: the node keeps its
    # episode and advances its process lazily across the gap
    cfg = GnssConfig(t_corr=1.0)
    tracker = GnssTracker(seed=7, cfg=cfg)
    tracker.errors_at(("v",), 0.0)
    tracker.errors_at([], 19.99)
    k = key(7, "gnss", "v", 0.0)
    expect = _tracked(_tracked(ZERO, math.inf, cfg, k, 0), 19.995, cfg, k, 1)
    assert tracker.errors_at(("v",), 19.995)[0] == expect


def test_tracker_drops_a_node_past_the_horizon():
    # unseen for just over 20 * t_corr at a call: the node is gone, and
    # meeting it again starts a new episode from a fresh stationary draw
    cfg = GnssConfig(t_corr=1.0)
    tracker = GnssTracker(seed=7, cfg=cfg)
    tracker.errors_at(("v",), 0.0)
    tracker.errors_at([], 20.01)
    assert not any("v" in v for v in vars(tracker).values() if isinstance(v, (dict, set, list, tuple)))
    assert tracker.errors_at(("v",), 20.02)[0] == _tracked(ZERO, math.inf, cfg, key(7, "gnss", "v", 20.02), 0)


def test_tracker_does_not_replay_an_evicted_node():
    cfg = GnssConfig(t_corr=1.0)
    tracker = GnssTracker(seed=7, cfg=cfg)
    first = [tracker.errors_at(("v",), float(t))[0] for t in range(3)]
    tracker.errors_at([], 100.0)
    again = [tracker.errors_at(("v",), 101.0 + t)[0] for t in range(3)]
    # no state of the new episode repeats a component of the old one
    assert not {x for s in first for x in s} & {x for s in again for x in s}
