import math
import tracemalloc

import numpy as np
import pytest

from v2xemu.gnss import (
    GnssConfig,
    GnssErrorState,
    GnssTracker,
    error_offset,
    init_error,
    stationary_series,
    update_error,
)
from v2xemu.rng import substream


def _series(cfg, n, dt, rng):
    state = init_error(cfg, rng)
    mu = np.empty(n)
    for i in range(n):
        state = update_error(state, dt, cfg, rng)
        mu[i] = state.mu
    return mu


def test_update_rejects_negative_dt():
    cfg = GnssConfig()
    with pytest.raises(ValueError):
        update_error(GnssErrorState(0.0, 0.0), -1.0, cfg, substream(0, "t"))


def test_zero_dt_is_identity():
    cfg = GnssConfig()
    state = GnssErrorState(mu=1.25, theta=0.5)
    out = update_error(state, 0.0, cfg, substream(0, "t"))
    assert out == state


def test_config_validation():
    with pytest.raises(ValueError):
        GnssConfig(sigma=-1.0)
    with pytest.raises(ValueError):
        GnssConfig(t_corr=0.0)


def test_init_is_stationary():
    cfg = GnssConfig(sigma=2.32, t_corr=10.0)
    rng = substream(1, "gnss-test", "init")
    mus = np.array([init_error(cfg, rng).mu for _ in range(20_000)])
    assert mus.mean() == pytest.approx(0.0, abs=0.05)
    assert mus.std() == pytest.approx(2.32, abs=0.05)


def test_magnitude_autocorrelation():
    cfg = GnssConfig(sigma=2.32, t_corr=10.0)
    mu = _series(cfg, 20_000, 1.0, substream(2, "gnss-test", "acf"))
    centered = mu - mu.mean()
    var = float(centered @ centered) / len(mu)
    for k in (1, 5, 10):
        emp = float(centered[:-k] @ centered[k:]) / ((len(mu) - k) * var)
        assert emp == pytest.approx(math.exp(-k / 10.0), abs=0.08)


def test_stationary_rms_matches_sigma():
    cfg = GnssConfig(sigma=2.32, t_corr=10.0)
    mu, _ = stationary_series(cfg, 5000.0, 1.0, substream(3, "gnss-test", "rms"))
    assert len(mu) == 5000
    rms = math.sqrt(float(mu @ mu) / len(mu))
    assert rms == pytest.approx(2.32, abs=0.35)


def test_stationary_series_is_the_recursion():
    cfg = GnssConfig(sigma=2.32, t_corr=10.0)
    mu, theta = stationary_series(cfg, 1000.0, 2.0, substream(3, "gnss-test", "series"))
    assert mu.dtype == theta.dtype == np.float64
    assert len(mu) == len(theta) == 500
    assert _series(cfg, 500, 2.0, substream(3, "gnss-test", "series")).tolist() == mu.tolist()
    rng = substream(3, "gnss-test", "series")
    state = init_error(cfg, rng)
    for m, th in zip(mu.tolist(), theta.tolist()):
        state = update_error(state, 2.0, cfg, rng)
        assert (m, th) == state


def test_stationary_series_holds_two_arrays_not_an_object_per_sample():
    # 10^5 samples as two float64 arrays take 1.6 MB; an object per sample
    # would take 14 MB
    tracemalloc.start()
    try:
        series = stationary_series(GnssConfig(), 1e5, 1.0, substream(3, "gnss-test", "memory"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    mu, theta = series
    assert len(mu) == len(theta) == 10**5


def test_stationary_rms_guards():
    cfg = GnssConfig(t_corr=10.0)
    with pytest.raises(ValueError):
        stationary_series(cfg, 999.0, 1.0, substream(0, "x"))  # < 100 * t_corr
    with pytest.raises(ValueError):
        stationary_series(cfg, 2000.0, 0.0, substream(0, "x"))


def test_offset_magnitude_is_mu():
    state = GnssErrorState(mu=-3.0, theta=1.234)
    de, dn = error_offset(state)
    assert math.hypot(de, dn) == pytest.approx(3.0, abs=1e-12)
    assert error_offset((-3.0, 1.234)) == (de, dn)  # any (mu, theta) pair


def test_offset_direction_near_uniform():
    # the applied offset bearing (sign of mu folded in) should not favor a
    # half-plane; wide tolerance, it only needs to catch gross bias
    cfg = GnssConfig()
    rng = substream(4, "gnss-test", "iso")
    state = init_error(cfg, rng)
    east = 0
    north = 0
    n = 20_000
    for _ in range(n):
        state = update_error(state, 1.0, cfg, rng)
        de, dn = error_offset(state)
        east += de > 0
        north += dn > 0
    assert abs(east / n - 0.5) < 0.1
    assert abs(north / n - 0.5) < 0.1


def test_tracker_same_time_is_cached():
    tracker = GnssTracker(seed=5, cfg=GnssConfig())
    a = tracker.error_at("v1", 0.0)
    b = tracker.error_at("v1", 0.0)
    assert a == b
    # a duplicate query consumes no randomness: the next advance matches a
    # fresh tracker that never saw the duplicate
    c = tracker.error_at("v1", 5.0)
    fresh = GnssTracker(seed=5, cfg=GnssConfig())
    fresh.error_at("v1", 0.0)
    assert fresh.error_at("v1", 5.0) == c


def test_tracker_nodes_independent():
    t1 = GnssTracker(seed=6, cfg=GnssConfig())
    t2 = GnssTracker(seed=6, cfg=GnssConfig())
    seq1 = [t1.error_at("a", float(t)) for t in range(5)]
    # different interleaving with another node must not disturb node a
    out = []
    for t in range(5):
        t2.error_at("b", float(t))
        out.append(t2.error_at("a", float(t)))
    assert out == seq1


def test_tracker_lazy_gap_single_update():
    # one big gap is one recursion step with the composed coefficient
    tracker = GnssTracker(seed=7, cfg=GnssConfig(sigma=2.32, t_corr=10.0))
    s0 = tracker.error_at("v", 0.0)
    s1 = tracker.error_at("v", 30.0)
    rng = substream(7, "gnss", "v")
    expect0 = init_error(GnssConfig(), rng)
    expect1 = update_error(expect0, 30.0, GnssConfig(), rng)
    assert (s0, s1) == (expect0, expect1)
