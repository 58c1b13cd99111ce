"""Temporally correlated GNSS positioning error.

Each node carries a polar error state (magnitude mu in meters, direction
theta in radians). Both components follow the same first-order recursion

    x' = a * x + sqrt(1 - a^2) * n,     a = exp(-dt / t_corr),

where n is N(0, sigma^2) for the magnitude and U(0, 2*pi) for the
direction. The reported fix displaces the true position by
(mu * cos(theta), mu * sin(theta)) east/north. Magnitude may go negative;
that just flips the offset, so the radial error is |mu|.

theta is kept unwrapped inside the recursion (wrapping would break the
linear dynamics) and only enters through cos/sin, which do not care.

Updates may be applied lazily: skipping from t0 to t1 in one call uses
a = exp(-(t1 - t0) / t_corr), which for the magnitude is exactly the
composition of the intermediate steps in distribution. From a zero state
an infinite gap gives exactly the stationary draw, which starts a node.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import draw, evict, key
from .scenario import MAX_COORD

TWO_PI = 2.0 * math.pi
# Most samples one stationary series may hold: two float64 arrays of this
# length, 16 MB at the bound.
MAX_SERIES_SAMPLES = 10**6


@dataclass(frozen=True)
class GnssConfig:
    """``sigma`` is bounded by ``MAX_COORD``, so that a fix displaced by
    the error stays far inside the float range."""

    sigma: float = 2.32  # meters, stationary std of the magnitude
    t_corr: float = 10.0  # seconds

    def __post_init__(self):
        if not (0 <= self.sigma <= MAX_COORD and 0 < self.t_corr < math.inf):  # nan fails too
            raise ValueError(f"sigma must be within [0, {MAX_COORD:g}] m and t_corr within (0, inf) s")


class GnssErrorState(NamedTuple):
    mu: float  # signed magnitude, meters
    theta: float  # direction, radians, unwrapped


def update_error(state: GnssErrorState, dt: float, cfg: GnssConfig, noise: float, angle: float) -> GnssErrorState:
    """Advance the error by dt seconds. ``noise`` is a standard normal
    draw and ``angle`` a uniform one on [0, 2*pi). From a zero state, an
    infinite dt gives exactly the stationary draw (sigma * noise, angle)."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    a = math.exp(-dt / cfg.t_corr)
    scale = math.sqrt(1.0 - a * a)
    return GnssErrorState(mu=a * state.mu + scale * (cfg.sigma * noise), theta=a * state.theta + scale * angle)


def error_offset(state: GnssErrorState) -> tuple[float, float]:
    """East/north displacement of the reported fix, meters. ``state`` may
    be any (mu, theta) pair."""
    mu, theta = state
    return mu * math.cos(theta), mu * math.sin(theta)


def stationary_series(
    cfg: GnssConfig, duration_s: float, step_s: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Error states of a stationary receiver, one per step_s for duration_s,
    as two float64 arrays: mu and theta.

    Starts from a stationary draw; the states after each step are
    returned, so the RMS of mu estimates cfg.sigma. Refuses a non-finite
    duration or step, runs too short to average over the correlation
    time, and a series of no sample or over ``MAX_SERIES_SAMPLES``.
    """
    if not (math.isfinite(duration_s) and 0 < step_s < math.inf):
        raise ValueError(f"need a finite duration and a finite step > 0, got {duration_s} s and {step_s} s")
    if duration_s < 100.0 * cfg.t_corr:
        raise ValueError(f"duration {duration_s} s too short; need >= {100.0 * cfg.t_corr} s")
    samples = duration_s / step_s  # inf when a tiny step overflows it
    if not 1 <= samples <= MAX_SERIES_SAMPLES:
        raise ValueError(f"{duration_s} s / {step_s} s is {samples:g} samples; need 1 to {MAX_SERIES_SAMPLES}")
    mu, theta = np.empty(int(samples)), np.empty(int(samples))

    def advance(state, dt):
        return update_error(state, dt, cfg, float(rng.standard_normal()), float(rng.uniform(0.0, TWO_PI)))

    state = advance(GnssErrorState(0.0, 0.0), math.inf)
    for i in range(len(mu)):
        state = advance(state, step_s)
        mu[i], theta[i] = state
    return mu, theta


class GnssTracker:
    """Per-node error states advanced on demand.

    Each node holds one tuple of numbers: its state, the time of its last
    update, the key of its episode (named by its id and the time it was
    first seen) and its count of draws. So its error trajectory depends
    only on the base seed, its id, its episode and its update times.
    Calling ``error_at`` twice with the same timestamp draws nothing.
    """

    def __init__(self, seed: int, cfg: GnssConfig):
        self.seed = int(seed)
        self.cfg = cfg
        self._state: dict[str, tuple[float, float, float, bytes, int]] = {}  # mu, theta, last_t, key, draws
        self._due: list[tuple[float, str]] = []  # heap of (time, id), see rng.evict

    def error_at(self, node_id: str, t: float) -> GnssErrorState:
        entry = self._state.get(node_id)
        if entry is None:  # last_t only grows, so one item serves the node
            entry = (0.0, 0.0, -math.inf, key(self.seed, "gnss", node_id, t), 0)
            heapq.heappush(self._due, (t, node_id))
        mu, theta, last_t, k, n = entry
        dt = t - last_t
        if dt <= 0:
            return GnssErrorState(mu, theta)
        noise, u = draw(k, n)
        state = update_error(GnssErrorState(mu, theta), dt, self.cfg, noise, TWO_PI * u)
        self._state[node_id] = (*state, t, k, n + 1)
        return state

    def evict_stale(self, t: float) -> None:
        """Drop the nodes unseen for more than ``20 * t_corr``. Past that
        gap a = exp(-dt / t_corr) gives sqrt(1 - a*a) == 1.0, and a fresh
        draw differs from the lazy update by a * mu, under 2.1e-9 * |mu|."""
        evict(self._state, self._due, t - 20.0 * self.cfg.t_corr, 2)
