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
composition of the intermediate steps in distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import substream
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
        if not 0 <= self.sigma <= MAX_COORD or self.t_corr <= 0:
            raise ValueError(f"sigma must be within [0, {MAX_COORD:g}] m and t_corr > 0")


class GnssErrorState(NamedTuple):
    mu: float  # signed magnitude, meters
    theta: float  # direction, radians, unwrapped


def init_error(cfg: GnssConfig, rng: np.random.Generator) -> GnssErrorState:
    """Fresh state: magnitude from its stationary distribution, direction
    uniform. Consumes one normal and one uniform draw."""
    return GnssErrorState(
        mu=cfg.sigma * float(rng.standard_normal()),
        theta=float(rng.uniform(0.0, TWO_PI)),
    )


def update_error(
    state: GnssErrorState, dt: float, cfg: GnssConfig, rng: np.random.Generator
) -> GnssErrorState:
    """Advance the error by dt seconds; one normal then one uniform draw."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    a = math.exp(-dt / cfg.t_corr)
    scale = math.sqrt(1.0 - a * a)
    n_mu = cfg.sigma * float(rng.standard_normal())
    n_theta = float(rng.uniform(0.0, TWO_PI))
    return GnssErrorState(mu=a * state.mu + scale * n_mu, theta=a * state.theta + scale * n_theta)


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
    state = init_error(cfg, rng)
    for i in range(len(mu)):
        state = update_error(state, step_s, cfg, rng)
        mu[i], theta[i] = state
    return mu, theta


class GnssTracker:
    """Per-node error states advanced on demand.

    Each node id owns a named substream, so a node's error trajectory
    depends only on the base seed, its id, and the sequence of update
    times, never on other nodes or iteration order. Calling ``error_at``
    twice with the same timestamp returns the same state without
    consuming randomness. Each node holds one entry: its state, the time
    of its last update and its stream.
    """

    def __init__(self, seed: int, cfg: GnssConfig):
        self.seed = int(seed)
        self.cfg = cfg
        self._state: dict[str, tuple[GnssErrorState, float, np.random.Generator]] = {}

    def error_at(self, node_id: str, t: float) -> GnssErrorState:
        entry = self._state.get(node_id)
        if entry is None:
            rng = substream(self.seed, "gnss", node_id)
            state = init_error(self.cfg, rng)
        else:
            state, last_t, rng = entry
            dt = t - last_t
            if dt <= 0:
                return state
            state = update_error(state, dt, self.cfg, rng)
        self._state[node_id] = (state, t, rng)
        return state
