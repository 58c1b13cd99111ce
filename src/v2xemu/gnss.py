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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import EpisodeTable
from .scenario import MAX_COORD

TWO_PI = 2.0 * math.pi
# Most samples one ``tracked_series`` may hold: two float64 arrays of this
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


class GnssTracker(EpisodeTable):
    """Per-node error states advanced on demand.

    The state of each node is its (mu, theta); a node never seen starts
    from the zero state after an infinite gap, the stationary draw. Nodes
    unseen for more than ``20 * t_corr`` are dropped. Past that gap a =
    exp(-dt / t_corr) gives sqrt(1 - a*a) == 1.0, and a fresh draw differs
    from the lazy update by a * mu, under 2.1e-9 * |mu|.
    """

    def __init__(self, seed: int, cfg: GnssConfig):
        super().__init__(seed, "gnss", (0.0, 0.0), 20.0 * cfg.t_corr)
        self.cfg = cfg

    def errors_at(self, ids, t: float) -> list[GnssErrorState]:
        """The error states at time ``t`` of the distinct nodes ``ids``."""
        entries, noise, u = self._take(ids, t)
        out, rows = [], []
        for (mu, theta, last_t, k, n), z, w in zip(entries, noise, u):
            out.append(update_error(GnssErrorState(mu, theta), t - last_t, self.cfg, z, TWO_PI * w))
            rows.append((*out[-1], t, k, n + 1))
        self._put(ids, rows)
        return out


def tracked_series(seed: int, cfg: GnssConfig, duration_s: float, step_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Error states of the node ``"ego"`` of ``GnssTracker(seed, cfg)``,
    asked at t = 0 and then at t = i * step_s for i = 1 .. duration_s /
    step_s, as two float64 arrays: mu and theta. These are the states a
    run draws; the stationary start at t = 0 is left out, so the RMS of mu
    estimates cfg.sigma. Refuses a non-finite duration or step, runs too
    short to average over the correlation time, and a series of no sample
    or over ``MAX_SERIES_SAMPLES``."""
    if not (math.isfinite(duration_s) and 0 < step_s < math.inf):
        raise ValueError(f"need a finite duration and a finite step > 0, got {duration_s} s and {step_s} s")
    if duration_s < 100.0 * cfg.t_corr:
        raise ValueError(f"duration {duration_s} s too short; need >= {100.0 * cfg.t_corr} s")
    samples = duration_s / step_s  # inf when a tiny step overflows it
    if not 1 <= samples <= MAX_SERIES_SAMPLES:
        raise ValueError(f"{duration_s} s / {step_s} s is {samples:g} samples; need 1 to {MAX_SERIES_SAMPLES}")
    mu, theta = np.empty(int(samples)), np.empty(int(samples))
    tracker = GnssTracker(seed, cfg)
    tracker.errors_at(("ego",), 0.0)
    for i in range(len(mu)):
        mu[i], theta[i] = tracker.errors_at(("ego",), (i + 1) * step_s)[0]
    return mu, theta
