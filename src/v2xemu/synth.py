"""Synthetic Manhattan-grid scenario generator.

Produces a square-block city (one building per block, streets on a uniform
pitch) and a deterministic random-walk trace for a fleet of vehicles that
drive the street graph at constant per-vehicle speeds. Used by the
benchmark scripts and the acceptance suite, and exposed through the CLI so
experiments can be reproduced from a seed alone.

Vehicles keep to the right: their centerline is offset by a quarter street
width from the street axis in the direction of travel. Roughly one in ten
vehicles is a truck, tall enough to shadow a passenger car antenna.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .rng import substream
from .scenario import Building, Position, ScenarioStep, VehicleState

TRUCK_LENGTH = 12.0
TRUCK_WIDTH = 2.5
TRUCK_HEIGHT = 3.2
# Most steps one trace may have; gen-scenario writes every step to disk.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class SynthConfig:
    blocks: int | tuple[int, int] = 10
    block_size: float = 80.0
    street_width: float = 20.0
    vehicle_count: int = 50  # includes the ego vehicle
    duration_s: float = 60.0
    step_period: float = 0.1
    seed: int = 0
    truck_fraction: float = 0.1
    speed_range: tuple[float, float] = (8.0, 14.0)

    def __post_init__(self):
        nx, ny = self.grid
        if nx < 1 or ny < 1:
            raise ValueError("need at least one block per axis")
        if self.vehicle_count < 1:
            raise ValueError("vehicle_count includes the ego and must be >= 1")
        if self.street_width <= 0 or self.block_size <= 0:
            raise ValueError("block_size and street_width must be positive")
        # nan fails too; the ratio is the step count
        if not (0 < self.step_period < math.inf and abs(self.duration_s / self.step_period) <= MAX_STEPS):
            raise ValueError(f"need 0 < step_period < inf and |duration_s / step_period| <= {MAX_STEPS}, got "
                             f"{self.duration_s} / {self.step_period}")

    @property
    def grid(self) -> tuple[int, int]:
        if isinstance(self.blocks, int):
            return self.blocks, self.blocks
        return self.blocks

    @property
    def pitch(self) -> float:
        return self.block_size + self.street_width

    @property
    def step_count(self) -> int:
        return max(1, round(self.duration_s / self.step_period))


def make_buildings(cfg: SynthConfig) -> list[Building]:
    """One square building per block, ids row-major b0000, b0001, ..."""
    nx, ny = cfg.grid
    half = cfg.street_width / 2.0
    out: list[Building] = []
    k = 0
    for bj in range(ny):
        for bi in range(nx):
            x0 = bi * cfg.pitch + half
            y0 = bj * cfg.pitch + half
            x1 = x0 + cfg.block_size
            y1 = y0 + cfg.block_size
            out.append(Building(id=f"b{k:04d}", vertices=((x0, y0), (x1, y0), (x1, y1), (x0, y1))))
            k += 1
    return out


class _Walker:
    """One vehicle doing a random walk on the intersection graph."""

    __slots__ = ("rng", "cfg", "node", "target", "s", "speed", "vid", "length", "width", "height")

    def __init__(self, cfg: SynthConfig, index: int):
        self.cfg = cfg
        self.rng = substream(cfg.seed, "veh", index)
        self.vid = "ego" if index == 0 else f"v{index:04d}"
        lo, hi = cfg.speed_range
        self.speed = float(self.rng.uniform(lo, hi))
        if float(self.rng.random()) < cfg.truck_fraction:
            self.length, self.width, self.height = TRUCK_LENGTH, TRUCK_WIDTH, TRUCK_HEIGHT
        else:
            from .scenario import DEFAULT_HEIGHT, DEFAULT_LENGTH, DEFAULT_WIDTH

            self.length, self.width, self.height = DEFAULT_LENGTH, DEFAULT_WIDTH, DEFAULT_HEIGHT
        nx, ny = cfg.grid
        self.node = (int(self.rng.integers(0, nx + 1)), int(self.rng.integers(0, ny + 1)))
        self.target = self._pick_next(exclude=None)
        self.s = float(self.rng.uniform(0.0, cfg.pitch))

    def _neighbors(self, node: tuple[int, int]) -> list[tuple[int, int]]:
        nx, ny = self.cfg.grid
        i, j = node
        out = []
        if i > 0:
            out.append((i - 1, j))
        if i < nx:
            out.append((i + 1, j))
        if j > 0:
            out.append((i, j - 1))
        if j < ny:
            out.append((i, j + 1))
        return out

    def _pick_next(self, exclude: tuple[int, int] | None) -> tuple[int, int]:
        options = self._neighbors(self.node)
        if exclude is not None and len(options) > 1:
            options = [n for n in options if n != exclude]
        return options[int(self.rng.integers(0, len(options)))]

    def advance(self, dt: float) -> None:
        self.s += self.speed * dt
        while self.s >= self.cfg.pitch:
            self.s -= self.cfg.pitch
            prev = self.node
            self.node = self.target
            self.target = self._pick_next(exclude=prev)

    def state(self) -> VehicleState:
        p = self.cfg.pitch
        ax, ay = self.node[0] * p, self.node[1] * p
        bx, by = self.target[0] * p, self.target[1] * p
        dx, dy = (bx - ax) / p, (by - ay) / p
        lane = self.cfg.street_width / 4.0
        # right-hand lane: offset along the right normal of the heading
        x = ax + dx * self.s + dy * lane
        y = ay + dy * self.s - dx * lane
        return VehicleState(
            id=self.vid,
            position=Position(x, y),
            speed=self.speed,
            heading=math.atan2(dy, dx),
            length=self.length,
            width=self.width,
            height=self.height,
        )


class SyntheticTrace:
    """Re-iterable lazy trace; every __iter__ replays identically."""

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg

    def __len__(self) -> int:
        return self.cfg.step_count

    def __iter__(self) -> Iterator[ScenarioStep]:
        cfg = self.cfg
        walkers = [_Walker(cfg, i) for i in range(cfg.vehicle_count)]
        for k in range(cfg.step_count):
            if k > 0:
                for w in walkers:
                    w.advance(cfg.step_period)
            states = [w.state() for w in walkers]
            yield ScenarioStep(timestamp=k * cfg.step_period, ego=states[0], others=tuple(states[1:]))


def generate_synthetic_scenario(cfg: SynthConfig) -> tuple[list[Building], SyntheticTrace]:
    return make_buildings(cfg), SyntheticTrace(cfg)
