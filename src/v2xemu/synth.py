"""Synthetic Manhattan-grid scenario generator.

Produces a square-block city (one building per block, streets on a uniform
pitch) and a deterministic random-walk trace for a fleet of vehicles that
drive the street graph at constant per-vehicle speeds. Used by the
benchmark scripts and the acceptance suite, and exposed through the CLI so
experiments can be reproduced from a seed alone.

Vehicles keep to the right: their centerline is offset by a quarter street
width from the street axis in the direction of travel. Roughly one in ten
vehicles is a truck, tall enough to shadow a passenger car antenna.

The fleet is columns: one (n, 7) ``VEHICLE_COLUMNS`` array, ego first,
and each vehicle's last and next intersection and distance past the last.
A vehicle draws only from its own ``substream`` (its start, then its next
intersection each time it reaches one), so its walk does not depend on
the rest of the fleet. Row 0 becomes the ego's ``VehicleState`` and the
other rows the step's ``VehicleColumns``, with no record per vehicle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .rng import substream
from .scenario import (
    DEFAULT_HEIGHT, DEFAULT_LENGTH, DEFAULT_WIDTH, MAX_COORD, VEHICLE_COLUMNS, BuildingColumns, Position,
    ScenarioStep, VehicleColumns, VehicleState,
)

TRUCK_LENGTH = 12.0
TRUCK_WIDTH = 2.5
TRUCK_HEIGHT = 3.2
# a vehicle's length, width and height, indexed by whether it is a truck
_SIZES = ((DEFAULT_LENGTH, DEFAULT_WIDTH, DEFAULT_HEIGHT), (TRUCK_LENGTH, TRUCK_WIDTH, TRUCK_HEIGHT))
# each vehicle's constant speed is drawn uniformly from this range, in m/s
SPEED_RANGE = (8.0, 14.0)
# Most steps one trace may have; gen-scenario writes every step to disk.
MAX_STEPS = 10**7
# Most blocks (nx * ny) and vehicles one scenario may have: every block's
# building and every vehicle's row is built before the first step.
MAX_BLOCKS = 10**5
MAX_VEHICLES = 10**5


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

    def __post_init__(self):
        nx, ny = self.grid
        if nx < 1 or ny < 1:
            raise ValueError("need at least one block per axis")
        if nx * ny > MAX_BLOCKS:
            raise ValueError(f"{nx} x {ny} blocks is {nx * ny}; need at most {MAX_BLOCKS}")
        if not 1 <= self.vehicle_count <= MAX_VEHICLES:
            raise ValueError(f"vehicle_count includes the ego and must be within [1, {MAX_VEHICLES}], got {self.vehicle_count}")
        if not 0 <= self.truck_fraction <= 1:  # nan fails too
            raise ValueError(f"truck_fraction must be within [0, 1], got {self.truck_fraction}")
        # nan fails too
        if not (0 < self.block_size < math.inf and 0 < self.street_width < math.inf):
            raise ValueError(f"block_size and street_width must be positive and finite, got "
                             f"block_size {self.block_size}, street_width {self.street_width}")
        # the far corner, and the lane a quarter street beyond it
        if not max(nx, ny) * self.pitch + self.street_width / 4.0 <= MAX_COORD:
            raise ValueError(f"the city reaches beyond {MAX_COORD:g} m: {max(nx, ny)} blocks of block_size "
                             f"{self.block_size} + street_width {self.street_width}")
        # nan fails too; the ratio is the step count
        if not (0 < self.step_period < math.inf and abs(self.duration_s / self.step_period) <= MAX_STEPS):
            raise ValueError(f"need 0 < step_period < inf and |duration_s / step_period| <= {MAX_STEPS}, got "
                             f"{self.duration_s} / {self.step_period}")
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")

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


def make_buildings(cfg: SynthConfig) -> BuildingColumns:
    """One square building per block, ids row-major b0000, b0001, ..."""
    nx, ny = cfg.grid
    half = cfg.street_width / 2.0
    x0 = np.tile(np.arange(nx) * cfg.pitch + half, ny)
    y0 = np.repeat(np.arange(ny) * cfg.pitch + half, nx)
    x1, y1 = x0 + cfg.block_size, y0 + cfg.block_size
    xy = np.stack((x0, y0, x1, y0, x1, y1, x0, y1), axis=1).reshape(-1, 2).T
    return BuildingColumns(tuple(f"b{k:04d}" for k in range(nx * ny)), np.full(nx * ny, 4, np.intp), xy)


def _next_node(rng: np.random.Generator, node: tuple[int, int], grid: tuple[int, int], exclude) -> tuple[int, int]:
    """A uniform pick among the neighbours of intersection ``node``, in the
    order (i-1, j), (i+1, j), (i, j-1), (i, j+1), leaving out ``exclude``
    (the one just left, or None). A node has a neighbour on each axis, so
    a pick is always left."""
    (i, j), (nx, ny) = node, grid
    around = (((i - 1, j), i > 0), ((i + 1, j), i < nx), ((i, j - 1), j > 0), ((i, j + 1), j < ny))
    options = [n for n, inside in around if inside and n != exclude]
    return options[int(rng.integers(0, len(options)))]


class SyntheticTrace:
    """Re-iterable lazy trace; every __iter__ replays identically."""

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg

    def __len__(self) -> int:
        return self.cfg.step_count

    def __iter__(self) -> Iterator[ScenarioStep]:
        cfg = self.cfg
        n, p, grid, dt = cfg.vehicle_count, cfg.pitch, cfg.grid, cfg.step_period
        ids = ("ego", *(f"v{i:04d}" for i in range(1, n)))
        rngs = [substream(cfg.seed, "veh", i) for i in range(n)]
        rows = np.empty((n, len(VEHICLE_COLUMNS)))  # speed and size are set here, once
        node, target = np.empty((n, 2), np.int64), np.empty((n, 2), np.int64)
        s = np.empty(n)  # distance past node, toward target
        for i, rng in enumerate(rngs):
            rows[i, 2] = rng.uniform(*SPEED_RANGE)
            rows[i, 4:] = _SIZES[rng.random() < cfg.truck_fraction]
            node[i] = rng.integers(0, grid[0] + 1), rng.integers(0, grid[1] + 1)
            target[i] = _next_node(rng, tuple(node[i].tolist()), grid, None)
            s[i] = rng.uniform(0.0, p)
        a, d = np.empty((n, 2)), np.empty((n, 2))  # the street's start and unit direction
        lane, turned = cfg.street_width / 4.0, np.arange(n)  # at the start, every vehicle takes a street
        for k in range(cfg.step_count):
            if k > 0:
                s += rows[:, 2] * dt
                turned = np.flatnonzero(s >= p)
                for i in turned.tolist():
                    here, ahead, si = tuple(node[i].tolist()), tuple(target[i].tolist()), float(s[i])
                    while si >= p:
                        si -= p
                        here, ahead = ahead, _next_node(rngs[i], ahead, grid, here)
                    node[i], target[i], s[i] = here, ahead, si
            a[turned] = node[turned] * p
            d[turned] = (target[turned] * p - a[turned]) / p
            rows[turned, 3] = [math.atan2(dy, dx) for dx, dy in d[turned].tolist()]
            # right-hand lane: offset along the right normal of the heading
            rows[:, 0] = a[:, 0] + d[:, 0] * s + d[:, 1] * lane
            rows[:, 1] = a[:, 1] + d[:, 1] * s - d[:, 0] * lane
            x, y, *rest = rows[0].tolist()
            ego = VehicleState(ids[0], Position(x, y), *rest)
            yield ScenarioStep(timestamp=k * dt, ego=ego, others=VehicleColumns(ids[1:], rows[1:]))
