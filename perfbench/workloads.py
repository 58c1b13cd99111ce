"""Benchmark workloads: seeded synthetic city traces written to disk.

Every workload is a grid city from ``v2xemu.synth`` and ``TRACES``
continuous ``SyntheticTrace`` drives, each drawn from its own sub-seed of
the workload seed and replayed on its own by a fresh ``pipeline.run``.
The load of a step depends on where the ego is; one drive covers a few
hundred metres of the city, several cover enough of it that the per-step
load, and with it the run-to-run medians, varies little between seeds.
``churn-300`` renames the vehicles of its drives as they respawn;
positions stay as they are.

The emulator sees only the files written here: ``buildings.json`` and
one ``trace-K.jsonl`` per drive. ``meta.json`` carries the config (seed,
r_b, r_v) and the trace shape for the bench.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from v2xemu.scenario import step_to_line, write_buildings
from v2xemu.synth import SynthConfig, SyntheticTrace, make_buildings

STEP_PERIOD = 0.1
TRACES = 8  # drives per workload, one replay each
# churn-300: every non-ego vehicle takes a fresh id this often (2 s),
# staggered by vehicle index so about 1/20 of the fleet respawns per step
RESPAWN_STEPS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: tuple[int, int]
    vehicles: int  # includes the ego
    radius: float  # r_b = r_v; inf disables culling
    steps: int  # length of each drive
    churn: bool = False

    def config(self, seed: int) -> dict:
        r = "inf" if math.isinf(self.radius) else self.radius
        return {"seed": seed, "r_b": r, "r_v": r}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-300", (10, 10), 500, 300.0, 73),
        Workload("wide-unculled", (50, 40), 50, math.inf, 73),
        Workload("sparse-300", (50, 40), 1000, 300.0, 73),
        Workload("churn-300", (10, 10), 500, 300.0, 73, churn=True),
    )
}


def churn_id(vid: str, step_index: int) -> str:
    """Fresh id for synth vehicle ``vid`` (``v0001`` ...) at a step.

    The vehicle part keeps its fixed width and leads the id, so the sort
    order of the fleet, and with it every first-hit blocker, is that of
    the unrelabelled trace.
    """
    phase = int(vid[1:]) % RESPAWN_STEPS
    return f"{vid}.{(step_index + phase) // RESPAWN_STEPS:04d}"


def trace_name(k: int) -> str:
    return f"trace-{k}.jsonl"


def iter_steps(w: Workload, seed: int, k: int):
    """The ScenarioSteps of drive ``k``, in trace order."""
    cfg = SynthConfig(
        blocks=w.blocks,
        vehicle_count=w.vehicles,
        duration_s=w.steps * STEP_PERIOD,
        step_period=STEP_PERIOD,
        seed=seed * TRACES + k,
    )
    for i, step in enumerate(SyntheticTrace(cfg)):
        if w.churn:
            step = replace(step, others=tuple(replace(v, id=churn_id(v.id, i)) for v in step.others))
        yield step


def generate(w: Workload, seed: int, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_buildings(out_dir / "buildings.json", make_buildings(SynthConfig(blocks=w.blocks)))
    for k in range(TRACES):
        with open(out_dir / trace_name(k), "w", encoding="utf-8") as f:
            for step in iter_steps(w, seed, k):
                f.write(step_to_line(step))
                f.write("\n")
    meta = {"workload": w.name, "seed": seed, "steps": w.steps, "traces": TRACES, "config": w.config(seed)}
    with open(out_dir / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f)
