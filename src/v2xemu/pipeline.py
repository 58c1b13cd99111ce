"""Per-step emulation pipeline.

For every trace step: cull candidates around the ego, classify each
in-range link, compute its received power with correlated shadowing,
keep the messages whose received power clears the sensitivity, then
corrupt the surviving senders' reported positions with their current
GNSS error. The other vehicles arrive as columns and are culled on
them; the links of a step travel as parallel arrays and plain floats in
target id order, and a message tuple is built only for a delivered link.
Each phase is timed with a monotonic clock; the wall delay across the
whole step is the per-step processing cost the metrics report.

Outputs (all deterministic for a fixed seed and config; timings are
measurements and naturally vary):

* ``messages.jsonl``  one line per received message,
  ``{"step_t", "sender_id", "lat", "lon", "speed", "heading",
  "condition", "rx_power"}``
* ``ego_fixes.jsonl`` the ego's own degraded fix per step,
  ``{"step_t", "lat", "lon"}``
* ``metrics.csv``     header ``step_t,wall_delay,total_in_range,los,
  nlosb,nlosv,delivered,t_cull,t_classify,t_channel,t_gnss,over_budget``

Each line or row holds the fields of its NamedTuple (``ReceivedMessage``,
``EgoFix``, ``StepMetrics``, ``SweepRow``) in order.

A sweep repeats the run over a grid of culling ranges and scores each
against an unculled reference: missed NLOSb classifications, symmetric
difference of delivered sets, and delay statistics including the mean
over the 50 busiest steps.

The building map arrives as the checked ``SpatialIndex`` that
``scenario.load_buildings`` returns, which every run of a sweep shares.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .channel import ShadowingTracker, link_rx_power
from .config import EmulatorConfig, write_config
from .geometry import (
    CullingRanges,
    LinkClassifier,
    LinkCondition,
    SpatialIndex,
    link_conditions,
    nlosv_split,
)
from .gnss import GnssTracker, error_offset
from .scenario import ScenarioStep, planar_to_geodetic


def json_line(row: NamedTuple) -> str:
    """One strict-JSON line (no NaN or Infinity) holding ``row``'s fields."""
    return json.dumps(row._asdict(), separators=(",", ":"), allow_nan=False)


class ReceivedMessage(NamedTuple):
    step_t: float
    sender_id: str
    lat: float  # GNSS-degraded
    lon: float
    speed: float
    heading: float
    condition: LinkCondition
    rx_power: float


class EgoFix(NamedTuple):
    step_t: float
    lat: float
    lon: float


class StepMetrics(NamedTuple):
    step_t: float
    wall_delay: float
    total_in_range: int
    los: int
    nlosb: int
    nlosv: int
    delivered: int
    t_cull: float
    t_classify: float
    t_channel: float
    t_gnss: float
    over_budget: bool  # wall_delay > budget_s


METRICS_HEADER = ",".join(StepMetrics._fields)


@dataclass(frozen=True)
class StepResult:
    """One step's outputs, plus every in-range link as parallel arrays in
    target id order."""

    metrics: StepMetrics
    messages: tuple[ReceivedMessage, ...]
    ego_fix: EgoFix
    target_ids: tuple[str, ...]
    conditions: tuple[LinkCondition, ...]
    rx_power: np.ndarray  # dBm


class StepError(RuntimeError):
    """A trace step that failed inside the emulator. ``timestamp`` is the
    step's trace time; the failure is chained as ``__cause__``."""

    def __init__(self, timestamp: float, cause: Exception):
        self.timestamp = timestamp
        super().__init__(f"step t={timestamp}: {cause}")


class Emulator:
    """Stateful per-step engine bound to one config and building index."""

    def __init__(self, config: EmulatorConfig, index: SpatialIndex):
        self.config = config
        self.classifier = LinkClassifier(
            index,
            ranges=config.ranges,
            nlosv_threshold=config.nlosv_threshold,
        )
        self.shadowing = ShadowingTracker(
            seed=config.seed,
            std=config.radio.shadowing_std,
            d_corr=config.radio.decorrelation_distance,
            eviction_s=config.shadow_eviction_s,
        )
        self.gnss = GnssTracker(seed=config.seed, cfg=config.gnss)
        self.ego_gnss = GnssTracker(seed=config.seed, cfg=config.ego_gnss_config)

    def step(self, step: ScenarioStep) -> StepResult:
        cfg = self.config
        t = step.timestamp
        ego = step.ego
        try:
            t0 = time.perf_counter()
            cand = self.classifier.select_candidates(ego, step.others)
            t1 = time.perf_counter()
            hit, between = self.classifier.classify_candidates(cand)
            t2 = time.perf_counter()

            ids = cand.target_ids
            ex, ey = ego.position.x, ego.position.y
            xs, ys = cand.vx.tolist(), cand.vy.tolist()
            conditions = link_conditions(hit, between)
            # shadowing state advances serially in id order (targets are
            # already id-sorted)
            shadow = [self.shadowing.update(vid, ex, ey, x, y, t) for vid, x, y in zip(ids, xs, ys)]
            self.shadowing.evict_stale(t)
            offset = cfg.scenario.antenna_height_offset
            d1, d2 = nlosv_split(cand, between)
            rx = link_rx_power(
                cfg.radio,
                conditions=conditions,
                distance_2d=cand.distances,
                h_ego=ego.height + offset,
                h_target=cand.height + offset,
                d1=d1,
                d2=d2,
                h_blocker=np.where(between >= 0, cand.height[between], np.nan),
                shadow_db=shadow,
            )
            # delivered when the received power reaches the sensitivity
            delivered = np.flatnonzero(rx >= cfg.radio.sensitivity).tolist()
            t3 = time.perf_counter()

            lat0, lon0 = cfg.scenario.origin_lat, cfg.scenario.origin_lon
            de, dn = error_offset(self.ego_gnss.error_at(ego.id, t))
            ego_fix = EgoFix(t, *planar_to_geodetic(lat0, lon0, ex + de, ey + dn))
            speed, heading = cand.speed.tolist(), cand.heading.tolist()
            messages: list[ReceivedMessage] = []
            for i in delivered:
                de, dn = error_offset(self.gnss.error_at(ids[i], t))
                lat, lon = planar_to_geodetic(lat0, lon0, xs[i] + de, ys[i] + dn)
                messages.append(
                    ReceivedMessage(t, ids[i], lat, lon, speed[i], heading[i], conditions[i], float(rx[i]))
                )
            t4 = time.perf_counter()
        except Exception as exc:
            raise StepError(t, exc) from exc

        wall = t4 - t0
        metrics = StepMetrics(
            step_t=t,
            wall_delay=wall,
            total_in_range=len(ids),
            los=conditions.count(LinkCondition.LOS),
            nlosb=conditions.count(LinkCondition.NLOSB),
            nlosv=conditions.count(LinkCondition.NLOSV),
            delivered=len(messages),
            t_cull=t1 - t0,
            t_classify=t2 - t1,
            t_channel=t3 - t2,
            t_gnss=t4 - t3,
            over_budget=wall > cfg.budget_s,
        )
        return StepResult(
            metrics=metrics,
            messages=tuple(messages),
            ego_fix=ego_fix,
            target_ids=ids,
            conditions=conditions,
            rx_power=rx,
        )


def run_steps(config: EmulatorConfig, index: SpatialIndex, trace: Iterable[ScenarioStep]) -> Iterator[StepResult]:
    """Lazy generator over step results; one step in flight at a time."""
    emu = Emulator(config, index)
    for step in trace:
        yield emu.step(step)


@dataclass
class RunSummary:
    steps: int = 0
    messages: int = 0
    over_budget_steps: int = 0
    mean_wall_delay: float = 0.0
    max_wall_delay: float = 0.0


def run(
    config: EmulatorConfig,
    index: SpatialIndex,
    trace: Iterable[ScenarioStep],
    out_dir,
) -> RunSummary:
    """Execute the pipeline and write the three output files plus an
    ``effective_config.json`` echo of the resolved configuration."""
    emu = Emulator(config, index)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = RunSummary()
    delay_sum = 0.0
    with (
        open(out / "messages.jsonl", "w", encoding="utf-8") as f_msg,
        open(out / "ego_fixes.jsonl", "w", encoding="utf-8") as f_ego,
        open(out / "metrics.csv", "w", encoding="utf-8", newline="") as f_met,
    ):
        writer = csv.writer(f_met)
        writer.writerow(StepMetrics._fields)
        for res in map(emu.step, trace):
            for msg in res.messages:
                f_msg.write(json_line(msg))
                f_msg.write("\n")
            f_ego.write(json_line(res.ego_fix))
            f_ego.write("\n")
            writer.writerow(res.metrics)
            summary.steps += 1
            summary.messages += len(res.messages)
            summary.over_budget_steps += res.metrics.over_budget
            delay_sum += res.metrics.wall_delay
            summary.max_wall_delay = max(summary.max_wall_delay, res.metrics.wall_delay)
    if summary.steps:
        summary.mean_wall_delay = delay_sum / summary.steps
    write_config(config, out / "effective_config.json")
    return summary


# ---------------------------------------------------------------------------
# Range sweep
# ---------------------------------------------------------------------------

TOP_TRAFFIC_STEPS = 50


class SweepRow(NamedTuple):
    rb: float
    rv: float
    mean_delay_top50: float
    max_delay: float
    mean_delay_all: float
    nlosb_missed: int
    total_reference_nlosb: int
    delivered_diff: int


SWEEP_HEADER = ",".join(SweepRow._fields)


@dataclass(frozen=True)
class _StepRecord:
    wall_delay: float
    total_in_range: int
    nlosb_targets: frozenset
    delivered: frozenset


def _record_run(config: EmulatorConfig, index: SpatialIndex, trace: Iterable[ScenarioStep]) -> list[_StepRecord]:
    records = []
    for res in run_steps(config, index, trace):
        nlosb = frozenset(
            tid for tid, c in zip(res.target_ids, res.conditions) if c is LinkCondition.NLOSB
        )
        delivered = frozenset(m.sender_id for m in res.messages)
        records.append(
            _StepRecord(
                wall_delay=res.metrics.wall_delay,
                total_in_range=res.metrics.total_in_range,
                nlosb_targets=nlosb,
                delivered=delivered,
            )
        )
    return records


def _delay_stats(records: list[_StepRecord]) -> tuple[float, float, float]:
    if not records:
        return 0.0, 0.0, 0.0
    delays = [r.wall_delay for r in records]
    busiest = sorted(records, key=lambda r: (-r.total_in_range, r.wall_delay))
    top = [r.wall_delay for r in busiest[:TOP_TRAFFIC_STEPS]]
    return sum(top) / len(top), max(delays), sum(delays) / len(delays)


def sweep(
    config: EmulatorConfig,
    index: SpatialIndex,
    trace: Iterable[ScenarioStep],
    rb_values: Iterable[float],
    rv_values: Iterable[float],
) -> list[SweepRow]:
    """Run every (r_b, r_v) pair and score it against the unculled
    reference (both radii infinite, which subsumes the scenario diagonal).
    ``trace`` is read once, into a list that every run replays; every run
    uses ``index``.
    """
    rb_list = list(rb_values)
    rv_list = list(rv_values)
    if not rb_list or not rv_list:
        raise ValueError("rb_values and rv_values must be non-empty")
    steps = list(trace)

    ref_cfg = replace(config, ranges=CullingRanges(math.inf, math.inf))
    reference = _record_run(ref_cfg, index, steps)
    total_ref_nlosb = sum(len(r.nlosb_targets) for r in reference)

    rows: list[SweepRow] = []
    for rb in rb_list:
        for rv in rv_list:
            cfg = replace(config, ranges=CullingRanges(float(rb), float(rv)))
            records = _record_run(cfg, index, steps)
            if len(records) != len(reference):
                raise RuntimeError("sweep runs saw different step counts")
            missed = sum(
                len(ref.nlosb_targets - rec.nlosb_targets)
                for ref, rec in zip(reference, records)
            )
            ddiff = sum(
                len(ref.delivered ^ rec.delivered) for ref, rec in zip(reference, records)
            )
            top50, dmax, dall = _delay_stats(records)
            rows.append(
                SweepRow(
                    rb=float(rb),
                    rv=float(rv),
                    mean_delay_top50=top50,
                    max_delay=dmax,
                    mean_delay_all=dall,
                    nlosb_missed=missed,
                    total_reference_nlosb=total_ref_nlosb,
                    delivered_diff=ddiff,
                )
            )
    return rows


def write_sweep_csv(path, rows: Iterable[SweepRow]) -> None:
    with open(str(path), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SweepRow._fields)
        writer.writerows(rows)
