"""Per-step emulation pipeline.

For every trace step: cull candidates around the ego, classify each
in-range link, compute its received power with correlated shadowing,
keep the messages whose received power clears the sensitivity, then
corrupt the surviving senders' reported positions with their current
GNSS error. The other vehicles arrive as columns and are culled on
them and classified as arrays. After classification one call advances
every link's shadowing, one loop in target id order labels and prices
each link from plain floats, the ego's GNSS error advances, one call
advances those of the delivered senders, and a message tuple is built
only for a delivered link.
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

A sweep scores a grid of culling ranges against the unculled reference
in one pass over the trace, keeping only running sums per run: missed
NLOSb classifications, symmetric difference of delivered sets, and delay
statistics (the reference's too) including the mean over the 50 busiest.

The building map arrives as the checked ``SpatialIndex`` that
``scenario.load_buildings`` returns, which every run of a sweep shares.
"""
from __future__ import annotations

import csv
import heapq
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .channel import ShadowingTracker, link_rx_power
from .config import EmulatorConfig, write_config
from .geometry import CullingRanges, LinkClassifier, LinkCondition, SpatialIndex
from .gnss import GnssTracker, error_offset
from .scenario import ScenarioStep, planar_to_geodetic


# json.dumps with these arguments would build a new encoder for every line
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def json_line(row: NamedTuple) -> str:
    """One strict-JSON line (no NaN or Infinity) holding ``row``'s fields."""
    return _ENCODER.encode(row._asdict())


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
    """Stateful per-step engine bound to one config and building index;
    its steps must come in strictly increasing time, as in a trace file."""

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
        self._last_t = -math.inf

    def step(self, step: ScenarioStep) -> StepResult:
        cfg = self.config
        t = step.timestamp
        ego = step.ego
        try:
            if not t > self._last_t:
                raise ValueError(f"timestamp {t} not after {self._last_t}")
            self._last_t = t
            t0 = time.perf_counter()
            cand = self.classifier.select_candidates(ego, step.others)
            t1 = time.perf_counter()
            hit, between = self.classifier.classify_candidates(cand)
            t2 = time.perf_counter()

            ids = cand.target_ids
            ex, ey = ego.position.x, ego.position.y
            xs, ys = cand.vx.tolist(), cand.vy.tolist()
            radio, offset = cfg.radio, cfg.scenario.antenna_height_offset
            h_ego, heights = ego.height + offset, cand.height.tolist()
            shadows = self.shadowing.update_links(ids, ex, ey, xs, ys, t)
            conditions, rx = [], []
            # one link at a time in target id order
            links = zip(xs, ys, cand.distances.tolist(), heights, hit.tolist(), between.tolist(), shadows)
            for x, y, d, h, b, v, shadow in links:
                cond = LinkCondition.NLOSB if b >= 0 else LinkCondition.NLOSV if v >= 0 else LinkCondition.LOS
                d1 = d2 = h_b = math.nan
                if cond is LinkCondition.NLOSV:
                    # the blocker projected orthogonally onto the link
                    dx, dy = x - ex, y - ey
                    u = ((xs[v] - ex) * dx + (ys[v] - ey) * dy) / (dx * dx + dy * dy)
                    d1 = u * d
                    d2 = d - d1
                    h_b = heights[v]
                conditions.append(cond)
                rx.append(link_rx_power(radio, cond, d, h_ego, h + offset, d1, d2, h_b, shadow))
            # delivered when the received power reaches the sensitivity
            delivered = [i for i, power in enumerate(rx) if power >= radio.sensitivity]
            t3 = time.perf_counter()

            lat0, lon0 = cfg.scenario.origin_lat, cfg.scenario.origin_lon
            senders = list(map(ids.__getitem__, delivered))
            # a new ego id, such as a pseudonym change, starts a new node
            de, dn = error_offset(self.ego_gnss.errors_at((ego.id,), t)[0])
            ego_fix = EgoFix(t, *planar_to_geodetic(lat0, lon0, ex + de, ey + dn))
            speed, heading = cand.speed.tolist(), cand.heading.tolist()
            messages: list[ReceivedMessage] = []
            for i, vid, error in zip(delivered, senders, self.gnss.errors_at(senders, t)):
                de, dn = error_offset(error)
                lat, lon = planar_to_geodetic(lat0, lon0, xs[i] + de, ys[i] + dn)
                messages.append(ReceivedMessage(t, vid, lat, lon, speed[i], heading[i], conditions[i], rx[i]))
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
            conditions=tuple(conditions),
            rx_power=np.array(rx, dtype=np.float64),
        )


def run(
    config: EmulatorConfig,
    index: SpatialIndex,
    trace: Iterable[ScenarioStep],
    out_dir,
) -> RunSummary:
    """Execute the pipeline and write the three output files plus an
    ``effective_config.json`` echo of the resolved configuration; returns
    the run's tally."""
    emu = Emulator(config, index)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = RunSummary()
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
            summary.add(res.metrics)
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


class RunSummary:
    """One run's sums, added to step by step, which ``run`` returns and
    ``sweep`` scores from, and a heap of its ``TOP_TRAFFIC_STEPS`` smallest
    (-total_in_range, wall_delay) keys, negated so that the root is the one
    to drop. Keys that tie have equal delays, so it keeps the delays that a
    full sort would."""

    def __init__(self):
        self.nlosb_missed = 0
        self.delivered_diff = 0
        self.steps = 0
        self.messages = 0
        self.over_budget = 0
        self.delay_sum = 0.0
        self.delay_max = 0.0
        self.busiest: list[tuple[int, float]] = []  # (total_in_range, -wall_delay)

    def add(self, metrics: StepMetrics, nlosb_missed: int = 0, delivered_diff: int = 0) -> None:
        self.nlosb_missed += nlosb_missed
        self.delivered_diff += delivered_diff
        self.steps += 1
        self.messages += metrics.delivered
        self.over_budget += metrics.over_budget
        delay = metrics.wall_delay
        self.delay_sum += delay
        self.delay_max = max(self.delay_max, delay)
        entry = (metrics.total_in_range, -delay)
        if len(self.busiest) < TOP_TRAFFIC_STEPS:
            heapq.heappush(self.busiest, entry)
        else:
            heapq.heappushpop(self.busiest, entry)

    @property
    def delay_mean(self) -> float:
        return self.delay_sum / self.steps if self.steps else 0.0

    def row(self, ranges: CullingRanges, total_reference_nlosb: int) -> SweepRow:
        top = -sum(d for _, d in self.busiest) / len(self.busiest) if self.steps else 0.0
        return SweepRow(
            rb=ranges.r_b,
            rv=ranges.r_v,
            mean_delay_top50=top,
            max_delay=self.delay_max,
            mean_delay_all=self.delay_mean,
            nlosb_missed=self.nlosb_missed,
            total_reference_nlosb=total_reference_nlosb,
            delivered_diff=self.delivered_diff,
        )


def _scored_ids(res: StepResult) -> tuple[set[str], set[str]]:
    """The ids a step labels NLOSb, and the ids it delivers."""
    nlosb = {tid for tid, c in zip(res.target_ids, res.conditions) if c is LinkCondition.NLOSB}
    return nlosb, {m.sender_id for m in res.messages}


def sweep(
    config: EmulatorConfig,
    index: SpatialIndex,
    trace: Iterable[ScenarioStep],
    rb_values: Iterable[float],
    rv_values: Iterable[float],
) -> tuple[SweepRow, list[SweepRow]]:
    """Score every (r_b, r_v) pair against the unculled reference (both
    radii infinite, which subsumes the scenario diagonal) in one pass
    over ``trace``: each step runs the reference and then every pair in
    grid order, and each pair's step is scored against the reference's at
    once. Memory is bounded by the fleet and the grid, not by the trace
    length; every run uses ``index``.

    Returns the reference's own row (nothing missed, no delivery
    difference) and one row per pair, rb-major.
    """
    rb_list = list(rb_values)
    rv_list = list(rv_values)
    if not rb_list or not rv_list:
        raise ValueError("rb_values and rv_values must be non-empty")
    exact = CullingRanges(math.inf, math.inf)
    pairs = [CullingRanges(float(rb), float(rv)) for rb in rb_list for rv in rv_list]
    reference = Emulator(replace(config, ranges=exact), index)
    culled = [Emulator(replace(config, ranges=ranges), index) for ranges in pairs]
    ref_score, scores = RunSummary(), [RunSummary() for _ in pairs]
    total_ref_nlosb = 0
    for step in trace:
        res = reference.step(step)
        nlosb, delivered = _scored_ids(res)
        total_ref_nlosb += len(nlosb)
        ref_score.add(res.metrics)
        for emu, score in zip(culled, scores):
            res = emu.step(step)
            got_nlosb, got_delivered = _scored_ids(res)
            score.add(res.metrics, len(nlosb - got_nlosb), len(delivered ^ got_delivered))
    rows = [score.row(ranges, total_ref_nlosb) for ranges, score in zip(pairs, scores)]
    return ref_score.row(exact, total_ref_nlosb), rows


def write_sweep_csv(path, rows: Iterable[SweepRow]) -> None:
    with open(str(path), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SweepRow._fields)
        writer.writerows(rows)
