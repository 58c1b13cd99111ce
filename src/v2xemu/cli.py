"""Command-line interface.

Subcommands:

* ``run``          emulate one trace, write messages/fixes/metrics
* ``sweep``        grid of culling ranges, write sweep.csv, print the trade-off table
* ``gen-scenario`` synthesize a grid city and a driving trace
* ``gnss-diag``    stationary receiver statistics for the error model
* ``validate``     schema/invariant check of input files, no run

All randomness flows from one ``--seed`` through named substreams, so a
command line fully reproduces a run. ``--set key=value`` overrides apply
on top of the config file in the order given; ``--seed`` is a shorthand
applied last. Culling ranges accept ``inf`` (no culling) and ``diag``
(the building map's bounding-box diagonal).
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .config import (
    ConfigError,
    EmulatorConfig,
    apply_overrides,
    config_from_dict,
    parse_range,
    read_config_file,
    write_config,
)
from .gnss import error_offset, stationary_series
from .rng import substream
from .scenario import ScenarioError, load_buildings, load_trace, write_buildings, write_trace
from .synth import SynthConfig, generate_synthetic_scenario

# gnss-diag excursion check: the share of windows this long whose peak
# error magnitude exceeds this many meters
GNSS_DIAG_WINDOW_S = 600.0
GNSS_DIAG_PEAK_M = 5.0


def _add_common(p: argparse.ArgumentParser, *, trace=True, buildings=True, out=True) -> None:
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    if trace:
        p.add_argument("--trace", required=True, help="trace file, JSON lines")
    if buildings:
        p.add_argument("--buildings", required=True, help="building map, JSON")
    if out:
        p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="base RNG seed (overrides config)")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override, repeatable; applied after --config",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="v2xemu", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="emulate a trace and write outputs")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="grid sweep over culling ranges")
    _add_common(p_sweep)
    p_sweep.add_argument("--rb-list", required=True, help="comma-separated building ranges (m, inf, diag)")
    p_sweep.add_argument("--rv-list", required=True, help="comma-separated vehicle ranges (m, inf, diag)")

    p_gen = sub.add_parser("gen-scenario", help="generate a synthetic grid city + trace")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--blocks", default="10", help="N or NXxNY city blocks (default 10)")
    p_gen.add_argument("--block-size", type=float, default=80.0)
    p_gen.add_argument("--street-width", type=float, default=20.0)
    p_gen.add_argument("--vehicles", type=int, default=50, help="fleet size including the ego")
    p_gen.add_argument("--duration", type=float, default=60.0, help="seconds")
    p_gen.add_argument("--step-period", type=float, default=0.1, help="seconds per step")
    p_gen.add_argument("--truck-fraction", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)

    p_diag = sub.add_parser("gnss-diag", help="stationary GNSS error statistics")
    p_diag.add_argument("--config", help="JSON config file for sigma/t_corr")
    p_diag.add_argument("--duration", type=float, default=2000.0, help="seconds (>= 100 * t_corr)")
    p_diag.add_argument("--step", type=float, default=1.0, help="seconds per sample")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--csv", help="write the series (t, mu, theta, east, north) here")
    p_diag.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE"
    )

    p_val = sub.add_parser("validate", help="check input files without running")
    p_val.add_argument("--trace", help="trace file to validate")
    p_val.add_argument("--buildings", help="building map to validate")

    return parser


def _load_config(args, diagonal: float | None = None) -> EmulatorConfig:
    data = read_config_file(args.config) if getattr(args, "config", None) else {}
    data = apply_overrides(data, args.overrides)
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    return config_from_dict(data, diagonal)


def _cmd_run(args) -> int:
    index = load_buildings(args.buildings)
    cfg = _load_config(args, diagonal=index.diagonal)
    summary = pipeline.run(cfg, index, load_trace(args.trace), args.out)
    print(
        f"run: {summary.steps} steps, {summary.messages} messages, "
        f"{summary.over_budget_steps} over budget, "
        f"mean delay {summary.mean_wall_delay * 1e3:.2f} ms, "
        f"max {summary.max_wall_delay * 1e3:.2f} ms"
    )
    return 0


def _cmd_sweep(args) -> int:
    index = load_buildings(args.buildings)
    diagonal = index.diagonal
    cfg = _load_config(args, diagonal=diagonal)
    rb = [parse_range(t, diagonal, "--rb-list") for t in args.rb_list.split(",") if t.strip()]
    rv = [parse_range(t, diagonal, "--rv-list") for t in args.rv_list.split(",") if t.strip()]
    rows = pipeline.sweep(cfg, index, load_trace(args.trace), rb, rv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_sweep_csv(out / "sweep.csv", rows)
    write_config(cfg, out / "effective_config.json")
    # speedup against the slowest pair; an empty trace has no delays to compare
    slowest = max(row.mean_delay_top50 for row in rows)
    table = [("rb", "rv", "top50_ms", "max_ms", "mean_ms", "nlosb_missed", "delivered_diff", "speedup")]
    for row in rows:
        share = row.nlosb_missed / row.total_reference_nlosb if row.total_reference_nlosb else 0.0
        delays = (row.mean_delay_top50, row.max_delay, row.mean_delay_all)
        table.append(
            (f"{row.rb:g}", f"{row.rv:g}", *(f"{d * 1e3:.2f}" for d in delays),
             f"{row.nlosb_missed} ({share:.1%})", str(row.delivered_diff),
             f"{slowest / row.mean_delay_top50:.1f}x" if row.mean_delay_top50 else "-")
        )
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return 0


def _cmd_gen_scenario(args) -> int:
    if "x" in args.blocks.lower():
        nx, ny = args.blocks.lower().split("x", 1)
        blocks: int | tuple[int, int] = (int(nx), int(ny))
    else:
        blocks = int(args.blocks)
    cfg = SynthConfig(
        blocks=blocks,
        block_size=args.block_size,
        street_width=args.street_width,
        vehicle_count=args.vehicles,
        duration_s=args.duration,
        step_period=args.step_period,
        seed=args.seed,
        truck_fraction=args.truck_fraction,
    )
    buildings, trace = generate_synthetic_scenario(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_buildings(out / "buildings.json", buildings)
    steps = write_trace(out / "trace.jsonl", trace)
    print(f"gen-scenario: {len(buildings)} buildings, {cfg.vehicle_count} vehicles, {steps} steps")
    return 0


def _cmd_gnss_diag(args) -> int:
    cfg = _load_config(args).gnss
    mu, theta = stationary_series(cfg, args.duration, args.step, substream(args.seed, "gnss-diag"))
    n = mu.size
    print(f"samples: {n} at {args.step} s")
    print(f"empirical RMS {math.sqrt(float(mu @ mu) / n):.3f} m (stationary value {cfg.sigma:.3f} m)")
    print(f"empirical mean {float(mu.mean()):+.3f} m (stationary value 0)")

    centered = mu - mu.mean()
    var = float(centered @ centered) / n
    if var:  # sigma = 0 leaves no error to correlate
        print("lag  empirical  model")
        for k in (1, 5, 10, 30):
            if k >= n:
                break
            emp = float(centered[:-k] @ centered[k:]) / ((n - k) * var)
            print(f"{k:>3}  {emp:>9.4f}  {math.exp(-k * args.step / cfg.t_corr):>6.4f}")

    w = int(round(GNSS_DIAG_WINDOW_S / args.step))
    windows = n // w if w >= 1 else 0
    if windows:
        peaks = np.abs(mu[: windows * w]).reshape(windows, w).max(axis=1)
        print(
            f"{GNSS_DIAG_WINDOW_S:.0f} s windows with |error| peak > {GNSS_DIAG_PEAK_M} m: "
            f"{float(np.mean(peaks > GNSS_DIAG_PEAK_M)):.1%} of {windows}"
        )

    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["t", "mu", "theta", "east", "north"])
            # one sample at a time, as Python floats, through the scalar
            # math cos/sin in error_offset, as on the step path
            for i, state in enumerate(zip(map(float, mu), map(float, theta)), start=1):
                writer.writerow([i * args.step, *state, *error_offset(state)])
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    if not args.trace and not args.buildings:
        print("validate: give --trace and/or --buildings", file=sys.stderr)
        return 2
    if args.buildings:
        index = load_buildings(args.buildings)
        print(f"buildings: OK ({len(index)} polygons)")
    if args.trace:
        steps = 0
        for _ in load_trace(args.trace):
            steps += 1
        print(f"trace: OK ({steps} steps)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "gen-scenario": _cmd_gen_scenario,
        "gnss-diag": _cmd_gnss_diag,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, ConfigError, OSError, ValueError, pipeline.StepError) as exc:
        print(f"v2xemu {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
