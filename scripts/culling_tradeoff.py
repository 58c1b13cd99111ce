#!/usr/bin/env python3
"""Quantify the accuracy-vs-speed trade-off of the culling radii.

Generates a synthetic grid city, runs the full emulation once per
(r_b, r_v) pair plus one unculled reference, and reports how much
classification fidelity each radius gives up in exchange for lower
per-step processing delay.

Produces:
  <out>/sweep.csv   one row per (r_b, r_v) pair
and prints the same table with a speedup column relative to the widest
pair swept.

Usage:
  python3 scripts/culling_tradeoff.py --out results/tradeoff
  python3 scripts/culling_tradeoff.py --blocks 20 --vehicles 200 \
      --rb 100,300,500,diag --rv 300,diag --duration 30
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from v2xemu.config import ConfigError, config_from_dict, parse_range
from v2xemu.pipeline import SWEEP_HEADER, sweep, write_sweep_csv
from v2xemu.synth import SynthConfig, city_diagonal, generate_synthetic_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--blocks", type=int, default=10, help="city blocks per axis")
    ap.add_argument("--vehicles", type=int, default=500, help="vehicle count incl. ego")
    ap.add_argument("--duration", type=float, default=20.0, help="trace length [s]")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rb", default="100,300,500,900,diag", help="comma list of m, 'inf' or 'diag' (city diagonal)")
    ap.add_argument("--rv", default="300,diag", help="comma list of m, 'inf' or 'diag' (city diagonal)")
    ap.add_argument("--out", default="results/tradeoff", help="output directory")
    args = ap.parse_args(argv)

    city = SynthConfig(
        blocks=args.blocks,
        vehicle_count=args.vehicles,
        duration_s=args.duration,
        seed=args.seed,
    )
    buildings, trace = generate_synthetic_scenario(city)
    diagonal = city_diagonal(city)
    try:
        rb_values = [parse_range(t, diagonal, "--rb") for t in args.rb.split(",") if t.strip()]
        rv_values = [parse_range(t, diagonal, "--rv") for t in args.rv.split(",") if t.strip()]
    except ConfigError as exc:
        ap.error(str(exc))

    print(
        f"city: {city.grid[0]}x{city.grid[1]} blocks, {len(buildings)} buildings, "
        f"{args.vehicles} vehicles, {args.duration:.0f} s, diagonal {diagonal:.0f} m"
    )
    print(f"sweeping {len(rb_values)}x{len(rv_values)} radius pairs ...")

    config = config_from_dict({"seed": args.seed})
    rows = sweep(config, buildings, trace, rb_values, rv_values)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out_dir / "sweep.csv", rows)

    slowest = max(row.mean_delay_top50 for row in rows)
    table = [SWEEP_HEADER.split(",") + ["speedup"]]
    for row in rows:
        missed_pct = (
            100.0 * row.nlosb_missed / row.total_reference_nlosb
            if row.total_reference_nlosb
            else 0.0
        )
        table.append(
            [
                f"{row.rb:.0f}",
                f"{row.rv:.0f}",
                f"{row.mean_delay_top50 * 1e3:.2f}ms",
                f"{row.max_delay * 1e3:.2f}ms",
                f"{row.mean_delay_all * 1e3:.2f}ms",
                f"{row.nlosb_missed} ({missed_pct:.1f}%)",
                f"{row.total_reference_nlosb}",
                f"{row.delivered_diff}",
                f"{slowest / row.mean_delay_top50:.1f}x",
            ]
        )
    widths = [max(len(r[c]) for r in table) for c in range(len(table[0]))]
    print()
    for r in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    print(f"\nwrote {out_dir / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
