#!/usr/bin/env python3
"""Pin the link-label digest of each workload for a range of seeds.

The digest covers the per-step ``(total_in_range, los, nlosb, nlosv)``
columns of ``metrics.csv`` of every drive, which are pure geometry, so an
optimisation that keeps behaviour keeps them. Re-pin only when the
workloads change. ``churn-300`` is not pinned: its labels must equal
``dense-300``'s.

Usage: python3 perfbench/pin.py FIRST_SEED LAST_SEED [WORKLOAD ...]
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from gate import check_outputs, combine  # noqa: E402
from v2xemu import pipeline, scenario  # noqa: E402
from v2xemu.config import config_from_dict  # noqa: E402
from workloads import TRACES, WORKLOADS, generate, trace_name  # noqa: E402

PINS = BENCH / "pinned_labels.json"


def label_digest(name: str, seed: int) -> str:
    w = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"pin-{name}-s{seed}"
    try:
        generate(w, seed, work / "inputs")
        digests = []
        for k in range(TRACES):
            buildings = scenario.load_buildings(work / "inputs" / "buildings.json")
            trace = scenario.load_trace(work / "inputs" / trace_name(k))
            pipeline.run(config_from_dict(w.config(seed)), buildings, trace, work / "out")
            report = check_outputs(work / "out", w.steps)
            if report.failed:
                raise SystemExit(f"{name} seed {seed} drive {k}: gate failed: {report.problems}")
            digests.append(report.label_digest)
        return combine(digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    names = argv[2:] or [name for name, w in WORKLOADS.items() if not w.churn]
    for name in names:
        for seed in range(first, last + 1):
            digest = label_digest(name, seed)
            # re-read before writing, so that runs for other workloads may go on beside this one
            pins = json.loads(PINS.read_text(encoding="utf-8"))
            pins.setdefault(name, {})[str(seed)] = digest
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(name, seed, digest[:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
