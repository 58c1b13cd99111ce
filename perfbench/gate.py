"""Correctness gate over the files one ``pipeline.run`` wrote.

Checks that every ``messages.jsonl`` and ``ego_fixes.jsonl`` line is
strict JSON (a bare NaN or Infinity is rejected), that every
``metrics.csv`` row satisfies ``los + nlosb + nlosv = total_in_range``,
and that the run has one row and one ego fix per trace step. Each
problem is charged to the step it belongs to.

It also returns two digests. The label digest covers the per-step
``(total_in_range, los, nlosb, nlosv)`` columns: pure geometry, no random
draws, so it may be pinned. The draw digest covers the bytes of the two
JSON-lines files, which depend on the random streams; it is only compared
between runs of one commit with the same seed.

Usage: python3 perfbench/gate.py OUT_DIR STEPS   (exit 1 on any failure)
"""
from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

LABEL_COLUMNS = ("total_in_range", "los", "nlosb", "nlosv")


@dataclass
class GateReport:
    steps: int
    failed: set = field(default_factory=set)  # step indices
    problems: list = field(default_factory=list)
    label_digest: str = ""
    draw_digest: str = ""
    metrics_rows: list = field(default_factory=list)

    def fail(self, step: int, problem: str) -> None:
        self.failed.add(step)
        if len(self.problems) < 20:
            self.problems.append(problem)

    def fail_all(self, problem: str) -> None:
        self.failed.update(range(self.steps))
        self.problems.append(problem)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def strict_json(line: str):
    return json.loads(line, parse_constant=_reject_constant)


def check_outputs(out_dir, steps: int) -> GateReport:
    out = Path(out_dir)
    report = GateReport(steps=steps)
    labels = hashlib.sha256()
    step_of: dict[float, int] = {}
    try:
        with open(out / "metrics.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        report.fail_all(f"metrics.csv: {exc}")
        return report
    for i, row in enumerate(rows):
        if i >= steps:
            report.fail(steps - 1, f"metrics.csv: {len(rows)} rows for {steps} steps")
            break
        try:
            total, los, nlosb, nlosv = (int(row[c]) for c in LABEL_COLUMNS)
            step_of[float(row["step_t"])] = i
        except (KeyError, TypeError, ValueError) as exc:
            report.fail(i, f"metrics.csv row {i}: {exc!r}")
            continue
        if los + nlosb + nlosv != total:
            report.fail(i, f"metrics.csv row {i}: {los}+{nlosb}+{nlosv} != {total}")
        labels.update(f"{total},{los},{nlosb},{nlosv}\n".encode())
        report.metrics_rows.append(row)
    if len(rows) < steps:
        report.fail(steps - 1, f"metrics.csv: {len(rows)} rows for {steps} steps")
        report.failed.update(range(len(rows), steps))
    report.label_digest = labels.hexdigest()

    draws = hashlib.sha256()
    for name, per_step in (("messages.jsonl", False), ("ego_fixes.jsonl", True)):
        try:
            data = (out / name).read_bytes()
        except OSError as exc:
            report.fail_all(f"{name}: {exc}")
            continue
        draws.update(data)
        lines = data.decode("utf-8", errors="replace").splitlines()
        step = 0
        for n, line in enumerate(lines):
            try:
                # a lenient parse first, only to charge the right step
                step = n if per_step else step_of[float(json.loads(line)["step_t"])]
                strict_json(line)
            except (ValueError, KeyError, TypeError) as exc:
                report.fail(n if per_step else step, f"{name} line {n + 1}: {exc}")
        if per_step and len(lines) != steps:
            report.fail(steps - 1, f"{name}: {len(lines)} lines for {steps} steps")
            report.failed.update(range(len(lines), steps))
    report.draw_digest = draws.hexdigest()
    return report


def combine(digests) -> str:
    """One digest for the label digests of several drives, in order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main(argv) -> int:
    report = check_outputs(argv[0], int(argv[1]))
    for problem in report.problems:
        print(problem)
    print(f"gate: {len(report.failed)} of {report.steps} steps failed")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
