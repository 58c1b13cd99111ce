#!/usr/bin/env python3
"""v2xemu benchmark: seeded trace-replay workloads, end to end and per layer.

For one workload and seed it generates ``buildings.json`` and the trace
files of several drives with ``v2xemu.synth``, runs them through
``load_buildings`` and ``pipeline.run`` in fresh single-threaded children
(closed loop, one step in flight, unpaced), checks every output file, and
prints the metrics by name and unit. The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics from a hook-free run.
``--trace 1`` reports the per-layer metrics from a run with spans around
each layer's entry points, plus one untraced pass for the overhead.

Each of the workload's drives is replayed whole by a fresh
``pipeline.run``, in passes over all of them, until ``--seconds`` have
passed and at least ``MIN_STEPS`` steps were measured; the first
``WARMUP`` steps of every replay are discarded. The passes are split over
two children that run under different string-hash seeds
(``PYTHONHASHSEED``), and every replay of one drive must write identical
bytes, so output that depends on the iteration order of a str-keyed set
or dict fails the run.

Usage:
  python3 perfbench/run.py --workload dense-300 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from gate import check_outputs, combine  # noqa: E402
from stats import percentile, self_time  # noqa: E402

WORK = ROOT / ".perfbench_work"
WARMUP = 10
MIN_STEPS = 1000  # p99 needs ten samples beyond it
DEADLINE_S = 175.0
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
HASH_SEEDS = ("1", "2")  # one per child

# Gated end-to-end metrics. The ones in PRINTED are reported for every run
# but not gated: on a shared 2-core x86 VM, where machine speed drifts by
# half within minutes, the run-to-run spread (IQR / median) of step_p95_ms
# over ten seeds stayed within 0.17, while that of p50 reached 0.21, and
# with earlier trace shapes 0.46 (p50), 0.37 (p99) and 0.29 (steps/s),
# beyond the largest allowed bound of 0.25.
END_TO_END = {
    "step_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED = {
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "steps_per_s": "1/s",
}
PER_LAYER = {
    "scenario.parse_p50_ms": "ms",
    "scenario.parse_p99_ms": "ms",
    "scenario.load_buildings_s": "s",
    "geometry.index_build_s": "s",
    "geometry.cull_p50_ms": "ms",
    "geometry.cull_p99_ms": "ms",
    "geometry.classify_p50_ms": "ms",
    "geometry.classify_p99_ms": "ms",
    "geometry.links_per_step": "count",
    "geometry.walls_per_step": "count",
    "channel.p50_ms": "ms",
    "channel.p99_ms": "ms",
    "channel.delivered_per_link": "ratio",
    "gnss.p50_ms": "ms",
    "gnss.p99_ms": "ms",
    "rng.streams_per_step": "count",
    "rng.stream_create_ms_per_step": "ms",
    "pipeline.step_p50_ms": "ms",
    "pipeline.step_p99_ms": "ms",
    "pipeline.emit_p50_ms": "ms",
    "pipeline.emit_p99_ms": "ms",
    "pipeline.messages_per_step": "count",
    "pipeline.rss_growth_mb": "MB",
    "bench.trace_overhead_frac": "ratio",
}


def measured_intervals(stamps) -> list[float]:
    """Per-step latency in ms, warm-up steps dropped."""
    return [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])][WARMUP:]


def throughput(intervals_ms) -> float:
    return len(intervals_ms) / (sum(intervals_ms) / 1e3)


def environment(seed: int, replays: int, steps: int, labels: str) -> dict:
    rev = ""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_rev": rev or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "replays": replays,
        "steps_measured": replays * (steps - WARMUP),
        "warmup_steps_discarded": replays * WARMUP,
        "hash_seeds": list(HASH_SEEDS),
        "labels": labels,
    }


def pinned_labels(workload: str, seed: int) -> str | None:
    with open(BENCH / "pinned_labels.json", encoding="utf-8") as f:
        pins = json.load(f)
    # churn only relabels ids, so its link labels are dense-300's
    return pins.get("dense-300" if workload == "churn-300" else workload, {}).get(str(seed))


def gate_replays(out: Path, replays, steps: int, pinned: str | None):
    """Gate every replay; ``replays`` are (directory, drive) pairs.
    Returns (reports, attempted, failed).

    All replays of one drive must agree on link labels and on the
    draw-dependent bytes; the labels of all drives must equal the pin.
    """
    reports = [check_outputs(out / d, steps) for d, _ in replays]
    first: dict = {}
    for (d, k), rep in zip(replays, reports):
        ref_dir, ref = first.setdefault(k, (d, rep))
        if rep.label_digest != ref.label_digest:
            rep.fail_all(f"{d}: link labels differ from {ref_dir}, a replay of the same drive")
        if rep.draw_digest != ref.draw_digest:
            rep.fail_all(f"{d}: output bytes differ from {ref_dir}, a replay of the same drive")
    labels = combine([first[k][1].label_digest for k in sorted(first)])
    if pinned is not None and labels != pinned:
        for rep in reports:
            rep.fail_all(f"label digest {labels[:12]} != pinned {pinned[:12]}")
    for (d, _), rep in zip(replays, reports):
        for problem in rep.problems:
            print(f"gate {d}: {problem}")
    return reports, steps * len(reports), sum(len(r.failed) for r in reports)


def end_to_end(children) -> dict:
    """Every END_TO_END and PRINTED metric."""
    iv = [x for c in children for r in c["replays"] for x in measured_intervals(r["stamps"])]
    return {
        "step_p50_ms": percentile(iv, 50),
        "step_p95_ms": percentile(iv, 95),
        "step_p99_ms": percentile(iv, 99),
        "steps_per_s": throughput(iv),
        "setup_s": statistics.median([x for c in children for x in c["setup_s"]]),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }


def per_layer(baseline: dict, child: dict, base_reports, traced_reports, steps: int) -> dict:
    """Every PER_LAYER metric, from the untraced baseline pass and the
    traced child, with the gate reports of their replays."""
    traced = child["replays"]
    spans: dict[str, dict] = {}
    whole: dict[str, list] = {}
    for name, start, end, _parent, rep, step in child["spans"]:
        whole.setdefault(name, []).append(end - start)
        if WARMUP <= step < steps:
            spans.setdefault(name, {}).setdefault((rep, step), []).append((start, end))

    def durations_ms(name):
        return [sum(e - s for s, e in v) * 1e3 for v in spans.get(name, {}).values()]

    def p(name, values):
        if not values:  # hook target gone: zero calls recorded
            return {f"{name}_p50_ms": 0.0, f"{name}_p99_ms": 0.0}
        return {f"{name}_p50_ms": percentile(values, 50), f"{name}_p99_ms": percentile(values, 99)}

    emit = []
    for k, r in enumerate(traced):
        st = r["stamps"]
        for step in range(WARMUP, len(st) - 1):
            children = [iv for n in ("scenario.parse", "pipeline.step") for iv in spans.get(n, {}).get((k, step), [])]
            emit.append(self_time(st[step], st[step + 1], children) * 1e3)

    rows = [row for rep in traced_reports for row in rep.metrics_rows[WARMUP:]]
    trace_rows = [row for rep in base_reports for row in rep.metrics_rows]  # every drive once
    measured = len(rows)
    links = sum(int(r["total_in_range"]) for r in trace_rows)
    delivered = sum(int(r["delivered"]) for r in trace_rows)
    base_iv = [x for r in baseline["replays"] for x in measured_intervals(r["stamps"])]
    walls = [value for name, value, _rep, step in child["counts"] if name == "geometry.cull" and step >= WARMUP]
    traced_iv = [x for r in traced for x in measured_intervals(r["stamps"])]
    out = {}
    out.update(p("scenario.parse", durations_ms("scenario.parse")))
    out["scenario.load_buildings_s"] = statistics.median(whole.get("scenario.load_buildings", [0.0]))
    out["geometry.index_build_s"] = statistics.median(whole.get("geometry.index_build", [0.0]))
    out.update(p("geometry.cull", durations_ms("geometry.cull")))
    out.update(p("geometry.classify", durations_ms("geometry.classify")))
    out["geometry.links_per_step"] = links / len(trace_rows)
    out["geometry.walls_per_step"] = sum(walls) / len(walls) if walls else 0.0
    out["channel.p50_ms"] = percentile([float(r["t_channel"]) * 1e3 for r in rows], 50)
    out["channel.p99_ms"] = percentile([float(r["t_channel"]) * 1e3 for r in rows], 99)
    out["channel.delivered_per_link"] = delivered / links if links else 0.0
    out["gnss.p50_ms"] = percentile([float(r["t_gnss"]) * 1e3 for r in rows], 50)
    out["gnss.p99_ms"] = percentile([float(r["t_gnss"]) * 1e3 for r in rows], 99)
    streams = [d for v in spans.get("rng.substream", {}).values() for d in v]
    out["rng.streams_per_step"] = len(streams) / measured
    out["rng.stream_create_ms_per_step"] = sum(e - s for s, e in streams) * 1e3 / measured
    out.update(p("pipeline.step", durations_ms("pipeline.step")))
    out.update(p("pipeline.emit", emit))
    out["pipeline.messages_per_step"] = delivered / len(trace_rows)
    out["pipeline.rss_growth_mb"] = baseline["rss_mb"][-1] - baseline["rss_mb"][0]
    out["bench.trace_overhead_frac"] = 1.0 - throughput(traced_iv) / throughput(base_iv)
    return out


def run_child(inputs: Path, out: Path, seconds: float, min_steps: int, mode: str, hash_seed: str, started: float):
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(inputs), str(out)]
    cmd += [str(seconds), str(min_steps), str(WARMUP), mode]
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(cmd, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    with open(out / "child.json", encoding="utf-8") as f:
        return json.load(f)


def run_workload(w, seed: int, seconds: float, trace: bool) -> int:
    from workloads import generate

    started = time.monotonic()
    run_dir = WORK / f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    inputs, out = run_dir / "inputs", run_dir / "out"
    # (output subdirectory, seconds, minimum measured steps, child mode)
    if trace:
        plan = [("base", 0.0, 0, "baseline"), ("traced", seconds, MIN_STEPS, "traced")]
    else:
        plan = [(sub, seconds / 2, (MIN_STEPS + 1) // 2, "untraced") for sub in ("a", "b")]
    try:
        generate(w, seed, inputs)
        with open(inputs / "meta.json", encoding="utf-8") as f:
            steps = json.load(f)["steps"]
        try:
            children = [
                run_child(inputs, out / sub, secs, n, mode, hash_seed, started)
                for (sub, secs, n, mode), hash_seed in zip(plan, HASH_SEEDS)
            ]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": steps, "failed": steps, "metrics": {}}))
            return 1

        replays = [(f"{sub}/{r['dir']}", r["trace"]) for (sub, *_), c in zip(plan, children) for r in c["replays"]]
        if trace:
            dump = WORK / "spans" / f"{w.name}-s{seed}.json"
            dump.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / "traced" / "child.json", dump)
        pinned = pinned_labels(w.name, seed)
        labels = "pinned" if pinned else f"unpinned: no pin for seed {seed}, replays only checked against each other"
        reports, attempted, failed = gate_replays(out, replays, steps, pinned)
        env = environment(seed, len(replays), steps, labels)
        env.update(workload=w.name, hooks=children[-1]["hooks"])
        print("env " + json.dumps(env))
        if not pinned:
            print(f"labels: {labels}")
        if trace:
            n_base = len(children[0]["replays"])
            metrics = per_layer(children[0], children[1], reports[:n_base], reports[n_base:], steps)
            units = PER_LAYER
        else:
            metrics, units = end_to_end(children), {**END_TO_END, **PRINTED}
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}" + (" (not gated)" if name in PRINTED else ""))
        print(f"failed_step_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} steps)")
        gated = PER_LAYER if trace else END_TO_END
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in gated.items()},
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "v2xemu").is_dir():
        print(f"error: no v2xemu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        status = max(status, run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
