"""The measured process: replays one generated workload through
``pipeline.run`` and dumps raw timings as JSON. All analysis and the
correctness gate happen in the parent (``run.py``).

Per replay: ``load_buildings``, then ``pipeline.run`` on ``load_trace``
of one of the workload's drives, closed loop with one step in flight. A
pass replays every drive once, in order. The trace iterator handed to
``pipeline.run`` is wrapped so that every pull is timestamped; the time
between two pulls is the parse, step and emit time of one step.

Every replay, timed set-up or not, starts after ``gc.collect()``, so
that no collection left over from earlier work lands in a timed span.

Usage: python3 perfbench/child.py INPUT_DIR OUT_DIR SECONDS MIN_STEPS WARMUP MODE

MODE is ``untraced``, ``traced`` (spans around the layers, see
``tracing.py``) or ``baseline`` (one untraced pass that also samples RSS
after the first warm-up and at the end). The other modes make passes
until SECONDS have gone by and MIN_STEPS steps past warm-up were made.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder  # noqa: E402
from workloads import trace_name  # noqa: E402
from v2xemu import pipeline, scenario  # noqa: E402
from v2xemu.config import config_from_dict  # noqa: E402

# Before every replay, set-up alone is repeated at least this often and
# for at least this long. Spreading the repeats over the whole run keeps
# their median from depending on one moment's machine speed, which on a
# shared VM drifts by half within seconds.
SETUP_MIN_REPEATS = 1
SETUP_MIN_SECONDS = 0.1
# passes stop once this much time has gone by even if MIN_STEPS is not
# reached, so a run always ends well inside the caller's timeout
MAX_REPLAY_SECONDS = 60.0


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def pulls(it, stamps: list, recorder: Recorder | None):
    """Yield from ``it``, stamping the clock before every pull and once
    more when it is exhausted."""
    while True:
        start = time.perf_counter()
        stamps.append(start)
        if recorder is not None:
            recorder.step = len(stamps) - 1
        try:
            step = next(it)
        except StopIteration:
            return
        if recorder is not None:
            recorder.add("scenario.parse", start, time.perf_counter())
        yield step


def sample_rss_at(it, index: int, samples: list):
    for i, step in enumerate(it):
        if i == index:
            samples.append(rss_mb())
        yield step


def first_pull_only(trace):
    """Stop at the first pull: a set-up with no steps."""
    for _ in trace:
        return
        yield


def replay(config, inputs: Path, trace: str, out: Path, stamps: list, recorder=None, wrap=None) -> float:
    """One ``load_buildings`` + ``pipeline.run``; returns the setup time
    (load_buildings start to first trace pull). ``wrap`` replaces the
    timed trace iterator, e.g. by one that stops before the first step."""
    gc.collect()
    t_load = time.perf_counter()
    buildings = scenario.load_buildings(inputs / "buildings.json")
    steps = pulls(scenario.load_trace(inputs / trace), stamps, recorder)
    pipeline.run(config, buildings, wrap(steps) if wrap else steps, out)
    return stamps[0] - t_load


def main(argv) -> int:
    inputs, out = Path(argv[0]), Path(argv[1])
    seconds, min_steps, warmup, mode = float(argv[2]), int(argv[3]), int(argv[4]), argv[5]
    with open(inputs / "meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    config = config_from_dict(meta["config"])
    per_replay = meta["steps"] - warmup

    setup_s: list[float] = []
    replays: list[dict] = []
    result = {"setup_s": setup_s, "replays": replays, "hooks": []}
    recorder = None
    if mode == "traced":
        recorder = Recorder()
        result["hooks"] = recorder.install()

    began = time.perf_counter()
    while True:
        for k in range(meta["traces"]):
            n, stamps, wrap = len(replays), [], None
            if mode == "untraced":
                reps, t0 = 0, time.perf_counter()
                while reps < SETUP_MIN_REPEATS or time.perf_counter() - t0 < SETUP_MIN_SECONDS:
                    setup_s.append(replay(config, inputs, trace_name(k), out / "setup", [], wrap=first_pull_only))
                    reps += 1
            elif mode == "traced":
                recorder.replay, recorder.step = n, -1
            elif n == 0:  # baseline: RSS once the first drive is warm
                result["rss_mb"] = []
                wrap = lambda t: sample_rss_at(t, warmup, result["rss_mb"])  # noqa: E731
            setup_s.append(replay(config, inputs, trace_name(k), out / f"r{n}", stamps, recorder, wrap))
            replays.append({"stamps": stamps, "dir": f"r{n}", "trace": k})
        elapsed = time.perf_counter() - began
        if mode == "baseline" or elapsed >= MAX_REPLAY_SECONDS:
            break
        if elapsed >= seconds and len(replays) * per_replay >= min_steps:
            break

    if mode == "baseline":
        result["rss_mb"].append(rss_mb())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = recorder.counts
    with open(out / "child.json", "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
