"""Golden output bytes of one small seeded run.

Same-seed repeats only show that a run agrees with itself; these digests
show that it agrees with earlier versions of the emulator, down to the
last bit of every ``rx_power`` and fix coordinate. A one-ulp change in
any formula, a reordered sum or a swapped math function changes a digest.

The digests were computed on x86-64 Linux (glibc ``libm``). A change that
is meant to alter the draws, such as moving the shadowing and GNSS noise
to a counter-based generator, is expected to re-pin them; record the
re-pin with its reason.

Re-pinned once when each per-link and per-node stream came to be named by
its episode, the time the link or node was first seen, as well as its id,
so that eviction drops a stream with its state. All the draws moved, so
the message and fix digests did. The ``labels`` digest covers
``delivered`` and moved with them; the geometry columns (``total_in_range``,
``los``, ``nlosb``, ``nlosv``) hash as before.
"""
import csv
import hashlib

import pytest

from v2xemu.config import config_from_dict
from v2xemu.geometry import SpatialIndex
from v2xemu.pipeline import run
from v2xemu.scenario import load_buildings, load_trace, write_buildings, write_trace
from v2xemu.synth import SynthConfig, generate_synthetic_scenario

# 4x4 blocks, 60 vehicles (30% trucks) for 40 steps: every condition
# occurs, and some NLOSv links are deep enough for the knife-edge branch
SCENARIO = SynthConfig(blocks=4, vehicle_count=60, duration_s=4.0, seed=4, truck_fraction=0.3)
LABEL_COLUMNS = ("step_t", "total_in_range", "los", "nlosb", "nlosv", "delivered")

GOLDEN = {
    300.0: {
        "messages.jsonl": "82442149eed685d299b6a1a6be09e8b3ccfa2c24a789f81aa3827982afe01f74",
        "ego_fixes.jsonl": "861e42895c3999f5eff141cda2226130aea336bf8254752235e55cd10d14ab75",
        "labels": "26f9af7a2c89e6315997deeef1d56d7820f989c0a0151667316f9548c71029ef",
    },
    "inf": {
        "messages.jsonl": "74fb117182318e40d1da4bf1448fa455dbc5891e7a24fc51c7b8f658d0164778",
        "ego_fixes.jsonl": "861e42895c3999f5eff141cda2226130aea336bf8254752235e55cd10d14ab75",
        "labels": "35a8fba447e90b8bfffcdbccf3e922ce1dbfd240a21d9f2023fc6dda5b524766",
    },
}


@pytest.fixture(scope="module")
def scenario():
    buildings, trace = generate_synthetic_scenario(SCENARIO)
    return buildings, list(trace)


def _digests(out) -> dict:
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("messages.jsonl", "ego_fixes.jsonl")}
    labels = hashlib.sha256()
    with open(out / "metrics.csv", newline="") as f:
        for row in csv.DictReader(f):
            labels.update((",".join(row[c] for c in LABEL_COLUMNS) + "\n").encode())
    got["labels"] = labels.hexdigest()
    return got


@pytest.mark.parametrize("radius", [300.0, "inf"], ids=["r300", "unculled"])
def test_output_bytes_match_golden_digests(scenario, tmp_path, radius):
    buildings, trace = scenario
    config = config_from_dict({"seed": 5, "r_b": radius, "r_v": radius})
    run(config, SpatialIndex(buildings), trace, tmp_path)
    assert _digests(tmp_path) == GOLDEN[radius]


@pytest.mark.parametrize("radius", [300.0, "inf"], ids=["r300", "unculled"])
def test_output_bytes_through_files_match_golden_digests(scenario, tmp_path, radius):
    # the same run read back from written files: the decoders must give
    # the steps and buildings bit for bit
    buildings, trace = scenario
    write_buildings(tmp_path / "buildings.json", buildings)
    write_trace(tmp_path / "trace.jsonl", trace)
    config = config_from_dict({"seed": 5, "r_b": radius, "r_v": radius})
    run(config, load_buildings(tmp_path / "buildings.json"), load_trace(tmp_path / "trace.jsonl"), tmp_path / "out")
    assert _digests(tmp_path / "out") == GOLDEN[radius]
