"""Golden output bytes of one small seeded run.

Same-seed repeats only show that a run agrees with itself; these digests
show that it agrees with earlier versions of the emulator, down to the
last bit of every ``rx_power`` and fix coordinate. A one-ulp change in
any formula, a reordered sum or a swapped math function changes a digest.

The digests were computed on x86-64 Linux (glibc ``libm``). A change that
is meant to alter the draws, such as moving the shadowing and GNSS noise
to a counter-based generator, is expected to re-pin them; record the
re-pin with its reason.
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
        "messages.jsonl": "52c441d962bbbd7fe7f1f9d7002747360f5bcbf5f1f11f2adbcf7e9e8f602de4",
        "ego_fixes.jsonl": "5d14581acc5125d4b0ab988e5c8dda4079e8b7d996159a39860a2f6475d0cad5",
        "labels": "33f6a57a4eb165f062f2554a5ef67d7d2c3195bca478156d0eff8f2ff078be89",
    },
    "inf": {
        "messages.jsonl": "b81e5aec5a7d404e6f1e3db1da19bbd4192a3cd68d265f6888711616f5b1a608",
        "ego_fixes.jsonl": "5d14581acc5125d4b0ab988e5c8dda4079e8b7d996159a39860a2f6475d0cad5",
        "labels": "5c89f153feb4954b9b90953f2b08e3bd825bd4c916e726c93d0ea7b75627fd7a",
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
