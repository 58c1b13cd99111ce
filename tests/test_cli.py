import csv
import json
import math

import pytest

from v2xemu import pipeline
from v2xemu.cli import main
from v2xemu.config import KNOWN_KEYS
from v2xemu.pipeline import METRICS_HEADER, SWEEP_HEADER


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scen")
    rc = main(
        [
            "gen-scenario",
            "--out",
            str(d),
            "--blocks",
            "3",
            "--vehicles",
            "12",
            "--duration",
            "2",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return d


def test_gen_scenario_outputs(scenario_dir):
    buildings = json.loads((scenario_dir / "buildings.json").read_text())
    assert len(buildings) == 9
    lines = (scenario_dir / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 20
    first = json.loads(lines[0])
    assert first["ego"]["id"] == "ego"
    assert len(first["vehicles"]) == 11


def test_gen_scenario_rectangular_grid(tmp_path):
    rc = main(["gen-scenario", "--out", str(tmp_path), "--blocks", "4x2", "--vehicles", "2", "--duration", "0.2"])
    assert rc == 0
    assert len(json.loads((tmp_path / "buildings.json").read_text())) == 8


@pytest.mark.parametrize("blocks", ["10x", "x", "1e3", "3x3x3"])
def test_gen_scenario_names_a_bad_blocks_value(tmp_path, capsys, blocks):
    assert main(["gen-scenario", "--out", str(tmp_path / "city"), "--blocks", blocks]) == 1
    err = capsys.readouterr().err
    assert err == f"v2xemu gen-scenario: --blocks must be N or NXxNY, got {blocks!r}\n"
    assert not (tmp_path / "city").exists()


@pytest.mark.parametrize("option", [["--step-period", "0"], ["--duration", "inf"], ["--step-period", "1e-320"]])
def test_gen_scenario_rejects_bad_step_options(tmp_path, capsys, option):
    assert main(["gen-scenario", "--out", str(tmp_path / "city"), *option]) == 1
    assert "step_period" in capsys.readouterr().err
    assert not (tmp_path / "city").exists()


def test_gen_scenario_refuses_huge_step_count(tmp_path, capsys):
    # 1e13 steps would write until the disk is full
    assert main(["gen-scenario", "--out", str(tmp_path / "city"), "--duration", "1e12"]) == 1
    err = capsys.readouterr().err
    assert "duration_s / step_period" in err and "1000000000000.0 / 0.1" in err
    assert not (tmp_path / "city").exists()


def test_gen_scenario_refuses_a_negative_duration(tmp_path, capsys):
    # it once exited 0 and wrote a trace of one step
    argv = ["gen-scenario", "--out", str(tmp_path / "city"), "--blocks", "2", "--vehicles", "3", "--duration", "-5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "v2xemu gen-scenario: duration_s must be >= 0, got -5.0\n"
    assert not (tmp_path / "city").exists()


@pytest.mark.parametrize(
    "option, named",
    [
        (["--block-size", "nan"], "block_size nan"),
        (["--street-width", "inf"], "street_width inf"),
        (["--block-size", "1e308"], "beyond 1e+09 m"),
        (["--block-size", "6e8"], "beyond 1e+09 m"),
    ],
)
def test_gen_scenario_refuses_a_city_it_cannot_write(tmp_path, capsys, option, named):
    # a nan or infinite size crashed the vehicles' draws, and a huge one
    # wrote a map that validate refuses
    argv = ["gen-scenario", "--out", str(tmp_path / "city"), "--blocks", "2", "--vehicles", "3", "--duration", "0.2"]
    assert main(argv + option) == 1
    err = capsys.readouterr().err
    assert err.startswith("v2xemu gen-scenario: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "city").exists()


@pytest.mark.parametrize("fraction", ["nan", "-0.5", "1.5"])
def test_gen_scenario_bounds_the_truck_fraction(tmp_path, capsys, fraction):
    # nan or a negative fraction once wrote a city with no trucks, and one above 1 a city of trucks
    assert main(["gen-scenario", "--out", str(tmp_path / "city"), "--truck-fraction", fraction]) == 1
    err = capsys.readouterr().err
    assert err == f"v2xemu gen-scenario: truck_fraction must be within [0, 1], got {float(fraction)}\n"
    assert not (tmp_path / "city").exists()


@pytest.mark.parametrize(
    "option, named",
    [
        (["--blocks", "100000", "--block-size", "1", "--street-width", "1"], "100000 x 100000 blocks is 10000000000"),
        (["--blocks", "1001x100"], "1001 x 100 blocks is 100100; need at most 100000"),
        (["--vehicles", "100001"], "vehicle_count includes the ego and must be within [1, 100000], got 100001"),
    ],
    ids=["square-city", "wide-city", "fleet"],
)
def test_gen_scenario_refuses_a_city_or_fleet_too_large_to_build(tmp_path, capsys, option, named):
    # refused before a building or a vehicle is made
    assert main(["gen-scenario", "--out", str(tmp_path / "city"), *option]) == 1
    err = capsys.readouterr().err
    assert err.startswith("v2xemu gen-scenario: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "city").exists()


def test_validate_ok(scenario_dir, capsys):
    rc = main(
        ["validate", "--trace", str(scenario_dir / "trace.jsonl"), "--buildings", str(scenario_dir / "buildings.json")]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out


def test_validate_bad_polygon(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": "b0", "vertices": [[0, 0], [1, 0]]}]))
    rc = main(["validate", "--buildings", str(path)])
    assert rc == 1
    assert "b0" in capsys.readouterr().err


def test_validate_rejects_vertex_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([{"id": "b0", "vertices": [[0, 0], [10**400, 0], [1, 1]]}]))
    assert main(["validate", "--buildings", str(path)]) == 1
    assert f"{path}, record 0: bad vertex list for 'b0'" in capsys.readouterr().err


def test_validate_names_first_bad_building_in_id_order(tmp_path, capsys):
    path = tmp_path / "bad.json"
    bowtie = [[0, 0], [10, 10], [10, 0], [0, 10]]
    records = [
        {"id": "b9", "vertices": bowtie},
        {"id": "b1", "vertices": [[0, 0], [1, 0]]},
        {"id": "b0", "vertices": [[50, 0], [55, 0], [50, 5]]},
    ]
    path.write_text(json.dumps(records))
    assert main(["validate", "--buildings", str(path)]) == 1
    assert "building 'b1': needs >= 3 vertices, got 2" in capsys.readouterr().err


def test_run_reports_an_invalid_map_before_a_bad_override(scenario_dir, tmp_path, capsys):
    # the map is checked, polygons included, where it is loaded
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": "b0", "vertices": [[0, 0], [10, 10], [10, 0], [0, 10]]}]))
    args = ["--trace", str(scenario_dir / "trace.jsonl"), "--buildings", str(path), "--out", str(tmp_path / "out")]
    assert main(["run", *args, "--set", "no_such_key=1"]) == 1
    assert "building 'b0': edges 0 and 2 intersect" in capsys.readouterr().err


def test_run_on_invalid_map_writes_nothing(scenario_dir, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": "b0", "vertices": [[0, 0], [10, 10], [10, 0], [0, 10]]}]))
    out = tmp_path / "out"
    rc = main(["run", "--trace", str(scenario_dir / "trace.jsonl"), "--buildings", str(path), "--out", str(out)])
    assert rc == 1
    assert "building 'b0': edges 0 and 2 intersect" in capsys.readouterr().err
    assert not out.exists()


def test_validate_non_monotone_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    ego = {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}
    path.write_text(
        json.dumps({"t": 1.0, "ego": ego, "vehicles": []})
        + "\n"
        + json.dumps({"t": 0.5, "ego": ego, "vehicles": []})
        + "\n"
    )
    rc = main(["validate", "--trace", str(path)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_validate_needs_an_input(capsys):
    assert main(["validate"]) == 2


def test_run_produces_outputs(scenario_dir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--trace",
            str(scenario_dir / "trace.jsonl"),
            "--buildings",
            str(scenario_dir / "buildings.json"),
            "--out",
            str(out),
            "--seed",
            "3",
            "--set",
            "r_b=300",
            "--set",
            "r_v=250",
        ]
    )
    assert rc == 0
    assert "steps" in capsys.readouterr().out
    with open(out / "metrics.csv", newline="") as f:
        header = next(csv.reader(f))
    assert ",".join(header) == METRICS_HEADER
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["r_b"] == 300 and echo["r_v"] == 250 and echo["seed"] == 3


@pytest.mark.parametrize("budget", [[], ["--set", "budget_s=1e-9"]])
def test_run_prints_the_totals_of_the_files_it_wrote(scenario_dir, tmp_path, capsys, budget):
    out = tmp_path / "out"
    assert main(_run_args(scenario_dir, out, "--set", "r_b=300", "--set", "r_v=300", *budget)) == 0
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    messages = (out / "messages.jsonl").read_text().splitlines()
    delays = [float(r["wall_delay"]) for r in rows]
    over = sum(r["over_budget"] == "True" for r in rows)
    assert rows and messages
    if budget:
        assert over == len(rows)
    assert capsys.readouterr().out == (
        f"run: {len(rows)} steps, {len(messages)} messages, {over} over budget, "
        f"mean delay {sum(delays) / len(delays) * 1e3:.2f} ms, max {max(delays) * 1e3:.2f} ms\n"
    )


def test_run_diag_token_resolves_from_buildings(scenario_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--trace",
            str(scenario_dir / "trace.jsonl"),
            "--buildings",
            str(scenario_dir / "buildings.json"),
            "--out",
            str(out),
            "--set",
            "r_b=diag",
        ]
    )
    assert rc == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert 300 < echo["r_b"] < 500  # 3-block city: bbox diagonal ~ 424 m


def test_run_culling_changes_classification(scenario_dir, tmp_path):
    def nlosb_total(out_dir):
        with open(out_dir / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        return sum(int(r["nlosb"]) for r in rows)

    base, culled = tmp_path / "base", tmp_path / "culled"
    common = [
        "--trace",
        str(scenario_dir / "trace.jsonl"),
        "--buildings",
        str(scenario_dir / "buildings.json"),
        "--seed",
        "3",
    ]
    assert main(["run", *common, "--out", str(base)]) == 0
    assert main(["run", *common, "--out", str(culled), "--set", "r_b=1"]) == 0
    assert nlosb_total(culled) < nlosb_total(base)


def test_run_missing_trace_is_usage_error(scenario_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--buildings", str(scenario_dir / "buildings.json"), "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_run_unknown_config_key_fails(scenario_dir, tmp_path, capsys):
    rc = main(
        [
            "run",
            "--trace",
            str(scenario_dir / "trace.jsonl"),
            "--buildings",
            str(scenario_dir / "buildings.json"),
            "--out",
            str(tmp_path / "x"),
            "--set",
            "not_a_key=1",
        ]
    )
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_run_missing_input_file(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--trace",
            str(tmp_path / "absent.jsonl"),
            "--buildings",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 1


def test_sweep_writes_csv(scenario_dir, tmp_path, capsys, monkeypatch):
    results = []
    sweep = pipeline.sweep
    monkeypatch.setattr(pipeline, "sweep", lambda *a: results.append(sweep(*a)) or results[-1])
    out = tmp_path / "sw"
    rc = main(
        [
            "sweep",
            "--trace",
            str(scenario_dir / "trace.jsonl"),
            "--buildings",
            str(scenario_dir / "buildings.json"),
            "--out",
            str(out),
            "--rb-list",
            "100,diag",
            "--rv-list",
            "inf",
        ]
    )
    assert rc == 0
    with open(out / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert ",".join(rows[0]) == SWEEP_HEADER
    assert len(rows) == 3
    assert float(rows[1][0]) == 100.0
    assert (out / "effective_config.json").exists()

    # a header line, the reference, then one line per pair in csv order
    header, ref_line, *lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["rb", "rv", "top50_ms", "max_ms", "mean_ms", "nlosb_missed", "delivered_diff", "speedup"]
    assert ref_line[:2] + ref_line[5:] == ["inf", "inf", "0", "(0.0%)", "0", "1.0x"]
    assert len(lines) == len(rows) - 1 == 2
    records = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert int(records[0]["total_reference_nlosb"]) > 0
    for line, rec in zip(lines, records):
        assert (float(line[0]), float(line[1])) == pytest.approx((float(rec["rb"]), float(rec["rv"])), rel=1e-5)
        missed, total = int(rec["nlosb_missed"]), int(rec["total_reference_nlosb"])
        assert line[5:8] == [str(missed), f"({missed / total:.1%})", rec["delivered_diff"]]
    # the speedup divides the reference's mean_delay_top50 by the pair's
    [(reference, pairs)] = results
    for line, row in zip(lines, pairs):
        assert line[-1] == f"{reference.mean_delay_top50 / row.mean_delay_top50:.1f}x"


def test_sweep_of_an_empty_trace_prints_no_speedup(scenario_dir, tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("")
    buildings = str(scenario_dir / "buildings.json")
    args = ["--buildings", buildings, "--out", str(tmp_path / "sw"), "--rb-list", "100", "--rv-list", "inf"]
    assert main(["sweep", "--trace", str(tmp_path / "empty.jsonl"), *args]) == 0
    ref_row, row = (line.split() for line in capsys.readouterr().out.splitlines()[1:])
    assert ref_row == ["inf", "inf", "0.00", "0.00", "0.00", "0", "(0.0%)", "0", "-"]
    assert row == ["100", "inf", "0.00", "0.00", "0.00", "0", "(0.0%)", "0", "-"]


def _run_args(scenario_dir, out, *extra):
    trace, buildings = str(scenario_dir / "trace.jsonl"), str(scenario_dir / "buildings.json")
    return ["run", "--trace", trace, "--buildings", buildings, "--out", str(out), *extra]


def test_sweep_accepts_every_range_spelling(scenario_dir, tmp_path):
    out = tmp_path / "sw"
    trace, buildings = str(scenario_dir / "trace.jsonl"), str(scenario_dir / "buildings.json")
    args = ["sweep", "--trace", trace, "--buildings", buildings, "--out", str(out)]
    assert main(args + ["--rb-list", "Infinity, DIAGONAL", "--rv-list", "1e2"]) == 0
    with open(out / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["rb"], r["rv"]) for r in rows][0] == ("inf", "100.0")
    assert 300 < float(rows[1]["rb"]) < 500  # 3-block city: bbox diagonal ~ 424 m
    assert main(args + ["--rb-list", "100,nan", "--rv-list", "inf"]) == 1


@pytest.mark.parametrize("key", sorted(KNOWN_KEYS - {"ego_gnss"}) + ["ego_gnss.sigma", "ego_gnss.t_corr"])
def test_run_rejects_nan_config_value(scenario_dir, tmp_path, capsys, key):
    assert main(_run_args(scenario_dir, tmp_path / "out", "--set", f"{key}=NaN")) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before anything is written


@pytest.mark.parametrize(
    "key, value", [("origin_lat", "95"), ("origin_lat", "89.99999"), ("origin_lon", "181"), ("carrier_freq", "1e-9")]
)
def test_run_rejects_unphysical_config_value(scenario_dir, tmp_path, capsys, key, value):
    assert main(_run_args(scenario_dir, tmp_path / "out", "--set", f"{key}={value}")) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["sigma", "ego_gnss.sigma"])
def test_run_rejects_gnss_sigma_beyond_the_coordinate_bound(scenario_dir, tmp_path, capsys, key):
    # such an error could move a reported fix beyond the float range
    assert main(_run_args(scenario_dir, tmp_path / "out", "--set", f"{key}=1e308")) == 1
    assert "sigma must be within [0, 1e+09] m" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(_run_args(scenario_dir, tmp_path / "out", "--set", f"{key}=1e9")) == 0


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_rejects_shadowing_std_that_could_overflow_the_power(scenario_dir, tmp_path, capsys, command):
    # a shadowing of 1e308 dB made an infinite received power, and the run
    # failed on a line it could not write as JSON after writing the others
    def args(std):
        extra = ["--rb-list", "inf", "--rv-list", "inf"] if command == "sweep" else []
        return [command, *_run_args(scenario_dir, tmp_path / "out", "--set", f"shadowing_std={std}")[1:], *extra]

    assert main(args("1e308")) == 1
    assert capsys.readouterr().err == f"v2xemu {command}: shadowing_std must be within [0, 1e+09] dB, got 1e+308\n"
    assert not (tmp_path / "out").exists()
    assert main(args("1e9")) == 0
    if command == "run":
        lines = (tmp_path / "out" / "messages.jsonl").read_text().splitlines()
        assert lines and all(math.isfinite(json.loads(line)["rx_power"]) for line in lines)


def test_run_names_ego_gnss_in_its_errors(scenario_dir, tmp_path, capsys):
    # the shared model is valid, so only the ego's can be at fault
    assert main(_run_args(scenario_dir, tmp_path / "out", "--set", "ego_gnss.sigma=-1")) == 1
    assert "ego_gnss: sigma must be within" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["85", "-85"])
def test_run_accepts_origin_lat_at_the_limit(scenario_dir, tmp_path, value):
    assert main(_run_args(scenario_dir, tmp_path / "out", "--set", f"origin_lat={value}")) == 0


@pytest.mark.parametrize(
    "extra", [[], ["--set", "ego_gnss.sigma=0.5", "--set", "r_b=diag"]], ids=["plain", "ego-gnss-and-diag"]
)
def test_effective_config_reproduces_the_run(scenario_dir, tmp_path, extra):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(_run_args(scenario_dir, first, "--seed", "5", "--set", "r_v=300", *extra)) == 0
    echo = first / "effective_config.json"
    assert ("ego_gnss" in json.loads(echo.read_text())) == bool(extra)
    assert main(_run_args(scenario_dir, second, "--config", str(echo))) == 0
    assert (first / "messages.jsonl").read_bytes()
    for name in ("messages.jsonl", "ego_fixes.jsonl", "effective_config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_gnss_diag_prints_stats(capsys):
    rc = main(["gnss-diag", "--duration", "1200", "--step", "1", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "empirical RMS" in out
    assert "lag" in out


def test_gnss_diag_too_short(capsys):
    rc = main(["gnss-diag", "--duration", "50"])
    assert rc == 1


@pytest.mark.parametrize(
    "args, named",
    [
        (["--step", "5000"], "2000.0 s / 5000.0 s is 0.4 samples; need 1 to 1000000"),
        (["--step", "inf"], "need a finite duration and a finite step > 0, got 2000.0 s and inf s"),
        (["--duration", "inf"], "need a finite duration and a finite step > 0, got inf s and 1.0 s"),
        (["--duration", "nan"], "need a finite duration and a finite step > 0, got nan s and 1.0 s"),
        (["--step", "-1"], "need a finite duration and a finite step > 0, got 2000.0 s and -1.0 s"),
        # refused before any sample is drawn
        (["--duration", "1e7"], "1e+07 samples; need 1 to 1000000"),
        (["--duration", "1e300", "--step", "1e-300"], "inf samples; need 1 to 1000000"),
    ],
    ids=["no-sample", "inf-step", "inf-duration", "nan-duration", "negative-step", "too-many", "ratio-overflows"],
)
def test_gnss_diag_refuses_series_it_cannot_make(capsys, args, named):
    assert main(["gnss-diag", *args]) == 1
    assert named in capsys.readouterr().err


def test_gnss_diag_with_zero_sigma_skips_the_autocorrelation(capsys):
    assert main(["gnss-diag", "--set", "sigma=0"]) == 0
    out = capsys.readouterr().out
    assert "empirical RMS 0.000 m" in out and "lag" not in out


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--trace", "--buildings", "--out", "--seed", "--set"):
        assert flag in out


def test_help_sweep_lists_range_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--rb-list" in out and "--rv-list" in out


def _dup_id_trace(path):
    ego = {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}
    v = {"id": "v1", "x": 100, "y": 0, "speed": 1, "heading": 0}
    lines = [
        {"t": 0.0, "ego": ego, "vehicles": [v]},
        {"t": 0.1, "ego": ego, "vehicles": [v, dict(v, x=50)]},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def test_validate_rejects_duplicate_vehicle_ids(tmp_path, capsys):
    rc = main(["validate", "--trace", str(_dup_id_trace(tmp_path / "dup.jsonl"))])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 2" in err and "'v1' appears more than once" in err


def test_run_rejects_duplicate_vehicle_ids(scenario_dir, tmp_path, capsys):
    rc = main(
        [
            "run",
            "--trace",
            str(_dup_id_trace(tmp_path / "dup.jsonl")),
            "--buildings",
            str(scenario_dir / "buildings.json"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_run_reports_step_failure(scenario_dir, tmp_path, capsys, monkeypatch):
    from v2xemu import pipeline

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(pipeline, "link_rx_power", broken)
    rc = main(
        [
            "run",
            "--trace",
            str(scenario_dir / "trace.jsonl"),
            "--buildings",
            str(scenario_dir / "buildings.json"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "step t=0.0: boom" in capsys.readouterr().err


def _one_step_trace(path, t=0.0, **vehicle_fields):
    ego = {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}
    v = {"id": "v1", "x": 100, "y": 0, "speed": 1, "heading": 0, **vehicle_fields}
    path.write_text(json.dumps({"t": t, "ego": ego, "vehicles": [v]}) + "\n")  # nan/inf as NaN/Infinity
    return path


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"speed": math.nan}, "speed nan"),
        ({"height": math.nan}, "height nan"),
        ({"t": math.nan}, "timestamp nan"),
        ({"t": math.inf}, "timestamp inf"),
        ({"length": math.inf}, "length inf"),
        ({"width": -math.inf}, "width -inf"),
        ({"speed": -math.inf}, "speed -inf"),
        ({"speed": 10**400}, "int too large to convert to float"),
        ({"t": 10**400}, "int too large to convert to float"),
    ],
    ids=["speed-nan", "height-nan", "t-nan", "t-inf", "length-inf", "width-neg-inf", "speed-neg-inf",
         "speed-huge-int", "t-huge-int"],
)
def test_non_finite_trace_fields_fail_at_ingest(scenario_dir, tmp_path, capsys, fields, named):
    trace = _one_step_trace(tmp_path / "bad.jsonl", **fields)
    assert main(["validate", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert f"{trace}, line 1" in err and named in err
    out = tmp_path / "out"
    rc = main(
        ["run", "--trace", str(trace), "--buildings", str(scenario_dir / "buildings.json"), "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{trace}, line 1" in err and named in err
    assert (out / "messages.jsonl").read_text() == ""


def test_gnss_diag_writes_csv(tmp_path, capsys):
    path = tmp_path / "diag" / "series.csv"
    rc = main(["gnss-diag", "--duration", "1800", "--step", "2", "--seed", "5", "--csv", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    printed = ("samples: 900 at 2.0 s", "empirical RMS", "empirical mean", "600 s windows with |error| peak > 5.0 m")
    assert all(line in out for line in printed)
    assert "of 3" in out  # 1800 s hold three whole 600 s windows
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "mu", "theta", "east", "north"]
    assert len(rows) == 901
    assert [float(r[0]) for r in rows[1:3]] == [2.0, 4.0]
    for t, mu, theta, east, north in (map(float, r) for r in rows[1:]):
        assert math.hypot(east, north) == pytest.approx(abs(mu), abs=1e-9)



_EGO = {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}


@pytest.mark.parametrize(
    "line, named",
    [
        (b"5", "step record must be an object"),
        (json.dumps({"t": 0.0, "ego": _EGO, "vehicles": 5}).encode(), "'vehicles' must be a list"),
        (json.dumps({"t": 0.0, "ego": _EGO, "vehicles": None}).encode(), "'vehicles' must be a list"),
        (b"[" * 100_000, "invalid JSON: nested too deeply"),
        (json.dumps({"t": 0.0, "ego": _EGO}).replace('"e"', '"\xff"').encode("latin-1"), "invalid UTF-8"),
    ],
    ids=["not-an-object", "vehicles-number", "vehicles-null", "deep-nesting", "invalid-utf8"],
)
def test_malformed_trace_line_fails_at_ingest(scenario_dir, tmp_path, capsys, line, named):
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(line + b"\n")
    assert main(["validate", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert f"{trace}, line 1" in err and named in err
    rc = main(
        ["run", "--trace", str(trace), "--buildings", str(scenario_dir / "buildings.json"), "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{trace}, line 1" in err and named in err


def test_vehicle_beyond_the_coordinate_bound_fails_at_ingest(scenario_dir, tmp_path, capsys):
    # the culling distance of (1e200, 0) overflows, which once dropped the
    # vehicle silently even with no culling
    trace = tmp_path / "far.jsonl"
    vehicle = {"id": "v1", "x": 1e200, "y": 0, "speed": 1, "heading": 0}
    trace.write_text(json.dumps({"t": 0.0, "ego": _EGO, "vehicles": [vehicle]}) + "\n")
    named = f"{trace}, line 1: bad vehicle record: position (1e+200, 0.0) beyond 1e+09 m"
    assert main(["validate", "--trace", str(trace)]) == 1
    assert named in capsys.readouterr().err
    args = ["--trace", str(trace), "--buildings", str(scenario_dir / "buildings.json"), "--out", str(tmp_path / "out")]
    assert main(["run", *args, "--set", "r_v=inf"]) == 1
    assert named in capsys.readouterr().err


def test_map_beyond_the_coordinate_bound_fails_naming_the_record(scenario_dir, tmp_path, capsys):
    # the cross products of this bowtie overflow, which once let the
    # polygon check pass it
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([{"id": "b0", "vertices": [[-1e308, 0], [1e308, 1], [1e308, 0], [-1e308, 1]]}]))
    named = f"{path}, record 0: bad vertex list for 'b0': position (-1e+308, 0.0) beyond 1e+09 m"
    assert main(["validate", "--buildings", str(path)]) == 1
    assert named in capsys.readouterr().err
    args = ["--trace", str(scenario_dir / "trace.jsonl"), "--buildings", str(path), "--out", str(tmp_path / "out")]
    assert main(["run", *args]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gnss-diag"])
@pytest.mark.parametrize(
    "text, named",
    [
        (b"[1]", "top level must be an object"),
        (b"{nope", "invalid JSON"),
        (b"[" * 100_000, "invalid JSON: nested too deeply"),
        (b'{"seed": "\xff"}', "invalid UTF-8"),
    ],
    ids=["not-an-object", "bad-json", "deep-nesting", "invalid-utf8"],
)
def test_bad_config_file_fails_naming_it(scenario_dir, tmp_path, capsys, command, text, named):
    path = tmp_path / "c.json"
    path.write_bytes(text)
    args = [command, "--config", str(path)]
    if command == "run":
        args += ["--trace", str(scenario_dir / "trace.jsonl"), "--buildings", str(scenario_dir / "buildings.json")]
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and named in err


def test_gnss_diag_rejects_unknown_config_key(tmp_path, capsys):
    # the grid cell size is gone, so a config that still sets it is a typo
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sigma": 1.0, "cell_size": 50.0}))
    assert main(["gnss-diag", "--config", str(path)]) == 1
    assert "unknown config keys: ['cell_size']" in capsys.readouterr().err


def test_gnss_diag_reads_sigma_from_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sigma": 1.5}))
    assert main(["gnss-diag", "--config", str(path), "--set", "t_corr=5"]) == 0
    assert "(stationary value 1.500 m)" in capsys.readouterr().out


def _nlosv_run(tmp_path, name, vehicles):
    """Validate and run a one-step trace of ``vehicles`` around an ego at
    the origin, on a map of one building far from the links; the run's
    messages by sender."""
    buildings = tmp_path / "one.json"
    buildings.write_text(json.dumps([{"id": "b0", "vertices": [[100, 100], [110, 100], [110, 110], [100, 110]]}]))
    trace = tmp_path / f"{name}.jsonl"
    records = [{"id": vid, "x": x, "y": 0, "speed": 1, "heading": 0, **more} for vid, x, more in vehicles]
    trace.write_text(json.dumps({"t": 0.0, "ego": _EGO, "vehicles": records}) + "\n")
    assert main(["validate", "--trace", str(trace), "--buildings", str(buildings)]) == 0
    out = tmp_path / name
    assert main(["run", "--trace", str(trace), "--buildings", str(buildings), "--out", str(out)]) == 0
    messages = map(json.loads, (out / "messages.jsonl").read_text().splitlines())
    return {m["sender_id"]: m for m in messages}


def test_run_takes_an_nlosv_blocker_whose_fresnel_radius_underflows(tmp_path):
    # "b" sits 5e-324 m along the link to "a", where the Fresnel radius
    # rounds to 0; it is no taller than the link, so "a" keeps its LOS power
    blocked = _nlosv_run(tmp_path, "blocked", [("a", 1, {}), ("b", 5e-324, {})])
    alone = _nlosv_run(tmp_path, "alone", [("a", 1, {})])
    assert blocked["a"]["condition"] == "NLOSv" and alone["a"]["condition"] == "LOS"
    assert blocked["a"]["rx_power"] == alone["a"]["rx_power"]


def test_run_takes_an_nlosv_blocker_too_tall_to_square_its_obstruction(tmp_path):
    # nu of a 1e160 m blocker has a square beyond the float range; the link
    # to "a" loses about 3200 dB and "b" is 1e160 m away, so none delivers
    assert _nlosv_run(tmp_path, "tall", [("a", 10, {}), ("b", 5, {"height": 1e160})]) == {}
