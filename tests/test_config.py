import json
import math
from dataclasses import fields

import pytest

from v2xemu.channel import RadioConfig
from v2xemu.config import (
    KNOWN_KEYS,
    ConfigError,
    EmulatorConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    parse_range,
    read_config_file,
)
from v2xemu.geometry import CullingRanges
from v2xemu.gnss import GnssConfig
from v2xemu.scenario import ScenarioConfig

SECTIONS = {"scenario": ScenarioConfig, "radio": RadioConfig, "gnss": GnssConfig, "ranges": CullingRanges}
SCALARS = ("nlosv_threshold", "seed", "budget_s", "shadow_eviction_s")
NUMERIC_KEYS = sorted(KNOWN_KEYS - {"ego_gnss"}) + ["ego_gnss.sigma", "ego_gnss.t_corr"]


def test_defaults():
    cfg = config_from_dict({})
    assert cfg.radio.tx_power == 23.0
    assert cfg.radio.sensitivity == -82.0
    assert cfg.radio.carrier_freq == 5.9
    assert cfg.gnss.sigma == 2.32
    assert cfg.gnss.t_corr == 10.0
    assert math.isinf(cfg.ranges.r_b) and math.isinf(cfg.ranges.r_v)
    assert cfg.nlosv_threshold == 1.0
    assert cfg.budget_s == 0.1
    assert cfg.ego_gnss_config == cfg.gnss


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"r_bb": 300})
    # the classifier runs on one thread; the old thread-count key is gone
    with pytest.raises(ConfigError, match="worker_count"):
        config_from_dict({"worker_count": 1})
    # buildings are culled by one array scan; the old grid cell key is gone
    with pytest.raises(ConfigError, match="cell_size"):
        config_from_dict({"cell_size": 50.0})
    # the step budget is one key, budget_s; the step period knob is gone
    with pytest.raises(ConfigError, match="step_period"):
        config_from_dict({"step_period": 0.1})


def test_range_strings():
    cfg = config_from_dict({"r_b": "inf", "r_v": 250})
    assert math.isinf(cfg.ranges.r_b)
    assert cfg.ranges.r_v == 250.0
    with pytest.raises(ConfigError):
        config_from_dict({"r_b": "diagonal-ish"})
    with pytest.raises(ConfigError, match="r_v=diag needs a building map"):
        config_from_dict({"r_v": "diag"})
    cfg = config_from_dict({"r_b": "Diagonal", "r_v": " 120 "}, diagonal=424.0)
    assert (cfg.ranges.r_b, cfg.ranges.r_v) == (424.0, 120.0)


@pytest.mark.parametrize(
    "token, value",
    [(250, 250.0), (0.5, 0.5), ("300", 300.0), ("inf", math.inf), ("Infinity", math.inf), (math.inf, math.inf),
     ("diag", 99.0), ("DIAGONAL", 99.0)],
)
def test_parse_range_spellings(token, value):
    assert parse_range(token, 99.0, "r_b") == value


@pytest.mark.parametrize(
    "token", ["nan", math.nan, -1.0, "-inf", "", "far", None, True, [300], pytest.param(10**400, id="huge-int")]
)
def test_parse_range_rejects(token):
    with pytest.raises(ConfigError, match="r_b"):
        parse_range(token, 99.0, "r_b")


def test_ego_gnss_inherits_unset_fields():
    cfg = config_from_dict({"sigma": 1.5, "ego_gnss": {"t_corr": 3.0}})
    assert cfg.ego_gnss_config.sigma == 1.5
    assert cfg.ego_gnss_config.t_corr == 3.0
    assert cfg.gnss.t_corr == 10.0


def test_ego_gnss_unknown_key():
    with pytest.raises(ConfigError):
        config_from_dict({"ego_gnss": {"simga": 1.0}})


def test_budget_override():
    cfg = config_from_dict({"budget_s": 0.25})
    assert cfg.budget_s == 0.25
    with pytest.raises(ConfigError):
        config_from_dict({"budget_s": 0.0})


def test_shadow_eviction_not_negative():
    assert config_from_dict({"shadow_eviction_s": 0}).shadow_eviction_s == 0.0
    with pytest.raises(ConfigError, match="shadow_eviction_s must be >= 0"):
        config_from_dict({"shadow_eviction_s": -1})


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
def test_nlosv_threshold_within_zero_and_inf(threshold):
    # the dataclass checks it itself, so a config built in code cannot
    # skip the check that config_from_dict makes
    with pytest.raises(ConfigError, match="nlosv_threshold must be within"):
        EmulatorConfig(nlosv_threshold=threshold)
    if math.isfinite(threshold):
        with pytest.raises(ConfigError, match="nlosv_threshold must be within"):
            config_from_dict({"nlosv_threshold": threshold})


def test_overrides_json_then_string():
    data = apply_overrides({}, ["r_b=300", "seed=9", "shadow_eviction_s=25"])
    assert data == {"r_b": 300, "seed": 9, "shadow_eviction_s": 25}
    data = apply_overrides({}, ["r_b=inf"])
    assert data["r_b"] == "inf"  # not valid JSON, stays a string


def test_overrides_replace_file_values():
    data = apply_overrides({"r_b": 100, "seed": 1}, ["r_b=300"])
    assert data == {"r_b": 300, "seed": 1}


def test_override_dotted_ego_gnss():
    data = apply_overrides({}, ["ego_gnss.sigma=1.0"])
    assert data == {"ego_gnss": {"sigma": 1.0}}
    cfg = config_from_dict(data)
    assert cfg.ego_gnss_config.sigma == 1.0
    assert cfg.ego_gnss_config.t_corr == 10.0


def test_override_bad_forms():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["justakey"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["unknown.section=1"])
    # a key has one spelling: the section-prefixed forms are not aliases
    for item in ("ranges.r_b=300", "radio.tx_power=20"):
        with pytest.raises(ConfigError, match="unknown nested key"):
            apply_overrides({}, [item])
    with pytest.raises(ConfigError, match="ego_gnss must be an object"):
        apply_overrides({"ego_gnss": 1}, ["ego_gnss.sigma=1"])


@pytest.mark.parametrize("key", NUMERIC_KEYS)
@pytest.mark.parametrize(
    "raw", ["NaN", "Infinity", "-Infinity", '"1.0"', "true", "null", pytest.param("1" + "0" * 400, id="huge-int")]
)
def test_non_finite_and_non_numeric_values_rejected(key, raw):
    data = apply_overrides({}, [f"{key}={raw}"])
    if key in ("r_b", "r_v") and raw == "Infinity":
        assert math.isinf(getattr(config_from_dict(data).ranges, key))  # no culling
        return
    if key in ("r_b", "r_v") and raw == '"1.0"':
        return  # a range may be written as a string
    with pytest.raises(ConfigError, match=key):
        config_from_dict(data)


@pytest.mark.parametrize(
    "key, value",
    [("origin_lat", 95.0), ("origin_lat", 89.99999), ("origin_lat", -95.0), ("origin_lon", 181.0), ("origin_lon", -181.0)],
)
def test_origin_off_the_globe_rejected(key, value):
    # the projection divides by cos(origin_lat): at 85 degrees that is still 0.087
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: value})


@pytest.mark.parametrize(
    "key, value", [("origin_lat", 85.0), ("origin_lat", -85.0), ("origin_lon", 180.0), ("origin_lon", -180.0)]
)
def test_origin_at_the_limit_accepted(key, value):
    assert getattr(config_from_dict({key: value}).scenario, key) == value


def test_integer_key_rejects_fraction():
    assert config_from_dict({"seed": 5.0}).seed == 5
    with pytest.raises(ConfigError, match="seed must be an integer"):
        config_from_dict({"seed": 5.5})


def test_every_section_field_is_a_known_key_and_round_trips():
    keys = [(name, f) for name, cls in SECTIONS.items() for f in fields(cls)]
    keys += [(None, f) for f in fields(EmulatorConfig) if f.name in SCALARS]
    # one flat key per field: no two sections share a field name
    assert sorted(f.name for _, f in keys) == sorted(KNOWN_KEYS - {"ego_gnss"})
    for section, f in keys:
        value = 123.0 if math.isinf(f.default) else f.default + 1
        cfg = config_from_dict({f.name: value})
        assert getattr(getattr(cfg, section) if section else cfg, f.name) == value
        echo = config_to_dict(cfg)
        assert echo[f.name] == value
        assert config_from_dict(echo) == cfg
    default = config_to_dict(EmulatorConfig())
    assert default["r_b"] == default["r_v"] == "inf" and "ego_gnss" not in default
    assert config_from_dict(default) == EmulatorConfig()


def test_round_trip_through_dict():
    cfg = config_from_dict(
        {
            "r_b": 300,
            "r_v": "inf",
            "seed": 42,
            "tx_power": 20.0,
            "ego_gnss": {"sigma": 0.5},
            "origin_lat": 44.5,
        }
    )
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r_b": 150, "seed": 3}))
    cfg = config_from_dict(read_config_file(path))
    assert cfg.ranges.r_b == 150.0
    assert cfg.seed == 3


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        config_from_dict(read_config_file(path))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        config_from_dict(read_config_file(path))


def test_config_is_frozen():
    cfg = EmulatorConfig()
    with pytest.raises(Exception):
        cfg.seed = 5
