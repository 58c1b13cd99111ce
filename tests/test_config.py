import json
import math

import pytest

from v2xemu.config import (
    ConfigError,
    EmulatorConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
)


def test_defaults():
    cfg = config_from_dict({})
    assert cfg.radio.tx_power == 23.0
    assert cfg.radio.sensitivity == -82.0
    assert cfg.radio.carrier_freq == 5.9
    assert cfg.gnss.sigma == 2.32
    assert cfg.gnss.t_corr == 10.0
    assert math.isinf(cfg.ranges.r_b) and math.isinf(cfg.ranges.r_v)
    assert cfg.nlosv_threshold == 1.0
    assert cfg.scenario.step_period == 0.1
    assert cfg.step_budget == 0.1  # defaults to one step period
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


def test_range_strings():
    cfg = config_from_dict({"r_b": "inf", "r_v": 250})
    assert math.isinf(cfg.ranges.r_b)
    assert cfg.ranges.r_v == 250.0
    with pytest.raises(ConfigError):
        config_from_dict({"r_b": "diagonal-ish"})


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
    assert cfg.step_budget == 0.25
    with pytest.raises(ConfigError):
        config_from_dict({"budget_s": 0.0})


def test_overrides_json_then_string():
    data = apply_overrides({}, ["r_b=300", "seed=9", "shadow_eviction_s=25"])
    assert data == {"r_b": 300, "seed": 9, "shadow_eviction_s": 25}
    data = apply_overrides({}, ["r_b=inf"])
    assert data["r_b"] == "inf"  # not valid JSON, stays a string


def test_overrides_replace_file_values():
    data = apply_overrides({"r_b": 100, "seed": 1}, ["r_b=300"])
    assert data == {"r_b": 300, "seed": 1}


def test_override_section_alias():
    data = apply_overrides({}, ["ranges.r_b=300", "radio.tx_power=20"])
    assert data == {"r_b": 300, "tx_power": 20}


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
    cfg = load_config(path)
    assert cfg.ranges.r_b == 150.0
    assert cfg.seed == 3


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_is_frozen():
    cfg = EmulatorConfig()
    with pytest.raises(Exception):
        cfg.seed = 5
