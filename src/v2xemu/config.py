"""Emulator configuration: one flat JSON object, strict keys.

Every tunable lives in a single flat namespace (the only nested key is
``ego_gnss``, an optional override of the error model for the ego's own
receiver). Unknown keys are rejected rather than ignored so typos cannot
silently fall back to defaults. Command-line overrides use
``--set key=value`` with the same names; values are parsed as JSON first
and fall back to plain strings, and ``ego_gnss.sigma=...`` style dotted
paths reach into the nested object.

``r_b`` / ``r_v`` accept a number or the string ``"inf"`` (no culling).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .channel import RadioConfig
from .geometry import DEFAULT_NLOSV_THRESHOLD, CullingRanges
from .gnss import GnssConfig
from .scenario import ScenarioConfig


class ConfigError(ValueError):
    pass


_SCENARIO_KEYS = ("origin_lat", "origin_lon", "step_period", "antenna_height_offset")
_RADIO_KEYS = ("tx_power", "sensitivity", "carrier_freq", "shadowing_std", "decorrelation_distance")
_GNSS_KEYS = ("sigma", "t_corr")
_TOP_KEYS = (
    "r_b",
    "r_v",
    "nlosv_threshold",
    "seed",
    "budget_s",
    "shadow_eviction_s",
    "ego_gnss",
)
KNOWN_KEYS = frozenset(_SCENARIO_KEYS + _RADIO_KEYS + _GNSS_KEYS + _TOP_KEYS)


@dataclass(frozen=True)
class EmulatorConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    gnss: GnssConfig = field(default_factory=GnssConfig)
    ranges: CullingRanges = field(default_factory=CullingRanges)
    nlosv_threshold: float = DEFAULT_NLOSV_THRESHOLD
    seed: int = 0
    budget_s: float | None = None  # None: one step period
    shadow_eviction_s: float = 60.0
    ego_gnss: GnssConfig | None = None  # None: same model as everyone else

    def __post_init__(self):
        if self.budget_s is not None and self.budget_s <= 0:
            raise ConfigError("budget_s must be > 0")

    @property
    def step_budget(self) -> float:
        return self.budget_s if self.budget_s is not None else self.scenario.step_period

    @property
    def ego_gnss_config(self) -> GnssConfig:
        return self.ego_gnss if self.ego_gnss is not None else self.gnss


def _parse_range(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"range must be a number or 'inf', got {value!r}")
    return float(value)


def config_from_dict(data: dict) -> EmulatorConfig:
    unknown = set(data) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(cls, keys, sub: dict):
        kwargs = {k: sub[k] for k in keys if k in sub}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    gnss = pick(GnssConfig, _GNSS_KEYS, data)
    ego_gnss = None
    if data.get("ego_gnss") is not None:
        sub = data["ego_gnss"]
        if not isinstance(sub, dict):
            raise ConfigError("ego_gnss must be an object")
        bad = set(sub) - set(_GNSS_KEYS)
        if bad:
            raise ConfigError(f"unknown ego_gnss keys: {sorted(bad)}")
        # unspecified fields inherit from the shared model
        merged = {"sigma": gnss.sigma, "t_corr": gnss.t_corr, **sub}
        ego_gnss = pick(GnssConfig, _GNSS_KEYS, merged)

    try:
        ranges = CullingRanges(
            r_b=_parse_range(data.get("r_b", math.inf)),
            r_v=_parse_range(data.get("r_v", math.inf)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return EmulatorConfig(
        scenario=pick(ScenarioConfig, _SCENARIO_KEYS, data),
        radio=pick(RadioConfig, _RADIO_KEYS, data),
        gnss=gnss,
        ranges=ranges,
        nlosv_threshold=float(data.get("nlosv_threshold", DEFAULT_NLOSV_THRESHOLD)),
        seed=int(data.get("seed", 0)),
        budget_s=None if data.get("budget_s") is None else float(data["budget_s"]),
        shadow_eviction_s=float(data.get("shadow_eviction_s", 60.0)),
        ego_gnss=ego_gnss,
    )


def config_to_dict(cfg: EmulatorConfig) -> dict:
    """Flat dict round-trippable through config_from_dict; infinities are
    emitted as the string 'inf' to stay strict-JSON safe."""
    out = {
        "origin_lat": cfg.scenario.origin_lat,
        "origin_lon": cfg.scenario.origin_lon,
        "step_period": cfg.scenario.step_period,
        "antenna_height_offset": cfg.scenario.antenna_height_offset,
        "tx_power": cfg.radio.tx_power,
        "sensitivity": cfg.radio.sensitivity,
        "carrier_freq": cfg.radio.carrier_freq,
        "shadowing_std": cfg.radio.shadowing_std,
        "decorrelation_distance": cfg.radio.decorrelation_distance,
        "sigma": cfg.gnss.sigma,
        "t_corr": cfg.gnss.t_corr,
        "r_b": "inf" if math.isinf(cfg.ranges.r_b) else cfg.ranges.r_b,
        "r_v": "inf" if math.isinf(cfg.ranges.r_v) else cfg.ranges.r_v,
        "nlosv_threshold": cfg.nlosv_threshold,
        "seed": cfg.seed,
        "budget_s": cfg.budget_s,
        "shadow_eviction_s": cfg.shadow_eviction_s,
    }
    if cfg.ego_gnss is not None:
        out["ego_gnss"] = {"sigma": cfg.ego_gnss.sigma, "t_corr": cfg.ego_gnss.t_corr}
    return out


def read_config_file(path) -> dict:
    """The top-level object of a JSON config file, unchecked keys; a
    ConfigError naming the file if it is not valid JSON or not an object."""
    with open(str(path), "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def load_config(path) -> EmulatorConfig:
    return config_from_dict(read_config_file(path))


def apply_overrides(data: dict, assignments) -> dict:
    """Apply ``key=value`` strings onto a config dict (returns a copy).

    Values go through json.loads when possible so numbers, booleans and
    nested objects work; anything unparseable stays a string. Dotted keys
    address the one nesting level (ego_gnss) and, as a convenience,
    section-style prefixes (``ranges.r_b=300``, ``radio.tx_power=20``)
    resolve to the flat key.
    """
    out = dict(data)
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if "." in key:
            head, _, tail = key.partition(".")
            if head == "ego_gnss":
                sub = dict(out.get(head) or {})
                sub[tail] = value
                out[head] = sub
                continue
            if head in ("ranges", "radio", "gnss", "scenario") and tail in KNOWN_KEYS:
                out[tail] = value
                continue
            raise ConfigError(f"unknown nested key {key!r}")
        else:
            out[key] = value
    return out
