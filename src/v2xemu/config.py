"""Emulator configuration: one flat JSON object, strict keys.

Every tunable lives in a single flat namespace (the only nested key is
``ego_gnss``, an optional override of the error model for the ego's own
receiver). The keys are the fields of the config dataclasses: the
scalar fields of ``EmulatorConfig`` plus every field of its sections
(``ScenarioConfig``, ``RadioConfig``, ``GnssConfig``, ``CullingRanges``).
Unknown keys are rejected rather than ignored so typos cannot silently
fall back to defaults, and every value must be a finite number.
Command-line overrides use ``--set key=value`` with the same names;
values are parsed as JSON first and fall back to plain strings, and
``ego_gnss.sigma=...`` reaches into the nested object.

``r_b`` / ``r_v`` also accept ``inf`` (no culling) and ``diag`` (the
building map's bounding-box diagonal), see ``parse_range``.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .channel import DEFAULT_SHADOW_EVICTION_S, RadioConfig
from .geometry import DEFAULT_NLOSV_THRESHOLD, CullingRanges
from .gnss import GnssConfig
from .scenario import ScenarioConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EmulatorConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    gnss: GnssConfig = field(default_factory=GnssConfig)
    ranges: CullingRanges = field(default_factory=CullingRanges)
    nlosv_threshold: float = DEFAULT_NLOSV_THRESHOLD
    seed: int = 0
    budget_s: float = 0.1  # real-time budget of one step [s]
    shadow_eviction_s: float = DEFAULT_SHADOW_EVICTION_S
    ego_gnss: GnssConfig | None = None  # None: same model as everyone else

    def __post_init__(self):
        if not self.budget_s > 0:  # nan fails too
            raise ConfigError("budget_s must be > 0")
        if not 0 < self.nlosv_threshold < math.inf:
            raise ConfigError(f"nlosv_threshold must be within (0, inf), got {self.nlosv_threshold}")
        # a negative horizon would evict every link on every step
        if not self.shadow_eviction_s >= 0:
            raise ConfigError("shadow_eviction_s must be >= 0")

    @property
    def ego_gnss_config(self) -> GnssConfig:
        return self.ego_gnss if self.ego_gnss is not None else self.gnss


# section name -> its dataclass, for every field with a default factory
_SECTIONS = {f.name: f.default_factory for f in fields(EmulatorConfig) if f.default_factory is not MISSING}
# flat key -> (section name, or None for a scalar of EmulatorConfig; its field)
_SCHEMA = {
    g.name: (f.name, g) if f.name in _SECTIONS else (None, f)
    for f in fields(EmulatorConfig)
    if f.name != "ego_gnss"
    for g in (fields(_SECTIONS[f.name]) if f.name in _SECTIONS else (f,))
}
KNOWN_KEYS = frozenset(_SCHEMA) | {"ego_gnss"}


def parse_range(value, diagonal: float | None, key: str) -> float:
    """The culling radius ``key``: a number (or its string), ``inf``/
    ``infinity`` for no culling, or ``diag``/``diagonal`` for ``diagonal``
    (an error when it is None)."""
    number = value
    if isinstance(value, str):
        if value.strip().lower() in ("diag", "diagonal"):
            if diagonal is None:
                raise ConfigError(f"{key}=diag needs a building map")
            return diagonal
        try:
            number = float(value)  # also reads inf and infinity, in any case
        except ValueError:
            pass
    number = _as_float(number)
    if number is None or not number >= 0:  # written so that nan fails too
        raise ConfigError(f"{key} must be a number >= 0, 'inf' or 'diag', got {value!r}")
    return number


def _as_float(raw) -> float | None:
    """``raw`` as a float if it is an int or float that a float can hold, else None."""
    try:
        return None if isinstance(raw, bool) or not isinstance(raw, (int, float)) else float(raw)
    except OverflowError:  # an int beyond the float range
        return None


def _value(key: str, raw, diagonal: float | None):
    """``raw`` checked and converted to the type of the key's default;
    only the culling ranges may be infinite. ``key`` may be dotted
    (``ego_gnss.sigma``)."""
    section, f = _SCHEMA[key.rpartition(".")[2]]
    if section == "ranges":
        return parse_range(raw, diagonal, key)
    number = _as_float(raw)
    if number is None or not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    if isinstance(f.default, int) and raw != int(raw):
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    return type(f.default)(raw)


def config_from_dict(data: dict, diagonal: float | None = None) -> EmulatorConfig:
    """Build the config from flat keys; ``diagonal`` resolves ``diag``
    ranges (an error when it is None)."""
    unknown = set(data) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    parts: dict = {name: {} for name in _SECTIONS}
    top: dict = {}
    for key, raw in data.items():
        if key != "ego_gnss":
            section = _SCHEMA[key][0]
            (parts[section] if section else top)[key] = _value(key, raw, diagonal)
    ego = data.get("ego_gnss")
    if ego is not None:
        if not isinstance(ego, dict):
            raise ConfigError("ego_gnss must be an object")
        bad = set(ego) - {f.name for f in fields(GnssConfig)}
        if bad:
            raise ConfigError(f"unknown ego_gnss keys: {sorted(bad)}")
        ego = {key: _value(f"ego_gnss.{key}", raw, None) for key, raw in ego.items()}
    try:
        sections = {name: cls(**parts[name]) for name, cls in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if ego is not None:
        try:
            # unspecified fields inherit from the shared model
            top["ego_gnss"] = replace(sections["gnss"], **ego)
        except ValueError as exc:
            raise ConfigError(f"ego_gnss: {exc}") from exc
    return EmulatorConfig(**sections, **top)


def config_to_dict(cfg: EmulatorConfig) -> dict:
    """Flat dict round-trippable through config_from_dict; infinite
    ranges are emitted as the string 'inf' to stay strict-JSON safe."""
    out = {}
    for key, (section, _) in _SCHEMA.items():
        value = getattr(getattr(cfg, section) if section else cfg, key)
        out[key] = "inf" if math.isinf(value) else value
    if cfg.ego_gnss is not None:
        out["ego_gnss"] = asdict(cfg.ego_gnss)
    return out


def write_config(cfg: EmulatorConfig, path) -> None:
    """The ``effective_config.json`` echo of a resolved config."""
    with open(str(path), "w", encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def read_config_file(path) -> dict:
    """The top-level object of a JSON config file, unchecked keys; a
    ConfigError naming the file if it is not UTF-8 JSON or not an object."""
    with open(str(path), "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: invalid UTF-8: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def apply_overrides(data: dict, assignments) -> dict:
    """Apply ``key=value`` strings onto a config dict (returns a copy).

    Values go through json.loads when possible so numbers, booleans and
    nested objects work; anything unparseable stays a string. A dotted
    key addresses the one nesting level, ``ego_gnss``.
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
        head, dot, tail = key.partition(".")
        if not dot:
            out[key] = value
        elif head == "ego_gnss":
            sub = out.get(head) or {}
            if not isinstance(sub, dict):
                raise ConfigError("ego_gnss must be an object")
            out[head] = {**sub, tail: value}
        else:
            raise ConfigError(f"unknown nested key {key!r}")
    return out
