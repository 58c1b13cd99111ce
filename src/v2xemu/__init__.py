"""Deterministic real-time link-quality emulator for V2X validation.

Feeds on a vehicle trace and a building map; per step it classifies each
ego link as LOS / NLOSb / NLOSv using range-culled geometry, applies an
urban path-loss model with correlated shadowing, filters messages against
receiver sensitivity, corrupts the survivors' positions with a correlated
GNSS error, and reports how long each step took.
"""
from .channel import (
    RadioConfig,
    ShadowingTracker,
    knife_edge_loss,
    link_rx_power,
    nlosv_extra_loss,
    path_loss_los,
    path_loss_nlosb,
)
from .config import ConfigError, EmulatorConfig, config_from_dict
from .geometry import (
    CullingRanges,
    LinkClassifier,
    LinkCondition,
    SpatialIndex,
)
from .gnss import GnssConfig, GnssErrorState, GnssTracker, tracked_series, update_error
from .pipeline import Emulator, ReceivedMessage, StepError, StepMetrics, run, sweep
from .rng import substream
from .scenario import (
    BuildingColumns,
    Position,
    ScenarioConfig,
    ScenarioStep,
    VehicleColumns,
    VehicleState,
    load_buildings,
    load_trace,
)
from .synth import SynthConfig, SyntheticTrace, make_buildings

__version__ = "0.1.0"

__all__ = [
    "BuildingColumns",
    "ConfigError",
    "CullingRanges",
    "Emulator",
    "EmulatorConfig",
    "GnssConfig",
    "GnssErrorState",
    "GnssTracker",
    "LinkClassifier",
    "LinkCondition",
    "Position",
    "RadioConfig",
    "ReceivedMessage",
    "ScenarioConfig",
    "ScenarioStep",
    "ShadowingTracker",
    "SpatialIndex",
    "StepError",
    "StepMetrics",
    "SynthConfig",
    "SyntheticTrace",
    "VehicleColumns",
    "VehicleState",
    "config_from_dict",
    "knife_edge_loss",
    "link_rx_power",
    "load_buildings",
    "load_trace",
    "make_buildings",
    "nlosv_extra_loss",
    "path_loss_los",
    "path_loss_nlosb",
    "run",
    "substream",
    "sweep",
    "tracked_series",
    "update_error",
]
