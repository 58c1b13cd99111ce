import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite", max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
# HYPOTHESIS_PROFILE=deep runs the properties that set no example count of
# their own on many more examples
settings.register_profile(
    "deep", max_examples=1000, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

from v2xemu.geometry import SpatialIndex  # noqa: E402
from v2xemu.scenario import Position, VehicleColumns, VehicleState, buildings_from_json  # noqa: E402


def index_of(records) -> SpatialIndex:
    """The index of building records ``{"id": ..., "vertices": [...]}``,
    made in code and checked as a map file's records are."""
    return SpatialIndex(buildings_from_json(list(records)))


def columns_of(vehicles) -> VehicleColumns:
    """The columns of ``VehicleState`` records made in code, in their order,
    for calls that take a vehicle set."""
    vehicles = list(vehicles)
    rows = [(v.position.x, v.position.y, v.speed, v.heading, v.length, v.width, v.height) for v in vehicles]
    return VehicleColumns([v.id for v in vehicles], rows)


@pytest.fixture
def square_building():
    def make(bid: str, x0: float, y0: float, side: float) -> dict:
        return {"id": bid, "vertices": [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]}

    return make


@pytest.fixture
def vehicle():
    def make(vid: str, x: float, y: float, **kw) -> VehicleState:
        kw.setdefault("speed", 10.0)
        kw.setdefault("heading", 0.0)
        return VehicleState(id=vid, position=Position(x, y), **kw)

    return make
