"""World model and trace ingestion.

The emulator consumes two kinds of input produced by a traffic simulator:
a static building map (JSON array of polygons) and a per-step trace of
vehicle states (JSON lines, one step per line). Everything downstream
works in a local planar frame in meters; geodetic coordinates appear only
at the output boundary, converted through the scenario origin with an
equirectangular projection (sub-centimeter error at city scale, exactly
invertible).

File formats
------------
Buildings: ``[{"id": "b0001", "vertices": [[x, y], ...]}, ...]``, loaded
           and checked into one ``geometry.SpatialIndex``.
Trace:     one JSON object per line,
           ``{"t": 1.5, "ego": V, "vehicles": [V, ...]}`` with
           ``V = {"id", "x", "y", "speed", "heading"[, "length", "width",
           "height"]}``, the vehicles in any order. Every number must be
           finite (Python's ``json`` reads ``NaN`` and ``Infinity``; this
           loader rejects them), and every coordinate, of a vehicle or a
           vertex, within ``MAX_COORD`` (1e9 m). Numbers are read as
           ``float()`` reads them, so ``"1.5"`` and ``true`` are accepted
           and ``null`` is not.

Both files are UTF-8 and are decoded by orjson. What orjson refuses
(``NaN``, ``Infinity``, numbers beyond the float range, lone surrogates,
syntax errors) and a record id that it would read differently (an
integer beyond 64 bits) are read again by ``json``, so the loaders
accept what ``json.loads`` accepts, give the same values, and report its
errors, located by line.

The ego of a step is one ``VehicleState``; the other vehicles are
``VehicleColumns``, one float64 row per vehicle, which the loader builds
and checks a whole line at a time, without an object per vehicle.
"""
from __future__ import annotations

import json
import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np
import orjson

if TYPE_CHECKING:
    from .geometry import SpatialIndex

# Default vehicle footprint when the trace omits dimensions (typical
# passenger car), and the antenna mount height above the roof.
DEFAULT_LENGTH = 4.5
DEFAULT_WIDTH = 1.8
DEFAULT_HEIGHT = 1.5
DEFAULT_ANTENNA_OFFSET = 0.1

EARTH_RADIUS_M = 6_371_008.8  # IUGG mean radius

TWO_PI = 2.0 * math.pi

# The columns of ``VehicleColumns.values``, in order.
VEHICLE_COLUMNS = ("x", "y", "speed", "heading", "length", "width", "height")


class ScenarioError(Exception):
    """Base class for scenario ingestion problems."""


class FormatError(ScenarioError):
    """Malformed input file; carries a locator (line or record index)."""

    def __init__(self, message: str, *, path: str | None = None, locator: str | None = None):
        self.path = path
        self.locator = locator
        where = f"{path or '<input>'}" + (f", {locator}" if locator else "")
        super().__init__(f"{where}: {message}")


class InvalidPolygonError(ScenarioError):
    """Building polygon violating an invariant; names the offending id."""

    def __init__(self, building_id: str, reason: str):
        self.building_id = building_id
        super().__init__(f"building {building_id!r}: {reason}")


class NonMonotoneTimestampError(FormatError):
    pass


class MissingEgoError(FormatError):
    pass


# Largest |x| and |y|, in meters, of a position or building vertex: far
# beyond any city, and small enough that no square, sum of squares or
# cross product of two coordinate differences overflows.
MAX_COORD = 1e9


def _check_coords(x: float, y: float) -> None:
    if not (abs(x) <= MAX_COORD and abs(y) <= MAX_COORD):  # nan fails too
        if math.isfinite(x) and math.isfinite(y):
            raise ValueError(f"position ({x}, {y}) beyond {MAX_COORD:g} m")
        raise ValueError(f"non-finite position ({x}, {y})")


@dataclass(frozen=True, slots=True)
class Position:
    """Point in the local planar frame: x east, y north, meters, each
    within ``MAX_COORD``."""

    x: float
    y: float

    def __post_init__(self):
        _check_coords(self.x, self.y)


def planar_to_geodetic(origin_lat: float, origin_lon: float, x: float, y: float) -> tuple[float, float]:
    """Equirectangular projection inverse: local meters -> (lat, lon) in
    degrees, on a sphere."""
    lat = origin_lat + math.degrees(y / EARTH_RADIUS_M)
    lon = origin_lon + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(origin_lat))))
    return lat, lon


@dataclass(frozen=True, slots=True)
class VehicleState:
    id: str
    position: Position
    speed: float
    heading: float  # radians CCW from east, normalized to [0, 2*pi)
    length: float = DEFAULT_LENGTH
    width: float = DEFAULT_WIDTH
    height: float = DEFAULT_HEIGHT

    def __post_init__(self):
        # chained comparisons, so that nan fails them too
        if not (0 < self.length < math.inf and 0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(
                f"vehicle {self.id!r}: dimensions must be positive and finite, got "
                f"length {self.length}, width {self.width}, height {self.height}"
            )
        if not math.isfinite(self.speed):
            raise ValueError(f"vehicle {self.id!r}: non-finite speed {self.speed}")
        if not math.isfinite(self.heading):
            raise ValueError(f"vehicle {self.id!r}: non-finite heading")
        heading = self.heading % TWO_PI  # a tiny negative heading rounds up to TWO_PI
        object.__setattr__(self, "heading", heading if heading < TWO_PI else 0.0)


@dataclass(frozen=True)
class Building:
    """Closed 2D polygon obstacle, its vertices ``(x, y)`` in meters; the
    last edge back to the first vertex is implicit. A plain record:
    ``SpatialIndex`` checks that it is a simple polygon."""

    id: str
    vertices: tuple[tuple[float, float], ...]


class BuildingColumns(NamedTuple):
    """Buildings as columns, in input order: ``ids``, ``counts`` (the
    vertex count of each, an intp array) and ``xy``, a (2, total) float64
    array of every vertex, building after building and in vertex order
    within one. A plain record, like ``Building``: ``SpatialIndex``
    checks it."""

    ids: tuple[str, ...]
    counts: np.ndarray
    xy: np.ndarray

    @classmethod
    def of(cls, buildings) -> "BuildingColumns":
        """``buildings`` itself if it is columns, else the columns of an
        iterable of ``Building``."""
        if isinstance(buildings, cls):
            return buildings
        buildings = tuple(buildings)
        counts = np.fromiter((len(b.vertices) for b in buildings), np.intp, len(buildings))
        flat = chain.from_iterable(chain.from_iterable(b.vertices for b in buildings))
        xy = np.fromiter(flat, np.float64, 2 * int(counts.sum())).reshape(-1, 2).T
        return cls(tuple(b.id for b in buildings), counts, xy)


class VehicleColumns(Sequence):
    """Vehicles as columns (a step's others, or one trace record):
    ``ids`` in input order, and ``values``, one read-only (n, 7) float64
    row per vehicle holding ``VEHICLE_COLUMNS``.

    Construction checks every row at once, with the rules of
    ``VehicleState``: a position within ``MAX_COORD``, finite speed and
    heading, positive finite dimensions. The first bad row (in input
    order) raises the ``ValueError`` its ``VehicleState`` would. Headings
    are then normalised to [0, 2*pi) as ``VehicleState`` does it:
    ``np.mod`` gives the bits of Python's ``%``, and the 2*pi it rounds a
    tiny negative heading up to becomes 0.0.

    It is also a read-only sequence of ``VehicleState``: indexing builds
    one vehicle's record on demand. Two column sets are equal when their
    ids and values are.
    """

    __slots__ = ("ids", "values")

    def __init__(self, ids, values):
        ids = tuple(ids)
        values = np.array(values, dtype=np.float64).reshape(-1, len(VEHICLE_COLUMNS))
        if len(values) != len(ids):
            raise ValueError(f"{len(ids)} vehicle ids but {len(values)} rows")
        self.ids, self.values = ids, values
        dims = values[:, 4:]
        ok = (
            (np.abs(values[:, :2]) <= MAX_COORD).all(axis=1)  # nan fails too
            & np.isfinite(values[:, 2:4]).all(axis=1)
            & ((dims > 0) & (dims < math.inf)).all(axis=1)
        )
        if not ok.all():
            self[int(np.argmin(ok))]  # raises that vehicle's error
            raise AssertionError("the row check and VehicleState disagree")
        headings = np.mod(values[:, 3], TWO_PI)
        values[:, 3] = np.where(headings < TWO_PI, headings, 0.0)
        values.flags.writeable = False

    @classmethod
    def of(cls, vehicles) -> "VehicleColumns":
        """``vehicles`` itself if it is columns, else the columns of an
        iterable of ``VehicleState``."""
        if isinstance(vehicles, cls):
            return vehicles
        vehicles = tuple(vehicles)
        rows = ((v.position.x, v.position.y, v.speed, v.heading, v.length, v.width, v.height) for v in vehicles)
        return cls([v.id for v in vehicles], np.fromiter(chain.from_iterable(rows), np.float64, 7 * len(vehicles)))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> VehicleState:
        vid = self.ids[i]
        x, y, speed, heading, length, width, height = self.values[i].tolist()
        return VehicleState(vid, Position(x, y), speed, heading, length, width, height)

    def __eq__(self, other):
        if not isinstance(other, VehicleColumns):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class ScenarioStep:
    """All exact object positions at one trace timestamp. ``others`` may
    be given as any iterable of ``VehicleState``; it is held as
    ``VehicleColumns``."""

    timestamp: float
    ego: VehicleState
    others: VehicleColumns

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError(f"non-finite timestamp {self.timestamp}")
        others = VehicleColumns.of(self.others)
        object.__setattr__(self, "others", others)
        ids = set(others.ids)
        if self.ego.id in ids:
            raise ValueError(f"ego id {self.ego.id!r} duplicated in others at t={self.timestamp}")
        if len(ids) != len(others):
            dup = next(i for i, n in Counter(others.ids).items() if n > 1)
            raise ValueError(f"vehicle id {dup!r} appears more than once at t={self.timestamp}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Frame anchor and antenna placement. ``planar_to_geodetic`` divides
    by cos(origin_lat), so the origin stays 5 degrees off the poles, where
    the factor is still 0.087."""

    origin_lat: float = 0.0
    origin_lon: float = 0.0
    antenna_height_offset: float = DEFAULT_ANTENNA_OFFSET

    def __post_init__(self):
        if not abs(self.origin_lat) <= 85.0:  # nan fails too
            raise ValueError(f"origin_lat must be within [-85, 85] degrees, got {self.origin_lat}")
        if not abs(self.origin_lon) <= 180.0:
            raise ValueError(f"origin_lon must be within [-180, 180] degrees, got {self.origin_lon}")


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def vehicles_to_json(vehicles: VehicleColumns) -> list[dict]:
    keys = ("id", *VEHICLE_COLUMNS)
    return [dict(zip(keys, (vid, *row))) for vid, row in zip(vehicles.ids, vehicles.values.tolist())]


def vehicles_from_json(
    records: list, *, path: str | None = None, where: str = "<vehicles>", ids: list | None = None
) -> VehicleColumns:
    """The columns of a list of vehicle records, checked as a whole.
    ``ids`` are the records' ids as strings, if the caller read them."""
    try:
        ids = [str(v["id"]) for v in records] if ids is None else ids
        rows = (
            (v["x"], v["y"], v["speed"], v["heading"], v.get("length", DEFAULT_LENGTH),
             v.get("width", DEFAULT_WIDTH), v.get("height", DEFAULT_HEIGHT))
            for v in records
        )
        # float64 conversion reads numbers and strings as float() does,
        # but None as nan, which the row check then rejects
        return VehicleColumns(ids, np.fromiter(chain.from_iterable(rows), np.float64, 7 * len(ids)))
    except KeyError as exc:
        raise FormatError(f"vehicle record missing key {exc}", path=path, locator=where) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad vehicle record: {exc}", path=path, locator=where) from exc


def step_to_json(step: ScenarioStep) -> dict:
    return {
        "t": step.timestamp,
        "ego": vehicles_to_json(VehicleColumns.of([step.ego]))[0],
        "vehicles": vehicles_to_json(step.others),
    }


def step_to_line(step: ScenarioStep) -> str:
    return json.dumps(step_to_json(step), separators=(",", ":"))


def step_from_json(
    obj: dict, *, path: str | None = None, line: int = 0, vehicle_ids: list | None = None
) -> ScenarioStep:
    """The step of a decoded trace line; ``vehicle_ids`` are the ids of
    its vehicle records as strings, if the caller read them."""
    loc = f"line {line}"
    if not isinstance(obj, dict):
        raise FormatError("step record must be an object", path=path, locator=loc)
    vehicles = obj.get("vehicles", [])
    if not isinstance(vehicles, list):
        raise FormatError("'vehicles' must be a list", path=path, locator=loc)
    if "t" not in obj:
        raise FormatError("step record missing 't'", path=path, locator=loc)
    if "ego" not in obj:
        raise MissingEgoError("step record missing 'ego'", path=path, locator=loc)
    ego = vehicles_from_json([obj["ego"]], path=path, where=loc)[0]
    others = vehicles_from_json(vehicles, path=path, where=loc, ids=vehicle_ids)
    try:
        return ScenarioStep(timestamp=float(obj["t"]), ego=ego, others=others)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(str(exc), path=path, locator=loc) from exc


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


# Ids that orjson and json decode alike; any other id (a float, which may
# be orjson's reading of an integer beyond 64 bits) is read by json.
_PLAIN_IDS = frozenset((str, int))
_STR = frozenset((str,))
_ID = operator.itemgetter("id")


def _decode_json(text: str, record_ids, *, path: str, locator: str | None = None) -> tuple:
    """The value of ``text`` as ``json.loads`` reads it, and its record
    ids as strings or None; or a FormatError at ``locator`` (by default
    at the line of the error).

    orjson decodes it, and ``record_ids(value)``, the list of ids that
    become strings, is returned as strings, unless orjson refuses the
    text or those ids are not all ``str`` or ``int``; then json reads it
    and the ids are None, for the record check to read. A record without
    an id also sends the text to json, whose value the record check then
    rejects. Readers open files with ``errors="surrogateescape"``, so that
    a byte that is not UTF-8 fails here, located.
    """
    try:
        value = orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    else:
        try:
            ids = record_ids(value)
            types = set(map(type, ids))
            if types <= _PLAIN_IDS:
                return value, ids if types <= _STR else list(map(str, ids))
        except (KeyError, TypeError):
            pass
    try:
        text = text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"invalid UTF-8: {exc}", path=path, locator=locator or f"line {line}") from exc
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", path=path, locator=locator or f"line {exc.lineno}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply", path=path, locator=locator) from exc


def _step_ids(obj) -> list:
    return [obj["ego"]["id"], *map(_ID, obj.get("vehicles", ()))]


def _map_ids(data) -> list:
    return list(map(_ID, data))


def _vertex(x, y) -> tuple[float, float]:
    """A vertex read as ``float()`` reads each coordinate; both within
    ``MAX_COORD``."""
    x, y = float(x), float(y)
    # _check_coords's test, repeated here so that a good vertex, of which a
    # map has thousands, costs no call
    if not (abs(x) <= MAX_COORD and abs(y) <= MAX_COORD):
        _check_coords(x, y)
    return x, y


def buildings_from_json(data, *, path: str | None = None) -> list[Building]:
    """The buildings of a decoded building map, with its records checked."""
    if not isinstance(data, list):
        raise FormatError("top level must be an array of buildings", path=path)
    buildings: dict[str, Building] = {}
    for i, rec in enumerate(data):
        loc = f"record {i}"
        if not isinstance(rec, dict) or "id" not in rec or "vertices" not in rec:
            raise FormatError("building record needs 'id' and 'vertices'", path=path, locator=loc)
        bid = str(rec["id"])
        if bid in buildings:
            raise FormatError(f"duplicate building id {bid!r}", path=path, locator=loc)
        try:
            vertices = tuple([_vertex(x, y) for x, y in rec["vertices"]])
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad vertex list for {bid!r}: {exc}", path=path, locator=loc) from exc
        buildings[bid] = Building(id=bid, vertices=vertices)
    return list(buildings.values())


_VERTICES = operator.itemgetter("vertices")


def _building_columns(data, ids: list | None) -> BuildingColumns | None:
    """The columns of a decoded building map, read in whole-map passes,
    or None if a check refuses it. ``ids`` are the records' ids as
    strings, or None.

    It accepts what ``buildings_from_json`` accepts, with the same
    values: a vertex's coordinates are what iterating it gives, as
    unpacking it does, once its ``len`` is 2 (a list, a 2-character
    string, a dict of two keys), and float64 conversion reads each as
    ``float()`` does, but None as nan, which the bound then refuses.
    """
    if not isinstance(data, list):
        return None
    try:
        ids = tuple(map(str, map(_ID, data)) if ids is None else ids)
        vertex_lists = list(map(_VERTICES, data))
        counts = np.fromiter(map(len, vertex_lists), np.intp, len(vertex_lists))
        vertices = list(chain.from_iterable(vertex_lists))
        if not {2}.issuperset(map(len, vertices)):
            return None
        xy = np.fromiter(chain.from_iterable(vertices), np.float64, 2 * len(vertices))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if len(set(ids)) < len(ids) or not (np.abs(xy) <= MAX_COORD).all():  # nan fails too
        return None
    return BuildingColumns(ids, counts, xy.reshape(-1, 2).T)


def load_buildings(path) -> SpatialIndex:
    """The checked index of a building map file.

    Raises FormatError, naming the first bad record in file order, on a
    file that is not UTF-8 JSON, a malformed record, a vertex that is not
    a pair of numbers within ``MAX_COORD``, or a duplicate id (so blocker
    reports stay unambiguous). Then the index checks the polygons and
    raises InvalidPolygonError for the first bad one in id order.

    The map is read as columns, with no object per record or vertex; a
    map that a whole-map check refuses is read again one record at a time
    by ``buildings_from_json``, to name the first bad record.
    """
    from .geometry import SpatialIndex  # geometry imports this module

    path = str(path)
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        text = f.read()
    try:
        data, ids = _decode_json(text, _map_ids, path=path)
        buildings = _building_columns(data, ids)
        if buildings is None:
            buildings_from_json(data, path=path)  # raises the first bad record's error
            raise AssertionError("the whole-map checks and buildings_from_json disagree")
    except FormatError:
        # the message may name a vertex's type, and orjson reads an integer
        # beyond 64 bits as a float: check the records as json reads them
        buildings_from_json(_decode_json(text, lambda data: (None,), path=path)[0], path=path)
        raise
    return SpatialIndex(buildings)


def load_trace(path) -> Iterator[ScenarioStep]:
    """Stream ScenarioSteps from a JSON-lines trace file.

    Lazy: one line is parsed per step consumed, so memory stays bounded by
    a single step regardless of trace length. Timestamps must be strictly
    increasing.
    """
    path = str(path)

    def gen() -> Iterator[ScenarioStep]:
        prev_t: float | None = None
        # text mode: a lone "\r" also ends a line and strip() also removes
        # Unicode spaces, which a binary reading would not do
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            for lineno, raw in enumerate(f, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                obj, ids = _decode_json(raw, _step_ids, path=path, locator=f"line {lineno}")
                step = step_from_json(obj, path=path, line=lineno, vehicle_ids=None if ids is None else ids[1:])
                if prev_t is not None and step.timestamp <= prev_t:
                    raise NonMonotoneTimestampError(
                        f"timestamp {step.timestamp} not after {prev_t}",
                        path=path,
                        locator=f"line {lineno}",
                    )
                prev_t = step.timestamp
                yield step

    return gen()


def write_trace(path, steps: Iterable[ScenarioStep]) -> int:
    """Write steps as JSON lines; returns the number of steps written."""
    count = 0
    with open(str(path), "w", encoding="utf-8") as f:
        for step in steps:
            f.write(step_to_line(step))
            f.write("\n")
            count += 1
    return count


def write_buildings(path, buildings: Iterable[Building]) -> None:
    with open(str(path), "w", encoding="utf-8") as f:
        json.dump([{"id": b.id, "vertices": b.vertices} for b in buildings], f, separators=(",", ":"))
