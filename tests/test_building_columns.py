"""The building map is read as columns, the index is built from them, and
neither the load nor a run builds a ``Building`` or a vertex tuple.

The column reading must agree with the per-record one,
``SpatialIndex(buildings_from_json(...))``: on every map of the mutation
property both refuse it with the same message, or both give the same
index arrays, id order and buildings.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_building_mutation import city, mutations  # noqa: F401  (a fixture and a strategy)

from v2xemu import scenario
from v2xemu.config import config_from_dict
from v2xemu.geometry import SpatialIndex
from v2xemu.pipeline import run
from v2xemu.scenario import (
    Building,
    FormatError,
    InvalidPolygonError,
    buildings_from_json,
    load_buildings,
    load_trace,
    write_buildings,
    write_trace,
)
from v2xemu.synth import SynthConfig, generate_synthetic_scenario

pytestmark = pytest.mark.filterwarnings(
    "error:overflow encountered:RuntimeWarning", "error:invalid value encountered:RuntimeWarning"
)


def _index_or_error(load, path):
    try:
        index = load(path)
    except (FormatError, InvalidPolygonError) as exc:
        return type(exc), str(exc)
    return index


def _per_record(path):
    return SpatialIndex(buildings_from_json(json.loads(path.read_text()), path=str(path)))


def _same(path):
    got, want = _index_or_error(load_buildings, path), _index_or_error(_per_record, path)
    if isinstance(want, tuple):
        assert got == want
        return False
    assert got.ids == want.ids and got.buildings == want.buildings
    for name in ("_walls", "_corners", "_wall_start", "_wall_count", "_wall_bld"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return True


@settings(max_examples=200)
@given(data=st.data())
def test_columns_agree_with_the_record_reading(city, data):  # noqa: F811
    d, records = city
    mutated, _ = data.draw(mutations(records))
    path = d / "columns.json"
    path.write_text(json.dumps(mutated))
    _same(path)


@pytest.mark.parametrize(
    "vertex, loads",
    [
        ("12", True),  # a 2-character string unpacks to two coordinates
        ({"1": 0, "2": 0}, True),  # a dict of two keys, to its keys
        (["1_000", " 2.5\n"], True),  # strings read as float() reads them
        ([True, 2], True),
        ([None, 2], False),
        (["nan", 2], False),
        ([10**400, 2], False),
        ([40, 1e9], True),
        ([1.0000000000000002e9, 0], False),
        ("123", False),
        (5, False),
    ],
)
def test_vertex_forms_agree_with_the_record_reading(tmp_path, vertex, loads):
    records = [
        {"id": "b0", "vertices": [[0, 0], [40, 0], vertex, [0, 40]]},
        {"id": 1, "vertices": [[50, 50], [60, 50], [50, 60]]},
    ]
    path = tmp_path / "b.json"
    path.write_text(json.dumps(records))
    assert _same(path) == loads


@pytest.mark.parametrize("text", ["{}", "[]", '"ab"', '{"id": "b0", "vertices": []}', "[[]]", "[{}]", "[null]"])
def test_top_level_forms_agree_with_the_record_reading(tmp_path, text):
    # an empty object has no record to refuse, but is not an array
    path = tmp_path / "b.json"
    path.write_text(text)
    assert _same(path) == (text == "[]")


def test_vertex_lists_read_as_unpacking_them_does(tmp_path):
    # a map of one dict-shaped vertex list, and one duplicate id after it
    path = tmp_path / "b.json"
    path.write_text(json.dumps([{"id": "b", "vertices": {"00": 0, "40": 0, "04": 0}}]))
    assert _same(path)
    assert load_buildings(path).buildings == (Building("b", ((0.0, 0.0), (4.0, 0.0), (0.0, 4.0))),)
    path.write_text(json.dumps([{"id": "b", "vertices": [[0, 0], [1, 0], [0, 1]]}, {"id": "b", "vertices": []}]))
    assert not _same(path)


def test_load_and_run_build_no_building(tmp_path, monkeypatch):
    buildings, trace = generate_synthetic_scenario(SynthConfig(blocks=4, vehicle_count=30, duration_s=1.0, seed=4))
    write_buildings(tmp_path / "buildings.json", buildings)
    write_trace(tmp_path / "trace.jsonl", trace)
    made = []
    building_init, vertex = Building.__init__, scenario._vertex

    def counted_building(self, *args, **kwargs):
        made.append("Building")
        building_init(self, *args, **kwargs)

    def counted_vertex(x, y):
        made.append("vertex")
        return vertex(x, y)

    monkeypatch.setattr(Building, "__init__", counted_building)
    monkeypatch.setattr(scenario, "_vertex", counted_vertex)
    index = load_buildings(tmp_path / "buildings.json")
    for r in (300.0, "inf"):
        cfg = config_from_dict({"r_b": r, "r_v": r})
        run(cfg, index, load_trace(tmp_path / "trace.jsonl"), tmp_path / f"out-{r}")
    assert made == [] and "buildings" not in vars(index)
    assert len(index) == 16 and index.buildings == tuple(sorted(buildings, key=lambda b: b.id))
    assert np.array_equal(index._walls, SpatialIndex(buildings)._walls)
