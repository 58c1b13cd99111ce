"""A building map has one in-memory form, ``BuildingColumns``: the loader
reads a map into columns in whole-map passes, the index is built from
them, and neither the load nor a run reads a vertex record by record.

The column reading must agree with the per-record one,
``SpatialIndex(buildings_from_json(...))``, the reference here and the
way to build a map from records in code: on every map of the mutation
property both refuse it with the same message, or both give the same id
order and index arrays. A map made from records in code gets the file's
record checks, each refusal naming its record.
"""
import json
import math

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
    FormatError,
    InvalidPolygonError,
    buildings_from_json,
    load_buildings,
    load_trace,
    write_buildings,
    write_trace,
)
from v2xemu.synth import SynthConfig, SyntheticTrace, make_buildings

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
    assert got.ids == want.ids
    for name in ("_walls", "_box_bounds", "_wall_start", "_wall_count", "_wall_bld"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return True


# 200 examples, or the deep profile's count where that is larger
@settings(max_examples=max(200, settings().max_examples))
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
    index = load_buildings(path)
    assert index.ids == ("b",) and index._walls[:2].tolist() == [[0.0, 4.0, 0.0], [0.0, 0.0, 4.0]]
    path.write_text(json.dumps([{"id": "b", "vertices": [[0, 0], [1, 0], [0, 1]]}, {"id": "b", "vertices": []}]))
    assert not _same(path)


def test_load_and_run_build_no_building(tmp_path, monkeypatch):
    # the synth ids are in id order, so the index keeps the columns' order
    synth = SynthConfig(blocks=4, vehicle_count=30, duration_s=1.0, seed=4)
    buildings = make_buildings(synth)
    write_buildings(tmp_path / "buildings.json", buildings)
    write_trace(tmp_path / "trace.jsonl", SyntheticTrace(synth))
    made = []
    vertex = scenario._vertex

    def counted_vertex(x, y):
        made.append("vertex")
        return vertex(x, y)

    monkeypatch.setattr(scenario, "_vertex", counted_vertex)
    index = load_buildings(tmp_path / "buildings.json")
    for r in (300.0, "inf"):
        cfg = config_from_dict({"r_b": r, "r_v": r})
        run(cfg, index, load_trace(tmp_path / "trace.jsonl"), tmp_path / f"out-{r}")
    assert made == []
    assert len(index) == 16 and index.ids == buildings.ids and np.array_equal(index._walls[:2], buildings.xy)
    assert np.array_equal(index._walls, SpatialIndex(buildings)._walls)


@pytest.mark.parametrize(
    "vertices",
    [
        [[0, 0, 50], [100, 0], [100, 100], [0, 100]],
        [[0, 0], [100, 0], [100], [0, 100]],
        [[0, 0], [100, 0], 7, [0, 100]],
    ],
    ids=["three-numbers", "one-number", "no-length"],
)
def test_a_vertex_made_in_code_must_be_a_pair(vertices):
    # a vertex that is not a pair would shift every later coordinate of
    # the columns, so that the polygon check then blamed the wrong thing
    # ("edges 0 and 2 intersect"); the record reading refuses it first
    records = [{"id": "a0", "vertices": [[0, 0], [10, 0], [10, 10]]}, {"id": "a", "vertices": vertices}]
    with pytest.raises(FormatError) as exc:
        buildings_from_json(records)
    assert exc.value.locator == "record 1"
    assert str(exc.value).startswith("<input>, record 1: bad vertex list for 'a': ")
    assert "unpack" in str(exc.value)


def test_a_map_made_in_code_gets_the_record_checks():
    square = [[0, 0], [10, 0], [10, 10], [0, 10]]
    with pytest.raises(FormatError, match=r"^<input>, record 1: duplicate building id 'a'$"):
        buildings_from_json([{"id": "a", "vertices": square}, {"id": "a", "vertices": square}])
    for bad in (math.nan, math.inf, 2e9):
        with pytest.raises(FormatError, match=r"^<input>, record 0: bad vertex list for 'a': "):
            buildings_from_json([{"id": "a", "vertices": [[0, 0], [bad, 0], [10, 10]]}])
    cols = buildings_from_json([{"id": "b", "vertices": square}, {"id": 1, "vertices": square[:3]}])
    assert cols.ids == ("b", "1") and cols.counts.tolist() == [4, 3]
    assert cols.xy.tolist() == [[0, 10, 10, 0, 0, 10, 10], [0, 0, 10, 10, 0, 0, 10]]
