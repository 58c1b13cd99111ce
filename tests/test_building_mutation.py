"""Mutated building records: every map loads, or fails naming the record
or the building.

One record of a ``gen-scenario`` map is changed: its ``id``, its
``vertices``, one vertex or one coordinate is replaced with one of the
trace mutation property's values or deleted, or the record takes the id
of another, or two of its vertices swap places so that two edges cross.
``load_buildings`` must then return the checked index, or raise a
``FormatError`` that names the file and the record, or an
``InvalidPolygonError`` that names the building; ``validate --buildings``
and ``run`` must exit with the same code, and neither with a traceback.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_trace_mutation import DELETE, VALUES

from v2xemu.cli import main
from v2xemu.scenario import FormatError, InvalidPolygonError, load_buildings

# numpy's overflow and invalid-value warnings fail the test: the loaders
# keep every accepted coordinate small enough for the geometry's arithmetic
pytestmark = pytest.mark.filterwarnings(
    "error:overflow encountered:RuntimeWarning", "error:invalid value encountered:RuntimeWarning"
)


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    d = tmp_path_factory.mktemp("city")
    assert main(["gen-scenario", "--out", str(d), "--blocks", "2", "--vehicles", "4", "--duration", "0.3"]) == 0
    return d, json.loads((d / "buildings.json").read_text())


def _replaced(records, path, value):
    records = json.loads(json.dumps(records))
    *parents, key = path
    owner = records
    for p in parents:
        owner = owner[p]
    if value is DELETE:
        del owner[key]
    else:
        owner[key] = value
    return records


@st.composite
def mutations(draw, records):
    """(records, named): the mutated map and the record it must name if
    its records are refused."""
    i = draw(st.integers(0, len(records) - 1))
    j = draw(st.integers(0, len(records[i]["vertices"]) - 1))
    kind = draw(st.sampled_from(["id", "vertices", "vertex", "coordinate", "duplicate-id", "crossing"]))
    if kind == "duplicate-id":
        k = draw(st.integers(0, len(records) - 1).filter(lambda k: k != i))
        return _replaced(records, (i, "id"), records[k]["id"]), max(i, k)
    if kind == "crossing":
        # swapping two neighbours of a convex polygon crosses two edges
        vertices = records[i]["vertices"]
        after = (j + 1) % len(vertices)
        swapped = _replaced(records, (i, "vertices", j), vertices[after])
        return _replaced(swapped, (i, "vertices", after), vertices[j]), i
    path = {"id": (i, "id"), "vertices": (i, "vertices"), "vertex": (i, "vertices", j)}.get(kind)
    path = path or (i, "vertices", j, draw(st.integers(0, 1)))
    return _replaced(records, path, draw(st.sampled_from((DELETE, *VALUES)))), i


def _cli(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in args])


def _check(d, records, named: int) -> bool:
    """Load the map, or see it fail naming record ``named`` or its
    building; ``validate`` and ``run`` must agree. Returns whether it
    loaded."""
    path = d / "mutated.json"
    # plain json.dumps, as a producer would write it
    path.write_text(json.dumps(records))
    try:
        load_buildings(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}, record {named}: ")
        loaded = False
    except InvalidPolygonError as exc:
        assert exc.building_id == str(records[named]["id"])
        assert str(exc).startswith(f"building {exc.building_id!r}: ")
        loaded = False
    else:
        loaded = True
    rc_validate = _cli("validate", "--buildings", path)
    rc_run = _cli("run", "--trace", d / "trace.jsonl", "--buildings", path, "--out", d / "out")
    assert rc_validate == rc_run == (0 if loaded else 1)
    return loaded


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_record_loads_or_fails_naming_it(city, data):
    d, records = city
    _check(d, *data.draw(mutations(records)))


def test_unmutated_map_loads(city):
    d, records = city
    assert _check(d, records, 0)


@pytest.mark.parametrize(
    "path, value, loads",
    [
        ((1, "vertices", 2), "12", True),  # a 2-character string reads as two coordinates
        ((1, "vertices", 2), [1, 2, 3], False),
        ((1, "vertices", 2, 0), 10**400, False),
        ((1, "vertices", 2, 0), "nan", False),
        ((1, "vertices", 2), DELETE, True),  # a triangle
        ((1, "vertices", 2, 0), 110.0, False),  # a zero-length edge
    ],
    ids=["two-char-string", "triple", "beyond-float-range", "string-nan", "triangle", "zero-length-edge"],
)
def test_named_mutations(city, path, value, loads):
    d, records = city
    assert _check(d, _replaced(records, path, value), 1) == loads


def test_crossing_edges_fail_naming_the_building(city, capsys):
    d, records = city
    vertices = records[2]["vertices"]
    crossed = _replaced(_replaced(records, (2, "vertices", 0), vertices[1]), (2, "vertices", 1), vertices[0])
    assert not _check(d, crossed, 2)
    assert main(["validate", "--buildings", str(d / "mutated.json")]) == 1
    assert "building 'b0002': edges 1 and 3 intersect" in capsys.readouterr().err
