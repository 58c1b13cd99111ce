"""The loaders decode what ``json.loads`` decodes, to the same values.

Trace lines and the building map are decoded by orjson, and read again
by json where orjson refuses the text or would read an id differently.
Every case here must give the steps of the standard library's reading in
``oracles``, or the buildings of its reference map loader, bit for bit,
or the identical located message. Text that json cannot read either
(invalid UTF-8, nesting deeper than its recursion limit) must fail
located, not with a traceback.
"""
import json

import pytest
from oracles import MapError, building_map, json_lines

from v2xemu.cli import main
from v2xemu.scenario import (
    FormatError,
    InvalidPolygonError,
    load_buildings,
    load_trace,
    step_from_json,
    step_to_line,
    write_buildings,
    write_trace,
)
from v2xemu.synth import SynthConfig, SyntheticTrace, make_buildings

# raw JSON texts: what only json reads, what the two read differently
# unless re-read, and the coercions the record checks keep
EDGE_VALUES = {
    "nan": "NaN",
    "inf": "Infinity",
    "neg-inf": "-Infinity",
    "1e400": "1e400",
    "10**400": "1" + "0" * 400,
    "2**64": str(2**64),
    "-2**63-1": str(-(2**63) - 1),
    "lone-surrogate": '"\\ud800"',
    "float": "1.5",
    "string-number": '"1.5"',
    "true": "true",
    "null": "null",
    "neg-zero": "-0.0",
    "string-nan": '"nan"',
    "two-char-string": '"12"',
    "triple": "[1, 2, 3]",
}
TRACE_FIELDS = {
    "t": ("t",),
    "ego-id": ("ego", "id"),
    "vehicle-id": ("vehicles", 0, "id"),
    "speed": ("vehicles", 0, "speed"),
}
BUILDING_FIELDS = {"id": (0, "id"), "x": (0, "vertices", 1, 0), "vertex": (0, "vertices", 1)}

_STEP = {
    "t": 0.5,
    "ego": {"id": "e", "x": 0.0, "y": 0.0, "speed": 1.0, "heading": 0.0},
    "vehicles": [{"id": "v1", "x": 100.0, "y": 5.0, "speed": 2.0, "heading": 1.0}],
}
_MAP = [{"id": "b0", "vertices": [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]}]


def _with_raw(value, where, text: str) -> str:
    """``value`` as JSON text with the raw JSON ``text`` at key path ``where``."""
    value = json.loads(json.dumps(value))
    owner = value
    for key in where[:-1]:
        owner = owner[key]
    owner[where[-1]] = "@@"
    return json.dumps(value).replace('"@@"', text)


def _outcome(load, path):
    """What loading ``path`` gives: a comparable value or the message."""
    try:
        return load(path)
    except (FormatError, InvalidPolygonError, MapError) as exc:
        return str(exc)


def _trace(path):
    return [step_to_line(step) for step in load_trace(path)]


def _reference_trace(path):
    steps = []
    for lineno, value in json_lines(path):
        if isinstance(value, json.JSONDecodeError):
            raise FormatError(f"invalid JSON: {value.msg}", path=str(path), locator=f"line {lineno}")
        steps.append(step_to_line(step_from_json(value, path=str(path), line=lineno)))
    return steps


def _buildings(path):
    # the index's buildings as (id, vertex tuple), in index order
    index = load_buildings(path)
    xy = index._walls[:2].T.tolist()
    runs = zip(index.ids, index._wall_start.tolist(), index._wall_count.tolist())
    return repr([(bid, tuple(map(tuple, xy[s : s + n]))) for bid, s, n in runs])


def _reference_buildings(path):
    return repr(building_map(path))


def _check_buildings(path) -> str:
    got = _outcome(_buildings, path)
    assert got == _outcome(_reference_buildings, path)
    return got


def _check_trace(path) -> str | list:
    got = _outcome(_trace, path)
    assert got == _outcome(_reference_trace, path)
    return got


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    d = tmp_path_factory.mktemp("city")
    cfg = SynthConfig(blocks=3, vehicle_count=30, duration_s=3.0, seed=2)
    write_buildings(d / "buildings.json", make_buildings(cfg))
    write_trace(d / "trace.jsonl", SyntheticTrace(cfg))
    return d


def test_generated_city_decodes_as_json_does(city):
    assert len(_check_trace(city / "trace.jsonl")) == 30
    assert _check_buildings(city / "buildings.json").startswith("[('b0000', ((10.0, 10.0), (90.0, 10.0)")


@pytest.mark.parametrize("field", TRACE_FIELDS)
@pytest.mark.parametrize("value", EDGE_VALUES)
def test_trace_edge_value_decodes_as_json_does(tmp_path, field, value):
    path = tmp_path / "t.jsonl"
    path.write_text(_with_raw(_STEP, TRACE_FIELDS[field], EDGE_VALUES[value]) + "\n")
    _check_trace(path)


@pytest.mark.parametrize("field", BUILDING_FIELDS)
@pytest.mark.parametrize("value", EDGE_VALUES)
def test_building_edge_value_decodes_as_json_does(tmp_path, field, value):
    path = tmp_path / "b.json"
    path.write_text(_with_raw(_MAP, BUILDING_FIELDS[field], EDGE_VALUES[value]))
    _check_buildings(path)


@pytest.mark.parametrize(
    "first, second, named",
    [
        ([[0, 0], ["x", 0], [1, 1]], [["nan", 0], [1, 0], [1, 1]],
         "record 1: bad vertex list for 'b9': could not convert string to float: 'x'"),
        ([["nan", 0], [1, 0], [1, 1]], [[0, 0], ["x", 0], [1, 1]],
         "record 1: bad vertex list for 'b9': non-finite position (nan, 0.0)"),
        ([["nan", 0], ["x", 0], [1, 1]], [0], "record 1: bad vertex list for 'b9': non-finite position (nan, 0.0)"),
        ([[0, 0], [1, 2, 3]], [[0, 0], [1, 0]], "record 1: bad vertex list for 'b9': too many values to unpack"),
    ],
    ids=["parse-then-non-finite", "non-finite-then-parse", "within-one-record", "bad-record-then-bad-polygon"],
)
def test_first_bad_record_in_file_order_is_named(tmp_path, first, second, named):
    # b9 comes first in the file, b1 first in id order
    path = tmp_path / "b.json"
    good = [[0, 0], [10, 0], [10, 10]]
    path.write_text(json.dumps([{"id": "b0", "vertices": good}, {"id": "b9", "vertices": first},
                                {"id": "b1", "vertices": second}]))
    assert _check_buildings(path).startswith(f"{path}, {named}")


@pytest.mark.parametrize(
    "text",
    [
        '{"t": 0.5, "t": 1.5, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0, "x": 7}}\n',
        '{"t": 0, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}}\r{"t": 1, "ego": {"id": "e", "x": 0, '
        '"y": 0, "speed": 1, "heading": 0}}\r',
        '{"t": 0, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}}\r\r{"t": NaN}\r',
        '{"t": 0, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}}\r\n\r\n{"t": 1}\r\n',
        ' {"t": 0, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}} \n \n\x1c\n{"t": []}\n',
        '\ufeff{"t": 0, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}}\n',
        '{"t": 0, "ego": {"id": "e", "x": 0, "y": 0, "speed": 1, "heading": 0}} x\n',
        "[" * 500 + "]" * 500 + "\n",
    ],
    ids=["duplicate-keys", "cr-line-ends", "cr-line-ends-error", "crlf-line-ends", "unicode-spaces", "bom",
         "trailing-text", "nested-500"],
)
def test_trace_text_decodes_as_json_does(tmp_path, text):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    _check_trace(path)


def test_building_map_line_ends_locate_errors_as_text_mode(tmp_path):
    path = tmp_path / "b.json"
    path.write_bytes(b'[\r{"id": "b0",\r"vertices": [[0, 0], [1, 0], [1, 1]]}\r\n,]')
    message = f"{path}, line 4: invalid JSON: Expecting value"
    assert _outcome(_buildings, path) == _outcome(_reference_buildings, path) == message


def test_invalid_utf8_trace_line_fails_located(tmp_path):
    path = tmp_path / "t.jsonl"
    good = json.dumps(_STEP).encode()
    path.write_bytes(good + b"\n\n" + good.replace(b'"v1"', b'"v\xff"') + b"\n")
    steps = load_trace(path)
    assert next(steps).timestamp == 0.5  # the lines before it load
    with pytest.raises(FormatError, match=f"{path}, line 3: invalid UTF-8: .*byte 0xff in position"):
        next(steps)
    assert main(["validate", "--trace", str(path)]) == 1


@pytest.mark.parametrize(
    "data, named",
    [(b'[{"id": "b0",\n"vertices": [[0, 0], [1, 0], [1, 1]], "name": "\xe9"}]', "line 2: invalid UTF-8"),
     (b"[" * 100_000, "invalid JSON: nested too deeply"),
     (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),  # orjson reads it; json cannot
     ],
    ids=["invalid-utf8", "deep-nesting", "deep-nesting-closed"],
)
def test_unreadable_building_map_fails_naming_it(tmp_path, capsys, data, named):
    path = tmp_path / "b.json"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^{path}"):
        load_buildings(path)
    assert main(["validate", "--buildings", str(path)]) == 1
    assert named in capsys.readouterr().err


def test_deeply_nested_trace_fields_fail_located(tmp_path):
    # orjson reads a 100000-deep value that json cannot; as an id it goes
    # to json, which fails located; as a number it fails the record check
    path = tmp_path / "t.jsonl"
    deep = "[" * 100_000 + "]" * 100_000
    for field, named in (("vehicle-id", "nested too deeply"), ("speed", "bad vehicle record")):
        path.write_text(_with_raw(_STEP, TRACE_FIELDS[field], deep) + "\n")
        with pytest.raises(FormatError, match=f"^{path}, line 1: .*{named}"):
            list(load_trace(path))
