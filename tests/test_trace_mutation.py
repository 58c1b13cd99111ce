"""Mutated trace lines: every one loads and runs, or fails located.

One field of the last line of a ``gen-scenario`` trace is replaced with a
drawn value or deleted: ``t``, ``ego``, ``vehicles``, or one key of the
ego or of one vehicle. The trace must then either load and run through
``Emulator.step``, or raise a ``FormatError`` that names the file and the
line; ``validate`` and ``run`` must exit with the same code, and neither
with a traceback.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2xemu.cli import main
from v2xemu.config import config_from_dict
from v2xemu.pipeline import Emulator
from v2xemu.scenario import FormatError, load_buildings, load_trace

VALUES = (None, True, "1.5", "nan", "abc", [], {}, [1], 0, -1, 1e308, -1e308, 10**400, 2**64, 1e-320, "\ud800")
DELETE = object()

# numpy's overflow and invalid-value warnings fail the test: the loaders
# keep every accepted coordinate small enough for the geometry's arithmetic
pytestmark = pytest.mark.filterwarnings(
    "error:overflow encountered:RuntimeWarning", "error:invalid value encountered:RuntimeWarning"
)


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    d = tmp_path_factory.mktemp("city")
    assert main(["gen-scenario", "--out", str(d), "--blocks", "2", "--vehicles", "4", "--duration", "0.3"]) == 0
    lines = [json.loads(line) for line in (d / "trace.jsonl").read_text().splitlines()]
    return d, lines


@st.composite
def mutations(draw, line):
    """(path, value): the field at ``path`` within ``line`` and what
    replaces it (``DELETE`` deletes it)."""
    path = draw(
        st.sampled_from(["t", "ego", "vehicles"]).map(lambda k: (k,))
        | st.sampled_from(sorted(line["ego"])).map(lambda k: ("ego", k))
        | st.tuples(st.just("vehicles"), st.integers(0, len(line["vehicles"]) - 1), st.sampled_from(sorted(line["vehicles"][0])))
    )
    return path, draw(st.sampled_from((DELETE, *VALUES)))


def _mutated(line, path, value):
    line = json.loads(json.dumps(line))
    *parents, key = path
    owner = line
    for p in parents:
        owner = owner[p]
    if value is DELETE:
        del owner[key]
    else:
        owner[key] = value
    return line


def _write(d, lines) -> str:
    # plain json.dumps, as a producer would write it: nan is a string here
    path = d / "mutated.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def _cli(*args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, err.getvalue()


def _check(d, lines) -> bool:
    """Load and run the trace, or see it fail located on its last line;
    ``validate`` and ``run`` must agree. Returns whether it loaded."""
    trace = _write(d, lines)
    where = f"{trace}, line {len(lines)}"
    try:
        steps = list(load_trace(trace))
    except FormatError as exc:
        assert where in str(exc)
        loaded = False
    else:
        emu = Emulator(config_from_dict({}), load_buildings(d / "buildings.json"))
        for step in steps:
            emu.step(step)
        loaded = True
    rc_validate, err_validate = _cli("validate", "--trace", trace)
    rc_run, err_run = _cli("run", "--trace", trace, "--buildings", str(d / "buildings.json"), "--out", str(d / "out"))
    assert rc_validate == rc_run == (0 if loaded else 1)
    if not loaded:
        assert where in err_validate and where in err_run
    return loaded


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_line_loads_and_runs_or_fails_located(city, data):
    d, lines = city
    path, value = data.draw(mutations(lines[-1]))
    _check(d, [*lines[:-1], _mutated(lines[-1], path, value)])


@pytest.mark.parametrize("owner", [("ego",), ("vehicles", 1)], ids=["ego", "vehicle"])
def test_null_coordinate_fails(city, owner):
    # numpy reads None as nan where float() raises; either way it must fail
    d, lines = city
    assert not _check(d, [*lines[:-1], _mutated(lines[-1], (*owner, "x"), None)])


def test_numeric_id_duplicates_its_string(city):
    d, lines = city
    last = _mutated(_mutated(lines[-1], ("vehicles", 0, "id"), 1), ("vehicles", 1, "id"), "1")
    assert not _check(d, [*lines[:-1], last])
    with pytest.raises(FormatError, match="'1' appears more than once"):
        list(load_trace(d / "mutated.jsonl"))


@pytest.mark.parametrize("value", ["1.5", True], ids=["string", "true"])
def test_kept_coercions_load(city, value):
    # float() accepts both, so the loader does too
    d, lines = city
    last = _mutated(lines[-1], ("vehicles", 0, "speed"), value)
    assert _check(d, [*lines[:-1], last])
    step = list(load_trace(_write(d, [*lines[:-1], last])))[-1]
    assert step.others[0].speed == float(value)



@pytest.mark.parametrize("owner", [("ego",), ("vehicles", 1)], ids=["ego", "vehicle"])
def test_lone_surrogate_id_loads_and_runs(city, owner):
    # json reads "\ud800", so the loader does; the id must not stop the run
    d, lines = city
    assert _check(d, [*lines[:-1], _mutated(lines[-1], (*owner, "id"), "\ud800")])
