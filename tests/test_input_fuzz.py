"""A fuzz of the CLI's input boundary.

Each example changes one field or cell of one input file and runs the CLI
in-process: ``baseline`` for a scenario, server or workload file, ``simulate``
for an allocation or trace file, and ``fit`` for a telemetry file.  Whatever
the change, no exception escapes, the exit code is 0, 2, 3 or 4, a failure
prints exactly one line, and an exit 2 names the changed file.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greensched.cli import main
from greensched.power import ThermalState, total_power
from greensched.scenario import FIXTURES, load_scenario, load_server_spec
from greensched.workload import generate_jobs, serialize_trace

SCENARIO, SERVER, WORKLOAD = "scenario_amd.json", "amd_opteron_270.json", "mixed_workload.csv"
ALLOCATION, TRACE, TELEMETRY = "allocation.json", "trace.csv", "telemetry.csv"
FIT_SERVER = "intel_xeon_e5620.json"

MUTATIONS = (
    "wrong-type", "zero", "negative", "fractional", "bool", "null", "missing", "container",
    "top-level",
)


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """The text of each input file before any change, by file name."""
    files = {name: (FIXTURES / name).read_text() for name in (SCENARIO, SERVER, WORKLOAD)}
    scenario = load_scenario(FIXTURES / SCENARIO)
    shares = [[100, 0, 0] if p.kind == "REAL" else [34, 33, 33] for p in scenario.profiles]
    files[ALLOCATION] = json.dumps({"dvfs": [3, 3, 3], "shares": shares}, indent=1)
    trace = tmp_path_factory.mktemp("base") / TRACE
    serialize_trace(generate_jobs(scenario.profiles, 1, scenario.phase_policy), trace)
    files[TRACE] = trace.read_text()
    spec = load_server_spec(FIXTURES / FIT_SERVER)
    rng = np.random.default_rng(0)
    rows = ["utilization,t_cpu_k,t_mem_k,mode_index,power_w"]
    for _ in range(30):
        u, tc, tm = rng.uniform(0, 1), rng.uniform(295, 320), rng.uniform(295, 320)
        ix = int(rng.integers(1, 7))
        power = total_power(spec, spec.mode(ix), ThermalState((tc,), tm), u)
        rows.append(f"{u},{tc},{tm},{ix},{power}")
    files[TELEMETRY] = "\n".join(rows) + "\n"
    return files


def json_paths(value, prefix=()):
    """The key path of every value in a JSON document, the top level first."""
    paths = [prefix]
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        paths += json_paths(child, (*prefix, key))
    return paths


def changed(value, how):
    """``value`` after the mutation ``how`` (all but 'missing' and 'top-level')."""
    is_number = type(value) in (int, float)
    if how == "container":
        if isinstance(value, dict):
            return list(value.values())
        return {"0": value} if isinstance(value, list) else [value]
    return {
        "wrong-type": 7 if isinstance(value, str) else "x",
        "zero": 0,
        "negative": -abs(value) if is_number and value else -1,
        "fractional": value + 0.5 if is_number else 0.5,
        "bool": True,
        "null": None,
    }[how]


def mutate_json(text, where, how):
    doc = json.loads(text)
    if how == "top-level":
        return json.dumps([doc])
    if not where:
        return "" if how == "missing" else json.dumps(changed(doc, how))
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    if how == "missing":
        del target[last]
    else:
        target[last] = changed(target[last], how)
    return json.dumps(doc, indent=1)


def mutate_csv(text, row, column, how):
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    if how == "top-level":  # a header with no rows
        return "\n".join(lines[: data[0] + 1]) + "\n"
    at = data[row % len(data)]
    cells = lines[at].split(",")
    column %= len(cells)
    if how == "missing":
        del cells[column]
    elif how == "container":
        cells.insert(column, cells[column])
    else:
        cells[column] = {
            "wrong-type": "x", "zero": "0", "negative": "-" + cells[column],
            "fractional": "0.5", "bool": "true", "null": "",
        }[how]
    lines[at] = ",".join(cells)
    return "\n".join(lines) + "\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(
    name=st.sampled_from([SCENARIO, SERVER, WORKLOAD, ALLOCATION, TRACE, TELEMETRY]),
    how=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_one_bad_field_or_cell_is_reported_not_raised(base_files, name, how, data):
    files = dict(base_files)
    if name.endswith(".json"):
        where = data.draw(st.sampled_from(json_paths(json.loads(files[name]))), label="where")
        files[name] = mutate_json(files[name], where, how)
    else:
        row, column = data.draw(st.integers(0, 9), label="row"), data.draw(st.integers(0, 5))
        files[name] = mutate_csv(files[name], row, column, how)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for file_name, text in files.items():
            (d / file_name).write_text(text)
        common = ["--scenario", str(d / SCENARIO), "--out", str(d / "out")]
        if name in (ALLOCATION, TRACE):
            argv = ["simulate", *common, "--allocation", str(d / ALLOCATION),
                    "--trace", str(d / TRACE)]
        elif name == TELEMETRY:
            argv = ["fit", "--telemetry", str(d / TELEMETRY), "--server",
                    str(FIXTURES / FIT_SERVER), "--out", str(d / "out")]
        else:
            argv = ["baseline", *common]
        rc, err = run(argv)
    assert rc in (0, 2, 3, 4), err
    if rc:
        assert err.endswith("\n") and err.count("\n") == 1, err
    if rc == 2:
        assert str(d / name) in err, err
