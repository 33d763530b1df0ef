"""Boundary sweep of the JSON inputs through the command line.

A derandomized hypothesis run mutates the scenario, the dataset header,
``topology.json`` and the checkpoint's meta and params: a value swapped for
another JSON type, a non-finite or extreme finite number, a field removed or
added, a list cut short, or the file's text cut short. Each command runs
through ``cli.main`` and must end with an exit code of the contract (0, 2, 3,
4 or 5), never an uncaught exception. After exit 0 the next command must
accept what the command wrote, and printed predictions must be finite.

The scenario's numbers stay small. The reader refuses a duration past the
profile's end and a profile asking for more than 1e7 candidate arrivals
(``sample_workload`` draws candidates at the peak rate over the whole
profile), but a run inside those bounds may still last minutes, too long
for one example of a sweep.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailcast.cli import main

CONTRACT = (0, 2, 3, 4, 5)

# type swaps and non-finite numbers, safe in any field
SWAPS = [None, True, False, "1", "", [], {}, [1.0], {"x": 1}, 0, -1, 0.5, 2.0, 2.5,
         math.nan, math.inf, -math.inf, 10 ** 400]
# extreme finite numbers, for the files whose numbers bound no amount of work
EXTREME = [1e308, -1e308, 1e-308, 5e-324, 2 ** 63, -(2 ** 63), 1e16 + 1]

SCENARIO = {
    "preset": "sockshop_like", "seed": 3, "duration_s": 90.0, "noise_sigma": 0.01,
    "capacities": {"carts": {"pods": 1, "service_rate": 80.0}},
    "profile": [{"kind": "ramp", "duration_s": 40.0, "start_rate": 2.0, "end_rate": 8.0},
                {"kind": "spike", "duration_s": 30.0, "start_rate": 8.0, "end_rate": 16.0},
                {"kind": "plateau", "duration_s": 20.0, "start_rate": 4.0}],
}

SWEEP = settings(derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


def run(argv: list[str]) -> tuple[int, str]:
    """``cli.main``'s exit code and stdout; an exception fails the test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in CONTRACT, (argv, code)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> ingest -> train (resource_only, one epoch) once."""
    root = tmp_path_factory.mktemp("sweep")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert run(["simulate", "--scenario", str(root / "scenario.json"),
                "--out-dir", str(root / "sim")])[0] == 0
    assert run(["ingest", "--telemetry", str(root / "sim"),
                "--topology", str(root / "sim" / "topology.json"),
                "--dataset", str(root / "data.jsonl")])[0] == 0
    assert run(["train", "--dataset", str(root / "data.jsonl"), "--out-dir", str(root / "train"),
                "--variant", "resource_only", "--epochs", "1", "--seed", "1"])[0] == 0
    return {"sim": root / "sim", "dataset": root / "data.jsonl",
            "checkpoint": root / "train" / "checkpoint.json"}


def mutated_text(data, doc, start: list, values: list) -> str:
    """``doc`` as JSON text with one mutation drawn from ``data``, at or
    below the value that the keys ``start`` lead to."""
    root = {"doc": copy.deepcopy(doc)}
    holder, key = root, "doc"
    for step in start:
        holder, key = holder[key], step
    for _ in range(data.draw(st.integers(0, 4), label="depth")):
        node = holder[key]
        children = list(node) if isinstance(node, dict) else \
            list(range(len(node))) if isinstance(node, list) else []
        if not children:
            break
        holder, key = node, data.draw(st.sampled_from(children), label="into")
    node = holder[key]
    op = data.draw(st.sampled_from(["swap", "delete", "extra", "truncate", "cut_text"]), label="op")
    if op == "delete" and holder is not root:
        del holder[key]
    elif op == "extra" and isinstance(node, dict):
        node["surprise"] = data.draw(st.sampled_from(values), label="extra value")
    elif op == "truncate" and isinstance(node, list) and node:
        del node[data.draw(st.integers(0, len(node) - 1), label="keep"):]
    elif op != "cut_text":
        holder[key] = data.draw(st.sampled_from(values), label="value")
    text = json.dumps(root["doc"])
    if op == "cut_text":
        text = text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    return text


def predictions_finite(stdout: str) -> bool:
    values = [float(line) for line in stdout.split()]
    return bool(values) and bool(np.isfinite(values).all())


@settings(SWEEP, max_examples=200)
@given(data=st.data())
def test_scenario(pipeline, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "scenario.json").write_text(mutated_text(data, SCENARIO, [], SWAPS))
        code, _ = run(["simulate", "--scenario", str(work / "scenario.json"),
                       "--out-dir", str(work / "sim")])
        if code == 0:
            code, _ = run(["ingest", "--telemetry", str(work / "sim"),
                           "--topology", str(work / "sim" / "topology.json"),
                           "--dataset", str(work / "data.jsonl")])
            assert code in (0, 3)  # 3: too short a run for one window


@settings(SWEEP, max_examples=150)
@given(data=st.data())
def test_dataset_header(pipeline, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = pipeline["dataset"].read_text().splitlines(keepends=True)
        header = mutated_text(data, json.loads(lines[0]), [], SWAPS + EXTREME)
        (work / "data.jsonl").write_text(header + "\n" + "".join(lines[1:]))
        code, out = run(["predict", "--snapshots", str(work / "data.jsonl"),
                         "--checkpoint", str(pipeline["checkpoint"])])
        assert code != 0 or predictions_finite(out)


@settings(SWEEP, max_examples=150)
@given(data=st.data())
def test_topology(pipeline, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        topology = json.loads((pipeline["sim"] / "topology.json").read_text())
        (work / "topology.json").write_text(mutated_text(data, topology, [], SWAPS + EXTREME))
        code, _ = run(["ingest", "--telemetry", str(pipeline["sim"]),
                       "--topology", str(work / "topology.json"),
                       "--dataset", str(work / "data.jsonl")])
        if code == 0:
            # 5: a valid topology other than the checkpoint's
            code, out = run(["predict", "--snapshots", str(work / "data.jsonl"),
                             "--checkpoint", str(pipeline["checkpoint"])])
            assert code in (0, 5)
            assert code != 0 or predictions_finite(out)


@settings(SWEEP, max_examples=300)
@given(part=st.sampled_from(["meta", "params"]), data=st.data())
def test_checkpoint(pipeline, part, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        payload = json.loads(pipeline["checkpoint"].read_text())
        (work / "checkpoint.json").write_text(mutated_text(data, payload, [part], SWAPS + EXTREME))
        code, out = run(["predict", "--snapshots", str(pipeline["dataset"]),
                         "--checkpoint", str(work / "checkpoint.json")])
        assert code != 0 or predictions_finite(out)
