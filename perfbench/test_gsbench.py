"""Tests of the benchmark itself: statistics, checks, tracing and a smoke run.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gsbench import stats, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, percentile", [(400, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, 100.0)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    assert stats.tail_percentile(n) == percentile


def test_summarize_reports_count_and_chosen_tail():
    s = stats.summarize([float(x) for x in range(1, 101)])
    assert s["n"] == 100
    assert s["tail_percentile"] == 90.0
    assert s["p50"] == pytest.approx(50.5)
    assert s["tail"] == pytest.approx(90.1)


def _search(tmp_path):
    wl = workloads.make("search-var-intel", smoke=True)
    wl.prepare(3, workloads.load_inputs(wl.fixtures, 3), tmp_path)
    return wl


def test_search_check_passes_on_a_real_front(tmp_path):
    wl = _search(tmp_path)
    op = wl.run(0)
    wl.check(op)
    assert op.failures == {}
    assert op.counters["generations_run"] == wl.generations


def test_corrupted_front_point_is_counted_as_failed(tmp_path):
    wl = _search(tmp_path)
    op = wl.run(0)
    res = op.output[0]
    p = res.front[0]
    res.front[0] = dataclasses.replace(p, energy_j=p.energy_j * (1 + 1e-6))
    wl.check(op)
    assert len(op.failures) == wl.units(op) == 1
    assert "re-evaluated" in op.failures[0][0]


def test_short_search_is_counted_as_failed(tmp_path):
    wl = _search(tmp_path)
    op = wl.run(0)
    res, cfg, trace = op.output
    op.output = (dataclasses.replace(res, generations_run=res.generations_run - 1), cfg, trace)
    wl.check(op)
    assert any("cap is" in m for m in op.failures[0])


def test_crashing_search_is_counted_as_failed(tmp_path, monkeypatch):
    from greensched import nsga

    def boom(*args, **kwargs):
        raise ValueError("boom")

    wl = _search(tmp_path)
    monkeypatch.setattr(nsga, "evolve", boom)
    op = wl.run(0)
    wl.check(op)
    assert "boom" in op.failures[0][0]


def test_simulate_summary_with_wrong_energy_is_counted_as_failed(tmp_path):
    wl = workloads.make("replay", smoke=True)
    wl.prepare(2, workloads.load_inputs(wl.fixtures, 2), tmp_path)
    op = wl.run(0)
    j = next(i for i, c in enumerate(wl.calls) if c[0] == "simulate")
    path = wl.calls[j][3] / "simulate_summary.json"
    doc = json.loads(path.read_text())
    doc["energy_J"] *= 1 + 1e-6
    path.write_text(json.dumps(doc))
    wl.check(op)
    assert list(op.failures) == [j]
    assert "evaluate_objectives" in op.failures[j][0]


def test_baseline_check_compares_with_edf_schedule(tmp_path):
    wl = workloads.make("replay", smoke=True)
    wl.prepare(2, workloads.load_inputs(wl.fixtures, 2), tmp_path)
    wl.check(wl.run(0))
    kind, _, _, out, expected = next(c for c in wl.calls if c[0] == "baseline")
    summary = json.loads((out / "baseline_summary.json").read_text())
    assert workloads.check_baseline(summary, expected) == []
    summary["control_aborts"] += 1
    assert "control_aborts" in workloads.check_baseline(summary, expected)[0]


def _layer_attributes():
    snap = {}
    for layer in tracing.LAYERS:
        found = tracing._resolve(layer)
        assert found is not None, layer
        owner, attr = found
        snap[(id(owner), attr)] = (owner, owner.__dict__.get(attr))
    return snap


def test_tracer_restores_every_attribute_and_accounts_for_wall_time(tmp_path):
    wl = _search(tmp_path)
    before = _layer_attributes()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("op") as root:
        wl.run(0)
    after = _layer_attributes()
    assert {k: v[1] for k, v in before.items()} == {k: v[1] for k, v in after.items()}
    assert all(v[1] is not None for v in after.values())
    part = tracer.breakdown(root)
    assert part["accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    assert part["layers"]["nsga.evolve"]["calls"] == 1
    assert part["layers"]["sim.evaluate_objectives"]["calls"] >= 1


def test_tracer_restores_on_error_and_reports_absent_layers():
    from greensched import nsga

    original = nsga.decode
    layers = tracing.LAYERS + (tracing.Layer("nsga", "no_such_function", "nsga.gone"),)
    tracer = tracing.Tracer(layers)
    assert tracer.absent == ["nsga.gone"]
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert nsga.decode is not original
            raise RuntimeError("boom")
    assert nsga.decode is original
    assert not hasattr(nsga, "no_such_function")


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run(tmp_path, "replay", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
