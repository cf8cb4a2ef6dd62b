"""Run one workload for a fixed time and print its metrics.

Untraced (``--trace 0``) runs give the end-to-end metrics; traced
(``--trace 1``) runs give the per-layer metrics and the tracing overhead.
The last line of standard output is the result object; the line before it
is a detail object with the workload's own metric names, sample counts,
deterministic counters, output digests, failures and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import stats, workloads
from .tracing import Tracer

SETUP_PROBES = 5

#: Time from ``import greensched`` to a generated trace for every scenario a
#: workload uses, measured inside a fresh interpreter so it is the first time
#: in that process.
SETUP_PROBE = r"""
import sys
from time import perf_counter
t0 = perf_counter()
import greensched
from greensched import scenario, workload
for path in sys.argv[3:]:
    s = scenario.load_scenario(path, seed=int(sys.argv[2]))
    workload.generate_jobs(s.profiles, s.optimizer.seed, s.phase_policy)
t1 = perf_counter()
if not greensched.__file__.startswith(sys.argv[1]):
    sys.exit("greensched imported from " + greensched.__file__)
print(repr(t1 - t0))
"""

#: ROADMAP Baseline figures, for the reconcile block.
ROADMAP = {
    "sim.evaluate_objectives ms/call": (1.1, 1.3),
    "sim.evaluate_allocation ms/call": (5.0, 8.0),
    "sim.edf_schedule ms/call": (9.0, 11.0),
    "search-var-intel ms/generation (mean)": (47.0, 47.0),
}

# (metric, unit, layer, field); field is one of calls, ms, self_ms, work, work_max
LAYER_METRICS = (
    ("nsga.nondominated_sort.calls", "count", "nsga.nondominated_sort", "calls"),
    ("nsga.nondominated_sort.ms", "ms", "nsga.nondominated_sort", "ms"),
    ("nsga.crowding_distance.ms", "ms", "nsga.crowding_distance", "ms"),
    ("nsga.environmental_selection.self_ms", "ms", "nsga.environmental_selection", "self_ms"),
    ("nsga.decode.calls", "count", "nsga.decode", "calls"),
    ("nsga.decode.ms", "ms", "nsga.decode", "ms"),
    ("nsga.archive_offer.calls", "count", "nsga.archive_offer", "calls"),
    ("nsga.archive_offer.ms", "ms", "nsga.archive_offer", "ms"),
    ("nsga.archive.max_size", "count", "nsga.archive_offer", "work_max"),
    ("nsga.front_point.ms", "ms", "nsga.front_point", "ms"),
    ("nsga.variation.ms", "ms", "nsga.variation", "ms"),
    ("nsga.evolve.self_ms", "ms", "nsga.evolve", "self_ms"),
    ("sim.evaluate_objectives.calls", "count", "sim.evaluate_objectives", "calls"),
    ("sim.evaluate_objectives.self_ms", "ms", "sim.evaluate_objectives", "self_ms"),
    ("sim.validate_allocation.ms", "ms", "sim.validate_allocation", "ms"),
    ("kernels.scan_jobs.calls", "count", "kernels.scan_jobs", "calls"),
    ("kernels.scan_jobs.ms", "ms", "kernels.scan_jobs", "ms"),
    ("kernels.scan_jobs.jobs", "count", "kernels.scan_jobs", "work"),
    ("sim.evaluate_allocation.calls", "count", "sim.evaluate_allocation", "calls"),
    ("sim.evaluate_allocation.self_ms", "ms", "sim.evaluate_allocation", "self_ms"),
    ("tasks.check_constraints.ms", "ms", "tasks.check_constraints", "ms"),
    ("cli.write_evaluation.ms", "ms", "cli.write_evaluation", "ms"),
    ("cli.write_evaluation.bytes", "bytes", "cli.write_evaluation", "work"),
    ("sim.edf_schedule.calls", "count", "sim.edf_schedule", "calls"),
    ("sim.edf_schedule.ms", "ms", "sim.edf_schedule", "ms"),
    ("sim.edf_host.ms", "ms", "sim.edf_host", "ms"),
    ("power.leakage_energy.calls", "count", "power.leakage_energy", "calls"),
)

#: Layers timed per call (median over every call in the run, set-up included),
#: because the searches call them only during set-up.
PER_CALL_LAYERS = ("scenario.load_scenario", "workload.generate_jobs", "sim.trace_arrays")


def environment(root: Path) -> dict:
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    from greensched import _kernels

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba,
        "scan_backend": "numba" if _kernels.USE_NUMBA else "python",
        "GREENSCHED_NO_NUMBA": os.environ.get("GREENSCHED_NO_NUMBA"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(root: Path, fixtures, seed: int, probes: int) -> list[float]:
    src = str(root / "src")
    paths = [str(workloads.fixture_path(f)) for f in fixtures]
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, src, str(seed), *paths],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_ops(wl, seconds: float, tracer: Tracer | None):
    """Closed loop: run operations until the next one would overrun ``seconds``.

    With a tracer, operations alternate untraced and traced and all repeat
    operation 0, so traced and untraced times are of the same work.
    """
    ops, totals, traced_roots = [], [], []
    t_start = perf_counter()
    min_ops = 2 if tracer is not None else 1
    while True:
        t_op = perf_counter()
        i = len(ops)
        if tracer is not None and i % 2 == 1:
            with tracer.installed(), tracer.root("op") as root:
                op = wl.run(0)
            traced_roots.append(root)
        else:
            op = wl.run(0 if tracer is not None else i)
        wl.check(op)
        ops.append(op)
        totals.append(perf_counter() - t_op)
        elapsed = perf_counter() - t_start
        if len(ops) >= min_ops and elapsed + stats.median(totals) > seconds:
            break
    return ops, traced_roots


def _metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def end_to_end(wl, ops, setup_samples, rss_mb) -> tuple[dict, dict]:
    """Contract metrics (same names on every workload) and the detail names.

    Step latencies (per generation, per CLI call) are reported in the detail
    only: on the searches their median and tail follow how quickly each
    seed's search converges, so they vary across seeds by more than any bound
    a regression gate could use.
    """
    walls = [op.wall_s for op in ops]
    first = ops[0].counters
    result = {
        "setup_s": _metric(stats.median(setup_samples), "s"),
        "op_s": _metric(stats.median(walls), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "result_energy_j": _metric(first["result_energy_j"], "J"),
    }
    attempted = sum(wl.units(op) for op in ops)
    failed = sum(len(op.failures) for op in ops)
    detail = {
        "setup_s": _metric(stats.median(setup_samples), "s", n=len(setup_samples)),
        wl.op_name: _metric(stats.median(walls), "s", n=len(walls)),
        "peak_rss_mb": _metric(rss_mb, "MB", n=1),
        "failed_frac": _metric(failed / attempted, "1", n=attempted),
        "result_energy_j": _metric(first["result_energy_j"], "J", n=1),
        "ops_s": walls,
    }
    if "best_lambda" in first:
        detail["best_energy_j"] = _metric(first["best_energy_j"], "J", n=1)
        detail["best_lambda"] = _metric(first["best_lambda"], "count", n=1)
    kinds = sorted(set(k for op in ops for k in op.step_kinds))
    for kind in kinds:
        name = wl.step_name if len(kinds) == 1 else f"{kind}_ms"
        samples = [s * 1e3 for op in ops for s, k in zip(op.steps_s, op.step_kinds) if k == kind]
        sk = stats.summarize(samples)
        detail[f"{name}.p50"] = _metric(sk["p50"], "ms", n=sk["n"])
        detail[f"{name}.tail"] = _metric(
            sk["tail"], "ms", n=sk["n"], percentile=sk["tail_percentile"]
        )
    return result, detail


def per_layer(ops, tracer: Tracer, traced_roots: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced operations of per-op totals."""
    arrays = tracer.arrays()
    parts = [tracer.breakdown(r, arrays) for r in traced_roots]

    def med(fn):
        return stats.median([fn(p) for p in parts])

    def layer(p, name, fieldname):
        entry = p["layers"].get(name)
        if entry is None:
            return 0.0
        return {
            "calls": entry["calls"],
            "ms": entry["s"] * 1e3,
            "self_ms": entry["self_s"] * 1e3,
            "work": entry["work"],
            "work_max": entry["work_max"],
        }[fieldname]

    metrics = {}
    for name, unit, lname, fieldname in LAYER_METRICS:
        if unit in ("count", "bytes"):
            value = layer(parts[0], lname, fieldname)  # deterministic per op
            metrics[name] = _metric(int(value), unit)
        else:
            metrics[name] = _metric(med(lambda p: layer(p, lname, fieldname)), unit)

    for lname in PER_CALL_LAYERS:
        ids = [i for i, n in enumerate(tracer.names) if n == lname]
        durs = arrays["duration"][np.isin(arrays["name_id"], ids)] * 1e3
        metrics[f"{lname}.ms_per_call"] = _metric(
            float(np.median(durs)) if durs.size else 0.0, "ms"
        )

    # Counters that need the whole operation, not one layer.
    counters = ops[1].counters  # the first traced op
    distinct = metrics["sim.evaluate_objectives.calls"]["value"]
    fitness_calls = counters.get("fitness_calls", 0)
    metrics["nsga.fitness.calls"] = _metric(fitness_calls, "count")
    metrics["nsga.distinct_evals"] = _metric(distinct, "count")
    metrics["nsga.cache_hit_ratio"] = _metric(
        1.0 - distinct / fitness_calls if fitness_calls else 0.0, "1"
    )
    metrics["nsga.generations"] = _metric(counters.get("generations_run", 0), "count")
    metrics["nsga.front_size"] = _metric(counters.get("front_size", 0), "count")

    untraced = [ops[i].wall_s for i in range(0, len(ops), 2)]
    traced = [p["wall_s"] for p in parts]
    metrics["op.untraced_ms"] = _metric(stats.median(untraced) * 1e3, "ms")
    metrics["op.traced_ms"] = _metric(stats.median(traced) * 1e3, "ms")
    metrics["op.self_ms"] = _metric(med(lambda p: p["root_self_s"] * 1e3), "ms")
    metrics["trace.overhead_ms"] = _metric(
        (stats.median(traced) - stats.median(untraced)) * 1e3, "ms"
    )
    metrics["trace.accounted_frac"] = _metric(min(p["accounted_frac"] for p in parts), "1")
    metrics["trace.absent_layers"] = _metric(len(tracer.absent), "count")

    detail = {
        "traced_ops": len(parts),
        "untraced_ops": len(untraced),
        "absent_layers": tracer.absent,
        "cache_hit_ratio_base": {"fitness_calls": fitness_calls, "distinct_evals": distinct},
        "layers_first_traced_op": parts[0]["layers"],
        "reconcile": reconcile_traced(parts),
    }
    return metrics, detail


def _note(measured: float, lo: float, hi: float) -> str:
    if lo <= measured <= hi:
        return "within the ROADMAP range"
    ref = hi if measured > hi else lo
    return f"{'above' if measured > hi else 'below'} the ROADMAP range by {abs(measured / ref - 1) * 100:.0f}%"


def _reconcile_row(key: str, measured: float) -> dict:
    lo, hi = ROADMAP[key]
    return {"quantity": key, "roadmap": [lo, hi], "measured": measured, "note": _note(measured, lo, hi)}


def reconcile_traced(parts) -> list[dict]:
    rows = []
    for lname in ("sim.evaluate_objectives", "sim.evaluate_allocation", "sim.edf_schedule"):
        calls = sum(p["layers"].get(lname, {}).get("calls", 0) for p in parts)
        if calls:
            total = sum(p["layers"][lname]["s"] for p in parts)
            rows.append(_reconcile_row(f"{lname} ms/call", total / calls * 1e3))
    return rows


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny operations and one set-up probe, for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    wl = workloads.make(args.workload, smoke=args.smoke)
    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setup_samples = []
        if tracer is None:
            setup_samples = measure_setup(
                root, wl.fixtures, args.seed, 1 if args.smoke else SETUP_PROBES
            )
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.root("setup"))
            inputs = workloads.load_inputs(wl.fixtures, args.seed)
        wl.prepare(args.seed, inputs, workdir)
        ops, traced_roots = run_ops(wl, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(wl.units(op) for op in ops)
    failed = sum(len(op.failures) for op in ops)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "closed_loop": {"clients": 1, "processes": 1},
        "ops": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failures": [
            f"op {i} unit {u}: {msg}"
            for i, op in enumerate(ops)
            for u, msgs in sorted(op.failures.items())
            for msg in msgs
        ][:20],
        "counters_op0": ops[0].counters,
        "digests": [op.digest for op in ops],
        "environment": environment(root),
    }
    if tracer is None:
        metrics, named = end_to_end(wl, ops, setup_samples, rss_mb)
        detail["metrics"] = named
        if args.workload == "search-var-intel":
            per_gen_ms = metrics["op_s"]["value"] / wl.generations * 1e3
            detail["reconcile"] = [
                _reconcile_row("search-var-intel ms/generation (mean)", per_gen_ms)
            ]
    else:
        metrics, layer_detail = per_layer(ops, tracer, traced_roots)
        detail.update(layer_detail)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = json.dumps(detail, sort_keys=True, default=str)
    (out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        report + "\n", encoding="utf-8"
    )
    print(report)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
