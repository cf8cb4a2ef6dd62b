"""Command-line front end.

Subcommands::

    greensched fit       --telemetry t.csv --server spec.json --out dir [--split 0.65]
    greensched generate  --scenario s.json [--seed N] --out dir
    greensched optimize  --scenario s.json [--seed N --policy var ...] --out dir
    greensched simulate  --scenario s.json --allocation a.json [--seed N] --out dir
    greensched baseline  --scenario s.json [--seed N] --out dir

All outputs are CSV/JSON with LF endings; every file carries the scenario
digest and seed in a leading comment so runs are auditable and reproducible.

Exit codes: 0 success, 2 configuration/parse error (a malformed input file;
the message names the file and the field or row), 3 model domain error,
4 allocation/dimension error.  Exit 1, a traceback, is a bug in greensched.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import repeat
from pathlib import Path

from . import power as pw
from . import sim
from .errors import (
    ConfigurationError,
    GreenschedError,
    InvalidAllocationError,
    ModelDomainError,
    ParseError,
)
from .inputs import read_json, read_table
from .nsga import evolve
from .scenario import Scenario, load_scenario, load_server_spec, save_server_spec
from .workload import JobTrace, generate_jobs, parse_trace, serialize_trace


TELEMETRY_COLUMNS = dict(
    utilization=float, t_cpu_k=float, t_mem_k=float, mode_index=int, power_w=float
)


_FLAG = {False: "0", True: "1"}
_ROWS_PER_WRITE = 64  # rows joined per write: a larger block holds more strings at once


def _header(scenario: Scenario) -> str:
    return f"# scenario_digest={scenario.digest} seed={scenario.optimizer.seed}\n"


def _write_evaluation(
    out: Path, scenario: Scenario, res: sim.EvaluationResult, stem: str
) -> None:
    jobs_path = out / f"{stem}_jobs.csv"
    with jobs_path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(_header(scenario))
        fh.write(
            "task_id,job_index,server_set,start_s,completion_s,overrun_s,missed,aborted\n"
        )
        server_set_of = {
            tid: "|".join(str(s) for s in srvs) for tid, srvs in res.task_servers
        }
        # A block of rows at a time: each column's strings in one pass, put
        # in place by slice assignment between the separators.
        row = [","] * 16  # 8 fields, each followed by its separator
        row[-1] = "\n"
        for lo in range(0, len(res.task_id), _ROWS_PER_WRITE):
            block = slice(lo, lo + _ROWS_PER_WRITE)
            task_id = res.task_id[block]
            parts = row * len(task_id)
            parts[0::16] = map(str, task_id)
            parts[2::16] = map(str, res.job_index[block])
            parts[4::16] = map(server_set_of.get, task_id, repeat(""))
            parts[6::16] = map(repr, res.start_s[block])
            parts[8::16] = map(repr, res.completion_s[block])
            parts[10::16] = map(repr, res.overrun_s[block])
            parts[12::16] = map(_FLAG.__getitem__, res.missed[block])
            parts[14::16] = map(_FLAG.__getitem__, res.aborted[block])
            fh.write("".join(parts))
    summary = {
        "lambda": res.lam,
        "energy_J": res.energy_j,
        "energy_units": res.energy_units,
        "hard_misses": res.hard_misses,
        "control_aborts": res.control_aborts,
        "soft_violations": res.soft_violations,
        "constraints": [
            {"task_id": c.task_id, "check": c.description, "passed": c.passed}
            for c in res.constraint_report
        ],
        "per_server": [
            {
                "server_id": s.server_id,
                "mode_index": s.mode_index,
                "busy_time_s": s.busy_time_s,
                "utilization_sum": s.utilization_sum,
                "executed_instructions": s.executed_instructions,
                "dynamic_energy_J": s.dynamic_energy_j,
                "leakage_energy_J": s.leakage_energy_j,
            }
            for s in res.per_server
        ],
        "scenario_digest": scenario.digest,
        "seed": scenario.optimizer.seed,
    }
    (out / f"{stem}_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )


def _trace_for(scenario: Scenario):
    return generate_jobs(
        scenario.profiles, scenario.optimizer.seed, scenario.phase_policy
    )


def cmd_fit(args: argparse.Namespace) -> int:
    template = load_server_spec(args.server)
    samples = []
    for line, values in read_table(args.telemetry, TELEMETRY_COLUMNS):
        try:
            samples.append(pw.TelemetrySample(*values))
            template.mode(samples[-1].mode_index)
        except GreenschedError as exc:
            raise ParseError(args.telemetry, str(exc), line) from exc
    result = pw.fit_constants(samples, template, split=args.split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_server_spec(result.spec, out / "fitted_server.json")
    report = {
        "validation_mape_pct": result.validation_error_pct,
        "n_fit": result.n_fit,
        "n_validate": result.n_validate,
        "split": args.split,
    }
    (out / "fit_report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"validation MAPE: {result.validation_error_pct:.4f}%")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    trace = _trace_for(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize_trace(trace, out / "trace.csv")
    print(f"wrote {len(trace.task_id)} jobs to {out / 'trace.csv'}")
    return 0


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    return load_scenario(
        args.scenario,
        seed=args.seed,
        policy=args.policy,
        generations=args.generations,
        population=args.population,
        max_mode_index=args.max_mode_index,
    )


def cmd_optimize(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    trace = _trace_for(scenario)
    result = evolve(
        list(scenario.cluster),
        list(scenario.profiles),
        trace,
        scenario.optimizer,
        soft_constraints=scenario.soft_constraints,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with (out / "front.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write(_header(scenario))
        fh.write("lambda,energy_J,energy_units,dvfs_modes,shares_flat\n")
        for p in result.front:
            modes = "|".join(str(k) for k in p.allocation.dvfs)
            shares = "|".join(
                str(s) for row in p.allocation.shares for s in row
            )
            fh.write(
                f"{p.objectives.lam},{p.energy_j!r},{p.energy_units!r},{modes},{shares}\n"
            )

    with (out / "convergence.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write(_header(scenario))
        fh.write("generation,best_lambda,best_energy_J\n")
        for gen, lam, energy in result.convergence:
            fh.write(f"{gen},{lam},{energy!r}\n")

    best = min(result.front, key=lambda p: (p.objectives.lam, p.energy_j))
    alloc_doc = {
        "dvfs": list(best.allocation.dvfs),
        "shares": [list(r) for r in best.allocation.shares],
        "lambda": best.objectives.lam,
        "energy_J": best.energy_j,
        "scenario_digest": scenario.digest,
        "seed": scenario.optimizer.seed,
    }
    (out / "best_allocation.json").write_text(
        json.dumps(alloc_doc, indent=2) + "\n", encoding="utf-8"
    )

    with (out / "best_modes.txt").open("w", encoding="utf-8") as fh:
        fh.write(_header(scenario))
        fh.write(
            "Platform " + " ".join(f"CPU {i + 1}" for i in range(len(best.allocation.dvfs))) + "\n"
        )
        label = scenario.cluster[0].spec.label
        fh.write(label + " " + " ".join(str(k) for k in best.allocation.dvfs) + "\n")

    print(
        f"front: {len(result.front)} points, best lambda={best.objectives.lam}, "
        f"energy={best.energy_j:.1f} J, generations={result.generations_run}"
    )
    return 0


def _load_allocation(path: str) -> sim.Allocation:
    """Read ``{"dvfs": [int, ...], "shares": [[int, ...], ...]}``."""
    doc = read_json(path)
    rows = [row.items() for row in doc.get("shares").items()]
    return sim.Allocation(
        dvfs=tuple(mode.integer() for mode in doc.get("dvfs").items()),
        shares=tuple(tuple(share.integer() for share in row) for row in rows),
    )


def _parse_trace_of(path: str, scenario: Scenario) -> JobTrace:
    """The trace at ``path``, whose jobs must cover exactly the scenario's tasks."""
    trace = parse_trace(path)
    declared = {p.task_id for p in scenario.profiles}
    listed = set(trace.task_id.tolist())
    if listed - declared:
        raise ParseError(path, f"jobs of task(s) {sorted(listed - declared)} "
                               "that the scenario does not declare")
    if declared - listed:
        raise ParseError(path, f"no jobs of task(s) {sorted(declared - listed)}")
    return trace


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    alloc = _load_allocation(args.allocation)
    trace = (
        _parse_trace_of(args.trace, scenario) if args.trace else _trace_for(scenario)
    )
    res = sim.evaluate_allocation(
        list(scenario.cluster),
        list(scenario.profiles),
        trace,
        alloc,
        soft_constraints=scenario.soft_constraints,
        dyn_energy_form=scenario.dyn_energy_form,
        energy_unit_j=scenario.energy_unit_j,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_evaluation(out, scenario, res, "simulate")
    print(f"lambda={res.lam}, energy={res.energy_j:.1f} J")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    trace = _trace_for(scenario)
    res = sim.edf_schedule(
        list(scenario.cluster),
        list(scenario.profiles),
        trace,
        dvfs_policy="max",
        soft_constraints=scenario.soft_constraints,
        dyn_energy_form=scenario.dyn_energy_form,
        energy_unit_j=scenario.energy_unit_j,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_evaluation(out, scenario, res, "baseline")
    print(f"EDF baseline: lambda={res.lam}, energy={res.energy_j:.1f} J")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greensched",
        description="DVFS mode and workload-allocation optimizer for mixed real-time clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scenario: bool = True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="calibrate power-model constants from telemetry")
    p_fit.add_argument("--telemetry", required=True, help="telemetry CSV")
    p_fit.add_argument("--server", required=True, help="server spec template JSON")
    p_fit.add_argument("--split", type=float, default=0.65, help="fitting fraction")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_gen = sub.add_parser("generate", help="expand the workload into a job trace")
    common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_opt = sub.add_parser("optimize", help="run the evolutionary optimizer")
    common(p_opt)
    p_opt.add_argument("--policy", choices=["min", "max", "var"], default=None)
    p_opt.add_argument("--generations", type=int, default=None)
    p_opt.add_argument("--population", type=int, default=None)
    p_opt.add_argument("--max-mode-index", type=int, default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="replay a saved allocation")
    common(p_sim)
    p_sim.add_argument("--allocation", required=True, help="allocation JSON")
    p_sim.add_argument("--trace", default=None, help="replay a serialized trace CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_base = sub.add_parser("baseline", help="run the EDF baseline at max DVFS mode")
    common(p_base)
    p_base.set_defaults(func=cmd_baseline)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on first use, and ``parse_args`` keeps no state."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidAllocationError, GreenschedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
