"""The three benchmark workloads, their inputs and their correctness checks.

Every workload is closed-loop with one client in one process: the next
operation starts only after the previous one returned.

* ``search-var-intel``: ``nsga.evolve`` on the 6-host Intel scenario, policy
  VAR.  Modes are free, so the fitness cache hits least and evaluation
  (``sim.evaluate_objectives`` and the FIFO scan) carries most of the time.
* ``search-min-amd``: ``nsga.evolve`` on the 3-host AMD scenario, policy MIN.
  Modes are frozen and the search converges early, so most fitness calls hit
  the cache and ranking, crowding and the archive carry the time.
* ``replay``: in-process ``greensched simulate`` over seeded allocations and
  ``greensched baseline``, alternating the two scenarios.  No ranking, no
  archive, no fitness cache: it exercises ``sim.evaluate_allocation``'s
  per-job path, the constraint report, the EDF event loop and the CLI
  writers.

One operation is one ``evolve`` at its generation cap (100 generations on
Intel, 200 on AMD, population 100) or one replay round (per scenario: four
``simulate`` calls and one ``baseline``).  The feasible-stop window is off in
both searches (``stop_window`` equals the cap), so every ``evolve`` runs
exactly to its cap.  How long a search takes depends on its trace and
optimizer seed, so each operation of a run draws both afresh from the run
seed and the run reports the median.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from greensched import cli, nsga, scenario, sim, workload

ENERGY_RTOL = 1e-9


def fixture_path(name: str) -> Path:
    return Path(str(scenario.FIXTURES / f"scenario_{name}.json"))


def op_seed(seed: int, i: int) -> int:
    """Seed of the job trace and the search of a run's i-th ``evolve``.

    Op 0 uses the run seed for both, as ``greensched optimize --seed`` does.
    Later ops draw a fresh trace and search path, so a run's median spans
    several inputs: how long a search runs to its cap depends on both.
    """
    return seed + 100_003 * i


def load_inputs(fixtures: tuple[str, ...], seed: int) -> dict:
    """The program's inputs for one seed: scenario and job trace per fixture."""
    inputs = {}
    for name in fixtures:
        scn = scenario.load_scenario(fixture_path(name), seed=seed)
        trace = workload.generate_jobs(
            scn.profiles, scn.optimizer.seed, scn.phase_policy
        )
        inputs[name] = (scn, trace)
    return inputs


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= ENERGY_RTOL * max(abs(a), abs(b))


def _dominates(a: tuple[int, float], b: tuple[int, float]) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a != b


@dataclass
class OpResult:
    """One operation: its wall time, its steps and what it returned."""

    wall_s: float
    steps_s: list[float]
    step_kinds: list[str]
    output: object
    digest: str = ""
    failures: dict[int, list[str]] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


# --- search --------------------------------------------------------------


def front_digest(res) -> str:
    h = hashlib.sha256()
    for p in res.front:
        h.update(
            f"{p.objectives.lam},{p.energy_j!r},{p.energy_units!r},"
            f"{p.allocation.dvfs},{p.allocation.shares}\n".encode()
        )
    for gen, lam, energy in res.convergence:
        h.update(f"{gen},{lam},{energy!r}\n".encode())
    return h.hexdigest()


def check_front(res, scn, trace, cfg) -> list[str]:
    """Failures of one ``evolve`` result; an empty list means it passed.

    Each front point, re-evaluated through the full per-job path, must give
    its lambda exactly and its energy to ``ENERGY_RTOL``; the front must be
    mutually non-dominated; the run must have reached the generation cap.
    """
    failures = []
    if res.generations_run != cfg.generations or len(res.convergence) != cfg.generations:
        failures.append(
            f"ran {res.generations_run} generations "
            f"({len(res.convergence)} recorded), cap is {cfg.generations}"
        )
    if not res.front:
        failures.append("empty front")
    objs = [(p.objectives.lam, p.objectives.scaled_energy_j) for p in res.front]
    for i, a in enumerate(objs):
        if any(_dominates(b, a) for b in objs[:i] + objs[i + 1 :]):
            failures.append(f"front point {i} {a} is dominated")
    for i, p in enumerate(res.front):
        full = sim.evaluate_allocation(
            list(scn.cluster),
            list(scn.profiles),
            trace,
            p.allocation,
            soft_constraints=scn.soft_constraints,
            hard_miss_weight=cfg.hard_miss_weight,
            dyn_energy_form=cfg.dyn_energy_form,
            energy_unit_j=cfg.energy_unit_j,
        )
        if full.lam != p.objectives.lam or not _rel_close(full.energy_j, p.energy_j):
            failures.append(
                f"front point {i}: reported (lambda={p.objectives.lam}, "
                f"energy={p.energy_j!r}), re-evaluated (lambda={full.lam}, "
                f"energy={full.energy_j!r})"
            )
    return failures


@dataclass
class Search:
    name: str
    fixture: str
    policy: str
    generations: int
    population: int = 100

    @property
    def fixtures(self) -> tuple[str, ...]:
        return (self.fixture,)

    step_name = "gen_ms"
    op_name = "optimize_s"

    def prepare(self, seed: int, inputs: dict, workdir: Path) -> None:
        self.seed = seed
        self.scn, self.trace0 = inputs[self.fixture]

    def run(self, i: int) -> OpResult:
        seed = op_seed(self.seed, i)
        cfg = dataclasses.replace(
            self.scn.optimizer,
            policy=self.policy,
            population=self.population,
            generations=self.generations,
            stop_window=self.generations,
            seed=seed,
        )
        trace = self.trace0 if i == 0 else workload.generate_jobs(
            self.scn.profiles, seed, self.scn.phase_policy
        )
        stamps: list[float] = []
        t0 = perf_counter()
        try:
            res = nsga.evolve(
                list(self.scn.cluster),
                list(self.scn.profiles),
                trace,
                cfg,
                soft_constraints=self.scn.soft_constraints,
                progress=lambda gen, lam, energy: stamps.append(perf_counter()),
            )
        except Exception as exc:  # a crashing search is one failed operation
            failures = {0: [f"evolve raised {exc!r}"]}
            return OpResult(perf_counter() - t0, [], [], None, failures=failures)
        wall = perf_counter() - t0
        steps = np.diff([t0] + stamps).tolist()
        return OpResult(wall, steps, ["generation"] * len(steps), (res, cfg, trace))

    def check(self, op: OpResult) -> None:
        if op.output is None:
            op.counters = {"result_energy_j": 0.0}
            return
        res, cfg, trace = op.output
        op.digest = front_digest(res)
        failures = check_front(res, self.scn, trace, cfg)
        if failures:
            op.failures[0] = failures
        best = min(
            ((p.objectives.lam, p.energy_j) for p in res.front), default=(-1, 0.0)
        )
        op.counters = {
            "op_seed": cfg.seed,
            "generations_run": res.generations_run,
            "fitness_calls": cfg.population * (res.generations_run + 1),
            "front_size": len(res.front),
            "best_lambda": best[0],
            "best_energy_j": best[1],
            "result_energy_j": best[1],
        }
        op.output = None

    def units(self, op: OpResult) -> int:
        return 1


# --- replay --------------------------------------------------------------


def random_allocations(scn, seed: int, salt: int, k: int) -> list:
    """``k`` allocations from uniform in-bounds genes, through ``nsga.decode``."""
    ordered = sorted(scn.profiles, key=lambda p: p.task_id)
    cfg = dataclasses.replace(scn.optimizer, policy="VAR")
    bounds = nsga.gene_bounds(ordered, scn.cluster, cfg)
    m = len(scn.cluster)
    scale = np.ones_like(bounds.low)
    scale[m:] = cfg.share_step
    rng = np.random.default_rng([seed, salt])
    return [
        nsga.decode(rng.integers(bounds.low, bounds.high + 1) * scale, ordered, scn.cluster)
        for _ in range(k)
    ]


def _read_outputs(out: Path, stem: str) -> tuple[dict, str]:
    summary_bytes = (out / f"{stem}_summary.json").read_bytes()
    jobs_bytes = (out / f"{stem}_jobs.csv").read_bytes()
    digest = hashlib.sha256(jobs_bytes + b"\0" + summary_bytes).hexdigest()
    return json.loads(summary_bytes), digest


def check_simulate(summary: dict, expected: tuple[int, float, float]) -> list[str]:
    """``simulate`` must agree with ``evaluate_objectives`` on the allocation."""
    lam, energy_j, _ = expected
    if summary["lambda"] != lam or not _rel_close(summary["energy_J"], energy_j):
        return [
            f"simulate (lambda={summary['lambda']}, energy={summary['energy_J']!r}) "
            f"!= evaluate_objectives (lambda={lam}, energy={energy_j!r})"
        ]
    return []


def check_baseline(summary: dict, expected) -> list[str]:
    """``baseline`` must equal a direct ``edf_schedule`` call field for field."""
    want = {
        "lambda": expected.lam,
        "energy_J": expected.energy_j,
        "energy_units": expected.energy_units,
        "hard_misses": expected.hard_misses,
        "control_aborts": expected.control_aborts,
        "soft_violations": expected.soft_violations,
        "per_server_energy_J": [
            [s.dynamic_energy_j, s.leakage_energy_j] for s in expected.per_server
        ],
    }
    got = {k: summary.get(k) for k in want if k != "per_server_energy_J"}
    got["per_server_energy_J"] = [
        [s["dynamic_energy_J"], s["leakage_energy_J"]]
        for s in summary.get("per_server", [])
    ]
    bad = sorted(k for k in want if got[k] != want[k])
    return [f"baseline differs from edf_schedule in {', '.join(bad)}"] if bad else []


@dataclass
class Replay:
    name: str = "replay"
    allocations: int = 4
    fixtures: tuple[str, ...] = ("intel", "amd")

    step_name = "call_ms"
    op_name = "round_s"

    def prepare(self, seed: int, inputs: dict, workdir: Path) -> None:
        """Write the allocation files and compute the expected answers."""
        self.calls = []  # (kind, fixture, argv, out_dir, expected)
        for salt, name in enumerate(self.fixtures):
            scn, trace = inputs[name]
            args = (list(scn.cluster), list(scn.profiles), trace)
            for k, alloc in enumerate(random_allocations(scn, seed, salt, self.allocations)):
                path = workdir / f"alloc-{name}-{k}.json"
                path.write_text(
                    json.dumps({"dvfs": list(alloc.dvfs), "shares": [list(r) for r in alloc.shares]}),
                    encoding="utf-8",
                )
                expected = sim.evaluate_objectives(
                    *args,
                    alloc,
                    soft_constraints=scn.soft_constraints,
                    dyn_energy_form=scn.dyn_energy_form,
                    energy_unit_j=scn.energy_unit_j,
                )
                out = workdir / f"out-{name}-{k}"
                argv = ["simulate", "--scenario", str(fixture_path(name)),
                        "--allocation", str(path), "--seed", str(seed), "--out", str(out)]
                self.calls.append(("simulate", name, argv, out, expected))
            expected = sim.edf_schedule(
                *args,
                dvfs_policy="max",
                soft_constraints=scn.soft_constraints,
                energy_unit_j=scn.energy_unit_j,
            )
            out = workdir / f"out-{name}-baseline"
            argv = ["baseline", "--scenario", str(fixture_path(name)),
                    "--seed", str(seed), "--out", str(out)]
            self.calls.append(("baseline", name, argv, out, expected))
        self.first_digests: list[str] | None = None

    def run(self, i: int) -> OpResult:
        steps, codes = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for _, _, argv, _, _ in self.calls:
                t0 = perf_counter()
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:  # counted as a failed call
                    code = repr(exc)
                steps.append(perf_counter() - t0)
                codes.append(code)
        return OpResult(sum(steps), steps, [c[0] for c in self.calls], codes)

    def check(self, op: OpResult) -> None:
        digests = []
        baseline_energy = 0.0
        for j, ((kind, name, _, out, expected), code) in enumerate(zip(self.calls, op.output)):
            if code != 0:
                op.failures[j] = [f"{kind} {name} returned {code}"]
                digests.append("")
                continue
            check = check_simulate if kind == "simulate" else check_baseline
            try:
                summary, digest = _read_outputs(out, kind)
                failures = check(summary, expected)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op.failures[j] = [f"{kind} {name}: unreadable output: {exc!r}"]
                digests.append("")
                continue
            digests.append(digest)
            if kind == "baseline":
                baseline_energy += summary["energy_J"]
            if self.first_digests is not None and digest != self.first_digests[j]:
                failures.append(f"{kind} {name}: output differs from the first round")
            if failures:
                op.failures[j] = failures
        if self.first_digests is None:
            self.first_digests = digests
        op.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        op.counters = {
            "simulate_calls": sum(1 for c in self.calls if c[0] == "simulate"),
            "baseline_calls": sum(1 for c in self.calls if c[0] == "baseline"),
            "call_digests": digests,
            "result_energy_j": baseline_energy,
        }
        op.output = None

    def units(self, op: OpResult) -> int:
        return len(self.calls)


def make(name: str, smoke: bool = False):
    """The named workload; ``smoke`` shrinks it to run in well under a second."""
    if name == "search-var-intel":
        return Search(name, "intel", "VAR", 5 if smoke else 100, 10 if smoke else 100)
    if name == "search-min-amd":
        return Search(name, "amd", "MIN", 5 if smoke else 200, 10 if smoke else 100)
    if name == "replay":
        return Replay(allocations=1 if smoke else 4)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search-var-intel", "search-min-amd", "replay")
