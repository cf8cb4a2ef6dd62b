"""Scenario configuration: cluster files, workload, thermal state, optimizer knobs.

Scenario and server files are JSON; paths inside a scenario resolve first
relative to the scenario file, then against the bundled ``fixtures``
directory, so ``"intel_xeon_e5620.json"`` works out of the box.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

from . import power as pw
from . import sim
from .errors import ConfigurationError, InvalidArgumentError, ModelDomainError
from .inputs import Field, read_json
from .nsga import EvolveConfig
from .tasks import LatenessConstraint
from .workload import PHASE_POLICIES, TaskProfile, parse_workload

FIXTURES = resources.files("greensched") / "fixtures"


def _resolve(ref: Field, base: Path) -> Path:
    """A file named in a scenario: beside the scenario first, then a bundled fixture."""
    name = ref.string()
    for candidate in (base / name, Path(str(FIXTURES / name))):
        if candidate.is_file():
            return candidate
    raise ref.error(f"cannot resolve referenced file {name!r}")


def load_server_spec(path: str | Path) -> pw.ServerSpec:
    """Read a server file: power-model constants, per-socket terms and modes."""
    doc = read_json(path)
    fields = {name: doc.get(name).number() for name in ("a_dyn", "d_volt", "e_const")}
    fields |= {name: doc.get(name).numbers() for name in ("b_cpu", "c_cpu", "g_mem", "h_mem")}
    f_unused = doc.get("f_unused", None)
    fields.update(
        server_id=doc.get("server_id", 0).integer(),
        label=doc.get("label").string(),
        cpi=doc.get("cpi", 1.0).number(),
        n_sockets=doc.get("n_sockets", 1).integer(),
        f_unused=None if f_unused.value is None else f_unused.number(),
    )
    modes = [
        (i.integer(), f.number(), v.number())
        for i, f, v in (row.items(3) for row in doc.get("modes").items())
    ]
    try:
        return pw.ServerSpec(**fields, modes=tuple(pw.DvfsMode(*m) for m in modes))
    except InvalidArgumentError as exc:  # the spec's own range and cross-field checks
        raise ConfigurationError(f"{doc.path}: invalid server spec: {exc}") from exc


def save_server_spec(spec: pw.ServerSpec, path: str | Path) -> None:
    doc = asdict(spec)  # the fields load_server_spec reads, in ServerSpec's order
    doc["modes"] = [[m.index, m.frequency_hz, m.voltage_v] for m in spec.modes]
    if spec.f_unused is None:
        del doc["f_unused"]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _thermal(doc: Field, n_sockets: int) -> pw.ThermalState:
    """One CPU temperature per socket (or one for all sockets), one memory temperature."""
    t_cpu = doc.get("t_cpu_k", [300.0])
    temps = t_cpu.numbers() if isinstance(t_cpu.value, list) else (t_cpu.number(),)
    if len(temps) not in (1, n_sockets):
        raise t_cpu.error(f"has {len(temps)} CPU temperatures, server has {n_sockets} sockets")
    t_mem = doc.get("t_mem_k", 300.0).number()
    try:
        return pw.ThermalState(temps * n_sockets if len(temps) == 1 else temps, t_mem)
    except ModelDomainError as exc:
        raise doc.error(str(exc)) from exc


@dataclass(frozen=True)
class Scenario:
    cluster: tuple[sim.ClusterHost, ...]
    profiles: tuple[TaskProfile, ...]
    soft_constraints: dict[int, tuple[LatenessConstraint, ...]]
    optimizer: EvolveConfig
    phase_policy: str
    energy_unit_j: float
    dyn_energy_form: str
    digest: str  # sha256 of the canonical scenario document


def load_scenario(
    path: str | Path,
    *,
    seed: int | None = None,
    policy: str | None = None,
    generations: int | None = None,
    population: int | None = None,
    max_mode_index: int | None = None,
) -> Scenario:
    """Load a scenario JSON; keyword overrides mirror the CLI flags."""
    path = Path(path)
    doc = read_json(path)

    hosts: list[sim.ClusterHost] = []
    thermal_default = doc.get("thermal", {})
    for entry in doc.get("cluster", []).items():
        spec = load_server_spec(_resolve(entry.get("server"), path.parent))
        count = entry.get("count", 1)
        if count.integer() < 1:
            raise count.error(f"must be >= 1, got {count.value}")
        thermal = _thermal(entry.get("thermal", thermal_default), spec.n_sockets)
        for _ in range(count.value):
            hosts.append(sim.ClusterHost(replace(spec, server_id=len(hosts)), thermal))
    if not hosts:
        raise ConfigurationError(f"{path}: scenario defines no cluster hosts")

    workload_path = _resolve(doc.get("workload"), path.parent)
    profiles = tuple(parse_workload(workload_path))

    soft_constraints: dict[int, tuple[LatenessConstraint, ...]] = {}
    kind_of = {p.task_id: p.kind for p in profiles}
    for key, pairs in doc.get("soft_constraints", {}).object().items():
        try:
            task_id = int(key)
        except ValueError:
            raise pairs.error("expected an integer task id") from None
        if task_id not in kind_of:
            raise pairs.error(f"task {task_id} is not in the workload {workload_path}")
        if kind_of[task_id] != "SOFT":
            raise pairs.error(
                f"task {task_id} is {kind_of[task_id]}, not SOFT, in the workload {workload_path}"
            )
        bounds = [pair.numbers(2) for pair in pairs.items()]
        if not bounds:
            raise pairs.error("expected at least one [x, beta] pair")
        try:
            soft_constraints[task_id] = tuple(LatenessConstraint(x, b) for x, b in bounds)
        except InvalidArgumentError as exc:
            raise pairs.error(str(exc)) from exc

    opt = doc.get("optimizer", {})
    if seed is None:
        seed_field = opt.get("seed", None)
        if seed_field.value is None:
            raise seed_field.error("no seed given (set it here or pass --seed)")
        seed = seed_field.integer()
    if max_mode_index is None:
        limit = opt.get("max_mode_index", None)
        max_mode_index = None if limit.value is None else limit.integer()
    if population is None:
        population = opt.get("population", 100).integer()
    if generations is None:
        generations = opt.get("generations", 25_000).integer()
    if policy is None:
        policy = opt.get("policy", doc.get("policy", "VAR")).string()
    stop_window = opt.get("stop_window", 500)
    if stop_window.integer() < 1:
        raise stop_window.error(f"must be >= 1, got {stop_window.value}")
    phase = doc.get("phase_policy", "zero")
    if phase.string() not in PHASE_POLICIES:
        raise phase.error(f"{phase.value!r} is not one of {PHASE_POLICIES}")
    fields = dict(
        population=population,
        generations=generations,
        seed=seed,
        policy=policy.upper(),
        stop_window=stop_window.value,
        share_step=opt.get("share_step", 1).integer(),
        max_mode_index=max_mode_index,
        dyn_energy_form=doc.get("dyn_energy_form", "as-written").string(),
        energy_unit_j=doc.get("energy_unit_j", sim.ENERGY_UNIT_J).number(),
    )
    try:
        optimizer = EvolveConfig(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    canonical = dict(doc.value)
    canonical["__overrides__"] = {
        "seed": optimizer.seed,
        "policy": optimizer.policy,
        "generations": optimizer.generations,
        "population": optimizer.population,
        "max_mode_index": optimizer.max_mode_index,
    }
    digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]

    return Scenario(
        cluster=tuple(hosts),
        profiles=profiles,
        soft_constraints=soft_constraints,
        optimizer=optimizer,
        phase_policy=phase.value,
        energy_unit_j=optimizer.energy_unit_j,
        dyn_energy_form=optimizer.dyn_energy_form,
        digest=digest,
    )
