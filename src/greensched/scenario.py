"""Scenario configuration: cluster files, workload, thermal state, optimizer knobs.

Scenario and server files are JSON; paths inside a scenario resolve first
relative to the scenario file, then against the bundled ``fixtures``
directory, so ``"intel_xeon_e5620.json"`` works out of the box.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import power as pw
from . import sim
from .errors import ConfigurationError, InvalidArgumentError
from .nsga import EvolveConfig
from .tasks import LatenessConstraint
from .workload import PHASE_POLICIES, TaskProfile, parse_workload

FIXTURES = resources.files("greensched") / "fixtures"


def _resolve(name: str, base: Path | None) -> Path:
    p = Path(name)
    if p.is_absolute() and p.exists():
        return p
    if base is not None and (base / p).exists():
        return base / p
    fixture = Path(str(FIXTURES / name))
    if fixture.exists():
        return fixture
    raise ConfigurationError(f"cannot resolve referenced file {name!r}")


def _convert(path: Path, field: str, cast, value):
    """``cast(value)``; a bad value is a ConfigurationError naming the file and field."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {field}: {exc}") from exc


def _section(path: Path, field: str, value) -> dict:
    """``value`` if it is a JSON object, else a ConfigurationError naming the field."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"{path}: {field}: expected a JSON object, got a {type(value).__name__}"
        )
    return value


def load_server_spec(path: str | Path, server_id: int | None = None) -> pw.ServerSpec:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        doc = _section(path, "top level", json.load(fh))

    def field(name: str, cast, default=None):
        if name not in doc and default is None:
            raise ConfigurationError(f"{path}: missing field {name!r}")
        return _convert(path, name, cast, doc.get(name, default))

    def floats(values) -> tuple[float, ...]:
        return tuple(float(x) for x in values)

    def modes(rows) -> tuple[pw.DvfsMode, ...]:
        return tuple(pw.DvfsMode(int(i), float(f), float(v)) for i, f, v in rows)

    try:
        return pw.ServerSpec(
            server_id=server_id if server_id is not None else field("server_id", int),
            label=field("label", str),
            a_dyn=field("a_dyn", float),
            b_cpu=field("b_cpu", floats),
            c_cpu=field("c_cpu", floats),
            d_volt=field("d_volt", float),
            e_const=field("e_const", float),
            g_mem=field("g_mem", floats),
            h_mem=field("h_mem", floats),
            modes=field("modes", modes),
            cpi=field("cpi", float, 1.0),
            n_sockets=field("n_sockets", int, 1),
            f_unused=field("f_unused", float) if "f_unused" in doc else None,
        )
    except InvalidArgumentError as exc:  # the spec's own cross-field checks
        raise ConfigurationError(f"{path}: invalid server spec: {exc}") from exc


def save_server_spec(spec: pw.ServerSpec, path: str | Path) -> None:
    doc = {
        "server_id": spec.server_id,
        "label": spec.label,
        "a_dyn": spec.a_dyn,
        "b_cpu": list(spec.b_cpu),
        "c_cpu": list(spec.c_cpu),
        "d_volt": spec.d_volt,
        "e_const": spec.e_const,
        "g_mem": list(spec.g_mem),
        "h_mem": list(spec.h_mem),
        "modes": [[m.index, m.frequency_hz, m.voltage_v] for m in spec.modes],
        "cpi": spec.cpi,
        "n_sockets": spec.n_sockets,
    }
    if spec.f_unused is not None:
        doc["f_unused"] = spec.f_unused
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


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
    base = path.parent
    with path.open(encoding="utf-8") as fh:
        doc = _section(path, "top level", json.load(fh))

    hosts: list[sim.ClusterHost] = []
    thermal_default = _section(path, "thermal", doc.get("thermal", {}))
    cluster = doc.get("cluster", [])
    if not isinstance(cluster, list):
        raise ConfigurationError(f"{path}: cluster: expected a list, got {cluster!r}")
    for k, entry in enumerate(cluster):
        server = entry.get("server") if isinstance(entry, dict) else None
        if not isinstance(server, str):
            raise ConfigurationError(
                f"{path}: cluster[{k}].server: expected a server file name, got {server!r}"
            )
        spec_path = _resolve(server, base)
        count = _convert(path, f"cluster[{k}].count", int, entry.get("count", 1))
        thermal_field = f"cluster[{k}].thermal" if "thermal" in entry else "thermal"
        thermal_doc = _section(path, thermal_field, entry.get("thermal", thermal_default))
        t_cpu = thermal_doc.get("t_cpu_k", [300.0])
        if isinstance(t_cpu, (int, float)):
            t_cpu = [t_cpu]
        if not isinstance(t_cpu, list):
            raise ConfigurationError(
                f"{path}: {thermal_field}.t_cpu_k: expected a number or a list, got {t_cpu!r}"
            )
        for _ in range(count):
            spec = load_server_spec(spec_path, server_id=len(hosts))
            temps = t_cpu * spec.n_sockets if len(t_cpu) == 1 else t_cpu
            thermal = pw.ThermalState(
                tuple(_convert(path, f"{thermal_field}.t_cpu_k", float, t) for t in temps),
                _convert(path, f"{thermal_field}.t_mem_k", float,
                         thermal_doc.get("t_mem_k", 300.0)),
            )
            hosts.append(sim.ClusterHost(spec, thermal))
    if not hosts:
        raise ConfigurationError(f"{path}: scenario defines no cluster hosts")

    if "workload" not in doc:
        raise ConfigurationError(f"{path}: scenario defines no workload")
    if not isinstance(doc["workload"], str):
        raise ConfigurationError(
            f"{path}: workload: expected a file name, got {doc['workload']!r}"
        )
    profiles = tuple(parse_workload(_resolve(doc["workload"], base)))

    soft_constraints: dict[int, tuple[LatenessConstraint, ...]] = {}
    soft_doc = _section(path, "soft_constraints", doc.get("soft_constraints", {}))
    for tid, pairs in soft_doc.items():
        field = f"soft_constraints[{tid!r}]"
        soft_constraints[_convert(path, field, int, tid)] = _convert(
            path, field, lambda v: tuple(LatenessConstraint(*map(float, c)) for c in v), pairs
        )

    opt_doc = _section(path, "optimizer", doc.get("optimizer", {}))
    eff_seed = seed if seed is not None else opt_doc.get("seed")
    if eff_seed is None:
        raise ConfigurationError(
            f"{path}: no seed given (set optimizer.seed or pass --seed)"
        )

    def opt_int(name: str, default: int) -> int:
        return _convert(path, f"optimizer.{name}", int, opt_doc.get(name, default))

    numbers = dict(
        population=opt_int("population", 100) if population is None else population,
        generations=opt_int("generations", 25_000) if generations is None else generations,
        seed=_convert(path, "optimizer.seed", int, eff_seed),
        stop_window=opt_int("stop_window", 500),
        share_step=opt_int("share_step", 1),
        energy_unit_j=_convert(
            path, "energy_unit_j", float, doc.get("energy_unit_j", sim.ENERGY_UNIT_J)
        ),
    )
    if policy is None:
        field = "optimizer.policy" if "policy" in opt_doc else "policy"
        policy = opt_doc.get("policy", doc.get("policy", "VAR"))
        if not isinstance(policy, str):
            raise ConfigurationError(f"{path}: {field}: expected a string, got {policy!r}")
    phase_policy = doc.get("phase_policy", "zero")
    if phase_policy not in PHASE_POLICIES:
        raise ConfigurationError(
            f"{path}: phase_policy {phase_policy!r} is not one of {PHASE_POLICIES}"
        )
    if max_mode_index is None and opt_doc.get("max_mode_index") is not None:
        max_mode_index = _convert(
            path, "optimizer.max_mode_index", int, opt_doc["max_mode_index"]
        )
    try:
        optimizer = EvolveConfig(
            policy=policy.upper(),
            max_mode_index=max_mode_index,
            dyn_energy_form=doc.get("dyn_energy_form", "as-written"),
            **numbers,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    canonical = dict(doc)
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
        phase_policy=phase_policy,
        energy_unit_j=optimizer.energy_unit_j,
        dyn_energy_form=optimizer.dyn_energy_form,
        digest=digest,
    )
