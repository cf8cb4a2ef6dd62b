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
from .errors import ConfigurationError
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
            f"{path}: {field}: expected a JSON object, got {value!r}"
        )
    return value


def load_server_spec(path: str | Path, server_id: int | None = None) -> pw.ServerSpec:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        modes = tuple(
            pw.DvfsMode(int(i), float(f), float(v)) for i, f, v in doc["modes"]
        )
        return pw.ServerSpec(
            server_id=server_id if server_id is not None else int(doc["server_id"]),
            label=str(doc["label"]),
            a_dyn=float(doc["a_dyn"]),
            b_cpu=tuple(float(x) for x in doc["b_cpu"]),
            c_cpu=tuple(float(x) for x in doc["c_cpu"]),
            d_volt=float(doc["d_volt"]),
            e_const=float(doc["e_const"]),
            g_mem=tuple(float(x) for x in doc["g_mem"]),
            h_mem=tuple(float(x) for x in doc["h_mem"]),
            modes=modes,
            cpi=float(doc.get("cpi", 1.0)),
            n_sockets=int(doc.get("n_sockets", 1)),
            f_unused=float(doc["f_unused"]) if "f_unused" in doc else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
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
        doc = json.load(fh)

    hosts: list[sim.ClusterHost] = []
    thermal_default = _section(path, "thermal", doc.get("thermal", {}))
    for k, entry in enumerate(doc.get("cluster", [])):
        server = entry.get("server") if isinstance(entry, dict) else None
        if not isinstance(server, str):
            raise ConfigurationError(
                f"{path}: cluster[{k}].server: expected a server file name, got {server!r}"
            )
        spec_path = _resolve(server, base)
        count = _convert(path, f"cluster[{k}].count", int, entry.get("count", 1))
        thermal_doc = _section(
            path, f"cluster[{k}].thermal", entry.get("thermal", thermal_default)
        )
        for _ in range(count):
            spec = load_server_spec(spec_path, server_id=len(hosts))
            t_cpu = thermal_doc.get("t_cpu_k", [300.0])
            if isinstance(t_cpu, (int, float)):
                t_cpu = [t_cpu]
            if len(t_cpu) == 1 and spec.n_sockets > 1:
                t_cpu = t_cpu * spec.n_sockets
            thermal = pw.ThermalState(
                tuple(_convert(path, "thermal.t_cpu_k", float, t) for t in t_cpu),
                _convert(path, "thermal.t_mem_k", float, thermal_doc.get("t_mem_k", 300.0)),
            )
            hosts.append(sim.ClusterHost(spec, thermal))
    if not hosts:
        raise ConfigurationError(f"{path}: scenario defines no cluster hosts")

    if "workload" not in doc:
        raise ConfigurationError(f"{path}: scenario defines no workload")
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
