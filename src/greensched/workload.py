"""Task-profile parsing and expansion into concrete job traces.

Profiles are CSV rows ``task_id,type,n_ins,period_s,deadline_s,n_jobs`` with
type one of REAL (hard), CTRL (control) and SOFT.  REAL/CTRL expand into
strictly periodic jobs; SOFT arrivals follow a renewal process with
exponential inter-arrivals of mean ``period_s`` and exponentially distributed
work around ``n_ins``.

Traces are reproducible: generation uses numpy's PCG64 generator seeded
explicitly, and serialized traces carry the seed and generator name in a
header comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, ParseError
from .inputs import read_table

TASK_TYPES = ("REAL", "CTRL", "SOFT")
GENERATOR_NAME = "numpy-PCG64"
PHASE_POLICIES = ("zero", "uniform-random")
WORKLOAD_COLUMNS = dict(
    task_id=int, type=str, n_ins=int, period_s=float, deadline_s=float, n_jobs=int
)
TRACE_COLUMNS = dict(
    task_id=int, job_index=int, arrival_s=float, deadline_s=float, work_instructions=int
)


@dataclass(frozen=True)
class TaskProfile:
    task_id: int
    kind: str  # REAL | CTRL | SOFT
    n_instructions: int
    period_s: float
    deadline_s: float
    n_jobs: int
    skip: int | None = 2  # CTRL only; ignored for other kinds

    def __post_init__(self):
        if self.kind not in TASK_TYPES:
            raise InvalidArgumentError(f"unknown task type {self.kind!r}")
        if self.n_instructions <= 0 or self.period_s <= 0 or self.deadline_s <= 0:
            raise InvalidArgumentError(
                f"task {self.task_id}: numeric fields must be positive"
            )
        if self.n_jobs <= 0:
            raise InvalidArgumentError(f"task {self.task_id}: n_jobs must be positive")


@dataclass(frozen=True)
class Job:
    task_id: int
    job_index: int
    arrival_s: float
    deadline_s: float  # absolute
    work_instructions: int

    def __post_init__(self):
        if self.work_instructions < 0:
            raise InvalidArgumentError(
                f"work_instructions must be >= 0, got {self.work_instructions}"
            )
        for name in ("arrival_s", "deadline_s"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite, got {getattr(self, name)}")
        if self.deadline_s < self.arrival_s:
            raise InvalidArgumentError(
                f"deadline_s {self.deadline_s!r} is before arrival_s {self.arrival_s!r}"
            )


@dataclass(frozen=True)
class JobTrace:
    jobs: tuple[Job, ...]
    rng_seed: int
    horizon_s: float


def parse_workload(path: str | Path) -> list[TaskProfile]:
    """Read and validate a task-profile CSV."""
    profiles: dict[int, TaskProfile] = {}
    for line, values in read_table(path, WORKLOAD_COLUMNS):
        try:
            profile = TaskProfile(*values)
        except InvalidArgumentError as exc:
            raise ParseError(path, str(exc), line) from exc
        if profile.task_id in profiles:
            raise ParseError(path, f"duplicate task id {profile.task_id}", line)
        profiles[profile.task_id] = profile
    return list(profiles.values())


def hyperperiod_horizon(profiles: Sequence[TaskProfile], phases: dict[int, float] | None = None) -> float:
    """Simulation end time guaranteeing every generated job can resolve."""
    phases = phases or {}
    horizon = 0.0
    for p in profiles:
        phase = phases.get(p.task_id, 0.0)
        horizon = max(horizon, phase + p.n_jobs * p.period_s + p.deadline_s)
    return horizon


def generate_jobs(
    profiles: Sequence[TaskProfile],
    seed: int,
    phase_policy: str = "zero",
) -> JobTrace:
    """Expand profiles into a concrete, reproducible job trace."""
    if phase_policy not in PHASE_POLICIES:
        raise InvalidArgumentError(f"unknown phase policy {phase_policy!r}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    jobs: list[Job] = []
    phases: dict[int, float] = {}
    for p in sorted(profiles, key=lambda q: q.task_id):
        if phase_policy == "zero":
            phase = 0.0
        else:
            phase = float(rng.uniform(0.0, p.period_s))
        phases[p.task_id] = phase
        if p.kind in ("REAL", "CTRL"):
            for j in range(p.n_jobs):
                arrival = phase + j * p.period_s
                jobs.append(
                    Job(p.task_id, j, arrival, arrival + p.deadline_s, p.n_instructions)
                )
        else:
            arrival = phase
            for j in range(p.n_jobs):
                arrival += float(rng.exponential(p.period_s))
                work = max(1, math.ceil(rng.exponential(p.n_instructions)))
                jobs.append(Job(p.task_id, j, arrival, arrival + p.deadline_s, work))
    jobs.sort(key=lambda j: (j.task_id, j.job_index))
    return JobTrace(tuple(jobs), seed, hyperperiod_horizon(profiles, phases))


# --- trace serialization ---------------------------------------------------


def serialize_trace(trace: JobTrace, path: str | Path) -> None:
    """Write a trace CSV; floats use repr so round-trips are field-exact."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# seed={trace.rng_seed} generator={GENERATOR_NAME} "
            f"horizon_s={trace.horizon_s!r}\n"
        )
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for j in trace.jobs:
            fh.write(
                f"{j.task_id},{j.job_index},{j.arrival_s!r},{j.deadline_s!r},"
                f"{j.work_instructions}\n"
            )


def parse_trace(path: str | Path) -> JobTrace:
    """Read a trace CSV written by :func:`serialize_trace`."""
    jobs = []
    for line, values in read_table(path, TRACE_COLUMNS):
        try:
            jobs.append(Job(*values))
        except InvalidArgumentError as exc:
            raise ParseError(path, str(exc), line) from exc
    with Path(path).open(encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("#"):
        raise ParseError(path, "missing trace header comment", 1)
    meta = dict(token.partition("=")[::2] for token in first[1:].split())
    try:
        seed, horizon = int(meta.get("seed", 0)), float(meta.get("horizon_s", 0.0))
    except ValueError as exc:
        raise ParseError(path, f"trace header: {exc}", 1) from exc
    return JobTrace(tuple(jobs), seed, horizon)
