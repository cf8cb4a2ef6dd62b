"""Task-profile parsing and expansion into concrete job traces.

Profiles are CSV rows ``task_id,type,n_ins,period_s,deadline_s,n_jobs`` with
type one of REAL (hard), CTRL (control) and SOFT.  REAL/CTRL expand into
strictly periodic jobs; SOFT arrivals follow a renewal process with
exponential inter-arrivals of mean ``period_s`` and exponentially distributed
work around ``n_ins``.

A trace is columns, not per-job records: :class:`JobTrace` holds one array
each of task id, job index, arrival, absolute deadline and work, in (task,
job) order, which generation, the trace CSV and evaluation all read and write.
Traces are reproducible: generation uses numpy's PCG64 generator seeded
explicitly, and serialized traces carry the seed and generator name in a
header comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError, InvalidTraceError, ParseError
from .inputs import int64, is_finite_number, read_table

TASK_TYPES = ("REAL", "CTRL", "SOFT")
GENERATOR_NAME = "numpy-PCG64"
PHASE_POLICIES = ("zero", "uniform-random")
WORKLOAD_COLUMNS = dict(
    task_id=int64, type=str, n_ins=int64, period_s=float, deadline_s=float, n_jobs=int
)
TRACE_COLUMNS = dict(
    task_id=int64, job_index=int64, arrival_s=float, deadline_s=float, work_instructions=int64
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
        if type(self.task_id) is not int:
            raise InvalidArgumentError(f"task_id must be an int, got {self.task_id!r}")
        for name in ("n_instructions", "period_s", "deadline_s", "n_jobs"):
            value, whole = getattr(self, name), name.startswith("n_")
            if not (type(value) is int if whole else is_finite_number(value)) or value <= 0:
                kind = "an int" if whole else "a finite number"
                raise InvalidArgumentError(f"task {self.task_id}: {name} must be {kind} > 0, "
                                           f"got {value!r}")
        if self.skip is not None and (type(self.skip) is not int or self.skip < 1):
            raise InvalidArgumentError(f"task {self.task_id}: skip must be None or an int >= 1, "
                                       f"got {self.skip!r}")


class Job(NamedTuple):
    """One row of a trace built by hand; see :meth:`JobTrace.from_jobs`."""

    task_id: int
    job_index: int
    arrival_s: float
    deadline_s: float  # absolute
    work_instructions: int


@dataclass(frozen=True, eq=False)
class JobTrace:
    """Five read-only columns as ``TRACE_COLUMNS``, one entry per job, in (task, job) order.

    Construction casts the columns and names the first bad row as given
    (:class:`InvalidTraceError`), then sorts rows given out of order, stably.
    """

    task_id: np.ndarray
    job_index: np.ndarray
    arrival_s: np.ndarray
    deadline_s: np.ndarray
    work_instructions: np.ndarray
    rng_seed: int
    horizon_s: float

    def __post_init__(self):
        given = [np.asarray(c) for c in self.columns]
        if len({len(c) for c in given}) > 1:
            raise InvalidArgumentError(f"trace columns differ in length: {[len(c) for c in given]}")
        dtypes = (np.int64, np.int64, float, float, np.int64)
        cols = [c.astype(dtype) for c, dtype in zip(given, dtypes)]
        task, job, arrival, deadline, work = cols
        in_order = ((task[1:] > task[:-1]) | (task[1:] == task[:-1]) & (job[1:] > job[:-1])).all()
        repeat = np.zeros(len(task), bool)
        if not in_order:
            order = np.lexsort((job, task))  # stable: a repeated key's first row stays first
            repeat[order[1:]] = (np.diff(task[order]) == 0) & (np.diff(job[order]) == 0)
        rules = (
            (np.logical_or.reduce([given[i] != cols[i] for i in (0, 1, 4)]),
             "task_id, job_index and work_instructions must be integers"),
            (job < 0, "job_index must be >= 0, got {1}"),
            (work < 0, "work_instructions must be >= 0, got {4}"),
            (~np.isfinite(arrival), "arrival_s must be finite, got {2}"),
            (~np.isfinite(deadline), "deadline_s must be finite, got {3}"),
            (deadline < arrival, "deadline_s {3!r} is before arrival_s {2!r}"),
            (repeat, "job {1} of task {0} is listed twice"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in rules])
        if bad.any():
            i = int(bad.argmax())
            problem = next(text for mask, text in rules if mask[i])
            raise InvalidTraceError(i, problem.format(*(c[i].item() for c in cols)))
        for name, c in zip(TRACE_COLUMNS, cols):
            c = c if in_order else c[order]
            c.flags.writeable = False
            object.__setattr__(self, name, c)

    @classmethod
    def from_jobs(cls, jobs: Iterable[Job], rng_seed: int, horizon_s: float) -> JobTrace:
        """The trace of ``jobs``, given in any order."""
        return cls(*(list(zip(*jobs)) or [()] * len(TRACE_COLUMNS)), rng_seed, horizon_s)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in TRACE_COLUMNS)

    def __eq__(self, other) -> bool:
        return (type(other) is JobTrace
                and (self.rng_seed, self.horizon_s) == (other.rng_seed, other.horizon_s)
                and all(map(np.array_equal, self.columns, other.columns)))


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
    profiles: Sequence[TaskProfile], seed: int, phase_policy: str = "zero"
) -> JobTrace:
    """Expand profiles into a concrete, reproducible job trace.

    Each task in id order draws its uniform-random phase, then its jobs in one
    block: for SOFT, ``2 * n_jobs`` standard exponentials, even entries scaled
    to inter-arrival gaps and odd ones to work, the stream (and the running
    arrival sum) of drawing each job's gap and then its work in turn.
    """
    if phase_policy not in PHASE_POLICIES:
        raise InvalidArgumentError(f"unknown phase policy {phase_policy!r}")
    if type(seed) is not int:  # a bool, float or numpy scalar is not taken for an int
        raise InvalidArgumentError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks, phases = [], {}
    for p in sorted(profiles, key=lambda q: q.task_id):
        phase = 0.0 if phase_policy == "zero" else float(rng.uniform(0.0, p.period_s))
        phases[p.task_id] = phase
        n = p.n_jobs
        if p.kind == "SOFT":
            draw = rng.standard_exponential(2 * n)
            arrival = np.add.accumulate(np.concatenate(([phase], draw[0::2] * p.period_s)))[1:]
            work = np.maximum(1.0, np.ceil(draw[1::2] * p.n_instructions)).astype(np.int64)
        else:
            arrival, work = phase + np.arange(n) * p.period_s, np.full(n, p.n_instructions)
        blocks.append((np.full(n, p.task_id), np.arange(n), arrival, arrival + p.deadline_s, work))
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else [()] * len(TRACE_COLUMNS)
    return JobTrace(*columns, seed, hyperperiod_horizon(profiles, phases))


# --- trace serialization ---------------------------------------------------


def serialize_trace(trace: JobTrace, path: str | Path) -> None:
    """Write a trace CSV; floats use repr so round-trips are field-exact."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed={trace.rng_seed} generator={GENERATOR_NAME} "
                 f"horizon_s={trace.horizon_s!r}\n")
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(f"{t},{j},{a!r},{d!r},{w}\n"
                      for t, j, a, d, w in zip(*(c.tolist() for c in trace.columns)))


def parse_trace(path: str | Path) -> JobTrace:
    """Read a trace CSV written by :func:`serialize_trace`; its rows may come in any order."""
    rows = read_table(path, TRACE_COLUMNS)
    with Path(path).open(encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("#"):
        raise ParseError(path, "missing trace header comment", 1)
    meta = dict(token.partition("=")[::2] for token in first[1:].split())
    try:
        seed, horizon = int(meta.get("seed", 0)), float(meta.get("horizon_s", 0.0))
    except ValueError as exc:
        raise ParseError(path, f"trace header: {exc}", 1) from exc
    try:
        return JobTrace(*zip(*(values for _, values in rows)), seed, horizon)
    except InvalidTraceError as exc:
        raise ParseError(path, exc.problem, rows[exc.row][0]) from exc
