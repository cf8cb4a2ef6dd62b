"""Allocation evaluation and the preemptive-EDF baseline.

An :class:`Allocation` fixes one DVFS mode per server and an integer
percentage share matrix routing each task's instructions to servers.  On a
busy server each hosted task receives a utilization proportional to its
instruction share (shares normalized so the server's utilizations sum to 1);
a subtask of a job therefore executes in ``CPI * n_share / (f * u)`` seconds
and a job completes when its slowest subtask does (fork-join).  Jobs of one
task run FIFO: a job may not start before its predecessor ends.

Every evaluator's penalty is ``lam = soft violations + control aborts +
hard misses * hard_miss_weight``: one per failed ``alpha(x) <= beta`` of a SOFT
task, one per CTRL job aborted at its deadline, and the weight per REAL job past
its deadline.  The report rows of a control task's ``alpha(0)`` bound and its
no-skip or skip-distance check do not enter ``lam``.  Energy follows the
executed instruction counts only.

Each evaluator call (and each ``evolve`` run) checks its arguments once in
:func:`_prepare`, which builds the :class:`_Context` all evaluation reads.  A
block of P allocations is replayed as one ``[member, task, slot]`` block of
completions, whose slot axis is contiguous.  One function,
:func:`_host_energy`, prices every evaluator's hosts, the EDF baseline's too.
``evaluate_objectives(..., _context=)`` takes one in place of its cluster,
profiles, trace and keyword arguments.
``evaluate_objectives`` also scores a block of ``[U, M]`` mode and ``[U, N, M]``
share arrays; the mode range, share sum and REAL rules are one array check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import power as pw
from . import tasks as tk
# scan_jobs is not called here: perfbench's tracer resolves its
# kernels.scan_jobs layer through this module's binding.
from ._kernels import ScanConstants, scan_constants, scan_jobs, scan_population  # noqa: F401
from .errors import InvalidAllocationError, InvalidArgumentError
from .inputs import is_finite_number
from .workload import JobTrace, TaskProfile

HARD_MISS_WEIGHT = 10**6
ENERGY_UNIT_J = 95_600.0

KIND_TO_STATS = {"REAL": "hard", "CTRL": "control", "SOFT": "soft"}

DEFAULT_SOFT_CONSTRAINTS = (tk.LatenessConstraint(0.0, 0.1),)


@dataclass(frozen=True)
class ClusterHost:
    spec: pw.ServerSpec
    thermal: pw.ThermalState


@dataclass(frozen=True)
class Allocation:
    """Per-server mode index (1-based) plus the task x server share matrix."""

    dvfs: tuple[int, ...]
    shares: tuple[tuple[int, ...], ...]  # N rows, M columns, each row sums to 100


@dataclass(frozen=True)
class ServerOutcome:
    server_id: int
    mode_index: int
    busy_time_s: float
    utilization_sum: float  # of normalized shares; edf_schedule: the CPU utilization
    executed_instructions: float
    dynamic_energy_j: float
    leakage_energy_j: float


@dataclass(frozen=True)
class EvaluationResult:
    """Totals, per-server outcomes, the constraint report and seven per-job
    columns, ``task_id`` to ``aborted``, one entry per trace job in (task, job) order."""

    lam: int
    energy_j: float
    energy_units: float
    task_id: tuple[int, ...]
    job_index: tuple[int, ...]
    start_s: tuple[float, ...]  # first run
    completion_s: tuple[float, ...]  # would-be completion, also of an aborted job
    overrun_s: tuple[float, ...]  # completion - deadline
    missed: tuple[bool, ...]  # overran or aborted
    aborted: tuple[bool, ...]
    per_server: tuple[ServerOutcome, ...]
    constraint_report: tuple[tk.ConstraintCheck, ...]
    hard_misses: int
    control_aborts: int
    soft_violations: int
    # task_id -> server indices the task runs on (nonzero shares / EDF host).
    task_servers: tuple[tuple[int, tuple[int, ...]], ...] = ()


def validate_allocation(
    alloc: Allocation,
    profiles: Sequence[TaskProfile],
    cluster: Sequence[ClusterHost],
) -> tuple[np.ndarray, np.ndarray]:
    """``alloc`` as a one-row block (``[1, M]`` modes, ``[1, N, M]`` shares) once
    it passes what a block cannot hold (lengths, ragged rows, values that are
    not Python or numpy integers, a bool included) and :func:`_check_rules`."""
    n, m = len(profiles), len(cluster)
    if len(alloc.dvfs) != m:
        raise InvalidAllocationError(f"expected {m} mode genes, got {len(alloc.dvfs)}")
    if len(alloc.shares) != n:
        raise InvalidAllocationError(f"expected {n} share rows, got {len(alloc.shares)}")
    if any(len(row) != m for row in alloc.shares):
        raise InvalidAllocationError("share row length mismatch")
    ordered = sorted(profiles, key=lambda p: p.task_id)
    for k, host in zip(alloc.dvfs, cluster):
        if not (type(k) is int or isinstance(k, np.integer)):
            raise InvalidAllocationError(
                f"server {host.spec.server_id}: mode index {k!r} is not an integer"
            )
    for p, row in zip(ordered, alloc.shares):
        if not all(type(v) is int or isinstance(v, np.integer) for v in row):
            raise InvalidAllocationError(
                f"task {p.task_id}: shares must be integers, got {list(row)}"
            )
    # Python ints, so that a value past int64 is checked and named as written.
    modes, shares = np.array([alloc.dvfs], object), np.array(alloc.shares, object).reshape(1, n, m)
    _check_rules(ordered, cluster, np.array([p.kind == "REAL" for p in ordered]),
                 np.array([len(h.spec.modes) for h in cluster]), modes, shares)
    return modes.astype(np.int64), shares.astype(np.int64)


def _check_block(ctx: _Context, block) -> tuple[np.ndarray, np.ndarray]:
    """``block`` as ``(modes, shares)`` arrays once they have integer dtypes, the
    shapes ``[U, M]`` and ``[U, N, M]``, and pass :func:`_check_rules`."""
    if len(block) != 2:
        raise InvalidAllocationError(f"expected an Allocation or a (modes, shares) pair, "
                                     f"got {len(block)} items")
    modes, shares = (np.asarray(a) for a in block)
    ordered, cluster = ctx.arr.profiles, ctx.cluster
    n, m = len(ordered), len(cluster)
    if modes.ndim != 2 or modes.shape[1] != m or shares.shape != (len(modes), n, m):
        raise InvalidAllocationError(f"expected [U, {m}] modes and [U, {n}, {m}] shares, "
                                     f"got {modes.shape} and {shares.shape}")
    if not {modes.dtype.kind, shares.dtype.kind} <= {"i", "u"}:  # name the first bad value
        first = (f"server {cluster[0].spec.server_id}: mode indices"
                 if modes.dtype.kind not in "iu" else f"task {ordered[0].task_id}: shares")
        raise InvalidAllocationError(f"{first} must be integers, got {modes.dtype}/{shares.dtype}")
    _check_rules(ordered, cluster, ctx.arr.is_real, ctx.n_modes, modes, shares)
    return modes, shares


def _check_rules(ordered: Sequence[TaskProfile], cluster: Sequence[ClusterHost],
                 is_real: np.ndarray, n_modes: np.ndarray,
                 modes: np.ndarray, shares: np.ndarray) -> None:
    """Each mode in ``1..n_modes`` of its host, each share row >= 0 summing
    to 100, each REAL row (``is_real``, in task-id order) on one host; else
    name the first bad server, then task, of the first bad row (the row's
    index only in a longer block)."""
    # A share > 100 is flagged too, so that no int64 row sum can wrap to 100.
    bad_sum = (shares.sum(axis=2) != 100) | ((shares < 0) | (shares > 100)).any(axis=2)
    bad_row = bad_sum | (is_real & ((shares > 0).sum(axis=2) != 1))
    bad_mode = (modes < 1) | (modes > n_modes)
    if bad_mode.any() or bad_row.any():
        bad = np.concatenate([bad_mode, bad_row], axis=1)
        u, j = divmod(int(bad.argmax()), bad.shape[1])
        t, where = j - len(cluster), f"row {u}: " if len(bad) > 1 else ""
        if t < 0:
            raise InvalidAllocationError(f"{where}mode index {modes[u].tolist()[j]} out of range "
                                         f"for server {cluster[j].spec.server_id}")
        where += f"task {ordered[t].task_id}: "
        if bad_sum[u, t]:
            raise InvalidAllocationError(f"{where}shares must be >= 0 and sum to 100, "
                                         f"got {shares[u, t].tolist()}")
        raise InvalidAllocationError(f"{where}REAL tasks must run on a single host")


def _task_counts(ctx: _Context, completion: np.ndarray, aborted: np.ndarray | None = None
                 ) -> np.ndarray:
    """Per-task hard misses, control aborts and soft violations, as the
    ``[P, T]`` planes of one ``[3, P, T]`` array.

    ``completion`` holds the would-be completions in the scan's ``[P, task,
    slot]`` layout; a padded slot's deadline is +inf, so it is never late.
    ``aborted`` (same layout, no abort in a padded slot) flags the aborted
    control jobs; without it a control job aborted exactly when it was late,
    as in the scan.  An EDF abort can round to overrun 0, so it is passed.
    Every count sums along the contiguous slot axis.
    """
    deadlines = ctx.arr.scan.deadlines
    n_late = (completion > deadlines).sum(axis=2)
    counts = np.empty((3,) + n_late.shape, dtype=n_late.dtype)
    np.multiply(n_late, ctx.kinds, out=counts[:2])
    if aborted is not None:
        aborted.sum(axis=2, out=counts[1])
    # Every soft bound at once: its task's jobs late by more than x_s, as a
    # fraction of the task's jobs, against beta; then summed per task.  Late
    # by more than 0 is late (also at +-inf and in padded slots), so a bound
    # with x = 0 reads its task's late count.
    n_over, rest = n_late[:, ctx.soft_task], ctx.soft_task[ctx.n_x0:]
    if len(rest):
        over = completion[:, rest] - deadlines[rest] > ctx.soft_x[ctx.n_x0:, None]
        n_over[:, ctx.n_x0:] = over.sum(axis=2)
    np.matmul(n_over / ctx.arr.n_jobs[ctx.soft_task] > ctx.soft_beta, ctx.soft_of_task,
              out=counts[2])
    return counts


def _fold_lam(ctx: _Context, counts: np.ndarray) -> list[tuple[int, int, int, int]]:
    """``(lam, hard misses, control aborts, soft violations)`` per member, as
    Python ints: a large ``hard_miss_weight`` must not wrap in int64."""
    hard, aborts, soft = counts.sum(axis=2).tolist()
    return [(s + a + ctx.hard_miss_weight * h, h, a, s) for h, a, s in zip(hard, aborts, soft)]


def _assemble_result(
    ctx: _Context,
    start: np.ndarray,
    completion: np.ndarray,
    aborted: np.ndarray,
    hosts: tuple,
    shares: np.ndarray,
) -> EvaluationResult:
    """The result of per-job arrays in (task, job) order: ``start`` (each job's
    first run, never before its release: its arrival, or its predecessor's end
    if later), ``completion`` (would-be, also of an aborted job) and ``aborted``;
    ``hosts`` holds one per-host column for each :class:`ServerOutcome` field
    after ``server_id``, and ``shares`` the ``[task, server]`` placement."""
    arr = ctx.arr
    servers = [ServerOutcome(h.spec.server_id, *row)  # Python numbers, as JSON writers need
               for h, row in zip(ctx.cluster, zip(*(np.asarray(c).tolist() for c in hosts)))]
    counts = _task_counts(ctx, arr.pad(completion, -np.inf)[None], arr.pad(aborted, False)[None])
    [(lam, hard_misses, control_aborts, soft_violations)] = _fold_lam(ctx, counts)
    overrun = completion - arr.deadlines
    overruns, missed = overrun.tolist(), ((overrun > 0) | aborted).tolist()
    stats = {
        p.task_id: tk.TaskMissStats(
            task_id=p.task_id,
            kind=KIND_TO_STATS[p.kind],
            overruns=tuple(overruns[span]),
            miss_pattern=tuple(missed[span]),
            skip=p.skip if p.kind == "CTRL" else None,
            soft_constraints=bounds,
        )
        for p, span, bounds in zip(arr.profiles, arr.task_jobs, ctx.soft)
    }
    report = tk.check_constraints(stats, arr.task_ids)
    report.extend(
        tk.ConstraintCheck(p.task_id, "control aborts == 0", n_aborts == 0)
        for p, n_aborts in zip(arr.profiles, counts[1][0].tolist())  # per-task aborts
        if p.kind == "CTRL"
    )
    energy = float(sum(s.dynamic_energy_j + s.leakage_energy_j for s in servers))
    return EvaluationResult(
        lam=lam,
        energy_j=energy,
        energy_units=energy / ctx.energy_unit_j,
        task_id=tuple(arr.trace.task_id.tolist()),
        job_index=tuple(arr.trace.job_index.tolist()),
        start_s=tuple(start.tolist()),
        completion_s=tuple(completion.tolist()),
        overrun_s=tuple(overruns),
        missed=tuple(missed),
        aborted=tuple(aborted.tolist()),
        per_server=tuple(servers),
        constraint_report=tuple(report),
        hard_misses=hard_misses,
        control_aborts=control_aborts,
        soft_violations=soft_violations,
        task_servers=tuple((tid, tuple(np.flatnonzero(row).tolist()))
                           for tid, row in zip(arr.task_ids, shares)),
    )


@dataclass
class _TraceArrays:
    """A trace's columns as evaluation reads them, reusable across many evaluations.

    ``scan`` holds the same jobs as ``[task, slot]`` (slot = the job's
    position within its task) for the population scan, missing slots padded
    with arrival -inf, deadline +inf and work 0, together with the scan's
    other per-trace constants.
    """

    trace: JobTrace
    arrivals: np.ndarray
    deadlines: np.ndarray
    works: np.ndarray
    task_of_job: np.ndarray
    profiles: tuple[TaskProfile, ...]  # in task-id order
    is_ctrl: np.ndarray  # per task
    is_real: np.ndarray  # per task
    task_ids: list[int]
    task_jobs: list[slice]  # each task's jobs in the flat arrays
    n_jobs: np.ndarray  # jobs per task
    n_mean: np.ndarray
    slot: np.ndarray
    scan: ScanConstants = field(init=False)

    def __post_init__(self):
        self.scan = scan_constants(self.pad(self.arrivals, -np.inf),
                                   self.pad(self.deadlines, np.inf), self.pad(self.works, 0.0),
                                   self.is_ctrl)

    def pad(self, values: np.ndarray, fill: float | bool) -> np.ndarray:
        """Per-job ``values`` as ``[task, slot]``, missing slots set to ``fill``."""
        out = np.full((len(self.task_ids), self.n_jobs.max(initial=0)), fill)
        out[self.task_of_job, self.slot] = values
        return out


def trace_arrays(profiles: Sequence[TaskProfile], trace: JobTrace) -> _TraceArrays:
    """``trace``'s columns; every job must belong to a profile, every profile have a job."""
    ordered = sorted(profiles, key=lambda p: p.task_id)
    ids = np.array([p.task_id for p in ordered], dtype=np.int64)
    unknown = np.setdiff1d(trace.task_id, ids).tolist()
    if unknown:
        raise InvalidArgumentError(f"trace has jobs of unknown task(s) {unknown}")
    task_of_job = np.searchsorted(ids, trace.task_id)
    n_jobs_of = np.bincount(task_of_job, minlength=len(ids))
    idle = ids[n_jobs_of == 0].tolist()
    if idle:
        raise InvalidArgumentError(f"trace has no jobs of task(s) {idle}")
    first_of_task = np.cumsum(n_jobs_of) - n_jobs_of
    return _TraceArrays(
        trace=trace,
        arrivals=trace.arrival_s,
        deadlines=trace.deadline_s,
        works=trace.work_instructions.astype(float),
        task_of_job=task_of_job,
        profiles=tuple(ordered),
        is_ctrl=np.array([p.kind == "CTRL" for p in ordered]),
        is_real=np.array([p.kind == "REAL" for p in ordered]),
        task_ids=ids.tolist(),
        task_jobs=[
            slice(first, first + n_jobs)
            for first, n_jobs in zip(first_of_task.tolist(), n_jobs_of.tolist())
        ],
        n_jobs=n_jobs_of,
        n_mean=np.array([float(p.n_instructions) for p in ordered]),
        slot=np.arange(len(task_of_job)) - first_of_task[task_of_job],
    )


@dataclass(frozen=True)
class _Context:
    """What every evaluation over one (cluster, profiles, trace) reads.

    ``tables[:, m, k - 1]`` holds the frequency (Hz), ``a_dyn * V**2 * cpi``
    and ``P_leak * cpi / f`` of host m at mode index k; unused cells are NaN.
    ``n_modes`` holds each host's mode count and ``hosts`` the host indices.
    """

    cluster: tuple[ClusterHost, ...]
    arr: _TraceArrays
    tables: np.ndarray  # [3, M, K], K the most modes of any host
    cpi: np.ndarray  # per host
    n_modes: np.ndarray  # per host
    hosts: np.ndarray  # 0..M-1
    kinds: np.ndarray  # [2, 1, T]: the REAL and the CTRL tasks
    soft: tuple[tuple[tk.LatenessConstraint, ...], ...]  # per task; () unless SOFT
    # Every soft bound, the n_x0 with x_s = 0 first: its task's index, x_s and
    # beta, and its task as a [bound, task] one-hot.
    soft_task: np.ndarray
    soft_x: np.ndarray
    soft_beta: np.ndarray
    soft_of_task: np.ndarray
    n_x0: int
    hard_miss_weight: int
    dyn_energy_form: str
    energy_unit_j: float


def _prepare(
    cluster: Sequence[ClusterHost],
    profiles: Sequence[TaskProfile],
    trace: JobTrace,
    soft_constraints: dict[int, tuple[tk.LatenessConstraint, ...]] | None = None,
    hard_miss_weight: int = HARD_MISS_WEIGHT,
    dyn_energy_form: str = "as-written",
    energy_unit_j: float = ENERGY_UNIT_J,
) -> _Context:
    """Check the arguments and build the context; SOFT tasks default to
    ``DEFAULT_SOFT_CONSTRAINTS``, every other task has no soft constraint."""
    if not cluster:
        raise InvalidArgumentError("cluster is empty")
    if not profiles:
        raise InvalidArgumentError("profiles is empty")
    if type(hard_miss_weight) is not int or hard_miss_weight < 1:  # a bool is rejected too
        raise InvalidArgumentError(f"hard_miss_weight {hard_miss_weight!r} is not an int >= 1")
    if dyn_energy_form not in pw.DYN_ENERGY_FORMS:
        raise InvalidArgumentError(f"unknown dynamic energy form {dyn_energy_form!r}")
    if not (is_finite_number(energy_unit_j) and energy_unit_j > 0):
        raise InvalidArgumentError(f"energy_unit_j must be > 0 and a finite int or float, "
                                   f"got {energy_unit_j!r}")
    arr = trace_arrays(profiles, trace)
    soft_constraints = soft_constraints or {}
    soft_ids = {p.task_id for p in arr.profiles if p.kind == "SOFT"}
    bad = [tid for tid, bounds in soft_constraints.items()
           if tid not in soft_ids or not isinstance(bounds, (tuple, list)) or not bounds
           or not all(isinstance(c, tk.LatenessConstraint) for c in bounds)]
    if bad:
        raise InvalidArgumentError(f"task(s) {bad}: soft constraints need a SOFT task and a "
                                   f"non-empty tuple of LatenessConstraint")
    tables = np.full((3, len(cluster), max([0] + [len(h.spec.modes) for h in cluster])), np.nan)
    for m, host in enumerate(cluster):
        spec = host.spec
        tables[:, m, : len(spec.modes)] = np.transpose([
            (mode.frequency_hz,
             spec.a_dyn * mode.voltage_v**2 * spec.cpi,
             pw.leakage_power(spec, mode, host.thermal) * spec.cpi / mode.frequency_hz)
            for mode in spec.modes
        ])
    soft = tuple(tuple(soft_constraints.get(p.task_id, DEFAULT_SOFT_CONSTRAINTS))
                 if p.kind == "SOFT" else () for p in arr.profiles)
    bounds = sorted(((ti, c) for ti, task_bounds in enumerate(soft) for c in task_bounds),
                    key=lambda bound: bound[1].x_s != 0)
    soft_task = np.array([ti for ti, _ in bounds], dtype=np.int64)
    return _Context(
        tuple(cluster), arr, tables, np.array([h.spec.cpi for h in cluster]),
        np.array([len(h.spec.modes) for h in cluster]), np.arange(len(cluster)),
        np.array([arr.is_real, arr.is_ctrl])[:, None], soft, soft_task,
        np.array([c.x_s for _, c in bounds], dtype=float),
        np.array([c.beta for _, c in bounds], dtype=float),
        (soft_task[:, None] == np.arange(len(arr.profiles))).astype(np.int64),
        sum(c.x_s == 0 for _, c in bounds), hard_miss_weight, dyn_energy_form, energy_unit_j,
    )


def _run(ctx: _Context, modes: np.ndarray, shares: np.ndarray) -> tuple[np.ndarray, ...]:
    """Replay P validated allocations, given as ``[P, M]`` mode indices (1-based)
    and ``[P, N, M]`` percentages, each bit-identical to replaying it alone.

    Returns the ``[P, task, slot]`` would-be completions (pre-abort; padding
    unspecified), the ``[P, server]`` dynamic and leakage joules and executed
    instructions, the ``[P, task, server]`` utilizations and the ``[P, task]``
    seconds per instruction.
    """
    shares, u = _utilizations(ctx, shares)
    freq = ctx.tables[0, ctx.hosts, modes - 1]

    # Seconds per instruction of each task: slowest of its subtasks.  A task
    # spends none on a server where it has no share, and u > 0 where it has.
    per_server = np.divide(ctx.cpi * shares, freq[:, None, :] * u,
                           out=np.zeros(shares.shape), where=shares > 0)
    dur_coef = per_server.max(axis=2)

    completion, exec_per_task = scan_population(ctx.arr.scan, dur_coef)
    return (completion, *_host_energy(ctx, modes, shares, u, exec_per_task), u, dur_coef)


def _utilizations(ctx: _Context, shares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``[P, N, M]`` percentages as fractions and as utilizations: each task's
    share of its server's instructions (``n_mean`` weights), 0 on an idle one."""
    shares = shares / 100.0
    weights = shares * ctx.arr.n_mean[:, None]
    col = weights.sum(axis=1)[:, None, :]
    return shares, np.divide(weights, col, out=np.zeros(weights.shape), where=col > 0)


def _host_energy(ctx: _Context, modes: np.ndarray, shares: np.ndarray, u: np.ndarray,
                 exec_per_task: np.ndarray, executed: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``[P, server]`` dynamic and leakage joules and executed instructions ``n``
    of the ``[P, task]`` instructions run, split by the fractions ``shares``:
    ``(dyn * s) / FREQ_NORM_HZ`` and ``leak * n``, as ``power.dynamic_energy``
    and ``power.leakage_energy`` compute them, ``s`` being ``sum(u * n_task)``
    ("as-written") or ``n``.  ``executed`` replaces ``n``, else each sum over
    tasks runs on a contiguous last axis, the same at every population size."""
    exec_im = np.multiply(shares.transpose(0, 2, 1), exec_per_task[:, None, :], order="C")
    if executed is None:
        executed = exec_im.sum(axis=2)
    dyn_sum = (np.multiply(u.transpose(0, 2, 1), exec_im, order="C").sum(axis=2)
               if ctx.dyn_energy_form == "as-written" else executed)
    _, dyn, leak = ctx.tables[:, ctx.hosts, modes - 1]
    return (dyn * dyn_sum) / pw.FREQ_NORM_HZ, leak * executed, executed


def _total_energy(dynamic_j: np.ndarray, leakage_j: np.ndarray) -> list[float]:
    """Each member's joules, host by host, dynamic then leakage, from 0.0: the
    additions of ``energy += dynamic_j[:, m]; energy += leakage_j[:, m]``
    over the hosts, in that order, as one accumulate over the interleaved
    ``[0.0, dyn_0, leak_0, dyn_1, ...]`` columns."""
    terms = np.zeros((len(dynamic_j), 1 + 2 * dynamic_j.shape[1]))
    terms[:, 1::2] = dynamic_j
    terms[:, 2::2] = leakage_j
    return np.add.accumulate(terms, axis=1)[:, -1].tolist()


def evaluate_objectives(
    cluster: Sequence[ClusterHost],
    profiles: Sequence[TaskProfile],
    trace: JobTrace,
    alloc: Allocation | tuple[np.ndarray, np.ndarray],
    *,
    soft_constraints: dict[int, tuple[tk.LatenessConstraint, ...]] | None = None,
    hard_miss_weight: int = HARD_MISS_WEIGHT,
    dyn_energy_form: str = "as-written",
    energy_unit_j: float = ENERGY_UNIT_J,
    _context: _Context | None = None,
) -> tuple[int, float, float] | list[tuple[int, float, float]]:
    """``(lambda, energy_J, energy_units)`` of an allocation, or of each row of a block.

    Same numbers as :func:`evaluate_allocation` without materializing per-job
    outcome records or the constraint report.  A block, ``[U, M]`` mode and
    ``[U, N, M]`` share arrays (tasks in id order), gives a list with one
    triple per row, each equal to scoring that row alone; they share one scan.
    """
    ctx = _context or _prepare(cluster, profiles, trace, soft_constraints,
                               hard_miss_weight, dyn_energy_form, energy_unit_j)
    single = isinstance(alloc, Allocation)
    modes, shares = (validate_allocation(alloc, ctx.arr.profiles, ctx.cluster) if single
                     else _check_block(ctx, alloc))
    if not len(modes):
        return []
    completion, dynamic_j, leakage_j, *_ = _run(ctx, modes, shares)
    counts = _task_counts(ctx, completion)
    out = [(penalty[0], e, e / ctx.energy_unit_j)
           for penalty, e in zip(_fold_lam(ctx, counts), _total_energy(dynamic_j, leakage_j))]
    return out[0] if single else out


def evaluate_allocation(
    cluster: Sequence[ClusterHost],
    profiles: Sequence[TaskProfile],
    trace: JobTrace,
    alloc: Allocation,
    *,
    soft_constraints: dict[int, tuple[tk.LatenessConstraint, ...]] | None = None,
    hard_miss_weight: int = HARD_MISS_WEIGHT,
    dyn_energy_form: str = "as-written",
    energy_unit_j: float = ENERGY_UNIT_J,
) -> EvaluationResult:
    """Evaluate one allocation against a trace; pure function of its inputs."""
    ctx = _prepare(cluster, profiles, trace, soft_constraints, hard_miss_weight,
                   dyn_energy_form, energy_unit_j)
    modes, shares = validate_allocation(alloc, ctx.arr.profiles, ctx.cluster)
    arr = ctx.arr
    padded, dynamic_j, leakage_j, executed, u, dur_coef = _run(ctx, modes, shares)
    completion = padded[0, arr.task_of_job, arr.slot]

    hosts = (modes[0], executed[0] * ctx.cpi / ctx.tables[0, ctx.hosts, modes[0] - 1],
             np.ascontiguousarray(u[0].T).sum(axis=1), executed[0], dynamic_j[0], leakage_j[0])
    start = completion - arr.works * dur_coef[0][arr.task_of_job]
    aborted = (completion - arr.deadlines > 0) & arr.is_ctrl[arr.task_of_job]
    return _assemble_result(ctx, start, completion, aborted, hosts, shares[0])


# --- EDF baseline ----------------------------------------------------------


def _wfd_partition(
    ordered: Sequence[TaskProfile],
    cluster: Sequence[ClusterHost],
    freqs: Sequence[float],
) -> list[int]:
    """Worst-fit decreasing by utilization; deterministic tie-break by task id.

    Tasks are ranked by instructions per second, ``n / T``.  A task's
    utilization on host h is ``(cpi_h / f_h) * n / T``, a factor that is the
    same for every task, so this is the decreasing utilization order on
    every host of any cluster, homogeneous or not.  Each task goes to the
    least-loaded host, whose load grows by the task's utilization at
    ``freqs[host]``.
    """
    order = sorted(
        range(len(ordered)),
        key=lambda i: (-(ordered[i].n_instructions / ordered[i].period_s), ordered[i].task_id),
    )
    load, host_of = [0.0] * len(cluster), [0] * len(ordered)
    for i in order:
        h = host_of[i] = min(range(len(cluster)), key=lambda h: (load[h], h))
        p = ordered[i]
        load[h] += (cluster[h].spec.cpi * p.n_instructions / freqs[h]) / p.period_s
    return host_of


def edf_schedule(
    cluster: Sequence[ClusterHost],
    profiles: Sequence[TaskProfile],
    trace: JobTrace,
    *,
    dvfs_policy: str = "max",
    soft_constraints: dict[int, tuple[tk.LatenessConstraint, ...]] | None = None,
    hard_miss_weight: int = HARD_MISS_WEIGHT,
    dyn_energy_form: str = "as-written",
    energy_unit_j: float = ENERGY_UNIT_J,
) -> EvaluationResult:
    """Single-queue-per-host preemptive EDF with a WFD task partition.

    Every host runs at the policy mode ("max" or "min").  Jobs of one task stay
    FIFO (a job is released when its predecessor ends); control jobs abort
    at their deadline.
    """
    if dvfs_policy not in ("max", "min"):
        raise InvalidArgumentError(f"unknown dvfs policy {dvfs_policy!r}")
    ctx = _prepare(cluster, profiles, trace, soft_constraints, hard_miss_weight,
                   dyn_energy_form, energy_unit_j)
    arr, n = ctx.arr, len(ctx.arr.profiles)
    modes = np.array([[len(h.spec.modes) if dvfs_policy == "max" else 1 for h in cluster]])
    freqs = ctx.tables[0, ctx.hosts, modes[0] - 1].tolist()
    host_of = _wfd_partition(arr.profiles, cluster, freqs)
    placement = np.zeros((1, n, len(cluster)), dtype=np.int64)  # a share of 100 on the host
    placement[0, np.arange(n), host_of] = 100

    arrivals, deadlines, works = arr.arrivals.tolist(), arr.deadlines.tolist(), arr.works.tolist()
    start, completion, aborted = [None] * len(works), [0.0] * len(works), [False] * len(works)
    executed, util_sum, exec_per_task = [0.0] * len(cluster), [0.0] * len(cluster), np.zeros((1, n))
    for h, (host, freq) in enumerate(zip(cluster, freqs)):
        local = [i for i in range(n) if host_of[i] == h]
        executed[h], exec_per_task[0, local] = _edf_host(
            [(arr.task_jobs[i], arr.profiles[i].kind == "CTRL") for i in local],
            arrivals, deadlines, works, freq / host.spec.cpi, start, completion, aborted,
        )
        for p in (arr.profiles[i] for i in local):
            util_sum[h] += (host.spec.cpi * p.n_instructions / freq) / p.period_s
    dynamic_j, leakage_j, _ = _host_energy(ctx, modes, *_utilizations(ctx, placement),
                                           exec_per_task, np.array([executed]))
    hosts = (modes[0], np.divide(executed, np.divide(freqs, ctx.cpi)), util_sum, executed,
             dynamic_j[0], leakage_j[0])
    return _assemble_result(ctx, np.array(start), np.array(completion), np.array(aborted),
                            hosts, placement[0])


def _edf_host(
    tasks: Sequence[tuple[slice, bool]],
    arrivals: list[float],
    deadlines: list[float],
    works: list[float],
    rate: float,
    start: list[float | None],
    completion: list[float],
    aborted: list[bool],
) -> tuple[float, list[float]]:
    """Event-driven preemptive EDF on one host at ``rate`` instructions/second.

    ``tasks`` gives each hosted task's jobs in the flat trace columns and
    whether it is a control task, in task-id order.  Each task has one current
    job, released at the later of its arrival and its predecessor's end, and
    an EDF key ``(deadline, arrival, k)`` that changes only when the task
    moves on to its next job.  At each event one pass over the active tasks
    finds the smallest key among the ready ones (release not after ``t``) and
    the earliest release among the others, the next preemption point.  The
    keys end in the task index, so they are distinct and the pick is unique.
    Writes each job's first run, would-be completion and abort flag into
    ``start``, ``completion`` and ``aborted``; returns the instructions run,
    in event order, and each task's.
    """
    inf = float("inf")
    job = [span.start for span, _ in tasks]  # flat index of each task's current job
    release = [arrivals[j] for j in job]
    remaining = [works[j] / rate for j in job]  # seconds
    key = [(deadlines[j], arrivals[j], k) for k, j in enumerate(job)]
    none_ready = (inf, inf, len(tasks))  # above every key: trace times are finite
    active = list(range(len(tasks)))  # tasks with a current job
    executed, done = 0.0, [0.0] * len(tasks)  # instructions run: on the host, per task
    t = 0.0
    while active:
        best, next_release = none_ready, inf
        for k in active:
            if release[k] <= t:
                if key[k] < best:
                    best = key[k]
            elif release[k] < next_release:
                next_release = release[k]
        if best is none_ready:
            t = next_release
            continue
        k = best[2]
        j = job[k]
        if start[j] is None:
            start[j] = t
        left = remaining[k]
        horizon = t + left
        cutoff = deadlines[j] if tasks[k][1] and deadlines[j] < horizon else inf
        event = min(horizon, next_release, cutoff)
        if event > t:
            ran_s = min(event - t, left)
            left -= ran_s
            executed += ran_s * rate
            done[k] += ran_s * rate
        if event == horizon or event == cutoff:
            # The job completes, or a control job aborts at its deadline and
            # its remaining work is discarded.
            completion[j] = event if event == horizon else event + left
            aborted[j] = event != horizon
            if j + 1 < tasks[k][0].stop:
                job[k] = j + 1
                release[k] = max(arrivals[j + 1], event)
                key[k] = (deadlines[j + 1], arrivals[j + 1], k)
                remaining[k] = works[j + 1] / rate
            else:
                active.remove(k)
        else:
            remaining[k] = left
        t = max(t, event)
    return executed, done
