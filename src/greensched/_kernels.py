"""The FIFO job scan of allocation evaluation, per job and per population.

Jobs of one task run first-in first-out: job j+1 may not start before job j
ends (Lindley's recursion), so a scan walks each task's jobs in order.
``scan_jobs`` walks the jobs of one allocation one at a time; it is the
reference form that the tests hold ``scan_population`` to.
``scan_population``, the one the evaluators run, applies the same recursion
to P allocations at once (P = 1 included) over a ``[member, task, slot]``
block, so that every pass over whole columns runs along the contiguous slot
axis.  What depends only on the trace (each job's latest end, the threshold
past which its successor waits, each task's work sum and the control tasks'
deadlines) is built once per trace by ``scan_constants``.
Few jobs wait for their predecessor in the traces the search replays, so it
first computes every job as if it started at its arrival, then recomputes
only the jobs that wait, in waves along each task's queue until none is
queued: at worst one wave per slot, when a whole queue waits.  A job's end
is its completion capped at its deadline for control tasks; which control
jobs aborted, and the instructions every task executed, are derived from the
completions afterwards: a column without an aborted job executed the
per-trace sum of its works, so the executed fractions are computed only for
the (member, control column) pairs gathered where a job would have completed
past its deadline.  ``job_starts`` recovers each job's start from the final
completions.  Both scans are plain Python over numpy arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

USE_NUMBA = False  # no JIT backend; kept because tools report the scan backend from it


def scan_jobs(
    arrivals,
    deadlines,
    works,
    task_of_job,
    dur_coef,
    is_ctrl,
    completion_out,
    end_out,
    frac_out,
):
    """FIFO scan over jobs of all tasks (jobs pre-sorted by task, job index).

    ``dur_coef[t]`` converts one instruction of task ``t`` into seconds under
    the current allocation.  Control jobs that would finish past their deadline
    abort there: the executed fraction is truncated and the successor may start
    at the deadline.
    """
    n_tasks = dur_coef.shape[0]
    prev_end = np.full(n_tasks, -np.inf)
    for j in range(arrivals.shape[0]):
        t = task_of_job[j]
        start = arrivals[j]
        if prev_end[t] > start:
            start = prev_end[t]
        duration = works[j] * dur_coef[t]
        completion = start + duration
        completion_out[j] = completion
        if is_ctrl[t] and completion > deadlines[j]:
            end = deadlines[j]
            if duration > 0.0:
                frac = (deadlines[j] - start) / duration
                if frac < 0.0:
                    frac = 0.0
            else:
                frac = 1.0
            frac_out[j] = frac
        else:
            end = completion
            frac_out[j] = 1.0
        end_out[j] = end
        prev_end[t] = end


class ScanConstants(NamedTuple):
    """A trace padded to ``[task, slot]`` as :func:`scan_population` reads it.

    Row t holds the jobs of task t in order; a task with fewer than K jobs is
    padded with arrival -inf, deadline +inf and work 0.  Built once per
    trace by :func:`scan_constants`.
    """

    arrivals: np.ndarray  # [T, K]
    deadlines: np.ndarray  # [T, K]
    works: np.ndarray  # [T, K]
    ends_at: np.ndarray  # [T, K]: the latest end of each job, its deadline if control
    threshold: np.ndarray  # [T, K]: a job's successor waits when it completes past this
    work_sums: np.ndarray  # [T]: each task's works added in job order
    ctrl: np.ndarray  # the control tasks' indices
    ctrl_deadlines: np.ndarray  # [C, K]: their deadlines


def scan_constants(arrivals, deadlines, works, is_ctrl) -> ScanConstants:
    """The :class:`ScanConstants` of ``[T, K]`` padded trace columns."""
    # A control job that would finish past its deadline aborts there, so its
    # successor may start at min(completion, deadline); other jobs never abort.
    ends_at = np.where(is_ctrl[:, None], deadlines, np.inf)
    # A job's successor waits when the job's end, min(completion, ends_at),
    # is after the successor's arrival: when its completion is after this
    # threshold.  Padding never waits, nor does a successor arriving at or
    # after the job's latest end.
    threshold = np.full(arrivals.shape, np.inf)
    later = arrivals[:, 1:]
    np.copyto(threshold[:, :-1], later,
              where=(ends_at[:, :-1] > later) & ~np.isneginf(later))
    # Sums over jobs by accumulate, which adds in job order at every shape;
    # a reduce pairs the additions.
    work_sums = np.add.accumulate(works, axis=1)[:, -1]
    ctrl = np.flatnonzero(is_ctrl)
    return ScanConstants(arrivals, deadlines, works, ends_at, threshold, work_sums, ctrl,
                         deadlines[ctrl])


def job_starts(completion, ends_at, arrivals):
    """Each job's start along the last (slot) axis: its arrival, or its
    predecessor's end, ``min(completion, ends_at)``, if later; the first slot
    starts at its arrival.  On the final completions of :func:`scan_population`
    these are the starts its recursion used, bit for bit."""
    start = np.empty_like(completion)
    start[..., 0] = -np.inf
    np.minimum(completion[..., :-1], ends_at[..., :-1], out=start[..., 1:])
    return np.maximum(start, arrivals, out=start)


def scan_population(scan: ScanConstants, dur_coef):
    """``scan_jobs`` for P allocations at once, over a trace padded to slots.

    ``scan`` holds the padded ``[T, K]`` trace and its per-trace constants;
    ``dur_coef`` is ``[P, T]``.  Returns each job's would-be completion, a
    C-contiguous ``[P, T, K]`` block, and each task's executed instructions,
    ``[P, T]``, added job by job in order as ``np.bincount`` adds them.
    Padded jobs execute nothing and their completions are unspecified; their
    deadline is +inf, so they are never late.

    Every real job gets the operations of ``scan_jobs``' step,
    ``min(max(prev_end, arrival) + work * coef, end_at)``, from its
    predecessor's final end, so the result is bit-identical.  Two steps:

    1. Sweep: every job starts at its arrival, over the whole block.  That is
       exact for each job whose predecessor ended by its arrival, because
       ``max(prev_end, arrival)`` then returns the arrival.  The recursion is
       monotone, so every sweep end is a lower bound of the final one.
    2. Waves: the chain heads, jobs whose predecessor's sweep end is after
       their arrival while the predecessor itself does not wait, are
       recomputed from the predecessor's end.  A recomputed job whose end is
       after its successor's arrival puts the successor in the next wave,
       until no job is queued.  Ends only grow, so every change to a job's
       end re-queues a successor that waits for it, and each job's last
       value comes from its predecessor's final end; a head that a chain
       from further back reaches later is recomputed again then.  A column
       whose whole queue waits takes K - 1 waves, one job each; waves from
       every waiting job would recompute about K**2 / 2 jobs there.

    Executed counts: each column starts from the per-trace sum of its works,
    which is exact for every column whose jobs all ran in full.  Only the
    (member, control column) pairs holding a job that would complete past
    its deadline are gathered into a ``[pairs, K]`` block, where each job's
    start and executed fraction follow ``scan_jobs``; when no pair is late,
    this tail is skipped.
    """
    arrivals, works, ends_at, threshold = scan.arrivals, scan.works, scan.ends_at, scan.threshold
    n_cells, n_slots = arrivals.size, arrivals.shape[1]
    # Sweep: each job's duration, plus its arrival.
    completions = works * dur_coef[:, :, None]
    completions += arrivals

    # Waves over the queued jobs, as flat indices into completions: a
    # job's predecessor is the index before it, its trace cell the index
    # modulo T * K and its (member, task) column the index divided by K.
    # The last slot's threshold is +inf, so a queued job's flat index stays
    # in its (member, task) row, and the index before a column's first job
    # (-1, the block's last, before job 0) never waits.  The first wave's
    # heads: job k + 1 waits and job k does not.
    waits = (completions > threshold).ravel()
    job = waits.nonzero()[0]
    job = job[~waits[job - 1]] + 1
    while job.size:
        cell = job % n_cells
        prev_end = np.minimum(completions.take(job - 1), ends_at.take(cell - 1))
        completion = np.maximum(prev_end, arrivals.take(cell))
        completion += works.take(cell) * dur_coef.take(job // n_slots)
        completions.put(job, completion)
        job = job[completion > threshold.take(cell)] + 1

    # Every job that ran in full adds its work times 1.0, which is its work,
    # so a column with no aborted job executed its task's work sum.
    executed = scan.work_sums[None].repeat(len(dur_coef), axis=0)
    # The (member, control column) pairs where a job aborted: it would have
    # completed past its deadline.
    p, c = (completions[:, scan.ctrl] > scan.ctrl_deadlines).any(axis=2).nonzero()
    if not p.size:
        return completions, executed
    t = scan.ctrl[c]
    # Their jobs' starts (each arrival, or the predecessor's capped end if
    # later) and executed fractions, by scan_jobs' expressions, over [pairs, K]:
    # a job that completes by its deadline, or does no work, runs in full.
    completion = completions[p, t]
    duration = works[t] * dur_coef[p, t][:, None]
    deadline = scan.ctrl_deadlines[c]
    start = job_starts(completion, deadline, arrivals[t])
    frac = np.divide(deadline - start, duration, out=np.ones(completion.shape),
                     where=(completion > deadline) & (duration > 0.0))
    np.maximum(frac, 0.0, out=frac)
    executed[p, t] = np.add.accumulate(works[t] * frac, axis=1)[:, -1]
    return completions, executed
