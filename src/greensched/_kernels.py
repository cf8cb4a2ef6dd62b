"""The FIFO job scan of allocation evaluation, per job and per population.

Jobs of one task run first-in first-out: job j+1 may not start before job j
ends (Lindley's recursion), so a scan walks each task's jobs in order.
``scan_jobs`` walks the jobs of one allocation one at a time; it is the
reference form that the tests hold ``scan_population`` to.
``scan_population``, the one the evaluators run, applies the same recursion
to P allocations at once (P = 1 included) over a ``[P, slot, task]`` block.
Few jobs wait for their predecessor in the traces the search replays, so it
first computes every job as if it started at its arrival, then recomputes
only the jobs that wait, in waves along each task's queue, and falls back to
stepping over the job slots when the waves grow past one job per (member,
task) column.  A job's end is its completion capped at its deadline for
control tasks; which control jobs aborted, and the instructions every task
executed, are derived from the completions afterwards: a column without an
aborted job executed the per-trace sum of its works, so the executed
fractions are computed only for the (member, control column) pairs gathered
where a job would have completed past its deadline.  Both scans are plain
Python over numpy arrays.
"""

from __future__ import annotations

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


def scan_population(
    arrivals,
    deadlines,
    works,
    dur_coef,
    is_ctrl,
    completion_out,
    executed_out,
):
    """``scan_jobs`` for P allocations at once, over a trace padded to slots.

    ``arrivals``, ``deadlines`` and ``works`` are ``[K, T]``: row k holds the
    k-th job of every task.  A task with fewer than K jobs is padded with
    arrival -inf, deadline +inf and work 0.  ``dur_coef`` is ``[P, T]``.
    ``completion_out`` (``[P, K, T]``) receives each job's would-be completion
    and ``executed_out`` (``[P, T]``) each task's executed instructions, added
    job by job in order as ``np.bincount`` adds them.  Padded jobs execute
    nothing and their completions are unspecified; their deadline is +inf,
    so they are never late.

    Every real job gets the operations of ``scan_jobs``' step,
    ``min(max(prev_end, arrival) + work * coef, end_at)``, from its
    predecessor's final end, so the result is bit-identical.  Three steps:

    1. Sweep: every job starts at its arrival, over the whole block.  That is
       exact for each job whose predecessor ended by its arrival, because
       ``max(prev_end, arrival)`` then returns the arrival.  The recursion is
       monotone, so every sweep end is a lower bound of the final one.
    2. Waves: the chain heads, jobs whose predecessor's sweep end is after
       their arrival while the predecessor itself does not wait, are
       recomputed from the predecessor's end.  A recomputed job whose end is
       after its successor's arrival puts the successor in the next wave.
       Ends only grow, so every change to a job's end re-queues a successor
       that waits for it, and each job's last value comes from its
       predecessor's final end; a head that a chain from further back
       reaches later is recomputed again then.
    3. Budget: the waves recompute at most P * T jobs in total.  Past that,
       the slot loop of the recursion finishes the scan from the earliest
       slot still holding a queued job.  No later wave would touch a slot
       before it, so those slots are final.

    Executed counts: each column starts from the per-trace sum of its works,
    which is exact for every column whose jobs all ran in full.  Only the
    (member, control column) pairs holding a job that would complete past
    its deadline are gathered into a ``[K, pairs]`` block, where each job's
    start and executed fraction follow ``scan_jobs``; when no pair is late,
    this tail is skipped.
    """
    # Sweep: each job's duration, plus its arrival.
    np.multiply(works, dur_coef[:, None, :], out=completion_out)
    np.add(completion_out, arrivals, out=completion_out)
    # A control job that would finish past its deadline aborts there, so its
    # successor may start at min(completion, deadline); other jobs never abort.
    ends_at = np.where(is_ctrl, deadlines, np.inf)
    # A job's successor waits when the job's end, min(completion, ends_at),
    # is after the successor's arrival: when its completion is after this
    # threshold.  Padding never waits, nor does a successor arriving at or
    # after the job's latest end.
    threshold = np.full(arrivals.shape, np.inf)
    later = arrivals[1:]
    np.copyto(threshold[:-1], later, where=(ends_at[:-1] > later) & ~np.isneginf(later))
    waits = completion_out > threshold  # [P, K, T]
    # heads[:, k]: job k + 1 is a chain head, it waits and job k does not
    # (slot 0 never waits).
    heads = waits.copy()
    np.greater(waits[:, 1:], waits[:, :-1], out=heads[:, 1:])

    # Waves over the queued jobs (p, k, t); past the budget, the slot loop
    # from the earliest slot still queued.
    p, k, t = np.unravel_index(np.flatnonzero(heads), heads.shape)
    k += 1
    budget = dur_coef.size
    while 0 < k.size <= budget:
        budget -= k.size
        prev_end = np.minimum(completion_out[p, k - 1, t], ends_at[k - 1, t])
        completion = np.maximum(prev_end, arrivals[k, t])
        completion += works[k, t] * dur_coef[p, t]
        completion_out[p, k, t] = completion
        queued = completion > threshold[k, t]
        p, k, t = p[queued], k[queued] + 1, t[queued]
    if k.size:
        first = int(k.min())
        job_durations = completion_out[:, first:]
        np.multiply(works[first:], dur_coef[:, None, :], out=job_durations)
        prev_end = np.minimum(completion_out[:, first - 1], ends_at[first - 1])
        for arrival, end_at, job in zip(
            arrivals[first:], ends_at[first:], job_durations.transpose(1, 0, 2)
        ):
            np.maximum(prev_end, arrival, out=prev_end)
            np.add(prev_end, job, out=job)
            np.minimum(job, end_at, out=prev_end)

    # Sums over jobs by accumulate, which adds in job order at every shape;
    # a reduce pairs the additions when the other axes hold one element.
    # Every job that ran in full adds its work times 1.0, which is its work,
    # so a column with no aborted job executed this per-trace sum.
    executed_out[...] = np.add.accumulate(works, axis=0)[-1]
    # The (member, control column) pairs where a job aborted: it would have
    # completed past its deadline.
    ctrl = np.flatnonzero(is_ctrl)
    p, c = np.nonzero((completion_out[:, :, ctrl] > deadlines[:, ctrl]).any(axis=1))
    if not p.size:
        return
    t = ctrl[c]
    # Their jobs' starts (each arrival, or the predecessor's capped end if
    # later) and executed fractions, by scan_jobs' expressions, over [K, pairs].
    completion = completion_out[p, :, t].T
    duration = works[:, t] * dur_coef[p, t]
    deadline = deadlines[:, t]
    start = np.empty_like(completion)
    start[0] = -np.inf
    np.minimum(completion[:-1], deadline[:-1], out=start[1:])
    np.maximum(start, arrivals[:, t], out=start)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (deadline - start) / duration
    frac = np.where(frac < 0.0, 0.0, frac)
    frac = np.where(completion > deadline, np.where(duration > 0.0, frac, 1.0), 1.0)
    executed_out[p, t] = np.add.accumulate(works[:, t] * frac, axis=0)[-1]
