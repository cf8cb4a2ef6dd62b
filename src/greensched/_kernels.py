"""The FIFO job scan of allocation evaluation, per job and per population.

Jobs of one task run first-in first-out: job j+1 may not start before job j
ends (Lindley's recursion), so a scan walks each task's jobs in order.
``scan_jobs`` walks the jobs of one allocation one at a time; it is the
reference form that the tests hold ``scan_population`` to.
``scan_population``, the one the evaluators run, applies the same recursion
to P allocations at once (P = 1 included), stepping over the job slot of
every task together with ``[P, T]`` arrays.
Its loop carries only the recursion, a job's end being its completion
capped at its deadline for control tasks; which control jobs aborted, and
the instructions every task executed, are derived from the completions
after the loop.  Both are plain Python over numpy arrays.
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
    arrival -inf, deadline +inf and work 0, so a padded step leaves the
    task's previous end unchanged and executes nothing.  ``dur_coef`` is
    ``[P, T]``.  ``completion_out`` (``[P, K, T]``) receives each job's
    would-be completion and ``executed_out`` (``[P, T]``) each task's executed
    instructions, added job by job in order as ``np.bincount`` adds them.
    Every element goes through the same operations as in ``scan_jobs``.
    """
    # completion_out holds each job's duration until its slot's step adds the start.
    np.multiply(works, dur_coef[:, None, :], out=completion_out)
    # A control job that would finish past its deadline aborts there, so its
    # successor may start at min(completion, deadline); other jobs never abort.
    ends_at = np.where(is_ctrl, deadlines, np.inf)
    prev_end = np.full(dur_coef.shape, -np.inf)
    for arrival, end_at, job in zip(arrivals, ends_at, completion_out.transpose(1, 0, 2)):
        np.maximum(prev_end, arrival, out=prev_end)
        np.add(prev_end, job, out=job)
        np.minimum(job, end_at, out=prev_end)

    # Sums over jobs by accumulate, which adds in job order at every shape;
    # a reduce pairs the additions when the other axes hold one element.
    executed_out[...] = np.add.accumulate(works, axis=0)[-1]
    # Control columns: each job's start (its arrival, or its predecessor's
    # capped end if later) and executed fraction, by scan_jobs' expressions.
    ctrl = np.flatnonzero(is_ctrl)
    completion = completion_out[:, :, ctrl].transpose(1, 0, 2)  # [K, P, C]
    duration = works[:, None, ctrl] * dur_coef[:, ctrl]
    deadline = deadlines[:, None, ctrl]
    start = np.empty_like(completion)
    start[0] = -np.inf
    np.minimum(completion[:-1], deadline[:-1], out=start[1:])
    np.maximum(start, arrivals[:, None, ctrl], out=start)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (deadline - start) / duration
    frac = np.where(frac < 0.0, 0.0, frac)
    frac = np.where(completion > deadline, np.where(duration > 0.0, frac, 1.0), 1.0)
    executed_out[:, ctrl] = np.add.accumulate(works[:, None, ctrl] * frac, axis=0)[-1]
