"""The FIFO job scan, the one sequential loop of allocation evaluation.

Jobs of one task run first-in first-out: job j+1 may not start before job j
ends (Lindley's recursion), so the scan walks the jobs in order.  It is plain
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
