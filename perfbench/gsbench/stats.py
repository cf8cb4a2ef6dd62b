"""Percentile helpers that state their sample count and the tail they chose."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Tail percentiles tried from the highest down.  The ceiling is fixed at 95
#: so that a faster commit, which collects more samples in the same run
#: length, is still compared on the same percentile.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns 100.0 (the maximum) when even the median has fewer than
    ``MIN_BEYOND`` samples above it.
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return 100.0


def summarize(samples: Sequence[float]) -> dict:
    """Median and tail of ``samples`` with the count and the tail percentile."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    arr = np.asarray(samples, dtype=float)
    tail_p = tail_percentile(n)
    return {
        "p50": float(np.percentile(arr, 50.0)),
        "tail": float(np.percentile(arr, tail_p)),
        "tail_percentile": tail_p,
        "n": n,
    }


def median(samples: Sequence[float]) -> float:
    if len(samples) == 0:
        raise ValueError("no samples")
    return float(np.median(np.asarray(samples, dtype=float)))
