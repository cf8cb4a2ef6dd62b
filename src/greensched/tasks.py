"""Task classes, lateness-constraint semantics and control-period selection.

Three task classes:

* hard: every deadline must be met;
* soft: deadline misses are tolerated up to configured ``alpha(x) <= beta``
  fractions;
* control: firm deadlines with a skip parameter S -- at least S-1 on-time jobs
  are required between two misses, and late jobs are aborted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    EmptySampleError,
    IncompleteEvaluationError,
    InfeasiblePeriodsError,
    InvalidArgumentError,
)
from .inputs import is_finite_number


@dataclass(frozen=True)
class LatenessConstraint:
    """``alpha(x) <= beta``: at most a ``beta`` fraction of jobs may miss by more than ``x``."""

    x_s: float
    beta: float

    def __post_init__(self):
        if not is_finite_number(self.x_s) or self.x_s < 0:
            raise InvalidArgumentError(f"x_s must be a finite number >= 0, got {self.x_s!r}")
        if not is_finite_number(self.beta) or not 0.0 <= self.beta <= 1.0:
            raise InvalidArgumentError(f"beta must be a number in [0, 1], got {self.beta!r}")


HARD_CONSTRAINT = LatenessConstraint(0.0, 0.0)


def control_constraint(skip: int | None) -> LatenessConstraint:
    """Miss-fraction bound implied by the skip parameter: (S-1)/S, or 0 for no skips."""
    if skip is None:
        return HARD_CONSTRAINT
    if skip < 1:
        raise InvalidArgumentError(f"skip must be None or >= 1, got {skip!r}")
    return LatenessConstraint(0.0, (skip - 1) / skip)


def lateness_fraction(overruns: Sequence[float], x_s: float) -> float:
    """Fraction of jobs whose overrun exceeds ``x_s`` seconds."""
    if len(overruns) == 0:
        raise EmptySampleError("lateness fraction of an empty sample")
    return sum(1 for o in overruns if o > x_s) / len(overruns)


@dataclass(frozen=True)
class TaskMissStats:
    """Per-task record the simulator hands to the constraint checker.

    ``miss_pattern`` is the job-ordered miss flags (True = missed); ``overruns``
    are job-ordered completion-minus-deadline values.
    """

    task_id: int
    kind: str  # "hard" | "soft" | "control"
    overruns: tuple[float, ...]
    miss_pattern: tuple[bool, ...]
    skip: int | None = None
    soft_constraints: tuple[LatenessConstraint, ...] = ()


@dataclass(frozen=True)
class ConstraintCheck:
    task_id: int
    description: str
    passed: bool


def _skip_distance_ok(pattern: Sequence[bool], skip: int) -> bool:
    """At least ``skip - 1`` hits between two consecutive misses."""
    last_miss = None
    for j, missed in enumerate(pattern):
        if missed:
            if last_miss is not None and (j - last_miss) < skip:
                return False
            last_miss = j
    return True


def check_constraints(
    stats: dict[int, TaskMissStats],
    declared_tasks: Sequence[int] | None = None,
) -> list[ConstraintCheck]:
    """Evaluate every lateness constraint against recorded miss statistics."""
    if declared_tasks is not None:
        missing = [t for t in declared_tasks if t not in stats]
        if missing:
            raise IncompleteEvaluationError(
                f"no statistics recorded for declared tasks {missing}"
            )
    checks: list[ConstraintCheck] = []
    for tid in sorted(stats):
        st = stats[tid]
        if not st.overruns:
            raise EmptySampleError(f"task {tid}: no job statistics")
        alpha0 = lateness_fraction(st.overruns, 0.0)
        if st.kind == "hard":
            checks.append(ConstraintCheck(tid, "hard alpha(0) <= 0", alpha0 <= 0.0))
        elif st.kind == "control":
            bound = control_constraint(st.skip)
            checks.append(
                ConstraintCheck(
                    tid,
                    f"control alpha(0) <= {bound.beta:.6g}",
                    alpha0 <= bound.beta,
                )
            )
            if st.skip is None:
                checks.append(
                    ConstraintCheck(tid, "control no-skip: no miss", alpha0 <= 0.0)
                )
            else:
                checks.append(
                    ConstraintCheck(
                        tid,
                        f"control skip distance >= {st.skip}",
                        _skip_distance_ok(st.miss_pattern, st.skip),
                    )
                )
        elif st.kind == "soft":
            for c in st.soft_constraints:
                checks.append(
                    ConstraintCheck(
                        tid,
                        f"soft alpha({c.x_s:g}) <= {c.beta:g}",
                        lateness_fraction(st.overruns, c.x_s) <= c.beta,
                    )
                )
        else:
            raise InvalidArgumentError(f"unknown task kind {st.kind!r}")
    return checks


# --- control period selection ---------------------------------------------


def choose_control_periods(
    wcets: Sequence[float],
    deadline_caps: Sequence[float],
    p: float,
    rel_tol: float = 1e-9,
) -> list[float]:
    """Pick minimal periods ``T_i`` with ``sum C_i/T_i <= p`` and ``C_i <= T_i <= D_i``.

    Periods follow utilization-proportional weights ``w_i = (C_i/D_i) / sum``;
    a common scaling factor, found by bisection, shrinks all periods together
    (clamped into ``[C_i, D_i]``) until the utilization bound is tight or every
    clamp binds.  Minimality is in the max-normalized-period sense.
    """
    if not 0.0 < p < 1.0:
        raise InvalidArgumentError("p must be in (0, 1)")
    if len(wcets) != len(deadline_caps) or not wcets:
        raise InvalidArgumentError("need matching, non-empty C and D lists")
    for c, d in zip(wcets, deadline_caps):
        if not 0 < c <= d:
            raise InvalidArgumentError("need 0 < C_i <= D_i")

    if sum(c / d for c, d in zip(wcets, deadline_caps)) > p + 1e-15:
        raise InfeasiblePeriodsError(
            "even maximal periods exceed the utilization bound"
        )

    u_max = [c / d for c, d in zip(wcets, deadline_caps)]
    w = [u / sum(u_max) for u in u_max]

    def periods(scale: float) -> list[float]:
        return [
            min(max(c / (scale * p * wi), c), d)
            for c, d, wi in zip(wcets, deadline_caps, w)
        ]

    def util(scale: float) -> float:
        return sum(c / t for c, t in zip(wcets, periods(scale)))

    # util(scale) is non-decreasing in scale; find the largest scale with
    # util <= p (tight bound), stopping when all clamps bind.
    lo, hi = 1e-12, 1.0
    while util(hi) <= p and hi < 1e12:
        if all(t == c for t, c in zip(periods(hi), wcets)):
            return periods(hi)  # every clamp at its floor: fully tight
        hi *= 2.0
    if util(hi) <= p:
        return periods(hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if util(mid) <= p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return periods(lo)
