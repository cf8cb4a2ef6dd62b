"""Constraint semantics and control-period selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greensched.errors import (
    EmptySampleError,
    IncompleteEvaluationError,
    InfeasiblePeriodsError,
    InvalidArgumentError,
)
from greensched.tasks import (
    HARD_CONSTRAINT,
    LatenessConstraint,
    TaskMissStats,
    _skip_distance_ok,
    check_constraints,
    choose_control_periods,
    control_constraint,
    lateness_fraction,
)


class TestLatenessConstraint:
    def test_control_constraint_bound(self):
        assert control_constraint(None) == HARD_CONSTRAINT
        assert control_constraint(2).beta == pytest.approx(0.5)
        assert control_constraint(4).beta == pytest.approx(0.75)

    @pytest.mark.parametrize("skip", [0, -1])
    def test_control_constraint_names_a_skip_below_one(self, skip):
        # skip=0 raised a raw ZeroDivisionError before.
        with pytest.raises(InvalidArgumentError, match=f"^skip must be None or >= 1, got {skip}$"):
            control_constraint(skip)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidArgumentError):
            LatenessConstraint(-1.0, 0.1)
        with pytest.raises(InvalidArgumentError):
            LatenessConstraint(0.0, 1.5)

    def test_non_finite_values_are_named(self):
        # LatenessConstraint(nan, 0.1) built before.
        with pytest.raises(InvalidArgumentError, match="^x_s must be a finite number >= 0, got nan$"):
            LatenessConstraint(math.nan, 0.1)
        with pytest.raises(InvalidArgumentError, match="^x_s must be a finite number >= 0, got inf$"):
            LatenessConstraint(math.inf, 0.1)
        with pytest.raises(InvalidArgumentError, match=r"^beta must be a number in \[0, 1\], got nan$"):
            LatenessConstraint(0.0, math.nan)

    def test_lateness_fraction_counts_strict_exceedances(self):
        overruns = [-1.0, 0.0, 0.5, 2.0]
        assert lateness_fraction(overruns, 0.0) == pytest.approx(0.5)
        assert lateness_fraction(overruns, 1.0) == pytest.approx(0.25)

    def test_lateness_fraction_empty_sample(self):
        with pytest.raises(EmptySampleError):
            lateness_fraction([], 0.0)


class TestSkipDistance:
    def test_examples(self):
        # S=2: at least 1 hit between misses
        assert _skip_distance_ok([True, False, True, False], 2)
        assert not _skip_distance_ok([True, True], 2)
        # S=3: at least 2 hits between misses
        assert _skip_distance_ok([True, False, False, True], 3)
        assert not _skip_distance_ok([True, False, True], 3)

    @given(
        pattern=st.lists(st.booleans(), min_size=1, max_size=30),
        skip=st.integers(2, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, pattern, skip):
        miss_idx = [i for i, m in enumerate(pattern) if m]
        brute = all(b - a >= skip for a, b in zip(miss_idx, miss_idx[1:]))
        assert _skip_distance_ok(pattern, skip) == brute


def _stats(tid, kind, overruns, skip=None, soft=()):
    return TaskMissStats(
        task_id=tid,
        kind=kind,
        overruns=tuple(overruns),
        miss_pattern=tuple(o > 0 for o in overruns),
        skip=skip,
        soft_constraints=tuple(soft),
    )


class TestCheckConstraints:
    def test_hard_task_alpha_zero(self):
        ok = check_constraints({1: _stats(1, "hard", [-1.0, -0.5, 0.0])})
        assert [c.passed for c in ok] == [True]
        bad = check_constraints({1: _stats(1, "hard", [-1.0, 0.1])})
        assert [c.passed for c in bad] == [False]

    def test_control_skip_two_consecutive_misses_rejected(self):
        st2 = _stats(2, "control", [1.0, 1.0, -1.0, -1.0], skip=2)
        checks = check_constraints({2: st2})
        by_desc = {c.description: c.passed for c in checks}
        assert by_desc["control skip distance >= 2"] is False

    def test_control_alternating_misses_accepted(self):
        st2 = _stats(2, "control", [1.0, -1.0, 1.0, -1.0], skip=2)
        checks = check_constraints({2: st2})
        assert all(c.passed for c in checks)

    def test_control_none_skip_means_hard(self):
        st2 = _stats(2, "control", [0.5, -1.0], skip=None)
        checks = check_constraints({2: st2})
        assert any(not c.passed for c in checks)

    def test_soft_constraints_evaluated_per_pair(self):
        soft = [LatenessConstraint(0.0, 0.5), LatenessConstraint(1.0, 0.1)]
        st3 = _stats(3, "soft", [-1.0, 0.5, 2.0, -0.2], soft=soft)
        checks = check_constraints({3: st3})
        assert [c.passed for c in checks] == [True, False]  # alpha(1)=0.25 > 0.1

    def test_missing_declared_task_raises(self):
        with pytest.raises(IncompleteEvaluationError):
            check_constraints({1: _stats(1, "hard", [-1.0])}, declared_tasks=[1, 2])

    def test_empty_stats_raise(self):
        with pytest.raises(EmptySampleError):
            check_constraints({1: _stats(1, "hard", [])})

    @given(
        overruns=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40),
        x=st.floats(0, 3),
        beta=st.floats(0, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_soft_check_matches_brute_force_counting(self, overruns, x, beta):
        st3 = _stats(3, "soft", overruns, soft=[LatenessConstraint(x, beta)])
        [check] = check_constraints({3: st3})
        brute = sum(1 for o in overruns if o > x) / len(overruns) <= beta
        assert check.passed == brute

    @given(
        overruns=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40),
        x1=st.floats(0, 2),
        dx=st.floats(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_soft_alpha_monotone_nonincreasing_in_x(self, overruns, x1, dx):
        assert lateness_fraction(overruns, x1 + dx) <= lateness_fraction(overruns, x1)


def oracle_periods(wcets, caps, p, grid=1e-3):
    """Exhaustive search over a common scale factor on a fine grid.

    Mirrors the library's parametrization: periods(scale) are the clamped
    proportional periods; the oracle scans scales on a geometric grid and keeps
    the largest feasible one.
    """
    u_max = [c / d for c, d in zip(wcets, caps)]
    w = [u / sum(u_max) for u in u_max]

    def periods(scale):
        return [
            min(max(c / (scale * p * wi), c), d)
            for c, d, wi in zip(wcets, caps, w)
        ]

    def util(scale):
        return sum(c / t for c, t in zip(wcets, periods(scale)))

    best = None
    scale = 1e-6
    while scale <= 1e6:
        if util(scale) <= p:
            best = scale
        scale *= 1 + grid
    return periods(best) if best is not None else None


class TestChooseControlPeriods:
    def test_simple_two_task(self):
        periods = choose_control_periods([1.0, 1.0], [10.0, 10.0], 0.5)
        # symmetric: both periods equal, and utilization is tight at p
        assert periods[0] == pytest.approx(periods[1])
        assert sum(1.0 / t for t in periods) == pytest.approx(0.5, rel=1e-6)

    def test_respects_deadline_caps(self):
        periods = choose_control_periods([1.0, 1.0], [3.0, 100.0], 0.5)
        assert periods[0] <= 3.0
        assert 1.0 / periods[0] + 1.0 / periods[1] <= 0.5 + 1e-9

    def test_infeasible_raises(self):
        with pytest.raises(InfeasiblePeriodsError):
            choose_control_periods([1.0, 1.0], [3.0, 3.0], 0.5)

    def test_bounds_always_hold(self, rng):
        for _ in range(50):
            c = rng.uniform(0.1, 2.0, size=3)
            d = c * rng.uniform(1.0, 30.0, size=3)
            p = float(rng.uniform(0.1, 0.9))
            try:
                periods = choose_control_periods(list(c), list(d), p)
            except InfeasiblePeriodsError:
                assert sum(ci / di for ci, di in zip(c, d)) > p
                continue
            for ci, ti, di in zip(c, periods, d):
                assert ci <= ti <= di + 1e-12
            assert sum(ci / ti for ci, ti in zip(c, periods)) <= p + 1e-9

    def test_matches_grid_search_on_random_instances(self, rng):
        for trial in range(100):
            c = rng.uniform(0.1, 2.0, size=3)
            d = c * rng.uniform(1.5, 30.0, size=3)
            p = float(rng.uniform(0.2, 0.9))
            if sum(ci / di for ci, di in zip(c, d)) > p:
                continue
            got = choose_control_periods(list(c), list(d), p)
            want = oracle_periods(list(c), list(d), p)
            assert want is not None
            for g, w in zip(got, want):
                # within one grid step of the exhaustive optimum
                assert g == pytest.approx(w, rel=2e-3)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgumentError):
            choose_control_periods([], [], 0.5)
        with pytest.raises(InvalidArgumentError):
            choose_control_periods([1.0], [0.5], 0.5)  # C > D
        with pytest.raises(InvalidArgumentError):
            choose_control_periods([1.0], [2.0], 1.5)
