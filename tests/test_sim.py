"""Cluster simulator: closed-form cases, conservation laws, EDF baseline."""

import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_spec
from greensched import sim
from greensched._kernels import scan_jobs, scan_population
from greensched.errors import InvalidAllocationError, InvalidArgumentError
from greensched.nsga import EvolveConfig, _repair, decode, evolve
from greensched.power import (
    DYN_ENERGY_FORMS,
    FREQ_NORM_HZ,
    DvfsMode,
    ThermalState,
    dynamic_energy,
    leakage_energy,
)
from greensched.tasks import LatenessConstraint
from greensched.scenario import FIXTURES, load_scenario
from greensched.sim import (
    Allocation,
    ClusterHost,
    edf_schedule,
    evaluate_allocation,
    evaluate_objectives,
    trace_arrays,
    validate_allocation,
    _prepare,
    _task_counts,
)
from greensched.workload import Job, JobTrace, TaskProfile, generate_jobs


def host(f_hz=1e9, cpi=1.0, n_modes=1):
    modes = tuple(
        DvfsMode(i + 1, f_hz * (1 + 0.5 * i), 0.85 + 0.1 * i) for i in range(n_modes)
    )
    spec = make_spec(modes=modes, cpi=cpi)
    return ClusterHost(spec, ThermalState((300.0,), 300.0))


def trace_of(jobs):
    horizon = max(j.deadline_s for j in jobs) + 1.0
    return JobTrace.from_jobs(jobs, rng_seed=0, horizon_s=horizon)


def stack(allocs, profiles, cluster):
    """``allocs`` as one block: ``[U, M]`` mode and ``[U, N, M]`` share arrays."""
    u, n, m = len(allocs), len(profiles), len(cluster)
    return (np.array([a.dvfs for a in allocs], dtype=np.int64).reshape(u, m),
            np.array([a.shares for a in allocs], dtype=np.int64).reshape(u, n, m))


def row_allocation(modes, shares, u):
    """Row ``u`` of a block as an ``Allocation`` of the block's values."""
    return Allocation(dvfs=tuple(modes[u].tolist()), shares=tuple(map(tuple, shares[u].tolist())))


class TestValidateAllocation:
    def setup_method(self):
        self.cluster = [host(), host()]
        self.profiles = [
            TaskProfile(0, "REAL", 10**9, 10.0, 10.0, 1),
            TaskProfile(1, "SOFT", 10**9, 10.0, 10.0, 1),
        ]

    def test_row_sum_must_be_100(self):
        bad = Allocation(dvfs=(1, 1), shares=((60, 30), (100, 0)))
        with pytest.raises(InvalidAllocationError):
            validate_allocation(bad, self.profiles, self.cluster)

    def test_negative_share_rejected_even_when_row_sums_to_100(self):
        bad = Allocation(dvfs=(1, 1), shares=((100, 0), (150, -50)))
        with pytest.raises(InvalidAllocationError, match=r"task 1: .*\[150, -50\]"):
            validate_allocation(bad, self.profiles, self.cluster)

    def test_real_task_must_be_single_host(self):
        bad = Allocation(dvfs=(1, 1), shares=((50, 50), (100, 0)))
        with pytest.raises(InvalidAllocationError):
            validate_allocation(bad, self.profiles, self.cluster)

    def test_mode_index_in_range(self):
        bad = Allocation(dvfs=(2, 1), shares=((100, 0), (100, 0)))
        with pytest.raises(InvalidAllocationError):
            validate_allocation(bad, self.profiles, self.cluster)

    def test_valid_allocation_accepted(self):
        ok = Allocation(dvfs=(1, 1), shares=((100, 0), (40, 60)))
        validate_allocation(ok, self.profiles, self.cluster)


ONE_HOST = ((100, 0, 0),) * 9  # every amd task on host 0


@functools.lru_cache(maxsize=None)
def amd_inputs():
    s = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
    return list(s.cluster), list(s.profiles), generate_jobs(s.profiles, 1, s.phase_policy)


class TestAllocationTypes:
    """Modes and shares must be Python or numpy integers, never bools or
    fractions, whichever evaluator reads the allocation."""

    EVALUATORS = [evaluate_objectives, evaluate_allocation]

    @pytest.mark.parametrize("evaluate", EVALUATORS)
    @pytest.mark.parametrize("dvfs, shares, message", [
        pytest.param((1.5, 1, 1), ONE_HOST, r"server 0: mode index 1\.5 is not an integer",
                     id="fractional-mode"),
        pytest.param((True, 1, 1), ONE_HOST, r"server 0: mode index True is not an integer",
                     id="bool-mode"),
        pytest.param((1, np.float64(1.0), 1), ONE_HOST,
                     r"server 1: mode index np\.float64\(1\.0\) is not an integer",
                     id="numpy-float-mode"),
        pytest.param((1, 1, 1), ONE_HOST[:5] + ((50.5, 49.5, 0),) + ONE_HOST[6:],
                     r"task 5: shares must be integers", id="fractional-shares"),
        pytest.param((1, 1, 1), ((True, 0, 99),) + ONE_HOST[1:],
                     r"task 0: shares must be integers", id="bool-share"),
        pytest.param((1, 1, 1), ONE_HOST[:8] + ((np.float64(100), 0, 0),),
                     r"task 8: shares must be integers", id="numpy-float-share"),
    ])
    def test_non_integers_rejected(self, evaluate, dvfs, shares, message):
        cluster, profiles, trace = amd_inputs()
        with pytest.raises(InvalidAllocationError, match=message):
            evaluate(cluster, profiles, trace, Allocation(dvfs=dvfs, shares=shares))

    @pytest.mark.parametrize("evaluate", EVALUATORS)
    def test_numpy_integers_score_as_python_ints(self, evaluate):
        cluster, profiles, trace = amd_inputs()
        plain = Allocation(dvfs=(1, 2, 1), shares=ONE_HOST[:5] + ((50, 25, 25),) + ONE_HOST[6:])
        numpy_ints = Allocation(
            dvfs=tuple(np.int64(k) for k in plain.dvfs),
            shares=tuple(tuple(np.int32(v) for v in row) for row in plain.shares),
        )
        got, want = (evaluate(cluster, profiles, trace, a) for a in (numpy_ints, plain))
        if evaluate is evaluate_allocation:
            # repr tells np.int64(2), which json.dumps rejects, from 2.
            assert repr(got.per_server) == repr(want.per_server)
            got, want = (got.lam, got.energy_j), (want.lam, want.energy_j)
        assert got == want


class TestSingleTaskClosedForm:
    def test_solo_task_runs_at_full_rate(self):
        # 1 GHz, CPI 1, alone on the host: 2e9 instructions take 2 s
        cluster = [host()]
        profiles = [TaskProfile(0, "REAL", 2 * 10**9, 10.0, 10.0, 1)]
        jobs = [Job(0, 0, 0.0, 10.0, 2 * 10**9)]
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        assert res.start_s == pytest.approx((0.0,))
        assert res.completion_s == pytest.approx((2.0,))
        assert res.missed == (False,)
        assert res.lam == 0

    def test_fifo_queueing_within_task(self):
        cluster = [host()]
        profiles = [TaskProfile(0, "REAL", 2 * 10**9, 3.0, 3.0, 2)]
        jobs = [
            Job(0, 0, 0.0, 3.0, 2 * 10**9),
            Job(0, 1, 1.0, 4.0, 2 * 10**9),  # arrives while job 0 runs
        ]
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        assert res.job_index == (0, 1)
        assert res.completion_s[0] == pytest.approx(2.0)
        # job 1 waits for its predecessor, then runs 2 s: 2 + 2 = 4
        assert res.start_s[1] == pytest.approx(2.0)
        assert res.completion_s[1] == pytest.approx(4.0)
        assert not res.missed[1]

    def test_shared_server_proportional_slowdown(self):
        # two equal tasks sharing one host get u = 0.5 each: half rate
        cluster = [host()]
        profiles = [
            TaskProfile(0, "SOFT", 10**9, 10.0, 10.0, 1),
            TaskProfile(1, "SOFT", 10**9, 10.0, 10.0, 1),
        ]
        jobs = [Job(0, 0, 0.0, 10.0, 10**9), Job(1, 0, 0.0, 10.0, 10**9)]
        alloc = Allocation(dvfs=(1,), shares=((100,), (100,)))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        assert res.completion_s == pytest.approx((2.0, 2.0))  # 1 s of work at half rate

    def test_fork_join_completion_is_slowest_subtask(self):
        # split 50/50 over a 1 GHz and a 2 GHz host, alone on both:
        # the 1 GHz half dominates -> 0.5e-9 s/instruction overall
        cluster = [host(1e9), host(2e9)]
        profiles = [TaskProfile(0, "SOFT", 2 * 10**9, 10.0, 10.0, 1)]
        jobs = [Job(0, 0, 0.0, 10.0, 2 * 10**9)]
        alloc = Allocation(dvfs=(1, 1), shares=((50, 50),))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        assert res.completion_s == pytest.approx((1.0,))

    def test_control_abort_truncates_executed_work(self):
        cluster = [host()]
        profiles = [TaskProfile(0, "CTRL", 2 * 10**9, 1.0, 1.0, 1, skip=2)]
        jobs = [Job(0, 0, 0.0, 1.0, 2 * 10**9)]  # needs 2 s, deadline at 1 s
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        assert res.aborted == res.missed == (True,)
        assert res.completion_s == pytest.approx((2.0,))  # would-be completion
        # only the half executed before the deadline counts
        [server] = res.per_server
        assert server.executed_instructions == pytest.approx(1e9)
        assert res.control_aborts == 1
        assert res.lam == 1


class TestConservation:
    def test_work_conservation_without_aborts(self, rng):
        cluster = [host(1e9), host(2e9)]
        profiles = [
            TaskProfile(0, "SOFT", 10**8, 1.0, 50.0, 20),
            TaskProfile(1, "SOFT", 10**8, 1.0, 50.0, 20),
        ]
        jobs = []
        for tid in (0, 1):
            t = 0.0
            for j in range(20):
                t += float(rng.uniform(0.05, 0.3))
                jobs.append(Job(tid, j, t, t + 50.0, int(rng.integers(10**7, 10**8))))
        alloc = Allocation(dvfs=(1, 1), shares=((70, 30), (20, 80)))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        total_work = sum(j.work_instructions for j in jobs)
        executed = sum(s.executed_instructions for s in res.per_server)
        assert executed == pytest.approx(total_work, rel=1e-9)

    def test_fast_path_matches_full_evaluation(self, rng):
        cluster = [host(1e9, n_modes=3), host(1.5e9, n_modes=3)]
        profiles = [
            TaskProfile(0, "REAL", 10**8, 1.0, 1.0, 10),
            TaskProfile(1, "CTRL", 10**8, 1.0, 1.0, 10, skip=2),
            TaskProfile(2, "SOFT", 10**8, 1.0, 0.5, 10),
        ]
        jobs = []
        for p in profiles:
            t = 0.0
            for j in range(10):
                t += float(rng.uniform(0.2, 1.5))
                jobs.append(Job(p.task_id, j, t, t + p.deadline_s, int(rng.integers(10**7, 2 * 10**8))))
        trace = trace_of(jobs)
        for _ in range(25):
            dvfs = tuple(int(rng.integers(1, 4)) for _ in cluster)
            rows = []
            for p in profiles:
                if p.kind == "REAL":
                    k = int(rng.integers(0, 2))
                    rows.append(tuple(100 if i == k else 0 for i in range(2)))
                else:
                    a = int(rng.integers(0, 101))
                    rows.append((a, 100 - a))
            alloc = Allocation(dvfs=dvfs, shares=tuple(rows))
            full = evaluate_allocation(cluster, profiles, trace, alloc)
            assert evaluate_objectives(cluster, profiles, trace, alloc) == (
                full.lam, full.energy_j, full.energy_units)

    def test_deterministic(self):
        cluster = [host()]
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 5)]
        jobs = [Job(0, j, 0.3 * j, 0.3 * j + 1.0, 10**8) for j in range(5)]
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        r1 = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        r2 = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        assert r1 == r2


@functools.lru_cache(maxsize=None)
def bundled(name):
    s = load_scenario(str(FIXTURES / f"scenario_{name}.json"), seed=1)
    trace = generate_jobs(s.profiles, 1, s.phase_policy)
    return s, trace, trace_arrays(s.profiles, trace)


class TestEvaluatorsAgree:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(["intel", "amd"]),
        form=st.sampled_from(DYN_ENERGY_FORMS),
    )
    def test_objectives_equal_full_evaluation_on_bundled_scenarios(self, data, name, form):
        s, trace, arr = bundled(name)
        cluster, profiles = list(s.cluster), list(s.profiles)
        modes = [data.draw(st.integers(1, len(h.spec.modes))) for h in cluster]
        n_shares = len(profiles) * len(cluster)
        shares = data.draw(
            st.lists(st.integers(0, 100), min_size=n_shares, max_size=n_shares)
        )
        alloc = decode(modes + shares, profiles, cluster)
        kw = {"soft_constraints": s.soft_constraints, "dyn_energy_form": form}
        full = evaluate_allocation(cluster, profiles, trace, alloc, **kw)
        assert evaluate_objectives(cluster, profiles, trace, alloc, **kw) == (
            full.lam, full.energy_j, full.energy_units)


def reference_starts(res, trace, profiles):
    """Each job's start as the FIFO recursion defines it: its arrival, or its
    predecessor's end (its completion, capped at its deadline for a control
    task) if later; from the result's completions, job by job."""
    is_ctrl = {p.task_id: p.kind == "CTRL" for p in profiles}
    starts, prev_end, prev_task = [], None, None
    for tid, arrival, deadline, completion in zip(
            res.task_id, trace.arrival_s.tolist(), trace.deadline_s.tolist(), res.completion_s):
        starts.append(arrival if tid != prev_task else max(arrival, prev_end))
        prev_end = min(completion, deadline) if is_ctrl[tid] else completion
        prev_task = tid
    return starts


class TestJobStarts:
    """``evaluate_allocation`` reports the start the scan used, not one
    recomputed from the completion, which can round to before the arrival."""

    @pytest.mark.parametrize("name", ["intel", "amd"])
    def test_starts_follow_the_fifo_recursion(self, name):
        s, trace, _ = bundled(name)
        cluster, profiles = list(s.cluster), list(s.profiles)
        m, n = len(cluster), len(profiles)
        # Every task on host 0 at mode 1 (the overloaded golden case), then
        # random allocations.
        allocs = [Allocation((1,) * m, ((100,) + (0,) * (m - 1),) * n)]
        rng = np.random.default_rng(1)
        allocs += [decode([int(rng.integers(1, len(h.spec.modes) + 1)) for h in cluster]
                          + rng.integers(0, 101, n * m).tolist(), profiles, cluster)
                   for _ in range(20)]
        for alloc in allocs:
            res = evaluate_allocation(cluster, profiles, trace, alloc,
                                      soft_constraints=s.soft_constraints)
            assert list(res.start_s) == reference_starts(res, trace, profiles)
            assert (np.array(res.start_s) >= trace.arrival_s).all()


@st.composite
def random_instance(draw, min_tasks=1):
    """A small cluster whose hosts have 1-4 modes each, ``min_tasks`` to 12 tasks
    of every kind (past numpy's 8-element pairwise-sum unroll) with uneven job counts,
    a jittered trace whose tight control deadlines force aborts, and 2-6
    decoded allocations whose share genes are often zero (whole rows included)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cluster = [
        host(f_hz=draw(st.sampled_from([5e8, 1e9, 2e9])), n_modes=draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    kinds = draw(st.lists(st.sampled_from(["REAL", "CTRL", "SOFT"]), min_size=min_tasks,
                          max_size=12))
    profiles, jobs, soft = [], [], {}
    for t, kind in enumerate(kinds):
        n_jobs = draw(st.integers(1, 8))
        period = float(rng.choice([0.5, 1.0, 2.0]))
        profiles.append(TaskProfile(t, kind, int(rng.integers(10**7, 10**9)), period, period, n_jobs))
        for j in range(n_jobs):
            arrival = j * period + float(rng.uniform(0.0, period))
            deadline = arrival + period * float(rng.choice([0.1, 0.5, 1.0]))
            work = 0 if rng.random() < 0.1 else int(rng.integers(1, 2 * 10**9))
            jobs.append(Job(t, j, arrival, deadline, work))
        if kind == "SOFT":
            soft[t] = (LatenessConstraint(float(rng.choice([0.0, 0.1])),
                                          float(rng.choice([0.0, 0.2, 0.5]))),)
    n_genes = len(profiles) * len(cluster)
    allocs = [
        decode(
            [int(rng.integers(1, len(h.spec.modes) + 1)) for h in cluster]
            + [int(g) if rng.random() < 0.5 else 0 for g in rng.integers(0, 101, n_genes)],
            profiles,
            cluster,
        )
        for _ in range(draw(st.integers(2, 6)))
    ]
    return cluster, profiles, trace_of(jobs), soft, allocs


class TestPopulationBatch:
    @settings(max_examples=150, deadline=None)
    @given(instance=random_instance(), form=st.sampled_from(DYN_ENERGY_FORMS))
    def test_batch_equals_one_by_one_on_random_traces(self, instance, form):
        cluster, profiles, trace, soft, allocs = instance
        kw = {"soft_constraints": soft, "dyn_energy_form": form}
        block = stack(allocs, profiles, cluster)
        batch = evaluate_objectives(cluster, profiles, trace, block, **kw)
        assert batch == [
            evaluate_objectives(cluster, profiles, trace, a, **kw) for a in allocs
        ]
        prepared = _prepare(cluster, profiles, trace, **kw)
        assert evaluate_objectives(cluster, profiles, trace, block, _context=prepared) == batch

    @settings(max_examples=100, deadline=None)
    @given(instance=random_instance(), seed=st.integers(0, 2**32 - 1))
    def test_scan_population_matches_scan_jobs(self, instance, seed):
        _, profiles, trace, _, _ = instance
        arr = trace_arrays(profiles, trace)
        rng = np.random.default_rng(seed)
        dur_coef = rng.uniform(1e-10, 3e-9, (4, len(profiles)))
        completion, executed = scan_population(arr.scan, dur_coef)
        for p in range(4):
            want_completion, want_frac = np.empty_like(arr.arrivals), np.empty_like(arr.arrivals)
            scan_jobs(arr.arrivals, arr.deadlines, arr.works, arr.task_of_job, dur_coef[p],
                      arr.is_ctrl, want_completion, np.empty_like(arr.arrivals), want_frac)
            assert np.array_equal(completion[p, arr.task_of_job, arr.slot], want_completion)
            want_executed = np.bincount(
                arr.task_of_job, weights=arr.works * want_frac, minlength=len(profiles)
            )
            assert np.array_equal(executed[p], want_executed)

    def test_block_of_one_returns_a_list(self):
        s, trace, arr = bundled("amd")
        alloc = decode([1, 1, 1] + [100, 0, 0] * len(s.profiles), s.profiles, s.cluster)
        single = evaluate_objectives(s.cluster, s.profiles, trace, alloc)
        one, empty = (stack(allocs, s.profiles, s.cluster) for allocs in ([alloc], []))
        assert evaluate_objectives(s.cluster, s.profiles, trace, one) == [single]
        assert evaluate_objectives(s.cluster, s.profiles, trace, empty) == []


@st.composite
def repaired_block(draw):
    """A ``random_instance`` with distinct server ids and a valid block: random
    in-range modes and shares that ``nsga._repair`` made of random share genes."""
    cluster, profiles, trace, soft, _ = draw(random_instance())
    cluster = [dataclasses.replace(h, spec=dataclasses.replace(h.spec, server_id=10 + i))
               for i, h in enumerate(cluster)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, n, m = draw(st.integers(1, 8)), len(profiles), len(cluster)
    modes = np.column_stack([rng.integers(1, len(h.spec.modes) + 1, u) for h in cluster])
    genes = rng.integers(0, draw(st.sampled_from([2, 4, 101])), (u, m + n * m))
    shares = _repair(genes, m, np.array([p.kind == "REAL" for p in profiles]))
    return cluster, profiles, trace, soft, modes, shares


def named(message):
    """The servers and tasks an error message names."""
    return re.findall(r"\b(?:server|task) -?\d+", message)


class TestBlockCheck:
    @settings(max_examples=100, deadline=None)
    @given(instance=repaired_block())
    def test_repaired_block_scores_equal_one_by_one(self, instance):
        cluster, profiles, trace, soft, modes, shares = instance
        batch = evaluate_objectives(cluster, profiles, trace, (modes, shares),
                                    soft_constraints=soft)
        assert batch == [
            evaluate_objectives(cluster, profiles, trace, row_allocation(modes, shares, u),
                                soft_constraints=soft)
            for u in range(len(modes))
        ]

    @settings(max_examples=300, deadline=None)
    @given(instance=repaired_block(), data=st.data())
    def test_invalid_block_names_what_validate_allocation_names(self, instance, data):
        cluster, profiles, trace, soft, modes, shares = instance
        n, m = len(profiles), len(cluster)
        u = data.draw(st.integers(0, len(modes) - 1), label="row")
        t = data.draw(st.integers(0, n - 1), label="task")
        real = [i for i, p in enumerate(profiles) if p.kind == "REAL"]
        cases = ["mode", "negative-share", "sum", "float-modes", "float-shares",
                 "shape"] + ["real-split"] * bool(real and m >= 2)
        case = data.draw(st.sampled_from(cases), label="case")
        k = data.draw(st.integers(1, 50), label="delta")
        if case == "mode":
            j = data.draw(st.integers(0, m - 1), label="server")
            modes[u, j] = data.draw(st.sampled_from([0, -k, len(cluster[j].spec.modes) + k]))
        elif case == "negative-share":
            shares[u, t] = 0
            shares[u, t, -1] = 100 + k
            shares[u, t, 0] = -k  # with one host, the row is just [-k]
        elif case == "sum":
            shares[u, t, data.draw(st.integers(0, m - 1), label="server")] += k
        elif case == "real-split":
            t = data.draw(st.sampled_from(real), label="real task")
            shares[u, t] = 0
            shares[u, t, :2] = (k, 100 - k)
        elif case == "float-modes":
            modes = modes.astype(float)
        elif case == "float-shares":
            shares = shares.astype(float)
        else:
            modes, shares = data.draw(st.sampled_from([  # a server, a task, a share column short
                (modes[:, :-1], shares), (modes, shares[:, :-1]), (modes, shares[:, :, :-1]),
            ]), label="shapes")
        if case in ("mode", "negative-share", "sum", "real-split") and data.draw(st.booleans()):
            modes[u + 1:, 0] = 0  # later rows are bad too; the block names row u
        with pytest.raises(InvalidAllocationError) as block_error:
            evaluate_objectives(cluster, profiles, trace, (modes, shares), soft_constraints=soft)
        with pytest.raises(InvalidAllocationError) as row_error:
            validate_allocation(row_allocation(modes, shares, u), profiles, cluster)
        block_message, row_message = str(block_error.value), str(row_error.value)
        assert named(block_message) == named(row_message)
        if case in ("mode", "negative-share", "sum", "real-split"):
            assert block_message == (f"row {u}: " if len(modes) > 1 else "") + row_message

    def test_row_sum_that_wraps_in_int64_is_rejected(self):
        # 2 * (2**63 - 1) + 102 wraps to 100 in int64, though every share is >= 0.
        s, trace, _ = bundled("amd")
        modes, shares = stack([decode([1, 1, 1] + [100, 0, 0] * 9, s.profiles, s.cluster)] * 2,
                              s.profiles, s.cluster)
        shares[1, 4] = (2**63 - 1, 2**63 - 1, 102)
        assert shares[1, 4].sum() == 100
        with pytest.raises(InvalidAllocationError, match=r"^row 1: task 4: shares must be >= 0"):
            evaluate_objectives(s.cluster, s.profiles, trace, (modes, shares))


def assert_scan_population_matches_scan_jobs(arr, dur_coef):
    """``scan_population`` over ``dur_coef``'s rows equals ``scan_jobs`` per row, bit for bit."""
    completion, executed = scan_population(arr.scan, dur_coef)
    assert completion.flags.c_contiguous
    for p in range(dur_coef.shape[0]):
        want_completion, want_frac = np.empty_like(arr.arrivals), np.empty_like(arr.arrivals)
        scan_jobs(arr.arrivals, arr.deadlines, arr.works, arr.task_of_job, dur_coef[p],
                  arr.is_ctrl, want_completion, np.empty_like(arr.arrivals), want_frac)
        assert completion[p, arr.task_of_job, arr.slot].tobytes() == want_completion.tobytes()
        want_executed = np.bincount(
            arr.task_of_job, weights=arr.works * want_frac, minlength=len(arr.task_ids)
        )
        assert executed[p].tobytes() == want_executed.tobytes()
    return completion, executed


def abort_prone_coef(profiles, rng, n_rows):
    """Seconds per instruction putting a mean job's duration at 0.3-3 relative deadlines."""
    per_deadline = np.array([p.deadline_s / p.n_instructions
                             for p in sorted(profiles, key=lambda p: p.task_id)])
    return per_deadline * rng.uniform(0.3, 3.0, (n_rows, len(profiles)))


def queue_prone_coef(arr, rng, n_rows):
    """Seconds per instruction putting a mean job's duration at 1-3 times its
    task's smallest inter-arrival gap, so that jobs queue behind each other."""
    smallest_gap = np.array([np.diff(arr.arrivals[jobs]).min() for jobs in arr.task_jobs])
    return smallest_gap / arr.n_mean * rng.uniform(1.0, 3.0, (n_rows, len(arr.task_ids)))


def with_idle_tasks(profiles, jobs, n_idle):
    """``trace_arrays`` of ``jobs`` plus ``n_idle`` one-job tasks that never
    queue: each is one more (member, task) column beside the queued ones."""
    idle = range(len(profiles), len(profiles) + n_idle)
    profiles = profiles + [TaskProfile(t, "SOFT", 10**9, 1.0, 1.0, 1) for t in idle]
    jobs = jobs + [Job(t, 0, 0.0, 1.0, 0) for t in idle]
    return trace_arrays(profiles, trace_of(jobs))


class TestScanPopulationLongTraces:
    """Traces past numpy's 8- and 128-element pairwise-sum blocks, where an
    addition order other than job order would show."""

    @pytest.mark.parametrize("name", ["intel", "amd"])
    @pytest.mark.parametrize("n_rows", [1, 7, 100])
    @pytest.mark.parametrize("traffic", ["abort-prone", "queue-prone"])
    def test_matches_scan_jobs_on_bundled_trace(self, name, n_rows, traffic):
        s, _, arr = bundled(name)
        assert arr.scan.arrivals.shape[1] == 131
        rng = np.random.default_rng(0)
        if traffic == "abort-prone":
            dur_coef = abort_prone_coef(s.profiles, rng, n_rows)
        else:
            dur_coef = queue_prone_coef(arr, rng, n_rows)
        completion, _ = assert_scan_population_matches_scan_jobs(arr, dur_coef)
        completion = completion[:, arr.task_of_job, arr.slot]
        if traffic == "abort-prone":
            aborted = (completion > arr.deadlines)[:, arr.is_ctrl[arr.task_of_job]]
            assert aborted.any() and not aborted.all()
        else:  # every REAL job after its task's first waits for its predecessor
            kinds = [p.kind for p in sorted(s.profiles, key=lambda p: p.task_id)]
            real = [jobs for jobs, kind in zip(arr.task_jobs, kinds) if kind == "REAL"]
            assert real and all(
                (completion[:, jobs][:, :-1] > arr.arrivals[jobs][1:]).all() for jobs in real
            )

    @pytest.mark.parametrize("kind", ["REAL", "CTRL", "SOFT"])
    @pytest.mark.parametrize("n_rows", [1, 2])
    def test_single_task_of_131_jobs(self, kind, n_rows):
        rng = np.random.default_rng(7)
        profiles = [TaskProfile(0, kind, 10**8, 0.1, 0.1, 131)]
        jobs = [Job(0, j, 0.1 * j, 0.1 * j + 0.1, int(rng.integers(1, 3 * 10**8)))
                for j in range(131)]
        arr = trace_arrays(profiles, trace_of(jobs))
        assert_scan_population_matches_scan_jobs(arr, abort_prone_coef(profiles, rng, n_rows))

    def test_completion_at_the_deadline_is_not_an_abort(self):
        # Job 0 ends exactly at its deadline and runs in full; job 1 starts
        # there, needs 1 s, has 0.5 s left and runs half.
        profiles = [TaskProfile(0, "CTRL", 10**9, 1.0, 2.0, 2)]
        jobs = [Job(0, 0, 0.0, 2.0, 2 * 10**9), Job(0, 1, 1.0, 2.5, 10**9)]
        arr = trace_arrays(profiles, trace_of(jobs))
        completion, executed = assert_scan_population_matches_scan_jobs(
            arr, np.full((2, 1), 1e-9)
        )
        assert completion[:, 0, :].tolist() == [[2.0, 3.0]] * 2
        assert executed[:, 0].tolist() == [2.5e9] * 2

    @pytest.mark.parametrize("n_idle", [0, 3], ids=["alone", "beside-idle-tasks"])
    def test_head_reached_by_an_earlier_chain(self, n_idle):
        # Sweep ends 1.5, 1.8, 3.2, 3.5: jobs 1 and 3 are heads.  Job 1's new
        # end (2.3) makes job 2 wait, whose new end (3.5) puts job 3 in a third
        # wave: four recomputations, job 3 twice.
        profiles = [TaskProfile(0, "SOFT", 10**9, 1.0, 1.0, 4)]
        works = [1.5e9, 0.8e9, 1.2e9, 0.5e9]
        jobs = [Job(0, j, float(j), j + 5.0, int(w)) for j, w in enumerate(works)]
        arr = with_idle_tasks(profiles, jobs, n_idle)
        completion, executed = assert_scan_population_matches_scan_jobs(
            arr, np.full((1, 1 + n_idle), 1e-9)
        )
        assert completion[0, 0, :].tolist() == pytest.approx([1.5, 2.3, 3.5, 4.0])
        assert executed[0, 0] == sum(works)

    @pytest.mark.parametrize("n_idle", [0, 2], ids=["alone", "beside-idle-tasks"])
    def test_chain_cut_by_a_control_abort(self, n_idle):
        # Jobs 1 and 2 wait; job 2 would complete at 4.5 but aborts at its
        # deadline 2.9, before job 3 arrives, so job 3 starts on time and
        # its own chain (job 4 waits) stands apart.
        profiles = [TaskProfile(0, "CTRL", 10**9, 1.0, 1.5, 5)]
        spec = [(0.0, 1.5, 1.5e9), (1.0, 2.6, 1.0e9), (2.0, 2.9, 2.0e9),
                (3.0, 4.5, 1.2e9), (4.0, 5.5, 0.5e9)]
        jobs = [Job(0, j, a, d, int(w)) for j, (a, d, w) in enumerate(spec)]
        arr = with_idle_tasks(profiles, jobs, n_idle)
        completion, executed = assert_scan_population_matches_scan_jobs(
            arr, np.full((1, 1 + n_idle), 1e-9)
        )
        assert completion[0, 0, :].tolist() == pytest.approx([1.5, 2.5, 4.5, 4.2, 4.7])
        assert executed[0, 0] == pytest.approx(1.5e9 + 1.0e9 + 0.4e9 + 1.2e9 + 0.5e9)

    @pytest.mark.parametrize("n_idle", [0, 2], ids=["alone", "beside-idle-tasks"])
    def test_chain_into_a_padded_tail(self, n_idle):
        # Task 0 (3 jobs) queues to its last job, whose successor slots are
        # padding; task 1 (6 jobs) has a chain of two in the middle.
        profiles = [TaskProfile(0, "REAL", 10**9, 1.0, 1.0, 3),
                    TaskProfile(1, "SOFT", 10**9, 0.5, 1.0, 6)]
        jobs = [Job(0, j, float(j), j + 10.0, 2 * 10**9) for j in range(3)]
        works = [0.4e9, 0.2e9, 1.0e9, 0.2e9, 0.2e9, 0.2e9]
        jobs += [Job(1, j, 0.5 * j, 0.5 * j + 10.0, int(w)) for j, w in enumerate(works)]
        arr = with_idle_tasks(profiles, jobs, n_idle)
        assert arr.scan.arrivals.shape == (2 + n_idle, 6)
        completion, _ = assert_scan_population_matches_scan_jobs(
            arr, np.full((1, 2 + n_idle), 1e-9)
        )
        assert completion[0, 0, :3].tolist() == pytest.approx([2.0, 4.0, 6.0])
        assert completion[0, 1, :].tolist() == pytest.approx([0.4, 0.7, 2.0, 2.2, 2.4, 2.7])

    @pytest.mark.parametrize("kind", ["REAL", "CTRL"])
    @pytest.mark.parametrize("n_rows", [1, 50])
    def test_whole_queue_of_1000_jobs_waits(self, kind, n_rows):
        # Each job arrives 0.1 s after its predecessor and runs 0.15-0.3 s, so
        # every job after the first waits: one chain from job 1, K - 1 waves.
        # A CTRL job's deadline (arrival + 0.2 s) aborts some jobs mid-chain.
        rng = np.random.default_rng(11)
        profiles = [TaskProfile(0, kind, 10**8, 0.1, 0.2, 1000)]
        jobs = [Job(0, j, 0.1 * j, 0.1 * j + 0.2, 10**8) for j in range(1000)]
        arr = trace_arrays(profiles, trace_of(jobs))
        dur_coef = rng.uniform(1.5e-9, 3e-9, (n_rows, 1))
        completion, _ = assert_scan_population_matches_scan_jobs(arr, dur_coef)
        assert (completion[:, 0, :-1] > arr.arrivals[1:]).all()

    def test_zero_work_jobs(self):
        # Task 0 (CTRL): job 1 does nothing and is released after its
        # deadline; task 1 (SOFT) has a zero-work job between two others.
        profiles = [TaskProfile(0, "CTRL", 10**9, 1.0, 1.0, 3),
                    TaskProfile(1, "SOFT", 10**9, 1.0, 1.0, 3)]
        jobs = [Job(0, 0, 0.0, 1.0, 3 * 10**9), Job(0, 1, 0.5, 0.8, 0),
                Job(0, 2, 2.0, 3.0, 10**9),
                Job(1, 0, 0.0, 1.0, 10**9), Job(1, 1, 0.5, 1.5, 0), Job(1, 2, 1.0, 2.0, 10**9)]
        arr = trace_arrays(profiles, trace_of(jobs))
        completion, executed = assert_scan_population_matches_scan_jobs(
            arr, np.array([[1e-9, 1e-9], [2e-9, 5e-10]])
        )
        assert completion[0, 0, :].tolist() == [3.0, 1.0, 3.0]
        assert executed[0].tolist() == [2e9, 2e9]


class TestScanTailWhereLate:
    """Only (member, control column) pairs holding a late job get fractions;
    every other column executes the per-trace sum of its works."""

    @staticmethod
    def on_time_coef(arr, rng, n_rows):
        """Seconds per instruction putting every job's duration under half its
        relative deadline, so no job of any task is late."""
        slack = (arr.deadlines - arr.arrivals) / np.maximum(arr.works, 1.0)
        fastest = np.array([slack[jobs].min() for jobs in arr.task_jobs])
        return fastest * rng.uniform(0.1, 0.5, (n_rows, len(arr.task_ids)))

    @pytest.mark.parametrize("n_rows", [1, 100])
    def test_members_late_on_one_control_column_and_members_on_time(self, n_rows):
        _, _, arr = bundled("intel")
        ctrl = np.flatnonzero(arr.is_ctrl)
        assert len(ctrl) >= 2
        rng = np.random.default_rng(3)
        on_time = self.on_time_coef(arr, rng, n_rows)
        mixed = on_time.copy()
        late_rows = np.arange(n_rows) % 3 == 0  # row 0 and every third row
        # A mean job of the first control task takes 2-3 relative deadlines.
        task = arr.profiles[ctrl[0]]
        mixed[late_rows, ctrl[0]] = (task.deadline_s / task.n_instructions
                                     * rng.uniform(2.0, 3.0, late_rows.sum()))
        for dur_coef, want_late in ((mixed, late_rows), (on_time, np.zeros(n_rows, bool))):
            completion, _ = assert_scan_population_matches_scan_jobs(arr, dur_coef)
            late = (completion > arr.scan.deadlines).any(axis=2)  # [P, T]
            assert late[:, ctrl[0]].tolist() == want_late.tolist()
            assert not late[:, ctrl[1:]].any() and not late[:, ~arr.is_ctrl].any()


def task_instructions(cluster, profiles, trace, alloc):
    """Instructions each task executed under ``alloc`` and its utilization
    ``[task, server]``: the reference per-job scan at each task's seconds per
    instruction, ``CPI * share / (f * u)`` on its slowest server."""
    arr = trace_arrays(profiles, trace)
    shares = np.array(alloc.shares, dtype=np.float64) / 100.0
    weights = shares * arr.n_mean[:, None]
    col = weights.sum(axis=0)
    u = np.divide(weights, col, out=np.zeros_like(weights), where=col > 0)
    freq = np.array([h.spec.mode(k).frequency_hz for h, k in zip(cluster, alloc.dvfs)])
    cpi = np.array([h.spec.cpi for h in cluster])
    with np.errstate(divide="ignore", invalid="ignore"):
        per_server = np.where(shares > 0, cpi * shares / (freq * u), 0.0)
    completion, frac = np.empty_like(arr.arrivals), np.empty_like(arr.arrivals)
    scan_jobs(arr.arrivals, arr.deadlines, arr.works, arr.task_of_job, per_server.max(axis=1),
              arr.is_ctrl, completion, np.empty_like(arr.arrivals), frac)
    executed = np.bincount(arr.task_of_job, weights=arr.works * frac, minlength=len(profiles))
    return executed, u


class TestServerEnergyMatchesPowerModel:
    """Each server's energy and busy time equal the power model's formulas."""

    @staticmethod
    def assert_server_matches(server, h, terms, form):
        spec, mode = h.spec, h.spec.mode(server.mode_index)
        n_exec = server.executed_instructions
        assert server.dynamic_energy_j == pytest.approx(
            dynamic_energy(spec, mode, terms, form), rel=1e-12, abs=0.0
        )
        assert server.leakage_energy_j == pytest.approx(
            leakage_energy(spec, mode, h.thermal, n_exec), rel=1e-12, abs=0.0
        )
        assert server.busy_time_s == pytest.approx(
            n_exec * spec.cpi / mode.frequency_hz, rel=1e-12, abs=0.0
        )

    @settings(max_examples=60, deadline=None)
    @given(
        instance=random_instance(),
        form=st.sampled_from(DYN_ENERGY_FORMS),
        policy=st.sampled_from(["max", "min"]),
        idle_modes=st.integers(1, 4),
    )
    def test_evaluate_allocation_and_edf_schedule(self, instance, form, policy, idle_modes):
        cluster, profiles, trace, soft, allocs = instance
        # One more server that gets no share: zero work, zero energy.
        cluster = cluster + [host(n_modes=idle_modes)]
        alloc = Allocation(
            allocs[0].dvfs + (idle_modes,), tuple(row + (0,) for row in allocs[0].shares)
        )
        res = evaluate_allocation(cluster, profiles, trace, alloc, dyn_energy_form=form)
        executed, u = task_instructions(cluster, profiles, trace, alloc)
        shares = np.array(alloc.shares) / 100.0
        for m, (server, h) in enumerate(zip(res.per_server, cluster)):
            terms = list(zip(u[:, m].tolist(), (shares[:, m] * executed).tolist()))
            self.assert_server_matches(server, h, terms, form)
        assert res.per_server[-1].executed_instructions == 0.0

        # EDF's placement: each task's whole share on its host, u its share of
        # the host's n_instructions, n the instructions its jobs ran there.
        edf_host, ran = sim._edf_host, {}

        def spy(tasks, *args):
            executed, per_task = edf_host(tasks, *args)
            ran.update((int(trace.task_id[span.start]), n) for (span, _), n in zip(tasks, per_task))
            return executed, per_task

        with pytest.MonkeyPatch.context() as m:
            m.setattr(sim, "_edf_host", spy)
            edf = edf_schedule(cluster, profiles, trace, dvfs_policy=policy, dyn_energy_form=form)
        on = dict(edf.task_servers)
        for mi, (server, h) in enumerate(zip(edf.per_server, cluster)):
            local = [p for p in profiles if on[p.task_id] == (mi,)]
            total = sum(p.n_instructions for p in local)
            terms = [(p.n_instructions / total, ran[p.task_id]) for p in local]
            self.assert_server_matches(server, h, terms, form)


class TestTraceMatchesProfiles:
    PROFILES = [
        TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1),
        TaskProfile(1, "SOFT", 10**8, 1.0, 1.0, 1),
    ]
    ALLOC = Allocation(dvfs=(1,), shares=((100,), (100,)))

    @pytest.mark.parametrize(
        "task_ids,culprit",
        [((0,), r"no jobs of task\(s\) \[1\]"), ((0, 1, 7), r"unknown task\(s\) \[7\]")],
        ids=["task-without-jobs", "unknown-task-id"],
    )
    @pytest.mark.parametrize(
        "evaluate",
        [
            evaluate_objectives,
            evaluate_allocation,
            pytest.param(
                lambda cluster, profiles, trace, _alloc: edf_schedule(cluster, profiles, trace),
                id="edf_schedule",
            ),
        ],
    )
    def test_both_evaluators_raise_the_same_error(self, evaluate, task_ids, culprit):
        jobs = [Job(t, 0, 0.0, 1.0, 10**8) for t in task_ids]
        with pytest.raises(InvalidArgumentError, match=culprit):
            evaluate([host()], self.PROFILES, trace_of(jobs), self.ALLOC)


class TestEnergyAccounting:
    def test_energy_matches_hand_formula(self):
        cluster = [host()]
        spec = cluster[0].spec
        profiles = [TaskProfile(0, "SOFT", 10**9, 10.0, 10.0, 1)]
        jobs = [Job(0, 0, 0.0, 10.0, 10**9)]
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        [server] = res.per_server
        mode = spec.mode(1)
        # u=1, n=1e9 executed
        dyn = spec.a_dyn * mode.voltage_v**2 * spec.cpi * 1.0 * 1e9 / 1e9
        from greensched.power import leakage_power

        leak = (
            leakage_power(spec, mode, cluster[0].thermal)
            * spec.cpi
            / mode.frequency_hz
            * 1e9
        )
        assert server.dynamic_energy_j == pytest.approx(dyn, rel=1e-12)
        assert server.leakage_energy_j == pytest.approx(leak, rel=1e-12)
        assert res.energy_j == pytest.approx(dyn + leak, rel=1e-12)

    def test_unknown_dyn_energy_form_rejected(self):
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1)]
        jobs = [Job(0, 0, 0.0, 1.0, 10**8)]
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        with pytest.raises(InvalidArgumentError, match="as-writen"):
            evaluate_allocation(
                [host()], profiles, trace_of(jobs), alloc, dyn_energy_form="as-writen"
            )


def reference_total_energy(dynamic_j, leakage_j):
    """Each member's joules as ``evaluate_objectives`` summed them host by host
    before the one accumulate (verbatim loop)."""
    energy = np.zeros(len(dynamic_j))
    for m in range(dynamic_j.shape[1]):  # host by host: dynamic, then leakage
        energy += dynamic_j[:, m]
        energy += leakage_j[:, m]
    return energy


class TestTotalEnergyMatchesHostLoop:
    """The accumulate over interleaved ``[dyn_0, leak_0, dyn_1, ...]`` columns
    adds in the host loop's order, so its sums are bit for bit the loop's."""

    @pytest.mark.parametrize("n_hosts", [1, 2, 6, 9])
    def test_random_blocks(self, n_hosts):
        rng = np.random.default_rng(n_hosts)
        for n_rows in (1, 2, 7, 100):
            # Joules over 26 decades, so that the order of the additions shows.
            dynamic_j, leakage_j = 10.0 ** rng.uniform(-13, 13, (2, n_rows, n_hosts))
            idle = rng.random((n_rows, n_hosts)) < 0.3  # hosts that execute nothing
            dynamic_j[idle] = leakage_j[idle] = 0.0
            dynamic_j[rng.random((n_rows, n_hosts)) < 0.1] = -0.0
            want = reference_total_energy(dynamic_j, leakage_j)
            got = np.array(sim._total_energy(dynamic_j, leakage_j))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, n_hosts, n_idle", [
        ("amd", 1, 0), ("amd", 3, 2), ("intel", 1, 0), ("intel", 6, 0), ("intel", 6, 5),
    ])
    def test_evaluate_objectives_on_bundled_scenarios(self, name, n_hosts, n_idle):
        # The scenario's first n_hosts hosts, every task off the last n_idle
        # of them, which then execute nothing.
        s, trace, _ = bundled(name)
        cluster = s.cluster[:n_hosts]
        m, n = len(cluster), len(s.profiles)
        rng = np.random.default_rng(n_idle)
        modes = np.column_stack([rng.integers(1, len(h.spec.modes) + 1, 20) for h in cluster])
        genes = rng.integers(0, 101, (20, m + n * m))
        genes[:, m:].reshape(20, n, m)[:, :, m - n_idle:] = 0
        ordered = sorted(s.profiles, key=lambda p: p.task_id)
        shares = _repair(genes, m, np.array([p.kind == "REAL" for p in ordered]))
        ctx = _prepare(cluster, s.profiles, trace, s.soft_constraints)
        _, dynamic_j, leakage_j, executed, *_ = sim._run(ctx, modes, shares)
        assert (executed[:, m - n_idle:] == 0).all() and (executed[:, : m - n_idle] > 0).any()
        scores = evaluate_objectives(cluster, s.profiles, trace, (modes, shares), _context=ctx)
        want = reference_total_energy(dynamic_j, leakage_j)
        assert np.array([e for _, e, _ in scores]).tobytes() == want.tobytes()


def reference_server_sums(x):
    """``[P, task, server]`` -> ``[P, server]`` sums over tasks as ``sim._run``
    took them before it built its products in that order (verbatim)."""
    return np.ascontiguousarray(x.transpose(0, 2, 1)).sum(axis=2)


def reference_soft_counts(ctx, completion):
    """Per-task soft violations as ``_task_counts`` counted them with
    ``np.add.at`` before its one-hot matmul (verbatim)."""
    arr = ctx.arr
    n_late = (completion > arr.scan.deadlines).sum(axis=2)
    n_over, rest = n_late[:, ctx.soft_task], ctx.soft_task[ctx.n_x0:]
    if len(rest):
        over = completion[:, rest] - arr.scan.deadlines[rest] > ctx.soft_x[ctx.n_x0:, None]
        n_over[:, ctx.n_x0:] = over.sum(axis=2)
    soft = np.zeros_like(n_late)
    np.add.at(soft, (slice(None), ctx.soft_task),
              n_over / arr.n_jobs[ctx.soft_task] > ctx.soft_beta)
    return soft


class TestScoringCoreEqualsReference:
    """The scoring core's energy sums and soft counts against the reference
    forms above, bit for bit, on more than 8 tasks (where numpy's pairwise
    sum unrolls, so a reordered sum shows) and two bounds per SOFT task."""

    @settings(max_examples=60, deadline=None)
    @given(
        instance=random_instance(min_tasks=9),
        form=st.sampled_from(DYN_ENERGY_FORMS),
        xs=st.tuples(*[st.sampled_from([0.0, 0.1, 0.25])] * 2),
        beta=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_blocks_and_single_allocations(self, instance, form, xs, beta):
        cluster, profiles, trace, _, allocs = instance
        soft = {p.task_id: tuple(LatenessConstraint(x, beta) for x in xs)
                for p in profiles if p.kind == "SOFT"}
        kw = {"soft_constraints": soft, "dyn_energy_form": form}
        ctx = _prepare(cluster, profiles, trace, **kw)
        modes, shares = stack(allocs, profiles, cluster)
        _, dynamic_j, leakage_j, executed, u = sim._run(ctx, modes, shares)
        # Seconds per instruction of each task, as sim._run computes them.
        per_server = np.divide(ctx.cpi * (shares / 100.0),
                               ctx.tables[0, ctx.hosts, modes - 1][:, None, :] * u,
                               out=np.zeros(shares.shape), where=shares > 0)
        completion, exec_per_task = scan_population(ctx.arr.scan, per_server.max(axis=2))
        exec_im = shares / 100.0 * exec_per_task[:, :, None]
        want_executed = reference_server_sums(exec_im)
        dyn_sum = reference_server_sums(u * exec_im) if form == "as-written" else want_executed
        _, dyn, leak = ctx.tables[:, ctx.hosts, modes - 1]
        want_dynamic, want_leakage = (dyn * dyn_sum) / FREQ_NORM_HZ, leak * want_executed
        for got, want in ((executed, want_executed), (dynamic_j, want_dynamic),
                          (leakage_j, want_leakage)):
            assert got.tobytes() == want.tobytes()
        soft_counts = reference_soft_counts(ctx, completion)
        assert _task_counts(ctx, completion)[2].tolist() == soft_counts.tolist()

        scores = evaluate_objectives(cluster, profiles, trace, (modes, shares), **kw)
        assert [e for _, e, _ in scores] == reference_total_energy(want_dynamic,
                                                                  want_leakage).tolist()
        for row, alloc in enumerate(allocs):
            res = evaluate_allocation(cluster, profiles, trace, alloc, **kw)
            assert [(s.executed_instructions, s.dynamic_energy_j, s.leakage_energy_j)
                    for s in res.per_server] == list(zip(want_executed[row].tolist(),
                                                         want_dynamic[row].tolist(),
                                                         want_leakage[row].tolist()))
            assert res.soft_violations == soft_counts[row].sum()
            assert res.lam == scores[row][0]


class TestHardMissPenalty:
    def test_hard_miss_dominates_lambda(self):
        cluster = [host()]
        profiles = [TaskProfile(0, "REAL", 2 * 10**9, 1.0, 1.0, 1)]
        jobs = [Job(0, 0, 0.0, 1.0, 2 * 10**9)]  # needs 2 s, deadline 1 s
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        res = evaluate_allocation(cluster, profiles, trace_of(jobs), alloc)
        assert res.hard_misses == 1
        assert res.lam == 10**6

    def test_large_weight_is_exact_in_both_evaluators(self):
        # 10 misses x 10**18 is past int64: lambda stays an exact Python int.
        cluster = [host()]
        profiles = [TaskProfile(0, "REAL", 2 * 10**9, 1.0, 1.0, 10)]
        jobs = [Job(0, j, float(j), j + 1.0, 2 * 10**9) for j in range(10)]
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        args = (cluster, profiles, trace_of(jobs))
        lam, _, _ = evaluate_objectives(*args, alloc, hard_miss_weight=10**18)
        [batched] = evaluate_objectives(*args, stack([alloc], profiles, cluster),
                                        hard_miss_weight=10**18)
        full = evaluate_allocation(*args, alloc, hard_miss_weight=10**18)
        assert lam == batched[0] == full.lam == 10 * 10**18

    @pytest.mark.parametrize("weight", [0, -1, 2.0, True, np.int64(10)])
    def test_weight_must_be_a_positive_int_in_every_evaluator(self, weight):
        # A float weight makes lambda a float; a weight <= 0 hides hard misses.
        cluster = [host()]
        profiles = [TaskProfile(0, "REAL", 2 * 10**9, 1.0, 1.0, 1)]
        args = (cluster, profiles, trace_of([Job(0, 0, 0.0, 1.0, 2 * 10**9)]))
        alloc = Allocation(dvfs=(1,), shares=((100,),))
        for evaluate in (
            functools.partial(evaluate_objectives, *args, alloc),
            functools.partial(evaluate_allocation, *args, alloc),
            functools.partial(edf_schedule, *args),
        ):
            with pytest.raises(InvalidArgumentError, match="hard_miss_weight"):
                evaluate(hard_miss_weight=weight)


def _evolve_with(cluster, profiles, trace, soft_constraints=None, **config_fields):
    """``evolve`` with ``config_fields`` set past ``EvolveConfig``'s own checks,
    which raise ``ConfigurationError`` for the same values."""
    config = EvolveConfig(population=2, generations=1, seed=1)
    for name, value in config_fields.items():
        object.__setattr__(config, name, value)
    return evolve(cluster, profiles, trace, config, soft_constraints=soft_constraints)


EVALUATORS = {
    "objectives-empty-block": lambda cluster, profiles, trace, alloc, **kw: evaluate_objectives(
        cluster, profiles, trace, stack([], profiles, cluster), **kw),
    "objectives-one": lambda *args, alloc, **kw: evaluate_objectives(*args, alloc, **kw),
    "objectives-block-of-one": lambda cluster, profiles, trace, alloc, **kw: evaluate_objectives(
        cluster, profiles, trace, stack([alloc], profiles, cluster), **kw),
    "allocation": lambda *args, alloc, **kw: evaluate_allocation(*args, alloc, **kw),
    "edf": lambda *args, alloc, **kw: edf_schedule(*args, **kw),
    "evolve": lambda *args, alloc, **kw: _evolve_with(*args, **kw),
}

BAD_ARGUMENTS = {  # kwargs, message pattern
    "empty-soft-constraint-tuple": ({"soft_constraints": {8: ()}}, r"task\(s\) \[8\]"),
    "soft-constraints-of-an-unknown-task": (
        {"soft_constraints": {99: (LatenessConstraint(0.0, 0.1),)}}, r"task\(s\) \[99\]"
    ),
    "soft-constraints-of-a-real-task": (
        {"soft_constraints": {0: (LatenessConstraint(0.0, 0.1),)}}, r"task\(s\) \[0\]"
    ),
    "unknown-dyn-energy-form": ({"dyn_energy_form": "bogus"}, "'bogus'"),
    "zero-hard-miss-weight": ({"hard_miss_weight": 0}, "hard_miss_weight"),
    # A bare constraint raised a raw TypeError, pairs a raw AttributeError.
    "bare-soft-constraint": ({"soft_constraints": {5: LatenessConstraint(0.0, 0.1)}},
                             r"task\(s\) \[5\]"),
    "soft-constraint-pairs": ({"soft_constraints": {5: ((0.0, 0.1),)}}, r"task\(s\) \[5\]"),
    "zero-energy-unit": ({"energy_unit_j": 0.0}, "energy_unit_j"),
    "negative-energy-unit": ({"energy_unit_j": -1.0}, "energy_unit_j"),
    # inf made every energy_units 0.0, True counted as 1 J, "5" raised a raw TypeError.
    "infinite-energy-unit": ({"energy_unit_j": float("inf")}, "energy_unit_j .*, got inf$"),
    "nan-energy-unit": ({"energy_unit_j": float("nan")}, "energy_unit_j .*, got nan$"),
    "bool-energy-unit": ({"energy_unit_j": True}, "energy_unit_j .*, got True$"),
    "string-energy-unit": ({"energy_unit_j": "5"}, "energy_unit_j .*, got '5'$"),
}


class TestArgumentChecks:
    @pytest.mark.parametrize("evaluator, case", [
        (evaluator, case) for evaluator in EVALUATORS for case in BAD_ARGUMENTS
    ])
    def test_every_evaluator_rejects_bad_arguments_at_every_batch_size(self, evaluator, case):
        kw, message = BAD_ARGUMENTS[case]
        s, trace, _ = bundled("amd")
        cluster, profiles = list(s.cluster), list(s.profiles)
        alloc = decode([1, 1, 1] + [100, 0, 0] * len(profiles), profiles, cluster)
        with pytest.raises(InvalidArgumentError, match=message):
            EVALUATORS[evaluator](cluster, profiles, trace, alloc=alloc, **kw)

    @pytest.mark.parametrize("evaluator", [e for e in EVALUATORS if e != "evolve"])
    def test_every_evaluator_rejects_an_empty_profile_list(self, evaluator):
        # Each raised IndexError before; evolve has its own ConfigurationError.
        empty = JobTrace.from_jobs([], rng_seed=0, horizon_s=1.0)
        with pytest.raises(InvalidArgumentError, match="^profiles is empty$"):
            EVALUATORS[evaluator]([host()], [], empty, alloc=Allocation(dvfs=(1,), shares=()))

    @pytest.mark.parametrize("evaluator", [e for e in EVALUATORS if e != "evolve"])
    def test_every_evaluator_rejects_an_empty_cluster(self, evaluator):
        profiles = [TaskProfile(0, "SOFT", 10**9, 10.0, 10.0, 1)]
        trace = trace_of([Job(0, 0, 0.0, 10.0, 10**9)])
        with pytest.raises(InvalidArgumentError, match="^cluster is empty$"):
            EVALUATORS[evaluator]([], profiles, trace, alloc=Allocation(dvfs=(), shares=((),)))


class TestCountsMatchRecords:
    """The counts behind lambda against what the result itself records: the
    per-job miss and abort flags, and the SOFT rows of the constraint report,
    which ``check_constraints`` derives on its own from the per-job overruns."""

    @staticmethod
    def assert_counts_match_records(res, profiles, weight):
        kind_of = {p.task_id: p.kind for p in profiles}
        hard = sum(m for t, m in zip(res.task_id, res.missed) if kind_of[t] == "REAL")
        aborts = sum(res.aborted)
        soft_failed = sum(
            not c.passed for c in res.constraint_report if kind_of[c.task_id] == "SOFT"
        )
        counts = (res.hard_misses, res.control_aborts, res.soft_violations)
        assert counts == (hard, aborts, soft_failed)
        assert res.lam == soft_failed + aborts + weight * hard
        assert all(type(n) is int for n in (res.lam, *counts))

    @settings(max_examples=100, deadline=None)
    @given(
        instance=random_instance(),
        weight=st.sampled_from([1, 7, 10**6]),
        policy=st.sampled_from(["max", "min"]),
    )
    def test_evaluate_allocation_and_edf_schedule(self, instance, weight, policy):
        cluster, profiles, trace, soft, allocs = instance
        kw = {"soft_constraints": soft, "hard_miss_weight": weight}
        results = [evaluate_allocation(cluster, profiles, trace, a, **kw) for a in allocs]
        results.append(edf_schedule(cluster, profiles, trace, dvfs_policy=policy, **kw))
        for res in results:
            self.assert_counts_match_records(res, profiles, weight)

    @settings(max_examples=50, deadline=None)
    @given(instance=random_instance(), beta=st.sampled_from([0.0, 0.2, 0.5]))
    def test_bounds_at_and_past_zero_on_one_task_in_every_evaluator(self, instance, beta):
        cluster, profiles, trace, _, allocs = instance
        soft = {p.task_id: (LatenessConstraint(0.1, beta), LatenessConstraint(0.0, beta))
                for p in profiles if p.kind == "SOFT"}
        for a in allocs:
            res = evaluate_allocation(cluster, profiles, trace, a, soft_constraints=soft)
            self.assert_counts_match_records(res, profiles, 10**6)
            assert evaluate_objectives(cluster, profiles, trace, a, soft_constraints=soft)[0] == res.lam
        block = stack(allocs, profiles, cluster)
        assert evaluate_objectives(cluster, profiles, trace, block, soft_constraints=soft) == [
            evaluate_objectives(cluster, profiles, trace, a, soft_constraints=soft) for a in allocs
        ]
        res = edf_schedule(cluster, profiles, trace, soft_constraints=soft)
        self.assert_counts_match_records(res, profiles, 10**6)

    def test_soft_counts_equal_the_overrun_compare_at_infinities_and_padding(self):
        # A bound with x = 0 reads its task's late count, a bound with x > 0
        # compares ``completion - deadline > x``: both against that compare job
        # by job, with +-inf and NaN completions and any value in padded slots.
        profiles = [TaskProfile(t, "SOFT", 10**8, 1.0, 1.0, n) for t, n in enumerate([3, 5, 4])]
        jobs = [Job(p.task_id, j, float(j), j + 1.0, 10**8) for p in profiles for j in range(p.n_jobs)]
        lc = LatenessConstraint
        soft = {0: (lc(0.0, 0.2), lc(0.5, 0.2)), 1: (lc(0.0, 0.0),), 2: (lc(0.25, 0.0), lc(0.0, 0.5))}
        ctx = _prepare([host()], profiles, trace_of(jobs), soft)
        deadlines = ctx.arr.scan.deadlines
        rng = np.random.default_rng(3)
        overrun = rng.choice([-np.inf, -1.0, -0.25, 0.0, 5e-324, 0.25, 0.5, 1.0, np.inf, np.nan],
                             (40,) + deadlines.shape)
        with np.errstate(invalid="ignore"):  # inf - inf, here and in the counts
            completion = np.where(np.isinf(deadlines), overrun, deadlines + overrun)
            want = np.zeros((40, len(profiles)), dtype=np.int64)
            for t, bounds in soft.items():
                n = profiles[t].n_jobs
                for c in bounds:
                    late = (completion[:, t, :n] - deadlines[t, :n] > c.x_s).sum(axis=1)
                    want[:, t] += late / n > c.beta
            got = _task_counts(ctx, completion)[2]
        assert np.isinf(completion).any() and np.isnan(completion).any()
        assert 0 < want.sum() < 40 * 5
        assert got.tolist() == want.tolist()

    def test_job_ending_at_its_deadline_is_on_time(self):
        # Each task alone on a 1 GHz host: every job ends exactly at its deadline.
        profiles = [TaskProfile(t, kind, 10**9, 2.0, 1.0, 2)
                    for t, kind in enumerate(["REAL", "CTRL", "SOFT"])]
        jobs = [Job(t, j, 2.0 * j, 2.0 * j + 1.0, 10**9) for t in range(3) for j in range(2)]
        cluster = [host(), host(), host()]
        alloc = Allocation(dvfs=(1, 1, 1), shares=((100, 0, 0), (0, 100, 0), (0, 0, 100)))
        soft = {2: (LatenessConstraint(0.0, 0.0),)}
        args = (cluster, profiles, trace_of(jobs))
        for res in (evaluate_allocation(*args, alloc, soft_constraints=soft),
                    edf_schedule(*args, soft_constraints=soft)):
            assert res.overrun_s == (0.0,) * 6
            self.assert_counts_match_records(res, profiles, 10**6)
            assert res.lam == 0
        assert evaluate_objectives(*args, alloc, soft_constraints=soft)[0] == 0


class TestTwoBoundsOfOneSoftTask:
    """Bounds of one task are counted one by one, whichever of them fails."""

    @pytest.mark.parametrize("bounds", [((0.0, 0.25), (0.1, 0.25)), ((0.1, 0.25), (0.0, 0.25))],
                             ids=["failing-first", "failing-second"])
    def test_only_the_failing_bound_counts(self, bounds):
        # Task 1 alone on a 1 GHz host: jobs 1 and 3 end 0.05 s late, so
        # alpha(0) = 0.5 > 0.25 fails and alpha(0.1) = 0 passes.  Task 0 is on time.
        profiles = [TaskProfile(0, "SOFT", 10**9, 2.0, 1.0, 4),
                    TaskProfile(1, "SOFT", 10**9, 2.0, 1.0, 4)]
        jobs = [Job(t, j, 2.0 * j, 2.0 * j + 1.0, 10**9 if t == 0 or j % 2 == 0 else 105 * 10**7)
                for t in range(2) for j in range(4)]
        cluster = [host(), host()]
        alloc = Allocation(dvfs=(1, 1), shares=((100, 0), (0, 100)))
        soft = {0: (LatenessConstraint(0.0, 0.0),),
                1: tuple(LatenessConstraint(x, beta) for x, beta in bounds)}
        args = (cluster, profiles, trace_of(jobs))
        for res in (evaluate_allocation(*args, alloc, soft_constraints=soft),
                    edf_schedule(*args, soft_constraints=soft)):
            TestCountsMatchRecords.assert_counts_match_records(res, profiles, 10**6)
            assert (res.lam, res.soft_violations) == (1, 1)
            rows = [c.passed for c in res.constraint_report if c.task_id == 1]
            assert sorted(rows) == [False, True]
        assert evaluate_objectives(*args, alloc, soft_constraints=soft)[0] == 1
        block = stack([alloc] * 3, profiles, cluster)
        assert [lam for lam, *_ in evaluate_objectives(*args, block, soft_constraints=soft)] == [1] * 3


class TestEdfBaseline:
    @pytest.mark.parametrize("policy", ["max", "min"])
    def test_partition_is_worst_fit_decreasing_on_a_mixed_cluster(self, policy):
        # Two server types (different cpi and mode frequencies).  A task's
        # utilization on host h is (cpi_h / f_h) * n / T: one order for every
        # host, and each host's load grows by its own utilization.
        cluster = [host(1e9, 1.0, 2), host(2.5e9, 1.6, 3), host(1e9, 1.0, 2), host(2.5e9, 1.6, 3)]
        profiles = [
            TaskProfile(t, "SOFT", int(n), period, period, 1)  # n_instructions is an int
            for t, (n, period) in enumerate(
                [(3e8, 1.0), (9e8, 2.0), (2e8, 0.5), (7e8, 1.0), (5e8, 4.0), (6e8, 0.5), (1e8, 1.0)]
            )
        ]
        jobs = [Job(p.task_id, 0, 0.0, p.deadline_s, int(p.n_instructions)) for p in profiles]
        res = edf_schedule(cluster, profiles, trace_of(jobs), dvfs_policy=policy)

        modes = [h.spec.modes[-1 if policy == "max" else 0] for h in cluster]
        util = [
            [h.spec.cpi * p.n_instructions / m.frequency_hz / p.period_s
             for h, m in zip(cluster, modes)]
            for p in profiles
        ]
        orders = [
            sorted(range(len(profiles)), key=lambda i: (-util[i][h], i))
            for h in range(len(cluster))
        ]
        assert all(order == orders[0] for order in orders)
        load, want = [0.0] * len(cluster), {}
        for i in orders[0]:
            h = min(range(len(cluster)), key=lambda h: (load[h], h))
            want[profiles[i].task_id] = (h,)
            load[h] += util[i][h]
        assert dict(res.task_servers) == want
        assert len(set(want.values())) == len(cluster)

    @pytest.mark.parametrize("form", DYN_ENERGY_FORMS)
    @pytest.mark.parametrize("name", ["intel", "amd"])
    def test_energy_equals_evaluate_allocation_of_its_placement(self, name, form):
        # One energy function prices both.  The executed counts differ only in
        # rounding: EDF sums each host's in event order, the scan by task.
        compared = 0
        for seed in range(1, 6):
            s = load_scenario(str(FIXTURES / f"scenario_{name}.json"), seed=seed)
            cluster, profiles = list(s.cluster), sorted(s.profiles, key=lambda p: p.task_id)
            trace = generate_jobs(s.profiles, seed, s.phase_policy)
            kw = dict(soft_constraints=s.soft_constraints, dyn_energy_form=form,
                      energy_unit_j=s.energy_unit_j)
            edf = edf_schedule(cluster, profiles, trace, **kw)
            on = dict(edf.task_servers)
            alloc = Allocation(
                tuple(server.mode_index for server in edf.per_server),
                tuple(tuple(100 * (on[p.task_id] == (m,)) for m in range(len(cluster)))
                      for p in profiles),
            )
            res = evaluate_allocation(cluster, profiles, trace, alloc, **kw)
            if edf.control_aborts or res.control_aborts:
                continue
            assert res.energy_j == pytest.approx(edf.energy_j, rel=1e-10, abs=0.0)
            compared += 1
        assert compared >= 4

    def test_hand_scheduled_preemption(self):
        # one host at 1 GHz; T0 releases 3e9 at t=0 (deadline 10),
        # T1 releases 1e9 at t=1 (deadline 3).  EDF runs T0 for 1 s, preempts
        # for T1 (earlier deadline) during [1,2], then finishes T0 at t=4.
        cluster = [host()]
        profiles = [
            TaskProfile(0, "SOFT", 3 * 10**9, 100.0, 10.0, 1),
            TaskProfile(1, "SOFT", 10**9, 100.0, 2.0, 1),
        ]
        jobs = [Job(0, 0, 0.0, 10.0, 3 * 10**9), Job(1, 0, 1.0, 3.0, 10**9)]
        res = edf_schedule(cluster, profiles, trace_of(jobs))
        assert res.task_id == (0, 1)
        assert res.completion_s == pytest.approx((4.0, 2.0))
        # T0's start is its first run, not its resume after the preemption.
        assert res.start_s == (0.0, 1.0)
        assert res.lam == 0

    def test_nested_deadlines_schedule_inner_first(self):
        cluster = [host()]
        profiles = [
            TaskProfile(0, "SOFT", 10**9, 100.0, 10.0, 1),
            TaskProfile(1, "SOFT", 10**9, 100.0, 5.0, 1),
        ]
        # same arrival, nested deadlines: the tighter job runs first
        jobs = [Job(0, 0, 0.0, 10.0, 10**9), Job(1, 0, 0.0, 5.0, 10**9)]
        res = edf_schedule(cluster, profiles, trace_of(jobs))
        assert res.task_id == (0, 1)
        assert res.completion_s == pytest.approx((2.0, 1.0))

    def test_control_abort_at_deadline(self):
        cluster = [host()]
        profiles = [TaskProfile(0, "CTRL", 2 * 10**9, 1.0, 1.0, 1, skip=2)]
        jobs = [Job(0, 0, 0.0, 1.0, 2 * 10**9)]
        res = edf_schedule(cluster, profiles, trace_of(jobs))
        assert res.aborted == (True,)
        [server] = res.per_server
        assert server.executed_instructions == pytest.approx(1e9)

    def test_control_job_released_after_its_deadline_runs_nothing(self):
        # Job 1 arrives at t=1 with deadline 2, but job 0 holds the task
        # until t=3: job 1 is released after its deadline and aborts at once.
        cluster = [host()]
        profiles = [TaskProfile(0, "CTRL", 10**9, 1.0, 1.0, 2, skip=2)]
        jobs = [Job(0, 0, 0.0, 10.0, 3 * 10**9), Job(0, 1, 1.0, 2.0, 10**9)]
        res = edf_schedule(cluster, profiles, trace_of(jobs))
        assert res.aborted == res.missed == (False, True)
        assert res.start_s[1] == 3.0
        assert res.completion_s == (3.0, 3.0)  # job 1's would-be: deadline + unrun work
        assert res.per_server[0].executed_instructions == 3e9
        assert res.control_aborts == 1

    def test_per_job_lists_every_job_once_in_task_job_order(self, rng):
        cluster = [host(1e9), host(2e9)]
        kinds = ["REAL", "CTRL", "SOFT", "CTRL", "SOFT"]
        profiles = [
            TaskProfile(t, kind, 4 * 10**8, 0.5, 0.4, 8)
            for t, kind in zip((7, 2, 5, 9, 0), kinds)
        ]
        jobs = [
            Job(p.task_id, j, 0.3 * j + float(rng.uniform(0, 0.3)), 0.3 * j + 0.7,
                int(rng.integers(0, 8 * 10**8)))
            for p in profiles
            for j in range(p.n_jobs)
        ]
        shuffled = [jobs[i] for i in rng.permutation(len(jobs))]
        res = edf_schedule(cluster, profiles, trace_of(shuffled))
        assert res.control_aborts > 0
        assert list(zip(res.task_id, res.job_index)) == sorted(
            (j.task_id, j.job_index) for j in jobs
        )

    def test_work_conservation(self, rng):
        cluster = [host(1e9), host(1e9)]
        profiles = [
            TaskProfile(t, "SOFT", 10**8, 1.0, 20.0, 10) for t in range(4)
        ]
        jobs = []
        for p in profiles:
            t = 0.0
            for j in range(10):
                t += float(rng.uniform(0.1, 0.6))
                jobs.append(Job(p.task_id, j, t, t + 20.0, int(rng.integers(10**7, 10**8))))
        res = edf_schedule(cluster, profiles, trace_of(jobs))
        total = sum(j.work_instructions for j in jobs)
        executed = sum(s.executed_instructions for s in res.per_server)
        assert executed == pytest.approx(total, rel=1e-9)

    def test_unknown_policy_rejected(self):
        cluster = [host()]
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1)]
        jobs = [Job(0, 0, 0.0, 1.0, 10**8)]
        with pytest.raises(InvalidArgumentError):
            edf_schedule(cluster, profiles, trace_of(jobs), dvfs_policy="median")

    def test_min_policy_uses_lowest_mode(self):
        cluster = [host(1e9, n_modes=2)]
        profiles = [TaskProfile(0, "SOFT", 10**9, 100.0, 50.0, 1)]
        jobs = [Job(0, 0, 0.0, 50.0, 10**9)]
        res_min = edf_schedule(cluster, profiles, trace_of(jobs), dvfs_policy="min")
        res_max = edf_schedule(cluster, profiles, trace_of(jobs), dvfs_policy="max")
        assert res_min.completion_s == pytest.approx((1.0,))
        assert res_max.completion_s == pytest.approx((1.0 / 1.5,))


def reference_edf_host(tasks, arrivals, deadlines, works, rate, start, completion, aborted):
    """The EDF host loop that rebuilt its ready list at each event, kept as
    the reference for ``sim._edf_host``."""
    inf = float("inf")
    job = [span.start for span, _ in tasks]  # flat index of each task's current job
    release = [arrivals[j] for j in job]
    remaining = [works[j] / rate for j in job]  # seconds
    active = list(range(len(tasks)))  # tasks with a current job
    executed, done = 0.0, [0.0] * len(tasks)
    t = 0.0
    while active:
        ready = [k for k in active if release[k] <= t]
        next_release = min((release[k] for k in active if release[k] > t), default=inf)
        if not ready:
            t = next_release
            continue
        k = min(ready, key=lambda k: (deadlines[job[k]], arrivals[job[k]], k))
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
                remaining[k] = works[j + 1] / rate
            else:
                active.remove(k)
        else:
            remaining[k] = left
        t = max(t, event)
    return executed, done


def host_case(task_jobs, rate=1e9):
    """``_edf_host`` arguments for one host: ``task_jobs`` holds each task's
    control flag and its ``(arrival, deadline, work)`` jobs."""
    tasks, arrivals, deadlines, works = [], [], [], []
    for ctrl, jobs in task_jobs:
        tasks.append((slice(len(works), len(works) + len(jobs)), ctrl))
        for arrival, deadline, work in jobs:
            arrivals.append(float(arrival))
            deadlines.append(float(deadline))
            works.append(float(work))
    return tasks, arrivals, deadlines, works, rate


def run_host(edf_host, tasks, arrivals, deadlines, works, rate):
    """``(start, completion, aborted, (executed, per-task executed))`` of
    ``edf_host`` on one host."""
    n = len(works)
    start, completion, aborted = [None] * n, [0.0] * n, [False] * n
    executed = edf_host(tasks, arrivals, deadlines, works, rate, start, completion, aborted)
    return start, completion, aborted, executed


def random_host_case(rng, on_grid):
    """5-7 tasks on one host.  ``on_grid`` puts every time on a 0.25 s grid and
    every run time at a multiple of it, so deadlines and arrivals tie and
    releases fall exactly on completions; otherwise times are arbitrary."""
    rate = 1e9
    task_jobs = []
    for _ in range(int(rng.integers(5, 8))):
        arrival, jobs = 0.0, []
        for _ in range(int(rng.integers(1, 7))):
            if on_grid:
                arrival += 0.25 * float(rng.choice([0, 1, 2, 4]))
                deadline = arrival + 0.25 * float(rng.choice([1, 2, 4, 8]))
                work = rate * 0.25 * float(rng.choice([0, 1, 2, 3, 6]))
            else:
                arrival += float(rng.uniform(0.0, 1.0))
                deadline = arrival + float(rng.uniform(0.1, 2.0))
                work = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 1.5)) * rate
            jobs.append((arrival, deadline, work))
        task_jobs.append((bool(rng.random() < 0.5), jobs))
    return host_case(task_jobs, rate)


class TestEdfHostMatchesReference:
    """``sim._edf_host`` against the kept reference loop, bit for bit."""

    @staticmethod
    def assert_matches_reference(case):
        got = run_host(sim._edf_host, *case)
        want = run_host(reference_edf_host, *case)
        assert repr(got) == repr(want)
        return got

    @pytest.mark.parametrize(
        "task_jobs,starts",
        [
            # T2 holds the host until t=1; T0 and T1 then share deadline 3 and
            # T1, the earlier arrival, runs first.
            ([(False, [(0.5, 3.0, 1e9)]), (False, [(0.25, 3.0, 1e9)]), (False, [(0.0, 1.0, 1e9)])],
             [2.0, 1.0, 0.0]),
            # T0 and T1 share deadline and arrival: the task index decides.
            ([(False, [(0.0, 2.0, 1e9)]), (False, [(0.0, 2.0, 1e9)]), (False, [(0.0, 0.5, 2.5e8)])],
             [0.25, 1.25, 0.0]),
            # A control job aborts at its deadline.
            ([(True, [(0.0, 1.0, 2e9)])], [0.0]),
            # T1's control job is first picked at t=2, after its deadline 1.5.
            ([(False, [(0.0, 1.0, 2e9)]), (True, [(0.0, 1.5, 1e9)])], [0.0, 2.0]),
            # Zero-work jobs; T1 holds the host until t=1, so T2's first, a
            # control job, is picked after its deadline and aborts.
            ([(False, [(0.0, 1.0, 0.0), (0.5, 1.5, 0.0)]), (False, [(0.0, 0.25, 1e9)]),
              (True, [(0.0, 0.5, 0.0), (0.75, 2.0, 0.0)])],
             [1.0, 1.0, 0.0, 1.0, 1.0]),
            # T0's first job completes at t=1, exactly when T1 arrives and
            # T0's second job is released.
            ([(False, [(0.0, 1.0, 1e9), (0.5, 3.0, 5e8)]), (False, [(1.0, 2.0, 5e8)])],
             [0.0, 1.5, 1.0]),
        ],
        ids=["equal-deadlines", "equal-deadlines-and-arrivals", "ctrl-abort",
             "ctrl-picked-after-deadline", "zero-work", "release-at-completion"],
    )
    def test_hand_cases(self, task_jobs, starts):
        start, *_ = self.assert_matches_reference(host_case(task_jobs))
        assert start == starts

    @pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "arbitrary"])
    def test_random_single_host_cases(self, on_grid):
        rng = np.random.default_rng(17)
        seen = dict(aborts=0, late_picks=0, zero_work=0)
        for _ in range(150):
            case = random_host_case(rng, on_grid)
            start, _, aborted, _ = self.assert_matches_reference(case)
            _, _, deadlines, works, _ = case
            seen["aborts"] += sum(aborted)
            seen["late_picks"] += sum(a and s > d for a, s, d in zip(aborted, start, deadlines))
            seen["zero_work"] += works.count(0.0)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("name", ["intel", "amd"])
    @pytest.mark.parametrize("policy", ["max", "min"])
    def test_edf_schedule_on_bundled_scenarios(self, name, policy, monkeypatch):
        for seed in range(1, 11):
            s = load_scenario(str(FIXTURES / f"scenario_{name}.json"), seed=seed)
            args = (list(s.cluster), list(s.profiles), generate_jobs(s.profiles, seed, s.phase_policy))
            kw = dict(dvfs_policy=policy, soft_constraints=s.soft_constraints,
                      energy_unit_j=s.energy_unit_j)
            got = edf_schedule(*args, **kw)
            with monkeypatch.context() as m:
                m.setattr(sim, "_edf_host", reference_edf_host)
                want = edf_schedule(*args, **kw)
            assert repr(got) == repr(want)
