"""End-to-end acceptance suite.

Each test here states a user-visible guarantee: model fidelity against
independent direct evaluation, calibration recovery, optimizer correctness on
instances small enough to enumerate, qualitative behaviour of the three DVFS
policies on the bundled cluster scenarios, the EDF baseline comparison, and
byte-level determinism of the CLI.
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from conftest import make_spec
from greensched.cli import main
from greensched.nsga import (
    EvolveConfig,
    ObjectiveVector,
    crowding_distance,
    evolve,
    nondominated_sort,
)
from greensched.power import (
    DvfsMode,
    TelemetrySample,
    ThermalState,
    dynamic_energy,
    dynamic_power,
    fit_constants,
    leakage_energy,
    leakage_power,
    total_power,
)
from greensched.scenario import FIXTURES, load_scenario
from greensched.sim import (
    Allocation,
    ClusterHost,
    edf_schedule,
    evaluate_objectives,
)
from greensched.tasks import (
    LatenessConstraint,
    TaskMissStats,
    check_constraints,
    choose_control_periods,
)
from greensched.workload import Job, JobTrace, TaskProfile, generate_jobs

SEEDS = (1, 2, 3, 4, 5)


# --- power model vs direct evaluation --------------------------------------


def direct_leakage(spec, v, t_cpu, t_mem):
    total = spec.d_volt * v**3 + spec.e_const
    for s in range(spec.n_sockets):
        total += spec.b_cpu[s] * t_cpu[s] ** 2 * v
        total += spec.c_cpu[s] * t_cpu[s] * v**2
        total += spec.g_mem[s] * t_mem**2
        total += spec.h_mem[s] * t_mem
    return total


def direct_dynamic(spec, v, f_hz, u):
    return spec.a_dyn * v**2 * (f_hz / 1e9) * u


class TestPowerModelAgainstDirectEvaluation:
    def random_spec(self, rng):
        n_sockets = int(rng.integers(1, 3))
        return make_spec(
            a_dyn=float(rng.uniform(1.0, 30.0)),
            b_cpu=tuple(rng.uniform(1e-5, 1e-3, n_sockets)),
            c_cpu=tuple(rng.uniform(-1e-4, -1e-6, n_sockets)),
            d_volt=float(rng.uniform(0.01, 1.0)),
            e_const=float(rng.uniform(-5.0, 10.0)),
            g_mem=tuple(rng.uniform(1e-5, 1e-3, n_sockets)),
            h_mem=tuple(rng.uniform(-0.05, -1e-4, n_sockets)),
            cpi=float(rng.uniform(0.1, 4.0)),
            n_sockets=n_sockets,
        )

    def test_ten_thousand_random_inputs_match(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(20250826)
        published = make_spec(
            a_dyn=14.3505,
            b_cpu=(0.1110,),
            c_cpu=(-0.0011,),
            d_volt=0.3347,
            e_const=-40700.0,
            g_mem=(275.702,),
            h_mem=(-0.4644,),
        )
        for i in range(10_000):
            spec = published if i % 100 == 0 else self.random_spec(rng)
            mode = spec.mode(int(rng.integers(1, len(spec.modes) + 1)))
            t_cpu = tuple(rng.uniform(250.0, 400.0, spec.n_sockets))
            t_mem = float(rng.uniform(250.0, 400.0))
            th = ThermalState(t_cpu, t_mem)
            u = float(rng.uniform(0.0, 1.0))
            n_ins = float(rng.uniform(1e6, 1e10))

            v, f = mode.voltage_v, mode.frequency_hz
            p_leak = direct_leakage(spec, v, t_cpu, t_mem)
            p_dyn = direct_dynamic(spec, v, f, u)
            approx = lambda x: pytest.approx(x, rel=1e-9, abs=1e-12)
            assert leakage_power(spec, mode, th) == approx(p_leak)
            assert dynamic_power(spec, mode, u) == approx(p_dyn)
            assert total_power(spec, mode, th, u) == approx(p_leak + p_dyn)
            assert leakage_energy(spec, mode, th, n_ins) == approx(
                p_leak * spec.cpi / f * n_ins
            )
            terms = [(u, n_ins), (u / 2, n_ins / 3)]
            assert dynamic_energy(spec, mode, terms) == approx(
                spec.a_dyn * v**2 * spec.cpi * (u * n_ins + u / 2 * n_ins / 3) / 1e9
            )
            assert dynamic_energy(spec, mode, terms, form="dimensional") == approx(
                spec.a_dyn * v**2 * spec.cpi * (n_ins + n_ins / 3) / 1e9
            )
        assert time.monotonic() - t0 < 10.0


# --- calibration recovery ---------------------------------------------------


def synth_samples(spec, rng, n, noise=0.0):
    samples = []
    for _ in range(n):
        u = float(rng.uniform(0.0, 1.0))
        tc = float(rng.uniform(290.0, 340.0))
        tm = float(rng.uniform(290.0, 340.0))
        mode_ix = int(rng.integers(1, len(spec.modes) + 1))
        th = ThermalState((tc,) * spec.n_sockets, tm)
        p = total_power(spec, spec.mode(mode_ix), th, u)
        if noise:
            p *= 1.0 + noise * float(rng.standard_normal())
        samples.append(TelemetrySample(u, tc, tm, mode_ix, max(p, 0.0)))
    return samples


class TestCalibrationRecovery:
    def test_noise_free_and_noisy_fits(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        truth = make_spec()

        clean = fit_constants(synth_samples(truth, rng, 400), make_spec(a_dyn=1.0))
        for name in ("a_dyn", "d_volt", "e_const"):
            assert getattr(clean.spec, name) == pytest.approx(
                getattr(truth, name), rel=1e-6
            )
        for name in ("b_cpu", "c_cpu", "g_mem", "h_mem"):
            for got, want in zip(getattr(clean.spec, name), getattr(truth, name)):
                assert got == pytest.approx(want, rel=1e-6)
        assert clean.validation_error_pct < 1e-6

        noisy = fit_constants(
            synth_samples(truth, rng, 2000, noise=0.05), make_spec(a_dyn=1.0)
        )
        assert noisy.validation_error_pct <= 12.0
        assert time.monotonic() - t0 < 60.0


# --- sorting internals vs brute force ---------------------------------------


def brute_force_ranks(points):
    def dominates(a, b):
        return (
            a.lam <= b.lam
            and a.scaled_energy_j <= b.scaled_energy_j
            and (a.lam < b.lam or a.scaled_energy_j < b.scaled_energy_j)
        )

    remaining = set(range(len(points)))
    ranks = [0] * len(points)
    level = 0
    while remaining:
        front = {
            i
            for i in remaining
            if not any(dominates(points[j], points[i]) for j in remaining if j != i)
        }
        for i in front:
            ranks[i] = level
        remaining -= front
        level += 1
    return ranks


class TestSortingInternals:
    def test_nondominated_sort_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            pts = [
                ObjectiveVector(
                    int(rng.integers(0, 5)), float(rng.integers(0, 8))
                )
                for _ in range(n)
            ]
            assert nondominated_sort(pts) == brute_force_ranks(pts)

    def test_crowding_matches_hand_computation(self):
        # three collinear points: ends infinite, middle spans the whole range
        # in both objectives -> (4-0)/4 + (8-0)/8 = 2
        pts = [ObjectiveVector(0, 0.0), ObjectiveVector(2, 4.0), ObjectiveVector(4, 8.0)]
        d = crowding_distance(pts)
        assert d[0] == d[2] == float("inf")
        assert d[1] == pytest.approx(2.0, abs=1e-12)

        # four points, hand-evaluated neighbour gaps
        pts = [
            ObjectiveVector(0, 10.0),
            ObjectiveVector(1, 6.0),
            ObjectiveVector(3, 4.0),
            ObjectiveVector(6, 0.0),
        ]
        d = crowding_distance(pts)
        assert d[0] == d[3] == float("inf")
        assert d[1] == pytest.approx(3 / 6 + 6 / 10, abs=1e-12)
        assert d[2] == pytest.approx(5 / 6 + 6 / 10, abs=1e-12)


# --- small instance: evolved front equals exhaustive optimum ----------------


class TestSmallInstanceOptimality:
    def test_front_equals_exhaustive_enumeration(self):
        t0 = time.monotonic()
        modes = tuple(DvfsMode(i + 1, 1e9 * (1 + i), 0.85 + 0.25 * i) for i in range(2))
        th = ThermalState((300.0,), 300.0)
        cluster = [
            ClusterHost(make_spec(server_id=i, modes=modes), th) for i in range(2)
        ]
        profiles = [
            TaskProfile(0, "SOFT", 2 * 10**8, 1.0, 0.6, 8),
            TaskProfile(1, "SOFT", 10**8, 1.0, 0.4, 8),
        ]
        jobs = []
        for p in profiles:
            for j in range(p.n_jobs):
                t = j * p.period_s
                jobs.append(Job(p.task_id, j, t, t + p.deadline_s, p.n_instructions))
        trace = JobTrace.from_jobs(jobs, 0, max(j.deadline_s for j in jobs) + 1)

        rows = [(100, 0), (0, 100), (50, 50)]
        seen = []
        for dvfs in itertools.product((1, 2), repeat=2):
            for r0 in rows:
                for r1 in rows:
                    alloc = Allocation(dvfs=dvfs, shares=(r0, r1))
                    lam, e_j, _ = evaluate_objectives(cluster, profiles, trace, alloc)
                    seen.append((lam, (1 + lam) * e_j))
        expect = {
            p
            for p in seen
            if not any(q[0] <= p[0] and q[1] <= p[1] and q != p for q in seen)
        }

        cfg = EvolveConfig(
            population=20, generations=300, seed=0, policy="VAR",
            share_step=100, stop_window=300,
        )
        result = evolve(cluster, profiles, trace, cfg)
        got = {(p.objectives.lam, p.objectives.scaled_energy_j) for p in result.front}
        assert got == expect
        assert time.monotonic() - t0 < 30.0


# --- bundled-scenario policy behaviour and the EDF baseline -----------------


def run_protocol(scenario_name):
    """Evolve each DVFS policy on every seed and run the EDF baseline."""
    runs = {}
    t0 = time.monotonic()
    for seed in SEEDS:
        s = load_scenario(str(FIXTURES / scenario_name), seed=seed)
        trace = generate_jobs(s.profiles, seed, s.phase_policy)
        per = {}
        for policy in ("MAX", "MIN", "VAR"):
            cfg = dataclasses.replace(s.optimizer, seed=seed, policy=policy)
            out = evolve(
                list(s.cluster), list(s.profiles), trace, cfg,
                soft_constraints=s.soft_constraints,
            )
            per[policy] = out.front
        per["EDF"] = edf_schedule(
            list(s.cluster), list(s.profiles), trace,
            dvfs_policy="max", soft_constraints=s.soft_constraints,
        )
        runs[seed] = per
    return runs, time.monotonic() - t0


def best_point(front):
    return min(front, key=lambda p: (p.objectives.lam, p.energy_j))


def best_feasible_energy(front):
    feas = [p.energy_j for p in front if p.objectives.lam == 0]
    return min(feas) if feas else None


@pytest.fixture(scope="module")
def intel_runs():
    return run_protocol("scenario_intel.json")


@pytest.fixture(scope="module")
def amd_runs():
    return run_protocol("scenario_amd.json")


@pytest.fixture(scope="module", params=["intel", "amd"])
def cluster_runs(request):
    return request.getfixturevalue(f"{request.param}_runs")


HARD_MISS_WEIGHT = 1_000_000


class TestPolicyBehaviourOnBundledClusters:
    def test_runtime_budget(self, cluster_runs):
        _, elapsed = cluster_runs
        assert elapsed <= 600.0

    def test_max_policy_reaches_full_feasibility(self, cluster_runs):
        runs, _ = cluster_runs
        ok = sum(best_feasible_energy(runs[s]["MAX"]) is not None for s in SEEDS)
        assert ok >= 4

    def test_min_policy_infeasible_but_hard_deadlines_hold(self, cluster_runs):
        runs, _ = cluster_runs
        ok = 0
        for seed in SEEDS:
            front = runs[seed]["MIN"]
            best = best_point(front)
            no_feasible = best_feasible_energy(front) is None
            no_hard_miss = best.objectives.lam < HARD_MISS_WEIGHT
            ok += no_feasible and no_hard_miss
        assert ok >= 4

    def test_var_policy_feasible_between_min_and_max_energy(self, cluster_runs):
        runs, _ = cluster_runs
        ok = 0
        for seed in SEEDS:
            e_var = best_feasible_energy(runs[seed]["VAR"])
            e_max = best_feasible_energy(runs[seed]["MAX"])
            e_min = best_point(runs[seed]["MIN"]).energy_j
            ok += (
                e_var is not None
                and e_max is not None
                and e_var <= e_max
                and e_var > e_min
            )
        assert ok >= 4

    def test_edf_schedules_everything_at_higher_energy(self, cluster_runs):
        runs, _ = cluster_runs
        for seed in SEEDS:
            assert runs[seed]["EDF"].lam == 0
        ok = 0
        for seed in SEEDS:
            e_var = best_feasible_energy(runs[seed]["VAR"])
            ok += e_var is not None and runs[seed]["EDF"].energy_j > e_var
        assert ok >= 4


# --- constraint semantics ---------------------------------------------------


def stats(tid, kind, overruns, skip=None, soft=()):
    return TaskMissStats(
        task_id=tid,
        kind=kind,
        overruns=tuple(overruns),
        miss_pattern=tuple(o > 0 for o in overruns),
        skip=skip,
        soft_constraints=tuple(soft),
    )


class TestConstraintSemantics:
    def test_hard_rejects_any_overrun(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            overruns = rng.uniform(-2.0, 2.0, int(rng.integers(1, 40)))
            [check] = check_constraints({0: stats(0, "hard", overruns)})
            assert check.passed == (not any(o > 0 for o in overruns))

    def test_control_skip_two_rejects_consecutive_misses(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            overruns = rng.uniform(-1.0, 1.0, int(rng.integers(2, 30)))
            misses = [o > 0 for o in overruns]
            checks = check_constraints({0: stats(0, "control", overruns, skip=2)})
            # brute force: a skip-2 controller tolerates isolated misses only
            frac_ok = sum(misses) / len(misses) <= 0.5
            spacing_ok = not any(a and b for a, b in zip(misses, misses[1:]))
            assert all(c.passed for c in checks) == (frac_ok and spacing_ok)

    def test_soft_fraction_monotone_in_tolerance_and_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            overruns = rng.uniform(-3.0, 3.0, int(rng.integers(1, 40)))
            x1, x2 = sorted(rng.uniform(0.0, 3.0, 2))
            beta = float(rng.uniform(0.0, 1.0))
            frac = lambda x: sum(1 for o in overruns if o > x) / len(overruns)
            assert frac(x2) <= frac(x1)
            [c1] = check_constraints(
                {0: stats(0, "soft", overruns, soft=[LatenessConstraint(x1, beta)])}
            )
            assert c1.passed == (frac(x1) <= beta)
            if c1.passed:  # relaxing either parameter keeps it passing
                [c2] = check_constraints(
                    {0: stats(0, "soft", overruns, soft=[LatenessConstraint(x2, beta)])}
                )
                assert c2.passed


# --- CLI determinism --------------------------------------------------------


SMALL_WORKLOAD = """task_id,type,n_ins,period_s,deadline_s,n_jobs
0,REAL,200000000,1.0,1.0,6
1,CTRL,100000000,1.0,1.0,6
2,SOFT,100000000,1.0,0.8,6
"""


class TestCliDeterminism:
    @pytest.fixture
    def scenario(self, tmp_path):
        (tmp_path / "workload.csv").write_text(SMALL_WORKLOAD)
        doc = {
            "cluster": [{"server": "intel_xeon_e5620.json", "count": 2}],
            "thermal": {"t_cpu_k": [301.0], "t_mem_k": 301.0},
            "workload": "workload.csv",
            "soft_constraints": {"2": [[0.0, 0.2]]},
            "optimizer": {
                "population": 12,
                "generations": 40,
                "seed": 3,
                "stop_window": 40,
                "policy": "VAR",
                "share_step": 100,
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return path

    def read_all(self, outdir):
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    def test_every_workflow_byte_identical_across_runs(self, scenario, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            assert main(["generate", "--scenario", str(scenario),
                         "--out", str(base / "gen")]) == 0
            assert main(["optimize", "--scenario", str(scenario),
                         "--out", str(base / "opt")]) == 0
            assert main(["baseline", "--scenario", str(scenario),
                         "--out", str(base / "edf")]) == 0
            assert main(["simulate", "--scenario", str(scenario),
                         "--allocation", str(base / "opt" / "best_allocation.json"),
                         "--out", str(base / "sim")]) == 0
            outputs.append(
                {
                    d: self.read_all(base / d)
                    for d in ("gen", "opt", "edf", "sim")
                }
            )
        assert outputs[0] == outputs[1]


# --- control period selection vs grid search --------------------------------


def grid_oracle(wcets, caps, p, grid=1e-3):
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
    return periods(best)


class TestControlPeriodSelection:
    def test_matches_grid_search_and_satisfies_bounds(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 100:
            c = rng.uniform(0.01, 1.0, 3)
            d = c * rng.uniform(1.5, 30.0, 3)
            p = float(rng.uniform(0.1, 0.95))
            if sum(ci / di for ci, di in zip(c, d)) > p:
                continue
            got = choose_control_periods(list(c), list(d), p)
            want = grid_oracle(list(c), list(d), p)
            for g, wv in zip(got, want):
                assert g == pytest.approx(wv, rel=2e-3)  # within one grid step
            # the selection must satisfy the utilization bound and the
            # per-task window C_i <= T_i <= D_i
            assert sum(ci / ti for ci, ti in zip(c, got)) <= p + 1e-9
            for ci, ti, di in zip(c, got, d):
                assert ci <= ti + 1e-12 and ti <= di + 1e-12
            done += 1
