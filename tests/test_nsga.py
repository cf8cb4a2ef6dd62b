"""Optimizer internals: sorting, crowding, decoding, operators, small fronts."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_spec
from greensched import nsga, power, sim
from greensched.errors import ConfigurationError, InvalidArgumentError
from greensched.nsga import (
    EvolveConfig,
    GeneBounds,
    ObjectiveVector,
    _Archive,
    FrontPoint,
    crowding_distance,
    decode,
    dominates,
    evolve,
    gene_bounds,
    integer_flip_mutation,
    nondominated_sort,
    single_point_crossover,
    tournament_select,
)
from greensched.power import DvfsMode, ThermalState
from greensched.scenario import FIXTURES, load_scenario
from greensched.sim import Allocation, ClusterHost, evaluate_objectives
from greensched.workload import Job, JobTrace, TaskProfile, generate_jobs


def obj(lam, e):
    return ObjectiveVector(lam, e)


class TestDominates:
    def test_strict_and_equal_cases(self):
        assert dominates(obj(0, 1.0), obj(0, 2.0))
        assert dominates(obj(0, 2.0), obj(1, 2.0))
        assert not dominates(obj(0, 2.0), obj(0, 2.0))
        assert not dominates(obj(0, 3.0), obj(1, 2.0))


class TestNondominatedSort:
    def brute_ranks(self, points):
        remaining = set(range(len(points)))
        ranks = [0] * len(points)
        r = 0
        while remaining:
            front = {
                p
                for p in remaining
                if not any(dominates(points[q], points[p]) for q in remaining)
            }
            for p in front:
                ranks[p] = r
            remaining -= front
            r += 1
        return ranks

    def test_matches_brute_force_on_random_sets(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 51))
            points = [
                obj(int(rng.integers(0, 4)), float(rng.integers(0, 10)))
                for _ in range(n)
            ]
            assert nondominated_sort(points) == self.brute_ranks(points)

    def test_survivor_ranks_equal_a_sort_of_the_survivors(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 41))
            points = [
                obj(int(rng.integers(0, 4)), float(rng.integers(0, 10)))
                for _ in range(n)
            ]
            k = int(rng.integers(1, n + 1))
            chosen, ranks = nsga._environmental_selection(points, k)
            assert len(chosen) == k
            assert ranks == nondominated_sort([points[i] for i in chosen])

    def test_single_front(self):
        pts = [obj(0, 3.0), obj(1, 2.0), obj(2, 1.0)]
        assert nondominated_sort(pts) == [0, 0, 0]

    def test_chain(self):
        pts = [obj(0, 1.0), obj(0, 2.0), obj(0, 3.0)]
        assert nondominated_sort(pts) == [0, 1, 2]


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        pts = [obj(0, 1.0), obj(1, 0.5), obj(2, 0.0)]
        d = crowding_distance(pts)
        assert d[0] == float("inf") and d[2] == float("inf")

    def test_three_collinear_middle_distance(self):
        # spans are 2 and 1.0; middle point: (2-0)/2 + (1.0-0)/1.0 = 2.0
        pts = [obj(0, 1.0), obj(1, 0.5), obj(2, 0.0)]
        d = crowding_distance(pts)
        assert d[1] == pytest.approx(2.0, abs=1e-12)

    def test_four_points_hand_values(self):
        # lam span 3, energy span 6
        pts = [obj(0, 6.0), obj(1, 3.0), obj(2, 1.0), obj(3, 0.0)]
        d = crowding_distance(pts)
        assert d[1] == pytest.approx((2 - 0) / 3 + (6 - 1) / 6, abs=1e-12)
        assert d[2] == pytest.approx((3 - 1) / 3 + (3 - 0) / 6, abs=1e-12)

    def test_degenerate_span_ignored(self):
        pts = [obj(0, 1.0), obj(0, 1.0), obj(0, 1.0)]
        d = crowding_distance(pts)
        assert d[0] == float("inf")

    def test_empty_front_rejected(self):
        with pytest.raises(InvalidArgumentError):
            crowding_distance([])


def two_host_cluster(n_modes=2):
    modes = tuple(DvfsMode(i + 1, 1e9 * (1 + i), 0.85 + 0.25 * i) for i in range(n_modes))
    th = ThermalState((300.0,), 300.0)
    return [
        ClusterHost(make_spec(server_id=0, modes=modes), th),
        ClusterHost(make_spec(server_id=1, modes=modes), th),
    ]


class TestDecode:
    def setup_method(self):
        self.cluster = two_host_cluster()
        self.profiles = [
            TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 2),
            TaskProfile(1, "REAL", 10**8, 1.0, 1.0, 2),
        ]

    def test_normalization_to_100(self):
        alloc = decode([1, 1, 30, 90, 0, 100], self.profiles, self.cluster)
        assert alloc.shares[0] == (25, 75)

    def test_balanced_row_unchanged(self):
        alloc = decode([1, 1, 50, 50, 100, 0], self.profiles, self.cluster)
        assert alloc.shares[0] == (50, 50)

    def test_zero_row_routes_to_first_server(self):
        alloc = decode([1, 1, 0, 0, 0, 0], self.profiles, self.cluster)
        assert alloc.shares[0] == (100, 0)
        assert alloc.shares[1] == (100, 0)

    def test_real_task_collapses_to_largest_share(self):
        alloc = decode([1, 2, 50, 50, 20, 80], self.profiles, self.cluster)
        assert alloc.shares[1] == (0, 100)
        assert alloc.dvfs == (1, 2)

    def test_largest_remainder_rounding(self):
        cluster = two_host_cluster() + [
            ClusterHost(
                make_spec(
                    server_id=2,
                    modes=(DvfsMode(1, 1e9, 0.85), DvfsMode(2, 2e9, 1.1)),
                ),
                ThermalState((300.0,), 300.0),
            )
        ]
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 2)]
        alloc = decode([1, 1, 1, 33, 33, 33], profiles, cluster)
        assert sum(alloc.shares[0]) == 100
        assert alloc.shares[0] == (34, 33, 33)


def scalar_decode(genes, profiles, cluster):
    """Row-by-row reference decode (the form ``decode`` had before it took blocks)."""
    ordered = sorted(profiles, key=lambda p: p.task_id)
    m = len(cluster)
    modes = tuple(int(g) for g in genes[:m])
    shares = []
    for i, p in enumerate(ordered):
        row = [int(g) for g in genes[m + i * m : m + (i + 1) * m]]
        if p.kind == "REAL":
            best = max(range(m), key=lambda j: (row[j], -j))
            row = [100 if j == best else 0 for j in range(m)]
        else:
            total = sum(row)
            if total == 0:
                row = [100 if j == 0 else 0 for j in range(m)]
            elif total != 100:
                scaled = [r * 100 / total for r in row]
                floored = [int(x) for x in scaled]
                rem = 100 - sum(floored)
                order = sorted(range(m), key=lambda j: (-(scaled[j] - floored[j]), j))
                for j in order[:rem]:
                    floored[j] += 1
                row = floored
        shares.append(tuple(row))
    return Allocation(dvfs=modes, shares=tuple(shares))


@st.composite
def gene_block(draw):
    """1-6 servers, 1-6 tasks of every kind and 1-12 gene rows.  Share genes come
    from a narrow range (zero rows and tied remainders are common) or from the
    full 0-100 range."""
    m = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(["REAL", "CTRL", "SOFT"]), min_size=1, max_size=6))
    profiles = [TaskProfile(t, kind, 10**8, 1.0, 1.0, 1) for t, kind in enumerate(kinds)]
    cluster = [None] * m  # decode reads only the server count
    high = draw(st.sampled_from([1, 3, 100]))
    n_rows = draw(st.integers(1, 12))
    rows = [
        draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        + draw(st.lists(st.integers(0, high), min_size=m * len(kinds), max_size=m * len(kinds)))
        for _ in range(n_rows)
    ]
    return np.array(rows, dtype=np.int64), profiles, cluster


class TestBlockDecode:
    @settings(max_examples=300, deadline=None)
    @given(instance=gene_block())
    def test_block_equals_scalar_reference(self, instance):
        block, profiles, cluster = instance
        want = [scalar_decode(row, profiles, cluster) for row in block.tolist()]
        assert decode(block, profiles, cluster) == want
        assert [decode(row, profiles, cluster) for row in block] == want
        assert decode(tuple(block[0].tolist()), profiles, cluster) == want[0]

    def test_hand_cases_equal_scalar_reference(self):
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1),
                    TaskProfile(1, "REAL", 10**8, 1.0, 1.0, 1)]
        cluster = [None] * 3
        block = np.array([
            [1, 1, 1, 0, 0, 0, 0, 0, 0],  # zero rows
            [1, 2, 3, 1, 1, 1, 5, 5, 5],  # tied remainders, tied REAL maximum
            [1, 1, 1, 2, 1, 0, 0, 7, 7],  # a REAL tie past server 0
            [2, 2, 2, 50, 25, 25, 0, 100, 0],  # a row already summing to 100
        ])
        want = [scalar_decode(row, profiles, cluster) for row in block.tolist()]
        assert decode(block, profiles, cluster) == want
        assert want[0].shares == ((100, 0, 0), (100, 0, 0))
        assert want[1].shares == ((34, 33, 33), (100, 0, 0))
        assert want[2].shares[1] == (0, 100, 0)

    def test_returned_values_are_python_ints(self):
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1)]
        [alloc] = decode(np.array([[2, 3, 1, 2]]), profiles, [None] * 2)
        assert all(type(v) is int for v in alloc.dvfs + alloc.shares[0])


class TestGeneBounds:
    def setup_method(self):
        self.cluster = two_host_cluster(n_modes=3)
        self.profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 2)]

    def test_var_policy_frees_modes(self):
        b = gene_bounds(self.profiles, self.cluster, EvolveConfig(policy="VAR"))
        assert list(b.low[:2]) == [1, 1]
        assert list(b.high[:2]) == [3, 3]
        assert not b.frozen[:2].any()

    def test_min_max_policies_freeze_modes(self):
        bmin = gene_bounds(self.profiles, self.cluster, EvolveConfig(policy="MIN"))
        assert list(bmin.low[:2]) == [1, 1] and bmin.frozen[:2].all()
        bmax = gene_bounds(self.profiles, self.cluster, EvolveConfig(policy="MAX"))
        assert list(bmax.low[:2]) == [3, 3] and bmax.frozen[:2].all()

    def test_mode_cap(self):
        b = gene_bounds(
            self.profiles, self.cluster, EvolveConfig(policy="VAR", max_mode_index=2)
        )
        assert list(b.high[:2]) == [2, 2]

    def test_share_step_rescales_gene_range(self):
        b = gene_bounds(
            self.profiles, self.cluster, EvolveConfig(policy="VAR", share_step=25)
        )
        assert list(b.high[2:]) == [4, 4]

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            EvolveConfig(policy="median")
        with pytest.raises(ConfigurationError):
            EvolveConfig(share_step=30)
        with pytest.raises(ConfigurationError):
            EvolveConfig(population=1)
        for weight in (0, -1, 10.0, True, np.int64(10)):
            with pytest.raises(ConfigurationError, match="hard_miss_weight"):
                EvolveConfig(hard_miss_weight=weight)

    def test_zero_generations_rejected(self):
        with pytest.raises(ConfigurationError, match="generations"):
            EvolveConfig(generations=0)

    def test_unknown_dyn_energy_form_rejected(self):
        EvolveConfig(dyn_energy_form="dimensional")
        with pytest.raises(ConfigurationError, match="dyn_energy_form 'as-writen'"):
            EvolveConfig(dyn_energy_form="as-writen")


class TestOperators:
    def test_crossover_swaps_tails(self):
        rng = np.random.default_rng(0)
        a = np.ones((100, 4), dtype=np.int64)
        b = np.full((100, 4), 2, dtype=np.int64)
        c1, c2 = single_point_crossover(a, b, rng, prob=1.0)
        for r1, r2 in zip(c1, c2):
            cut = int((r1 == 1).sum())
            assert (r1 == [1] * cut + [2] * (4 - cut)).all()
            assert (r2 == [2] * cut + [1] * (4 - cut)).all()
        assert len({tuple(r) for r in c1}) > 1  # multiple cut positions exercised

    def test_crossover_cut_reaches_both_boundaries(self):
        rng = np.random.default_rng(4)
        a = np.zeros((2000, 5), dtype=np.int64)
        b = np.ones((2000, 5), dtype=np.int64)
        c1, _ = single_point_crossover(a, b, rng, prob=1.0)
        cuts = set((c1 == 0).sum(axis=1).tolist())
        assert cuts == set(range(6))  # boundary 0 (c1 = b) through G (c1 = a)

    def test_crossover_skipped_below_probability(self):
        rng = np.random.default_rng(0)
        a = np.array([[1, 2, 3], [7, 8, 9]], dtype=np.int64)
        b = np.array([[4, 5, 6], [1, 1, 1]], dtype=np.int64)
        c1, c2 = single_point_crossover(a, b, rng, prob=0.0)
        assert (c1 == a).all() and (c2 == b).all()

    def test_crossover_rate_close_to_probability(self):
        rng = np.random.default_rng(5)
        a = np.zeros((4000, 3), dtype=np.int64)
        b = np.ones((4000, 3), dtype=np.int64)
        c1, _ = single_point_crossover(a, b, rng, prob=0.5)
        # a crossed pair keeps c1 = a only at cut G, one cut in four
        kept = (c1 == 0).all(axis=1).mean()
        assert 0.5 + 0.5 / 4 - 0.03 <= kept <= 0.5 + 0.5 / 4 + 0.03

    def test_mutation_respects_bounds_and_frozen(self):
        rng = np.random.default_rng(1)
        bounds = GeneBounds(
            low=np.array([1, 0, 0, 2]),
            high=np.array([1, 5, 5, 4]),
            frozen=np.array([True, False, False, True]),
        )
        genes = np.tile(np.array([1, 3, 3, 3], dtype=np.int64), (200, 1))
        out = integer_flip_mutation(genes, bounds, rng, prob=1.0)
        assert (out[:, 0] == 1).all()
        assert (out[:, 3] == 3).all()  # frozen genes never move, even off their low value
        assert ((0 <= out[:, 1:3]) & (out[:, 1:3] <= 5)).all()
        assert set(out[:, 1].tolist()) == set(range(6))

    def test_mutation_rate_close_to_probability(self):
        rng = np.random.default_rng(2)
        n, trials = 1000, 50
        bounds = GeneBounds(
            low=np.zeros(n, dtype=np.int64),
            high=np.full(n, 100, dtype=np.int64),
            frozen=np.zeros(n, dtype=bool),
        )
        genes = np.full((trials, n), 50, dtype=np.int64)
        out = integer_flip_mutation(genes, bounds, rng, prob=0.1)
        # each flip redraws uniformly, so ~1% of redraws keep the old value
        rate = (out != genes).sum() / (trials * n)
        assert 0.07 <= rate <= 0.13

    def test_tournament_prefers_lower_rank(self):
        rng = np.random.default_rng(3)
        winners = tournament_select(rng, [0, 5], [1.0, 1.0], 200)
        assert winners.shape == (200,)
        assert (winners == 0).sum() >= 140  # index 0 wins every mixed tournament

    def test_tournament_prefers_larger_crowding_within_a_rank(self):
        rng = np.random.default_rng(6)
        winners = tournament_select(rng, [1, 1], [0.5, float("inf")], 200)
        assert (winners == 1).sum() >= 140

    def test_tournament_tie_goes_to_first_entrant(self):
        # Equal (rank, crowding): the winner is the first of the two draws.
        ranks, crowding = [2] * 7, [0.5] * 7
        winners = tournament_select(np.random.default_rng(7), ranks, crowding, 300)
        first = np.random.default_rng(7).integers(7, size=(2, 300))[0]
        assert (winners == first).all()


class TestArchive:
    def fp(self, lam, e, genes):
        return FrontPoint(
            genes=tuple(genes),
            objectives=obj(lam, e),
            allocation=Allocation(dvfs=(1,), shares=((100,),)),
            energy_j=e,
            energy_units=e,
        )

    def test_dominated_candidates_rejected(self):
        a = _Archive()
        a.offer(self.fp(0, 1.0, [1]))
        a.offer(self.fp(0, 2.0, [2]))
        assert len(a.points) == 1

    def test_dominating_candidate_replaces(self):
        a = _Archive()
        a.offer(self.fp(1, 2.0, [1]))
        a.offer(self.fp(0, 1.0, [2]))
        assert len(a.points) == 1
        assert a.points[0].objectives.lam == 0

    def test_objective_ties_keep_lexicographically_smallest_genes(self):
        a = _Archive()
        a.offer(self.fp(0, 1.0, [5, 5]))
        a.offer(self.fp(0, 1.0, [3, 9]))
        assert len(a.points) == 1
        assert a.points[0].genes == (3, 9)
        a.offer(self.fp(0, 1.0, [4, 0]))
        assert a.points[0].genes == (3, 9)


class TestSmallInstanceOptimality:
    def test_front_matches_exhaustive_enumeration(self):
        cluster = two_host_cluster(n_modes=2)
        profiles = [
            TaskProfile(0, "SOFT", 2 * 10**8, 1.0, 0.6, 8),
            TaskProfile(1, "SOFT", 10**8, 1.0, 0.4, 8),
        ]
        jobs = []
        for p in profiles:
            for j in range(p.n_jobs):
                t = j * p.period_s
                jobs.append(Job(p.task_id, j, t, t + p.deadline_s, p.n_instructions))
        trace = JobTrace(tuple(jobs), 0, max(j.deadline_s for j in jobs) + 1)

        # exhaustive enumeration over the share_step=100 discretization
        rows = [(100, 0), (0, 100), (50, 50)]
        best: list[tuple[int, float]] = []
        for dvfs in itertools.product((1, 2), repeat=2):
            for r0 in rows:
                for r1 in rows:
                    alloc = Allocation(dvfs=dvfs, shares=(r0, r1))
                    lam, e_j, _ = evaluate_objectives(cluster, profiles, trace, alloc)
                    best.append((lam, (1 + lam) * e_j))
        expect = {
            p
            for p in best
            if not any(
                (q[0] <= p[0] and q[1] <= p[1] and q != p) for q in best
            )
        }

        cfg = EvolveConfig(
            population=20, generations=300, seed=0, policy="VAR", share_step=100,
            stop_window=300,
        )
        result = evolve(cluster, profiles, trace, cfg)
        got = {(p.objectives.lam, p.objectives.scaled_energy_j) for p in result.front}
        assert got == expect


class TestEvolveBasics:
    def test_empty_inputs_rejected(self):
        cfg = EvolveConfig(population=4, generations=1)
        with pytest.raises(ConfigurationError):
            evolve([], [TaskProfile(0, "SOFT", 1, 1.0, 1.0, 1)], JobTrace((), 0, 1.0), cfg)
        with pytest.raises(ConfigurationError):
            evolve(two_host_cluster(), [], JobTrace((), 0, 1.0), cfg)

    def test_deterministic_given_seed(self):
        cluster = two_host_cluster()
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 4)]
        jobs = [Job(0, j, j * 1.0, j * 1.0 + 1.0, 10**8) for j in range(4)]
        trace = JobTrace(tuple(jobs), 0, 6.0)
        cfg = EvolveConfig(population=8, generations=20, seed=9, stop_window=20)
        r1 = evolve(cluster, profiles, trace, cfg)
        r2 = evolve(cluster, profiles, trace, cfg)
        assert [(p.genes, p.objectives) for p in r1.front] == [
            (p.genes, p.objectives) for p in r2.front
        ]
        assert r1.convergence == r2.convergence

    @staticmethod
    def count_decodes_and_evaluations(monkeypatch):
        """Record decoded gene vectors and the allocations passed to
        ``evaluate_objectives`` (one call may score many)."""
        seen = {"decoded": [], "evaluated": 0}

        def decode_wrapper(genes, *args, **kwargs):
            seen["decoded"].extend(map(tuple, np.atleast_2d(genes).tolist()))
            return decode(genes, *args, **kwargs)

        def evaluate_wrapper(cluster, profiles, trace, allocs, **kwargs):
            seen["evaluated"] += 1 if isinstance(allocs, Allocation) else len(allocs)
            return evaluate_objectives(cluster, profiles, trace, allocs, **kwargs)

        monkeypatch.setattr(nsga, "decode", decode_wrapper)
        monkeypatch.setattr(sim, "evaluate_objectives", evaluate_wrapper)
        return seen

    @staticmethod
    def two_task_instance():
        cluster = two_host_cluster()
        profiles = [
            TaskProfile(0, "SOFT", 2 * 10**8, 1.0, 0.6, 4),
            TaskProfile(1, "SOFT", 10**8, 1.0, 0.4, 4),
        ]
        jobs = [Job(p.task_id, j, j * 1.0, j * 1.0 + p.deadline_s, p.n_instructions)
                for p in profiles for j in range(p.n_jobs)]
        return cluster, profiles, JobTrace(tuple(jobs), 0, 6.0)

    def test_decodes_only_cache_misses_and_the_returned_front(self, monkeypatch):
        seen = self.count_decodes_and_evaluations(monkeypatch)
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=8, generations=10, seed=3, share_step=100)
        result = evolve(cluster, profiles, trace, cfg)
        assert len(seen["decoded"]) == seen["evaluated"] + len(result.front)
        for p in result.front:
            assert p.allocation == decode(p.genes, profiles, cluster)

    def test_identical_offspring_in_one_generation_are_scored_once(self, monkeypatch):
        # Every pair of children leaves mutation as the same chromosome,
        # with DVFS modes the population has not seen so far.
        fresh_modes = itertools.product(range(1, 3), repeat=2)

        def twin_mutation(genes, bounds, rng, prob):
            children = genes.copy()
            for i in range(0, len(children) - 1, 2):
                children[i, :2] = next(fresh_modes, (1, 1))
                children[i + 1] = children[i]
            return children

        monkeypatch.setattr(nsga, "integer_flip_mutation", twin_mutation)
        seen = self.count_decodes_and_evaluations(monkeypatch)
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=4, generations=3, seed=5, share_step=100)
        result = evolve(cluster, profiles, trace, cfg)
        scored = seen["decoded"][: len(seen["decoded"]) - len(result.front)]
        assert len(scored) == len(set(scored)) == seen["evaluated"]

    @pytest.mark.parametrize("name, n_cells", [("intel", 36), ("amd", 9)])
    def test_mode_tables_are_built_once_per_run(self, monkeypatch, name, n_cells):
        # One static power per (host, mode) cell for the whole run, not one per
        # generation's evaluation call.
        s = load_scenario(str(FIXTURES / f"scenario_{name}.json"), seed=1)
        trace = generate_jobs(s.profiles, 1, s.phase_policy)
        calls = []
        leakage_power = power.leakage_power

        def counting(*args, **kwargs):
            calls.append(args)
            return leakage_power(*args, **kwargs)

        monkeypatch.setattr(power, "leakage_power", counting)
        cfg = dataclasses.replace(s.optimizer, seed=1, population=20, generations=10)
        evolve(list(s.cluster), list(s.profiles), trace, cfg, soft_constraints=s.soft_constraints)
        assert len(calls) == sum(len(h.spec.modes) for h in s.cluster) == n_cells

    def test_odd_population_breeds_and_keeps_its_size(self, monkeypatch):
        sizes = {"offspring": [], "candidates": [], "survivors": []}
        mutate, select = nsga.integer_flip_mutation, nsga._environmental_selection

        def mutation_wrapper(genes, *args):
            sizes["offspring"].append(len(genes))
            return mutate(genes, *args)

        def selection_wrapper(objs, k):
            chosen, ranks = select(objs, k)
            sizes["candidates"].append(len(objs))
            sizes["survivors"].append(len(chosen))
            return chosen, ranks

        monkeypatch.setattr(nsga, "integer_flip_mutation", mutation_wrapper)
        monkeypatch.setattr(nsga, "_environmental_selection", selection_wrapper)
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=5, generations=6, seed=2, stop_window=6)
        result = evolve(cluster, profiles, trace, cfg)
        assert result.generations_run == 6
        assert sizes == {"offspring": [5] * 6, "candidates": [10] * 6, "survivors": [5] * 6}
