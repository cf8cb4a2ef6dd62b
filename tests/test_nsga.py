"""Optimizer internals: sorting, crowding, decoding, operators, small fronts."""

import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_spec
from greensched import nsga, power, sim
from greensched.errors import ConfigurationError, InvalidAllocationError, InvalidArgumentError
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


def key_ids(points):
    """The key id of each point and the ``ObjectiveVector`` of each id, as
    ``evolve`` carries them."""
    ids: dict[ObjectiveVector, int] = {}
    return [ids.setdefault(p, len(ids)) for p in points], list(ids)


def rank_and_crowd(fronts, n):
    """``nsga._rank_and_crowd`` as lists of Python numbers, to compare with ``==``."""
    return tuple(a.tolist() for a in nsga._rank_and_crowd(fronts, n))


class TestObjectiveVector:
    def test_repr_order_and_messages_are_unchanged(self):
        v = obj(1, 2.5)
        assert repr(v) == str(v) == "ObjectiveVector(lam=1, scaled_energy_j=2.5)"
        assert (v.lam, v.scaled_energy_j) == (1, 2.5)
        assert obj(0, 3.0) < obj(1, 0.0) < obj(1, 0.5) <= obj(1, 0.5)
        assert sorted([obj(1, 0.0), obj(0, 3.0), obj(0, 1.0)]) == [
            obj(0, 1.0), obj(0, 3.0), obj(1, 0.0)]
        assert obj(0, 1.0) == obj(0, 1.0) and hash(obj(0, 1.0)) == hash(obj(0, 1.0))
        with pytest.raises(InvalidArgumentError, match=re.escape(
                "point 1 ObjectiveVector(lam=2, scaled_energy_j=inf): "
                "scaled energy must be finite")):
            crowding_distance([obj(0, 1.0), obj(2, float("inf"))])
        with pytest.raises(InvalidArgumentError, match=re.escape(
                "point 0 ObjectiveVector(lam=0, scaled_energy_j=nan): "
                "scaled energy must be a number")):
            nondominated_sort([obj(0, float("nan"))])


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
            chosen, fronts = nsga._environmental_selection(*key_ids(points), k)
            assert len(chosen) == k
            ranks, _ = rank_and_crowd(fronts, k)
            assert ranks == nondominated_sort([points[i] for i in chosen])

    def test_single_front(self):
        pts = [obj(0, 3.0), obj(1, 2.0), obj(2, 1.0)]
        assert nondominated_sort(pts) == [0, 0, 0]

    def test_chain(self):
        pts = [obj(0, 1.0), obj(0, 2.0), obj(0, 3.0)]
        assert nondominated_sort(pts) == [0, 1, 2]

    def test_nan_energy_is_rejected_naming_the_point(self):
        with pytest.raises(InvalidArgumentError, match=r"^point 0 .*nan\): scaled energy must be a number"):
            nondominated_sort([obj(0, float("nan")), obj(1, 2.0)])
        with pytest.raises(InvalidArgumentError, match=r"^point 2 "):
            nondominated_sort([obj(0, 1.0), obj(1, 2.0), obj(1, float("nan")), obj(0, float("nan"))])
        assert nondominated_sort([obj(0, float("inf")), obj(1, 2.0), obj(1, -float("inf"))]) == [0, 1, 0]


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

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_energy_is_rejected_naming_the_point(self, bad):
        with pytest.raises(InvalidArgumentError, match=rf"^point 0 .*{bad}\): scaled energy must be finite"):
            crowding_distance([obj(0, bad), obj(1, 2.0), obj(2, 1.0)])
        with pytest.raises(InvalidArgumentError, match=r"^point 1 "):
            crowding_distance([obj(0, 1.0), obj(1, bad), obj(2, bad)])


def reference_nondominated_sort(points):
    """``nondominated_sort`` as it was before it swept distinct keys (verbatim)."""
    keys = [(p.lam, p.scaled_energy_j) for p in points]  # ObjectiveVector's order
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    latest: list[tuple[int, float]] = []  # latest member of each front
    for i in order:
        lam, energy = key = keys[i]
        r = 0
        for front_lam, front_energy in latest:  # inlined ``dominates``
            if not (
                front_lam <= lam
                and front_energy <= energy
                and (front_lam < lam or front_energy < energy)
            ):
                break
            r += 1
        if r == len(latest):
            latest.append(key)
        else:
            latest[r] = key
        ranks[i] = r
    return ranks


def reference_crowding_distance(front):
    """``crowding_distance`` as it was before it read each objective into a
    list (verbatim)."""
    n = len(front)
    if n == 0:
        raise InvalidArgumentError("crowding distance of an empty front")
    dist = [0.0] * n
    for key in (lambda p: p.lam, lambda p: p.scaled_energy_j):
        order = sorted(range(n), key=lambda i: key(front[i]))
        lo, hi = key(front[order[0]]), key(front[order[-1]])
        dist[order[0]] = dist[order[-1]] = float("inf")
        span = hi - lo
        if span == 0:
            continue  # degenerate objective contributes nothing
        for j in range(1, n - 1):
            dist[order[j]] += (key(front[order[j + 1]]) - key(front[order[j - 1]])) / span
    return dist


class TestRankingEqualsReference:
    LAMS = [0, 1, 2, 3, 10**6, 10**18, 10**19 - 1, 10**19, 10**19 + 7]

    def random_points(self, rng):
        """A set of at most 12 distinct points, drawn with replacement."""
        distinct = [
            obj(self.LAMS[int(rng.integers(len(self.LAMS)))],
                float(rng.choice([0.0, 1.0, 2.5, rng.random() * 1e3, rng.random() * 1e21])))
            for _ in range(int(rng.integers(1, 13)))
        ]
        return [distinct[i] for i in rng.integers(len(distinct), size=int(rng.integers(1, 61)))]

    def test_nondominated_sort_equals_reference(self, rng):
        for _ in range(500):
            points = self.random_points(rng)
            assert nondominated_sort(points) == reference_nondominated_sort(points)

    def test_crowding_distance_equals_reference(self, rng):
        for _ in range(500):
            points = self.random_points(rng)
            assert crowding_distance(points) == reference_crowding_distance(points)

    def chained_points(self, rng):
        """Up to 200 distinct points in 3-6 chains, each point of a chain
        dominating the next, drawn with replacement.  Energies repeat across
        lambdas and include +-inf; lambda reaches 10**19 + 7."""
        lams = list(range(40)) + [10**6, 10**18, 10**19 - 1, 10**19, 10**19 + 7]
        energies = [-np.inf, 0.0, 1.0, 2.5, np.inf] + (rng.random(60) * 1e3).tolist()
        distinct: dict[tuple[int, float], None] = {}
        for _ in range(int(rng.integers(3, 7))):
            n = int(rng.integers(30, 60))
            chain = zip(np.sort(rng.integers(len(lams), size=n)).tolist(),
                        sorted(rng.choice(energies, size=n).tolist()))
            distinct.update(dict.fromkeys((lams[i], e) for i, e in chain))
        distinct = [obj(lam, e) for lam, e in list(distinct)[:200]]
        return [distinct[i] for i in rng.integers(len(distinct), size=int(rng.integers(1, 401)))]

    def test_nondominated_sort_equals_reference_over_many_fronts(self, rng):
        n_fronts = []
        for _ in range(200):
            points = self.chained_points(rng)
            ranks = nondominated_sort(points)
            assert ranks == reference_nondominated_sort(points)
            n_fronts.append(max(ranks) + 1)
        assert np.median(n_fronts) >= 30


def reference_fronts(ranks):
    """``_fronts`` as it was before selection worked per key (verbatim)."""
    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(i)
    return [by_rank[r] for r in sorted(by_rank)]


def reference_crowding_by_rank(objs, ranks):
    """``_crowding_by_rank`` as it was before selection worked per key (verbatim)."""
    crowd = [0.0] * len(objs)
    for members in reference_fronts(ranks):
        for i, d in zip(members, crowding_distance([objs[i] for i in members])):
            crowd[i] = d
    return crowd


def reference_environmental_selection(objs, k):
    """``_environmental_selection`` as it was before it worked per key (verbatim)."""
    ranks = nondominated_sort(objs)
    chosen: list[int] = []
    for members in reference_fronts(ranks):
        if len(chosen) + len(members) <= k:
            chosen.extend(members)
        else:
            dist = crowding_distance([objs[i] for i in members])
            order = sorted(
                range(len(members)), key=lambda j: (-dist[j], members[j])
            )
            chosen.extend(members[j] for j in order[: k - len(chosen)])
            break
    return chosen, [ranks[i] for i in chosen]


class TestSelectionEqualsReference:
    """Per-key selection and crowding against the per-entry reference: equal
    chosen indices, ranks and crowding lists.  Objectives are finite, as
    every evaluation's are: on an infinite span Deb's terms are NaN, and the
    reference's order of NaN keys is an artifact of its sort."""

    def assert_equal_to_reference(self, points, ks):
        ids, keys = key_ids(points)
        ranks = nondominated_sort(points)
        assert rank_and_crowd(nsga._ranked_fronts(ids, keys), len(points)) == (
            ranks, reference_crowding_by_rank(points, ranks))
        for k in ks:
            chosen, fronts = nsga._environmental_selection(ids, keys, k)
            want_chosen, want_ranks = reference_environmental_selection(points, k)
            assert chosen == want_chosen
            survivors = [points[i] for i in chosen]
            assert rank_and_crowd(fronts, len(chosen)) == (
                want_ranks, reference_crowding_by_rank(survivors, want_ranks))

    def random_multiset(self, rng):
        """1-400 entries of 1-12 distinct vectors; lambda up to 10**19 + 7."""
        lams = TestRankingEqualsReference.LAMS
        distinct = [
            obj(lams[int(rng.integers(len(lams)))],
                float(rng.choice([0.0, 1.0, 2.5, rng.random() * 1e3, rng.random() * 1e21])))
            for _ in range(int(rng.integers(1, 13)))
        ]
        return [distinct[i] for i in rng.integers(len(distinct), size=int(rng.integers(1, 401)))]

    def test_random_multisets_at_every_k(self, rng):
        for _ in range(40):
            points = self.random_multiset(rng)
            self.assert_equal_to_reference(points, range(1, len(points) + 1))

    def test_handed_on_fronts_equal_a_regrouping_of_the_survivors(self, rng):
        for _ in range(40):
            points = self.random_multiset(rng)
            ids, keys = key_ids(points)
            for k in range(1, len(points) + 1):
                chosen, fronts = nsga._environmental_selection(ids, keys, k)
                regrouped = nsga._ranked_fronts([ids[i] for i in chosen], keys)
                assert fronts == regrouped
                assert rank_and_crowd(fronts, k) == rank_and_crowd(regrouped, k)

    def test_grouping_onto_handed_on_fronts_equals_grouping_all(self, rng):
        # Selection groups only the members after the first n, onto the runs
        # of the first n's fronts, as evolve hands the survivors' fronts on.
        for _ in range(40):
            points = self.random_multiset(rng)
            ids, keys = key_ids(points)
            n = int(rng.integers(0, len(points) + 1))
            fronts = nsga._ranked_fronts(ids[:n], keys)
            assert nsga._key_runs(ids, keys, fronts) == nsga._key_runs(ids, keys)
            for k in range(1, len(points) + 1):
                assert (nsga._environmental_selection(ids, keys, k, fronts)
                        == nsga._environmental_selection(ids, keys, k))

    def test_exact_fits_of_whole_fronts(self, rng):
        for _ in range(200):
            points = self.random_multiset(rng)
            sizes = np.bincount(nondominated_sort(points))
            fits = np.cumsum(sizes).tolist()
            assert fits[-1] == len(points)
            self.assert_equal_to_reference(points, sorted({*fits, max(1, fits[0] - 1)}))

    def test_chained_many_front_sets(self, rng):
        chains = TestRankingEqualsReference()
        for _ in range(25):
            points = [p for p in chains.chained_points(rng) if np.isfinite(p.scaled_energy_j)]
            if points:
                self.assert_equal_to_reference(points, range(1, len(points) + 1))

    def test_copies_inside_a_front_have_distance_zero(self):
        points = [obj(0, 3.0), obj(1, 2.0)] * 2 + [obj(1, 2.0), obj(2, 1.0)]
        ids, keys = key_ids(points)
        # Middle key (1, 2.0) at 1, 3, 4: only its first and last copy count.
        assert rank_and_crowd(nsga._ranked_fronts(ids, keys), 6) == ([0] * 6, [
            float("inf"), (1 - 0) / 2 + (2.0 - 1.0) / 2.0,
            float("inf"), 0.0,
            (2 - 1) / 2 + (3.0 - 2.0) / 2.0, float("inf"),
        ])
        # Survivors 0, 2, 5, 1 keep (1, 2.0) once, as survivor 3.
        assert nsga._environmental_selection(ids, keys, 4) == (
            [0, 2, 5, 1], [[(obj(0, 3.0), [0, 1]), (obj(1, 2.0), [3]), (obj(2, 1.0), [2])]])
        assert nsga._environmental_selection(ids, keys, 6) == (
            list(range(6)), [[(obj(0, 3.0), [0, 2]), (obj(1, 2.0), [1, 3, 4]), (obj(2, 1.0), [5])]])


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

    def test_wrong_gene_count_names_both_lengths(self):
        s = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
        with pytest.raises(InvalidArgumentError, match=r"M \+ N\*M = 3 \+ 9\*3 = 30 genes, got 24"):
            decode(np.ones(24, dtype=np.int64), s.profiles, s.cluster)
        with pytest.raises(InvalidArgumentError, match="30 genes, got 31"):
            decode(np.ones((2, 31), dtype=np.int64), s.profiles, s.cluster)

    def test_mode_genes_pass_through_unchecked(self):
        # The amd hosts have 3 modes; decode keeps mode 9, validation rejects it.
        s = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
        alloc = decode([1, 1, 9] + [100, 0, 0] * 9, s.profiles, s.cluster)
        assert alloc.dvfs == (1, 1, 9)
        with pytest.raises(InvalidAllocationError):
            sim.validate_allocation(alloc, s.profiles, s.cluster)

    def test_returned_values_are_python_ints(self):
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1)]
        [alloc] = decode(np.array([[2, 3, 1, 2]]), profiles, [None] * 2)
        assert all(type(v) is int for v in alloc.dvfs + alloc.shares[0])

    @pytest.mark.parametrize("genes, dtype", [
        ([1.9, 1, 1] + [50.7] * 27, "float64"),  # was decoded as modes (1, 1, 1) and shares of 50
        ([1.0, 1.0, 1.0] + [50.0] * 27, "float64"),
        ([True] * 30, "bool"),
        (np.ones((2, 30), dtype=np.float32), "float32"),
        (np.ones((2, 30), dtype=bool), "bool"),
    ])
    def test_float_and_bool_genes_are_rejected_naming_the_dtype(self, genes, dtype):
        s = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
        with pytest.raises(InvalidArgumentError, match=f"^genes must be integers, got dtype {dtype}$"):
            decode(genes, s.profiles, s.cluster)
        assert decode(np.asarray(genes).astype(np.uint8), s.profiles, s.cluster) == decode(
            np.asarray(genes).astype(np.uint8).tolist(), s.profiles, s.cluster)

    @pytest.mark.parametrize("genes, where", [
        ([True, 1, 1] + [100, 0, 0] * 9, 0),  # was decoded as modes (1, 1, 1)
        ([1, 1, 1] + [100, np.bool_(False), 0] + [100, 0, 0] * 8, 4),
        ([[1, 1, 1] + [100, 0, 0] * 9, [1, 1, 1] + [100, 0, False] + [100, 0, 0] * 8], 35),
    ])
    def test_bools_among_integers_are_rejected_naming_the_first(self, genes, where):
        s = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
        with pytest.raises(InvalidArgumentError, match=f"^genes must be integers, got a bool at flat index {where}$"):
            decode(genes, s.profiles, s.cluster)

    @pytest.mark.parametrize("shares, message", [
        ([-5, -5, -5], "share genes must be >= 0, got -5"),  # was rounded to (-499, -499, -499)
        ([100, -1, 1], "share genes must be >= 0, got -1"),
        ([2**62, 2**62, 0], r"share row total 9223372036854775808 exceeds 2\*\*53 / 100"),  # was (1, 1, 1)
        ([2**53 // 100, 1, 0], r"share row total 90071992547410 exceeds 2\*\*53 / 100"),
    ])
    def test_negative_and_huge_share_genes_are_rejected(self, shares, message):
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1)]
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            decode([1, 1, 1] + shares, profiles, [None] * 3)
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            decode(np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1] + shares], dtype=object).astype(
                np.uint64 if min(shares) >= 0 else np.int64), profiles, [None] * 3)

    def test_largest_share_total_is_decoded_exactly(self):
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 1)]
        genes = [1, 1, 1, 2**53 // 100 - 1, 1, 0]
        assert decode(genes, profiles, [None] * 3) == scalar_decode(genes, profiles, [None] * 3)

    def test_block_of_rank_above_two_is_rejected_naming_its_shape(self):
        s = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
        with pytest.raises(InvalidArgumentError, match=r"^genes must be a gene vector or a \[U, G\] block, got shape \(1, 1, 30\)$"):
            decode(np.ones((1, 1, 30), dtype=np.int64), s.profiles, s.cluster)


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
        for window in (0, -5):
            with pytest.raises(ConfigurationError, match=f"stop_window must be >= 1, got {window}"):
                EvolveConfig(stop_window=window)

    @pytest.mark.parametrize("field, value", [
        ("population", 10.0), ("population", float("nan")), ("generations", 3.5),
        ("generations", True), ("seed", 1.5), ("stop_window", 2.5), ("share_step", True),
        ("max_mode_index", 1.5),
    ])
    def test_non_int_field_is_rejected_naming_it(self, field, value):
        # Each once surfaced as a raw TypeError, a misleading mode error, or not at all.
        with pytest.raises(ConfigurationError, match=f"^{field} must be an int, got {value!r}$"):
            EvolveConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), True, "5", 0, -1])
    def test_bad_energy_unit_is_rejected_naming_it(self, value):
        # inf made every energy_units 0.0, True counted as 1 J, "5" raised a raw TypeError.
        with pytest.raises(ConfigurationError,
                           match=f"^energy_unit_j must be > 0 .*, got {value!r}$"):
            EvolveConfig(energy_unit_j=value)

    def test_zero_generations_rejected(self):
        with pytest.raises(ConfigurationError, match="generations"):
            EvolveConfig(generations=0)

    def test_unknown_dyn_energy_form_rejected(self):
        EvolveConfig(dyn_energy_form="dimensional")
        with pytest.raises(ConfigurationError, match="dyn_energy_form 'as-writen'"):
            EvolveConfig(dyn_energy_form="as-writen")


def cross(a, b, rng, prob):
    """The children of the row pairs of two ``[n, G]`` blocks, as two blocks."""
    c1, c2 = single_point_crossover(np.stack([a, b], axis=1), rng, prob).transpose(1, 0, 2)
    return c1, c2


class TestOperators:
    def test_crossover_swaps_tails(self):
        rng = np.random.default_rng(0)
        a = np.ones((100, 4), dtype=np.int64)
        b = np.full((100, 4), 2, dtype=np.int64)
        c1, c2 = cross(a, b, rng, prob=1.0)
        for r1, r2 in zip(c1, c2):
            cut = int((r1 == 1).sum())
            assert (r1 == [1] * cut + [2] * (4 - cut)).all()
            assert (r2 == [2] * cut + [1] * (4 - cut)).all()
        assert len({tuple(r) for r in c1}) > 1  # multiple cut positions exercised

    def test_crossover_cut_reaches_both_boundaries(self):
        rng = np.random.default_rng(4)
        a = np.zeros((2000, 5), dtype=np.int64)
        b = np.ones((2000, 5), dtype=np.int64)
        c1, _ = cross(a, b, rng, prob=1.0)
        cuts = set((c1 == 0).sum(axis=1).tolist())
        assert cuts == set(range(6))  # boundary 0 (c1 = b) through G (c1 = a)

    def test_crossover_skipped_below_probability(self):
        rng = np.random.default_rng(0)
        a = np.array([[1, 2, 3], [7, 8, 9]], dtype=np.int64)
        b = np.array([[4, 5, 6], [1, 1, 1]], dtype=np.int64)
        c1, c2 = cross(a, b, rng, prob=0.0)
        assert (c1 == a).all() and (c2 == b).all()

    def test_crossover_rate_close_to_probability(self):
        rng = np.random.default_rng(5)
        a = np.zeros((4000, 3), dtype=np.int64)
        b = np.ones((4000, 3), dtype=np.int64)
        c1, _ = cross(a, b, rng, prob=0.5)
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
        out = integer_flip_mutation(genes.copy(), bounds, rng, prob=0.1)
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


@st.composite
def archive_stream(draw):
    """Offers drawn with repeats from a few entries; lam, energy and genes come
    from small pools, so objective ties and entries sharing genes are common."""
    pool = draw(st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2, 10**19]),
            st.sampled_from([0.0, 1.0, 1.5, 2.0]),
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
        ),
        min_size=1, max_size=10,
    ))
    stream = draw(st.lists(st.sampled_from(pool), max_size=40))
    return [nsga._Scored(genes, obj(lam, e), e, e) for lam, e, genes in stream]


class TestArchiveFirstOffers:
    @settings(max_examples=300, deadline=None)
    @given(stream=archive_stream())
    def test_offering_each_entry_once_leaves_the_same_points(self, stream):
        every, first = _Archive(), _Archive()
        for entry in stream:
            every.offer(entry)
        for entry in dict.fromkeys(stream):  # first occurrences, in stream order
            first.offer(entry)
        assert first.points == every.points


def key_bytes(rows, high):
    """``evolve``'s key bytes of each row of ``rows``, whose genes are in ``0..high``,
    and their dtype."""
    key_type = nsga._key_type(high)
    return nsga._row_bytes(np.asarray(rows).astype(key_type)), key_type


class TestRowKeys:
    """Archive entries carry their gene rows as big-endian key bytes, which
    order as the gene tuples do, so the archive keeps the same genes."""

    @pytest.mark.parametrize("high", [2, 100, 255, 256, 1000, 65535])
    def test_key_bytes_order_like_gene_tuples(self, high):
        rng = np.random.default_rng(high)
        rows = rng.integers(0, high + 1, (300, 5))
        rows[100:200] = rows[rng.integers(0, 100, 100)]  # ties
        rows[200:, :3] = rows[:100, :3]  # rows that differ only in their last genes
        keys, key_type = key_bytes(rows, high)
        assert key_type.itemsize == (1 if high < 256 else 2)
        genes = [tuple(row) for row in rows.tolist()]
        assert sorted(range(300), key=keys.__getitem__) == sorted(range(300), key=genes.__getitem__)
        for a, b in rng.integers(0, 300, (2000, 2)).tolist():
            assert (keys[a] < keys[b], keys[a] == keys[b]) == (genes[a] < genes[b], genes[a] == genes[b])
        assert [tuple(np.frombuffer(k, key_type).tolist()) for k in keys] == genes

    @settings(max_examples=200, deadline=None)
    @given(stream=archive_stream(), high=st.sampled_from([2, 255, 256, 65535]))
    def test_archive_keeps_the_same_genes_from_bytes_as_from_tuples(self, stream, high):
        # Spread the genes over the dtype's range, so that a uint16 gene's low
        # byte alone would order some pairs the other way.
        stream = [e._replace(genes=tuple(g * high // 2 for g in e.genes)) for e in stream]
        as_tuples, as_bytes = _Archive(), _Archive()
        for entry in stream:
            as_tuples.offer(entry)
            as_bytes.offer(entry._replace(genes=key_bytes([entry.genes], high)[0][0]))
        key_type = nsga._key_type(high)
        assert [p._replace(genes=tuple(np.frombuffer(p.genes, key_type).tolist()))
                for p in as_bytes.points] == as_tuples.points


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
        trace = JobTrace.from_jobs(jobs, 0, max(j.deadline_s for j in jobs) + 1)

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
            evolve([], [TaskProfile(0, "SOFT", 1, 1.0, 1.0, 1)],
                   JobTrace.from_jobs((), 0, 1.0), cfg)
        with pytest.raises(ConfigurationError):
            evolve(two_host_cluster(), [], JobTrace.from_jobs((), 0, 1.0), cfg)

    def test_deterministic_given_seed(self):
        cluster = two_host_cluster()
        profiles = [TaskProfile(0, "SOFT", 10**8, 1.0, 1.0, 4)]
        jobs = [Job(0, j, j * 1.0, j * 1.0 + 1.0, 10**8) for j in range(4)]
        trace = JobTrace.from_jobs(jobs, 0, 6.0)
        cfg = EvolveConfig(population=8, generations=20, seed=9, stop_window=20)
        r1 = evolve(cluster, profiles, trace, cfg)
        r2 = evolve(cluster, profiles, trace, cfg)
        assert [(p.genes, p.objectives) for p in r1.front] == [
            (p.genes, p.objectives) for p in r2.front
        ]
        assert r1.convergence == r2.convergence

    @staticmethod
    def count_decodes_and_evaluations(monkeypatch):
        """Record the gene rows repaired for scoring (by the run's
        ``_repairer``), the gene vectors passed to ``decode`` and, as
        ``Allocation``s, the rows of the blocks passed to
        ``evaluate_objectives`` (one call may score many)."""
        seen = {"scored": [], "decoded": [], "evaluated": 0, "allocations": []}
        repairer, decoder = nsga._repairer, nsga.decode

        def repairer_wrapper(*args):
            repair = repairer(*args)

            def recording(rows):
                seen["scored"].extend(map(tuple, rows.tolist()))
                return repair(rows)

            return recording

        def decode_wrapper(genes, *args):
            seen["decoded"].append(genes)
            return decoder(genes, *args)

        def evaluate_wrapper(cluster, profiles, trace, block, **kwargs):
            modes, shares = block
            seen["evaluated"] += len(modes)
            seen["allocations"].extend(
                Allocation(dvfs=tuple(d), shares=tuple(map(tuple, s)))
                for d, s in zip(modes.tolist(), shares.tolist())
            )
            return evaluate_objectives(cluster, profiles, trace, block, **kwargs)

        monkeypatch.setattr(nsga, "_repairer", repairer_wrapper)
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
        return cluster, profiles, JobTrace.from_jobs(jobs, 0, 6.0)

    def test_decodes_only_cache_misses_and_the_returned_front(self, monkeypatch):
        seen = self.count_decodes_and_evaluations(monkeypatch)
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=8, generations=10, seed=3, share_step=100)
        result = evolve(cluster, profiles, trace, cfg)
        assert seen["decoded"] == [p.genes for p in result.front]
        scored = seen["scored"]
        assert len(scored) == len(set(scored)) == result.stats.gene_rows  # none repaired twice
        allocs = seen["allocations"]
        assert len(allocs) == len(set(allocs)) == result.stats.allocations
        assert set(allocs) == {decode(genes, profiles, cluster) for genes in scored}
        assert len(allocs) < len(scored)  # some rows repair to one allocation
        for p in result.front:
            assert p.allocation == decode(p.genes, profiles, cluster)

    def test_allocations_are_built_only_for_the_front(self, monkeypatch):
        # The search scores mode and share arrays; only decode, for the
        # returned front, builds Allocation objects.
        built = []

        class CountedAllocation(Allocation):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sim, "Allocation", CountedAllocation)
        s = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
        trace = generate_jobs(s.profiles, 1, s.phase_policy)
        cfg = dataclasses.replace(s.optimizer, seed=1, population=20, generations=10)
        result = evolve(list(s.cluster), list(s.profiles), trace, cfg,
                        soft_constraints=s.soft_constraints)
        assert len(built) == len(result.front) >= 1

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
        scored = seen["scored"]
        assert len(scored) == len(set(scored)) == seen["evaluated"]
        assert (result.stats.gene_rows, result.stats.allocations) == (len(scored), len(scored))

    def test_rows_that_repair_to_one_allocation_are_scored_once(self, monkeypatch):
        # With share_step 100, a REAL row (1, 1) beside (1, 0) and a SOFT row
        # (0, 0) beside (1, 0) all put the task on host 0.
        crafted = np.array([[2, 2, 1, 1, 1, 0], [2, 2, 1, 0, 1, 0],
                            [2, 2, 1, 0, 0, 0], [2, 2, 0, 0, 0, 0]])
        monkeypatch.setattr(nsga, "integer_flip_mutation", lambda genes, *args: crafted.copy())
        seen = self.count_decodes_and_evaluations(monkeypatch)
        cluster = two_host_cluster()
        profiles = [TaskProfile(0, "REAL", 10**8, 1.0, 1.0, 4),
                    TaskProfile(1, "SOFT", 10**8, 1.0, 1.0, 4)]
        jobs = [Job(p.task_id, j, j * 1.0, j * 1.0 + p.deadline_s, p.n_instructions)
                for p in profiles for j in range(p.n_jobs)]
        cfg = EvolveConfig(population=4, generations=2, seed=5, share_step=100)
        result = evolve(cluster, profiles, JobTrace.from_jobs(jobs, 0, 6.0), cfg)
        on_host_0 = Allocation(dvfs=(2, 2), shares=((100, 0), (100, 0)))
        assert decode(crafted, profiles, cluster) == [on_host_0] * 4
        # Only the second row is one-hot, so only it can be in the first population.
        scaled = (crafted * [1, 1, 100, 100, 100, 100]).tolist()
        assert sum(tuple(row) in set(seen["scored"]) for row in scaled) >= 3
        assert seen["allocations"].count(on_host_0) == 1
        assert result.stats.allocations == len(seen["allocations"])
        assert result.stats.gene_rows == len(seen["scored"])

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

    @pytest.mark.parametrize("name", ["intel", "amd"])
    def test_scan_constants_and_check_arrays_are_built_once_per_run(self, monkeypatch, name):
        # The scan's per-trace constants, and the REAL mask and mode counts
        # every block check reads, come from the run's one context.
        s = load_scenario(str(FIXTURES / f"scenario_{name}.json"), seed=1)
        trace = generate_jobs(s.profiles, 1, s.phase_policy)
        built, checked = [], []
        scan_constants, check_rules = sim.scan_constants, sim._check_rules

        def counting(*args):
            built.append(args)
            return scan_constants(*args)

        def recording(ordered, cluster, is_real, n_modes, modes, shares):
            checked.append((is_real, n_modes))
            return check_rules(ordered, cluster, is_real, n_modes, modes, shares)

        monkeypatch.setattr(sim, "scan_constants", counting)
        monkeypatch.setattr(sim, "_check_rules", recording)
        cfg = dataclasses.replace(s.optimizer, seed=1, population=20, generations=10)
        evolve(list(s.cluster), list(s.profiles), trace, cfg, soft_constraints=s.soft_constraints)
        assert len(built) == 1
        assert len(checked) > 1
        assert all(is_real is checked[0][0] and n_modes is checked[0][1]
                   for is_real, n_modes in checked)

    def test_last_archive_change_is_the_last_generation_that_changed_it(self, monkeypatch):
        # Generation g's offers follow its tournament, so g tournaments have
        # run by then; the initial population's offers are generation 0.
        generation, changed = [0], []
        select, offer = nsga.tournament_select, nsga._Archive.offer

        def counting_select(*args):
            generation[0] += 1
            return select(*args)

        def recording_offer(archive, cand):
            before = list(archive.points)
            took = offer(archive, cand)
            assert took == (archive.points != before)
            if took:
                changed.append(generation[0])
            return took

        monkeypatch.setattr(nsga, "tournament_select", counting_select)
        monkeypatch.setattr(nsga._Archive, "offer", recording_offer)
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=8, generations=30, seed=2, stop_window=30)
        result = evolve(cluster, profiles, trace, cfg)
        assert changed[0] == 0 < changed[-1]
        assert result.stats.last_archive_change == changed[-1]

    def test_a_run_the_window_ends_says_so(self):
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=6, generations=40, seed=0, stop_window=5)
        result = evolve(cluster, profiles, trace, cfg)
        assert result.generations_run < cfg.generations
        assert result.stats.stop_reason == "window"
        assert result.stats.gene_rows + result.stats.cache_hits == 6 * (result.generations_run + 1)

    def test_odd_population_breeds_and_keeps_its_size(self, monkeypatch):
        sizes = {"offspring": [], "candidates": [], "survivors": []}
        mutate, select = nsga.integer_flip_mutation, nsga._environmental_selection

        def mutation_wrapper(genes, *args):
            sizes["offspring"].append(len(genes))
            return mutate(genes, *args)

        def selection_wrapper(ids, keys, k, fronts):
            chosen, fronts = select(ids, keys, k, fronts)
            sizes["candidates"].append(len(ids))
            sizes["survivors"].append(len(chosen))
            return chosen, fronts

        monkeypatch.setattr(nsga, "integer_flip_mutation", mutation_wrapper)
        monkeypatch.setattr(nsga, "_environmental_selection", selection_wrapper)
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=5, generations=6, seed=2, stop_window=6)
        result = evolve(cluster, profiles, trace, cfg)
        assert result.generations_run == 6
        assert sizes == {"offspring": [5] * 6, "candidates": [10] * 6, "survivors": [5] * 6}

    def test_members_are_grouped_by_key_once_per_generation(self, monkeypatch):
        # Once for the initial population, then once per selection: the
        # survivors' fronts are handed on, not rebuilt for the tournament,
        # and selection walks only the offspring, whose runs it merges into
        # the survivors' runs.
        calls = []
        key_runs = nsga._key_runs

        def counting(ids, keys, fronts=()):
            calls.append(len(ids) - sum(len(run) for front in fronts for _, run in front))
            return key_runs(ids, keys, fronts)

        monkeypatch.setattr(nsga, "_key_runs", counting)
        cluster, profiles, trace = self.two_task_instance()
        cfg = EvolveConfig(population=6, generations=7, seed=4, stop_window=7)
        result = evolve(cluster, profiles, trace, cfg)
        assert result.generations_run == 7
        assert calls == [6] * 8


class TestRepairTable:
    @pytest.mark.parametrize("share_step", [100, 50, 20])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_equals_repair_of_every_row(self, monkeypatch, m, share_step):
        # Four tasks, non-REAL and REAL, each spelling every share row once.
        spelled = np.array(list(itertools.product(range(0, 101, share_step), repeat=m)))
        rolled = np.roll(spelled, 1, axis=0)
        rows = np.hstack([np.ones_like(spelled), spelled, spelled, rolled, rolled])
        is_real = np.array([False, True, False, True])
        calls = []
        repair = nsga._repair

        def counting(rows, *args):
            calls.append(len(rows))
            return repair(rows, *args)

        monkeypatch.setattr(nsga, "_repair", counting)
        lookup = nsga._repairer(m, is_real, share_step)
        built = list(calls)
        got = lookup(rows)
        assert got.dtype == np.int64
        assert np.array_equal(got, repair(rows, m, is_real))
        n_codes = len(spelled)
        if n_codes <= 2**12:  # one table for the run, no call per block
            assert built == calls == [n_codes]
        else:
            assert built == [] and calls == [len(rows)]


class TestRunStats:
    # Seed 1, population 100, stop window off: (distinct gene rows, cache
    # hits, allocations), measured before the counts were part of the result.
    COUNTS = {
        ("intel", "VAR", 100): (3278, 6822, 2441),
        ("amd", "MIN", 200): (1979, 18121, 897),
    }

    @pytest.mark.parametrize("fixture, policy, generations", sorted(COUNTS))
    def test_seed_1_counts(self, fixture, policy, generations):
        s = load_scenario(str(FIXTURES / f"scenario_{fixture}.json"), seed=1)
        trace = generate_jobs(s.profiles, 1, s.phase_policy)
        cfg = dataclasses.replace(s.optimizer, seed=1, policy=policy, population=100,
                                  generations=generations, stop_window=generations)
        result = evolve(list(s.cluster), list(s.profiles), trace, cfg,
                        soft_constraints=s.soft_constraints)
        stats = result.stats
        assert (stats.gene_rows, stats.cache_hits, stats.allocations) == self.COUNTS[
            fixture, policy, generations]
        assert stats.gene_rows + stats.cache_hits == 100 * (generations + 1)
        assert result.generations_run == generations and stats.stop_reason == "cap"
        assert 0 < stats.last_archive_change <= generations


def front_digest(result) -> str:
    """sha256 of a run's front and convergence, in the benchmark's form."""
    h = hashlib.sha256()
    for p in result.front:
        h.update(f"{p.objectives.lam},{p.energy_j!r},{p.energy_units!r},"
                 f"{p.allocation.dvfs},{p.allocation.shares}\n".encode())
    for gen, lam, energy in result.convergence:
        h.update(f"{gen},{lam},{energy!r}\n".encode())
    return h.hexdigest()


# Recorded before the fitness cache was keyed by gene bytes and scores were
# memoized per repaired allocation, so that they guard that change.
EVOLVE_DIGESTS = {
    ("intel", "MIN", 2): "083ef4cf727f877fedc4b6e8a0d8d729189d3e02a59f3ba153d3a52f242b1206",
    ("intel", "MIN", 3): "a77309cbd4f6d3ccb0fa89ba65b7609969f8167e9d950c6da6b61970b5f65b7f",
    ("intel", "VAR", 2): "8c25530568c4c9eccc9673f2ae821612148650c5e4e193f4953d83fc17ae1237",
    ("intel", "VAR", 3): "56c41f64c1cd6caf0aeeda8c1138b56f9fab7c652a7e0ade89e72e1c14efe542",
    ("amd", "MIN", 2): "a60a785218f016b9bd6220c8eaac9b9a8e03135989e509aed67cf604ec5610e7",
    ("amd", "MIN", 3): "dc1666ff4b172664049d1fd4fb73ec8be5cf553f5414fe0df546573ffc3a6a9e",
    ("amd", "VAR", 2): "a694e6563c7f49aaf04ba2858017d3b27c10a9b096a7e5568164abbb766c8734",
    ("amd", "VAR", 3): "3da276aea4fe3c32455f54b32dc9951ef646635c021346bfec870e3052d294b7",
}


@pytest.mark.parametrize("fixture, policy, seed", sorted(EVOLVE_DIGESTS))
def test_evolve_matches_golden_digests(fixture, policy, seed):
    s = load_scenario(str(FIXTURES / f"scenario_{fixture}.json"), seed=seed)
    trace = generate_jobs(s.profiles, seed, s.phase_policy)
    cfg = dataclasses.replace(s.optimizer, seed=seed, policy=policy, population=30,
                              generations=20)
    result = evolve(list(s.cluster), list(s.profiles), trace, cfg,
                    soft_constraints=s.soft_constraints)
    assert front_digest(result) == EVOLVE_DIGESTS[fixture, policy, seed]


# MIN runs of 300 generations with the stop window off: the best point
# settles early and most generations add nothing, so the last front is a few
# objective vectors copied many times.  Recorded before selection and
# crowding worked per distinct objective vector, so that they guard that change.
LONG_RUN_DIGESTS = {
    ("intel", "MIN", 1): "ab878ddd14a9f34aada08bb92c74acceb20dea5081d3a780f4faac87b1292ab3",
    ("amd", "MIN", 1): "96164d6c4a46c4047180b22b53baccbcf543fc6df534a747b1a867f2299f65c4",
}


@pytest.mark.parametrize("fixture, policy, seed", sorted(LONG_RUN_DIGESTS))
def test_long_stagnant_run_matches_golden_digest(fixture, policy, seed):
    s = load_scenario(str(FIXTURES / f"scenario_{fixture}.json"), seed=seed)
    trace = generate_jobs(s.profiles, seed, s.phase_policy)
    cfg = dataclasses.replace(s.optimizer, seed=seed, policy=policy, population=100,
                              generations=300, stop_window=300)
    result = evolve(list(s.cluster), list(s.profiles), trace, cfg,
                    soft_constraints=s.soft_constraints)
    assert result.generations_run == 300
    assert front_digest(result) == LONG_RUN_DIGESTS[fixture, policy, seed]


# Every run above uses the scenarios' share_step 100, whose share rows round
# exactly.  These take the largest-remainder path: step 1 repairs each
# generation's rows (101**M codes); step 20 gathers from the repair table on
# amd (6**3 codes) and repairs each generation's rows on intel (6**6).
# Recorded before share rows were repaired by table lookup.
SHARE_STEP_DIGESTS = {
    ("intel", "VAR", 2, 1): "3a09364a22816081f0c244669eaa10997494d25ddb844af0ba572b46f55f894e",
    ("amd", "VAR", 2, 1): "7dae5f1194a2f2012b3d808382f98369e84d626abafdfb92e76cf4f2704d3487",
    ("intel", "MIN", 3, 20): "10aafa026244d66329c8d50a8d80902041bea1c4efd906f3fafc8a046638d43a",
    ("amd", "MIN", 3, 20): "903f0dd37ee6b33640a812169d60dcb5d0858be7572e7133cf8cd95274519293",
}


@pytest.mark.parametrize("fixture, policy, seed, share_step", sorted(SHARE_STEP_DIGESTS))
def test_share_steps_match_golden_digests(fixture, policy, seed, share_step):
    s = load_scenario(str(FIXTURES / f"scenario_{fixture}.json"), seed=seed)
    trace = generate_jobs(s.profiles, seed, s.phase_policy)
    cfg = dataclasses.replace(s.optimizer, seed=seed, policy=policy, population=30,
                              generations=20, share_step=share_step)
    result = evolve(list(s.cluster), list(s.profiles), trace, cfg,
                    soft_constraints=s.soft_constraints)
    assert front_digest(result) == SHARE_STEP_DIGESTS[fixture, policy, seed, share_step]
