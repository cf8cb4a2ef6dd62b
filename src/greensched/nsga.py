"""NSGA-II over (mode, share) chromosomes, minimizing [penalty, (1+penalty)*energy].

A chromosome is an integer vector of length M + N*M: the first M genes pick a
DVFS mode per server, the remaining N*M genes are share percentages in
[0, 100].  Decoding repairs rather than rejects: rows are normalized to sum
100, zero rows route everything to the lowest-id server, and rows of
single-host (REAL) tasks keep only their largest entry.

The population is one int64 ``[P, G]`` gene matrix.  Each generation breeds
it with block operators: P binary tournaments from one draw, crossover of
the ``[pair, 2, G]`` parent block with one coin and one cut per pair, and a
mutation mask whose flipped genes are redrawn in place in one in-bounds draw.

Each piece of work is done once per distinct input.  Scores are cached by the
bytes of each scaled gene row.  The rows a generation brings that were never
seen are repaired together, and their scores are memoized by the bytes of the
repaired row, since many gene rows repair to one allocation: only allocations
never scored are evaluated, as one block of mode and share arrays per
generation.  When a task's share genes can spell at most
``REPAIR_TABLE_MAX`` rows (``(100 // share_step + 1) ** M``), the run repairs
every one of them once, as a REAL and as another task, and each generation
gathers its repaired rows from that table; with more, each generation
repairs its fresh rows itself (see :func:`_repairer`).  An archive entry
carries its gene row as those key bytes, big-endian, so that bytes order like
gene tuples; only the returned front decodes them into gene tuples and
``Allocation`` objects.  The archive is offered only the entries first seen
in a round, and the best point is looked up only when the archive changed.

Each distinct objective vector gets an integer key id when it is first
scored, and the population carries one id per member; the
``ObjectiveVector`` itself is the key that ranking sorts and sweeps.  Each
generation groups only its offspring by id, into the runs of the survivors'
fronts that the last selection handed on: selection ranks each distinct
vector once, and hands the new survivors' fronts to the next generation,
whose tournament reads its ranks and crowding from them (see
:func:`_chain_crowding`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import sim
from .errors import ConfigurationError, InvalidArgumentError
from .inputs import is_finite_number
from .power import DYN_ENERGY_FORMS
from .tasks import LatenessConstraint
from .workload import JobTrace, TaskProfile

POLICIES = ("MIN", "MAX", "VAR")
CROSSOVER_PROB = 0.9
#: Largest share-row total ``decode`` takes: ``r * 100`` is exact in float64 for ``r`` up to it.
SHARE_TOTAL_MAX = 2**53 // 100
#: Most share rows a task's genes may spell for ``evolve`` to repair them all up front.
REPAIR_TABLE_MAX = 2**12
#: ``EvolveConfig`` fields that must be ints (``max_mode_index`` may also be None).
_INT_FIELDS = ("population", "generations", "seed", "stop_window", "max_mode_index",
               "share_step", "hard_miss_weight")


class ObjectiveVector(NamedTuple):
    lam: int
    scaled_energy_j: float  # (1 + lam) * total energy


Run = tuple[ObjectiveVector, list[int]]  # a distinct key and its members' positions, in index order


@dataclass(frozen=True)
class FrontPoint:
    genes: tuple[int, ...]
    objectives: ObjectiveVector
    allocation: sim.Allocation
    energy_j: float
    energy_units: float


@dataclass(frozen=True)
class EvolveConfig:
    population: int = 100
    generations: int = 25_000
    seed: int = 0
    policy: str = "VAR"
    stop_window: int = 500  # stop after the archive has held a lam=0 point this long
    max_mode_index: int | None = None
    share_step: int = 1  # share genes move in multiples of this (must divide 100)
    dyn_energy_form: str = "as-written"
    energy_unit_j: float = sim.ENERGY_UNIT_J
    hard_miss_weight: int = sim.HARD_MISS_WEIGHT

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {self.policy!r}")
        for name in _INT_FIELDS:  # a bool, float or numpy scalar is not taken for an int
            value = getattr(self, name)
            if type(value) is not int and not (name == "max_mode_index" and value is None):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        if self.population < 2:
            raise ConfigurationError("population must be >= 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.stop_window < 1:
            raise ConfigurationError(f"stop_window must be >= 1, got {self.stop_window}")
        if self.max_mode_index is not None and self.max_mode_index < 1:
            raise ConfigurationError("max_mode_index must be >= 1")
        if self.dyn_energy_form not in DYN_ENERGY_FORMS:
            raise ConfigurationError(
                f"dyn_energy_form {self.dyn_energy_form!r} is not one of {DYN_ENERGY_FORMS}"
            )
        if not 1 <= self.share_step <= 100:
            raise ConfigurationError("share_step must be in 1..100")
        if 100 % self.share_step != 0:
            raise ConfigurationError("share_step must divide 100")
        if not (is_finite_number(self.energy_unit_j) and self.energy_unit_j > 0):
            raise ConfigurationError(
                f"energy_unit_j must be > 0 and a finite int or float, got {self.energy_unit_j!r}"
            )
        if self.hard_miss_weight < 1:
            raise ConfigurationError(f"hard_miss_weight must be >= 1, got {self.hard_miss_weight}")


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Minimization dominance on (lam, scaled energy)."""
    return (
        a.lam <= b.lam
        and a.scaled_energy_j <= b.scaled_energy_j
        and (a.lam < b.lam or a.scaled_energy_j < b.scaled_energy_j)
    )


def nondominated_sort(points: Sequence[ObjectiveVector]) -> list[int]:
    """Rank per point: 0 = non-dominated, r = non-dominated after removing < r.

    Equal points share a rank; each distinct point is ranked once, by the
    sweep of :func:`_ranked_fronts`.  A NaN scaled energy has no rank.
    """
    _check_energies(points, allow_inf=True)
    key_ids: dict[ObjectiveVector, int] = {}
    ids = [key_ids.setdefault(p, len(key_ids)) for p in points]
    ranks = [0] * len(points)
    for rank, front in enumerate(_ranked_fronts(ids, list(key_ids))):
        for i in chain.from_iterable(run for _, run in front):
            ranks[i] = rank
    return ranks


def crowding_distance(front: Sequence[ObjectiveVector]) -> list[float]:
    """Normalized cuboid-perimeter crowding; boundary points get +inf.

    Every scaled energy must be finite: on an infinite span the terms are NaN.
    """
    n = len(front)
    if n == 0:
        raise InvalidArgumentError("crowding distance of an empty front")
    _check_energies(front, allow_inf=False)
    dist = [0.0] * n
    for values in ([p.lam for p in front], [p.scaled_energy_j for p in front]):
        order = sorted(range(n), key=values.__getitem__)
        ordered = [values[i] for i in order]
        dist[order[0]] = dist[order[-1]] = float("inf")
        span = ordered[-1] - ordered[0]
        if span == 0:
            continue  # degenerate objective contributes nothing
        for j in range(1, n - 1):
            dist[order[j]] += (ordered[j + 1] - ordered[j - 1]) / span
    return dist


def _check_energies(points: Sequence[ObjectiveVector], allow_inf: bool) -> None:
    """Name the first point whose scaled energy is NaN (or infinite, unless allowed)."""
    for i, p in enumerate(points):
        e = p.scaled_energy_j
        if e != e or not (allow_inf or math.isfinite(e)):
            raise InvalidArgumentError(
                f"point {i} {p}: scaled energy must be {'a number' if allow_inf else 'finite'}"
            )


def decode(
    genes: Sequence[int] | np.ndarray,
    profiles: Sequence[TaskProfile],
    cluster: Sequence[sim.ClusterHost],
) -> sim.Allocation | list[sim.Allocation]:
    """Repairing decode of a gene vector into an allocation with valid shares.

    A gene vector holds ``M + N*M`` genes for M servers and N tasks.  Given a
    ``[U, G]`` block of gene vectors, returns a list with one allocation per
    row, each equal to decoding that row alone.  A share row not summing to
    100 is scaled to 100 and rounded by largest remainder, ties to the lower
    server index; ``r * 100 / total`` in float64 is the correctly rounded
    quotient, as Python's ``int / int`` is, because share genes must be >= 0
    and each share row's total at most ``2**53 / 100``.  Mode genes pass
    through unchecked: a mode index the host lacks is kept, and
    :func:`sim.validate_allocation` rejects it.  Genes must be integers: a
    float or bool gene, or a bool among integers, is rejected, not truncated.
    """
    ordered = sorted(profiles, key=lambda p: p.task_id)
    block = np.asarray(genes)
    if block.ndim > 2:
        raise InvalidArgumentError(
            f"genes must be a gene vector or a [U, G] block, got shape {block.shape}"
        )
    rows = np.atleast_2d(block)
    m, n = len(cluster), len(ordered)
    if rows.shape[1] != m + n * m:
        raise InvalidArgumentError(
            f"expected M + N*M = {m} + {n}*{m} = {m + n * m} genes, got {rows.shape[1]}"
        )
    if block.dtype.kind not in "iu":
        raise InvalidArgumentError(f"genes must be integers, got dtype {block.dtype}")
    if not isinstance(genes, np.ndarray):  # asarray turns a bool among ints into an int
        is_bool = [isinstance(g, (bool, np.bool_)) for g in np.asarray(genes, dtype=object).flat]
        if any(is_bool):
            raise InvalidArgumentError(
                f"genes must be integers, got a bool at flat index {is_bool.index(True)}"
            )
    _check_share_genes(rows[:, m:].reshape(len(rows), n, m))
    rows = rows.astype(np.int64, copy=False)
    shares = _repair(rows, len(cluster), np.array([p.kind == "REAL" for p in ordered]))
    allocs = [
        sim.Allocation(dvfs=tuple(d), shares=tuple(map(tuple, s)))
        for d, s in zip(rows[:, : len(cluster)].tolist(), shares.tolist())
    ]
    return allocs if block.ndim == 2 else allocs[0]


def _check_share_genes(shares: np.ndarray) -> None:
    """Reject a ``[U, N, M]`` block of share genes (int or uint) with a negative
    gene or a row whose total times 100 passes ``2**53``."""
    negative = shares[shares < 0]
    if negative.size:
        raise InvalidArgumentError(f"share genes must be >= 0, got {negative[0]}")
    # Capped at SHARE_TOTAL_MAX + 1, no row's sum overflows.
    capped = np.minimum(shares.astype(np.uint64), SHARE_TOTAL_MAX + 1).sum(axis=2)
    over = np.argwhere(capped > SHARE_TOTAL_MAX)
    if len(over):
        u, t = over[0]
        raise InvalidArgumentError(
            f"share row total {sum(shares[u, t].tolist())} exceeds 2**53 / 100"
        )


def _repair(rows: np.ndarray, n_servers: int, is_real: np.ndarray) -> np.ndarray:
    """The ``[U, N, M]`` share percentages :func:`decode` makes of a ``[U, G]``
    gene block; ``is_real`` flags the REAL tasks in task-id order."""
    shares = rows[:, n_servers:].reshape(len(rows), len(is_real), n_servers)
    server = np.arange(n_servers)

    total = shares.sum(axis=2, keepdims=True)
    scaled = shares * 100 / np.maximum(total, 1)  # a zero row is replaced below
    floored = np.floor(scaled)
    rem = 100 - floored.sum(axis=2, keepdims=True)
    order = np.argsort(floored - scaled, axis=2, kind="stable")  # largest remainder first
    rounded = floored + (np.argsort(order, axis=2) < rem)
    rounded = np.where(total == 0, 100 * (server == 0), rounded)

    largest = 100 * (server == np.argmax(shares, axis=2)[..., None])
    return np.where(is_real[:, None], largest, rounded).astype(np.int64)


def _repairer(
    n_servers: int, is_real: np.ndarray, share_step: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``rows -> _repair(rows, n_servers, is_real)`` for one run's ``[U, G]``
    blocks of scaled gene rows, whose share genes are multiples of
    ``share_step`` in ``0..100``.

    A share row is then one of ``alphabet ** n_servers`` rows, with
    ``alphabet = 100 // share_step + 1``; its code is its genes over
    ``share_step`` read as digits base ``alphabet``, the first gene lowest.
    When there are at most ``REPAIR_TABLE_MAX`` codes, :func:`_repair` runs
    once here, on the row of every code as a non-REAL and a REAL task, and
    each block gathers its rows from that ``[code, is REAL, M]`` table.
    Otherwise each block is passed to :func:`_repair`.
    """
    alphabet = 100 // share_step + 1
    if alphabet**n_servers > REPAIR_TABLE_MAX:
        return lambda rows: _repair(rows, n_servers, is_real)
    weights = alphabet ** np.arange(n_servers)
    spelled = np.arange(alphabet**n_servers)[:, None] // weights % alphabet * share_step
    # _repair reads no mode gene: the first block of columns only fills their place.
    table = _repair(np.hstack([spelled, spelled, spelled]), n_servers, np.array([False, True]))
    kind = is_real.astype(np.intp)

    def lookup(rows: np.ndarray) -> np.ndarray:
        shares = rows[:, n_servers:].reshape(len(rows), len(kind), n_servers)
        return table[shares @ weights // share_step, kind]

    return lookup


def _key_type(high: int) -> np.dtype:
    """The narrowest unsigned dtype that holds ``0..high``, big-endian, so that
    the bytes of two rows in it order as their tuples of genes do."""
    return np.min_scalar_type(high).newbyteorder(">")


def _row_bytes(block: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous 2-D array, as dict keys: a
    ``bytes`` caches its hash, a tuple of ints is rehashed at every lookup."""
    return block.view(np.dtype((np.void, block.shape[1] * block.itemsize))).ravel().tolist()


def _first_seen(keys: Sequence[bytes], known: dict) -> dict[bytes, int]:
    """Each key not in ``known``, mapped to its first index, in first-seen order."""
    out: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        if key not in known and key not in out:
            out[key] = i
    return out


@dataclass
class GeneBounds:
    low: np.ndarray  # inclusive
    high: np.ndarray  # inclusive
    frozen: np.ndarray  # bool; frozen genes keep their low value

    @cached_property
    def free(self) -> np.ndarray:
        return ~self.frozen

    @cached_property
    def stop(self) -> np.ndarray:
        """The exclusive upper bounds, ``high + 1``."""
        return self.high + 1


def gene_bounds(
    profiles: Sequence[TaskProfile],
    cluster: Sequence[sim.ClusterHost],
    config: EvolveConfig,
) -> GeneBounds:
    """Mode genes in ``1..k`` (k: the host's modes, at most ``max_mode_index``),
    frozen at 1 (MIN) or k (MAX); share genes in ``0..100 // share_step``."""
    k = np.array([len(h.spec.modes) for h in cluster], dtype=np.int64)
    if config.max_mode_index is not None:
        k = np.minimum(k, config.max_mode_index)
    one, shares = np.ones_like(k), np.zeros(len(profiles) * len(k), dtype=np.int64)
    return GeneBounds(
        low=np.concatenate([k if config.policy == "MAX" else one, shares]),
        high=np.concatenate([one if config.policy == "MIN" else k,
                             shares + 100 // config.share_step]),
        frozen=np.arange(len(k) + len(shares)) < len(k) * (config.policy != "VAR"),
    )


def single_point_crossover(
    pairs: np.ndarray, rng: np.random.Generator, prob: float
) -> np.ndarray:
    """The ``[n, 2, G]`` children of a ``[n, 2, G]`` block of parent pairs:
    each pair crosses with ``prob``, at one cut uniform over the G + 1 gene
    boundaries, and a pair's first child has its first parent's head."""
    n, _, g = pairs.shape
    crossed = rng.random(n) < prob
    cut = np.where(crossed, rng.integers(0, g + 1, size=n), g)  # cut g keeps both rows
    head = np.arange(g) < cut[:, None]
    return np.where(head[:, None], pairs, pairs[:, ::-1])


def integer_flip_mutation(
    genes: np.ndarray, bounds: GeneBounds, rng: np.random.Generator, prob: float
) -> np.ndarray:
    """Redraw each unfrozen gene of a ``[n, G]`` block uniformly in-bounds with
    ``prob``, in place, and return the block; the flipped genes are redrawn
    together, in row-major order."""
    flipped = ((rng.random(genes.shape) < prob) & bounds.free).ravel().nonzero()[0]
    cols = flipped % genes.shape[1]
    genes.put(flipped, rng.integers(bounds.low[cols], bounds.stop[cols]))
    return genes


def tournament_select(
    rng: np.random.Generator,
    ranks: Sequence[int],
    crowding: Sequence[float],
    n: int,
) -> np.ndarray:
    """``n`` binary tournaments on (rank, -crowding); the first entrant wins ties."""
    rank, crowd = np.asarray(ranks), np.asarray(crowding)
    pair = rng.integers(len(rank), size=(2, n))
    (rank_1, rank_2), (crowd_1, crowd_2) = rank[pair], crowd[pair]
    return np.where((rank_1 < rank_2) | ((rank_1 == rank_2) & (crowd_1 >= crowd_2)), *pair)


class _Scored(NamedTuple):
    """A ``FrontPoint`` without its allocation (genes already times ``share_step``).

    ``evolve`` makes one per distinct gene row, for the archive; rows that
    repair to one allocation share its memoized scores.  Its ``genes`` are
    the row's key bytes, unsigned big-endian of one width, which order as
    the gene tuples do; the archive also takes entries with tuple genes."""

    genes: bytes | tuple[int, ...]
    objectives: ObjectiveVector
    energy_j: float
    energy_units: float


@dataclass(frozen=True)
class RunStats:
    """What a run scored and why it stopped; deterministic given its inputs."""

    gene_rows: int  # distinct gene rows scored
    cache_hits: int  # population rows not new to the fitness cache, repeats in one population too
    allocations: int  # distinct allocations evaluated
    stop_reason: str  # "cap" (generations ran out) or "window" (lam = 0 held stop_window)
    last_archive_change: int  # the last generation to change the archive (0: the initial one)


@dataclass
class EvolveResult:
    front: list[FrontPoint]
    convergence: list[tuple[int, int, float]]  # (generation, best lam, best energy J)
    generations_run: int
    stats: RunStats


class _Archive:
    """Non-dominated archive of scored entries (``_Scored`` or ``FrontPoint``;
    only ``.objectives`` and ``.genes`` are read).  Objective-duplicate
    entries keep the lexicographically smallest gene vector."""

    def __init__(self):
        self.points: list[_Scored] = []

    def offer(self, cand: _Scored) -> bool:
        """Take ``cand`` if it belongs; whether the archive changed."""
        kept: list[_Scored] = []
        for p in self.points:
            if dominates(p.objectives, cand.objectives):
                return False
            if p.objectives == cand.objectives:
                if p.genes <= cand.genes:
                    return False
                continue  # candidate's genes are smaller; drop the incumbent
            if not dominates(cand.objectives, p.objectives):
                kept.append(p)
        kept.append(cand)
        self.points = kept
        return True


def evolve(
    cluster: Sequence[sim.ClusterHost],
    profiles: Sequence[TaskProfile],
    trace: JobTrace,
    config: EvolveConfig,
    *,
    soft_constraints: dict[int, tuple[LatenessConstraint, ...]] | None = None,
    progress: Callable[[int, int, float], None] | None = None,
) -> EvolveResult:
    """Run the generational loop; deterministic given (inputs, config, seed)."""
    if not cluster:
        raise ConfigurationError("empty cluster")
    if not profiles:
        raise ConfigurationError("empty profile list")
    context = sim._prepare(cluster, profiles, trace, soft_constraints, config.hard_miss_weight,
                           config.dyn_energy_form, config.energy_unit_j)
    ordered = context.arr.profiles
    bounds = gene_bounds(ordered, cluster, config)
    n_vars = bounds.low.shape[0]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n_servers = len(cluster)
    scale = np.where(np.arange(n_vars) < n_servers, 1, config.share_step)

    # Gene rows and repaired rows are keyed by their bytes: every scaled gene
    # is a mode index or a share (0..100).
    key_type = _key_type(int((bounds.high * scale).max()))
    repair = _repairer(n_servers, context.arr.is_real, config.share_step)
    cache: dict[bytes, int] = {}  # key id, by scaled gene row
    cache_hits = 0
    scores: dict[bytes, tuple[int, float, float]] = {}  # key id and energies, by repaired row
    key_ids: dict[ObjectiveVector, int] = {}
    keys: list[ObjectiveVector] = []  # by key id

    def fitness(population: np.ndarray) -> tuple[list[int], list[_Scored]]:
        """Score a ``[P, G]`` population: every row's key id, and the entries of
        rows never seen before in first-seen order.  Those rows are repaired
        together; the allocations among them never scored are evaluated
        together, as one block of mode and share arrays."""
        nonlocal cache_hits
        genes = population * scale
        row_keys = _row_bytes(genes.astype(key_type))
        fresh = _first_seen(row_keys, cache)
        cache_hits += len(row_keys) - len(fresh)
        entries = []
        if fresh:
            rows = genes[list(fresh.values())]
            dvfs = rows[:, :n_servers]
            repaired = repair(rows)
            alloc_keys = _row_bytes(
                np.concatenate([dvfs, repaired.reshape(len(rows), -1)], axis=1).astype(key_type)
            )
            unscored = _first_seen(alloc_keys, scores)
            if unscored:
                idx = list(unscored.values())
                results = sim.evaluate_objectives(
                    cluster, ordered, trace, (dvfs[idx], repaired[idx]), _context=context
                )
                for alloc_key, (lam, energy_j, energy_u) in zip(unscored, results):
                    key = ObjectiveVector(lam, (1 + lam) * energy_j)
                    key_id = key_ids.setdefault(key, len(keys))
                    if key_id == len(keys):
                        keys.append(key)
                    scores[alloc_key] = key_id, energy_j, energy_u
            for row_key, alloc_key in zip(fresh, alloc_keys):
                key_id, energy_j, energy_u = scores[alloc_key]
                cache[row_key] = key_id
                entries.append(_Scored(row_key, keys[key_id], energy_j, energy_u))
        return list(map(cache.__getitem__, row_keys)), entries

    # Uniform mode genes; each share row one-hot on a random server (share
    # genes are never fixed: they span 0..100 // share_step), so the initial
    # population samples whole-server placements; uniform rows would start
    # every task smeared across ~half the cluster.
    n_pop, n_tasks = config.population, len(ordered)
    modes = rng.integers(bounds.low[:n_servers], bounds.high[:n_servers] + 1,
                         size=(n_pop, n_servers))
    picked = rng.integers(n_servers, size=(n_pop, n_tasks, 1)) == np.arange(n_servers)
    shares = (picked * bounds.high[n_servers:].reshape(n_tasks, n_servers)).reshape(n_pop, -1)
    pop = np.concatenate([modes, shares], axis=1)
    ids, fresh = fitness(pop)
    fronts = _ranked_fronts(ids, keys)

    # Only entries never offered before: an archive that was offered an entry
    # stays unchanged when offered it again.
    archive = _Archive()

    def offer_all(entries: list[_Scored]) -> bool:
        """Offer each entry to the archive; whether any changed it."""
        changed = False
        for entry in entries:
            changed |= archive.offer(entry)
        return changed

    def best_point() -> _Scored:
        return min(archive.points, key=lambda p: (p.objectives.lam, p.energy_j))

    offer_all(fresh)
    best, last_change = best_point(), 0

    convergence: list[tuple[int, int, float]] = []
    lam0_since: int | None = None
    gen, stop_reason = 0, "cap"
    n_pairs = (n_pop + 1) // 2
    for gen in range(1, config.generations + 1):
        ranks, crowd = _rank_and_crowd(fronts, n_pop)

        # Parents pair up in draw order; children c1, c2 of each pair stay
        # adjacent, and an odd population drops the last pair's c2.
        parents = pop.take(tournament_select(rng, ranks, crowd, 2 * n_pairs), axis=0)
        children = single_point_crossover(parents.reshape(n_pairs, 2, n_vars), rng,
                                          CROSSOVER_PROB).reshape(2 * n_pairs, n_vars)[:n_pop]
        offspring = integer_flip_mutation(children, bounds, rng, 1.0 / n_vars)
        off_ids, fresh = fitness(offspring)
        if offer_all(fresh):
            best, last_change = best_point(), gen

        combined_ids = ids + off_ids
        sel, fronts = _environmental_selection(combined_ids, keys, n_pop, fronts)
        pop = np.concatenate([pop, offspring]).take(sel, axis=0)
        ids = list(map(combined_ids.__getitem__, sel))

        convergence.append((gen, best.objectives.lam, best.energy_j))
        if progress is not None:
            progress(gen, best.objectives.lam, best.energy_j)

        if best.objectives.lam == 0:
            if lam0_since is None:
                lam0_since = gen
            elif gen - lam0_since >= config.stop_window:
                stop_reason = "window"
                break
        else:
            lam0_since = None

    front = [
        _front_point(p, key_type, ordered, cluster)
        for p in sorted(archive.points, key=lambda p: p.objectives)
    ]
    stats = RunStats(gene_rows=len(cache), cache_hits=cache_hits, allocations=len(scores),
                     stop_reason=stop_reason, last_archive_change=last_change)
    return EvolveResult(front=front, convergence=convergence, generations_run=gen, stats=stats)


def _front_point(p: _Scored, key_type: np.dtype, ordered, cluster) -> FrontPoint:
    """The front point of an entry whose genes are a row's bytes in ``key_type``."""
    genes = tuple(np.frombuffer(p.genes, key_type).tolist())
    return FrontPoint(genes, p.objectives, decode(genes, ordered, cluster), p.energy_j,
                      p.energy_units)


def _key_runs(ids: Sequence[int], keys: Sequence[ObjectiveVector],
              fronts: Sequence[Sequence[Run]] = ()) -> list[Run]:
    """The run of each distinct key among the members, in key order.  ``ids`` holds each
    member's key id and ``keys[id]`` its key; ``fronts`` may hold the runs of the first
    members (see :func:`_ranked_fronts`), which are extended whole, not walked."""
    runs = {ids[run[0]]: run.copy() for front in fronts for _, run in front}
    start = sum(map(len, runs.values()))
    for i, key_id in enumerate(ids[start:], start):
        run = runs.get(key_id)
        if run is None:
            runs[key_id] = [i]
        else:
            run.append(i)
    return [(keys[key_id], runs[key_id]) for key_id in sorted(runs, key=keys.__getitem__)]


def _ranked_fronts(ids: Sequence[int], keys: Sequence[ObjectiveVector],
                   fronts: Sequence[Sequence[Run]] = ()) -> list[list[Run]]:
    """The members' runs (see :func:`_key_runs`) as fronts in rank order, each
    in ``lam`` order.

    Two objectives allow one sweep (Jensen 2003): visit the distinct keys in
    (lam, scaled energy) order and put each in the first front whose latest
    key does not dominate it.  Every dominator of a key is visited before it,
    so each front's latest key precedes it in that order and dominates it
    exactly when its energy is not larger.  The latest energies never
    decrease from front to front, so a binary search (``bisect_right``)
    finds the first front that does not.
    """
    latest: list[float] = []  # energy of each front's latest key
    ranked: list[list[Run]] = []
    for run in _key_runs(ids, keys, fronts):
        energy = run[0][1]
        r = bisect_right(latest, energy)
        if r == len(latest):
            latest.append(energy)
            ranked.append([])
        else:
            latest[r] = energy
        ranked[r].append(run)
    return ranked


def _chain_crowding(front: Sequence[Run]) -> list[tuple[int, float]]:
    """:func:`crowding_distance` of one front's members, given as its runs in
    ``lam`` order: the ``(position, distance)`` of each run's first and last
    member.  Every other member has distance 0.0.

    Inside a front the keys form a chain, ``lam`` strictly up and energy
    strictly down, so in each objective's sorted order a key's members lie
    side by side in index order (the sort is stable).  A member between two
    copies of its own key adds ``(v - v) / span == 0.0`` in both objectives.
    The other terms are Deb's, from the same values in the same order, so
    each distance is bit-identical for finite objectives.
    """
    inf = float("inf")
    last = len(front) - 1
    if last > 0:
        lam_span = front[-1][0][0] - front[0][0][0]
        energy_span = front[0][0][1] - front[-1][0][1]
    out: list[tuple[int, float]] = []
    for i, (_, run) in enumerate(front):
        if i == 0 or i == last:  # a boundary of both objectives' orders
            out.append((run[0], inf))
            if len(run) > 1:
                out.append((run[-1], inf))
            continue
        (lo_lam, hi_e), (lam, e), (hi_lam, lo_e) = (key for key, _ in front[i - 1 : i + 2])
        if len(run) == 1:
            out.append((run[0], (hi_lam - lo_lam) / lam_span + (hi_e - lo_e) / energy_span))
        else:
            out.append((run[0], (lam - lo_lam) / lam_span + (e - lo_e) / energy_span))
            out.append((run[-1], (hi_lam - lam) / lam_span + (hi_e - e) / energy_span))
    return out


def _rank_and_crowd(fronts: Sequence[Sequence[Run]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``n`` members' rank and :func:`crowding_distance` in its front,
    as ``[n]`` arrays; ``fronts`` holds every member."""
    ranks, crowd = np.empty(n, dtype=np.intp), np.zeros(n)
    for rank, front in enumerate(fronts):
        for _, run in front:  # consecutive positions, as a one-key front's survivors, by a slice
            ranks[run if run[-1] - run[0] >= len(run) else slice(run[0], run[-1] + 1)] = rank
        for i, d in _chain_crowding(front):
            crowd[i] = d
    return ranks, crowd


def _environmental_selection(
    ids: Sequence[int], keys: Sequence[ObjectiveVector], k: int,
    fronts: Sequence[Sequence[Run]] = (),
) -> tuple[list[int], list[list[Run]]]:
    """NSGA-II survivor selection: fill by rank, break the last front by crowding.

    ``ids``, ``keys`` and ``fronts`` are as in :func:`_key_runs`.  Whole fronts
    are admitted in index order; the front that overflows gives its members
    with nonzero crowding distance by ``(-distance, index)``, then its members
    at distance 0 by index.  Returns the chosen indices and the survivors'
    fronts (see :func:`_ranked_fronts`) by position among the survivors, which
    are also the fronts of the survivors alone: every point that dominates a
    survivor lies in an earlier front, and earlier fronts are admitted whole.
    """
    chosen: list[int] = []
    kept: list[list[Run]] = []
    for front in _ranked_fronts(ids, keys, fronts):
        base = len(chosen)
        room = k - base
        if not room:
            break
        runs = [run for _, run in front]
        if sum(map(len, runs)) <= room:
            chosen.extend(sorted(chain.from_iterable(runs)))
        else:
            ends = _chain_crowding(front)
            spaced = sorted((-d, i) for i, d in ends if d)
            chosen.extend(i for _, i in spaced[:room])
            if len(spaced) < room:  # interior copies, and ends at distance 0
                idle = chain((i for i, d in ends if not d),
                             chain.from_iterable(run[1:-1] for run in runs))
                chosen.extend(sorted(idle)[: room - len(spaced)])
        # The front's survivors hold positions base.. in the order chosen.
        if len(front) == 1:  # all of them its one key's
            kept.append([(front[0][0], list(range(base, len(chosen))))])
        else:
            at = dict(zip(chosen[base:], range(base, len(chosen))))
            kept.append([(key, sorted(map(at.__getitem__, filter(at.__contains__, run))))
                         for key, run in front if not at.keys().isdisjoint(run)])
    return chosen, kept
