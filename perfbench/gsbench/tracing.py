"""In-memory span tracing around greensched's layer boundaries.

The tracer replaces module (and one class) attributes of greensched with thin
wrappers for the duration of a traced operation, then puts the originals
back.  Nothing inside ``src/`` changes.  Each call of a wrapped function
records one span: layer name, start, end, the enclosing span taken from a
wrapper stack, and an optional work count.  Self time is a span's duration
minus the time its child spans cover.

A layer whose attribute no longer exists (renamed, fused into another, or
removed) is reported as absent instead of failing the run.

``nsga.dominates`` is deliberately not wrapped: it runs millions of times per
search, so its span would measure the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np


def _scan_jobs(args, kwargs, result) -> float:
    return float(len(args[0]))


def _archive_size(args, kwargs, result) -> float:
    return float(len(getattr(args[0], "points", ())))


def _bytes_written(args, kwargs, result) -> float:
    out, stem = Path(args[0]), args[3]
    return float(
        sum(
            p.stat().st_size
            for p in (out / f"{stem}_jobs.csv", out / f"{stem}_summary.json")
            if p.exists()
        )
    )


@dataclass(frozen=True)
class Layer:
    """One wrapped attribute: ``greensched.<module>.<attr>`` (attr may be
    ``Class.method``) recorded under ``name``."""

    module: str
    attr: str
    name: str
    work: Callable | None = None


#: Aliases imported into another module (``cli.load_scenario``) are wrapped
#: too, under the defining layer's name, so that calls made through either
#: binding are seen.
LAYERS = (
    Layer("scenario", "load_scenario", "scenario.load_scenario"),
    Layer("cli", "load_scenario", "scenario.load_scenario"),
    Layer("workload", "generate_jobs", "workload.generate_jobs"),
    Layer("cli", "generate_jobs", "workload.generate_jobs"),
    Layer("sim", "trace_arrays", "sim.trace_arrays"),
    Layer("nsga", "evolve", "nsga.evolve"),
    Layer("nsga", "decode", "nsga.decode"),
    Layer("nsga", "_front_point", "nsga.front_point"),
    Layer("nsga", "_Archive.offer", "nsga.archive_offer", _archive_size),
    Layer("nsga", "nondominated_sort", "nsga.nondominated_sort"),
    Layer("nsga", "crowding_distance", "nsga.crowding_distance"),
    Layer("nsga", "_environmental_selection", "nsga.environmental_selection"),
    Layer("nsga", "tournament_select", "nsga.variation"),
    Layer("nsga", "single_point_crossover", "nsga.variation"),
    Layer("nsga", "integer_flip_mutation", "nsga.variation"),
    Layer("sim", "evaluate_objectives", "sim.evaluate_objectives"),
    Layer("sim", "validate_allocation", "sim.validate_allocation"),
    Layer("sim", "scan_jobs", "kernels.scan_jobs", _scan_jobs),
    Layer("sim", "evaluate_allocation", "sim.evaluate_allocation"),
    Layer("tasks", "check_constraints", "tasks.check_constraints"),
    Layer("cli", "_write_evaluation", "cli.write_evaluation", _bytes_written),
    Layer("sim", "edf_schedule", "sim.edf_schedule"),
    Layer("sim", "_edf_host", "sim.edf_host"),
    Layer("power", "leakage_energy", "power.leakage_energy"),
)

_MISSING = object()


def _resolve(layer: Layer):
    """Return ``(owner, attr_name)`` or ``None`` if the attribute is gone."""
    try:
        owner = importlib.import_module(f"greensched.{layer.module}")
    except ImportError:
        return None
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans kept in flat arrays; index order is call order."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.roots: list[int] = []
        present = {l.name for l in self.layers if _resolve(l) is not None}
        self.absent = sorted({l.name for l in self.layers} - present)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, work):
        lid = self._id(name)
        name_id, parent, start, end, works = (
            self.name_id, self.parent, self.start, self.end, self.work
        )
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            works.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                works[idx] = work(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every present layer; restore each original attribute on exit."""
        saved = []
        try:
            for layer in self.layers:
                found = _resolve(layer)
                if found is None:
                    continue
                owner, attr = found
                own = owner.__dict__.get(attr, _MISSING)
                original = getattr(owner, attr)
                saved.append((owner, attr, own))
                setattr(owner, attr, self._wrap(original, layer.name, layer.work))
            yield
        finally:
            for owner, attr, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[int]:
        """Record a top-level span (one benchmark operation or the set-up)."""
        if self._stack != [-1]:
            raise RuntimeError("root span opened inside another span")
        idx = len(self.start)
        self.roots.append(idx)
        self.name_id.append(self._id(name))
        self.parent.append(-1)
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "duration": dur,
            "self": dur - child,
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def breakdown(self, root: int, arrays: dict | None = None) -> dict:
        """Per-layer calls, total/self seconds and work under one root span."""
        a = arrays if arrays is not None else self.arrays()
        later = [r for r in self.roots if r > root]
        hi = later[0] if later else len(a["start"])
        sl = slice(root + 1, hi)
        ids = a["name_id"][sl]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=a["duration"][sl], minlength=k)
        own = np.bincount(ids, weights=a["self"][sl], minlength=k)
        work = np.bincount(ids, weights=a["work"][sl], minlength=k)
        work_max = np.zeros(k)
        np.maximum.at(work_max, ids, a["work"][sl])
        layers = {
            self.names[i]: {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(own[i]),
                "work": float(work[i]),
                "work_max": float(work_max[i]),
            }
            for i in range(k)
            if calls[i]
        }
        wall = float(a["duration"][root])
        root_self = float(a["self"][root])
        return {
            "wall_s": wall,
            "root_self_s": root_self,
            "accounted_frac": (root_self + float(own.sum())) / wall if wall > 0 else 1.0,
            "layers": layers,
        }

    def save(self, path: Path) -> None:
        """Write every span (columns plus the name table) as ``.npz``."""
        a = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            roots=np.asarray(self.roots, dtype=np.int64),
            **{k: a[k] for k in ("name_id", "parent", "start", "end", "work")},
        )
