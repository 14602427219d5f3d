"""Spans around the public entry points of each permutope layer.

The wrappers live here, in the benchmark, and are installed only for a traced
run.  A function is replaced wherever its name is bound (``feasible`` imports
``proportion_vector`` by name, so it is wrapped there as well as in ``perms``);
methods are replaced on their class.  ``uninstall`` restores every binding.

Each span records its name, start, end, parent span and operation id.  Spans
stay in memory (up to ``SPAN_CAP``; later ones are only aggregated) and are
written out by ``write``.  Self time is a span's duration minus the time its
child spans cover, accumulated per name as spans close.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self, name: str | None = None, **counts: int) -> None:
        end = time.perf_counter()
        span_id, entered_as, start, child_time = self._stack.pop()
        name = name or entered_as
        duration = end - start
        self.self_s[name] += duration - child_time
        self.calls[name] += 1
        for key, value in counts.items():
            self.counts[f"{name}.{key}"] += value
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] += value

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _wrap(tracer: Tracer, fn, name: str, finish):
    """``finish(args, kwargs, result)`` returns (final span name or None, counts)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        final, counts = finish(args, kwargs, result)
        tracer.exit(final, **counts)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str):
    """Each resumption of the generator is one span counting one item."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                tracer.exit()
                return
            except BaseException:
                tracer.exit()
                raise
            tracer.exit(count=1)
            yield item

    return wrapper


def _no_counts(args, kwargs, result):
    return None, {}


def _proportion(args, kwargs, result):
    sigma = args[1] if len(args) > 1 else kwargs["sigma"]
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return f"perms.{kind}", {"points": len(sigma)}


def _result_points(args, kwargs, result):
    return None, {"points": len(result)}


def _perm_to_walk(args, kwargs, result):
    return None, {"points": len(args[1])}


def _walk_edges(args, kwargs, result):
    return None, {"edges": len(args[0])}


def _walk_check(args, kwargs, result):
    return None, {"edges": len(args[0].edge_ids)}


def _membership(args, kwargs, result):
    if result.member:
        return "polytope.member", {"cycles": len(result.decomposition)}
    return "polytope.nonmember", {}


def _decomposition(args, kwargs, result):
    return "polytope.member", {"cycles": len(result)}


def install(tracer: Tracer, P) -> list[tuple[object, str, object]]:
    """Wrap the layers' entry points; returns what ``uninstall`` needs."""
    modules = [P, P.perms, P.graphs, P.overlap, P.polytope, P.feasible,
               importlib.import_module("permutope.cli")]
    functions = [
        (P.perms.proportion_vector, "perms.classical", _proportion),
        (P.perms.direct_sum, "perms.sum", _result_points),
        (P.perms.repeat_sum, "perms.sum", _result_points),
        (P.perms.substitute, "perms.sum", _result_points),
        (P.overlap.build_overlap_graph, "overlap.build", _no_counts),
        (P.graphs.decompose_walk, "graphs.decompose", _walk_edges),
        (P.feasible.mix, "feasible.mix", _no_counts),
    ]
    methods = [
        (P.perms.PatternVector, "__init__", "perms.vector", _no_counts),
        (P.overlap.OverlapGraph, "walk_of", "overlap.perm_to_walk", _perm_to_walk),
        (P.overlap.OverlapGraph, "permutation_of_walk", "overlap.walk_to_perm", _result_points),
        (P.graphs.Walk, "__post_init__", "graphs.walk", _walk_check),
        (P.graphs.SimpleCycle, "__post_init__", "graphs.walk", _no_counts),
        (P.polytope.CyclePolytope, "__init__", "polytope.build", _no_counts),
        (P.polytope.CyclePolytope, "membership", "polytope.member", _membership),
        (P.polytope.CyclePolytope, "convex_decomposition", "polytope.member", _decomposition),
        (P.polytope.CyclePolytope, "vertices", "polytope.vertices", _no_counts),
        (P.polytope.CyclePolytope, "skeleton_adjacent", "polytope.skeleton", _no_counts),
        (P.feasible.FeasibleRegion, "plan", "feasible.plan", _no_counts),
        (P.feasible.RealizationPlan, "generate", "feasible.generate", _result_points),
    ]
    patches: list[tuple[object, str, object]] = []

    def rebind(original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    for fn, name, finish in functions:
        rebind(fn, _wrap(tracer, fn, name, finish))
    rebind(P.graphs.iter_simple_cycles, _wrap_generator(tracer, P.graphs.iter_simple_cycles, "graphs.cycles"))
    for cls, attr, name, finish in methods:
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, original, name, finish))
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
