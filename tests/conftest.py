import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from permutope import Multigraph, PatternVector, Permutation, Walk, all_patterns


@pytest.fixture
def fig2_graph() -> Multigraph:
    """Triangle with the edge orientation read off its printed incidence
    matrix: e1 = v2->v3, e2 = v3->v1, e3 = v1->v2."""
    return Multigraph(["v1", "v2", "v3"], [(1, 2, "e1"), (2, 0, "e2"), (0, 1, "e3")])


@pytest.fixture
def fig3_graph() -> Multigraph:
    """Two vertices, five edges (one loop, two parallel each way); its cycle
    polytope is a three-dimensional pyramid with a square base."""
    return Multigraph(
        ["v1", "v2"],
        [(0, 0, "loop"), (0, 1, "a1"), (0, 1, "a2"), (1, 0, "b1"), (1, 0, "b2")],
    )


@pytest.fixture(autouse=True)
def _no_cap_override(monkeypatch):
    """Every guard reads PERMUTOPE_CAP, so each test starts without one and
    the suite does not depend on the caller's environment."""
    monkeypatch.delenv("PERMUTOPE_CAP", raising=False)


def random_multigraph(rng: random.Random, max_vertices: int = 5, max_edges: int = 8) -> Multigraph:
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(0, max_edges)
    edges = [(rng.randrange(nv), rng.randrange(nv), f"e{i}") for i in range(ne)]
    return Multigraph([f"v{i}" for i in range(nv)], edges)


def random_multigraph_with_extras(rng: random.Random) -> Multigraph:
    """A random multigraph of at most 5 vertices and 10 edges, plus a loop at a
    random vertex u, two parallel edges u -> v and one edge v -> u."""
    base = random_multigraph(rng, max_vertices=5, max_edges=10)
    n = base.n_vertices
    u, v = rng.randrange(n), rng.randrange(n)
    extra = [(u, u, "loop"), (u, v, "p1"), (u, v, "p2"), (v, u, "back")]
    return Multigraph(base.vertex_names, list(base.edges) + extra)


def seeded_multigraphs() -> list[Multigraph]:
    """80 seeded random multigraphs, 60 of them with a loop and parallel edges."""
    rng = random.Random(71)
    graphs = [random_multigraph_with_extras(rng) for _ in range(60)]
    graphs += [random_multigraph(rng, max_vertices=7, max_edges=25) for _ in range(20)]
    return graphs


def point_mass(pattern: Permutation) -> PatternVector:
    """The target with all its mass on ``pattern``."""
    k = len(pattern)
    return PatternVector.from_values(k, [int(p == pattern) for p in all_patterns(k)])


def random_walk(rng: random.Random, graph: Multigraph, max_len: int = 50) -> Walk | None:
    if graph.n_edges == 0:
        return None
    edge = rng.randrange(graph.n_edges)
    ids = [edge]
    for _ in range(rng.randint(0, max_len - 1)):
        options = graph.out_edges(graph.ar(ids[-1]))
        if not options:
            break
        ids.append(rng.choice(options))
    return Walk(graph, tuple(ids))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    start = getattr(config, "_permutope_start", None)
    if start is not None:
        terminalreporter.write_line(
            f"total suite wall time: {time.perf_counter() - start:.1f}s"
        )


def pytest_configure(config):
    config._permutope_start = time.perf_counter()
