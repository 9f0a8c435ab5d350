import numpy as np
import pytest

from datasp.graph import Graph, build_cost_matrix, complete_graph


def k4_cost_matrix() -> np.ndarray:
    """Complete 4-node graph with cost |i - j|; the bundled reference fixture."""
    graph = complete_graph(4)
    return build_cost_matrix([abs(u - v) for u, v in graph.edges], graph)


def random_connected_graph(num_nodes: int, rng, extra_edges: int | None = None,
                           low: float = 0.5, high: float = 2.0):
    """Random spanning tree plus chords, symmetric structure, independent
    per-direction costs drawn uniform [low, high]."""
    if extra_edges is None:
        extra_edges = max(1, num_nodes // 2)
    pairs = set()
    order = list(rng.permutation(num_nodes))
    for pos in range(1, num_nodes):
        u = order[pos]
        v = order[int(rng.integers(pos))]
        pairs.add((min(u, v), max(u, v)))
    attempts = 0
    while len(pairs) < num_nodes - 1 + extra_edges and attempts < 50 * extra_edges:
        attempts += 1
        u, v = rng.integers(num_nodes), rng.integers(num_nodes)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    edges = []
    for u, v in sorted(pairs):
        edges.append((u, v))
        edges.append((v, u))
    graph = Graph(num_nodes, edges)
    costs = rng.uniform(low, high, size=graph.num_edges)
    return graph, costs


def tractable_random_graph(num_nodes: int, seed: int, max_walks: int = 200_000):
    """First seeded random connected graph (from `seed` upward) whose full
    walk space fits the enumeration budget, as (graph, cost matrix, walk
    enumerator).  The enumerator holds every pair's walk list, so checks on
    the graph reuse it instead of enumerating again.

    The oracle is exponential-time; the consistency properties hold on any
    instance, so tests draw instances the oracle can afford.  Deterministic.
    """
    from datasp.errors import EnumerationLimitError
    from datasp.graph import build_cost_matrix
    from datasp.oracle import WalkEnumerator

    attempt = seed
    while True:
        rng_local = np.random.default_rng(attempt)
        graph, costs = random_connected_graph(num_nodes, rng_local, extra_edges=2)
        m = build_cost_matrix(costs, graph)
        try:
            enum = WalkEnumerator(m, max_walks=max_walks)
            for i in range(num_nodes):
                for j in range(num_nodes):
                    if i != j:
                        enum.walks(i, j)
            return graph, m, enum
        except EnumerationLimitError:
            attempt += 1


@pytest.fixture
def k4():
    return k4_cost_matrix()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
