import numpy as np
import pytest
from hypothesis import strategies as st

from datasp.graph import Graph, build_cost_matrix, complete_graph


def k4_cost_matrix() -> np.ndarray:
    """Complete 4-node graph with cost |i - j|; the bundled reference fixture."""
    graph = complete_graph(4)
    return build_cost_matrix([abs(u - v) for u, v in graph.edges], graph)


def scatter_triples(freq, values, n: int) -> np.ndarray:
    """A V x V x V tensor holding `values` at `freq.triples`, zero elsewhere:
    a per-triple P or loss gradient in the dense shape."""
    dense = np.zeros((n, n, n))
    dense[freq.triples] = values
    return dense


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


# Any JSON value, for the loader tests: a loader must turn every value of
# the wrong shape or type into an error that the CLI reports as exit 2.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


def mostly(valid):
    """Draws of `valid`, with any JSON value in one draw of four."""
    return st.integers(0, 3).flatmap(lambda i: json_values if i == 0 else valid)


@pytest.fixture
def k4():
    return k4_cost_matrix()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
