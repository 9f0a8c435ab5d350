import itertools
import math

import numpy as np
import pytest

from conftest import k4_cost_matrix, random_connected_graph
from datasp.errors import ValidationError
from datasp.graph import (
    Graph,
    build_cost_matrix,
    classical_floyd_warshall,
    complete_graph,
    dijkstra,
    exclude_nodes,
    graph_from_json_dict,
    path_cost,
    sample_subgraph,
)
from datasp.smoothing import INF, pair_softmin


# --- Graph / cost matrix construction ---------------------------------------

def test_build_two_node():
    g = Graph(2, [(0, 1)])
    m = build_cost_matrix([5.0], g)
    assert m[0, 1] == 5.0
    assert m[1, 0] == INF and m[0, 0] == INF and m[1, 1] == INF


def test_build_k4_gap_costs(k4):
    assert k4[0, 3] == 3.0
    assert k4[1, 2] == 1.0
    assert np.isinf(np.diagonal(k4)).all()


def test_build_empty_edges():
    g = Graph(3, [])
    m = build_cost_matrix([], g)
    assert np.isinf(m).all()


def test_build_rejects_nonpositive():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        build_cost_matrix([0.0], g)
    with pytest.raises(ValidationError):
        build_cost_matrix([-1.0], g)


def test_build_rejects_length_mismatch():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        build_cost_matrix([1.0, 2.0], g)


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValidationError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 1), (0, 1)])


def test_undirected_json_expansion():
    doc = {"num_nodes": 3, "directed": False, "edges": [[0, 1], [1, 2]],
           "prior_costs": [2.0, 3.0]}
    graph, prior, _ = graph_from_json_dict(doc)
    assert set(graph.edges) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    by_edge = dict(zip(graph.edges, prior))
    assert by_edge[(0, 1)] == by_edge[(1, 0)] == 2.0


def test_undirected_json_listing_both_directions_is_rejected():
    doc = {"num_nodes": 3, "directed": False, "edges": [[0, 1], [1, 0]]}
    with pytest.raises(ValidationError):
        graph_from_json_dict(doc)


def test_json_prior_defaults_to_euclidean():
    doc = {"num_nodes": 2, "directed": True, "edges": [[0, 1]],
           "node_positions": [[0.0, 0.0], [3.0, 4.0]]}
    _, prior, positions = graph_from_json_dict(doc)
    assert prior == pytest.approx([5.0])
    assert positions.shape == (2, 2)


# --- classical Floyd-Warshall ------------------------------------------------

def _all_simple_path_distance(m, i, j):
    """Brute force: minimize cost over every simple path i -> j."""
    n = m.shape[0]
    best = m[i, j]
    others = [x for x in range(n) if x not in (i, j)]
    for r in range(1, len(others) + 1):
        for combo in itertools.permutations(others, r):
            nodes = [i, *combo, j]
            cost = path_cost(m, nodes)
            best = min(best, cost)
    return best


def test_fw_k4(k4):
    dist = classical_floyd_warshall(k4)
    assert dist[0, 3] == 3.0


def test_fw_single_node():
    m = np.array([[INF]])
    dist = classical_floyd_warshall(m)
    assert np.isinf(dist[0, 0])


def test_fw_matches_simple_path_enumeration(rng):
    graph, costs = random_connected_graph(8, rng)
    m = build_cost_matrix(costs, graph)
    dist = classical_floyd_warshall(m)
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            assert dist[i, j] == pytest.approx(_all_simple_path_distance(m, i, j), rel=1e-12)


# --- Dijkstra ----------------------------------------------------------------

def test_dijkstra_k4_lexicographic_tie_break(k4):
    # four cost-3 routes tie: [0,3], [0,1,3], [0,2,3], [0,1,2,3]; the
    # lexicographically smallest node sequence wins.
    path, cost = dijkstra(k4, 0, 3)
    assert cost == 3.0
    assert path == [0, 1, 2, 3]


def test_dijkstra_source_equals_target(k4):
    assert dijkstra(k4, 2, 2) == ([2], 0.0)


def test_dijkstra_unreachable():
    g = Graph(3, [(0, 1)])
    m = build_cost_matrix([1.0], g)
    path, cost = dijkstra(m, 0, 2)
    assert path is None and cost == INF


def test_dijkstra_agrees_with_fw(rng):
    for trial in range(5):
        graph, costs = random_connected_graph(7, rng)
        m = build_cost_matrix(costs, graph)
        dist = classical_floyd_warshall(m)
        for i in range(7):
            for j in range(7):
                if i == j:
                    continue
                path, cost = dijkstra(m, i, j)
                assert cost == pytest.approx(dist[i, j], rel=1e-12)
                assert path_cost(m, path) == pytest.approx(cost, rel=1e-12)


def test_dijkstra_rejects_nonpositive_costs():
    m = np.array([[INF, -0.5], [INF, INF]])
    with pytest.raises(ValidationError):
        dijkstra(m, 0, 1)


# --- node exclusion ----------------------------------------------------------

def _shrinking_exclusion(m, removed, beta):
    """Reference: delete each removed node, in ascending order, from a
    shrinking matrix, reconnecting its neighbors through pair_softmin."""
    cur = m
    alive = list(range(m.shape[0]))
    for node in sorted(removed):
        k = alive.index(node)
        two_hop = cur[:, k, None] + cur[None, k, :]
        value, _, _ = pair_softmin(two_hop, cur, beta)
        update = np.isfinite(two_hop) & ~np.eye(len(alive), dtype=bool)
        cur = np.where(update, value, cur)
        keep = [x for x in range(len(alive)) if x != k]
        cur = cur[np.ix_(keep, keep)]
        alive.pop(k)
    return cur


def test_exclude_hard_min_prefers_two_hop():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    m = build_cost_matrix([1.0, 2.0, 5.0], g)
    comp = exclude_nodes(m, [1], beta=100.0)
    # new (0, 2) entry ~ min(5, 1+2) = 3 in the hard limit
    assert comp.matrix[0, 1] == pytest.approx(3.0, abs=1e-2)
    assert list(comp.node_map) == [0, -1, 1]
    assert comp.kept == [0, 2] and comp.removed == [1]


def test_exclude_isolated_node_just_drops_it(k4):
    g = Graph(3, [(0, 1)])
    m = build_cost_matrix([4.0], g)
    comp = exclude_nodes(m, [2], beta=1.0)
    assert comp.matrix.shape == (2, 2)
    assert comp.matrix[0, 1] == 4.0


def test_exclude_tied_branches_undershoot():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    m = build_cost_matrix([1.0, 2.0, 3.0], g)
    comp = exclude_nodes(m, [1], beta=1.0)
    assert comp.matrix[0, 1] == pytest.approx(3.0 - math.log(2.0), abs=1e-12)


def test_exclude_out_of_range(k4):
    for removed in ([7], [-1], [1, 1]):
        with pytest.raises(ValidationError):
            exclude_nodes(k4, removed, beta=1.0)


def test_exclude_nodes_is_bit_identical_to_shrinking_reference():
    nonpositive = False
    for seed, (low, high) in enumerate([(0.5, 2.0), (0.5, 40.0), (0.1, 0.6)]):
        rng = np.random.default_rng(seed)
        graph, costs = random_connected_graph(14, rng, extra_edges=7, low=low, high=high)
        m = build_cost_matrix(costs, graph)
        removed = [int(x) for x in rng.choice(14, size=9, replace=False)]
        m_before = m.copy()
        for beta in (1.0, 30.0):
            comp = exclude_nodes(m, removed, beta)
            assert np.array_equal(m, m_before)
            assert np.array_equal(comp.matrix, _shrinking_exclusion(m, removed, beta))
            nonpositive |= bool((comp.matrix[np.isfinite(comp.matrix)] <= 0).any())
    assert nonpositive


def test_exclusion_preserves_hard_distances(rng):
    # large beta: distances between kept nodes survive any exclusion sequence
    for trial in range(3):
        graph, costs = random_connected_graph(9, rng)
        m = build_cost_matrix(costs, graph)
        dist_full = classical_floyd_warshall(m)
        comp = exclude_nodes(m, [8, 3], beta=200.0)
        dist_sub = classical_floyd_warshall(comp.matrix)
        for a, u in enumerate(comp.kept):
            for b, v in enumerate(comp.kept):
                if u == v:
                    continue
                assert dist_sub[a, b] == pytest.approx(dist_full[u, v], abs=1e-4)


def test_exclusion_backward_matches_finite_differences(rng):
    from datasp.oracle import finite_difference_gradcheck

    graph, costs = random_connected_graph(8, rng)
    m = build_cost_matrix(costs, graph)
    # At beta = 30 some gradients are ~1e-8, where round-off in a 1e-6
    # central difference is already a relative error of 1e-3.
    for beta, step, tol in ((1.0, 1e-6, 1e-6), (30.0, 1e-4, 1e-4)):
        for removed in ([2, 4, 5], [0, 3, 6, 7]):
            size = 8 - len(removed)
            upstream = rng.standard_normal((size, size))
            comp = exclude_nodes(m, removed, beta)
            grad = comp.backward(np.where(np.isfinite(comp.matrix), upstream, 0.0))

            def loss(matrix):
                out = exclude_nodes(matrix, removed, beta).matrix
                return float(np.where(np.isfinite(out), out * upstream, 0.0).sum())

            assert finite_difference_gradcheck(loss, grad, m, step=step) <= tol


# --- subgraph sampling --------------------------------------------------------

def test_sample_subgraph_keep_all_is_identity(k4):
    g = complete_graph(4)
    comp = sample_subgraph(g, k4, 4, np.ones(4), rng_seed=0, beta=1.0)
    assert comp.kept == [0, 1, 2, 3]
    assert np.array_equal(comp.matrix, k4)
    assert not comp.steps


def test_sample_subgraph_drop_one_preserves_hard_distances(k4):
    g = complete_graph(4)
    dist_full = classical_floyd_warshall(k4)
    found = False
    for seed in range(30):
        comp = sample_subgraph(g, k4, 3, np.ones(4), rng_seed=seed, beta=100.0)
        if comp.removed == [2]:
            found = True
            dist_sub = classical_floyd_warshall(comp.matrix)
            a, b = comp.node_map[1], comp.node_map[3]
            # exact branch ties leave a ln(2)/beta undershoot
            assert dist_sub[a, b] == pytest.approx(dist_full[1, 3], abs=0.01)
    assert found


def test_sample_subgraph_deterministic(k4, rng):
    graph, costs = random_connected_graph(12, rng)
    m = build_cost_matrix(costs, graph)
    freqs = rng.uniform(0, 5, size=12)
    one = sample_subgraph(graph, m, 6, freqs, rng_seed=42, beta=1.0)
    two = sample_subgraph(graph, m, 6, freqs, rng_seed=42, beta=1.0)
    assert one.kept == two.kept
    assert np.array_equal(one.matrix, two.matrix)


def test_sample_subgraph_grows_connected_half(rng):
    graph, costs = random_connected_graph(12, rng)
    m = build_cost_matrix(costs, graph)
    comp = sample_subgraph(graph, m, 8, np.ones(12), rng_seed=3, beta=1.0)
    assert len(comp.kept) == 8
    assert len(comp.removed) == 4
    assert comp.matrix.shape == (8, 8)


def test_sample_subgraph_validates_keep_count(k4):
    g = complete_graph(4)
    with pytest.raises(ValidationError):
        sample_subgraph(g, k4, 1, np.ones(4), rng_seed=0, beta=1.0)
    with pytest.raises(ValidationError):
        sample_subgraph(g, k4, 5, np.ones(4), rng_seed=0, beta=1.0)


def test_fw_equals_engine_hard_limit(rng):
    from datasp.engine import datasp_forward_efficient

    for trial in range(3):
        graph, costs = random_connected_graph(8, rng)
        m = build_cost_matrix(costs, graph)
        dist = classical_floyd_warshall(m)
        _, smoothed, _ = datasp_forward_efficient(m, 1000.0)
        off = ~np.eye(8, dtype=bool)
        both = off & np.isfinite(dist) & np.isfinite(smoothed)
        assert np.abs(dist[both] - smoothed[both]).max() <= 1e-3
        assert np.array_equal(np.isfinite(dist[off]), np.isfinite(smoothed[off]))
