import math

import numpy as np
import pytest

from conftest import random_connected_graph
from datasp.engine import datasp_backward, datasp_forward_efficient
from datasp.errors import ValidationError
from datasp.graph import (
    Graph,
    build_cost_matrix,
    classical_floyd_warshall,
    dijkstra,
    sample_subgraph,
)
from datasp.oracle import (
    enumerate_visitable_walks,
    finite_difference_gradcheck,
    verify_distance_consistency,
    verify_shortcut_consistency,
)
from datasp.smoothing import INF, pair_softmin, pivot


def assert_shortcut_invariants(p, tol=1e-9):
    """P entries lie in [0, 1], reachable rows sum to 1, and P[i, j, j] = 0."""
    n = p.shape[0]
    assert p.shape == (n, n, n)
    assert (p >= -tol).all() and (p <= 1 + tol).all()
    sums = p.sum(axis=2)
    reachable = ~np.eye(n, dtype=bool) & (sums > 0.5)
    assert np.allclose(sums[reachable], 1.0, atol=tol)
    nodes = np.arange(n)
    assert np.abs(p[:, nodes, nodes]).max() <= tol


def test_k4_smoothed_distance(k4):
    _, dist, _ = datasp_forward_efficient(k4, 1.0)
    assert dist[0, 3] == pytest.approx(1.4562, abs=1e-3)


def test_k4_direct_probability(k4):
    p, _, _ = datasp_forward_efficient(k4, 1.0)
    assert p[0, 3, 0] == pytest.approx(0.2136, abs=1e-3)


def test_k4_highest_node_one_probability(k4):
    # mass of the two walks whose highest intermediate is node 1, relative
    # to the full walk-space Boltzmann sum
    p, _, _ = datasp_forward_efficient(k4, 1.0)
    walks = enumerate_visitable_walks(k4, 0, 3)
    z = sum(np.exp(-w.cost) for w in walks)
    expect = (np.exp(-3.0) + np.exp(-5.0)) / z
    assert p[0, 3, 1] == pytest.approx(expect, rel=1e-9)
    assert p[0, 3, 1] == pytest.approx(0.2425, abs=1e-3)


def test_row_distribution_and_tensor_invariants(k4, rng):
    p, _, _ = datasp_forward_efficient(k4, 1.0)
    assert_shortcut_invariants(p)
    graph, costs = random_connected_graph(7, rng)
    m = build_cost_matrix(costs, graph)
    p2, _, _ = datasp_forward_efficient(m, 0.7)
    assert_shortcut_invariants(p2)
    assert np.allclose(p2.sum(axis=2)[~np.eye(7, dtype=bool)], 1.0, atol=1e-9)


def test_pivot_is_bit_identical_to_pair_softmin(rng):
    graph, costs = random_connected_graph(9, rng)
    cur = build_cost_matrix(costs, graph)
    offdiag = ~np.eye(9, dtype=bool)
    for k in range(9):
        two_hop = cur[:, k, None] + cur[None, k, :]
        active = np.isfinite(two_hop) & offdiag
        active[k, :] = False
        active[:, k] = False
        value, w_two_hop, _ = pair_softmin(two_hop, cur, 0.7)
        new = cur.copy()
        rows, w_via = pivot(new, k, 0.7)
        assert np.array_equal(new, np.where(active, value, cur))
        assert np.array_equal(rows, np.flatnonzero(np.isfinite(cur[:, k])))
        assert np.array_equal(w_via, np.where(active, w_two_hop, 0.0)[rows])
        cur = new


def test_shortcut_invariants_on_compressed_matrix_with_nonpositive_entries():
    rng = np.random.default_rng(0)
    graph, costs = random_connected_graph(10, rng, extra_edges=4, low=0.1, high=0.6)
    m = build_cost_matrix(costs, graph)
    compressed = sample_subgraph(graph, m, 5, np.ones(10), rng_seed=0, beta=1.0).matrix
    assert (compressed[np.isfinite(compressed)] <= 0).any()
    p, _, _ = datasp_forward_efficient(compressed, 1.0)
    assert_shortcut_invariants(p)
    assert verify_distance_consistency(compressed, 1.0) <= 1e-9
    assert verify_shortcut_consistency(compressed, 1.0) <= 1e-9


def test_disconnected_pair_stays_empty():
    g = Graph(3, [(0, 1)])
    m = build_cost_matrix([1.0], g)
    p, dist, _ = datasp_forward_efficient(m, 1.0)
    assert np.array_equal(p[0, 2, :], np.zeros(3))
    assert dist[0, 2] == INF


def test_walk_space_consistency_over_random_graphs():
    from conftest import tractable_random_graph

    for seed, size in enumerate((4, 5, 6, 7, 8)):
        _, m = tractable_random_graph(size, seed=100 + seed)
        for beta in (0.3, 0.5, 1.0, 2.0, 30.0):
            p, _, _ = datasp_forward_efficient(m, beta)
            assert_shortcut_invariants(p)
            assert verify_distance_consistency(m, beta) <= 1e-9
            assert verify_shortcut_consistency(m, beta) <= 1e-9


def test_hard_limit_matches_classical_solution(rng):
    for trial in range(5):
        graph, costs = random_connected_graph(7, rng)
        m = build_cost_matrix(costs, graph)
        p, _, _ = datasp_forward_efficient(m, 1000.0)
        dist = classical_floyd_warshall(m)
        for i in range(7):
            for j in range(7):
                if i == j or not np.isfinite(dist[i, j]):
                    continue
                path, _ = dijkstra(m, i, j)
                expected_slot = i if len(path) == 2 else max(path[1:-1])
                assert int(np.argmax(p[i, j, :])) == expected_slot


def test_tape_holds_no_cubic_array():
    size = 64
    graph, costs = random_connected_graph(size, np.random.default_rng(3))
    p, _, tape = datasp_forward_efficient(build_cost_matrix(costs, graph), 1.0)
    held = {}
    for value in vars(tape).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, np.ndarray):
                held[id(item)] = item
    assert all(a.size < size ** 3 for a in held.values())
    assert sum(a.size for a in held.values()) <= (math.ceil(math.sqrt(size)) + 4) * size ** 2
    del p
    assert tape.p_ref() is None


def test_backward_zero_upstream_gives_zero(k4):
    _, dist, tape = datasp_forward_efficient(k4, 1.0)
    grad = datasp_backward(tape, np.zeros((4, 4, 4)), np.zeros((4, 4)))
    assert np.array_equal(grad, np.zeros((4, 4)))


def test_backward_shape_validation(k4):
    _, _, tape = datasp_forward_efficient(k4, 1.0)
    with pytest.raises(ValidationError):
        datasp_backward(tape, np.zeros((3, 3, 3)), np.zeros((4, 4)))


def test_backward_distance_loss_gradient(rng):
    graph, costs = random_connected_graph(6, rng)
    m = build_cost_matrix(costs, graph)
    _, dist, tape = datasp_forward_efficient(m, 1.0)
    grad_m = np.zeros((6, 6))
    grad_m[0, 5] = 1.0
    grad = datasp_backward(tape, np.zeros((6, 6, 6)), grad_m)

    def loss(matrix):
        _, d, _ = datasp_forward_efficient(matrix, 1.0)
        return float(d[0, 5])

    assert finite_difference_gradcheck(loss, grad, m, step=1e-5) <= 1e-4


def test_backward_log_shortcut_gradient(k4):
    p, dist, tape = datasp_forward_efficient(k4, 1.0)
    grad_p = np.zeros((4, 4, 4))
    grad_p[0, 3, 1] = -1.0 / p[0, 3, 1]
    grad = datasp_backward(tape, grad_p, np.zeros((4, 4)))

    def loss(matrix):
        pp, _, _ = datasp_forward_efficient(matrix, 1.0)
        return float(-np.log(pp[0, 3, 1]))

    assert finite_difference_gradcheck(loss, grad, k4, step=1e-5) <= 1e-4


def test_backward_random_upstream_full_check(rng):
    for trial in range(3):
        size = int(rng.integers(5, 11))
        graph, costs = random_connected_graph(size, rng)
        m = build_cost_matrix(costs, graph)
        beta = float(rng.uniform(0.5, 2.0))
        p, dist, tape = datasp_forward_efficient(m, beta)
        up_p = rng.standard_normal(p.shape)
        up_m = np.where(np.isfinite(dist), rng.standard_normal(dist.shape), 0.0)
        grad = datasp_backward(tape, up_p, up_m)

        def loss(matrix):
            pp, dd, _ = datasp_forward_efficient(matrix, beta)
            total = float((pp * up_p).sum())
            finite = np.isfinite(dd)
            total += float((dd[finite] * up_m[finite]).sum())
            return total

        assert finite_difference_gradcheck(loss, grad, m, step=1e-5) <= 1e-4


def test_backward_gradcheck_with_underflowing_shortcuts():
    # Costs up to 40 at beta = 30 push exp(-beta * detour) below the
    # smallest double for many reachable (i, j, k) slots.
    graph, costs = random_connected_graph(7, np.random.default_rng(0), low=0.5, high=40.0)
    m = build_cost_matrix(costs, graph)
    beta = 30.0
    p, dist, tape = datasp_forward_efficient(m, beta)
    two_hop_finite = np.isfinite(tape.col[:, None, :] + tape.row.T[None, :, :])
    assert ((p == 0.0) & two_hop_finite & np.isfinite(dist)[:, :, None]).any()
    rng = np.random.default_rng(1)
    up_p = rng.standard_normal(p.shape)
    up_m = np.where(np.isfinite(dist), rng.standard_normal(dist.shape), 0.0)
    grad = datasp_backward(tape, up_p, up_m)

    def loss(matrix):
        pp, dd, _ = datasp_forward_efficient(matrix, beta)
        finite = np.isfinite(dd)
        return float((pp * up_p).sum()) + float((dd[finite] * up_m[finite]).sum())

    assert finite_difference_gradcheck(loss, grad, m, step=1e-6) <= 1e-4


def test_backward_rebuilds_released_shortcuts(rng):
    graph, costs = random_connected_graph(8, rng)
    m = build_cost_matrix(costs, graph)
    p, dist, tape = datasp_forward_efficient(m, 1.5)
    up_p = rng.standard_normal(p.shape)
    up_m = np.where(np.isfinite(dist), rng.standard_normal(dist.shape), 0.0)
    reused = datasp_backward(tape, up_p, up_m)
    del p
    assert np.allclose(datasp_backward(tape, up_p, up_m), reused, rtol=1e-12, atol=1e-12)


def test_gradient_zero_at_absent_edges(rng):
    graph, costs = random_connected_graph(6, rng)
    m = build_cost_matrix(costs, graph)
    p, dist, tape = datasp_forward_efficient(m, 1.0)
    grad = datasp_backward(tape, rng.standard_normal(p.shape),
                           np.where(np.isfinite(dist), 1.0, 0.0))
    assert np.array_equal(grad[~np.isfinite(m)], np.zeros((~np.isfinite(m)).sum()))


def test_forward_rejects_bad_matrix():
    with pytest.raises(ValidationError):
        datasp_forward_efficient(np.array([[1.0, 2.0], [3.0, INF]]), 1.0)  # finite diagonal
    with pytest.raises(ValidationError):
        datasp_forward_efficient(np.full((2, 3), INF), 1.0)
