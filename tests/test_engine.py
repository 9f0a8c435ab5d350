import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, scatter_triples
from datasp.engine import (
    datasp_backward,
    datasp_forward_efficient,
    log_shortcuts,
    shortcut_costs,
    sweep,
)
from datasp.errors import ValidationError
from datasp.graph import (
    Graph,
    build_cost_matrix,
    classical_floyd_warshall,
    complete_graph,
    dijkstra,
    draw_kept_nodes,
    sample_subgraph,
)
from datasp.oracle import (
    WalkEnumerator,
    engine_deviations,
    finite_difference_gradcheck,
    normwise_gradient_error,
)
from datasp.smoothing import INF, Workspace, pair_softmin, pivot
from datasp.training import shortcut_loss
from datasp.trajectories import build_frequency_tensor


def assert_shortcut_invariants(log_p, tol=1e-9):
    """P = exp(log P) entries lie in [0, 1], reachable rows sum to 1, and
    P[i, j, j] = 0."""
    p = np.exp(log_p)
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
    log_p, _, _ = datasp_forward_efficient(k4, 1.0)
    assert np.exp(log_p[0, 3, 0]) == pytest.approx(0.2136, abs=1e-3)


def test_k4_highest_node_one_probability(k4):
    # mass of the two walks whose highest intermediate is node 1, relative
    # to the full walk-space Boltzmann sum
    log_p, _, _ = datasp_forward_efficient(k4, 1.0)
    p = np.exp(log_p)
    walks = WalkEnumerator(k4).walks(0, 3)
    z = sum(np.exp(-w.cost) for w in walks)
    expect = (np.exp(-3.0) + np.exp(-5.0)) / z
    assert p[0, 3, 1] == pytest.approx(expect, rel=1e-9)
    assert p[0, 3, 1] == pytest.approx(0.2425, abs=1e-3)


def test_row_distribution_and_tensor_invariants(k4, rng):
    p, _, _ = datasp_forward_efficient(k4, 1.0)
    assert_shortcut_invariants(p)
    graph, costs = random_connected_graph(7, rng)
    m = build_cost_matrix(costs, graph)
    log_p2, _, _ = datasp_forward_efficient(m, 0.7)
    assert_shortcut_invariants(log_p2)
    assert np.allclose(np.exp(log_p2).sum(axis=2)[~np.eye(7, dtype=bool)], 1.0, atol=1e-9)


def _pair_softmin_pivot(cur, k, beta):
    """Reference pivot through pair_softmin: (new matrix, rows, w_via)."""
    n = cur.shape[0]
    two_hop = cur[:, k, None] + cur[None, k, :]
    active = np.isfinite(two_hop) & ~np.eye(n, dtype=bool)
    active[k, :] = False
    active[:, k] = False
    value, w_two_hop, _ = pair_softmin(two_hop, cur, beta)
    rows = np.flatnonzero(np.isfinite(cur[:, k]))
    return np.where(active, value, cur), rows, np.where(active, w_two_hop, 0.0)[rows]


def _assert_pivot_matches_reference(cur, k, beta, work):
    """Pivot cur (a matrix or a view) in place, with and without weights,
    and compare both calls with the reference bit for bit."""
    expected, rows_ref, w_ref = _pair_softmin_pivot(cur.copy(), k, beta)
    plain = cur.copy()
    assert pivot(plain, k, beta, work) is None
    assert np.array_equal(plain, expected)
    rows, w_via = pivot(cur, k, beta, work, weights=True)
    assert np.array_equal(cur, expected)
    assert np.array_equal(rows, rows_ref)
    assert np.array_equal(w_via, w_ref)


def test_pivot_is_bit_identical_to_pair_softmin(rng):
    graph, costs = random_connected_graph(9, rng)
    cur = build_cost_matrix(costs, graph)
    work = Workspace(cur.size)
    for k in range(9):
        _assert_pivot_matches_reference(cur, k, 0.7, work)

    # a trailing block cur[t:, t:] is a non-contiguous view; the pivot
    # writes through it and leaves the rest of the matrix alone
    graph, costs = random_connected_graph(14, rng, extra_edges=10)
    big = build_cost_matrix(costs, graph)
    work = Workspace(big.size)
    for t in range(0, 12, 3):
        before = big.copy()
        _assert_pivot_matches_reference(big[t:, t:], 0, 3.0, work)
        outside = np.ones(big.shape, dtype=bool)
        outside[t:, t:] = False
        assert np.array_equal(big[outside], before[outside])

    # one workspace across pivots whose row counts and widths fall and then
    # rise: no entry left by an earlier, larger pivot may leak into a later one
    work = Workspace(16 * 16)
    for size, extra in ((16, 40), (11, 3), (5, 1), (3, 0), (8, 2), (13, 6), (16, 40)):
        graph, costs = random_connected_graph(size, rng, extra_edges=extra, low=0.1, high=3.0)
        cur = build_cost_matrix(costs, graph)
        for k in range(size):
            _assert_pivot_matches_reference(cur, k, 1.3, work)

    # at large beta most exponents fall below the floor the pivot puts on
    # them when it computes no weights; the values must keep their bits
    graph, costs = random_connected_graph(12, rng, extra_edges=12, low=0.1, high=50.0)
    for beta in (30.0, 1000.0):
        cur = build_cost_matrix(costs, graph)
        work = Workspace(cur.size)
        for k in range(12):
            _assert_pivot_matches_reference(cur, k, beta, work)


def test_sweep_working_memory_is_a_few_matrices(rng):
    """Beyond the tape it returns, a sweep holds at most 6 V x V float
    matrices at once."""
    n = 64
    graph, costs = random_connected_graph(n, rng)
    m = build_cost_matrix(costs, graph)
    tracemalloc.start()
    try:
        tape = sweep(m, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = {id(a): a for a in (tape.m_input, tape.col, tape.row, tape.dist, *tape.snapshots)}
    tape_bytes = sum(a.nbytes for a in arrays.values())
    assert peak - tape_bytes <= 6 * n * n * 8


def test_shortcut_invariants_on_compressed_matrix_with_nonpositive_entries():
    rng = np.random.default_rng(0)
    graph, costs = random_connected_graph(10, rng, extra_edges=4, low=0.1, high=0.6)
    m = build_cost_matrix(costs, graph)
    kept = draw_kept_nodes(graph, 5, np.ones(10), rng_seed=0)
    compressed = sample_subgraph(graph, m, kept, beta=1.0).matrix
    assert (compressed[np.isfinite(compressed)] <= 0).any()
    p, _, _ = datasp_forward_efficient(compressed, 1.0)
    assert_shortcut_invariants(p)
    distance_dev, shortcut_dev = engine_deviations(WalkEnumerator(compressed), 1.0)
    assert distance_dev <= 1e-9
    assert shortcut_dev <= 1e-9


def test_disconnected_pair_stays_empty():
    g = Graph(3, [(0, 1)])
    m = build_cost_matrix([1.0], g)
    log_p, dist, _ = datasp_forward_efficient(m, 1.0)
    assert np.array_equal(log_p[0, 2, :], np.full(3, -INF))
    assert dist[0, 2] == INF


def test_walk_space_consistency_over_random_graphs():
    from conftest import tractable_random_graph

    for seed, size in enumerate((4, 5, 6, 7, 8)):
        _, m, walks = tractable_random_graph(size, seed=100 + seed)
        for beta in (0.3, 0.5, 1.0, 2.0, 30.0):
            p, _, _ = datasp_forward_efficient(m, beta)
            assert_shortcut_invariants(p)
            distance_dev, shortcut_dev = engine_deviations(walks, beta)
            assert distance_dev <= 1e-9
            assert shortcut_dev <= 1e-9


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
                path, _ = dijkstra(m[None], [(i, j)])[0]
                expected_slot = i if len(path) == 2 else max(path[1:-1])
                assert int(np.argmax(p[i, j, :])) == expected_slot


@settings(derandomize=True, deadline=None, max_examples=100)
@given(size=st.integers(3, 12), extra=st.integers(1, 12),
       beta=st.sampled_from([0.1, 0.5, 1.0, 3.0, 30.0]), seed=st.integers(0, 2**16))
def test_smoothed_distance_never_exceeds_hard_distance(size, extra, beta, seed):
    """D is a smooth min over walks that include the hard shortest path, so
    D <= the classical distance on every off-diagonal pair, even where the
    walk series diverges; both are finite on the same pairs."""
    graph, costs = random_connected_graph(size, np.random.default_rng(seed), extra_edges=extra,
                                          low=0.1, high=5.0)
    m = build_cost_matrix(costs, graph)
    off = ~np.eye(size, dtype=bool)
    smooth, hard = sweep(m, beta).dist[off], classical_floyd_warshall(m)[off]
    assert np.array_equal(np.isfinite(smooth), np.isfinite(hard))
    assert (smooth <= hard).all()


def test_tape_holds_no_cubic_array():
    size = 64
    graph, costs = random_connected_graph(size, np.random.default_rng(3))
    tape = sweep(build_cost_matrix(costs, graph), 1.0)
    held = {}
    for value in vars(tape).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, np.ndarray):
                held[id(item)] = item
    assert all(a.size < size ** 3 for a in held.values())
    assert sum(a.size for a in held.values()) <= (math.ceil(math.sqrt(size)) + 4) * size ** 2


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
    _, dist, tape = datasp_forward_efficient(k4, 1.0)
    grad_log_p = np.zeros((4, 4, 4))
    grad_log_p[0, 3, 1] = -1.0
    grad = datasp_backward(tape, grad_log_p, np.zeros((4, 4)))

    def loss(matrix):
        log_p, _, _ = datasp_forward_efficient(matrix, 1.0)
        return float(-log_p[0, 3, 1])

    assert finite_difference_gradcheck(loss, grad, k4, step=1e-5) <= 1e-4


def test_backward_random_upstream_full_check(rng):
    for trial in range(3):
        size = int(rng.integers(5, 11))
        graph, costs = random_connected_graph(size, rng)
        m = build_cost_matrix(costs, graph)
        beta = float(rng.uniform(0.5, 2.0))
        log_p, dist, tape = datasp_forward_efficient(m, beta)
        up_p = rng.standard_normal(log_p.shape)
        up_m = np.where(np.isfinite(dist), rng.standard_normal(dist.shape), 0.0)
        # a gradient on P reaches log P as up_p * P
        grad = datasp_backward(tape, up_p * np.exp(log_p), up_m)

        def loss(matrix):
            lp, dd, _ = datasp_forward_efficient(matrix, beta)
            total = float((np.exp(lp) * up_p).sum())
            finite = np.isfinite(dd)
            total += float((dd[finite] * up_m[finite]).sum())
            return total

        assert finite_difference_gradcheck(loss, grad, m, step=1e-5) <= 1e-4


def test_backward_gradcheck_with_underflowing_shortcuts():
    # Costs up to 40 at beta = 30 push P = exp(-beta * detour) below the
    # smallest double for many reachable (i, j, k) slots; their log P stays
    # finite, and so does its gradient.
    graph, costs = random_connected_graph(7, np.random.default_rng(0), low=0.5, high=40.0)
    m = build_cost_matrix(costs, graph)
    beta = 30.0
    log_p, dist, tape = datasp_forward_efficient(m, beta)
    walk = np.isfinite(log_p)
    assert (walk & (np.exp(log_p) == 0.0)).any()
    rng = np.random.default_rng(1)
    # upstream entries at the -inf slots (no walk) must carry no gradient
    up_log_p = rng.standard_normal(log_p.shape)
    up_m = np.where(np.isfinite(dist), rng.standard_normal(dist.shape), 0.0)
    grad = datasp_backward(tape, up_log_p, up_m)

    def loss(matrix):
        lp, dd, _ = datasp_forward_efficient(matrix, beta)
        finite = np.isfinite(dd)
        return float((lp[walk] * up_log_p[walk]).sum()) + float((dd[finite] * up_m[finite]).sum())

    assert finite_difference_gradcheck(loss, grad, m, step=1e-6) <= 1e-4


def test_backward_rejects_sweep_tape(k4):
    # a sweep's tape holds no P for the backward to read
    with pytest.raises(ValidationError):
        datasp_backward(sweep(k4, 1.0), np.zeros((4, 4, 4)), np.zeros((4, 4)))


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


# --- log P at observed triples ------------------------------------------------------

def _squared_gap_matrix(size: int) -> np.ndarray:
    """Complete graph with cost 4 (u - v)^2: backtracking legs are dear."""
    graph = complete_graph(size)
    return build_cost_matrix([4.0 * (u - v) ** 2 for u, v in graph.edges], graph)


@pytest.mark.parametrize("beta", [1.0, 3.0, 30.0])
def test_triple_shortcuts_are_bit_equal_to_dense(beta, rng):
    full = _squared_gap_matrix(9)
    comp = sample_subgraph(complete_graph(9), full, [0, 2, 3, 5, 6, 8], beta)
    graph, costs = random_connected_graph(8, rng)
    one_way = build_cost_matrix(costs, graph)
    one_way[:, 0] = INF  # no walk reaches node 0
    for m in (comp.matrix, build_cost_matrix(costs, graph), one_way):
        n = m.shape[0]
        dense, dist, _ = datasp_forward_efficient(m, beta)
        # every slot kind: direct, via, k == j, i == j; shuffled, with repeats
        at = np.indices((n, n, n)).reshape(3, -1)
        at = at[:, rng.permutation(np.r_[np.arange(n ** 3), rng.integers(n ** 3, size=20)])]
        log_p, d, tape = datasp_forward_efficient(m, beta, at=tuple(at))
        assert np.array_equal(log_p, dense[tuple(at)])
        assert np.array_equal(d, dist)
        assert tape.log_p is log_p and log_p.shape == (at.shape[1],)

        # the forms the queries read from a sweep's tape: a scalar pair with a
        # slot vector, and (B, 1), (B, 1), (V,) rows of pairs; pair (1, 1) and
        # pair (1, 0), unreachable on the one-way graph, read -inf
        tape = sweep(m, beta)
        slots = rng.permutation(np.r_[np.arange(n), rng.integers(n, size=5)])
        pairs = np.r_[[[1, 1], [1, 0]], rng.integers(n, size=(10, 2))]
        for i, j in pairs.tolist():
            assert np.array_equal(log_shortcuts(tape, i, j, slots), dense[i, j, slots])
        a, b, nodes = pairs[:, :1], pairs[:, 1:], np.arange(n)
        rows = log_shortcuts(tape, a, b, nodes)
        assert np.array_equal(rows, dense[a, b, nodes])
        reached = np.isfinite(dist[a, b])[:, 0]
        costs_of = shortcut_costs(tape, a, b, nodes)[reached]
        assert np.array_equal((costs_of - dist[a, b][reached]) * -beta, rows[reached])
        assert (rows[0] == -INF).all()
        assert (rows[1] == -INF).all() == (m is one_way)


@pytest.mark.parametrize("beta", [1.0, 3.0, 30.0])
def test_triple_backward_matches_dense_backward(beta, rng):
    comp = sample_subgraph(complete_graph(9), _squared_gap_matrix(9), [0, 2, 3, 5, 6, 8], beta)
    n = comp.matrix.shape[0]
    # pair (0, 5) observes intermediates 1, 2, 3 and 4; (0, 5, 1) backtracks
    # over the dearest legs, so its (0, 1, 5) term has P below 1e-12 at every
    # beta (and below the smallest double at beta = 30)
    freq = build_frequency_tensor([(0, 1, 5), (0, 2, 5), (0, 3, 5), (0, 4, 5), (0, 4, 2, 5),
                                   (0, 5, 1), (3, 1, 4)])
    assert len(freq.frequencies[(0, 5)]) >= 3
    log_p, dist, tape = datasp_forward_efficient(comp.matrix, beta, at=freq.triples)
    _, grad_log_p, _ = shortcut_loss(log_p, freq)
    assert (log_p < math.log(1e-12)).any()
    grad_m = np.where(np.isfinite(dist), rng.standard_normal(dist.shape), 0.0)
    sparse = datasp_backward(tape, grad_log_p, grad_m)

    _, _, dense_tape = datasp_forward_efficient(comp.matrix, beta)
    dense = datasp_backward(dense_tape, scatter_triples(freq, grad_log_p, n), grad_m)
    np.testing.assert_allclose(sparse, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())


@settings(derandomize=True, deadline=None, max_examples=25)
@given(size=st.integers(4, 8), beta=st.sampled_from([1.0, 3.0, 5.0]),
       seed=st.integers(0, 2**16), data=st.data())
def test_triple_path_gradcheck(size, beta, seed, data):
    rng = np.random.default_rng(seed)
    graph = complete_graph(size)
    m = build_cost_matrix(rng.uniform(1.0, 3.0, graph.num_edges), graph)
    paths = [tuple(data.draw(st.permutations(range(size)))[:data.draw(st.integers(2, size))])
             for _ in range(data.draw(st.integers(1, 4)))]
    freq = build_frequency_tensor(paths)

    def loss(matrix):
        log_p, _, _ = datasp_forward_efficient(matrix, beta, at=freq.triples)
        return shortcut_loss(log_p, freq)[0]

    log_p, dist, tape = datasp_forward_efficient(m, beta, at=freq.triples)
    grad = datasp_backward(tape, shortcut_loss(log_p, freq)[1], np.zeros_like(dist))
    # normwise: the KL gradient has entries near 1e-6 whose central
    # differences are mostly round-off
    assert normwise_gradient_error(loss, grad, m, step=1e-5) <= 1e-6


def test_forward_rejects_bad_triples(k4):
    for at in [([0], [1]), ([0, 1], [1], [2]), ([0.0], [1.0], [2.0]), ([0], [4], [1]),
               ([-1], [1], [2]), (np.zeros((1, 1), int),) * 3]:
        with pytest.raises(ValidationError):
            datasp_forward_efficient(k4, 1.0, at=at)


def test_triple_backward_shape_validation(k4):
    _, _, tape = datasp_forward_efficient(k4, 1.0, at=([0, 1], [3, 2], [1, 1]))
    with pytest.raises(ValidationError):
        datasp_backward(tape, np.zeros((4, 4, 4)), np.zeros((4, 4)))
