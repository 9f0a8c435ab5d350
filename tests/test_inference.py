import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_connected_graph, tractable_random_graph
from reference import classical_floyd_warshall, dense_dijkstra, edge_costs
import datasp.inference
from datasp import engine
from datasp.engine import datasp_backward, datasp_forward_efficient, sweep
from datasp.errors import NoPathError, NumericalError, ValidationError
from datasp.graph import (
    Graph,
    build_cost_matrix,
    complete_graph,
    dijkstra,
)
from datasp.inference import (
    destination_likelihood,
    exp_negative_distance_weights,
    expected_optimal_path,
    jaccard_edges,
    match_rate,
    monte_carlo_path_distribution,
    optimal_cost_rate,
)
from datasp.oracle import WalkEnumerator, maxent_distribution
from datasp.synthetic import GeneratorConfig, generate_synthetic_dataset


def test_sample_path_direct_tensor(rng):
    # the edge itself is the only 1 -> 4 walk
    m = build_cost_matrix([1.0], Graph(5, [(1, 4)]))
    est = monte_carlo_path_distribution(m, 1.0, 1, 4, 10, rng)
    assert est.counts == {(1, 4): 10}


def test_sample_path_unreachable(rng):
    m = build_cost_matrix([1.0], Graph(3, [(0, 1)]))
    with pytest.raises(NoPathError):
        monte_carlo_path_distribution(m, 1.0, 0, 2, 1, rng)


def test_sample_path_invalid_pair(rng, k4):
    with pytest.raises(ValidationError):
        monte_carlo_path_distribution(k4, 1.0, 2, 2, 1, rng)


@pytest.mark.parametrize("pair", [(0, 0), (0, 4), (4, 0), (-1, 2)])
def test_sample_path_checks_the_pair_before_sweeping(monkeypatch, rng, k4, pair):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return engine.sweep(*args, **kwargs)

    monkeypatch.setattr(datasp.inference, "sweep", counted)
    with pytest.raises(ValidationError, match=r"invalid pair \(.*\) for 4 nodes"):
        monte_carlo_path_distribution(k4, 1.0, *pair, 1, rng)
    assert calls == []


def _query_outcomes(matrices, betas):
    """Every query result on the matrices at each beta: the sampler's
    counts with and without cycle rejection for a few pairs, and the
    destination probabilities for every current node, or the error raised."""

    def outcome(query, *args):
        try:
            result = query(*args)
        except (NoPathError, NumericalError) as exc:
            return type(exc).__name__, str(exc)
        if isinstance(result, np.ndarray):
            return result.tobytes()
        return result.counts, result.rejected_count

    out = []
    for m in matrices:
        n = m.shape[0]
        for beta in betas:
            for i, j in [(0, n - 1), (n - 1, 0), (1, n // 2)]:
                if i == j:
                    continue
                for reject in (False, True):
                    out.append(outcome(monte_carlo_path_distribution, m, beta, i, j, 300,
                                       np.random.default_rng(i * n + j), reject))
            for start in (0, n - 1):
                for current in range(n):
                    if current != start:
                        out.append(outcome(destination_likelihood, m, beta, [start, current],
                                           np.ones(n)))
    return out


def test_queries_match_the_full_sweep(monkeypatch, k4):
    """Sweeping only the source row changes no query result, bit for bit."""
    rng = np.random.default_rng(6)
    matrices = [k4] + [build_cost_matrix(costs, graph) for graph, costs in
                       (random_connected_graph(size, rng) for size in (5, 8, 12))]
    betas = (1.0, 3.0, 30.0)
    with_source = _query_outcomes(matrices, betas)
    monkeypatch.setattr(datasp.inference, "sweep",
                        lambda m, beta, sources=None: engine.sweep(m, beta))
    assert with_source == _query_outcomes(matrices, betas)


def _peak_bytes(query, *args):
    tracemalloc.start()
    try:
        query(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_query_memory_is_a_few_matrices():
    """A query holds at most 10 V x V float matrices at once: no snapshots."""
    n = 64
    graph, costs = random_connected_graph(n, np.random.default_rng(2))
    m = build_cost_matrix(costs, graph)
    sampled = _peak_bytes(monte_carlo_path_distribution, m, 3.0, 0, n - 1, 100,
                          np.random.default_rng(0))
    scored = _peak_bytes(destination_likelihood, m, 3.0, [0, n // 2], np.ones(n))
    assert max(sampled, scored) <= 10 * n * n * 8


def test_direct_walk_frequency(k4):
    est = monte_carlo_path_distribution(k4, 1.0, 0, 3, 10000, np.random.default_rng(11))
    assert est.frequencies.get((0, 3), 0.0) == pytest.approx(0.2136, abs=0.02)
    assert est.frequencies.get((0, 1, 0, 2, 3), 0.0) == pytest.approx(0.0289, abs=0.01)
    assert est.rejected_count == 0


def test_revisited_high_node_never_sampled(k4):
    est = monte_carlo_path_distribution(k4, 1.0, 0, 3, 20000, np.random.default_rng(4))
    assert (0, 2, 0, 2, 3) not in est.frequencies


def test_cycle_rejection_support_and_frequencies(k4):
    est = monte_carlo_path_distribution(k4, 1.0, 0, 3, 10000, np.random.default_rng(5),
                                        reject_cycles=True)
    walks = WalkEnumerator(k4).walks(0, 3)
    acyclic = [w for w in walks if len(set(w.nodes)) == len(w.nodes)]
    assert set(est.frequencies) == {w.nodes for w in acyclic}
    z = sum(np.exp(-w.cost) for w in acyclic)
    for w in acyclic:
        assert est.frequencies[w.nodes] == pytest.approx(np.exp(-w.cost) / z, abs=0.02)
    assert est.rejected_count > 0
    assert est.sample_count == 10000


def test_all_samples_rejected_raises():
    # a 2-node graph whose only walk, the edge, is acyclic: cycle rejection
    # accepts every draw
    m = build_cost_matrix([1.0], Graph(2, [(0, 1)]))
    est = monte_carlo_path_distribution(m, 1.0, 0, 1, 5, np.random.default_rng(0),
                                        reject_cycles=True)
    assert est.frequencies == {(0, 1): 1.0}


def test_sampled_walks_are_edge_feasible(rng):
    graph, costs = random_connected_graph(7, rng, extra_edges=2)
    m = build_cost_matrix(costs, graph)
    tape = sweep(m, 1.0)
    for i, j in [(0, 6), (2, 5)]:
        if not np.isfinite(tape.dist[i, j]):
            continue
        est = monte_carlo_path_distribution(m, 1.0, i, j, 200, rng)
        assert est.sample_count == 200
        for walk in est.counts:
            for u, v in zip(walk[:-1], walk[1:]):
                assert np.isfinite(m[u, v])


def test_sampler_never_dead_ends_and_stays_in_walk_space():
    # Every reachable pair, from the smooth regime to the hard-min limit: no
    # draw may fail, and every walk must be a visitable walk of the pair.
    for seed, size in enumerate((4, 5, 6, 7, 8)):
        _, m, enum = tractable_random_graph(size, seed=300 + seed, max_walks=20_000)
        rng = np.random.default_rng(seed)
        for beta in (1.0, 30.0, 1000.0):
            tape = sweep(m, beta)
            for i in range(size):
                for j in range(size):
                    if i == j or not np.isfinite(tape.dist[i, j]):
                        continue
                    walks = {w.nodes for w in enum.walks(i, j)}
                    est = monte_carlo_path_distribution(m, beta, i, j, 20, rng)
                    assert est.sample_count == 20
                    assert set(est.counts) <= walks


@pytest.mark.parametrize("num_nodes, beta, s, t", [(30, 3.0, 0, 17), (100, 5.0, 3, 71),
                                                  (100, 30.0, 3, 71)])
def test_sampled_edge_counts_match_the_backwards_expected_counts(num_nodes, beta, s, t):
    # dD[s, t]/dM is the expected number of traversals of each edge under the
    # walk distribution the sampler draws from, an independent code path.
    # Each edge's mean count over N draws gives z = (mean - expected) /
    # sqrt(var / N), and the sum of z^2 over k edges stays within about four
    # standard deviations of a chi-square of k degrees.
    syn = generate_synthetic_dataset(GeneratorConfig(num_nodes=num_nodes, num_samples=0))
    m = build_cost_matrix(syn.prior, syn.graph)
    log_p, _, tape = datasp_forward_efficient(m, beta, at=([s], [t], [s]))
    one_hot = np.zeros_like(m)
    one_hot[s, t] = 1.0
    expected = datasp_backward(tape, np.zeros_like(log_p), one_hot).ravel()
    draws = 100_000
    est = monte_carlo_path_distribution(m, beta, s, t, draws, np.random.default_rng(0))
    total, squares = np.zeros(m.size), np.zeros(m.size)
    for walk, count in est.counts.items():
        per_walk = np.bincount(np.ravel_multi_index((walk[:-1], walk[1:]), m.shape),
                               minlength=m.size)
        total += count * per_walk
        squares += count * per_walk ** 2
    mean = total / draws
    compared = expected > 1e-3
    var = squares[compared] / draws - mean[compared] ** 2
    assert (var > 0).all()  # every compared edge varies from walk to walk
    z = (mean[compared] - expected[compared]) / np.sqrt(var / draws)
    k = np.count_nonzero(compared)
    assert (z ** 2).sum() <= k + 4 * np.sqrt(2 * k)


def test_sampling_memory_is_bounded_by_blocks(k4):
    """Walks are drawn in blocks of at most WALK_BLOCK, so ten times the
    draws hold about the same working memory."""

    def peak(draws):
        tracemalloc.start()
        try:
            monte_carlo_path_distribution(k4, 1.0, 0, 3, draws, np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10_000), peak(100_000)
    assert large <= 8 * 2 ** 20
    assert large <= 1.25 * small


def test_hard_limit_sampling_returns_optimal_path(rng):
    graph, costs = random_connected_graph(7, rng, extra_edges=2)
    m = build_cost_matrix(costs, graph)
    best, _ = dijkstra([costs], graph, [(0, 6)])[0]
    est = monte_carlo_path_distribution(m, 1000.0, 0, 6, 3000, np.random.default_rng(1))
    assert est.frequencies.get(tuple(best), 0.0) >= 0.999


# --- destination likelihood ---------------------------------------------------

def _two_candidate_matrix():
    """0 -> 1 directly (cost 2) or through 3 (1 + 1); 0 -> 2 only through 3.

    At beta = 1, P[0, 1, 3] = 1/2 and P[0, 2, 3] = 1, so with the current
    node 3 weighted out, destinations 1 and 2 score 1/3 and 2/3.
    """
    graph = Graph(4, [(0, 1), (0, 3), (3, 1), (3, 2)])
    return build_cost_matrix([2.0, 1.0, 1.0, 1.0], graph)


def test_destination_two_candidates_normalize():
    prior = np.array([1.0, 1.0, 1.0, 0.0])
    probs = destination_likelihood(_two_candidate_matrix(), 1.0, [0, 3], prior)
    assert probs[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert probs[2] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert probs[0] == 0.0 and probs[3] == 0.0


def test_destination_prior_mask_selects_single_node():
    prior = np.array([0.0, 1.0, 0.0, 0.0])
    probs = destination_likelihood(_two_candidate_matrix(), 1.0, [0, 3], prior)
    assert probs[1] == 1.0


def test_destination_zero_scores_raise():
    # partial [0, 2] on 0 -> 1 -> 2: no edge 0 -> 2 and no edge out of 2
    m = build_cost_matrix([1.0, 1.0], Graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(NoPathError):
        destination_likelihood(m, 1.0, [0, 2], np.ones(3))


def test_destination_matches_walk_space_bayes(k4):
    # partial [0, 3]: P(destination = x) proportional to the Boltzmann mass
    # of walks 0 -> x whose highest intermediate is node 3, renormalized.
    probs = destination_likelihood(k4, 1.0, [0, 3], np.ones(4))

    expected = np.zeros(4)
    for x in (1, 2):
        walks = WalkEnumerator(k4).walks(0, x)
        mass = maxent_distribution(walks, 1.0)
        expected[x] = sum(prob for w, prob in mass.items()
                          if len(w) > 2 and max(w[1:-1]) == 3)
    # the current node itself scores through its direct-connection slot
    expected[3] = maxent_distribution(WalkEnumerator(k4).walks(0, 3), 1.0)[(0, 3)]
    expected /= expected.sum()
    assert probs == pytest.approx(expected, abs=1e-9)


def test_destination_swaps_final_node(k4):
    # partial ending at node 1: the scores come from P of the matrix with
    # nodes 1 and 3 swapped, given the unswapped matrix
    probs = destination_likelihood(k4, 1.0, [0, 1], np.ones(4))
    log_p, _, _ = datasp_forward_efficient(_swap_nodes(k4, 1, 3), 1.0)
    expected = _tensor_destination_likelihood(np.exp(log_p), [0, 1], np.ones(4))
    np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0.0)
    assert probs == pytest.approx([0.0, 0.414, 0.293, 0.293], abs=1e-3)


def _swap_nodes(m, a, b):
    """m with node indices a and b exchanged (rows and columns)."""
    order = np.arange(m.shape[0])
    order[[a, b]] = [b, a]
    return m[np.ix_(order, order)]


def _tensor_destination_likelihood(p, partial, weights):
    """Reference: the scores read from a dense shortcut tensor P."""
    n = p.shape[0]
    start, current = partial[0], partial[-1]

    def swapped(x):
        return n - 1 if x == current else current if x == n - 1 else x

    scores = np.zeros(n)
    for node in range(n):
        if node in partial[:-1]:
            continue
        if node == current:
            scores[node] = p[swapped(start), n - 1, swapped(start)] * weights[node]
        else:
            scores[node] = p[swapped(start), swapped(node), n - 1] * weights[node]
    return scores / scores.sum()


def test_destination_likelihood_matches_tensor_formula():
    rng = np.random.default_rng(8)
    for trial in range(12):
        size = int(rng.integers(5, 10))
        graph, costs = random_connected_graph(size, rng)
        m = build_cost_matrix(costs, graph)
        partial = [int(x) for x in rng.choice(size, size=int(rng.integers(2, 5)), replace=False)]
        weights = rng.uniform(0.0, 1.0, size) * (rng.uniform(size=size) > 0.2)
        weights[rng.integers(size)] = 1.0
        beta = float(rng.choice([0.5, 1.0, 5.0]))
        log_p, _, _ = datasp_forward_efficient(_swap_nodes(m, partial[-1], size - 1), beta)
        expected = _tensor_destination_likelihood(np.exp(log_p), partial, weights)
        probs = destination_likelihood(m, beta, partial, weights)
        assert np.array_equal(probs == 0.0, expected == 0.0)
        np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0.0)


def test_destination_validates_partial():
    m = build_cost_matrix(np.ones(6), complete_graph(3))
    with pytest.raises(ValidationError):
        destination_likelihood(m, 1.0, [1], np.ones(3))
    with pytest.raises(ValidationError):
        destination_likelihood(m, 1.0, [0, 1, 0], np.ones(3))


@pytest.mark.parametrize("weights", [
    [1.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [-1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
    ["x", 1.0, 1.0],
], ids=["wrong-length", "nan", "inf", "negative", "all-zero", "not-numbers"])
def test_destination_validates_weights(weights):
    m = build_cost_matrix(np.ones(6), complete_graph(3))
    with pytest.raises(ValidationError):
        destination_likelihood(m, 1.0, [0, 1], weights)


def test_exp_negative_distance_prior(k4):
    graph, costs = edge_costs(k4)
    weights = exp_negative_distance_weights(costs, graph, 0)
    assert weights[1] > weights[3]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.integers(0, n - 1),
    hnp.arrays(np.float64, (n, n), elements=st.one_of(st.just(np.inf), st.floats(0.1, 10.0))))))
def test_exp_negative_distance_matches_floyd_warshall_row(case):
    origin, m = case
    np.fill_diagonal(m, np.inf)
    row = classical_floyd_warshall(m)[origin]
    row[origin] = 0.0
    finite = np.isfinite(row)
    scale = row[finite].mean() if row[finite].max() > 0 else 1.0
    expected = np.where(finite, np.exp(-row / max(scale, 1e-12)), 0.0)
    graph, costs = edge_costs(m)
    weights = exp_negative_distance_weights(costs, graph, origin)
    np.testing.assert_array_equal(weights == 0.0, expected == 0.0)
    np.testing.assert_allclose(weights, expected, rtol=1e-12, atol=0.0)


# --- expected optimal path and metrics -----------------------------------------

def test_expected_optimal_path_prior_baseline(k4):
    graph = complete_graph(4)
    costs = [abs(u - v) for u, v in graph.edges]
    [(path, cost)] = expected_optimal_path([costs], graph, [(0, 3)])
    assert cost == 3.0
    assert path == dense_dijkstra(k4[None], [(0, 3)])[0][0]


def test_expected_optimal_path_uniform_grid_tie_break():
    graph = complete_graph(3)
    [(path, cost)] = expected_optimal_path(np.ones((1, graph.num_edges)), graph, [(0, 2)])
    assert path == [0, 2] and cost == 1.0


def test_jaccard():
    assert jaccard_edges([0, 1, 2], [0, 1, 2]) == 1.0
    assert jaccard_edges([0, 1, 2], [0, 1, 3]) == pytest.approx(1.0 / 3.0)
    assert jaccard_edges([0, 1], [2, 3]) == 0.0
    with pytest.raises(ValidationError):
        jaccard_edges([0], [0, 1])


def test_match_rate():
    assert match_rate([[0, 1]], [[0, 1]]) == 1.0
    assert match_rate([[0, 1]], [[0, 2]]) == 0.0
    preds = [[0, 1], [0, 2], [1, 2], [2, 3]]
    obs = [[0, 1], [9, 9], [9, 9], [9, 9]]
    assert match_rate(preds, obs) == 0.25


def test_optimal_cost_rate(k4, rng):
    k4_graph = complete_graph(4)
    k4_costs = np.array([abs(u - v) for u, v in k4_graph.edges], dtype=float)
    best, best_cost = dijkstra([k4_costs], k4_graph, [(0, 3)])[0]
    assert optimal_cost_rate([best], [k4_costs], k4_graph, [best_cost]) == 1.0
    assert optimal_cost_rate([[0, 1, 0, 3]], [k4_costs], k4_graph, [best_cost]) == 0.0
    with pytest.raises(ValidationError):
        optimal_cost_rate([], [], k4_graph, [])
    with pytest.raises(ValidationError):
        optimal_cost_rate([best], [k4_costs], k4_graph, [])
    # random-walk predictions scored against brute-force optima
    graph, costs = random_connected_graph(6, rng, extra_edges=2)
    m = build_cost_matrix(costs, graph)
    preds = []
    for _ in range(20):
        walk = [0]
        while walk[-1] != 5:
            nbrs = [v for v in range(6) if np.isfinite(m[walk[-1], v])]
            walk.append(int(rng.choice(nbrs)))
            if len(walk) > 10:
                break
        if walk[-1] == 5:
            preds.append(walk)
    if preds:
        rate = optimal_cost_rate(preds, [costs] * len(preds), graph,
                                 [dijkstra([costs], graph, [(0, 5)])[0][1]] * len(preds))
        from datasp.graph import path_cost

        expected = np.mean([
            1.0 if path_cost(m, p) <= dijkstra([costs], graph, [(0, 5)])[0][1] * (1 + 1e-9) else 0.0
            for p in preds])
        assert rate == pytest.approx(expected)
