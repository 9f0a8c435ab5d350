from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dense_dijkstra
from datasp.errors import ValidationError
from datasp.graph import path_cost, build_cost_matrix
from datasp.synthetic import (
    GeneratorConfig,
    _is_connected,
    assign_splits,
    generate_synthetic_dataset,
)


def test_full_sparsity_on_complete_candidates_gives_complete_graph():
    cfg = GeneratorConfig(num_nodes=6, sparsity=1.0, neighbor_candidates=5,
                          num_samples=0, seed=0)
    result = generate_synthetic_dataset(cfg)
    assert result.graph.num_edges == 6 * 5


def test_zero_noise_single_pair_same_context_identical_paths():
    cfg = GeneratorConfig(num_nodes=12, num_samples=6, pair_pool_size=1,
                          noise_scale=0.0, seed=3)
    result = generate_synthetic_dataset(cfg)
    x = result.dataset.features[0]
    latent = result.latent
    a = latent.sample_costs(x, np.random.default_rng(0))
    b = latent.sample_costs(x, np.random.default_rng(9))
    assert np.allclose(a, b)  # noise off: costs depend on x only
    sources = {path[0] for path in result.dataset.paths}
    targets = {path[-1] for path in result.dataset.paths}
    assert len(sources) == 1 and len(targets) == 1


def test_default_profile_edge_count_band():
    counts = []
    for seed in range(100):
        cfg = GeneratorConfig(num_samples=0, seed=seed)
        counts.append(generate_synthetic_dataset(cfg).graph.num_edges)
    assert min(counts) >= 200
    assert max(counts) <= 340
    assert 240 <= float(np.mean(counts)) <= 300


def test_determinism():
    a = generate_synthetic_dataset(GeneratorConfig(num_nodes=15, num_samples=20, seed=5))
    b = generate_synthetic_dataset(GeneratorConfig(num_nodes=15, num_samples=20, seed=5))
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.prior, b.prior)
    assert np.array_equal(a.true_costs, b.true_costs)
    assert a.dataset.paths == b.dataset.paths


def test_prior_is_euclidean_length():
    result = generate_synthetic_dataset(GeneratorConfig(num_nodes=10, num_samples=0, seed=1))
    for (u, v), cost in zip(result.graph.edges, result.prior):
        assert cost == pytest.approx(
            float(np.hypot(*(result.positions[u] - result.positions[v]))))


def test_observed_paths_are_optimal_under_true_costs():
    result = generate_synthetic_dataset(GeneratorConfig(num_nodes=12, num_samples=10, seed=2))
    from datasp.graph import dijkstra

    for observed, costs in zip(result.dataset.paths, result.true_costs):
        m = build_cost_matrix(costs, result.graph)
        [(path, best)] = dijkstra([costs], result.graph, [(observed[0], observed[-1])])
        assert path_cost(m, observed) == pytest.approx(best, rel=1e-12)


def test_block_search_matches_per_sample_dijkstra(monkeypatch):
    # gen draws every sample before it searches, so the block size changes no
    # draw: blocks of three records (the last one partial) and blocks of one
    # (a per-sample dijkstra loop) give the dataset of the default block.
    import datasp.graph

    config = GeneratorConfig(num_nodes=12, num_samples=10, seed=2)
    results = [generate_synthetic_dataset(config)]
    graph = results[0].graph
    for floats in (3 * (graph.num_edges + 3 * graph.num_nodes), 1):
        monkeypatch.setattr(datasp.graph, "BLOCK_FLOATS", floats)
        results.append(generate_synthetic_dataset(config))
    first = results[0]
    for other in results[1:]:
        assert other.dataset.paths == first.dataset.paths
        assert np.array_equal(other.true_costs, first.true_costs)
        assert np.array_equal(other.dataset.features, first.dataset.features)
    # and each path is the dense reference search of its own sample's costs alone
    for path, costs in zip(first.dataset.paths, first.true_costs):
        m = build_cost_matrix(costs, first.graph)
        [(single, best)] = dense_dijkstra(m[None], [(path[0], path[-1])])
        assert tuple(single) == path and best == path_cost(m, path)


def test_costs_floored_at_fraction_of_prior():
    cfg = GeneratorConfig(num_nodes=12, num_samples=30, seed=4, noise_scale=3.0)
    result = generate_synthetic_dataset(cfg)
    assert (result.true_costs >= 0.05 * result.prior[None, :] - 1e-12).all()


def test_validation_errors():
    with pytest.raises(ValidationError):
        GeneratorConfig(num_nodes=1).validate()
    with pytest.raises(ValidationError):
        GeneratorConfig(sparsity=0.0).validate()
    with pytest.raises(ValidationError):
        GeneratorConfig(num_samples=-1).validate()


def test_assign_splits():
    splits = assign_splits(10, (0.8, 0.1, 0.1))
    assert splits["train"] == list(range(8))
    assert splits["val"] == [8]
    assert splits["test"] == [9]
    with pytest.raises(ValidationError):
        assign_splits(10, (0.5, 0.1, 0.1))


def _bfs_connected(n, pairs):
    """Reference: breadth-first search over the undirected pairs."""
    nbrs = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for v in nbrs[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))))
def test_is_connected_matches_bfs(case):
    n, raw = case
    pairs = [(min(u, v), max(u, v)) for u, v in raw if u != v]
    assert _is_connected(n, pairs) == _bfs_connected(n, pairs)
