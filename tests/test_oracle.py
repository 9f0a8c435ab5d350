import math

import numpy as np
import pytest

from conftest import random_connected_graph
from datasp.errors import EnumerationLimitError, ValidationError
from datasp.graph import Graph, build_cost_matrix, complete_graph
from datasp.oracle import (
    enumerate_visitable_walks,
    finite_difference_gradcheck,
    maxent_distribution,
    sampler_total_variation,
    verify_distance_consistency,
    verify_shortcut_consistency,
    walk_cost_census,
)
from datasp.engine import datasp_forward_efficient, sweep
from datasp.smoothing import softmin_value

# The tabulated walk census of the bundled fixture for pair (0, 3): every
# walk of cost <= 9.  The recursion also yields a single cost-11 walk
# (0,1,0,2,0,1,0,3) whose probability mass at beta=1 is ~7e-5; it sits
# below the table's display resolution but belongs to the walk space.
TABLE_CENSUS = {3.0: 4, 5.0: 4, 7.0: 7, 9.0: 5}


def test_k4_walk_census(k4):
    walks = enumerate_visitable_walks(k4, 0, 3, max_node_bound=2)
    census = walk_cost_census(walks)
    assert {c: n for c, n in census.items() if c <= 9.0} == TABLE_CENSUS
    assert sum(TABLE_CENSUS.values()) == 20
    extras = [w for w in walks if w.cost > 9.0]
    assert [w.nodes for w in extras] == [(0, 1, 0, 2, 0, 1, 0, 3)]
    probs = maxent_distribution(walks, 1.0)
    assert sum(probs[w.nodes] for w in extras) < 1e-4


def test_k4_walks_contain_tabulated_paths(k4):
    walks = {w.nodes: w.cost for w in enumerate_visitable_walks(k4, 0, 3)}
    assert walks[(0, 3)] == 3.0
    assert walks[(0, 1, 3)] == 3.0
    assert walks[(0, 2, 3)] == 3.0
    assert walks[(0, 1, 2, 3)] == 3.0
    assert walks[(0, 1, 0, 3)] == 5.0
    assert walks[(0, 2, 1, 3)] == 5.0
    assert walks[(0, 1, 0, 2, 3)] == 5.0
    assert walks[(0, 1, 2, 1, 3)] == 5.0


def test_k4_excludes_revisited_high_node(k4):
    walks = enumerate_visitable_walks(k4, 0, 3)
    nodes = {w.nodes for w in walks}
    assert (0, 2, 0, 2, 3) not in nodes


def test_two_node_graph_single_walk():
    g = Graph(2, [(0, 1)])
    m = build_cost_matrix([4.0], g)
    walks = enumerate_visitable_walks(m, 0, 1)
    assert len(walks) == 1
    assert walks[0].nodes == (0, 1)
    assert walks[0].highest_intermediate is None
    probs = maxent_distribution(walks, 1.0)
    assert probs[(0, 1)] == 1.0


def test_maxent_direct_probability(k4):
    walks = enumerate_visitable_walks(k4, 0, 3)
    probs = maxent_distribution(walks, 1.0)
    assert probs[(0, 3)] == pytest.approx(0.2136, abs=1e-4)
    assert probs[(0, 1, 0, 3)] == pytest.approx(0.0289, abs=1e-4)


def test_maxent_equal_costs_split_evenly():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    m = build_cost_matrix([1.0, 1.0, 2.0], g)
    walks = enumerate_visitable_walks(m, 0, 2)
    probs = maxent_distribution(walks, 3.0)
    assert probs[(0, 2)] == pytest.approx(probs[(0, 1, 2)], rel=1e-12)


def test_walks_decompose_uniquely_by_highest_node(k4):
    walks = enumerate_visitable_walks(k4, 0, 3)
    assert len({w.nodes for w in walks}) == len(walks)
    for w in walks:
        if len(w.nodes) > 2:
            assert w.highest_intermediate == max(w.nodes[1:-1])
            assert w.nodes.count(w.highest_intermediate) == 1


def test_enumeration_guards():
    with pytest.raises(ValidationError):
        enumerate_visitable_walks(np.full((3, 3), np.inf), 1, 1)
    big = complete_graph(11)
    m = build_cost_matrix(np.ones(big.num_edges), big)
    with pytest.raises(EnumerationLimitError):
        enumerate_visitable_walks(m, 0, 1)
    dense = complete_graph(8)
    m8 = build_cost_matrix(np.ones(dense.num_edges), dense)
    with pytest.raises(EnumerationLimitError):
        enumerate_visitable_walks(m8, 0, 7)


def test_fixture_consistency_checks(k4):
    assert verify_distance_consistency(k4, 1.0) <= 1e-9
    assert verify_shortcut_consistency(k4, 1.0) <= 1e-9


def test_two_node_consistency_is_exact():
    g = Graph(2, [(0, 1)])
    m = build_cost_matrix([4.0], g)
    assert verify_distance_consistency(m, 1.0) == 0.0


def test_distance_consistency_direct_formula(k4):
    walks = enumerate_visitable_walks(k4, 0, 3)
    _, dist, _ = datasp_forward_efficient(k4, 1.0)
    assert dist[0, 3] == pytest.approx(softmin_value([w.cost for w in walks], 1.0), rel=1e-9)


def test_sampler_support_equals_walk_space(k4, rng):
    from datasp.inference import monte_carlo_path_distribution

    est = monte_carlo_path_distribution(sweep(k4, 1.0), 0, 3, 60000, rng)
    enumerated = {w.nodes for w in enumerate_visitable_walks(k4, 0, 3)}
    sampled = set(est.frequencies)
    assert sampled <= enumerated
    # everything but the 7e-5 tail walk should show up at this sample size
    missing = enumerated - sampled
    assert all(w == (0, 1, 0, 2, 0, 1, 0, 3) for w in missing)


def test_sampler_total_variation_small_graphs(rng):
    for size in (4, 5):
        graph, costs = random_connected_graph(size, rng, extra_edges=2)
        m = build_cost_matrix(costs, graph)
        tv = sampler_total_variation(sweep(m, 1.0), 0, size - 1, 40000,
                                     np.random.default_rng(7))
        assert tv <= 0.015


def test_gradcheck_constant_function():
    x = np.array([1.0, 2.0])
    assert finite_difference_gradcheck(lambda _: 3.5, np.zeros(2), x) == 0.0


def test_gradcheck_softmin(rng):
    v = rng.uniform(0.5, 3.0, size=5)
    from datasp.smoothing import softmin_weights

    grad = softmin_weights(v, 2.0)
    assert finite_difference_gradcheck(lambda x: softmin_value(x, 2.0), grad, v) <= 1e-6


def test_gradcheck_skips_infinite_coordinates(k4):
    def loss(matrix):
        _, d, _ = datasp_forward_efficient(matrix, 1.0)
        return float(d[0, 3])

    _, dist, tape = datasp_forward_efficient(k4, 1.0)
    from datasp.engine import datasp_backward

    gm = np.zeros((4, 4))
    gm[0, 3] = 1.0
    grad = datasp_backward(tape, np.zeros((4, 4, 4)), gm)
    assert finite_difference_gradcheck(loss, grad, k4, step=1e-5) <= 1e-6
