import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import k4_cost_matrix, mostly, random_connected_graph
from reference import (
    classical_floyd_warshall,
    finite_difference_gradcheck,
    pair_softmin,
    reference_graph_from_json_dict,
)
from datasp.cli import INPUT_ERRORS
from datasp.errors import ValidationError
from datasp.graph import (
    Graph,
    build_cost_matrix,
    complete_graph,
    dijkstra,
    distances_to,
    draw_kept_nodes,
    graph_from_json_dict,
    kept_node_map,
    load_graph_json,
    path_cost,
    sample_subgraph,
)
from datasp.smoothing import INF, Workspace, pivot, pivot_adjoint


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


# Values that a per-value check tells apart from a node id or a finite
# float64: bools, 1.0, strings, nested lists, ints beyond int64 or float64,
# and (for numbers) NaN, the infinities and an int that exceeds the float64
# maximum but rounds down to it.
_NOT_IDS = [True, False, 1.0, "1", [1], None]
_WIDE_IDS = [2 ** 63 - 1, 2 ** 63, 2 ** 70, -2 ** 63 - 1]
_NOT_REALS = [math.nan, math.inf, -math.inf, 10 ** 400, 2 ** 1024 - 2 ** 971 + 5, True, "1",
              [1.0], None]
_reals = st.floats(0, 10) | st.integers(0, 3) | st.just(1.7976931348623157e308)


@st.composite
def _graph_documents(draw):
    """Well-formed documents (whose random edges may repeat or list both
    directions), half of them with one value spoilt."""
    n = draw(st.integers(2, 6))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    edges = draw(st.lists(pair, max_size=8, unique_by=tuple) | st.lists(pair, max_size=6))
    spoil = draw(st.sampled_from(["none"] * 7 + ["num_nodes", "id", "id", "pair", "edges",
                                                 "directed", "prior", "prior", "positions",
                                                 "loop", "repeat"]))
    if spoil in ("loop", "repeat") and edges:
        u, v = draw(st.sampled_from(edges))
        edge = [u, u] if spoil == "loop" else draw(st.sampled_from([[u, v], [v, u]]))
        edges.insert(draw(st.integers(0, len(edges))), edge)
    doc = {"num_nodes": n, "edges": edges}
    if draw(st.booleans()):
        doc["directed"] = draw(st.booleans())
    if draw(st.booleans()):
        doc["prior_costs"] = draw(st.lists(_reals, min_size=len(edges), max_size=len(edges)))
    if draw(st.booleans()):
        doc["node_positions"] = draw(st.lists(st.lists(st.floats(-10, 10), min_size=2,
                                                       max_size=2), min_size=n, max_size=n))
    if spoil == "num_nodes":
        doc["num_nodes"] = draw(st.sampled_from([0, -1, 1, n - 1, 2 ** 63 - 1, 2 ** 70]
                                                + _NOT_IDS))
    elif spoil == "id" and edges:
        row = draw(st.sampled_from(edges))
        row[draw(st.integers(0, 1))] = draw(st.sampled_from([-1, n] + _WIDE_IDS + _NOT_IDS))
    elif spoil == "pair" and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = draw(st.sampled_from(
            [[0], [0, 1, 2], 0, "01", None, (0, 1)]))
    elif spoil == "edges":
        doc["edges"] = draw(st.sampled_from([None, "edges", 3, {"0": 1}]))
    elif spoil == "directed":
        doc["directed"] = draw(st.sampled_from([0, 1, None, "true"]))
    elif spoil in ("prior", "positions"):
        key = "prior_costs" if spoil == "prior" else "node_positions"
        values = doc.get(key)
        if values and draw(st.booleans()):
            row = draw(st.integers(0, len(values) - 1))
            bad = draw(st.sampled_from(_NOT_REALS))
            if key == "prior_costs":
                values[row] = bad
            else:
                values[row][draw(st.integers(0, 1))] = bad
        else:
            doc[key] = draw(st.sampled_from([None, 1.0, [], [[0.0, 0.0]], [1.0] * 3]))
    return doc


def _read(reader, doc):
    """What reader gives for doc: its exception's type and message, or its
    edges, edge array and the bytes of its priors and positions."""
    try:
        result = reader(doc)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    if isinstance(result[0], Graph):
        graph, prior, positions = result
        result = graph.edges, graph.edge_array(), prior, positions
    edges, edge_array, prior, positions = result
    return (edges, edge_array.dtype, edge_array.shape, edge_array.tobytes(),
            *[None if a is None else (a.dtype, a.shape, a.tobytes()) for a in (prior, positions)])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_graph_documents())
def test_graph_documents_read_as_the_per_edge_reference_reads_them(doc):
    got = _read(graph_from_json_dict, doc)
    assert got == _read(reference_graph_from_json_dict, doc)
    if isinstance(got[0], type):
        return
    # The same graph from a list of pairs and from an (E, 2) array.
    graph, _, _ = graph_from_json_dict(doc)
    n = graph.num_nodes
    from_list, from_array = Graph(n, list(graph.edges)), Graph(n, graph.edge_array())
    for u, v in itertools.product(range(-1, min(n, 6) + 1), repeat=2):
        listed = (u, v) in set(graph.edges)
        assert from_list.has_edge(u, v) == from_array.has_edge(u, v) == listed
        assert graph.has_edge(np.int64(u), np.int64(v)) == listed
    for i, (u, v) in enumerate(graph.edges):
        for path in ([u, v], np.array([u, v]), (u, v)):
            assert from_list.path_edges(path) == from_array.path_edges(path) == [i]
    bad_path = [0, 0]
    for g in (from_list, from_array):
        with pytest.raises(ValidationError, match=r"path step \(0, 0\) is not an edge"):
            g.path_edges(bad_path)


def test_graph_documents_report_wide_values_like_any_bad_value():
    # Ids beyond int64 and priors beyond float64 give the per-edge messages,
    # never an OverflowError.
    cases = [
        ({"num_nodes": 3, "edges": [[0, 1], [0, 2 ** 70]]},
         "edge (0, 1180591620717411303424) out of range for 3 nodes"),
        ({"num_nodes": 3, "edges": [[2 ** 70, 2 ** 70], [0, 5]]},
         "self-loop edge (1180591620717411303424, 1180591620717411303424) is not allowed"),
        ({"num_nodes": 3, "edges": [[0, 1], [0, 1], [-2 ** 63 - 1, 1]]}, "duplicate edge (0, 1)"),
        ({"num_nodes": 3, "edges": [[0, 1]], "prior_costs": [10 ** 400]},
         "prior_costs must be a list of finite numbers"),
        ({"num_nodes": 3, "edges": [[0, 1]], "prior_costs": [math.nan]},
         "prior_costs must be a list of finite numbers"),
        ({"num_nodes": 3, "edges": [[0, 1]], "prior_costs": [2 ** 1024 - 2 ** 971 + 5]},
         "prior_costs must be a list of finite numbers"),
    ]
    for doc, message in cases:
        with pytest.raises(ValidationError) as info:
            graph_from_json_dict(doc)
        assert str(info.value) == message


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
    path, cost = dijkstra(k4[None], [(0, 3)])[0]
    assert cost == 3.0
    assert path == [0, 1, 2, 3]


def test_dijkstra_source_equals_target(k4):
    assert dijkstra(k4[None], [(2, 2)]) == [([2], 0.0)]


def test_dijkstra_unreachable():
    g = Graph(3, [(0, 1)])
    m = build_cost_matrix([1.0], g)
    path, cost = dijkstra(m[None], [(0, 2)])[0]
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
                path, cost = dijkstra(m[None], [(i, j)])[0]
                assert cost == pytest.approx(dist[i, j], rel=1e-12)
                assert path_cost(m, path) == pytest.approx(cost, rel=1e-12)


def _heap_distances(m, source):
    """Reference: heap Dijkstra with stale entries, distances out of source."""
    n = m.shape[0]
    dist = np.full(n, INF)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in range(n):
            w = m[u, v]
            if math.isfinite(w) and d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def _heap_dijkstra(m, source, target):
    """Reference: lexicographic tie-break walk over the heap's distances."""
    if source == target:
        return [source], 0.0
    dist_to = _heap_distances(m.T, target)
    if not math.isfinite(dist_to[source]):
        return None, INF
    path = [source]
    while path[-1] != target:
        u = path[-1]
        tol = 1e-12 * max(1.0, abs(dist_to[u]))
        path.append(next(v for v in range(m.shape[0])
                         if math.isfinite(m[u, v]) and m[u, v] + dist_to[v] <= dist_to[u] + tol))
    return path, float(dist_to[source])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 12).flatmap(
    lambda n: hnp.arrays(np.float64, (n, n), elements=st.sampled_from([INF, 1.0, 2.0, 3.0]))))
def test_dijkstra_matches_heap_reference(m):
    # Integer costs tie often, so the lexicographic tie-break is exercised.
    # Every (i, j) of the matrix and of its transpose, i == j and unreachable
    # targets included, is one row of a single block, so a row that read
    # another row's matrix or target would show.
    np.fill_diagonal(m, INF)
    n = m.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    cases = [(mat, i, j) for mat in (m, m.T) for i, j in pairs]
    block = np.stack([mat for mat, _, _ in cases])
    dist = distances_to(block, [j for _, _, j in cases])
    found = dijkstra(block, [(i, j) for _, i, j in cases])
    for row, (mat, i, j) in enumerate(cases):
        assert np.array_equal(dist[row], _heap_distances(mat.T, j))
        assert found[row] == _heap_dijkstra(mat, i, j)


def test_dijkstra_block_takes_one_pair_per_matrix(k4):
    block = np.stack([k4, k4])
    for ends in ([(0, 3)], [(0, 3), (1, 2), (2, 1)], [0, 3]):
        with pytest.raises(ValidationError):
            dijkstra(block, ends)
    with pytest.raises(ValidationError):
        dijkstra(k4, [(0, 3)])
    with pytest.raises(ValidationError):
        dijkstra(block, [(0, 3), (1, 4)])


def test_dijkstra_rejects_nonpositive_costs():
    m = np.array([[INF, -0.5], [INF, INF]])
    with pytest.raises(ValidationError):
        dijkstra(m[None], [(0, 1)])


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
    comp = sample_subgraph(g, m, [0, 2], beta=100.0)
    # new (0, 2) entry ~ min(5, 1+2) = 3 in the hard limit
    assert comp.matrix[0, 1] == pytest.approx(3.0, abs=1e-2)
    assert list(kept_node_map(3, comp.kept)) == [0, -1, 1]
    assert comp.kept == [0, 2] and comp.removed == [1]


def test_exclude_isolated_node_just_drops_it(k4):
    g = Graph(3, [(0, 1)])
    m = build_cost_matrix([4.0], g)
    comp = sample_subgraph(g, m, [0, 1], beta=1.0)
    assert comp.matrix.shape == (2, 2)
    assert comp.matrix[0, 1] == 4.0


def test_exclude_tied_branches_undershoot():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    m = build_cost_matrix([1.0, 2.0, 3.0], g)
    comp = sample_subgraph(g, m, [0, 2], beta=1.0)
    assert comp.matrix[0, 1] == pytest.approx(3.0 - math.log(2.0), abs=1e-12)


def test_exclude_out_of_range(k4):
    for kept in ([0, 1, 7], [-1, 0, 1]):
        with pytest.raises(ValidationError):
            sample_subgraph(complete_graph(4), k4, kept, beta=1.0)


def test_exclusion_is_bit_identical_to_shrinking_reference():
    nonpositive = False
    for seed, (low, high) in enumerate([(0.5, 2.0), (0.5, 40.0), (0.1, 0.6)]):
        rng = np.random.default_rng(seed)
        graph, costs = random_connected_graph(14, rng, extra_edges=7, low=low, high=high)
        m = build_cost_matrix(costs, graph)
        removed = [int(x) for x in rng.choice(14, size=9, replace=False)]
        kept = [x for x in range(14) if x not in removed]
        m_before = m.copy()
        for beta in (1.0, 30.0):
            comp = sample_subgraph(graph, m, kept, beta)
            assert np.array_equal(m, m_before)
            assert np.array_equal(comp.matrix, _shrinking_exclusion(m, removed, beta))
            nonpositive |= bool((comp.matrix[np.isfinite(comp.matrix)] <= 0).any())
    assert nonpositive


def _knockout_exclusion(m, removed, beta, upstream):
    """Reference: pivot each removed node, in ascending order, on the full
    matrix, then set its row and column to inf.  Returns the kept block and
    the gradient of <upstream, kept block> w.r.t. m."""
    kept = [x for x in range(m.shape[0]) if x not in removed]
    cur, steps = m.copy(), []
    work = Workspace(m.size)
    for k in removed:
        steps.append(pivot(cur, k, beta, work, weights=True))
        cur[k, :] = INF
        cur[:, k] = INF
    grad = np.zeros(m.shape)
    grad[np.ix_(kept, kept)] = upstream
    for k, step in zip(reversed(removed), reversed(steps)):
        pivot_adjoint(grad, k, step, work)
    return cur[np.ix_(kept, kept)], grad


@settings(derandomize=True, deadline=None, max_examples=60)
@given(num_nodes=st.integers(2, 14), seed=st.integers(0, 2**32 - 1),
       costs=st.sampled_from([(0.5, 2.0), (0.5, 40.0), (0.1, 0.6)]),
       beta=st.sampled_from([1.0, 30.0]), data=st.data())
def test_exclusion_matches_both_references(num_nodes, seed, costs, beta, data):
    rng = np.random.default_rng(seed)
    graph, edge_costs = random_connected_graph(num_nodes, rng, low=costs[0], high=costs[1])
    m = build_cost_matrix(edge_costs, graph)
    removed = sorted(data.draw(st.sets(st.integers(0, num_nodes - 1), min_size=1,
                                       max_size=num_nodes - 1)))
    kept = [x for x in range(num_nodes) if x not in removed]
    comp = sample_subgraph(graph, m, kept, beta)
    assert np.array_equal(comp.matrix, _shrinking_exclusion(m, removed, beta))

    upstream = np.where(np.isfinite(comp.matrix),
                        rng.standard_normal(comp.matrix.shape), 0.0)
    ref_matrix, ref_grad = _knockout_exclusion(m, removed, beta, upstream)
    assert np.array_equal(comp.matrix, ref_matrix)
    # Same terms, summed in another order.
    error = np.abs(comp.backward(upstream) - ref_grad).max(initial=0.0)
    assert error <= 1e-12 * np.abs(ref_grad).max(initial=0.0)


def test_exclusion_steps_hold_no_removed_column(rng):
    graph, costs = random_connected_graph(40, rng, extra_edges=30)
    m = build_cost_matrix(costs, graph)
    removed = [int(x) for x in rng.choice(40, size=32, replace=False)]
    comp = sample_subgraph(graph, m, [x for x in range(40) if x not in removed], beta=30.0)
    assert len(comp.steps) == 32
    for t, (rows, w_via) in enumerate(comp.steps):
        # step t sees removed[t:] + kept, one column per node
        assert w_via.shape == (rows.size, 40 - t)


def test_exclusion_preserves_hard_distances(rng):
    # large beta: distances between kept nodes survive any exclusion sequence
    for trial in range(3):
        graph, costs = random_connected_graph(9, rng)
        m = build_cost_matrix(costs, graph)
        dist_full = classical_floyd_warshall(m)
        comp = sample_subgraph(graph, m, [0, 1, 2, 4, 5, 6, 7], beta=200.0)
        dist_sub = classical_floyd_warshall(comp.matrix)
        for a, u in enumerate(comp.kept):
            for b, v in enumerate(comp.kept):
                if u == v:
                    continue
                assert dist_sub[a, b] == pytest.approx(dist_full[u, v], abs=1e-4)


def test_exclusion_backward_matches_finite_differences(rng):
    graph, costs = random_connected_graph(8, rng)
    m = build_cost_matrix(costs, graph)
    # At beta = 30 some gradients are ~1e-8, where round-off in a 1e-6
    # central difference is already a relative error of 1e-3.
    for beta, step, tol in ((1.0, 1e-6, 1e-6), (30.0, 1e-4, 1e-4)):
        for kept in ([0, 1, 3, 6, 7], [1, 2, 4, 5]):
            size = len(kept)
            upstream = rng.standard_normal((size, size))
            comp = sample_subgraph(graph, m, kept, beta)
            grad = comp.backward(np.where(np.isfinite(comp.matrix), upstream, 0.0))

            def loss(matrix):
                out = sample_subgraph(graph, matrix, kept, beta).matrix
                return float(np.where(np.isfinite(out), out * upstream, 0.0).sum())

            assert finite_difference_gradcheck(loss, grad, m, step=step) <= tol


# --- subgraph sampling --------------------------------------------------------

def test_sample_subgraph_keep_all_is_identity(k4):
    g = complete_graph(4)
    comp = sample_subgraph(g, k4, draw_kept_nodes(g, 4, np.ones(4), rng_seed=0), beta=1.0)
    assert comp.kept == [0, 1, 2, 3]
    assert np.array_equal(comp.matrix, k4)
    assert not comp.steps


def test_sample_subgraph_drop_one_preserves_hard_distances(k4):
    g = complete_graph(4)
    dist_full = classical_floyd_warshall(k4)
    found = False
    for seed in range(30):
        comp = sample_subgraph(g, k4, draw_kept_nodes(g, 3, np.ones(4), rng_seed=seed),
                               beta=100.0)
        if comp.removed == [2]:
            found = True
            dist_sub = classical_floyd_warshall(comp.matrix)
            node_map = kept_node_map(4, comp.kept)
            a, b = node_map[1], node_map[3]
            # exact branch ties leave a ln(2)/beta undershoot
            assert dist_sub[a, b] == pytest.approx(dist_full[1, 3], abs=0.01)
    assert found


def test_sample_subgraph_deterministic(k4, rng):
    graph, costs = random_connected_graph(12, rng)
    m = build_cost_matrix(costs, graph)
    freqs = rng.uniform(0, 5, size=12)
    one = sample_subgraph(graph, m, draw_kept_nodes(graph, 6, freqs, rng_seed=42), beta=1.0)
    two = sample_subgraph(graph, m, draw_kept_nodes(graph, 6, freqs, rng_seed=42), beta=1.0)
    assert one.kept == two.kept
    assert np.array_equal(one.matrix, two.matrix)


def test_sample_subgraph_grows_connected_half(rng):
    graph, costs = random_connected_graph(12, rng)
    m = build_cost_matrix(costs, graph)
    comp = sample_subgraph(graph, m, draw_kept_nodes(graph, 8, np.ones(12), rng_seed=3),
                           beta=1.0)
    assert len(comp.kept) == 8
    assert len(comp.removed) == 4
    assert comp.matrix.shape == (8, 8)


def test_draw_kept_nodes_reseeds_when_a_component_runs_out():
    # The grown half is 3 nodes and every component has 2, so each draw
    # exhausts its first component's frontier and reseeds.
    g = Graph(6, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)])
    draws = [draw_kept_nodes(g, 5, np.arange(1.0, 7.0), seed) for seed in range(6)]
    assert draws == [[0, 1, 3, 4, 5], [0, 2, 3, 4, 5], [0, 2, 3, 4, 5],
                     [0, 1, 2, 3, 5], [0, 2, 3, 4, 5], [1, 2, 3, 4, 5]]


def test_sample_subgraph_validates_keep_count(k4):
    g = complete_graph(4)
    with pytest.raises(ValidationError):
        draw_kept_nodes(g, 1, np.ones(4), rng_seed=0)
    with pytest.raises(ValidationError):
        draw_kept_nodes(g, 5, np.ones(4), rng_seed=0)
    with pytest.raises(ValidationError):
        sample_subgraph(g, k4, [0, 4], beta=1.0)


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


_graph_docs = mostly(st.fixed_dictionaries({
    "num_nodes": mostly(st.integers(-1, 5)),
    "edges": mostly(st.lists(mostly(st.lists(st.integers(-1, 5), min_size=2, max_size=2)),
                             max_size=5)),
}, optional={
    "directed": mostly(st.booleans()),
    "prior_costs": mostly(st.lists(st.floats(-1, 3), max_size=5)),
    "node_positions": mostly(st.lists(st.lists(st.floats(-1e308, 1e308), min_size=2,
                                               max_size=2), max_size=5)),
}))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_graph_docs, st.none() | st.binary(max_size=24))
def test_load_graph_json_raises_only_input_errors(doc, raw):
    import json
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        if raw is None:
            path.write_text(json.dumps(doc))
        else:
            path.write_bytes(raw)
        try:
            graph, prior, _ = load_graph_json(path)
        except INPUT_ERRORS:
            return
    assert prior is None or (prior.shape == (graph.num_edges,) and np.isfinite(prior).all())
