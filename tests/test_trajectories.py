import numpy as np
import pytest

from datasp.errors import ValidationError
from datasp.graph import Graph, complete_graph
from datasp.trajectories import (
    ContextSample,
    Dataset,
    TrajectoryRecord,
    apply_node_exclusion_to_path,
    build_frequency_tensor,
    highest_intermediate_decomposition,
    node_visit_frequencies,
    similar_indices,
)


def test_decomposition_four_node_chain():
    triples = set(highest_intermediate_decomposition([0, 1, 2, 3]))
    assert triples == {(0, 3, 2), (0, 2, 1), (1, 3, 2), (0, 1, 0), (1, 2, 1), (2, 3, 2)}


def test_decomposition_direct_edge():
    assert highest_intermediate_decomposition([5, 7]) == [(5, 7, 5)]


def test_decomposition_single_intermediate():
    assert set(highest_intermediate_decomposition([2, 9, 4])) == {
        (2, 4, 9), (2, 9, 2), (9, 4, 9)}


def test_decomposition_rejects_cycles():
    with pytest.raises(ValidationError):
        highest_intermediate_decomposition([0, 1, 0, 3])


def test_decomposition_full_pair_names_global_max():
    rng = np.random.default_rng(3)
    for _ in range(20):
        path = list(rng.permutation(10)[: rng.integers(2, 9)])
        triples = highest_intermediate_decomposition(path)
        full = [t for t in triples if (t[0], t[1]) == (path[0], path[-1])]
        assert len(full) == 1
        expected = path[0] if len(path) == 2 else max(path[1:-1])
        assert full[0][2] == expected


def test_frequency_tensor_single_trajectory():
    freq = build_frequency_tensor([(0, 1, 2, 3)])
    assert freq.row(0, 3) == {2: 1.0}
    assert freq.row(0, 2) == {1: 1.0}
    assert len(freq.pairs) == 6


def test_frequency_tensor_two_routes_split():
    freq = build_frequency_tensor([(0, 1, 3), (0, 2, 3)])
    assert freq.row(0, 3) == pytest.approx({1: 0.5, 2: 0.5})


def test_frequency_tensor_normalization_is_count_invariant():
    one = build_frequency_tensor([(0, 1, 2, 3)])
    many = build_frequency_tensor([(0, 1, 2, 3)] * 30)
    assert one.frequencies == many.frequencies


def test_frequency_tensor_rows_sum_to_one():
    rng = np.random.default_rng(1)
    paths = []
    for _ in range(15):
        paths.append(tuple(rng.permutation(8)[: rng.integers(2, 8)]))
    freq = build_frequency_tensor(paths)
    for row in freq.frequencies.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_frequency_tensor_empty_rejected():
    with pytest.raises(ValidationError):
        build_frequency_tensor([])


def test_exclusion_rewrite_basic():
    node_map = np.array([0, -1, 1, 2, -1, 3, 4, 5])
    assert apply_node_exclusion_to_path((0, 4, 7), {1, 4}, node_map) == (0, 5)


def test_exclusion_rewrite_dropped():
    node_map = np.full(5, -1)
    assert apply_node_exclusion_to_path((3, 4), {3, 4}, node_map) is None


def test_exclusion_rewrite_noop():
    node_map = np.arange(6)
    assert apply_node_exclusion_to_path((1, 2, 5), set(), node_map) == (1, 2, 5)


def test_exclusion_commutes_with_decomposition():
    # rewriting then decomposing == decomposing then rewriting, for pairs
    # whose endpoints survive
    path = (0, 4, 2, 6, 1, 5)
    removed = {4, 1}
    keep = [x for x in range(7) if x not in removed]
    node_map = np.full(7, -1)
    for new, old in enumerate(keep):
        node_map[old] = new
    rewritten = apply_node_exclusion_to_path(path, removed, node_map)
    direct = set(highest_intermediate_decomposition(rewritten))
    projected = set()
    for i, j, k in highest_intermediate_decomposition(path):
        if node_map[i] < 0 or node_map[j] < 0:
            continue
        sub = path[path.index(i): path.index(j) + 1]
        interior = [x for x in sub[1:-1] if node_map[x] >= 0]
        new_k = node_map[i] if not interior else max(node_map[x] for x in interior)
        projected.add((node_map[i], node_map[j], int(new_k)))
    assert direct == projected


def _toy_dataset(contexts, paths=None, discrete=None):
    graph = complete_graph(4)
    records = []
    for idx, ctx in enumerate(contexts):
        path = (0, 1) if paths is None else paths[idx]
        disc = None if discrete is None else discrete[idx]
        records.append(TrajectoryRecord(context=ContextSample(ctx, discrete=disc),
                                        path=path))
    return Dataset(graph=graph, records=records)


def test_similarity_fraction_one_returns_all():
    ds = _toy_dataset([[0.0], [1.0], [2.0]])
    assert similar_indices(ds, 0, 1.0) == [0, 1, 2]


def test_similarity_identical_context_is_nearest():
    ds = _toy_dataset([[5.0], [5.0], [50.0]], paths=[(0, 1), (1, 2), (2, 3)])
    picked = similar_indices(ds, 0, 0.5)
    assert picked == [0, 1]


def test_similarity_two_clusters():
    ds = _toy_dataset([[0.0], [0.1], [-0.1], [10.0], [10.1], [9.9]])
    picked = similar_indices(ds, 0, 0.5)
    assert set(picked) == {0, 1, 2}


def test_similarity_uses_hamming_for_discrete():
    ds = _toy_dataset([[0.0], [0.0], [0.0]],
                      discrete=[[1, 1], [1, 0], [1, 1]])
    picked = similar_indices(ds, 0, 0.5)
    assert set(picked) == {0, 2}


def test_similarity_rejects_bad_fraction():
    ds = _toy_dataset([[0.0]])
    with pytest.raises(ValidationError):
        similar_indices(ds, 0, 0.0)


def test_dataset_validates_paths():
    graph = Graph(3, [(0, 1)])
    with pytest.raises(ValidationError):
        Dataset(graph=graph, records=[
            TrajectoryRecord(context=ContextSample([0.0]), path=(0, 2))])


def test_node_visit_frequencies():
    ds = _toy_dataset([[0.0], [1.0]], paths=[(0, 1, 2), (2, 3)])
    freqs = node_visit_frequencies(ds)
    assert list(freqs) == [1.0, 1.0, 2.0, 1.0]
