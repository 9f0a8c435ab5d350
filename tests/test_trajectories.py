import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import mostly
from datasp.cli import INPUT_ERRORS
from datasp.errors import ValidationError
from datasp.graph import Graph, complete_graph, graph_to_json_dict
from datasp.synthetic import GeneratorConfig, generate_synthetic_dataset
from datasp.trajectories import (
    Dataset,
    apply_node_exclusion_to_path,
    build_frequency_tensor,
    highest_intermediate_decomposition,
    load_dataset,
    node_visit_frequencies,
    similar_indices,
    write_trajectories_jsonl,
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
    assert freq.frequencies[(0, 3)] == {2: 1.0}
    assert freq.frequencies[(0, 2)] == {1: 1.0}
    assert len(freq.frequencies) == 6


def test_frequency_tensor_two_routes_split():
    freq = build_frequency_tensor([(0, 1, 3), (0, 2, 3)])
    assert freq.frequencies[(0, 3)] == pytest.approx({1: 0.5, 2: 0.5})


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
    assert apply_node_exclusion_to_path((0, 4, 7), node_map) == (0, 5)


def test_exclusion_rewrite_dropped():
    node_map = np.full(5, -1)
    assert apply_node_exclusion_to_path((3, 4), node_map) is None


def test_exclusion_rewrite_noop():
    node_map = np.arange(6)
    assert apply_node_exclusion_to_path((1, 2, 5), node_map) == (1, 2, 5)


def test_exclusion_commutes_with_decomposition():
    # rewriting then decomposing == decomposing then rewriting, for pairs
    # whose endpoints survive
    path = (0, 4, 2, 6, 1, 5)
    removed = {4, 1}
    keep = [x for x in range(7) if x not in removed]
    node_map = np.full(7, -1)
    for new, old in enumerate(keep):
        node_map[old] = new
    rewritten = apply_node_exclusion_to_path(path, node_map)
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
    return Dataset(graph=complete_graph(4),
                   paths=[(0, 1)] * len(contexts) if paths is None else paths,
                   features=contexts, discrete=discrete)


def _write_toy_files(tmp_path, docs, manifest=None):
    """Manifest path of a dataset on the complete 4-node graph whose
    trajectories file holds `docs`, one JSON line each."""
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_json_dict(complete_graph(4))))
    (tmp_path / "trajectories.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest if manifest is not None else
                               {"graph": "graph.json", "trajectories": "trajectories.jsonl"}))
    return str(path)


def test_similarity_fraction_one_returns_all():
    ds = _toy_dataset([[0.0], [1.0], [2.0]])
    assert similar_indices(ds, 0, 1.0, [0, 1, 2]) == [0, 1, 2]


def test_similarity_identical_context_is_nearest():
    ds = _toy_dataset([[5.0], [5.0], [50.0]], paths=[(0, 1), (1, 2), (2, 3)])
    picked = similar_indices(ds, 0, 0.5, [0, 1, 2])
    assert picked == [0, 1]


def test_similarity_two_clusters():
    ds = _toy_dataset([[0.0], [0.1], [-0.1], [10.0], [10.1], [9.9]])
    picked = similar_indices(ds, 0, 0.5, list(range(6)))
    assert set(picked) == {0, 1, 2}


def test_similarity_uses_hamming_for_discrete():
    ds = _toy_dataset([[0.0], [0.0], [0.0]],
                      discrete=[[1, 1], [1, 0], [1, 1]])
    picked = similar_indices(ds, 0, 0.5, [0, 1, 2])
    assert set(picked) == {0, 2}


def test_similarity_exact_tie_goes_by_candidate_order():
    # Records 1 and 3 sit at distance 5 from the anchor (a 3-4-5 triangle).
    ds = _toy_dataset([[0.0, 0.0], [3.0, 4.0], [9.0, 9.0], [4.0, 3.0], [-3.0, -4.0]])
    assert similar_indices(ds, 0, 0.5, [0, 3, 2, 1]) == [0, 3]
    assert similar_indices(ds, 0, 0.5, [0, 1, 2, 3]) == [0, 1]
    assert similar_indices(ds, 0, 1.0, [2, 4, 3, 1, 0]) == [0, 4, 3, 1, 2]


def _reference_distances(features, discrete, anchor, candidates):
    """The per-record loop that similar_indices replaced: one np.linalg.norm
    per candidate, plus the Hamming distance of the discrete vectors."""
    dists = np.zeros(len(candidates))
    for pos, idx in enumerate(candidates):
        d = float(np.linalg.norm(features[anchor] - features[idx]))
        if discrete is not None:
            d += float((discrete[anchor] != discrete[idx]).sum())
        dists[pos] = d
    return dists


# Values from a short list make exact ties common; the wide range makes
# rounding matter.
_context_values = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.1, 3.0]),
                            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.tuples(st.integers(1, 30), st.integers(1, 12), st.integers(0, 3)).flatmap(
    lambda dims: st.tuples(
        hnp.arrays(np.float64, dims[:2], elements=_context_values),
        hnp.arrays(np.int64, (dims[0], dims[2]), elements=st.integers(0, 2))
        if dims[2] else st.none(),
        st.integers(0, dims[0] - 1),
        st.permutations(range(dims[0])),
        st.sampled_from([0.05, 0.3, 1.0]))))
def test_similarity_matches_per_record_norm_loop(case):
    features, discrete, anchor, candidates, fraction = case
    ds = Dataset(graph=complete_graph(2), paths=[(0, 1)] * len(features), features=features,
                 discrete=discrete)
    expected = _reference_distances(features, discrete, anchor, candidates)
    # The distance similar_indices computes, bit for bit.
    diff = ds.features[candidates] - ds.features[anchor]
    dists = np.sqrt(np.vecdot(diff, diff))
    if discrete is not None:
        dists += (ds.discrete[candidates] != ds.discrete[anchor]).sum(axis=1)
    assert np.array_equal(dists, expected)
    count = int(np.ceil(fraction * len(candidates)))
    order = np.argsort(expected, kind="stable")[:count]
    assert similar_indices(ds, anchor, fraction, candidates) == [candidates[i] for i in order]


@pytest.mark.parametrize("dim", [8, 12, 16])
def test_similarity_orders_rounding_level_near_ties_like_the_norm_loop(dim):
    # Each record differs from the anchor by a permutation of one vector:
    # equal distances in exact arithmetic, so their order rests on how each
    # sum of squares rounds.  A sum in another order than np.linalg.norm's
    # reorders them.
    rng = np.random.default_rng(dim)
    anchor, delta = rng.uniform(-10, 10, dim), rng.uniform(-1e3, 1e3, dim)
    contexts = [anchor] + [anchor + rng.permutation(delta) for _ in range(60)]
    ds = _toy_dataset(contexts)
    candidates = list(range(len(contexts)))
    expected = _reference_distances(ds.features, ds.discrete, 0, candidates)
    assert len(set(expected)) > 2
    assert similar_indices(ds, 0, 1.0, candidates) == [int(i) for i in np.argsort(expected,
                                                                                kind="stable")]


def test_dataset_stores_contexts_as_matrices():
    ds = _toy_dataset([[0.0, 1.0], [2.0, 3.0]], discrete=[[1, 2, 3], [4, 5, 6]])
    assert ds.features.shape == (2, 2) and ds.features.dtype == np.float64
    assert ds.discrete.shape == (2, 3) and ds.discrete.dtype == np.int64
    assert _toy_dataset([[0.0], [1.0]]).discrete is None
    empty = Dataset(graph=complete_graph(4), paths=[], features=np.zeros((0, 2)))
    assert empty.features.shape[0] == 0 and empty.discrete is None


@pytest.mark.parametrize("contexts, discrete", [
    ([[0.0, 1.0], [2.0]], None),
    ([[0.0], [1.0]], [[1, 2], [1, 2, 3]]),
    ([[0.0], [1.0]], [[1, 2], None]),
    ([[0.0], [1.0]], [[[1, 2]], [[1, 2]]]),
], ids=["feature-lengths-differ", "discrete-lengths-differ", "discrete-on-some-records",
        "discrete-not-flat"])
def test_dataset_rejects_inconsistent_contexts(contexts, discrete, tmp_path):
    docs = [{"context": ctx, "path": [0, 1]} for ctx in contexts]
    for doc, disc in zip(docs, discrete or []):
        if disc is not None:
            doc["discrete"] = disc
    with pytest.raises(ValidationError):
        load_dataset(_write_toy_files(tmp_path, docs))


def test_dataset_rejects_features_without_one_row_per_path():
    with pytest.raises(ValidationError):
        Dataset(graph=complete_graph(4), paths=[(0, 1), (1, 2)], features=np.zeros((3, 1)))
    with pytest.raises(ValidationError):
        Dataset(graph=complete_graph(4), paths=[(0, 1)], features=np.zeros((1, 1)),
                discrete=np.zeros((2, 1)))


def test_similarity_rejects_bad_fraction():
    ds = _toy_dataset([[0.0]])
    with pytest.raises(ValidationError):
        similar_indices(ds, 0, 0.0, [0])


def test_dataset_validates_paths():
    graph = Graph(3, [(0, 1)])
    with pytest.raises(ValidationError):
        Dataset(graph=graph, paths=[(0, 2)], features=[[0.0]])


def test_node_visit_frequencies():
    ds = _toy_dataset([[0.0], [1.0]], paths=[(0, 1, 2), (2, 3)])
    freqs = node_visit_frequencies(ds, [0, 1])
    assert list(freqs) == [1.0, 1.0, 2.0, 1.0]


@pytest.mark.parametrize("with_discrete", [False, True], ids=["features-only", "discrete"])
def test_jsonl_round_trip_is_byte_identical(with_discrete, tmp_path):
    data = generate_synthetic_dataset(GeneratorConfig(num_nodes=10, num_samples=15, seed=1,
                                                      feature_dim=3)).dataset
    if with_discrete:
        data = Dataset(graph=data.graph, paths=data.paths, features=data.features,
                       discrete=np.random.default_rng(0).integers(0, 5, (15, 2)),
                       prior=data.prior)
    (tmp_path / "graph.json").write_text(
        json.dumps(graph_to_json_dict(data.graph, prior=data.prior)))
    write_trajectories_jsonl(tmp_path / "trajectories.jsonl", data)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"graph": "graph.json", "trajectories": "trajectories.jsonl"}))
    loaded, true_costs = load_dataset(tmp_path / "manifest.json")
    assert true_costs is None
    assert np.array_equal(loaded.prior, data.prior)
    write_trajectories_jsonl(tmp_path / "again.jsonl", loaded)
    assert ((tmp_path / "again.jsonl").read_bytes()
            == (tmp_path / "trajectories.jsonl").read_bytes())


_records = st.lists(mostly(st.fixed_dictionaries({
    "context": mostly(st.lists(st.floats(-5, 5), min_size=2, max_size=2)),
    "path": mostly(st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True)),
}, optional={"discrete": mostly(st.lists(st.integers(0, 3), min_size=1, max_size=1))})),
    max_size=4)

_manifests = mostly(st.fixed_dictionaries({
    "graph": mostly(st.just("graph.json")),
    "trajectories": mostly(st.just("trajectories.jsonl")),
}, optional={
    "splits": mostly(st.dictionaries(st.text(max_size=2),
                                     st.lists(st.integers(-1, 4), max_size=3))),
    "true_costs": mostly(st.just("true_costs.bin")),
}))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_manifests, _records, st.sampled_from([None, None, "manifest.json", "graph.json",
                                              "trajectories.jsonl"]),
       st.binary(max_size=24))
def test_load_dataset_raises_only_input_errors(manifest, records, garbled, raw):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        graph = complete_graph(4)
        (base / "graph.json").write_text(
            json.dumps(graph_to_json_dict(graph, prior=[1.0] * graph.num_edges)))
        (base / "trajectories.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (base / "manifest.json").write_text(json.dumps(manifest))
        if garbled is not None:
            (base / garbled).write_bytes(raw)
        try:
            dataset, _ = load_dataset(base / "manifest.json")
        except INPUT_ERRORS:
            return
        assert dataset.features.shape[0] == len(dataset.paths)
