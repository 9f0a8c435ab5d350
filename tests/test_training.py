import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_connected_graph, scatter_triples
from reference import finite_difference_gradcheck
from datasp.costmodel import init_params, predict_costs
from datasp.engine import datasp_backward, datasp_forward_efficient
from datasp.errors import NumericalError, ValidationError
from datasp.graph import (
    build_cost_matrix,
    complete_graph,
    draw_kept_nodes,
    kept_node_map,
    sample_subgraph,
)
from datasp.oracle import normwise_gradient_error
from datasp.serialize import load_checkpoint, save_checkpoint
from datasp.synthetic import GeneratorConfig, assign_splits, generate_synthetic_dataset
from datasp.trajectories import (
    Dataset,
    FrequencyTensor,
    apply_node_exclusion_to_path,
    build_frequency_tensor,
    node_visit_frequencies,
)
from datasp.training import (
    TrainConfig,
    adam_update,
    anchor_gradients,
    evaluate_jaccard,
    init_adam,
    plan_anchor,
    prior_loss,
    shortcut_loss,
    train_loop,
)


# --- losses -------------------------------------------------------------------

def test_shortcut_loss_zero_when_matched(k4):
    log_p, _, _ = datasp_forward_efficient(k4, 1.0)
    p = np.exp(log_p)
    freq_rows = {}
    for (i, j) in [(0, 3), (1, 2)]:
        freq_rows[(i, j)] = {k: float(p[i, j, k]) for k in range(4) if p[i, j, k] > 0}
    freq = FrequencyTensor(freq_rows)
    log_p_at, _, _ = datasp_forward_efficient(k4, 1.0, at=freq.triples)

    loss, grad, floored = shortcut_loss(log_p_at, freq)
    grad = scatter_triples(freq, grad, 4)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert floored == 0
    # gradient of KL on P at the optimum is -f/p / |D| = -1/|D| on the
    # support, so on log P it is -p/|D|
    assert grad[0, 3, 2] == pytest.approx(-0.5 * p[0, 3, 2])


def test_shortcut_loss_one_hot_vs_uniform():
    n = 5
    log_p = np.full((n, n, n), -np.inf)
    options = [0, 1, 2]  # slot 0 is the direct slot for pair (0, 4)
    for k in options:
        log_p[0, 4, k] = math.log(1.0 / len(options))
    freq = FrequencyTensor({(0, 4): {1: 1.0}})
    loss, grad, _ = shortcut_loss(log_p[freq.triples], freq)
    grad = scatter_triples(freq, grad, n)
    assert loss == pytest.approx(math.log(len(options)), rel=1e-12)
    # -f/p on P is -3; on log P it is -f = -3 * (1/3)
    assert grad[0, 4, 1] == pytest.approx(-1.0)
    assert grad[0, 4, 0] == 0.0


def test_shortcut_loss_keeps_gradient_where_p_underflows():
    # Complete 4-node graph with cost 8 (u - v)^2 at beta = 30: the path
    # (0, 3, 1, 2) takes the dear direct edge 0 -> 3 and backtracks from 3
    # to 1, so P underflows to 0 at its observed (0, 3, 0) and (0, 1, 3)
    # terms.  Their log P is finite, and the loss keeps them with a finite,
    # nonzero gradient.
    graph = complete_graph(4)
    m = build_cost_matrix([8.0 * (u - v) ** 2 for u, v in graph.edges], graph)
    beta = 30.0
    freq = build_frequency_tensor([(0, 3, 1, 2), (0, 1, 2)])
    log_p, dist, tape = datasp_forward_efficient(m, beta, at=freq.triples)
    assert np.isfinite(log_p).all()
    assert (np.exp(log_p) == 0.0).any()
    loss, grad_log_p, floored = shortcut_loss(log_p, freq)
    assert math.isfinite(loss) and floored == 0
    grad = datasp_backward(tape, grad_log_p, np.zeros_like(dist))
    assert np.isfinite(grad).all() and np.abs(grad).max() > 0.0

    def loss_of(matrix):
        lp, _, _ = datasp_forward_efficient(matrix, beta, at=freq.triples)
        return shortcut_loss(lp, freq)[0]

    assert normwise_gradient_error(loss_of, grad, m, step=1e-6) <= 1e-6


def test_shortcut_loss_rejects_an_infinite_log_p():
    freq = FrequencyTensor({(0, 2): {0: 0.5, 1: 0.5}})
    with pytest.raises(NumericalError, match="non-finite log P"):
        shortcut_loss(np.array([math.log(0.5), -np.inf]), freq)


def _dense_p_reference_loss(m, beta, freq):
    """The KL loss read from the dense P = exp(log P), term by term, and its
    gradient w.r.t. m: -f / P on P, which reaches log P times P."""
    log_p, dist, tape = datasp_forward_efficient(m, beta)
    p = np.exp(log_p)
    loss, grad_p = 0.0, np.zeros_like(p)
    for (i, j), row in freq.frequencies.items():
        for k, f in row.items():
            loss += f * (math.log(f) - math.log(p[i, j, k]))
            grad_p[i, j, k] = -f / p[i, j, k]
    pairs = len(freq.frequencies)
    return loss / pairs, datasp_backward(tape, grad_p * p / pairs, np.zeros_like(dist))


@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_shortcut_loss_matches_dense_p_reference(beta):
    # costs in [2, 4] keep the walk series convergent at beta = 1
    graph = complete_graph(8)
    m = build_cost_matrix(np.random.default_rng(4).uniform(2.0, 4.0, graph.num_edges), graph)
    freq = build_frequency_tensor([(0, 3, 5, 7), (0, 2, 7), (1, 4, 6), (6, 5, 3, 2)])
    log_p, dist, tape = datasp_forward_efficient(m, beta, at=freq.triples)
    loss, grad_log_p, _ = shortcut_loss(log_p, freq)
    grad = datasp_backward(tape, grad_log_p, np.zeros_like(dist))
    ref_loss, ref_grad = _dense_p_reference_loss(m, beta, freq)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-12 * np.abs(ref_grad).max())


def test_shortcut_loss_gradient_outside_observed_pairs_is_zero(k4):
    freq = FrequencyTensor({(0, 3): {2: 1.0}})
    log_p, _, _ = datasp_forward_efficient(k4, 1.0, at=freq.triples)
    _, grad, _ = shortcut_loss(log_p, freq)
    grad = scatter_triples(freq, grad, 4)
    mask = np.ones_like(grad, dtype=bool)
    mask[0, 3, :] = False
    assert np.array_equal(grad[mask], np.zeros(mask.sum()))


def test_prior_loss_values():
    loss, grad = prior_loss(np.array([2.0]), np.array([1.0]))
    assert loss == 1.0
    assert grad == pytest.approx([2.0])
    costs = np.array([1.0, 2.0, 3.0])
    prior = np.array([1.0, 1.0, 1.0])
    loss, grad = prior_loss(costs, prior)
    assert loss == pytest.approx(5.0 / 3.0)
    assert grad == pytest.approx(2.0 * (costs - prior) / 3.0)
    assert prior_loss(prior, prior)[0] == 0.0


# --- fixtures -------------------------------------------------------------------

def small_dataset(num_samples=60, num_nodes=12, seed=0):
    result = generate_synthetic_dataset(GeneratorConfig(
        num_nodes=num_nodes, num_samples=num_samples, seed=seed,
        pair_pool_size=6, feature_dim=3))
    splits = assign_splits(num_samples, (0.8, 0.2, 0.0))
    dataset = Dataset(graph=result.graph, paths=result.dataset.paths,
                      features=result.dataset.features, prior=result.prior, splits=splits)
    return result, dataset


# --- anchor step ----------------------------------------------------------------

def one_anchor(params, anchor, dataset, config, node_freqs, candidates, sample_seed):
    """(grads, entry) of the anchor run as a block of its own; grads is None
    when it is skipped."""
    plan = plan_anchor(anchor, dataset, config, node_freqs, candidates, sample_seed)
    grads = [np.zeros_like(a) for a in params.flat_arrays()]
    entries, error = anchor_gradients(params, [plan], dataset, config, grads)
    if error is not None:
        raise error
    return (None if entries[0]["skipped"] else grads), entries[0]


def test_train_step_zero_learning_rate_keeps_params():
    result, dataset = small_dataset()
    config = TrainConfig(learning_rate=0.0, epochs=1, seed=0,
                         similarity_fraction=0.2, hidden_sizes=[8])
    params = init_params(3, [8], result.graph.num_edges, seed=0)
    before = [w.copy() for w in params.weights]
    state = init_adam(params)
    everyone = list(range(len(dataset.paths)))
    grads, metrics = one_anchor(params, 0, dataset, config,
                                node_visit_frequencies(dataset, everyone),
                                everyone, sample_seed=0)
    assert not metrics["skipped"]
    assert math.isfinite(metrics["L_S"])
    adam_update(params, grads, state, config)
    for w, old in zip(params.weights, before):
        assert np.array_equal(w, old)


def test_anchor_step_allocates_less_than_one_v3_array():
    # The loss reads P at its observed triples only: no P, loss gradient or
    # grad_p * P of V^3 entries is allocated on the training path.
    size = 64
    result, dataset = small_dataset(num_samples=20, num_nodes=size)
    config = TrainConfig(beta=5.0, similarity_fraction=0.2, hidden_sizes=[8])
    params = init_params(3, [8], result.graph.num_edges, seed=0)
    everyone = list(range(len(dataset.paths)))
    args = (params, 0, dataset, config, node_visit_frequencies(dataset, everyone), everyone)
    one_anchor(*args, sample_seed=0)  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads, entry = one_anchor(*args, sample_seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not entry["skipped"] and grads is not None
    assert peak < size ** 3 * 8


def test_alpha_zero_equals_dropping_prior_loss():
    result, dataset = small_dataset()
    node_freqs = node_visit_frequencies(dataset, range(len(dataset.paths)))
    candidates = list(range(len(dataset.paths)))
    params = init_params(3, [8], result.graph.num_edges, seed=0)

    cfg0 = TrainConfig(alpha=0.0, similarity_fraction=0.2, hidden_sizes=[8])
    grads0, _ = one_anchor(params, 0, dataset, cfg0, node_freqs, candidates,
                           sample_seed=1)
    # alpha=0 must match a hand-built gradient without any prior term
    cfg1 = TrainConfig(alpha=1.0, similarity_fraction=0.2, hidden_sizes=[8])
    grads1, _ = one_anchor(params, 0, dataset, cfg1, node_freqs, candidates,
                           sample_seed=1)
    # initial params predict exactly the prior -> prior-loss gradient is zero,
    # so both must coincide at initialization
    for a, b in zip(grads0[0::2], grads1[0::2]):
        assert np.allclose(a, b)
    # push params away from the prior and the two must differ
    params.biases[-1][:] += 0.3
    grads0b, _ = one_anchor(params, 0, dataset, cfg0, node_freqs, candidates,
                            sample_seed=1)
    grads1b, _ = one_anchor(params, 0, dataset, cfg1, node_freqs, candidates,
                            sample_seed=1)
    assert not np.allclose(grads0b[-1], grads1b[-1])


def test_adam_update_is_the_textbook_step_bit_for_bit():
    rng = np.random.default_rng(3)
    params = init_params(3, [5, 4], 7, seed=1)
    config = TrainConfig(learning_rate=3e-3)
    state = init_adam(params)
    arrays = [a.copy() for a in params.flat_arrays()]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t in range(1, 4):
        grads = [rng.standard_normal(a.shape) * 10.0 ** rng.integers(-8, 3) for a in arrays]
        adam_update(params, grads, state, config)
        for i, g in enumerate(grads):
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
            m_hat = m[i] / (1.0 - 0.9 ** t)
            v_hat = v[i] / (1.0 - 0.999 ** t)
            arrays[i] = arrays[i] - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert state["t"] == t
        for ours, ref, ours_m, ref_m, ours_v, ref_v in zip(
                params.flat_arrays(), arrays, state["m"], m, state["v"], v):
            assert ours.tobytes() == ref.tobytes()
            assert ours_m.tobytes() == ref_m.tobytes() and ours_v.tobytes() == ref_v.tobytes()


def test_descent_on_fixed_instance():
    result, dataset = small_dataset(num_samples=40)
    config = TrainConfig(learning_rate=3e-3, epochs=0, seed=0,
                         similarity_fraction=0.5, hidden_sizes=[16])
    params = init_params(3, [16], result.graph.num_edges, seed=0)
    state = init_adam(params)
    node_freqs = node_visit_frequencies(dataset, range(len(dataset.paths)))
    candidates = list(range(len(dataset.paths)))
    losses = []
    for step in range(50):
        grads, metrics = one_anchor(params, 0, dataset, config, node_freqs,
                                    candidates, sample_seed=0)
        losses.append(metrics["L_S"])
        from datasp.training import adam_update

        adam_update(params, grads, state, config)
    assert losses[-1] < losses[0]
    assert min(losses) < losses[0] - 0.05


# --- gradient checks -------------------------------------------------------------

def _pipeline_loss_and_grads(params, dataset, config, anchor, node_freqs, candidates,
                             sample_seed):
    """Total loss L_S + alpha * L_P and its parameter gradients."""
    grads, metrics = one_anchor(params, anchor, dataset, config, node_freqs,
                                candidates, sample_seed)
    return metrics["L_S"] + config.alpha * metrics["L_P"], grads


def test_end_to_end_parameter_gradient_no_exclusion():
    result, dataset = small_dataset(num_samples=30, num_nodes=6, seed=1)
    config = TrainConfig(alpha=0.5, similarity_fraction=0.5, hidden_sizes=[4])
    params = init_params(3, [4], result.graph.num_edges, seed=4)
    rng = np.random.default_rng(0)
    for w in params.weights:
        w += 0.2 * rng.standard_normal(w.shape)
    for b in params.biases:
        b += 0.2 * rng.standard_normal(b.shape)
    node_freqs = node_visit_frequencies(dataset, range(len(dataset.paths)))
    candidates = list(range(len(dataset.paths)))

    loss, grads = _pipeline_loss_and_grads(params, dataset, config, 0, node_freqs,
                                           candidates, sample_seed=0)
    worst = 0.0
    for layer in range(len(params.weights)):
        for arr, g in ((params.weights[layer], grads[2 * layer]),
                       (params.biases[layer], grads[2 * layer + 1])):
            def loss_of(flat, arr=arr):
                saved = arr.copy()
                arr[:] = flat.reshape(arr.shape)
                value, _ = _pipeline_loss_and_grads(params, dataset, config, 0,
                                                    node_freqs, candidates, sample_seed=0)
                arr[:] = saved
                return value

            worst = max(worst, finite_difference_gradcheck(loss_of, g.ravel(),
                                                           arr.ravel(), step=1e-5))
    assert worst <= 1e-3


def test_exclusion_chain_cost_gradient():
    rng = np.random.default_rng(2)
    graph, costs = random_connected_graph(8, rng)
    paths = []
    from datasp.graph import dijkstra

    m_true = build_cost_matrix(costs, graph)
    for (s, t) in [(0, 7), (1, 6), (2, 5)]:
        [(path, _)] = dijkstra([costs], graph, [(s, t)])
        if path is not None and len(path) >= 2:
            paths.append(tuple(path))
    node_freqs = np.ones(8)
    beta = 1.0
    keep = 6

    def loss_and_grad(edge_costs):
        m = build_cost_matrix(edge_costs, graph)
        comp = sample_subgraph(graph, m, draw_kept_nodes(graph, keep, node_freqs, rng_seed=5),
                               beta=beta)
        node_map = kept_node_map(8, comp.kept)
        rewritten = [apply_node_exclusion_to_path(p, node_map) for p in paths]
        rewritten = [p for p in rewritten if p is not None]
        freq = build_frequency_tensor(rewritten)
        log_p, dist, tape = datasp_forward_efficient(comp.matrix, beta, at=freq.triples)
        loss, grad_log_p, _ = shortcut_loss(log_p, freq)
        grad_c = datasp_backward(tape, grad_log_p, np.zeros_like(comp.matrix))
        grad_full = comp.backward(grad_c)
        ea = graph.edge_array()
        return loss, grad_full[ea[:, 0], ea[:, 1]]

    loss, grad = loss_and_grad(costs)
    err = finite_difference_gradcheck(lambda c: loss_and_grad(c)[0], grad, costs,
                                      step=1e-5)
    assert err <= 1e-3


# --- train_loop -------------------------------------------------------------------

def test_train_loop_zero_epochs_returns_initial():
    result, dataset = small_dataset(num_samples=20)
    config = TrainConfig(epochs=0, hidden_sizes=[8], similarity_fraction=0.5, seed=0)
    out = train_loop(dataset, config)
    reference = init_params(3, [8], result.graph.num_edges, seed=0)
    for w, r in zip(out.params.weights, reference.weights):
        assert np.array_equal(w, r)


def test_train_loop_deterministic():
    result, dataset = small_dataset(num_samples=30)
    config = TrainConfig(epochs=2, learning_rate=1e-3, hidden_sizes=[8],
                         similarity_fraction=0.3, batch_size=4, seed=7)
    a = train_loop(dataset, config)
    b = train_loop(dataset, config)
    assert a.log == b.log
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa, wb)


def test_training_matches_the_full_sweep(monkeypatch):
    """Sweeping only the nodes of each step's triples, with node exclusion
    and without, gives the full sweep's validation scores, and its losses,
    gradient norms and parameters within 1e-12: log P keeps its bits, but
    the pivot adjoints sum over the live block in storage order, so the
    gradients may differ in their last bits."""
    from datasp import engine

    _, dataset = small_dataset(num_samples=30)
    configs = [TrainConfig(epochs=2, learning_rate=1e-3, beta=3.0, hidden_sizes=[8],
                           similarity_fraction=0.3, batch_size=4, seed=7, keep_count=keep)
               for keep in (None, 6)]
    full_sweep = engine.sweep
    eliminated = []

    def recorded(m, beta, sources=None):
        tape = full_sweep(m, beta, sources)
        eliminated.append(not tape.kept_nodes.all())
        return tape

    monkeypatch.setattr(engine, "sweep", recorded)
    restricted = [train_loop(dataset, config) for config in configs]
    assert any(eliminated)
    monkeypatch.setattr(engine, "sweep", lambda m, beta, sources=None: full_sweep(m, beta))
    for config, ours in zip(configs, restricted):
        full = train_loop(dataset, config)
        assert len(full.log) == len(ours.log)
        for a, b in zip(full.log, ours.log):
            assert a.keys() == b.keys()
            for key in a:
                if key in ("L_S", "L_P", "grad_norm"):
                    assert abs(a[key] - b[key]) <= 1e-12 * max(1.0, abs(a[key]))
                else:
                    assert a[key] == b[key]
        for a, b in zip(full.params.flat_arrays(), ours.params.flat_arrays()):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_kept_steps_change_no_training_bit(monkeypatch):
    """A backward that reads the forward's kept steps changes no log entry
    and no parameter against one that re-runs every segment (budget 0),
    with node exclusion and without."""
    from datasp import engine

    _, dataset = small_dataset(num_samples=30)
    configs = [TrainConfig(epochs=2, learning_rate=1e-3, beta=3.0, hidden_sizes=[8],
                           similarity_fraction=0.3, batch_size=4, seed=7, keep_count=keep)
               for keep in (None, 6)]
    sweep = engine.sweep
    kept = []

    def recorded(m, beta, sources=None):
        tape = sweep(m, beta, sources)
        kept.append(len(tape.steps))
        return tape

    monkeypatch.setattr(engine, "sweep", recorded)
    reused = [train_loop(dataset, config) for config in configs]
    assert all(kept)
    monkeypatch.setattr(engine, "BLOCK_FLOATS", 0)
    kept.clear()
    for config, ours in zip(configs, reused):
        rerun = train_loop(dataset, config)
        assert json.dumps(rerun.log) == json.dumps(ours.log)
        for a, b in zip(rerun.params.flat_arrays(), ours.params.flat_arrays()):
            assert a.tobytes() == b.tobytes()
    assert kept and not any(kept)


def test_resuming_from_a_loaded_checkpoint_leaves_it_as_read(tmp_path):
    # A loaded checkpoint's arrays are read-only views of the file's bytes;
    # train_loop trains on copies, so the resumed run matches one from
    # writable arrays and the checkpoint still hashes to its file.
    result, dataset = small_dataset(num_samples=30)
    config = TrainConfig(epochs=1, learning_rate=1e-3, hidden_sizes=[8],
                         similarity_fraction=0.3, batch_size=4, seed=7)
    first = train_loop(dataset, config)
    path = tmp_path / "c.bin"
    save_checkpoint(path, first.params, step=first.step, opt_state=first.opt_state)
    checkpoint = load_checkpoint(path)
    resumed = train_loop(dataset, config, initial_params=checkpoint.params,
                         initial_opt_state=checkpoint.opt_state, initial_step=checkpoint.step)
    writable = train_loop(dataset, config, initial_params=first.params.copy(),
                          initial_opt_state={"m": [a.copy() for a in first.opt_state["m"]],
                                             "v": [a.copy() for a in first.opt_state["v"]],
                                             "t": first.opt_state["t"]},
                          initial_step=first.step)
    assert resumed.log == writable.log and resumed.opt_state["t"] == writable.opt_state["t"]
    for a, b in zip(resumed.params.flat_arrays() + resumed.opt_state["m"],
                    writable.params.flat_arrays() + writable.opt_state["m"]):
        assert np.array_equal(a, b)
    assert checkpoint.opt_state["t"] == first.opt_state["t"]
    assert checkpoint.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_loop_skips_empty_batches():
    result, dataset = small_dataset(num_samples=30)
    config = TrainConfig(epochs=1, keep_count=2, hidden_sizes=[8],
                         similarity_fraction=0.1, seed=0)
    out = train_loop(dataset, config)
    assert any(entry.get("skipped") for entry in out.log if "skipped" in entry)


def test_step_log_records_floored_terms_and_skip_reason():
    result, dataset = small_dataset(num_samples=30)
    config = TrainConfig(epochs=1, keep_count=2, hidden_sizes=[8],
                         similarity_fraction=0.1, seed=0)
    steps = [entry for entry in train_loop(dataset, config).log if "epoch" not in entry]
    assert [entry["step"] for entry in steps] == list(range(len(dataset.splits["train"])))
    for entry in steps:
        assert set(entry) == {"step", "L_S", "L_P", "grad_norm", "kept_nodes", "skipped",
                              "reason"}
        assert (entry["reason"] != "") == entry["skipped"]
    assert any(entry["skipped"] for entry in steps)
    assert not all(entry["skipped"] for entry in steps)


def test_train_loop_without_val_split_has_nan_best_score():
    result, dataset = small_dataset(num_samples=20)
    dataset.splits = {"train": dataset.splits["train"]}
    out = train_loop(dataset, TrainConfig(epochs=1, hidden_sizes=[8],
                                          similarity_fraction=0.5, seed=0))
    assert math.isnan(out.best_val_jaccard)
    assert math.isnan(out.log[-1]["val_jaccard"])


def test_train_loop_requires_prior():
    result, dataset = small_dataset(num_samples=20)
    dataset.prior = None
    with pytest.raises(ValidationError, match="prior"):
        train_loop(dataset, TrainConfig(epochs=0, hidden_sizes=[8]))


def test_evaluate_jaccard_prior_baseline():
    result, dataset = small_dataset(num_samples=30)
    params = init_params(3, [8], result.graph.num_edges, seed=0)
    score = evaluate_jaccard(params, dataset, dataset.splits["val"])
    assert 0.0 <= score <= 1.0


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=-1.0).validate(10)
    with pytest.raises(ValidationError):
        TrainConfig(beta=0.0).validate(10)
    with pytest.raises(ValidationError):
        TrainConfig(keep_count=1).validate(10)
    with pytest.raises(ValidationError):
        TrainConfig(keep_count=11).validate(10)


def test_skipped_anchors_run_no_exclusion(monkeypatch):
    """The kept set is drawn and the similar paths rewritten before any
    exclusion runs, so only the anchors that train exclude nodes."""
    import datasp.training

    calls = []
    original = datasp.training.sample_subgraph

    def counting(*args, **kwargs):
        calls.extend(args[2])  # one kept set per matrix of the chunk
        return original(*args, **kwargs)

    monkeypatch.setattr(datasp.training, "sample_subgraph", counting)
    result, dataset = small_dataset(num_samples=30)
    config = TrainConfig(epochs=1, keep_count=2, hidden_sizes=[8],
                         similarity_fraction=0.1, seed=0)
    steps = [entry for entry in train_loop(dataset, config).log if "epoch" not in entry]
    trained = [entry for entry in steps if not entry["skipped"]]
    assert 0 < len(trained) < len(steps)
    assert calls == [entry["kept_nodes"] for entry in trained]


def test_a_non_finite_loss_raises_after_the_entries_before_it(tmp_path, monkeypatch):
    """The anchors of a chunk run their losses in step order; the first
    non-finite one raises NumericalError once the log holds every step
    before it, the skipped ones and those of its own chunk included."""
    import datasp.training

    chunks, losses = [], []
    original_subgraph = datasp.training.sample_subgraph
    original_loss = datasp.training.shortcut_loss

    def recording(*args, **kwargs):
        chunks.append(len(args[2]))
        return original_subgraph(*args, **kwargs)

    def failing(log_p, freq):
        losses.append(len(losses))
        if len(losses) == 6:
            raise NumericalError("an observed shortcut has a non-finite log P")
        return original_loss(log_p, freq)

    monkeypatch.setattr(datasp.training, "sample_subgraph", recording)
    monkeypatch.setattr(datasp.training, "shortcut_loss", failing)
    _, dataset = small_dataset(num_samples=60)
    config = TrainConfig(epochs=1, keep_count=3, hidden_sizes=[8], similarity_fraction=0.1,
                         seed=0, batch_size=32)
    log_path = tmp_path / "train_log.jsonl"
    with pytest.raises(NumericalError, match="non-finite log P"):
        train_loop(dataset, config, log_path=log_path)
    # chunks of 1, 2, 4, ...: the sixth anchor that trains is third in its chunk
    assert chunks[:3] == [1, 2, 4]
    steps = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [entry["step"] for entry in steps] == list(range(len(steps)))
    assert sum(not entry["skipped"] for entry in steps) == 5
    monkeypatch.setattr(datasp.training, "shortcut_loss", original_loss)
    full = train_loop(dataset, config).log
    failed = next(i for i, entry in enumerate(full) if i >= len(steps) and not entry["skipped"])
    assert failed == len(steps) and any(entry["skipped"] for entry in steps)
    assert [json.dumps(entry, sort_keys=True) for entry in full[:len(steps)]] == \
        log_path.read_text().splitlines()


def test_a_chunk_of_exclusions_at_150_nodes_holds_its_steps_within_the_budget(monkeypatch):
    """At V=150, keep 30 (the real profile's shape) chunks of several
    anchors form, and the weights each chunk's exclusion keeps fit
    `graph.BLOCK_FLOATS` floats; beside them each step holds only its row
    indices, the finite entries of its pivot rows and a few array headers."""
    import datasp.training
    from datasp.graph import BLOCK_FLOATS

    syn = generate_synthetic_dataset(GeneratorConfig(num_nodes=150, num_samples=80, seed=0))
    dataset = Dataset(graph=syn.graph, paths=syn.dataset.paths, features=syn.dataset.features,
                      prior=syn.prior, splits=assign_splits(80, (1.0, 0.0, 0.0)))
    config = TrainConfig(beta=30.0, keep_count=30, similarity_fraction=0.1, hidden_sizes=[8])
    everyone = list(range(80))
    node_freqs = node_visit_frequencies(dataset, everyone)
    plans = [plan_anchor(anchor, dataset, config, node_freqs, everyone, sample_seed=anchor)
             for anchor in everyone[:40]]
    syn.graph.elimination_rank  # built once per graph, not charged to a chunk
    original = datasp.training.sample_subgraph
    chunks = []

    def measured(graph, matrices, kept, beta):
        before = tracemalloc.get_traced_memory()[0]
        comp = original(graph, matrices, kept, beta)
        held = tracemalloc.get_traced_memory()[0] - before - comp.matrix.nbytes
        chunks.append((len(kept), comp.floats().sum(), held, len(comp.steps)))
        return comp

    monkeypatch.setattr(datasp.training, "sample_subgraph", measured)
    params = init_params(syn.dataset.features.shape[1], [8], syn.graph.num_edges, seed=0)
    pending = [np.zeros_like(a) for a in params.flat_arrays()]
    tracemalloc.start()
    try:
        entries, error = anchor_gradients(params, plans, dataset, config, pending)
    finally:
        tracemalloc.stop()
    assert error is None and len(entries) == len(plans)
    assert sum(chunk[0] for chunk in chunks) == sum(not e["skipped"] for e in entries)
    assert max(chunk[0] for chunk in chunks) >= 4
    for size, weights, held, steps in chunks:
        assert weights <= BLOCK_FLOATS
        assert held <= 8 * BLOCK_FLOATS + steps * (1024 + 200 * size)


def test_a_block_sizes_its_chunks_from_its_own_anchors(monkeypatch):
    """A block's chunks start at one anchor whatever block ran before it:
    the second block of a run chunks as it does when it is trained first."""
    import datasp.training

    syn = generate_synthetic_dataset(GeneratorConfig(num_nodes=40, num_samples=40, seed=0))
    dataset = Dataset(graph=syn.graph, paths=syn.dataset.paths, features=syn.dataset.features,
                      prior=syn.prior, splits=assign_splits(40, (1.0, 0.0, 0.0)))
    config = TrainConfig(beta=30.0, keep_count=8, similarity_fraction=0.1, hidden_sizes=[8],
                         batch_size=12)
    blocks = []  # (plans, the stack sizes its exclusions receive)
    run_block, exclude = datasp.training.anchor_gradients, datasp.training.sample_subgraph

    def recorded_block(params, plans, *args):
        blocks.append((plans, []))
        return run_block(params, plans, *args)

    def recorded_chunk(graph, matrices, kept, beta):
        blocks[-1][1].append(len(kept))
        return exclude(graph, matrices, kept, beta)

    monkeypatch.setattr(datasp.training, "anchor_gradients", recorded_block)
    monkeypatch.setattr(datasp.training, "sample_subgraph", recorded_chunk)
    train_loop(dataset, config)
    assert len(blocks) >= 2
    plans, after = blocks[1]
    params = init_params(syn.dataset.features.shape[1], [8], syn.graph.num_edges, seed=0)
    _, error = recorded_block(params, plans, dataset, config,
                              [np.zeros_like(a) for a in params.flat_arrays()])
    first = blocks[-1][1]
    assert error is None
    assert after == first and first[0] == 1 and max(first) > 2


def test_skipped_anchors_read_no_parameters(monkeypatch):
    """An anchor finds that no path survives exclusion before it runs the
    cost model, so only the anchors that train predict costs."""
    import datasp.training

    calls = []
    original = datasp.training.predict_costs

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(datasp.training, "predict_costs", counting)
    result, dataset = small_dataset(num_samples=30)
    dataset.splits = assign_splits(30, (1.0, 0.0, 0.0))  # no validation predicts costs
    config = TrainConfig(epochs=1, keep_count=2, hidden_sizes=[8],
                         similarity_fraction=0.1, seed=0)
    steps = [entry for entry in train_loop(dataset, config).log if "epoch" not in entry]
    trained = [entry for entry in steps if not entry["skipped"]]
    assert 0 < len(trained) < len(steps)
    assert len(calls) == len(trained)
