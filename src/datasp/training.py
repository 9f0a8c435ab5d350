"""Losses and the learning loop.

Each anchor context drives one gradient contribution: predict edge costs,
fill the cost matrix, compress the graph by excluding randomly sampled
nodes, rewrite the context-similar trajectories onto the compressed node
set, encode them as shortcut frequencies, run the differentiable
shortest-path forward pass, and backpropagate the KL divergence between
observed and inferred shortcut distributions (plus a prior regularizer on
the costs) all the way to the network weights.  The forward pass evaluates
log P, the log of the shortcut tensor, only at the observed (i, j, k)
triples of the frequency tensor, and the exact loss on log P and the
backward carry the gradient from those triples alone, so a step holds no
V^3 array and no term's gradient is lost to an underflowing P.

The context-similar trajectories are the training records nearest to the
anchor, found at every step by `similar_indices` over the dataset's context
matrix; that is cheap next to the step, so nothing is cached.

Every function here reads the graph and the prior costs from the `Dataset`:

- `train_loop(dataset, config, checkpoint_path=None, log_path=None, ...)`
  runs the epochs (the dataset must carry a prior);
- `anchor_gradients(params, anchor, dataset, config, node_freqs,
  candidates, sample_seed)` is one anchor's forward and backward pass;
- `predicted_paths(params, dataset, indices)` is each record's best path
  under its predicted costs, searched by block (one
  `inference.expected_optimal_path` call per `graph.block_slices` slice of
  the records), and `evaluate_jaccard(params, dataset, indices)` scores
  them against the observed paths.

A training run's state has one form each, the one its files hold:

- the Adam state is the checkpoint's dict `{"m": [...], "v": [...], "t": int}`
  (`init_adam`, `adam_update`, `TrainResult.opt_state`, `save_checkpoint`);
- a step's record is its `train_log.jsonl` entry: `anchor_gradients` returns
  `{L_S, L_P, grad_norm, kept_nodes, skipped, reason}` and the loop
  writes it with its `step` (an epoch's entry is `{epoch, val_jaccard, step}`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .costmodel import ModelParams, backward_params, init_params, predict_costs
from .engine import datasp_backward, datasp_forward_efficient
from .errors import NumericalError, ValidationError, is_int, require_types
from .graph import (
    block_slices,
    build_cost_matrix,
    draw_kept_nodes,
    kept_node_map,
    sample_subgraph,
)
from .inference import expected_optimal_path, jaccard_edges
from .serialize import save_checkpoint
from .trajectories import (
    Dataset,
    FrequencyTensor,
    apply_node_exclusion_to_path,
    build_frequency_tensor,
    node_visit_frequencies,
    similar_indices,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    beta: float = 1.0
    batch_size: int = 16
    keep_count: int | None = None  # None means no node exclusion
    similarity_fraction: float = 0.01
    alpha: float = 1e-5
    epochs: int = 1
    seed: int = 0
    hidden_sizes: list[int] = field(default_factory=lambda: [128, 128, 128])
    cost_floor: float = 1e-3

    def validate(self, num_nodes: int) -> "TrainConfig":
        require_types(self, ints=("batch_size", "epochs", "seed"),
                      reals=("learning_rate", "beta", "similarity_fraction", "alpha",
                             "cost_floor"))
        if not isinstance(self.hidden_sizes, list) or not all(
                is_int(h) and h > 0 for h in self.hidden_sizes):
            raise ValidationError(f"hidden_sizes must be a list of positive integers, "
                                  f"got {self.hidden_sizes!r}")
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be nonnegative")
        for name in ("beta", "batch_size", "cost_floor"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not 0 < self.similarity_fraction <= 1:
            raise ValidationError("similarity_fraction must be in (0, 1]")
        if self.alpha < 0 or self.epochs < 0 or self.seed < 0:
            raise ValidationError("alpha, epochs and seed must be nonnegative")
        if self.keep_count is not None and not (
                is_int(self.keep_count) and 2 <= self.keep_count <= num_nodes):
            raise ValidationError(f"keep_count must be an integer in [2, {num_nodes}]")
        return self


def init_adam(params: ModelParams) -> dict:
    arrays = params.flat_arrays()
    return {"m": [np.zeros_like(a) for a in arrays],
            "v": [np.zeros_like(a) for a in arrays], "t": 0}


def adam_update(params: ModelParams, grads: list[np.ndarray], state: dict,
                config: TrainConfig) -> None:
    """In-place Adam step on `params` and `state`; grads follow `flat_arrays()`."""
    state["t"] += 1
    correction1 = 1.0 - ADAM_BETA1 ** state["t"]
    correction2 = 1.0 - ADAM_BETA2 ** state["t"]
    for arr, g, m, v in zip(params.flat_arrays(), grads, state["m"], state["v"]):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        arr -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def shortcut_loss(log_p: np.ndarray, freq: FrequencyTensor) -> tuple[float, np.ndarray, int]:
    """KL divergence between observed and inferred shortcut distributions.

    log_p holds log P at the observed triples, `freq.triples` (as
    `datasp_forward_efficient(m, beta, at=freq.triples)` returns it), so the
    loss never reads or writes a V^3 array.  With f the observed
    frequencies, the loss is sum f * (log f - log P) over the number of
    observed pairs, and its gradient w.r.t. log_p is -f over that number, in
    log_p's shape.  Returns (loss, gradient, 0).  Each observed triple of a
    cycle-free path is the highest node of a visitable walk, after node
    exclusion too, so a non-finite log P raises NumericalError.
    """
    if not freq.frequencies:
        raise ValidationError("empty shortcut frequency tensor")
    log_p = np.asarray(log_p, dtype=float)
    f = freq.weights
    if log_p.shape != f.shape:
        raise ValidationError(f"log P must hold one entry per observed triple ({f.size}), "
                              f"got shape {log_p.shape}")
    if not np.isfinite(log_p).all():
        raise NumericalError("an observed shortcut has a non-finite log P")
    num_pairs = len(freq.frequencies)
    loss = float(np.sum(f * (np.log(f) - log_p))) / num_pairs
    # The third result, 0 floored terms, stays only for the benchmark's
    # observer until ROADMAP item 3's follow-up.
    return loss, -f / num_pairs, 0


def prior_loss(costs, prior) -> tuple[float, np.ndarray]:
    """Mean squared deviation of predicted costs from the prior."""
    costs = np.asarray(costs, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if costs.shape != prior.shape:
        raise ValidationError("costs and prior must have matching shapes")
    diff = costs - prior
    return float((diff * diff).mean()), 2.0 * diff / diff.size


def anchor_gradients(
    params: ModelParams,
    anchor: int,
    dataset: Dataset,
    config: TrainConfig,
    node_freqs: np.ndarray,
    candidates: list[int],
    sample_seed: int,
) -> tuple[list[np.ndarray] | None, dict]:
    """Full forward/backward for one anchor context.

    The anchor trains on the `config.similarity_fraction` of `candidates`
    whose contexts are nearest to its own.  Returns (grads, entry), entry
    being the step's log entry without its step; grads is None when the
    step must be skipped (no usable paths survive node exclusion).
    """
    graph, prior = dataset.graph, dataset.prior
    costs, cache = predict_costs(params, dataset.features[anchor], prior)
    m_full = build_cost_matrix(costs, graph)

    keep = config.keep_count if config.keep_count is not None else graph.num_nodes
    kept = draw_kept_nodes(graph, keep, node_freqs, sample_seed)
    node_map = kept_node_map(graph.num_nodes, kept)

    paths = []
    for idx in similar_indices(dataset, anchor, config.similarity_fraction, candidates):
        rewritten = apply_node_exclusion_to_path(dataset.paths[idx], node_map)
        if rewritten is not None:
            paths.append(rewritten)
    if not paths:
        return None, {"L_S": float("nan"), "L_P": float("nan"), "grad_norm": 0.0,
                      "kept_nodes": kept, "skipped": True,
                      "reason": "no trajectories survived node exclusion"}

    compression = sample_subgraph(graph, m_full, kept, config.beta)

    freq = build_frequency_tensor(paths)
    log_p, _, tape = datasp_forward_efficient(compression.matrix, config.beta, at=freq.triples)
    l_s, grad_log_p, _ = shortcut_loss(log_p, freq)
    l_p, grad_costs_prior = prior_loss(costs, prior)

    grad_m_c = datasp_backward(tape, grad_log_p, np.zeros_like(compression.matrix))
    grad_m_full = compression.backward(grad_m_c)
    ea = graph.edge_array()
    grad_costs = grad_m_full[ea[:, 0], ea[:, 1]] + config.alpha * grad_costs_prior
    grads = backward_params(cache, grad_costs)

    if not (math.isfinite(l_s) and math.isfinite(l_p)):
        raise NumericalError(f"non-finite loss at anchor {anchor}: L_S={l_s} L_P={l_p}")

    return grads, {"L_S": float(l_s), "L_P": float(l_p),
                   "grad_norm": math.sqrt(sum(float((g * g).sum()) for g in grads)),
                   "kept_nodes": kept, "skipped": False, "reason": ""}


@dataclass
class TrainResult:
    params: ModelParams
    best_val_jaccard: float  # NaN when no validation score was computed
    log: list[dict]
    opt_state: dict
    step: int


def predicted_paths(params: ModelParams, dataset: Dataset, indices) -> list[list[int]]:
    """Each record's best path between its endpoints under its predicted costs
    (one exists: the record's path runs over graph edges), searched one block
    of records at a time."""
    preds = []
    for block in block_slices(len(indices), dataset.graph.num_nodes):
        records = indices[block]
        costs = np.stack([predict_costs(params, dataset.features[idx], dataset.prior)[0]
                          for idx in records])
        ends = [(dataset.paths[idx][0], dataset.paths[idx][-1]) for idx in records]
        preds += [path for path, _ in expected_optimal_path(costs, dataset.graph, ends)]
    return preds


def evaluate_jaccard(params: ModelParams, dataset: Dataset, indices) -> float:
    """Mean edge-Jaccard between predicted best paths and observations."""
    preds = predicted_paths(params, dataset, indices)
    if not preds:
        raise ValidationError("no evaluation records")
    return float(np.mean([jaccard_edges(pred, dataset.paths[idx])
                          for pred, idx in zip(preds, indices)]))


def train_loop(
    dataset: Dataset,
    config: TrainConfig,
    checkpoint_path=None,
    log_path=None,
    initial_params: ModelParams | None = None,
    initial_opt_state: dict | None = None,
    initial_step: int = 0,
) -> TrainResult:
    """Epochs of shuffled anchors with gradient accumulation over batch_size.

    Validation Jaccard is computed each epoch.  When `checkpoint_path` is
    given, the parameters are written there after each epoch that improves
    on the best score so far (after every epoch without a validation split).
    `initial_params` and `initial_opt_state` are copied, never written (a
    loaded checkpoint's arrays are read-only).  Deterministic for a given
    config seed.  A train-split record that revisits a node, or
    `initial_params` whose shape (hidden_sizes, cost_floor, feature_dim,
    edge_count) differs from the config's and the dataset's, is rejected
    before the log is opened.
    """
    if dataset.prior is None:
        raise ValidationError("training requires prior costs (or node positions)")
    config.validate(dataset.graph.num_nodes)
    train_idx = dataset.split_indices("train")
    val_idx = dataset.splits.get("val", [])
    if not train_idx:
        raise ValidationError("empty training split")
    for idx in train_idx:
        if len(set(dataset.paths[idx])) != len(dataset.paths[idx]):
            raise ValidationError(f"training record {idx} revisits a node; training "
                                  "needs cycle-free paths")
    if initial_params is not None:
        expected = {"hidden_sizes": config.hidden_sizes, "cost_floor": config.cost_floor,
                    "feature_dim": dataset.features.shape[1],
                    "edge_count": dataset.graph.num_edges}
        for name, value in expected.items():
            if getattr(initial_params, name) != value:
                raise ValidationError(f"resumed model's {name} {getattr(initial_params, name)!r} "
                                      f"differs from this run's {value!r}")

    params = (initial_params.copy() if initial_params is not None
              else init_params(dataset.features.shape[1], config.hidden_sizes,
                               dataset.graph.num_edges, config.seed, config.cost_floor))
    opt_state = ({"m": [a.copy() for a in initial_opt_state["m"]],
                  "v": [a.copy() for a in initial_opt_state["v"]], "t": initial_opt_state["t"]}
                 if initial_opt_state is not None else init_adam(params))
    node_freqs = node_visit_frequencies(dataset, train_idx)

    log: list[dict] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    def emit(entry: dict) -> None:
        log.append(entry)
        if log_fh:
            log_fh.write(json.dumps(entry, sort_keys=True) + "\n")

    step = initial_step
    best_val = float("nan")
    shuffle_rng = np.random.default_rng([config.seed, 0xD5])
    try:
        for epoch in range(config.epochs):
            order = list(train_idx)
            shuffle_rng.shuffle(order)
            pending = [np.zeros_like(a) for a in params.flat_arrays()]
            pending_count = 0
            for anchor in order:
                sample_seed = _step_seed(config.seed, step)
                grads, entry = anchor_gradients(
                    params, anchor, dataset, config, node_freqs, train_idx, sample_seed,
                )
                emit({"step": step, **entry})
                step += 1
                if grads is None:
                    continue
                for acc, g in zip(pending, grads):
                    acc += g
                pending_count += 1
                if pending_count == config.batch_size:
                    adam_update(params, [g * (1.0 / pending_count) for g in pending],
                                opt_state, config)
                    pending = [np.zeros_like(a) for a in pending]
                    pending_count = 0
            if pending_count:
                adam_update(params, [g * (1.0 / pending_count) for g in pending],
                            opt_state, config)

            val_jaccard = (evaluate_jaccard(params, dataset, val_idx) if val_idx
                           else float("nan"))
            emit({"epoch": epoch, "val_jaccard": val_jaccard, "step": step})
            if not val_idx or epoch == 0 or val_jaccard > best_val:
                best_val = val_jaccard
                if checkpoint_path:
                    save_checkpoint(checkpoint_path, params, step=step,
                                    extra={"val_jaccard": val_jaccard if val_idx else None},
                                    opt_state=opt_state)
        if config.epochs == 0 and checkpoint_path:
            save_checkpoint(checkpoint_path, params, step=step, extra={}, opt_state=opt_state)
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(params=params, best_val_jaccard=best_val, log=log,
                       opt_state=opt_state, step=step)


def _step_seed(seed: int, step: int) -> int:
    return int(np.random.SeedSequence([seed, step]).generate_state(1)[0])
