"""Losses and the learning loop.

Each anchor context drives one gradient contribution: predict edge costs,
fill the cost matrix, compress the graph by excluding randomly sampled
nodes, rewrite the context-similar trajectories onto the compressed node
set, encode them as shortcut frequencies, run the differentiable
shortest-path forward pass, and backpropagate the KL divergence between
observed and inferred shortcut distributions (plus a prior regularizer on
the costs) all the way to the network weights.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .costmodel import (
    ModelParams,
    ParamGrads,
    backward_params,
    predict_costs,
    zero_grads,
)
from .engine import datasp_backward, datasp_forward_efficient
from .errors import NumericalError, ValidationError
from .graph import Compression, Graph, build_cost_matrix, sample_subgraph
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

P_FLOOR = 1e-12
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
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be nonnegative")
        for name in ("beta", "batch_size", "similarity_fraction", "cost_floor"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.alpha < 0 or self.epochs < 0:
            raise ValidationError("alpha and epochs must be nonnegative")
        if self.keep_count is not None and not (2 <= self.keep_count <= num_nodes):
            raise ValidationError(f"keep_count must be in [2, {num_nodes}]")
        return self


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def init_adam(params: ModelParams) -> AdamState:
    arrays = params.flat_arrays()
    return AdamState(m=[np.zeros_like(a) for a in arrays],
                     v=[np.zeros_like(a) for a in arrays], t=0)


def adam_update(params: ModelParams, grads: ParamGrads, state: AdamState,
                config: TrainConfig) -> None:
    """In-place Adam step on the parameters."""
    state.t += 1
    flat_params = params.flat_arrays()
    flat_grads = []
    for w, b in zip(grads.weights, grads.biases):
        flat_grads.append(w)
        flat_grads.append(b)
    correction1 = 1.0 - ADAM_BETA1 ** state.t
    correction2 = 1.0 - ADAM_BETA2 ** state.t
    for arr, g, m, v in zip(flat_params, flat_grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        arr -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def shortcut_loss(p: np.ndarray, freq: FrequencyTensor) -> tuple[float, np.ndarray, int]:
    """KL divergence between observed and inferred shortcut distributions.

    Returns (loss, gradient w.r.t. P, floored-term count).  The gradient is
    supported only on observed pairs; terms with zero observed frequency
    contribute nothing.  Inferred probabilities are floored at P_FLOOR
    inside the log, and such events are counted: they indicate shortcuts
    observed in the data that the current graph view deems (near-)impossible.
    """
    if not freq.frequencies:
        raise ValidationError("empty shortcut frequency tensor")
    n = p.shape[0]
    grad = np.zeros_like(p)
    loss = 0.0
    floored = 0
    num_pairs = len(freq.frequencies)
    for (i, j), row in freq.frequencies.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"observed pair ({i}, {j}) outside tensor of size {n}")
        for k, f in row.items():
            if f <= 0.0:
                continue
            p_val = p[i, j, k]
            if p_val > P_FLOOR:
                loss += f * (math.log(f) - math.log(p_val))
                grad[i, j, k] = -f / p_val / num_pairs
            else:
                loss += f * (math.log(f) - math.log(P_FLOOR))
                floored += 1
    return loss / num_pairs, grad, floored


def prior_loss(costs, prior) -> tuple[float, np.ndarray]:
    """Mean squared deviation of predicted costs from the prior."""
    costs = np.asarray(costs, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if costs.shape != prior.shape:
        raise ValidationError("costs and prior must have matching shapes")
    diff = costs - prior
    return float((diff * diff).mean()), 2.0 * diff / diff.size


@dataclass
class StepMetrics:
    step: int
    shortcut: float
    prior: float
    grad_norm: float
    kept_nodes: list[int]
    skipped: bool
    floored: int = 0
    reason: str = ""

    def to_log_dict(self) -> dict:
        return {
            "step": self.step,
            "L_S": self.shortcut,
            "L_P": self.prior,
            "grad_norm": self.grad_norm,
            "kept_nodes": self.kept_nodes,
            "skipped": self.skipped,
            "floored": self.floored,
            "reason": self.reason,
        }


class SimilarityCache:
    """Per-anchor cache of the context-similar training indices."""

    def __init__(self, dataset: Dataset, fraction: float, candidates: list[int]):
        self.dataset = dataset
        self.fraction = fraction
        self.candidates = candidates
        self._cache: dict[int, list[int]] = {}

    def get(self, anchor: int) -> list[int]:
        if anchor not in self._cache:
            self._cache[anchor] = similar_indices(
                self.dataset, anchor, self.fraction, self.candidates
            )
        return self._cache[anchor]


def anchor_gradients(
    params: ModelParams,
    anchor: int,
    dataset: Dataset,
    graph: Graph,
    prior: np.ndarray,
    config: TrainConfig,
    node_freqs: np.ndarray,
    similarity: SimilarityCache,
    sample_seed: int,
) -> tuple[ParamGrads | None, StepMetrics]:
    """Full forward/backward for one anchor context.

    Returns (None, metrics) when the step must be skipped (no usable paths
    survive node exclusion).
    """
    record = dataset.records[anchor]
    costs, cache = predict_costs(params, record.context.features, prior)
    m_full = build_cost_matrix(costs, graph)

    keep = config.keep_count if config.keep_count is not None else graph.num_nodes
    compression = sample_subgraph(graph, m_full, keep, node_freqs, sample_seed, config.beta)

    removed = set(compression.removed)
    paths = []
    for idx in similarity.get(anchor):
        rewritten = apply_node_exclusion_to_path(
            dataset.records[idx].path, removed, compression.node_map
        )
        if rewritten is not None:
            paths.append(rewritten)
    if not paths:
        metrics = StepMetrics(step=-1, shortcut=float("nan"), prior=float("nan"),
                              grad_norm=0.0, kept_nodes=compression.kept, skipped=True,
                              reason="no trajectories survived node exclusion")
        return None, metrics

    freq = build_frequency_tensor(paths)
    p, _, tape = datasp_forward_efficient(compression.matrix, config.beta)
    l_s, grad_p, floored = shortcut_loss(p, freq)
    l_p, grad_costs_prior = prior_loss(costs, prior)

    grad_m_c = datasp_backward(tape, grad_p, np.zeros_like(compression.matrix))
    grad_m_full = compression.backward(grad_m_c)
    ea = graph.edge_array()
    grad_costs = grad_m_full[ea[:, 0], ea[:, 1]] + config.alpha * grad_costs_prior
    grads, _ = backward_params(cache, grad_costs)

    if not (math.isfinite(l_s) and math.isfinite(l_p)):
        raise NumericalError(f"non-finite loss at anchor {anchor}: L_S={l_s} L_P={l_p}")

    metrics = StepMetrics(step=-1, shortcut=float(l_s), prior=float(l_p),
                          grad_norm=grads.norm(), kept_nodes=compression.kept,
                          skipped=False, floored=floored)
    return grads, metrics


@dataclass
class TrainResult:
    params: ModelParams
    best_params: ModelParams
    best_val_jaccard: float
    log: list[dict]
    opt_state: AdamState
    step: int


def evaluate_jaccard(params: ModelParams, dataset: Dataset, graph: Graph,
                     prior: np.ndarray, indices) -> float:
    """Mean edge-Jaccard between predicted best paths and observations."""
    scores = []
    for idx in indices:
        rec = dataset.records[idx]
        costs, _ = predict_costs(params, rec.context.features, prior)
        pred, _ = expected_optimal_path(costs, graph, rec.path[0], rec.path[-1])
        scores.append(0.0 if pred is None else jaccard_edges(pred, rec.path))
    if not scores:
        raise ValidationError("no evaluation records")
    return float(np.mean(scores))


def train_loop(
    dataset: Dataset,
    graph: Graph,
    prior: np.ndarray,
    config: TrainConfig,
    checkpoint_path=None,
    log_path=None,
    initial_params: ModelParams | None = None,
    initial_opt_state: AdamState | None = None,
    initial_step: int = 0,
) -> TrainResult:
    """Epochs of shuffled anchors with gradient accumulation over batch_size.

    Validation Jaccard is computed each epoch; the best parameters are kept
    (and checkpointed when a path is given).  Deterministic for a given
    config seed.
    """
    config.validate(graph.num_nodes)
    prior = np.asarray(prior, dtype=float)
    train_idx = dataset.split_indices("train")
    val_idx = dataset.splits.get("val", [])
    if not train_idx:
        raise ValidationError("empty training split")

    params = initial_params.copy() if initial_params is not None else None
    if params is None:
        params = init_params_for(dataset, graph, config)
    opt_state = initial_opt_state or init_adam(params)
    node_freqs = node_visit_frequencies(dataset, train_idx)
    similarity = SimilarityCache(dataset, config.similarity_fraction, train_idx)

    log: list[dict] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    def emit(entry: dict) -> None:
        log.append(entry)
        if log_fh:
            log_fh.write(json.dumps(entry, sort_keys=True) + "\n")

    step = initial_step
    best_val = -1.0
    best_params = params.copy()
    shuffle_rng = np.random.default_rng([config.seed, 0xD5])
    try:
        for epoch in range(config.epochs):
            order = list(train_idx)
            shuffle_rng.shuffle(order)
            pending = zero_grads(params)
            pending_count = 0
            for anchor in order:
                sample_seed = _step_seed(config.seed, step)
                grads, metrics = anchor_gradients(
                    params, anchor, dataset, graph, prior, config,
                    node_freqs, similarity, sample_seed,
                )
                metrics.step = step
                emit(metrics.to_log_dict())
                step += 1
                if grads is None:
                    continue
                pending.add(grads)
                pending_count += 1
                if pending_count == config.batch_size:
                    pending.scale(1.0 / pending_count)
                    adam_update(params, pending, opt_state, config)
                    pending = zero_grads(params)
                    pending_count = 0
            if pending_count:
                pending.scale(1.0 / pending_count)
                adam_update(params, pending, opt_state, config)

            if val_idx:
                val_jaccard = evaluate_jaccard(params, dataset, graph, prior, val_idx)
            else:
                val_jaccard = float("nan")
            emit({"epoch": epoch, "val_jaccard": val_jaccard, "step": step})
            if not val_idx or math.isnan(val_jaccard) or val_jaccard > best_val:
                best_val = val_jaccard if val_idx else best_val
                best_params = params.copy()
                if checkpoint_path:
                    save_checkpoint(checkpoint_path, best_params, step=step,
                                    extra={"val_jaccard": None if math.isnan(val_jaccard) else val_jaccard},
                                    opt_state={"m": opt_state.m, "v": opt_state.v,
                                               "t": opt_state.t})
        if config.epochs == 0 and checkpoint_path:
            save_checkpoint(checkpoint_path, params, step=step, extra={},
                            opt_state={"m": opt_state.m, "v": opt_state.v, "t": opt_state.t})
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(params=params, best_params=best_params,
                       best_val_jaccard=best_val, log=log,
                       opt_state=opt_state, step=step)


def init_params_for(dataset: Dataset, graph: Graph, config: TrainConfig) -> ModelParams:
    from .costmodel import init_params

    if not dataset.records:
        raise ValidationError("cannot infer feature dimension from an empty dataset")
    feature_dim = dataset.records[0].context.features.shape[0]
    return init_params(feature_dim, config.hidden_sizes, graph.num_edges,
                       config.seed, config.cost_floor)


def _step_seed(seed: int, step: int) -> int:
    return int(np.random.SeedSequence([seed, step]).generate_state(1)[0])
