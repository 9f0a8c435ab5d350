"""Feed-forward cost model: context features -> strictly positive edge costs.

The network predicts a residual on top of a per-edge prior through a
softplus reparameterization: cost_e = floor + softplus(raw_e + shift_e)
with shift_e = softplus^-1(prior_e - floor).  A zero final layer therefore
reproduces the prior exactly, and every output is >= floor regardless of
the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError

DEFAULT_COST_FLOOR = 1e-3


def softplus(z):
    return np.logaddexp(0.0, z)


def inv_softplus(y):
    """Inverse of softplus on positive inputs, stable for both tails."""
    y = np.asarray(y, dtype=float)
    small = y < 20.0
    out = np.empty_like(y)
    out[small] = np.log(np.expm1(np.maximum(y[small], 1e-12)))
    out[~small] = y[~small] + np.log1p(-np.exp(-y[~small]))
    return out


@dataclass
class ModelParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feature_dim: int
    hidden_sizes: list[int]
    edge_count: int
    cost_floor: float = DEFAULT_COST_FLOOR

    def copy(self) -> "ModelParams":
        return replace(self, weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases],
                       hidden_sizes=list(self.hidden_sizes))

    def flat_arrays(self) -> list[np.ndarray]:
        """weight_0, bias_0, weight_1, bias_1, ...: the checkpoint and Adam order."""
        return [arr for pair in zip(self.weights, self.biases) for arr in pair]


def init_params(feature_dim: int, hidden_sizes, edge_count: int, seed: int,
                cost_floor: float = DEFAULT_COST_FLOOR) -> ModelParams:
    """Scaled-uniform fan-in init; the final layer starts at zero so the
    initial prediction equals the prior exactly."""
    if feature_dim <= 0 or edge_count <= 0:
        raise ValidationError("feature_dim and edge_count must be positive")
    hidden_sizes = [int(h) for h in hidden_sizes]
    if any(h <= 0 for h in hidden_sizes):
        raise ValidationError("hidden sizes must be positive")
    if cost_floor <= 0:
        raise ValidationError("cost_floor must be positive")
    rng = np.random.default_rng(seed)
    dims = [feature_dim] + hidden_sizes + [edge_count]
    weights = []
    biases = []
    for layer in range(len(dims) - 1):
        fan_in, fan_out = dims[layer], dims[layer + 1]
        if layer == len(dims) - 2:
            weights.append(np.zeros((fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        else:
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
    return ModelParams(weights=weights, biases=biases, feature_dim=feature_dim,
                       hidden_sizes=hidden_sizes, edge_count=edge_count,
                       cost_floor=float(cost_floor))


@dataclass
class ForwardCache:
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    z: np.ndarray  # raw + shift, whose sigmoid is the d(cost)/d(raw) factor
    params: ModelParams = field(repr=False, default=None)


def predict_costs(params: ModelParams, x, prior) -> tuple[np.ndarray, ForwardCache]:
    """Edge costs of one context (F,), or of each row of a block (B, F) of
    contexts, through the same expressions, and the forward cache that
    `backward_params` reads (one context's)."""
    x = np.asarray(x, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != params.feature_dim:
        raise ValidationError(f"expected context of dim {params.feature_dim}, got {x.shape}")
    if prior.shape != (params.edge_count,):
        raise ValidationError(f"expected {params.edge_count} priors, got {prior.shape}")

    # Huge finite weights overflow to inf or nan; graph.check_edge_costs rejects those.
    with np.errstate(over="ignore", invalid="ignore"):
        h = x
        pre_acts: list[np.ndarray] = []
        acts: list[np.ndarray] = [x]
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            z = h @ w.T + b
            pre_acts.append(z)
            h = np.maximum(z, 0.0)
            acts.append(h)
        raw = h @ params.weights[-1].T + params.biases[-1]

        shift = inv_softplus(np.maximum(prior - params.cost_floor, 1e-9))
        z = raw + shift
        costs = params.cost_floor + softplus(z)
    cache = ForwardCache(pre_activations=pre_acts, activations=acts, z=z, params=params)
    return costs, cache


def backward_params(cache: ForwardCache, grad_costs) -> list[np.ndarray]:
    """Exact reverse-mode gradients through the softplus head and the MLP,
    in `ModelParams.flat_arrays()` order."""
    params = cache.params
    grad_costs = np.asarray(grad_costs, dtype=float)
    if grad_costs.shape != (params.edge_count,):
        raise ValidationError(f"expected gradient of shape ({params.edge_count},)")
    gate = np.exp(-np.logaddexp(0.0, -cache.z))  # stable sigmoid
    delta = grad_costs * gate
    grads = [np.outer(delta, cache.activations[-1]), delta]
    upstream = delta
    for layer in range(len(params.weights) - 2, -1, -1):
        upstream = (params.weights[layer + 1].T @ upstream) * (cache.pre_activations[layer] > 0)
        grads[:0] = [np.outer(upstream, cache.activations[layer]), upstream]
    return grads
