"""Synthetic route-learning datasets.

Geometry: node positions are drawn uniformly in the unit square and each
node is joined to its nearest neighbors with a sparsity-controlled coin
flip, symmetrized; the prior cost of an edge is its Euclidean length.
Latent costs multiply the prior by a context-driven nonlinear factor and a
two-component (means +/-1) Gaussian noise mixture, floored at 5% of the
prior.  Observed trajectories are exact shortest paths under the per-sample
latent costs between source/target pairs drawn from a fixed limited pool.

Every sample's context, pair and latent costs are drawn first, in sample
order; the paths are then searched by block, one `dijkstra` over the edge
costs of each `graph.search_slices` slice of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, ValidationError, is_real, require_types
from .graph import Graph, dijkstra, distances_to, search_slices
from .trajectories import Dataset

COST_FLOOR_FRACTION = 0.05
MAX_CONNECTIVITY_RETRIES = 10


@dataclass
class GeneratorConfig:
    num_nodes: int = 30
    sparsity: float = 0.68
    feature_dim: int = 5
    num_samples: int = 2000
    pair_pool_size: int = 25
    noise_scale: float = 0.08
    seed: int = 0
    neighbor_candidates: int = 11
    hidden_mix_dim: int = 16
    context_gain: float = 3.5
    # Side length of the square positions are drawn from.  With the default
    # 30 nodes, side 10 puts nearest-neighbor distances near 1 and the median
    # prior edge cost near 3.  At that scale the Boltzmann walk series of the
    # prior diverges at beta = 1 and converges at beta = 2: the spectral
    # radius of exp(-beta * M_prior) is 1.45-1.83 and 0.63-0.96 (generator
    # seeds 0-2).  With side 1 the walk sums are swamped by cycle mass and
    # the shortcut tensor degenerates.
    position_scale: float = 10.0

    def validate(self) -> "GeneratorConfig":
        require_types(self, ints=("num_nodes", "feature_dim", "num_samples", "pair_pool_size",
                                  "seed", "neighbor_candidates", "hidden_mix_dim"),
                      reals=("sparsity", "noise_scale", "context_gain", "position_scale"))
        if self.num_nodes < 2:
            raise ValidationError("num_nodes must be at least 2")
        if not (0.0 < self.sparsity <= 1.0):
            raise ValidationError("sparsity must lie in (0, 1]")
        for name in ("feature_dim", "pair_pool_size", "hidden_mix_dim",
                     "neighbor_candidates", "position_scale"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.num_samples < 0 or self.seed < 0:
            raise ValidationError("num_samples and seed must be nonnegative")
        if self.noise_scale < 0:
            raise ValidationError("noise_scale must be nonnegative")
        return self


@dataclass
class LatentCostModel:
    """Frozen ground-truth mapping from context to per-edge costs."""

    prior: np.ndarray
    mix_weights: np.ndarray   # (hidden, feature_dim)
    edge_weights: np.ndarray  # (num_edges, hidden)
    noise_scale: float

    def mean_costs(self, x: np.ndarray) -> np.ndarray:
        drive = self.edge_weights @ np.tanh(self.mix_weights @ x)
        return self.prior * (1.0 + np.logaddexp(0.0, drive))

    def sample_costs(self, x: np.ndarray, rng) -> np.ndarray:
        base = self.mean_costs(x)
        mode = rng.integers(0, 2, size=base.shape[0]) * 2 - 1
        eps = mode + rng.standard_normal(base.shape[0])
        noisy = base * (1.0 + self.noise_scale * eps)
        return np.maximum(noisy, COST_FLOOR_FRACTION * self.prior)


@dataclass
class SyntheticDataset:
    graph: Graph
    prior: np.ndarray
    positions: np.ndarray
    dataset: Dataset
    latent: LatentCostModel
    pair_pool: list[tuple[int, int]]
    true_costs: np.ndarray  # (num_samples, num_edges) realized latent costs
    config: GeneratorConfig = field(default=None)


def _candidate_pairs(positions: np.ndarray, k: int) -> list[tuple[int, int]]:
    n = positions.shape[0]
    k = min(k, n - 1)
    diffs = positions[:, None, :] - positions[None, :, :]
    dists = np.hypot(diffs[..., 0], diffs[..., 1])
    np.fill_diagonal(dists, np.inf)
    pairs: set[tuple[int, int]] = set()
    for u in range(n):
        for v in np.argsort(dists[u], kind="stable")[:k]:
            pairs.add((min(u, int(v)), max(u, int(v))))
    return sorted(pairs)


def _is_connected(n: int, pairs) -> bool:
    """Whether the undirected graph on n nodes with these pairs is connected."""
    graph = Graph(n, [edge for u, v in set(pairs) for edge in ((u, v), (v, u))])
    return bool(np.isfinite(distances_to(np.ones((1, graph.num_edges)), graph, [0], None)).all())


def generate_synthetic_dataset(config: GeneratorConfig) -> SyntheticDataset:
    """Deterministic generation of (graph, prior, dataset) from a seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    positions = None
    kept_pairs = None
    for _ in range(MAX_CONNECTIVITY_RETRIES):
        positions = rng.uniform(0.0, config.position_scale, size=(config.num_nodes, 2))
        candidates = _candidate_pairs(positions, config.neighbor_candidates)
        coin = rng.uniform(size=len(candidates))
        pairs = [pq for pq, c in zip(candidates, coin) if c < config.sparsity]
        if _is_connected(config.num_nodes, pairs):
            kept_pairs = pairs
            break
    if kept_pairs is None:
        raise GenerationError(
            f"no connected graph after {MAX_CONNECTIVITY_RETRIES} attempts; "
            "raise sparsity or neighbor_candidates"
        )

    edges: list[tuple[int, int]] = []
    for u, v in kept_pairs:
        edges.append((u, v))
        edges.append((v, u))
    graph = Graph(config.num_nodes, edges)
    prior = np.array([
        float(np.hypot(*(positions[u] - positions[v]))) for u, v in edges
    ])

    mix = rng.standard_normal((config.hidden_mix_dim, config.feature_dim))
    mix /= np.sqrt(config.feature_dim)
    edge_w = rng.standard_normal((graph.num_edges, config.hidden_mix_dim))
    edge_w *= config.context_gain / np.sqrt(config.hidden_mix_dim)
    latent = LatentCostModel(prior=prior, mix_weights=mix, edge_weights=edge_w,
                             noise_scale=config.noise_scale)

    all_pairs = [(s, t) for s in range(config.num_nodes)
                 for t in range(config.num_nodes) if s != t]
    pool_idx = rng.choice(len(all_pairs), size=min(config.pair_pool_size, len(all_pairs)),
                          replace=False)
    pair_pool = [all_pairs[int(x)] for x in pool_idx]

    features = np.zeros((config.num_samples, config.feature_dim))
    true_costs = np.zeros((config.num_samples, graph.num_edges))
    ends = []
    for idx in range(config.num_samples):
        x = features[idx] = rng.standard_normal(config.feature_dim)
        ends.append(pair_pool[int(rng.integers(len(pair_pool)))])
        true_costs[idx] = latent.sample_costs(x, rng)
    paths = []
    for block in search_slices(config.num_samples, graph):
        found = dijkstra(true_costs[block], graph, ends[block])
        for (path, _), (s, t) in zip(found, ends[block]):
            if path is None:
                raise GenerationError(f"pair ({s}, {t}) unreachable in a connected graph")
            paths.append(tuple(path))

    dataset = Dataset(graph=graph, paths=paths, features=features, prior=prior)
    return SyntheticDataset(graph=graph, prior=prior, positions=positions,
                            dataset=dataset, latent=latent, pair_pool=pair_pool,
                            true_costs=true_costs, config=config)


def assign_splits(num_records: int, fractions=(0.8, 0.1, 0.1)) -> dict[str, list[int]]:
    """Deterministic contiguous train/val/test split by record index."""
    if (not isinstance(fractions, (list, tuple)) or len(fractions) != 3
            or not all(is_real(f) and 0.0 <= f <= 1.0 for f in fractions)):
        raise ValidationError(f"split_fractions must be three numbers in [0, 1], "
                              f"got {fractions!r}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValidationError("split_fractions must sum to 1")
    n_train = int(round(fractions[0] * num_records))
    n_val = int(round(fractions[1] * num_records))
    train = list(range(0, n_train))
    val = list(range(n_train, min(n_train + n_val, num_records)))
    test = list(range(min(n_train + n_val, num_records), num_records))
    return {"train": train, "val": val, "test": test}
