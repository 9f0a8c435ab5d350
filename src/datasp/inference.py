"""Path sampling and destination likelihoods read from the engine's sweep,
expected optimal paths, and evaluation metrics.

Queries take the `EngineTape` of `engine.sweep`, not the shortcut tensor P:
every row they need is read through `engine.shortcut_costs`, in log space,
so no V^3 array is built and no row underflows to all zeros.

Sampling recursively draws the highest intermediate node H between the
endpoints, then recurses into both halves with all slots above H masked out
(the direct slot stays available on the left half even when its index
exceeds H).  Because every draw inside a half is strictly smaller than the
half's pivot, the mask a row would accumulate along a branch always equals
the mask imposed by its immediate parent, so passing a single bound down the
recursion reproduces the tensor-masking semantics exactly without copying
anything.

The recursion cannot dead-end.  A draw of H from row (a, b) has a finite
cost C[a, H] + R[H, b].  C[a, H] is the smooth min of the costs row (a, H)
keeps under the mask at H (its direct slot and the slots below H), and
R[H, b] is the same for row (H, b), so both halves have a finite slot to
draw.  Weights are taken relative to the cheapest slot left in the row,
which therefore always weighs exactly 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .engine import EngineTape, shortcut_costs
from .errors import NoPathError, ValidationError
from .graph import Graph, build_cost_matrix, classical_floyd_warshall, dijkstra, path_cost
from .smoothing import INF


@dataclass
class PathDistributionEstimate:
    frequencies: dict[tuple[int, ...], float]
    sample_count: int
    rejected_count: int


class ShortcutSampler:
    """Recursive walk sampler over the rows of a sweep's tape.

    Masked row distributions are cached per (source, target, bound) as
    cumulative weights, so repeated draws (Monte Carlo) cost one bisection
    per recursion step.
    """

    def __init__(self, tape: EngineTape):
        self.tape = tape
        self.n = tape.size
        self._rows: dict[tuple[int, int, int], list[float]] = {}

    def _cumulative(self, a: int, b: int, bound: int) -> list[float]:
        key = (a, b, bound)
        cumulative = self._rows.get(key)
        if cumulative is None:
            costs = shortcut_costs(self.tape, a, b)
            direct = costs[a]
            costs[bound + 1:] = INF
            costs[a] = direct  # the direct slot survives every mask
            weights = np.exp(-self.tape.beta * (costs - costs.min()))
            cumulative = self._rows[key] = np.cumsum(weights).tolist()
        return cumulative

    def draw(self, a: int, b: int, bound: int, rng) -> int:
        cumulative = self._cumulative(a, b, bound)
        return bisect_right(cumulative, rng.random() * cumulative[-1])

    def sample(self, i: int, j: int, rng) -> list[int]:
        """One walk i -> j."""
        if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
            raise ValidationError(f"invalid pair ({i}, {j}) for {self.n} nodes")
        if not np.isfinite(self.tape.dist[i, j]):
            raise NoPathError(f"pair ({i}, {j}) is unreachable")

        def recurse(a: int, b: int, bound: int) -> list[int]:
            h = self.draw(a, b, bound, rng)
            if h == a:
                return [a, b]
            return recurse(a, h, h) + recurse(h, b, h)[1:]

        return recurse(i, j, self.n - 1)


def monte_carlo_path_distribution(
    tape: EngineTape,
    i: int,
    j: int,
    num_samples: int,
    rng,
    reject_cycles: bool = False,
) -> PathDistributionEstimate:
    """Empirical walk distribution from repeated sampling.

    With reject_cycles, walks with repeated nodes are discarded (and
    counted); sampling continues until num_samples walks are accepted or
    the 100 * num_samples attempt cap is hit.
    """
    if num_samples < 1:
        raise ValidationError("num_samples must be >= 1")
    sampler = ShortcutSampler(tape)
    counts: dict[tuple[int, ...], int] = {}
    accepted = 0
    rejected = 0
    attempts = 0
    cap = 100 * num_samples
    while accepted < num_samples and attempts < cap:
        attempts += 1
        walk = sampler.sample(i, j, rng)
        if reject_cycles and len(set(walk)) != len(walk):
            rejected += 1
            continue
        key = tuple(walk)
        counts[key] = counts.get(key, 0) + 1
        accepted += 1
    if accepted == 0:
        raise NoPathError(
            f"all {attempts} sampled walks for pair ({i}, {j}) were rejected"
        )
    freqs = {w: c / accepted for w, c in counts.items()}
    return PathDistributionEstimate(
        frequencies=freqs,
        sample_count=accepted,
        rejected_count=rejected,
    )


@dataclass
class DestinationPrior:
    """Per-node nonnegative destination weights."""

    weights: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        try:
            self.weights = np.asarray(self.weights, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"prior weights must be numbers: {exc}") from None
        w = self.weights
        if not np.isfinite(w).all() or (w < 0).any() or not (w > 0).any():
            raise ValidationError("prior weights must be finite and nonnegative with at "
                                  "least one positive")

    @classmethod
    def uniform(cls, num_nodes: int) -> "DestinationPrior":
        return cls(weights=np.ones(num_nodes), kind="uniform")

    @classmethod
    def exp_negative_distance(cls, m: np.ndarray, origin: int) -> "DestinationPrior":
        """Weights exp(-d/scale) from cost distances out of the origin node;
        scale is the mean finite distance so the decay is unit-free."""
        dist = classical_floyd_warshall(m)
        row = dist[origin].copy()
        row[origin] = 0.0
        finite = np.isfinite(row)
        scale = float(row[finite].mean()) if finite.any() and row[finite].max() > 0 else 1.0
        weights = np.where(finite, np.exp(-row / max(scale, 1e-12)), 0.0)
        return cls(weights=weights, kind="exp-negative-distance")


def swap_nodes_in_matrix(m: np.ndarray, a: int, b: int) -> np.ndarray:
    """Exchange node indices a and b (rows and columns)."""
    out = m.copy()
    out[[a, b], :] = out[[b, a], :]
    out[:, [a, b]] = out[:, [b, a]]
    return out


def destination_likelihood(
    tape: EngineTape,
    partial: list[int],
    prior: DestinationPrior,
) -> np.ndarray:
    """Per-node destination probabilities given a partial path.

    tape must come from `engine.sweep` on a cost matrix in which the
    partial path's final node was swapped with index V-1, so that "the
    final node is the highest intermediate" is a single slot.  Nodes already
    visited (except the current one) get probability zero; the current node
    itself is scored by its direct-connection slot.  Scores are summed in
    log space, log P[s, t, V-1] + log prior, so destinations whose P
    underflows still rank.  Probabilities are returned in original node
    indexing.
    """
    n = tape.size
    partial = [int(x) for x in partial]
    if len(partial) < 2:
        raise ValidationError("partial path must contain at least two nodes")
    if len(set(partial)) != len(partial):
        raise ValidationError("partial path must be cycle-free")
    if any(not 0 <= x < n for x in partial):
        raise ValidationError("partial path node out of range")
    if prior.weights.shape != (n,):
        raise ValidationError("prior weight vector size must match node count")

    start, current = partial[0], partial[-1]

    def swapped(x: int) -> int:
        if x == current:
            return n - 1
        if x == n - 1:
            return current
        return x

    s = swapped(start)
    visited = set(partial[:-1])
    log_scores = np.full(n, -INF)
    for node in range(n):
        weight = prior.weights[node]
        if node in visited or weight == 0.0:
            continue
        t = swapped(node)
        cost = shortcut_costs(tape, s, t)[s if node == current else n - 1]
        if np.isfinite(cost):
            log_scores[node] = -tape.beta * (cost - tape.dist[s, t]) + math.log(weight)
    if not np.isfinite(log_scores).any():
        raise NoPathError("no destination has positive score under this prior")
    scores = np.exp(log_scores - log_scores.max())
    return scores / scores.sum()


def expected_optimal_path(costs, graph: Graph, i: int, j: int) -> tuple[list[int] | None, float]:
    """Deterministic best path under the given edge costs."""
    return dijkstra(build_cost_matrix(costs, graph), i, j)


def jaccard_edges(pred, obs) -> float:
    """Intersection over union of the two paths' consecutive-pair edge sets."""
    if len(pred) < 2 or len(obs) < 2:
        raise ValidationError("paths must contain at least two nodes")
    pe = set(zip(pred[:-1], pred[1:]))
    oe = set(zip(obs[:-1], obs[1:]))
    return len(pe & oe) / len(pe | oe)


def match_rate(preds, obs_list) -> float:
    """Fraction of predictions identical to their paired observation."""
    if len(preds) != len(obs_list):
        raise ValidationError("prediction and observation lists must align")
    if not preds:
        raise ValidationError("match_rate of an empty list")
    hits = sum(1 for a, b in zip(preds, obs_list) if list(a) == list(b))
    return hits / len(preds)


def optimal_cost_rate(preds, true_matrices, rel_tol: float = 1e-9) -> float:
    """Fraction of predicted paths that are cost-optimal under the true costs.

    true_matrices is one cost matrix per prediction (contexts differ).
    """
    if len(preds) != len(true_matrices):
        raise ValidationError("predictions and true cost matrices must align")
    if not preds:
        raise ValidationError("optimal_cost_rate of an empty list")
    hits = 0
    for pred, m_true in zip(preds, true_matrices):
        cost = path_cost(m_true, pred)
        _, best = dijkstra(m_true, pred[0], pred[-1])
        if np.isfinite(best) and abs(cost - best) <= rel_tol * max(1.0, abs(best)):
            hits += 1
    return hits / len(preds)
