"""Brute-force reference implementations for consistency checking.

The canonical walk space is defined recursively, mirroring the support of
the path sampler: a walk from a to b with pivot bound t is either the
direct edge a -> b, or, for some highest node h <= t with h not in {a, b},
a walk a -> h with bound h - 1 concatenated with a walk h -> b with bound
h - 1.  The engine's smoothed distances equal the smooth min of exactly
these walk costs, and its shortcut tensor equals ratios of Boltzmann
sums over them grouped by highest intermediate node.

Everything here is exponential-time by design and guarded; it is used by
tests and the `verify` command, never in training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, ValidationError
from .graph import validate_cost_matrix, path_cost
from .smoothing import softmin_value
from .engine import EngineTape, datasp_forward_efficient

MAX_ORACLE_NODES = 10
MAX_ORACLE_WALKS = 1_000_000


@dataclass(frozen=True)
class VisitableWalk:
    nodes: tuple[int, ...]
    cost: float
    highest_intermediate: int | None  # None for a direct edge

    def __len__(self) -> int:
        return len(self.nodes)


class WalkEnumerator:
    """Memoized recursive enumeration of the visitable walk space.

    One instance amortizes the (pair, bound) sub-results over every pair of
    a graph.  The budget counts materialized walks across all calls; going
    over raises rather than truncating.
    """

    def __init__(self, m: np.ndarray, max_walks: int = MAX_ORACLE_WALKS):
        self.m = validate_cost_matrix(m)
        self.n = self.m.shape[0]
        if self.n > MAX_ORACLE_NODES:
            raise EnumerationLimitError(
                f"walk enumeration is limited to {MAX_ORACLE_NODES} nodes, got {self.n}"
            )
        self.max_walks = max_walks
        self._budget = max_walks
        self._memo: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def walks(self, i: int, j: int, max_node_bound: int | None = None) -> list[VisitableWalk]:
        if i == j:
            raise ValidationError("walk enumeration requires distinct endpoints")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValidationError(f"pair ({i}, {j}) out of range")
        bound = self.n - 1 if max_node_bound is None else max_node_bound
        return [
            VisitableWalk(
                nodes=w,
                cost=path_cost(self.m, w),
                highest_intermediate=max(w[1:-1]) if len(w) > 2 else None,
            )
            for w in self._walks(i, j, bound)
        ]

    def _walks(self, a, b, bound) -> list[tuple[int, ...]]:
        key = (a, b, bound)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        if np.isfinite(self.m[a, b]):
            out.append((a, b))
            seen.add((a, b))
        for h in range(bound + 1):
            if h == a or h == b:
                continue
            for left in self._walks(a, h, h - 1):
                for right in self._walks(h, b, h - 1):
                    walk = left + right[1:]
                    if walk not in seen:
                        seen.add(walk)
                        out.append(walk)
                        self._budget -= 1
                        if self._budget < 0:
                            raise EnumerationLimitError(
                                f"walk enumeration exceeded {self.max_walks} walks"
                            )
        self._memo[key] = out
        return out


def enumerate_visitable_walks(
    m: np.ndarray,
    i: int,
    j: int,
    max_node_bound: int | None = None,
    max_walks: int = MAX_ORACLE_WALKS,
) -> list[VisitableWalk]:
    """All visitable walks i -> j with intermediate pivots <= max_node_bound."""
    return WalkEnumerator(m, max_walks=max_walks).walks(i, j, max_node_bound)


def maxent_distribution(walks, beta: float) -> dict[tuple[int, ...], float]:
    """Boltzmann distribution over walks: P(w) proportional to exp(-beta*cost)."""
    if not walks:
        raise ValidationError("maxent_distribution requires at least one walk")
    costs = np.array([w.cost for w in walks])
    logits = -float(beta) * (costs - costs.min())
    probs = np.exp(logits)
    probs /= probs.sum()
    return {w.nodes: float(p) for w, p in zip(walks, probs)}


def walk_cost_census(walks) -> dict[float, int]:
    """Multiset of walk costs, rounded to 9 decimals for stable keys."""
    census: dict[float, int] = {}
    for w in walks:
        key = round(w.cost, 9)
        census[key] = census.get(key, 0) + 1
    return census


def verify_distance_consistency(m: np.ndarray, beta: float,
                                max_walks: int = MAX_ORACLE_WALKS) -> float:
    """Max deviation between engine distances and walk-space smooth mins.

    Compares off-diagonal pairs; a pair unreachable on one side but not the
    other yields inf.
    """
    enum = WalkEnumerator(m, max_walks=max_walks)
    n = enum.n
    _, dist, _ = datasp_forward_efficient(m, beta)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            walks = enum.walks(i, j)
            if not walks:
                if np.isfinite(dist[i, j]):
                    return float("inf")
                continue
            expected = softmin_value([w.cost for w in walks], beta)
            worst = max(worst, abs(dist[i, j] - expected))
    return worst


def shortcut_probabilities_from_walks(walks, beta: float, i: int, n: int) -> np.ndarray:
    """Expected shortcut row P[i, j, :] from an enumerated walk list."""
    probs = maxent_distribution(walks, beta)
    by_walk = {w.nodes: w for w in walks}
    row = np.zeros(n)
    for nodes, p in probs.items():
        w = by_walk[nodes]
        slot = i if w.highest_intermediate is None else w.highest_intermediate
        row[slot] += p
    return row


def verify_shortcut_consistency(m: np.ndarray, beta: float,
                                max_walks: int = MAX_ORACLE_WALKS) -> float:
    """Max deviation between the engine's P and walk-space Boltzmann ratios."""
    enum = WalkEnumerator(m, max_walks=max_walks)
    n = enum.n
    p, _, _ = datasp_forward_efficient(m, beta)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            walks = enum.walks(i, j)
            if not walks:
                worst = max(worst, float(np.abs(p[i, j, :]).max()))
                continue
            expected = shortcut_probabilities_from_walks(walks, beta, i, n)
            worst = max(worst, float(np.abs(p[i, j, :] - expected).max()))
    return worst


def sampler_total_variation(
    tape: EngineTape,
    i: int,
    j: int,
    num_samples: int,
    rng,
) -> float:
    """TV distance between Monte-Carlo path frequencies and the walk-space
    max-entropy distribution for a single pair, on the tape's input matrix
    and beta."""
    from .inference import monte_carlo_path_distribution

    walks = enumerate_visitable_walks(tape.m_input, i, j)
    if not walks:
        raise ValidationError(f"pair ({i}, {j}) has no visitable walks")
    theory = maxent_distribution(walks, tape.beta)
    estimate = monte_carlo_path_distribution(tape, i, j, num_samples, rng, reject_cycles=False)
    support = set(theory) | set(estimate.frequencies)
    return 0.5 * sum(
        abs(theory.get(w, 0.0) - estimate.frequencies.get(w, 0.0)) for w in support
    )


def finite_difference_gradcheck(func, analytic_grad, x, step: float = 1e-5) -> float:
    """Max relative error between analytic_grad and central differences of func.

    Differences are taken per finite coordinate of x; the relative error
    denominator is floored at 1e-8.
    """
    x = np.asarray(x, dtype=float)
    analytic = np.asarray(analytic_grad, dtype=float)
    if analytic.shape != x.shape:
        raise ValidationError("analytic gradient shape must match input shape")
    worst = 0.0
    flat = x.ravel()
    for idx in range(flat.size):
        if not np.isfinite(flat[idx]):
            continue
        bumped = x.copy().ravel()
        bumped[idx] = flat[idx] + step
        f_plus = func(bumped.reshape(x.shape))
        bumped[idx] = flat[idx] - step
        f_minus = func(bumped.reshape(x.shape))
        fd = (f_plus - f_minus) / (2.0 * step)
        g = analytic.ravel()[idx]
        err = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
        worst = max(worst, err)
    return worst
