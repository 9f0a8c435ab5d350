"""Brute-force reference implementations for consistency checking.

The canonical walk space is defined recursively, mirroring the support of
the path sampler: a walk from a to b with pivot bound t is either the
direct edge a -> b, or, for some highest node h <= t with h not in {a, b},
a walk a -> h with bound h - 1 concatenated with a walk h -> b with bound
h - 1.  The engine's smoothed distances equal the smooth min of exactly
these walk costs, and its shortcut tensor equals ratios of Boltzmann
sums over them grouped by highest intermediate node.

Entry points: `WalkEnumerator(m).walks(i, j, bound)` lists one pair's
visitable walks; `maxent_distribution` and `walk_cost_census` read a walk
list; `engine_deviations` compares the engine's D and P with the walk space
after one `engine.sweep`, reading each pair's row of log P through
`engine.log_shortcuts`, so it builds no V^3 array;
`total_variation` compares two walk distributions; and
`finite_difference_gradcheck` (componentwise) and `normwise_gradient_error`
compare an analytic gradient with central differences.

Everything here is exponential-time by design and guarded; it is used by
tests and the `verify` command, never in training.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, ValidationError
from .graph import validate_cost_matrix, path_cost
from .smoothing import softmin_value
from .engine import log_shortcuts, sweep

# MAX_ORACLE_NODES refuses a large graph before enumerating; the bound that
# holds in practice is MAX_ORACLE_WALKS, which a 6-node generated graph
# already exceeds over all its pairs.
MAX_ORACLE_NODES = 10
MAX_ORACLE_WALKS = 1_000_000


@dataclass(frozen=True)
class VisitableWalk:
    nodes: tuple[int, ...]
    cost: float
    highest_intermediate: int | None  # None for a direct edge


class WalkEnumerator:
    """Memoized recursive enumeration of the visitable walk space.

    One instance amortizes the (pair, bound) sub-results over every pair of
    a graph, and builds each (pair, bound) list of `VisitableWalk`s once, so
    every check on one graph can share it.  Returned lists are shared and
    must not be mutated.  The budget counts materialized walks across all
    calls; going over raises rather than truncating.
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
        self._visitable: dict[tuple[int, int, int], list[VisitableWalk]] = {}

    def walks(self, i: int, j: int, max_node_bound: int | None = None) -> list[VisitableWalk]:
        if i == j:
            raise ValidationError("walk enumeration requires distinct endpoints")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValidationError(f"pair ({i}, {j}) out of range")
        key = (i, j, self.n - 1 if max_node_bound is None else max_node_bound)
        if key not in self._visitable:
            self._visitable[key] = [
                VisitableWalk(
                    nodes=w,
                    cost=path_cost(self.m, w),
                    highest_intermediate=max(w[1:-1]) if len(w) > 2 else None,
                )
                for w in self._walks(*key)
            ]
        return self._visitable[key]

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
                                f"walk enumeration exceeded {self.max_walks} walks, counted "
                                f"over every pair and pivot bound enumerated on this graph"
                            )
        self._memo[key] = out
        return out


def _boltzmann(walks, beta: float) -> np.ndarray:
    """P(w) proportional to exp(-beta * cost), in the order of `walks`."""
    if not walks:
        raise ValidationError("maxent_distribution requires at least one walk")
    costs = np.array([w.cost for w in walks])
    probs = np.exp(-float(beta) * (costs - costs.min()))
    return probs / probs.sum()


def maxent_distribution(walks, beta: float) -> dict[tuple[int, ...], float]:
    """Boltzmann distribution over walks: P(w) proportional to exp(-beta*cost)."""
    return {w.nodes: float(p) for w, p in zip(walks, _boltzmann(walks, beta))}


def walk_cost_census(walks) -> dict[float, int]:
    """Multiset of walk costs, rounded to 9 decimals for stable keys."""
    return dict(Counter(round(w.cost, 9) for w in walks))


def engine_deviations(enum: WalkEnumerator, beta: float) -> tuple[float, float]:
    """(distance_dev, shortcut_dev): max deviations of the engine's D and P
    on `enum.m` from the walk-space smooth mins and Boltzmann ratios.

    Runs one `sweep` and reads each pair's row P[i, j, :] through
    `log_shortcuts`.  Compares off-diagonal pairs; a pair unreachable in the
    walk space but at finite engine distance gives a distance deviation of
    inf.
    """
    n = enum.n
    tape = sweep(enum.m, beta)
    dist = tape.dist
    distance_dev = shortcut_dev = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            walks = enum.walks(i, j)
            p_row = np.exp(log_shortcuts(tape, i, j, np.arange(n)))
            if not walks:
                if np.isfinite(dist[i, j]):
                    distance_dev = float("inf")
                shortcut_dev = max(shortcut_dev, float(p_row.max()))
                continue
            expected = softmin_value([w.cost for w in walks], beta)
            distance_dev = max(distance_dev, abs(float(dist[i, j]) - expected))
            # P[i, j, :] is the Boltzmann mass of the walks grouped by highest
            # intermediate node, slot i holding the direct edge.
            slots = [i if w.highest_intermediate is None else w.highest_intermediate
                     for w in walks]
            expected_row = np.bincount(slots, weights=_boltzmann(walks, beta), minlength=n)
            row_dev = np.abs(p_row - expected_row)
            shortcut_dev = max(shortcut_dev, float(row_dev.max()))
    return distance_dev, shortcut_dev


def total_variation(theory: dict, frequencies: dict) -> float:
    """Total-variation distance between two walk distributions, each a dict
    of walk -> probability."""
    support = set(theory) | set(frequencies)
    return 0.5 * sum(abs(theory.get(w, 0.0) - frequencies.get(w, 0.0)) for w in support)


def _differences(func, analytic_grad, x, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(fd, g): central differences of func and the analytic gradient, at
    the finite coordinates of x."""
    x = np.asarray(x, dtype=float)
    analytic = np.asarray(analytic_grad, dtype=float)
    if analytic.shape != x.shape:
        raise ValidationError("analytic gradient shape must match input shape")
    flat = x.ravel()
    coords = np.flatnonzero(np.isfinite(flat))
    fd = np.empty(coords.size)
    for pos, idx in enumerate(coords):
        bumped = flat.copy()
        bumped[idx] = flat[idx] + step
        f_plus = func(bumped.reshape(x.shape))
        bumped[idx] = flat[idx] - step
        f_minus = func(bumped.reshape(x.shape))
        fd[pos] = (f_plus - f_minus) / (2.0 * step)
    return fd, analytic.ravel()[coords]


def finite_difference_gradcheck(func, analytic_grad, x, step: float = 1e-5) -> float:
    """Max componentwise relative error between analytic_grad and central
    differences of func.

    Differences are taken per finite coordinate of x; the relative error
    denominator is floored at 1e-8.
    """
    fd, g = _differences(func, analytic_grad, x, step)
    err = np.abs(fd - g) / np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-8)
    return float(err.max(initial=0.0))


def normwise_gradient_error(func, analytic_grad, x, step: float = 1e-5) -> float:
    """Normwise relative error max|fd - g| / max(max|fd|, max|g|) between
    analytic_grad g and central differences fd of func, over the finite
    coordinates of x.

    Unlike the componentwise error, the round-off of the differences is not
    judged against coordinates whose true gradient is near zero.
    """
    fd, g = _differences(func, analytic_grad, x, step)
    scale = max(float(np.abs(fd).max(initial=0.0)), float(np.abs(g).max(initial=0.0)))
    return float(np.abs(fd - g).max()) / scale if scale > 0 else 0.0
