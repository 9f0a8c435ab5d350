"""Path sampling and destination likelihoods read from the engine's sweep,
expected optimal paths, and evaluation metrics.

Queries take the cost matrix and beta and run `engine.sweep` themselves, not
the shortcut tensor P: they read the engine's closed form from the sweep's
tape, the sampler rows of slot costs through `engine.shortcut_costs` and
destination scoring one log P entry per destination through
`engine.log_shortcuts`.  Everything stays in log space, so no V^3 array is
built and no row underflows to all zeros.

A walk i -> j is drawn top-down over its highest-node decomposition.  The
segment (a, b, bound) draws its highest intermediate node H from row (a, b)
of P with every slot above `bound` masked out (the direct slot a stays
available even when a exceeds the bound).  A draw of H = a ends the segment
as the edge a -> b; any other H splits it into (a, H, H) and (H, b, H).  A
walk starts as the one segment (i, j, V - 1).  Because every draw inside a
half is strictly smaller than the half's pivot, the mask a row would
accumulate along a branch always equals the mask imposed by its immediate
parent, so carrying one bound per segment reproduces the tensor-masking
semantics exactly.

The segments of a block of walks are drawn level by level: each round
builds or looks up the cumulative slot weights of every distinct
(a, b, bound) once, draws the H of every open segment from one
`rng.random` call, and replaces each split segment by its two halves, side
by side, so the segments of a walk stay in walk order.  A walk's nodes are
i followed by the end node of each of its segments.  Nothing is done per
draw in Python: the walks of a block are counted by sorting their node
rows.

No segment can dead-end.  A draw of H from row (a, b) has a finite cost
C[a, H] + R[H, b].  C[a, H] is the smooth min of the costs row (a, H) keeps
under the mask at H (its direct slot and the slots below H), and R[H, b] is
the same for row (H, b), so both halves have a finite slot to draw.  Weights
are taken relative to the cheapest slot left in the row, which therefore
always weighs exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import EngineTape, log_shortcuts, shortcut_costs, sweep
from .errors import NoPathError, ValidationError
from .graph import (
    BLOCK_FLOATS,
    Graph,
    build_cost_matrix,
    dijkstra,
    distances_to,
    validate_cost_matrix,
)
from .smoothing import INF

# Walks drawn together.  A walk's segments and node row hold a few dozen
# 8-byte entries in all, so a block stays within the float budget that
# gen and eval give a block of cost matrices.
WALK_BLOCK = BLOCK_FLOATS // 32


@dataclass
class PathDistributionEstimate:
    """Accepted walks and how often each was drawn; the frequencies are the
    counts over their sum, `sample_count`."""

    counts: dict[tuple[int, ...], int]
    rejected_count: int
    sample_count: int = field(init=False)
    frequencies: dict[tuple[int, ...], float] = field(init=False)

    def __post_init__(self):
        self.sample_count = sum(self.counts.values())
        self.frequencies = {w: c / self.sample_count for w, c in self.counts.items()}


class _SlotRows:
    """Cumulative slot weights of the rows (a, b, bound) drawn so far, one
    row of `cum` each, built once per sampling call by the arithmetic of a
    single row: slots above the bound masked out except the direct slot, then
    exp(-beta * (cost - cheapest slot left)) summed left to right."""

    def __init__(self, tape: EngineTape):
        self.tape = tape
        self.row_of: dict[int, int] = {}  # (a * V + b) * V + bound -> row of cum
        self.cum = np.empty((0, tape.size))

    def _rows(self, a: np.ndarray, b: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """The row of `cum` of each segment (a, b, bound), built if new."""
        n = self.tape.size
        keys, inverse = np.unique((a * n + b) * n + bound, return_inverse=True)
        keys = keys.tolist()
        new = [key for key in keys if key not in self.row_of]
        if new:
            self.row_of.update(zip(new, range(len(self.row_of), len(self.row_of) + len(new))))
            self.cum = np.concatenate([self.cum, self._build(*np.unravel_index(new, (n, n, n)))])
        return np.array([self.row_of[key] for key in keys])[inverse]

    def _build(self, a, b, bound) -> np.ndarray:
        tape = self.tape
        slots = np.arange(tape.size)
        costs = shortcut_costs(tape, a[:, None], b[:, None], slots)
        # the direct slot a survives every mask
        costs[(slots > bound[:, None]) & (slots != a[:, None])] = INF
        costs -= costs.min(axis=1, keepdims=True)
        costs *= -tape.beta
        np.exp(costs, out=costs)
        return np.cumsum(costs, axis=1, out=costs)

    def draw(self, a: np.ndarray, b: np.ndarray, bound: np.ndarray, rng) -> np.ndarray:
        """The highest intermediate node of each segment (a, b, bound): the
        count of its row's cumulative weights <= u * total for
        u = rng.random(), which is `bisect_right`, so a zero-weight slot is
        never drawn.  u < 1 keeps u * total below the total, so the count
        stays below V."""
        n = self.tape.size
        rows = self._rows(a, b, bound)
        flat = self.cum.ravel()
        base = rows * n
        x = rng.random(rows.size) * flat[base + n - 1]
        lo = np.zeros(rows.size, dtype=np.intp)
        hi = np.full(rows.size, n, dtype=np.intp)
        for _ in range(n.bit_length()):
            mid = (lo + hi) >> 1
            right = flat[base + mid] <= x
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return lo


def _draw_walks(slots: _SlotRows, i: int, j: int, count: int, rng) -> np.ndarray:
    """`count` walks i -> j, one row each: their nodes, padded with -1."""
    n = slots.tape.size
    walk = np.arange(count)
    a = np.full(count, i)
    b = np.full(count, j)
    bound = np.full(count, n - 1)
    todo = walk
    while todo.size:
        h = slots.draw(a[todo], b[todo], bound[todo], rng)
        split = h != a[todo]
        todo, h = todo[split], h[split]
        # Each split segment becomes two adjacent ones, (a, h, h) and
        # (h, b, h), which the next round draws; the others are edges.
        reps = np.ones(walk.size, dtype=np.intp)
        reps[todo] = 2
        left = np.cumsum(reps)[todo] - 2
        walk, a, b, bound = (np.repeat(x, reps) for x in (walk, a, b, bound))
        b[left] = a[left + 1] = bound[left] = bound[left + 1] = h
        todo = np.stack([left, left + 1], axis=1).ravel()
    edges = np.bincount(walk, minlength=count)
    nodes = np.full((count, edges.max() + 1), -1)
    nodes[:, 0] = i
    first = np.cumsum(edges) - edges
    nodes[walk, np.arange(walk.size) - first[walk] + 1] = b
    return nodes


def _count_walks(nodes: np.ndarray, counts: dict[tuple[int, ...], int],
                 reject_cycles: bool) -> int:
    """Add each distinct row of nodes (a walk padded with -1) to counts,
    leaving out walks with a repeated node when reject_cycles is set;
    returns the number of walks added."""
    if reject_cycles:
        ordered = np.sort(nodes, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
        nodes = nodes[~repeats.any(axis=1)]
    if not nodes.size:
        return 0
    nodes = nodes[np.lexsort(nodes.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (nodes[1:] != nodes[:-1]).any(axis=1)])
    distinct = nodes[starts]
    sizes = (distinct >= 0).sum(axis=1).tolist()
    times = np.diff(np.r_[starts, nodes.shape[0]]).tolist()
    for row, size, c in zip(distinct.tolist(), sizes, times):
        walk = tuple(row[:size])
        counts[walk] = counts.get(walk, 0) + c
    return nodes.shape[0]


def monte_carlo_path_distribution(
    m: np.ndarray,
    beta: float,
    i: int,
    j: int,
    num_samples: int,
    rng,
    reject_cycles: bool = False,
) -> PathDistributionEstimate:
    """Empirical walk distribution of i -> j from num_samples walks drawn on
    the sweep of cost matrix m at beta, in blocks of at most WALK_BLOCK
    walks, level by level (module docstring).

    With reject_cycles, walks with repeated nodes are discarded (and
    counted), and the discarded number is drawn again, round after round,
    until num_samples walks are accepted or 100 * num_samples walks have
    been drawn.  Raises ValidationError for an invalid pair and NoPathError
    for an unreachable one or when every walk was discarded.
    """
    if num_samples < 1:
        raise ValidationError("num_samples must be >= 1")
    tape = sweep(m, beta)
    n = tape.size
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValidationError(f"invalid pair ({i}, {j}) for {n} nodes")
    if not np.isfinite(tape.dist[i, j]):
        raise NoPathError(f"pair ({i}, {j}) is unreachable")
    slots = _SlotRows(tape)
    counts: dict[tuple[int, ...], int] = {}
    accepted = attempts = 0
    cap = 100 * num_samples
    while accepted < num_samples and attempts < cap:
        size = min(num_samples - accepted, cap - attempts, WALK_BLOCK)
        accepted += _count_walks(_draw_walks(slots, i, j, size, rng), counts, reject_cycles)
        attempts += size
    if accepted == 0:
        raise NoPathError(
            f"all {attempts} sampled walks for pair ({i}, {j}) were rejected"
        )
    return PathDistributionEstimate(counts=counts, rejected_count=attempts - accepted)


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
        """Weights exp(-d/scale) from the hard shortest distances d out of
        the origin node (d = 0 at the origin, weight 0 where unreachable);
        scale is the mean finite distance so the decay is unit-free.

        The distances are one dense Dijkstra, a block of one, on the
        reversed graph, so the finite entries of m must be strictly positive.
        """
        m = validate_cost_matrix(m, positive=True)
        if not 0 <= origin < m.shape[0]:
            raise ValidationError(f"origin {origin} out of range for {m.shape[0]} nodes")
        row = distances_to(m.T[None], [origin])[0]
        finite = np.isfinite(row)
        scale = float(row[finite].mean()) if row[finite].max() > 0 else 1.0
        weights = np.where(finite, np.exp(-row / max(scale, 1e-12)), 0.0)
        return cls(weights=weights, kind="exp-negative-distance")


def destination_likelihood(
    m: np.ndarray,
    beta: float,
    partial: list[int],
    prior: DestinationPrior,
) -> np.ndarray:
    """Per-node destination probabilities given a partial path on cost matrix m.

    The partial path's final node is swapped with index V-1 before the
    sweep, so that "the final node is the highest intermediate" is a single
    slot.  Nodes already visited (except the current one) get probability
    zero; the current node itself is scored by its direct-connection slot.
    Each destination's score is one entry of `engine.log_shortcuts`,
    log P[s, t, V-1] (log P[s, t, s] for the current node), plus its log
    prior, so destinations whose P underflows still rank.  Probabilities are
    returned in original node indexing.
    """
    m = validate_cost_matrix(m)
    n = m.shape[0]
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
    swapped = np.arange(n)  # its own inverse: original <-> swapped index
    swapped[[current, n - 1]] = [n - 1, current]
    tape = sweep(m[np.ix_(swapped, swapped)], beta)
    s = swapped[start]
    live = prior.weights > 0.0
    live[partial[:-1]] = False
    nodes = np.flatnonzero(live)
    t = swapped[nodes]
    slots = np.where(nodes == current, s, n - 1)
    log_scores = np.full(n, -INF)
    log_scores[nodes] = log_shortcuts(tape, s, t, slots) + np.log(prior.weights[nodes])
    if not np.isfinite(log_scores).any():
        raise NoPathError("no destination has positive score under this prior")
    scores = np.exp(log_scores - log_scores.max())
    return scores / scores.sum()


def expected_optimal_path(costs, graph: Graph, ends) -> list[tuple[list[int] | None, float]]:
    """Deterministic best path of each (source, target) pair of `ends` under
    the edge costs of the same row of the (B, E) array `costs`, as `dijkstra`
    returns it.

    The rows are one block: their B cost matrices are built and searched
    together, so callers pass at most one `block_slices` slice of records.
    """
    return dijkstra(build_cost_matrix(costs, graph), ends)


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


def optimal_cost_rate(preds, true_costs, graph: Graph, optima, rel_tol: float = 1e-9) -> float:
    """Fraction of predicted paths that are cost-optimal under the true costs.

    true_costs[k] is the edge-cost row of prediction k (contexts differ);
    a path's true cost is the sum of its edges' costs in path order.
    optima[k] is the least cost between the endpoints of preds[k] under
    true_costs[k], as `expected_optimal_path` returns it.
    """
    if not len(preds) == len(true_costs) == len(optima):
        raise ValidationError("predictions, true edge costs and optima must align")
    if not preds:
        raise ValidationError("optimal_cost_rate of an empty list")
    hits = 0
    for pred, costs, best in zip(preds, true_costs, optima):
        cost = 0.0
        for edge in graph.path_edges(pred):
            cost += costs[edge]
        if np.isfinite(best) and abs(cost - best) <= rel_tol * max(1.0, abs(best)):
            hits += 1
    return hits / len(preds)
