"""Path sampling and destination likelihoods read from the engine's sweep,
expected optimal paths, and evaluation metrics.

Queries take the cost matrix and beta and run `engine.sweep` themselves, not
the shortcut tensor P, with their source node: the sampler's i, destination
scoring's start node.  They read the engine's closed form from that query
tape, the sampler rows of slot costs through `engine.shortcut_costs` and
destination scoring one log P entry per destination through
`engine.log_shortcuts`, and stay inside the entries a query tape keeps
(`engine.EngineTape`): D[s, :], C[s, V-1] and R[V-1, :] for destination
scoring, and for the sampler the entries its segments read (below).
Everything stays in log space, so no V^3 array is built and no row
underflows to all zeros.  A destination prior is a plain weight vector,
checked by `destination_likelihood`.

A walk i -> j is drawn top-down over its highest-node decomposition.  The
segment (a, b, bound) draws its highest intermediate node H from row (a, b)
of P with every slot above `bound` masked out (the direct slot a stays
available even when a exceeds the bound).  A draw of H = a ends the segment
as the edge a -> b; any other H splits it into (a, H, H) and (H, b, H).  A
walk starts as the one segment (i, j, V - 1).  Because every draw inside a
half is strictly smaller than the half's pivot, the mask a row would
accumulate along a branch always equals the mask imposed by its immediate
parent, so carrying one bound per segment reproduces the tensor-masking
semantics exactly.  A segment's a is i or a node at or above its bound: a
split of (a, b, bound) gives (a, H, H) and (H, b, H), where H <= bound and
H != a.  So each unmasked slot k != a reads C[a, k] with a == i or a > k,
slot a reads M[a, b], and every slot reads a row of R: entries a source
tape of i keeps.  Masked slots are overwritten with inf before use.

The segments of a block of walks are drawn level by level: each round
builds the cumulative slot weights of its distinct (a, b, bound) once,
draws the H of every open segment from one `rng.random` call, and replaces
each split segment by its two halves, side by side, so the segments of a
walk stay in walk order.  Nothing outlives its round.  A walk's nodes are
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
from .errors import NoPathError, NumericalError, ValidationError
from .graph import (
    BLOCK_FLOATS,
    Graph,
    check_edge_costs,
    dijkstra,
    distances_to,
    validate_cost_matrix,
)
from .smoothing import INF

# Walks drawn together.  A walk's segments and node row hold a few dozen
# 8-byte entries in all, so a block stays within the float budget that
# gen and eval give a block of searches.
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


def _draw_highest(tape: EngineTape, a: np.ndarray, b: np.ndarray, bound: np.ndarray,
                  rng) -> np.ndarray:
    """The highest intermediate node of each segment (a, b, bound).

    The cumulative slot weights of each distinct segment are built once:
    slots above the bound masked out except the direct slot a, then
    exp(-beta * (cost - cheapest slot left)) summed left to right.  Each
    segment draws the count of its row's cumulative weights <= u * total for
    u = rng.random(), which is `bisect_right`, so a zero-weight slot is never
    drawn.  u < 1 keeps u * total below the total, so the count stays below V.
    """
    n = tape.size
    keys, inverse = np.unique((a * n + b) * n + bound, return_inverse=True)
    ra, rb, rbound = np.unravel_index(keys, (n, n, n))
    slots = np.arange(n)
    cum = shortcut_costs(tape, ra[:, None], rb[:, None], slots)
    # the direct slot a survives every mask
    cum[(slots > rbound[:, None]) & (slots != ra[:, None])] = INF
    cum -= cum.min(axis=1, keepdims=True)
    cum *= -tape.beta
    np.exp(cum, out=cum)
    flat = np.cumsum(cum, axis=1, out=cum).ravel()
    base = inverse * n
    x = rng.random(base.size) * flat[base + n - 1]
    lo = np.zeros(base.size, dtype=np.intp)
    hi = np.full(base.size, n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        right = flat[base + mid] <= x
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def _draw_walks(tape: EngineTape, i: int, j: int, count: int, rng) -> np.ndarray:
    """`count` walks i -> j, one row each: their nodes, padded with -1."""
    n = tape.size
    walk = np.arange(count)
    a = np.full(count, i)
    b = np.full(count, j)
    bound = np.full(count, n - 1)
    todo = walk
    while todo.size:
        h = _draw_highest(tape, a[todo], b[todo], bound[todo], rng)
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
    been drawn.  Raises ValidationError for an invalid pair, NoPathError
    for an unreachable one or when every walk was discarded, and
    NumericalError when the pair's smoothed distance is -inf or NaN (the
    walk series diverged at this beta).
    """
    if num_samples < 1:
        raise ValidationError("num_samples must be >= 1")
    m = validate_cost_matrix(m)
    n = m.shape[0]
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValidationError(f"invalid pair ({i}, {j}) for {n} nodes")
    tape = sweep(m, beta, sources=i)
    if tape.dist[i, j] == INF:
        raise NoPathError(f"pair ({i}, {j}) is unreachable")
    if not np.isfinite(tape.dist[i, j]):
        raise NumericalError(f"the smoothed distance of pair ({i}, {j}) is "
                             f"{tape.dist[i, j]} at beta={tape.beta}")
    counts: dict[tuple[int, ...], int] = {}
    accepted = attempts = 0
    cap = 100 * num_samples
    while accepted < num_samples and attempts < cap:
        size = min(num_samples - accepted, cap - attempts, WALK_BLOCK)
        accepted += _count_walks(_draw_walks(tape, i, j, size, rng), counts, reject_cycles)
        attempts += size
    if accepted == 0:
        raise NoPathError(
            f"all {attempts} sampled walks for pair ({i}, {j}) were rejected"
        )
    return PathDistributionEstimate(counts=counts, rejected_count=attempts - accepted)


def exp_negative_distance_weights(costs, graph: Graph, origin: int) -> np.ndarray:
    """Destination weights exp(-d/scale) from the hard shortest distances d
    out of the origin node under the graph's E edge costs (weight 0 where
    unreachable), scale being the mean finite distance.  The distances are
    one `graph.distances_to` search on the reversed graph, so the costs must
    be finite and strictly positive."""
    costs = check_edge_costs(costs, graph)
    if costs.ndim != 1:
        raise ValidationError(f"expected {graph.num_edges} edge costs, got shape {costs.shape}")
    if not 0 <= origin < graph.num_nodes:
        raise ValidationError(f"origin {origin} out of range for {graph.num_nodes} nodes")
    reverse = Graph(graph.num_nodes, graph.edge_array()[:, ::-1])  # same edge order
    row = distances_to(costs[None], reverse, [origin], None)[0]
    finite = np.isfinite(row)
    scale = float(row[finite].mean()) if row[finite].max() > 0 else 1.0
    return np.where(finite, np.exp(-row / max(scale, 1e-12)), 0.0)


def destination_likelihood(
    m: np.ndarray,
    beta: float,
    partial: list[int],
    weights,
) -> np.ndarray:
    """Per-node destination probabilities given a partial path on cost matrix m
    and one prior weight per node (0 excludes the node as a destination).
    Raises ValidationError unless the weights are V finite nonnegative
    numbers, at least one positive.

    The partial path's final node is swapped with index V-1 before the
    sweep, so that "the final node is the highest intermediate" is a single
    slot.  Nodes already visited (except the current one) get probability
    zero; the current node itself is scored by its direct-connection slot.
    Each destination's score is one entry of `engine.log_shortcuts`,
    log P[s, t, V-1] (log P[s, t, s] for the current node), plus its log
    weight, so destinations whose P underflows still rank.  Probabilities
    are returned in original node indexing.  Raises NumericalError when a
    destination's smoothed distance from the start is -inf or NaN.
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
    try:
        weights = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"prior weights must be numbers: {exc}") from None
    if weights.shape != (n,):
        raise ValidationError("prior weight vector size must match node count")
    if not np.isfinite(weights).all() or (weights < 0).any() or not (weights > 0).any():
        raise ValidationError("prior weights must be finite and nonnegative with at "
                              "least one positive")

    start, current = partial[0], partial[-1]
    swapped = np.arange(n)  # its own inverse: original <-> swapped index
    swapped[[current, n - 1]] = [n - 1, current]
    s = swapped[start]
    tape = sweep(m[np.ix_(swapped, swapped)], beta, sources=s)
    live = weights > 0.0
    live[partial[:-1]] = False
    nodes = np.flatnonzero(live)
    t = swapped[nodes]
    dist = tape.dist[s, t]
    if (np.isnan(dist) | (dist == -INF)).any():
        raise NumericalError(f"a smoothed distance from node {start} is -inf or NaN "
                             f"at beta={tape.beta}")
    slots = np.where(nodes == current, s, n - 1)
    log_scores = np.full(n, -INF)
    log_scores[nodes] = log_shortcuts(tape, s, t, slots) + np.log(weights[nodes])
    if not np.isfinite(log_scores).any():
        raise NoPathError("no destination has positive score under this prior")
    scores = np.exp(log_scores - log_scores.max())
    return scores / scores.sum()


def expected_optimal_path(costs, graph: Graph, ends) -> list[tuple[list[int] | None, float]]:
    """Deterministic best path of each (source, target) pair of `ends` under
    the edge costs of the same row of the (B, E) array `costs`, as `dijkstra`
    returns it.

    The rows are one block: they are searched together, and the search keeps
    about E + 3V floats per row beside them, so callers pass at most one
    `graph.search_slices` slice of records.
    """
    return dijkstra(costs, graph, ends)


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
