"""Graph structure, cost matrices, classical shortest-path references, and
node-exclusion compression.

Cost matrices are dense (V, V) float64 arrays.  A finite entry (i, j) is the
cost of edge i -> j; +inf marks an absent edge; the diagonal is always inf
(self-loops are never considered).  All operations here are pure: they return
new arrays and never mutate their inputs.

Node exclusion reconnects the neighbors of each removed node through local
smooth mins.  That is the engine's smoothed Floyd-Warshall pivot
(`smoothing.pivot`) run over the removed nodes in ascending order, each
followed by setting the removed node's row and column to inf; the kept
block of the result is the compressed matrix, and `smoothing.pivot_adjoint`
run in reverse is its gradient.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .smoothing import INF, check_beta, pivot, pivot_adjoint


class Graph:
    """Directed graph on nodes 0..num_nodes-1 with an ordered edge list.

    The edge ordering is significant: per-edge vectors (costs, priors) are
    aligned with it.  Instances are treated as immutable after construction.
    """

    def __init__(self, num_nodes: int, edges):
        if num_nodes <= 0:
            raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.edges: tuple[tuple[int, int], ...] = tuple((int(u), int(v)) for u, v in edges)
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"self-loop edge ({u}, {v}) is not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValidationError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        self._edge_array = np.array(self.edges, dtype=np.int64).reshape(len(self.edges), 2)
        self._edge_index = {e: i for i, e in enumerate(self.edges)}

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """(E, 2) int array of (u, v) pairs, aligned with the edge ordering."""
        return self._edge_array

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    def undirected_neighbors(self) -> list[set[int]]:
        """Adjacency sets ignoring edge direction."""
        nbrs: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.num_nodes == other.num_nodes
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def complete_graph(num_nodes: int) -> Graph:
    edges = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v]
    return Graph(num_nodes, edges)


def graph_from_json_dict(doc: dict) -> tuple[Graph, np.ndarray | None, np.ndarray | None]:
    """Build (graph, prior_costs, node_positions) from a graph JSON document.

    Document schema: {"num_nodes": int, "directed": bool, "edges": [[u, v], ...],
    "prior_costs": [float, ...] (optional), "node_positions": [[x, y], ...]
    (optional)}.  An undirected document is expanded to symmetric directed
    edges, duplicating the prior of each listed edge.  When prior_costs is
    absent but node_positions is present, priors default to the Euclidean
    distance between edge endpoints.
    """
    try:
        num_nodes = int(doc["num_nodes"])
        raw_edges = [(int(u), int(v)) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph document: {exc}") from exc
    directed = bool(doc.get("directed", True))
    prior = doc.get("prior_costs")
    positions = doc.get("node_positions")

    if positions is not None:
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (num_nodes, 2):
            raise ValidationError(
                f"node_positions must have shape ({num_nodes}, 2), got {positions.shape}"
            )

    if prior is not None and len(prior) != len(raw_edges):
        raise ValidationError(
            f"prior_costs has {len(prior)} entries for {len(raw_edges)} edges"
        )

    edges: list[tuple[int, int]] = []
    expanded_prior: list[float] = []
    for idx, (u, v) in enumerate(raw_edges):
        per_edge = None
        if prior is not None:
            per_edge = float(prior[idx])
        elif positions is not None:
            per_edge = float(np.hypot(*(positions[u] - positions[v])))
        directions = [(u, v)] if directed else [(u, v), (v, u)]
        for e in directions:
            edges.append(e)
            if per_edge is not None:
                expanded_prior.append(per_edge)

    graph = Graph(num_nodes, edges)
    prior_arr = np.asarray(expanded_prior, dtype=float) if expanded_prior else None
    if prior_arr is not None and (prior_arr < 0).any():
        raise ValidationError("prior costs must be nonnegative")
    return graph, prior_arr, positions


def load_graph_json(path) -> tuple[Graph, np.ndarray | None, np.ndarray | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))


def graph_to_json_dict(graph: Graph, prior=None, positions=None) -> dict:
    doc: dict = {
        "num_nodes": graph.num_nodes,
        "directed": True,
        "edges": [[u, v] for u, v in graph.edges],
    }
    if prior is not None:
        doc["prior_costs"] = [float(x) for x in prior]
    if positions is not None:
        doc["node_positions"] = [[float(x), float(y)] for x, y in positions]
    return doc


def build_cost_matrix(edge_costs, graph: Graph) -> np.ndarray:
    """Dense cost matrix with inf off-edges and an inf diagonal."""
    costs = np.asarray(edge_costs, dtype=float)
    if costs.shape != (graph.num_edges,):
        raise ValidationError(
            f"expected {graph.num_edges} edge costs, got shape {costs.shape}"
        )
    if graph.num_edges and (not np.isfinite(costs).all() or (costs <= 0).any()):
        raise ValidationError("edge costs must be finite and strictly positive")
    m = np.full((graph.num_nodes, graph.num_nodes), INF)
    if graph.num_edges:
        ea = graph.edge_array()
        m[ea[:, 0], ea[:, 1]] = costs
    return m


def validate_cost_matrix(m: np.ndarray, positive: bool = False) -> np.ndarray:
    """Shape/diagonal/NaN checks; `positive` additionally requires every
    finite entry to be strictly positive.

    Matrices built from edge costs are always positive, but node-exclusion
    smooth mins undershoot the hard min by up to ln(2)/beta, so compressed
    matrices can legitimately carry nonpositive entries at small beta; the
    smoothing recursions are sign-agnostic, only path algorithms that rely
    on nonnegativity (Dijkstra) insist on `positive`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"cost matrix must be square, got shape {m.shape}")
    if np.isnan(m).any():
        raise ValidationError("cost matrix contains NaN")
    if (m == -INF).any():
        raise ValidationError("cost entries must not be -inf")
    finite = np.isfinite(m)
    if positive and (m[finite] <= 0).any():
        raise ValidationError("finite cost entries must be strictly positive")
    if finite.diagonal().any():
        raise ValidationError("diagonal entries must be inf (no self-loops)")
    return m


def classical_floyd_warshall(m: np.ndarray) -> np.ndarray:
    """All-pairs shortest distances, the hard-min reference for the engine.

    Runs the textbook relaxation, including i == j, so the diagonal of the
    result is the cheapest cycle cost (inf when no cycle exists).
    """
    dist = validate_cost_matrix(m).copy()
    for k in range(dist.shape[0]):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def path_cost(m: np.ndarray, path) -> float:
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        total += m[u, v]
    return float(total)


def dijkstra(m: np.ndarray, source: int, target: int) -> tuple[list[int] | None, float]:
    """Minimum-cost path with ties broken by the lexicographically smallest
    node sequence.

    Returns (path, cost); (None, inf) when the target is unreachable.  The
    tie-break is realized by computing exact distances-to-target and then
    greedily walking from the source, always taking the smallest-indexed
    next node that stays on an optimal path.
    """
    m = validate_cost_matrix(m, positive=True)
    n = m.shape[0]
    if not (0 <= source < n and 0 <= target < n):
        raise ValidationError(f"source/target out of range for {n} nodes")
    if source == target:
        return [source], 0.0

    dist_to = _dijkstra_distances(m.T, target)
    total = dist_to[source]
    if not math.isfinite(total):
        return None, INF

    path = [source]
    u = source
    for _ in range(n):
        if u == target:
            return path, float(total)
        remaining = dist_to[u]
        tol = 1e-12 * max(1.0, abs(remaining))
        nxt = -1
        for v in range(n):
            if math.isfinite(m[u, v]) and m[u, v] + dist_to[v] <= remaining + tol:
                nxt = v
                break
        if nxt < 0:
            raise ValidationError("optimal successor not found; inconsistent distances")
        path.append(nxt)
        u = nxt
    raise ValidationError("optimal path exceeded node count; nonpositive costs?")


def _dijkstra_distances(m: np.ndarray, source: int) -> np.ndarray:
    n = m.shape[0]
    dist = np.full(n, INF)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        row = m[u]
        for v in range(n):
            w = row[v]
            if math.isfinite(w) and d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


@dataclass
class Compression:
    """Result of excluding the removed nodes, in ascending order.

    steps[t] is the (rows, w_via) pair `pivot` returned for removed[t];
    node_map sends an original node id to its compressed index, or -1 when
    the node was removed.
    """

    matrix: np.ndarray
    kept: list[int]
    removed: list[int]
    steps: list[tuple[np.ndarray, np.ndarray]]
    node_map: np.ndarray

    def backward(self, grad_compressed: np.ndarray) -> np.ndarray:
        """Chain a gradient w.r.t. the compressed matrix back to the full one."""
        n = self.node_map.size
        grad = np.zeros((n, n))
        grad[np.ix_(self.kept, self.kept)] = grad_compressed
        for k, step in zip(reversed(self.removed), reversed(self.steps)):
            pivot_adjoint(grad, k, step)
        return grad


def exclude_nodes(m: np.ndarray, removed, beta: float) -> Compression:
    """Remove nodes, reconnecting their neighbors through local smooth mins.

    For each removed node k in ascending order this is the engine's pivot
    through k, after which row k and column k are set to inf.  The
    compressed matrix is the block of the kept nodes.  After pivot k no
    later update of the kept block reads row k or column k, and the inf
    knock-out also takes k out of every later pivot, so this equals
    deleting k from a shrinking matrix.  The gradient that reaches a
    knocked-out entry is 0, so the adjoint is `pivot_adjoint` alone.
    """
    m = validate_cost_matrix(m)
    beta = check_beta(beta)
    n = m.shape[0]
    removed = sorted(int(k) for k in removed)
    if any(not 0 <= k < n for k in removed):
        raise ValidationError(f"removed nodes must lie in [0, {n}), got {removed}")
    if len(set(removed)) != len(removed):
        raise ValidationError(f"removed nodes must be distinct, got {removed}")

    # validate_cost_matrix returns the caller's array; pivot writes in place.
    cur = m.copy()
    steps = []
    for k in removed:
        steps.append(pivot(cur, k, beta))
        cur[k, :] = INF
        cur[:, k] = INF

    kept = sorted(set(range(n)) - set(removed))
    node_map = np.full(n, -1, dtype=np.int64)
    node_map[kept] = np.arange(len(kept))
    return Compression(matrix=cur[np.ix_(kept, kept)], kept=kept, removed=removed,
                       steps=steps, node_map=node_map)


def sample_subgraph(
    graph: Graph,
    m: np.ndarray,
    keep_count: int,
    node_frequencies,
    rng_seed: int,
    beta: float,
) -> Compression:
    """Pick keep_count nodes and exclude the rest.

    Half of the kept set (rounded up) is grown as a connected subgraph by a
    randomized BFS from a frequency-weighted seed node; the remainder is
    drawn without replacement with probability proportional to
    node_frequencies.  Deterministic for a given rng_seed.
    """
    n = graph.num_nodes
    if np.shape(m) != (n, n):
        raise ValidationError("cost matrix size does not match graph")
    if not (2 <= keep_count <= n):
        raise ValidationError(f"keep_count must be in [2, {n}], got {keep_count}")
    freqs = np.asarray(node_frequencies, dtype=float)
    if freqs.shape != (n,) or (freqs < 0).any():
        raise ValidationError("node_frequencies must be nonnegative with one entry per node")

    kept: set[int] = set(range(n))
    if keep_count < n:
        rng = np.random.default_rng(rng_seed)
        kept = _grow_connected(graph, freqs, math.ceil(keep_count / 2), rng)
        remaining = sorted(set(range(n)) - kept)
        extra = keep_count - len(kept)
        if extra > 0:
            weights = freqs[remaining] + 1e-9
            weights = weights / weights.sum()
            chosen = rng.choice(len(remaining), size=extra, replace=False, p=weights)
            kept.update(remaining[int(c)] for c in chosen)
    return exclude_nodes(m, set(range(n)) - kept, beta)


def _grow_connected(graph: Graph, freqs: np.ndarray, target_size: int, rng) -> set[int]:
    """Randomized BFS growth of a connected node set of the requested size.

    Falls back to reseeding from untouched nodes when a component is
    exhausted, so the result always has target_size nodes (the set is then
    connected per component).
    """
    n = graph.num_nodes
    nbrs = graph.undirected_neighbors()
    total = freqs.sum()
    weights = freqs + (1e-9 if total > 0 else 1.0)
    tree: set[int] = set()
    frontier: list[int] = []

    def reseed() -> None:
        candidates = [v for v in range(n) if v not in tree]
        w = weights[candidates]
        seed = candidates[int(rng.choice(len(candidates), p=w / w.sum()))]
        tree.add(seed)
        for v in sorted(nbrs[seed]):
            if v not in tree and v not in frontier:
                frontier.append(v)

    reseed()
    while len(tree) < target_size:
        if not frontier:
            reseed()
            continue
        pick = frontier.pop(int(rng.integers(len(frontier))))
        if pick in tree:
            continue
        tree.add(pick)
        for v in sorted(nbrs[pick]):
            if v not in tree and v not in frontier:
                frontier.append(v)
    return tree
