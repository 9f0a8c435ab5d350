"""Graph structure, cost matrices, hard shortest paths, and node-exclusion
compression.

Cost matrices are dense (V, V) float64 arrays.  A finite entry (i, j) is the
cost of edge i -> j; +inf marks an absent edge; the diagonal is always inf
(self-loops are never considered).  All operations here are pure: they return
new arrays and never mutate their inputs.

Graph documents are checked as arrays.  `graph_from_json_dict` checks the
types of each decoded list with one set of its entries' types (a bool or
1.0 is not a node id) and converts the list once; `Graph` then finds the
first self-loop, out-of-range or repeated edge in list order on the (E, 2)
array.  The messages are those a per-edge check in list order gives, also
for ids beyond int64 and prior costs beyond float64.

`distances_to` is the one hard-distance routine, a dense Dijkstra over a
block: a (B, V, V) stack of cost matrices, each searched towards its own
target, advanced together one settled node per matrix a round.  `dijkstra`
walks each matrix's lexicographically smallest best path from those
distances.  Gen searches its trajectories and eval its best paths (through
`inference.expected_optimal_path`) by block, one block per `block_slices`
slice of their records, whose matrices fill at most BLOCK_FLOATS floats; the
exp-negative-distance destination prior and the generator's connectivity
check pass a block of one.  The all-pairs hard-min reference that tests
compare the engine's beta -> inf limit against lives with the tests.

Node exclusion reconnects the neighbors of each removed node through local
smooth mins.  `draw_kept_nodes` picks the nodes a training step keeps, so a
step can rewrite its paths through `kept_node_map` and skip before any
exclusion runs; `sample_subgraph` then excludes the rest.  With the removed
nodes permuted first, removed node t is the engine's smoothed Floyd-Warshall
pivot (`smoothing.pivot`) on the trailing block cur[t:, t:], which no longer
holds the nodes removed before it; the last block is the compressed matrix,
and `smoothing.pivot_adjoint` run in reverse over the same blocks
(`Compression.backward`) is its gradient.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, is_int, is_real
from .smoothing import INF, Workspace, check_beta, pivot, pivot_adjoint


class Graph:
    """Directed graph on nodes 0..num_nodes-1 with an ordered edge list.

    The edge ordering is significant: per-edge vectors (costs, priors) are
    aligned with it.  Instances are treated as immutable after construction.
    `edges` is a sequence of (u, v) pairs or an (E, 2) int array.
    """

    def __init__(self, num_nodes: int, edges):
        if num_nodes <= 0:
            raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        ends = _int_array(edges).reshape(len(edges), 2)
        u, v = ends[:, 0], ends[:, 1]
        order = np.lexsort((v, u))  # stable: a repeat sorts after its first occurrence
        repeat = np.zeros(len(ends), dtype=bool)
        repeat[order[1:][(ends[order[1:]] == ends[order[:-1]]).all(axis=1)]] = True
        bad = (u == v) | (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes) | repeat
        if bad.any():
            u, v = ends[bad.argmax()]
            if u == v:
                raise ValidationError(f"self-loop edge ({u}, {v}) is not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValidationError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            raise ValidationError(f"duplicate edge ({u}, {v})")
        self._edge_array = np.asarray(ends, dtype=np.int64)
        self._edge_array.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return len(self._edge_array)

    def edge_array(self) -> np.ndarray:
        """(E, 2) read-only int array of (u, v) pairs, aligned with the edge
        ordering."""
        return self._edge_array

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) pairs as Python ints, in edge order; built on first use,
        since queries read only `edge_array()`."""
        return tuple(map(tuple, self._edge_array.tolist()))

    @functools.cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    def path_edges(self, path) -> list[int]:
        """Edge index of each step of a node path, in path order."""
        try:
            return [self._edge_index[step] for step in zip(path[:-1], path[1:])]
        except KeyError as exc:
            raise ValidationError(f"path step {exc.args[0]} is not an edge") from None

    @functools.cached_property
    def undirected_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbor ids of each node, ignoring edge direction; built
        on first use, since only subgraph sampling reads it."""
        nbrs: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(tuple(sorted(s)) for s in nbrs)

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def complete_graph(num_nodes: int) -> Graph:
    edges = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v]
    return Graph(num_nodes, edges)


def _int_array(values) -> np.ndarray:
    """values as an int64 array, or as an array of Python ints when one does
    not fit int64, so that checks and messages still see its exact value."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _pair_entries(value) -> list | None:
    """The entries of a list of two-entry lists, in order, or None when value
    is not one."""
    if (not isinstance(value, list) or set(map(type, value)) - {list}
            or set(map(len, value)) - {2}):
        return None
    return list(itertools.chain.from_iterable(value))


def _finite_floats(values: list) -> np.ndarray | None:
    """values as a float64 array, or None unless every one passes
    `errors.is_real`."""
    if set(map(type, values)) - {int, float}:
        return None
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an int beyond float64
        return None
    if not np.isfinite(arr).all():
        return None
    # An int just above the float64 maximum rounds down to it.
    if not all(is_real(values[i]) for i in np.flatnonzero(np.abs(arr) == sys.float_info.max)):
        return None
    return arr


def graph_from_json_dict(doc: dict) -> tuple[Graph, np.ndarray | None, np.ndarray | None]:
    """Build (graph, prior_costs, node_positions) from a graph JSON document.

    Document schema: {"num_nodes": int, "directed": bool, "edges": [[u, v], ...],
    "prior_costs": [float, ...] (optional), "node_positions": [[x, y], ...]
    (optional)}.  An undirected document is expanded to symmetric directed
    edges, duplicating the prior of each listed edge.  When prior_costs is
    absent but node_positions is present, priors default to the Euclidean
    distance between edge endpoints.
    """
    if not isinstance(doc, dict):
        raise ValidationError("a graph document must be a JSON object")
    num_nodes, raw_edges = doc.get("num_nodes"), doc.get("edges")
    if not is_int(num_nodes):
        raise ValidationError(f"num_nodes must be an integer, got {num_nodes!r}")
    ids = _pair_entries(raw_edges)
    if ids is None or set(map(type, ids)) - {int}:  # a bool is not an int here
        raise ValidationError("edges must be a list of [u, v] pairs of integer node ids")
    directed = doc.get("directed", True)
    if not isinstance(directed, bool):
        raise ValidationError(f"directed must be true or false, got {directed!r}")
    prior = doc.get("prior_costs")
    positions = doc.get("node_positions")

    if positions is not None:
        coords = _pair_entries(positions)
        coords = None if coords is None else _finite_floats(coords)
        if coords is None or len(positions) != num_nodes:
            raise ValidationError(f"node_positions must be {num_nodes} [x, y] pairs "
                                  "of finite numbers")
        positions = coords.reshape(-1, 2)

    if prior is not None:
        prior = _finite_floats(prior) if isinstance(prior, list) else None
        if prior is None:
            raise ValidationError("prior_costs must be a list of finite numbers")
        if len(prior) != len(raw_edges):
            raise ValidationError(
                f"prior_costs has {len(prior)} entries for {len(raw_edges)} edges"
            )

    ends = _int_array(ids).reshape(-1, 2)
    graph = Graph(num_nodes, ends if directed
                  else np.stack([ends, ends[:, ::-1]], axis=1).reshape(-1, 2))
    if prior is None and positions is not None:
        with np.errstate(over="ignore"):
            delta = positions[ends[:, 0]] - positions[ends[:, 1]]
            prior = np.hypot(delta[:, 0], delta[:, 1])
    prior_arr = None if prior is None else np.repeat(prior, 1 if directed else 2)
    if prior_arr is not None and not ((prior_arr >= 0) & (prior_arr < INF)).all():
        raise ValidationError("prior costs must be finite and nonnegative")
    return graph, prior_arr, positions


def load_graph_json(path) -> tuple[Graph, np.ndarray | None, np.ndarray | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))


def graph_to_json_dict(graph: Graph, prior=None, positions=None) -> dict:
    doc: dict = {
        "num_nodes": graph.num_nodes,
        "directed": True,
        "edges": graph.edge_array().tolist(),
    }
    if prior is not None:
        doc["prior_costs"] = [float(x) for x in prior]
    if positions is not None:
        doc["node_positions"] = [[float(x), float(y)] for x, y in positions]
    return doc


def build_cost_matrix(edge_costs, graph: Graph) -> np.ndarray:
    """Dense cost matrix with inf off-edges and an inf diagonal.

    A (B, E) array of edge-cost rows gives the (B, V, V) block of their
    matrices.
    """
    costs = np.asarray(edge_costs, dtype=float)
    if costs.ndim not in (1, 2) or costs.shape[-1] != graph.num_edges:
        raise ValidationError(
            f"expected {graph.num_edges} edge costs, got shape {costs.shape}"
        )
    if graph.num_edges and (not np.isfinite(costs).all() or (costs <= 0).any()):
        raise ValidationError("edge costs must be finite and strictly positive")
    m = np.full(costs.shape[:-1] + (graph.num_nodes, graph.num_nodes), INF)
    if graph.num_edges:
        ea = graph.edge_array()
        m[..., ea[:, 0], ea[:, 1]] = costs
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
    return _check_entries(m, positive)


def _check_entries(m: np.ndarray, positive: bool) -> np.ndarray:
    """The entry checks of `validate_cost_matrix` on a (..., V, V) array."""
    if np.isnan(m).any():
        raise ValidationError("cost matrix contains NaN")
    if (m == -INF).any():
        raise ValidationError("cost entries must not be -inf")
    # With NaN and -inf ruled out, an entry <= 0 is a finite one.
    if positive and (m <= 0).any():
        raise ValidationError("finite cost entries must be strictly positive")
    if np.isfinite(np.diagonal(m, axis1=-2, axis2=-1)).any():
        raise ValidationError("diagonal entries must be inf (no self-loops)")
    return m


def path_cost(m: np.ndarray, path) -> float:
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        total += m[u, v]
    return float(total)


# Cost-matrix floats one block of hard searches holds; `block_slices` cuts a
# run of records into blocks of as many V x V matrices as fit.
BLOCK_FLOATS = 2 ** 18


def block_slices(count: int, num_nodes: int) -> list[slice]:
    """Consecutive slices of range(count), each at most BLOCK_FLOATS // V^2
    long (at least 1): the blocks in which gen and eval search."""
    size = max(1, BLOCK_FLOATS // (num_nodes * num_nodes))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def distances_to(matrices: np.ndarray, targets) -> np.ndarray:
    """Hard shortest distance from every node to the target of each matrix of
    a block (inf if unreachable): row b of the (B, V) result is matrix b's
    distances to targets[b].

    Dense Dijkstra on all B matrices at once: each round settles, in every
    matrix, the open node u with the smallest tentative distance and relaxes
    every node v through its edge v -> u, with one argmin, one gather of the
    B columns u and one minimum over (B, V) arrays.  Finite entries must be
    strictly positive (see `validate_cost_matrix`).  Then each node is
    settled at its final distance, in the order and with the additions of a
    search of its matrix alone, and relaxing a settled node again cannot
    lower it, so the relaxation needs no mask; a matrix whose open nodes are
    all unreachable takes no-op rounds until the block is done.
    """
    b, n = matrices.shape[0], matrices.shape[-1]
    rows = np.arange(b)
    dist = np.full((b, n), INF)  # tentative while open, final once settled
    dist[rows, targets] = 0.0
    settled = np.zeros((b, n))  # +inf once settled, so argmin skips the node
    key = np.empty((b, n))
    for _ in range(n):
        np.add(dist, settled, out=key)
        u = key.argmin(axis=1)
        d = key[rows, u]
        settled[rows, u] = INF
        relaxed = matrices[rows, :, u]  # relaxed[b, v] = matrices[b, v, u[b]]
        relaxed += d[:, None]
        np.minimum(dist, relaxed, out=dist)
    return dist


def dijkstra(matrices: np.ndarray, ends) -> list[tuple[list[int] | None, float]]:
    """Minimum-cost path of each (source, target) pair of `ends` on the cost
    matrix at the same index of the (B, V, V) block, with ties broken by the
    lexicographically smallest node sequence.

    Returns one (path, cost) per pair; (None, inf) when the target is
    unreachable.  The tie-break is realized by computing exact
    distances-to-target (`distances_to`, one search for the block) and then
    greedily walking from each source, always taking the smallest-indexed
    next node that stays on an optimal path; the walks advance together.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValidationError(f"expected a block of square cost matrices, got shape {m.shape}")
    m = _check_entries(m, positive=True)
    b, n = m.shape[0], m.shape[1]
    ends = np.asarray(ends, dtype=np.int64)
    if ends.shape != (b, 2):
        raise ValidationError(f"expected {b} (source, target) pairs, got shape {ends.shape}")
    if ((ends < 0) | (ends >= n)).any():
        raise ValidationError(f"source/target out of range for {n} nodes")
    sources, targets = ends[:, 0], ends[:, 1]

    rows = np.arange(b)
    dist_to = distances_to(m, targets)
    totals = dist_to[rows, sources]  # 0 where source == target
    reachable = np.isfinite(totals)
    paths = [[s] for s in sources.tolist()]
    at = np.where(reachable, sources, targets)  # an unreachable pair walks nowhere
    for _ in range(n - 1):  # a best path has at most n - 1 edges
        walking = np.flatnonzero(at != targets)
        if not walking.size:
            break
        u = at[walking]
        remaining = dist_to[walking, u]
        tol = 1e-12 * np.maximum(1.0, np.abs(remaining))
        on_path = m[walking, u] + dist_to[walking] <= (remaining + tol)[:, None]
        nxt = on_path.argmax(axis=1)
        if not on_path[np.arange(walking.size), nxt].all():
            raise ValidationError("optimal successor not found; inconsistent distances")
        at[walking] = nxt
        for row, v in zip(walking.tolist(), nxt.tolist()):
            paths[row].append(v)
    if (at != targets).any():
        raise ValidationError("optimal path exceeded node count; nonpositive costs?")
    return [(path, total) if ok else (None, INF)
            for path, total, ok in zip(paths, totals.tolist(), reachable.tolist())]


@dataclass
class Compression:
    """Result of excluding the removed nodes, in ascending order.

    steps[t] is the (rows, w_via) pair `pivot` returned for removed[t] on
    the trailing block whose nodes are removed[t:] + kept, in that order.
    """

    matrix: np.ndarray
    kept: list[int]
    removed: list[int]
    steps: list[tuple[np.ndarray, np.ndarray]]

    def backward(self, grad_compressed: np.ndarray) -> np.ndarray:
        """Chain a gradient w.r.t. the compressed matrix back to the full one."""
        r = len(self.removed)
        grad = np.zeros((r + len(self.kept),) * 2)
        grad[r:, r:] = grad_compressed
        work = Workspace(max((w_via.size for _, w_via in self.steps), default=0))
        for t in reversed(range(r)):
            pivot_adjoint(grad[t:, t:], 0, self.steps[t], work)
        inverse = np.argsort(self.removed + self.kept)
        return grad[np.ix_(inverse, inverse)]


def kept_node_map(num_nodes: int, kept) -> np.ndarray:
    """Original node id -> index among the ascending kept nodes, or -1."""
    node_map = np.full(num_nodes, -1, dtype=np.int64)
    node_map[sorted(kept)] = np.arange(len(kept))
    return node_map


def draw_kept_nodes(graph: Graph, keep_count: int, node_frequencies, rng_seed: int) -> list[int]:
    """Pick keep_count nodes to keep, in ascending order.

    Half of the kept set (rounded up) is grown as a connected subgraph by a
    randomized BFS from a frequency-weighted seed node; the remainder is
    drawn without replacement with probability proportional to
    node_frequencies.  Deterministic for a given rng_seed.
    """
    n = graph.num_nodes
    if not (2 <= keep_count <= n):
        raise ValidationError(f"keep_count must be in [2, {n}], got {keep_count}")
    freqs = np.asarray(node_frequencies, dtype=float)
    if freqs.shape != (n,) or (freqs < 0).any():
        raise ValidationError("node_frequencies must be nonnegative with one entry per node")
    if keep_count == n:
        return list(range(n))
    rng = np.random.default_rng(rng_seed)
    kept = _grow_connected(graph, freqs, math.ceil(keep_count / 2), rng)
    remaining = sorted(set(range(n)) - kept)
    extra = keep_count - len(kept)
    if extra > 0:
        weights = freqs[remaining] + 1e-9
        weights = weights / weights.sum()
        chosen = rng.choice(len(remaining), size=extra, replace=False, p=weights)
        kept.update(remaining[int(c)] for c in chosen)
    return sorted(kept)


def sample_subgraph(graph: Graph, m: np.ndarray, kept, beta: float) -> Compression:
    """Exclude every node of the graph outside `kept` (see `draw_kept_nodes`),
    reconnecting their neighbors through local smooth mins.

    The nodes are permuted to the order removed + kept, each ascending, and
    removed node t is the engine's pivot through index 0 of the trailing
    block cur[t:, t:], which holds no node removed before t.  That is
    deleting each removed node from a shrinking matrix, operand for
    operand, so no pivot computes or stores entries of removed nodes.  The
    compressed matrix is the last block cur[r:, r:].
    """
    n = graph.num_nodes
    if np.shape(m) != (n, n):
        raise ValidationError("cost matrix size does not match graph")
    keep = set(kept)
    if not keep <= set(range(n)):
        raise ValidationError(f"kept nodes must lie in [0, {n}), got {sorted(keep)}")
    m = validate_cost_matrix(m)
    beta = check_beta(beta)
    removed = [x for x in range(n) if x not in keep]
    kept = [x for x in range(n) if x in keep]
    order = removed + kept
    r = len(removed)
    cur = m[np.ix_(order, order)]  # a copy: pivot writes in place
    work = Workspace(n * n)
    steps = [pivot(cur[t:, t:], 0, beta, work, weights=True) for t in range(r)]
    return Compression(matrix=cur[r:, r:].copy(), kept=kept, removed=removed, steps=steps)


def _grow_connected(graph: Graph, freqs: np.ndarray, target_size: int, rng) -> set[int]:
    """Randomized BFS growth of a connected node set of the requested size.

    Falls back to reseeding from untouched nodes when a component is
    exhausted, so the result always has target_size nodes (the set is then
    connected per component).
    """
    n = graph.num_nodes
    nbrs = graph.undirected_neighbors
    total = freqs.sum()
    weights = freqs + (1e-9 if total > 0 else 1.0)
    tree: set[int] = set()
    frontier: list[int] = []

    def grow(node: int) -> None:
        tree.add(node)
        for v in nbrs[node]:
            if v not in tree and v not in frontier:
                frontier.append(v)

    while len(tree) < target_size:
        if frontier:
            grow(frontier.pop(int(rng.integers(len(frontier)))))
        else:  # reseed from an untouched node
            candidates = [v for v in range(n) if v not in tree]
            w = weights[candidates]
            grow(candidates[int(rng.choice(len(candidates), p=w / w.sum()))])
    return tree
