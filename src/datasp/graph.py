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

`distances_to` is the one hard-distance routine, a Dijkstra over a block of
edge-cost rows on one graph, each row searched towards its own target,
advanced together one settled node per row a round; a round relaxes only the
in-edges of each row's settled node (`Graph.in_edges`).  `dijkstra` stops
each row once its source's distance is settled with some margin, and walks
the row's lexicographically smallest best path from those distances over
out-edges (`Graph.out_edges`).  Gen searches its trajectories and eval its
best paths (through `inference.expected_optimal_path`) by block, one block
per `search_slices` slice of their records, whose costs and search state
fill at most BLOCK_FLOATS floats; the exp-negative-distance destination
prior and the generator's connectivity check pass a block of one.  No search
builds a cost matrix.  The all-pairs hard-min reference that tests compare
the engine's beta -> inf limit against, and the dense search over (B, V, V)
cost matrices that the edge search must match, live with the tests.

Node exclusion reconnects the neighbors of each removed node through local
smooth mins.  `draw_kept_nodes` picks the nodes a training step keeps, so a
step can rewrite its paths through `kept_node_map` and skip before any
exclusion runs; `sample_subgraph` then excludes the rest in ascending
`Graph.elimination_rank`, a minimum-degree order built once per graph that
keeps the fill, and so each pivot's rows, few.  With the removed nodes
permuted first, removed node t is the engine's smoothed Floyd-Warshall
pivot (`smoothing.pivot`) on the trailing block cur[t:, t:], which no longer
holds the nodes removed before it; the last block is the compressed matrix,
the smooth min over the walks through removed nodes that are visitable under
that order, and `smoothing.pivot_adjoint` run in reverse over the same
blocks (`Compression.backward`) is its gradient.

Training excludes a chunk of anchors at once: their (B, V, V) stack, kept
sets of one size, permuted into one (V, B, V) array x, step t pivoting all
of them on x[t:, :, t:].reshape(-1, V - t), each step's weights a plain array.
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
    def in_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, nodes), read-only (V, D) int arrays built once per graph by
        its first search: row u holds the index and the tail v of each edge
        v -> u, ascending in v, padded to the largest in-degree D with edge 0
        and node u itself."""
        return self._incidence(1)

    @functools.cached_property
    def out_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, nodes) as `in_edges`, for the edges u -> v out of each node u,
        ascending in v, padded with edge 0 and node u itself."""
        return self._incidence(0)

    def _incidence(self, end: int) -> tuple[np.ndarray, np.ndarray]:
        """The edges whose end `end` (0 tail, 1 head) is each node, by the
        other end; see `in_edges`."""
        ea, n = self._edge_array, self.num_nodes
        order = np.lexsort((ea[:, 1 - end], ea[:, end]))
        node = ea[order, end]
        counts = np.bincount(node, minlength=n)
        slot = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        edges = np.zeros((n, counts.max(initial=0)), dtype=np.int64)
        nodes = np.repeat(np.arange(n)[:, None], edges.shape[1], axis=1)
        edges[node, slot] = order
        nodes[node, slot] = ea[order, 1 - end]
        edges.flags.writeable = nodes.flags.writeable = False
        return edges, nodes

    @functools.cached_property
    def undirected_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbor ids of each node, ignoring edge direction; built
        on first use, since only subgraph sampling reads it."""
        nbrs: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(tuple(sorted(s)) for s in nbrs)

    @functools.cached_property
    def elimination_rank(self) -> np.ndarray:
        """Position of each node in a minimum-degree elimination order of
        the edge pattern (George & Liu, SIAM Review 1989), a read-only int
        array built once per graph, by the first exclusion that removes a node.

        Each step eliminates the remaining node with the fewest in-entries
        times out-entries in the fill graph, the smallest id on a tie, and
        adds a fill edge i -> j (i != j) from each of its in-neighbors i to
        each out-neighbor j, the entries its pivot makes finite; it updates
        only the degrees of those rows and columns.
        """
        n = self.num_nodes
        fill = np.zeros((n, n), dtype=bool)
        fill[self._edge_array[:, 0], self._edge_array[:, 1]] = True
        ins, outs = fill.sum(axis=0), fill.sum(axis=1)
        score = ins * outs
        rank = np.empty(n, dtype=np.int64)
        for t in range(n):
            k = int(score.argmin())
            rank[k], score[k] = t, n * n  # above any remaining node's score
            src, dst = fill[:, k].nonzero()[0], fill[k].nonzero()[0]
            fill[src, k] = fill[k, dst] = False
            fill[src, src] = True  # so that no self-loop counts as fill
            block = np.ix_(src, dst)
            new = ~fill[block]
            fill[block] = True
            fill[src, src] = False
            outs[src] += new.sum(axis=1) - 1  # less the entry of k
            ins[dst] += new.sum(axis=0) - 1
            touched = np.concatenate((src, dst))
            score[touched] = ins[touched] * outs[touched]
        rank.flags.writeable = False
        return rank

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


def check_edge_costs(costs, graph: Graph) -> np.ndarray:
    """costs as a float array of the graph's E edge costs, or of B rows of
    them, each finite and strictly positive.  A fault is named in the order
    NaN, -inf, then any other cost that is not finite and positive."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim not in (1, 2) or costs.shape[-1] != graph.num_edges:
        raise ValidationError(
            f"expected {graph.num_edges} edge costs, got shape {costs.shape}"
        )
    if costs.size and not (costs.min() > 0.0 and costs.max() < INF):  # false at NaN
        if np.isnan(costs).any():
            raise ValidationError("edge costs contain NaN")
        if (costs == -INF).any():
            raise ValidationError("edge costs must not be -inf")
        raise ValidationError("edge costs must be finite and strictly positive")
    return costs


def build_cost_matrix(edge_costs, graph: Graph) -> np.ndarray:
    """Dense cost matrix with inf off-edges and an inf diagonal.

    A (B, E) array of edge-cost rows gives the (B, V, V) block of their
    matrices.
    """
    costs = check_edge_costs(edge_costs, graph)
    m = np.full(costs.shape[:-1] + (graph.num_nodes, graph.num_nodes), INF)
    if graph.num_edges:
        ea = graph.edge_array()
        m[..., ea[:, 0], ea[:, 1]] = costs
    return m


def validate_cost_matrix(m: np.ndarray) -> np.ndarray:
    """Shape/diagonal/NaN/-inf checks.

    Matrices built from edge costs are always positive, but node-exclusion
    smooth mins undershoot the hard min by up to ln(2)/beta, so compressed
    matrices can legitimately carry nonpositive entries at small beta; the
    smoothing recursions are sign-agnostic.  The hard searches, which rely
    on positive costs, take edge costs (`check_edge_costs`).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"cost matrix must be square, got shape {m.shape}")
    return _check_entries(m)


def _check_entries(m: np.ndarray) -> np.ndarray:
    """The entry checks of `validate_cost_matrix` on a (..., V, V) array: m > -inf
    is false exactly at NaN and -inf."""
    if not (m > -INF).all():
        if np.isnan(m).any():
            raise ValidationError("cost matrix contains NaN")
        raise ValidationError("cost entries must not be -inf")
    if np.isfinite(np.diagonal(m, axis1=-2, axis2=-1)).any():
        raise ValidationError("diagonal entries must be inf (no self-loops)")
    return m


def path_cost(m: np.ndarray, path) -> float:
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        total += m[u, v]
    return float(total)


# The floats one block of work holds: a block of hard searches
# (`search_slices`), a training chunk's exclusion steps, a training tape's
# kept weights.
BLOCK_FLOATS = 2 ** 18


def block_floats(num_nodes: int) -> int:
    """The floats of as many whole V x V matrices as fit BLOCK_FLOATS (one at least)."""
    return max(1, BLOCK_FLOATS // (num_nodes * num_nodes)) * num_nodes * num_nodes


def block_slices(count: int, num_nodes: int) -> list[slice]:
    """Consecutive slices of range(count), each at most BLOCK_FLOATS // V^2
    long (at least 1): the blocks in which eval predicts costs."""
    size = block_floats(num_nodes) // (num_nodes * num_nodes)
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def search_slices(count: int, graph: Graph) -> list[slice]:
    """Consecutive slices of range(count), each at most BLOCK_FLOATS // (E + 3V)
    long (at least 1): the blocks in which gen and eval search, a record
    taking its E edge costs and the V distances, settled marks and keys of
    its search."""
    size = max(1, BLOCK_FLOATS // (graph.num_edges + 3 * graph.num_nodes))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def distances_to(costs, graph: Graph, targets, sources) -> np.ndarray:
    """Hard shortest distance from every node to the target of each row of a
    (B, E) block of edge costs on the graph (inf if unreachable): row b of
    the (B, V) result holds the distances to targets[b] under costs[b].

    Dijkstra on all B rows at once: each round settles, in every row, the
    open node u with the smallest tentative distance and relaxes only the
    edges v -> u into it (`Graph.in_edges`), through flat indices into the
    block's costs and distances; a padding slot relaxes u itself, which a
    positive cost cannot lower.  Costs must be finite and strictly positive
    (see `check_edge_costs`).  Then each node is settled at its final
    distance, in the order and with the additions of a dense search of the
    row's cost matrix alone, and relaxing a settled node again cannot lower
    it, so the relaxation needs no mask.

    With `sources` None a row ends once its open nodes are all unreachable.
    Else row b also ends once its smallest open key exceeds the stop
    dist[s] + 2n t max(1, dist[s]), s = sources[b] and t = 1e-12: every
    node whose distance is at most the stop is settled, and every other one
    keeps a tentative distance no lower than its final one.  The stop covers
    the walk of `dijkstra`.  From node u the walk accepts w only if
    c(u, w) + dist[w] <= dist[u] + t max(1, dist[u]); as c(u, w) > 0, then
    dist[w] < dist[u] + t' max(1, dist[u]), with t' = 1.001 t covering the
    rounding of both sides.  So max(1, dist) grows by a factor of at most
    1 + t' a step, and whatever step k of the walk can accept lies below
    dist[s] + k t' (1 + t')^k max(1, dist[s]).  A walk takes at most n - 1
    steps, and (n - 1) t' (1 + t')^(n - 1) < 2n t, so each node a step can
    accept is settled, with the distance a dense search gives it; each
    other node fails the step's test under its final distance, and so under
    its tentative one too.
    Finished rows are dropped from the search once they make up a quarter
    of it.
    """
    n, num_edges = graph.num_nodes, graph.num_edges
    in_edges, in_nodes = graph.in_edges
    flat_costs = np.reshape(costs, -1)
    b = len(targets)
    out = np.full((b, n), INF)
    out[np.arange(b), targets] = 0.0
    live = np.arange(b)  # the block's rows still searching
    dist = out  # theirs: tentative while open, final once settled
    settled = np.zeros((b, n))  # +inf once settled, so argmin skips the node
    key = np.empty((b, n))
    starts = None if sources is None else np.asarray(sources)
    row_at, cost_at = np.arange(0, b * n, n), (live * num_edges)[:, None]  # flat offsets
    for _ in range(n):
        np.add(dist, settled, out=key)
        u = key.argmin(axis=1)
        at = row_at + u
        d = key.reshape(-1)[at]
        settled.reshape(-1)[at] = INF
        cand = flat_costs[cost_at + in_edges[u]]
        cand += d[:, None]
        flat, flat_dist = row_at[:, None] + in_nodes[u], dist.reshape(-1)  # views: contiguous
        flat_dist[flat] = np.minimum(flat_dist[flat], cand)
        done = d == INF
        if starts is not None:
            reach = flat_dist[row_at + starts]
            done |= d > reach + 2 * n * 1e-12 * np.maximum(1.0, reach)
        count = np.count_nonzero(done)
        if count == len(live):
            break
        if 4 * count < len(live):
            settled[done] = INF  # a finished row settles nothing more
            continue
        keep = ~done
        out[live[done]] = dist[done]
        live, dist, settled = live[keep], dist[keep], settled[keep]
        key, row_at, cost_at = key[:len(live)], row_at[:len(live)], (live * num_edges)[:, None]
        starts = None if starts is None else starts[keep]
    if dist is not out:
        out[live] = dist
    return out


def dijkstra(costs, graph: Graph, ends) -> list[tuple[list[int] | None, float]]:
    """Minimum-cost path of each (source, target) pair of `ends` under the
    edge costs of the same row of the (B, E) block `costs` on the graph,
    with ties broken by the lexicographically smallest node sequence.

    Returns one (path, cost) per pair; (None, inf) when the target is
    unreachable.  The tie-break is realized by computing exact
    distances-to-target (`distances_to`, one search for the block, each row
    ending a margin beyond its source) and then greedily walking from each
    source, always taking the smallest-indexed out-neighbour that stays on
    an optimal path (`Graph.out_edges`); the walks advance together.  The
    costs are checked once, by `check_edge_costs`.
    """
    costs = check_edge_costs(costs, graph)
    if costs.ndim != 2:
        raise ValidationError(f"expected a block of edge-cost rows, got shape {costs.shape}")
    b, n = len(costs), graph.num_nodes
    ends = np.asarray(ends, dtype=np.int64)
    if ends.shape != (b, 2):
        raise ValidationError(f"expected {b} (source, target) pairs, got shape {ends.shape}")
    if ((ends < 0) | (ends >= n)).any():
        raise ValidationError(f"source/target out of range for {n} nodes")
    sources, targets = ends[:, 0], ends[:, 1]

    rows = np.arange(b)
    dist_to = distances_to(costs, graph, targets, sources)
    totals = dist_to[rows, sources]  # 0 where source == target
    reachable = np.isfinite(totals)
    paths = [[s] for s in sources.tolist()]
    at = np.where(reachable, sources, targets)  # an unreachable pair walks nowhere
    out_edges, out_nodes = graph.out_edges
    for _ in range(n - 1):  # a best path has at most n - 1 edges
        walking = np.flatnonzero(at != targets)
        if not walking.size:
            break
        u = at[walking]
        remaining = dist_to[walking, u]
        tol = 1e-12 * np.maximum(1.0, np.abs(remaining))
        heads = out_nodes[u]
        step = costs[walking[:, None], out_edges[u]] + dist_to[walking[:, None], heads]
        on_path = (step <= (remaining + tol)[:, None]) & (heads != u[:, None])  # not padding
        pick = np.arange(walking.size), on_path.argmax(axis=1)
        if not on_path[pick].all():
            raise ValidationError("optimal successor not found; inconsistent distances")
        at[walking] = nxt = heads[pick]
        for row, v in zip(walking.tolist(), nxt.tolist()):
            paths[row].append(v)
    if (at != targets).any():
        raise ValidationError("optimal path exceeded node count; nonpositive costs?")
    return [(path, total) if ok else (None, INF)
            for path, total, ok in zip(paths, totals.tolist(), reachable.tolist())]


@dataclass
class Compression:
    """Result of excluding the removed nodes, in ascending elimination rank,
    from a (V, V) matrix, or from a stack (then `matrix` is (B, n, n) and
    `kept` and `removed` hold one list per matrix).

    steps[t] is the compact step (rows, finite, values) of `pivot` for each
    matrix's removed[t] on the interleaved trailing blocks whose nodes are
    removed[t:] + kept; values is a plain array of the two-hop weights.
    """

    matrix: np.ndarray
    kept: list
    removed: list
    steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def floats(self) -> np.ndarray:
        """The weights the steps hold for each matrix of the stack."""
        stack = self.steps[0][1].shape[0] if self.steps else 1
        return sum((np.bincount(rows % stack, minlength=stack) * finite.sum(axis=1)
                    for rows, finite, _ in self.steps), np.zeros(stack))

    def backward(self, grad_compressed: np.ndarray) -> np.ndarray:
        """Chain a gradient w.r.t. the compressed matrix (a stack of them)
        back to the full one (to the stack)."""
        g = np.asarray(grad_compressed, dtype=float)
        orders = [r + k for r, k in (zip(self.removed, self.kept) if g.ndim == 3
                                     else [(self.removed, self.kept)])]
        b, r, n = len(orders), len(self.steps), len(orders[0])
        grad = np.zeros((n, b, n))
        grad[r:, :, r:] = g.reshape(b, n - r, n - r).transpose(1, 0, 2)
        work = Workspace()
        for t in reversed(range(r)):
            pivot_adjoint(grad[t:, :, t:].reshape(-1, n - t), 0, self.steps[t], work)
        out = np.empty((b, n, n))
        for i, inverse in enumerate(map(np.argsort, orders)):
            out[i] = grad[:, i][np.ix_(inverse, inverse)]
        return out if g.ndim == 3 else out[0]


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

    The nodes are permuted to the order removed + kept, the removed ones in
    ascending `graph.elimination_rank` and the kept ones ascending, and
    removed node t is the engine's pivot through index 0 of the trailing
    block cur[t:, t:], which holds no node removed before t: deleting each
    removed node from a shrinking matrix, operand for operand.  The
    compressed matrix is the last block cur[r:, r:]: the smooth min over the
    walks through removed nodes that are visitable (`oracle` module) with
    the rank in place of the node id.  m may also be a (B, V, V) stack with
    one kept set per matrix; each compressed matrix keeps its bits.
    """
    n = graph.num_nodes
    single = np.ndim(m) == 2
    matrices, kept_sets = (np.asarray(m, dtype=float)[None], [kept]) if single else (m, kept)
    if np.shape(matrices)[1:] != (n, n) or len(kept_sets) != len(matrices):
        raise ValidationError("cost matrix size does not match graph")
    removed, kept = [], []
    for keep in map(set, kept_sets):
        if not keep <= set(range(n)):
            raise ValidationError(f"kept nodes must lie in [0, {n}), got {sorted(keep)}")
        removed.append(sorted(set(range(n)) - keep, key=lambda x: graph.elimination_rank[x]))
        kept.append([x for x in range(n) if x in keep])
    r = len(removed[0])
    if any(len(nodes) != r for nodes in removed):
        raise ValidationError("every matrix of a stack must keep as many nodes")
    _check_entries(np.asarray(matrices))
    beta = check_beta(beta)
    b = len(kept)
    cur = np.empty((n, b, n))  # a copy: pivot writes in place
    for i, order in enumerate(map(list.__add__, removed, kept)):
        cur[:, i] = matrices[i][np.ix_(order, order)]
    del m, matrices  # a caller that keeps no reference frees its stack here
    work, steps = Workspace(), []
    for t in range(r):
        live = cur[t:, :, t:].reshape(-1, n - t)
        rows, w_via = pivot(live, 0, beta, work, weights=True)
        finite = np.isfinite(live[:b])  # the pivot rows, which the pivot leaves as they were
        steps.append((rows, finite, w_via[finite[rows % b]]))
    matrix = cur[r:, :, r:].transpose(1, 0, 2).copy()
    if single:
        matrix, removed, kept = matrix[0], removed[0], kept[0]
    return Compression(matrix=matrix, kept=kept, removed=removed, steps=steps)


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
