"""Plain reference implementations that only tests compare against.

`pair_softmin` is the elementwise smooth min that `smoothing.pivot` must
match bit for bit, `classical_floyd_warshall` the hard all-pairs distances
that are the engine's beta -> inf limit, `dense_distances_to` and
`dense_dijkstra` the search over a block of cost matrices that the edge
search of `graph.distances_to` and `graph.dijkstra` must match bit for bit
(`edge_costs` turns a matrix into a graph and its edge costs), `finite_difference_gradcheck`
the componentwise counterpart of `oracle.normwise_gradient_error`, and
`reference_graph_from_json_dict` the per-value, per-edge reading of a graph
document that `graph.graph_from_json_dict` must match.
"""

import numpy as np

from datasp.errors import ValidationError, is_int, is_real
from datasp.graph import Graph, validate_cost_matrix
from datasp.oracle import _differences
from datasp.smoothing import INF, check_beta


def pair_softmin(a, b, beta: float):
    """Elementwise smooth min of two extended-real arrays, with both weights.

    Returns (value, weight_a, weight_b).  Positions where both inputs are
    inf yield (inf, 0, 0); callers treat those as absent branches.
    """
    beta = check_beta(beta)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa = np.isfinite(a)
    fb = np.isfinite(b)
    shift = np.where(fa & fb, np.minimum(a, b), np.where(fa, a, b))
    ea = np.zeros(np.broadcast(a, b).shape)
    eb = np.zeros_like(ea)
    # shift is finite wherever the corresponding branch is, so the
    # subtraction below never sees inf - inf.
    np.subtract(a, shift, out=ea, where=fa)
    np.subtract(b, shift, out=eb, where=fb)
    ea = np.where(fa, np.exp(-beta * ea), 0.0)
    eb = np.where(fb, np.exp(-beta * eb), 0.0)
    denom = ea + eb
    any_finite = fa | fb
    safe = np.where(any_finite, denom, 1.0)
    value = np.where(any_finite, shift - np.log(safe) / beta, INF)
    wa = np.where(any_finite, ea / safe, 0.0)
    wb = np.where(any_finite, eb / safe, 0.0)
    return value, wa, wb


def classical_floyd_warshall(m: np.ndarray) -> np.ndarray:
    """All-pairs shortest distances, the hard-min reference for the engine.

    Runs the textbook relaxation, including i == j, so the diagonal of the
    result is the cheapest cycle cost (inf when no cycle exists).
    """
    dist = validate_cost_matrix(m).copy()
    for k in range(dist.shape[0]):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def edge_costs(m: np.ndarray):
    """(graph, costs): the graph of a (V, V) matrix's finite off-diagonal
    entries, in row-major order, and their values as its edge costs."""
    u, v = np.nonzero(np.isfinite(m) & ~np.eye(len(m), dtype=bool))
    return Graph(len(m), np.stack([u, v], axis=1)), m[u, v]


def dense_distances_to(matrices: np.ndarray, targets) -> np.ndarray:
    """Hard shortest distance from every node to the target of each matrix of
    a (B, V, V) block: each round settles, in every matrix, the open node u
    with the smallest tentative distance and relaxes every node v through
    its entry (v, u), a full column per matrix."""
    b, n = matrices.shape[0], matrices.shape[-1]
    rows = np.arange(b)
    dist = np.full((b, n), INF)
    dist[rows, targets] = 0.0
    settled = np.zeros((b, n))
    key = np.empty((b, n))
    for _ in range(n):
        np.add(dist, settled, out=key)
        u = key.argmin(axis=1)
        d = key[rows, u]
        settled[rows, u] = INF
        relaxed = matrices[rows, :, u]
        relaxed += d[:, None]
        np.minimum(dist, relaxed, out=dist)
    return dist


def dense_dijkstra(matrices: np.ndarray, ends) -> list:
    """(path, cost) of each (source, target) pair on the matrix at its index,
    a block built from checked edge costs: exact distances to the target
    from `dense_distances_to`, then a walk from the source that always takes
    the smallest-indexed next node that stays on a best path, up to a
    tolerance of 1e-12 * max(1, |dist|)."""
    m = np.asarray(matrices, dtype=float)
    b, n = m.shape[0], m.shape[1]
    ends = np.asarray(ends, dtype=np.int64)
    sources, targets = ends[:, 0], ends[:, 1]
    rows = np.arange(b)
    dist_to = dense_distances_to(m, targets)
    totals = dist_to[rows, sources]
    reachable = np.isfinite(totals)
    paths = [[s] for s in sources.tolist()]
    at = np.where(reachable, sources, targets)
    for _ in range(n - 1):
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


def finite_difference_gradcheck(func, analytic_grad, x, step: float = 1e-5) -> float:
    """Max componentwise relative error between analytic_grad and central
    differences of func.

    Differences are taken per finite coordinate of x; the relative error
    denominator is floored at 1e-8.
    """
    fd, g = _differences(func, analytic_grad, x, step)
    err = np.abs(fd - g) / np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-8)
    return float(err.max(initial=0.0))


def reference_graph(num_nodes: int, edges):
    """(edges, edge_array) of a graph, checked one edge at a time in list
    order, the first bad edge raising; `graph.Graph` must agree."""
    if num_nodes <= 0:
        raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
    edges = tuple((int(u), int(v)) for u, v in edges)
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop edge ({u}, {v}) is not allowed")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValidationError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        if (u, v) in seen:
            raise ValidationError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    return edges, np.array(edges, dtype=np.int64).reshape(len(edges), 2)


def reference_graph_from_json_dict(doc):
    """(edges, edge_array, prior_costs, node_positions) of a graph document,
    each value checked with `errors.is_int` / `errors.is_real`; the same
    checks, in the same order, as `graph.graph_from_json_dict`."""
    if not isinstance(doc, dict):
        raise ValidationError("a graph document must be a JSON object")
    num_nodes, raw_edges = doc.get("num_nodes"), doc.get("edges")
    if not is_int(num_nodes):
        raise ValidationError(f"num_nodes must be an integer, got {num_nodes!r}")
    if not isinstance(raw_edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and is_int(e[0]) and is_int(e[1])
            for e in raw_edges):
        raise ValidationError("edges must be a list of [u, v] pairs of integer node ids")
    directed = doc.get("directed", True)
    if not isinstance(directed, bool):
        raise ValidationError(f"directed must be true or false, got {directed!r}")
    prior = doc.get("prior_costs")
    positions = doc.get("node_positions")

    if positions is not None:
        if not isinstance(positions, list) or not all(
                isinstance(p, list) and len(p) == 2 and is_real(p[0]) and is_real(p[1])
                for p in positions) or len(positions) != num_nodes:
            raise ValidationError(f"node_positions must be {num_nodes} [x, y] pairs "
                                  "of finite numbers")
        positions = np.array(positions, dtype=float)

    if prior is not None and (not isinstance(prior, list)
                              or not all(is_real(x) for x in prior)):
        raise ValidationError("prior_costs must be a list of finite numbers")
    if prior is not None and len(prior) != len(raw_edges):
        raise ValidationError(
            f"prior_costs has {len(prior)} entries for {len(raw_edges)} edges"
        )

    edges = [e for u, v in raw_edges for e in ([(u, v)] if directed else [(u, v), (v, u)])]
    edges, edge_array = reference_graph(num_nodes, edges)
    if prior is None and positions is not None:
        ends = np.array(raw_edges, dtype=np.int64).reshape(-1, 2)
        with np.errstate(over="ignore"):
            delta = positions[ends[:, 0]] - positions[ends[:, 1]]
            prior = np.hypot(delta[:, 0], delta[:, 1])
    prior_arr = None if prior is None else np.repeat(np.asarray(prior, dtype=float),
                                                     1 if directed else 2)
    if prior_arr is not None and not ((prior_arr >= 0) & (prior_arr < INF)).all():
        raise ValidationError("prior costs must be finite and nonnegative")
    return edges, edge_array, prior_arr, positions
