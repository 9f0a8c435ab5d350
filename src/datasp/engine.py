"""Differentiable all-to-all shortest paths.

`sweep` runs a smoothed Floyd-Warshall sweep: for each pivot node k in
ascending order, every pair (i, j) replaces its running cost with the smooth
min of that cost and the two-hop cost through k.  The final matrix D holds
the smooth minimum of the costs of all visitable walks per pair.  Redundant
updates are skipped: i == j (self loops), i == k or k == j (direct paths are
fixed at initialization), and pairs whose two-hop cost through k is
infinite.  One pivot is `smoothing.pivot` and its adjoint
`smoothing.pivot_adjoint`; node exclusion (`graph.sample_subgraph`) runs the
same pivot on ever smaller trailing blocks of a matrix whose removed nodes
come first, and so does a training sweep (below), so the sweep, the backward
sweep and exclusion share one update and one adjoint.

The shortcut tensor P[i, j, k] is the probability that k is the highest
intermediate node on an i -> j walk, and P[i, j, i] the probability of the
direct edge.  The softmin weights a pair collects over the sweep telescope,
so log P has a closed form in values the sweep already passes through:

    log P[i, j, k] = -beta * (C[i, k] + R[k, j] - D[i, j])   for k not in {i, j}
    log P[i, j, i] = -beta * (M[i, j] - D[i, j])

where C[:, k] and R[k, :] are column k and row k of the running matrix just
before pivot k, and M is the input matrix.  A slot whose P underflows keeps
a finite log P; only a slot with no walk reads -inf.  The sweep keeps C, R
and the running matrix, O(V^2) each, in an `EngineTape`.  Its pivots share
one `smoothing.Workspace`, which grows to at most three V x V float buffers,
one V x V bool mask and an index of V entries.

A query reads one source row s of D, and a training step D[i, j], C[i, k]
and R[k, j] at the triples its trajectories observe; `sweep(m, beta,
sources)` keeps what they read.  The sweep is Gaussian elimination over the
(smooth min, +) semiring (Carre, "An algebra for network routing problems",
1971): pivot k' updates each entry from its row's entry in column k' and
its column's entry in row k'.  Once pivot k has passed, row k and column k
feed no entry outside them, so a node can leave the matrix right after its
own pivot, as `graph.sample_subgraph` removes one.  A training sweep keeps
U, the nodes that appear as an i or a j of its triples, and eliminates
every other node.  It stores the matrix in `graph.sample_subgraph`'s order,
the nodes outside U ascending and then U ascending, and runs pivot k, still
in ascending k, on the trailing live block cur[t:, t:], t the number of
nodes outside U below k: a node outside U leaves the block after its own
pivot, and its row and column are never touched again.  That is about
V^3/3 + |U| V^2 updates, not V^3.  A query keeps every column, in natural
order, and retires each row but its source's after that row's pivot (writes
NaN; later pivots skip it), about V^3/2 + V^2 updates.  The full sweep is
the training sweep of every node.  `EngineTape` lists the entries a
restricted tape keeps, each with the full sweep's bits.

log P needs no softmin weights, but the backward needs those of every
pivot.  A training sweep computes them for its first pivots and keeps each
one's (rows, w_via) step, charged the floats it holds (its rows times the
live block's width), while they fit `graph.BLOCK_FLOATS` floats in all.
From the first pivot that does not fit on, it computes no weights and
snapshots the live block every ceil(sqrt(V)) pivots instead, O(V^2.5)
floats at most.  A query's tape, the only other kind, keeps neither.

The closed form has one home.  `shortcut_costs(tape, i, j, k)` returns the
costs in it, C[i, k] + R[k, j] with M[i, j] where k == i, and
`log_shortcuts(tape, i, j, k)` log P itself, each at broadcastable index
arrays, so one expression serves every shape a caller reads:

- training: log P at the triples its trajectories observe, 1-D arrays
  `at=(i, j, k)` given to `datasp_forward_efficient`;
- the dense V x V x V log P: the same call without `at`, on the open grid
  `np.ogrid[:V, :V, :V]`, which only the tests and the benchmark's engine
  sweep read;
- the queries in `inference`: rows or single slots of pairs out of one
  source node, read from a query tape of `sweep`, and the oracle check,
  read from any tape, so no V^3 array is allocated for them.

Any entry is therefore bit-equal to the same entry of the dense log P.
`datasp_forward_efficient` is `sweep` plus log P at `at` or on the grid, and
its tape holds the log P it returned.  The backward pass, which needs such a
tape, moves the upstream gradient on log P (in the shape of that log P) onto
D, C, R and the direct slots, by axis sums of a dense gradient or a scatter
of a 1-D one, then runs one reverse sweep over the pivots, each on the same
live block of the gradient as in the forward.  It reads the kept steps and
recomputes each other segment's from the snapshot of its live block:
checkpointing within a float budget, as in Griewank & Walther, "Algorithm
799: revolve" (ACM TOMS 2000).  The closed form and its adjoint follow
Mensch & Blondel, "Differentiable Dynamic Programming for Structured
Prediction and Attention" (ICML 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .smoothing import INF, Workspace, check_beta, pivot, pivot_adjoint
from .graph import BLOCK_FLOATS, validate_cost_matrix


@dataclass
class EngineTape:
    """What queries and the adjoint need: O(V^2) arrays plus the kept steps
    and the snapshots of the segments the backward re-runs.

    `shortcut_costs` and `log_shortcuts` read the closed form from any
    tape.  A tape from `datasp_forward_efficient` also holds the log P it
    returned, whose -inf slots the backward leaves out (it must not be
    modified in place), and the triples `at` it was evaluated at: a 1-D log P
    at the training loss's observed triples, or the dense V x V x V log P (at
    None) that the tests and the benchmark's engine sweep read.  A tape from
    `sweep` holds neither.

    `kept_nodes` marks the nodes that stay in the live block past their own
    pivot (the others are eliminated), and `kept_rows` the rows of D kept
    past it.  A query (one node index s) keeps every node and row s.  A
    training tape keeps U, the nodes of `sweep`'s array (every node for the
    full sweep) or the i and j of `datasp_forward_efficient`'s triples, as
    both.  A restricted tape holds only these entries, each bit-equal to
    the full sweep's:

    - D at kept_rows x kept_nodes, `dist[np.ix_(kept_rows, kept_nodes)]`;
    - C[a, k] where a is a kept row or a >= k (C[k, k] is the diagonal, inf);
    - R[k, b] where b is a kept node or b >= k;
    - all of `m_input`.

    Every other entry of `dist`, `col` and `row` is NaN, so a reader that
    strays outside them gets NaN rather than a plausible cost.

    The backward needs the step, `pivot`'s (rows, w_via), of every pivot.  A
    training tape keeps those of pivots 0 to len(steps) - 1, as many as hold
    at most `graph.BLOCK_FLOATS` floats of w_via in all.  It holds the live
    block before pivots len(steps), len(steps) + stride, ..., in storage
    order (`_layout`), as `snapshots`: the segments the backward re-runs.  A
    query's tape holds no steps and no snapshots.
    """

    beta: float
    size: int
    m_input: np.ndarray
    col: np.ndarray        # col[:, k] = column k of the running matrix before pivot k
    row: np.ndarray        # row[k, :] = row k of the running matrix before pivot k
    dist: np.ndarray
    stride: int
    snapshots: list[np.ndarray]  # live block before the pivots of each re-run segment
    kept_rows: np.ndarray  # kept_rows[a]: row a of D outlives its pivot
    kept_nodes: np.ndarray  # kept_nodes[a]: node a stays in the live block
    steps: list[tuple[np.ndarray, np.ndarray]]  # `pivot`'s (rows, w_via) of the first pivots
    log_p: np.ndarray | None = None
    at: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def shortcut_costs(tape: EngineTape, i, j, k) -> np.ndarray:
    """Walk costs C[i, k] + R[k, j] at the broadcastable index arrays
    (i, j, k), with the direct cost M[i, j] where k == i; a new array in
    their broadcast shape.  Slot k == j reads inf (R[j, j] is the diagonal).
    """
    costs = tape.col[i, k] + tape.row[k, j]
    np.copyto(costs, tape.m_input[i, j], where=k == i)
    return costs


def log_shortcuts(tape: EngineTape, i, j, k) -> np.ndarray:
    """log P[i, j, k] = -beta * (costs - D[i, j]) at the broadcastable index
    arrays (i, j, k), costs from `shortcut_costs`; a new array."""
    # A pair at infinite distance (i == j, or unreachable) takes D = -inf,
    # which sends every slot of it, finite cost or not, to -inf; a NaN D (a
    # pair a restricted tape does not keep) stays NaN.
    d = tape.dist[i, j]
    log_p = shortcut_costs(tape, i, j, k)
    log_p -= np.where(d == INF, -INF, d)
    log_p *= -tape.beta
    return log_p


def _check_triples(at, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """at as three 1-D integer arrays of one length, with entries in [0, n)."""
    try:
        i, j, k = (np.asarray(a) for a in at)
    except (TypeError, ValueError):
        raise ValidationError("at must be three index arrays (i, j, k)") from None
    triples = (i, j, k)
    if any(a.ndim != 1 or a.shape != i.shape or a.dtype.kind not in "iu" for a in triples):
        raise ValidationError("at must be three 1-D integer arrays of one length")
    if i.size and (min(a.min() for a in triples) < 0 or max(a.max() for a in triples) >= n):
        raise ValidationError(f"a triple of at lies outside the {n} nodes")
    return i.astype(np.intp), j.astype(np.intp), k.astype(np.intp)


def _layout(kept_nodes: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """Where a sweep that eliminates the nodes outside kept_nodes stores
    them: (order, position, offset).  The matrix is stored in `order`, the
    eliminated nodes ascending and then the kept ones ascending, as
    `graph.sample_subgraph` stores removed and kept nodes; position[a] is
    node a's index in it.  Pivot k runs on the trailing live block
    [offset[k]:, offset[k]:], offset[k] the number of eliminated nodes
    below k, which no longer holds them.  position and offset are lists,
    read once per pivot."""
    gone = ~kept_nodes
    order = np.concatenate([np.flatnonzero(gone), np.flatnonzero(kept_nodes)])
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return order, position.tolist(), (np.cumsum(gone) - gone).tolist()


def sweep(m: np.ndarray, beta: float, sources=None) -> EngineTape:
    """The smoothed Floyd-Warshall sweep: D, C, R, the kept steps and the
    snapshots.

    For a fixed pivot k the (i, j) updates are independent: row k and
    column k are never written during iteration k (those pairs are skipped
    as redundant), so each pivot is one batched in-place operation on its
    live block.

    `sources` is one node index (a query: every node is kept, and every row
    but the source's retired after its pivot), a 1-D integer array of the
    nodes U a training step reads (repeats allowed; every node outside U is
    eliminated after its pivot, and an empty array keeps none, so D is all
    NaN), or None, np.arange(V), the full sweep.  A training sweep runs its
    first pivots with weights and keeps their steps while they fit
    `graph.BLOCK_FLOATS` floats; its values keep their bits either way.
    The tape holds what `EngineTape` lists.
    """
    m_input = validate_cost_matrix(m).copy()
    beta = check_beta(beta)
    n = m_input.shape[0]
    s = np.arange(n) if sources is None else np.asarray(sources)
    if s.ndim > 1 or s.dtype.kind not in "iu" or (s.size and not 0 <= s.min() <= s.max() < n):
        raise ValidationError(f"sources must be a node index in [0, {n}) or a 1-D "
                              f"integer array of them, got {sources!r}")
    kept_rows = np.zeros(n, dtype=bool)
    kept_rows[s] = True
    training = s.ndim == 1
    kept_nodes = kept_rows.copy() if training else np.ones(n, dtype=bool)
    retired = (kept_nodes & ~kept_rows).tolist()  # a query's rows but its source's
    order, position, offset = _layout(kept_nodes)
    r = n - np.count_nonzero(kept_nodes)
    stride = max(1, math.ceil(math.sqrt(n)))
    col = np.full((n, n), np.nan)  # in storage order until the sweep ends
    row = np.full((n, n), np.nan)
    snapshots = []
    steps = []
    held = 0  # floats of w_via in the kept steps
    keeping = training
    cur = m_input[np.ix_(order, order)] if r else m_input.copy()  # order is the identity
    work = Workspace()
    for k in range(n):
        t = offset[k]
        block = cur[t:, t:] if t else cur
        p = position[k] - t
        if keeping and held + block.size > BLOCK_FLOATS:  # the step may not fit: count its rows
            rows = np.count_nonzero(np.isfinite(block[:, p]))
            keeping = held + rows * block.shape[1] <= BLOCK_FLOATS
        # The re-run segments start at the first step not kept.  The first
        # live block of a sweep that eliminates nothing is the input.
        if training and not keeping and (k - len(steps)) % stride == 0:
            snapshots.append(block.copy() if k or r else m_input)
        col[t:, k] = block[:, p]
        row[k, t:] = block[p]
        step = pivot(block, p, beta, work, weights=keeping)
        if keeping:
            steps.append(step)
            held += step[1].size
        if retired[k]:
            block[p] = np.nan
    if r:  # back to natural order, NaN at the eliminated nodes
        cur[:r] = cur[:, :r] = np.nan
        cur = cur[np.ix_(position, position)]
        col = col[position]
        row = row[:, position]
    return EngineTape(beta=beta, size=n, m_input=m_input, col=col, row=row, dist=cur,
                      stride=stride, snapshots=snapshots, kept_rows=kept_rows,
                      kept_nodes=kept_nodes, steps=steps)


def datasp_forward_efficient(m: np.ndarray, beta: float, at=None
                             ) -> tuple[np.ndarray, np.ndarray, EngineTape]:
    """Forward pass: returns (log shortcut tensor log P, distances D, tape).

    log P is `log_shortcuts` of the sweep's tape.  With at = (i, j, k),
    three equal-length integer arrays, it is the 1-D array of log P[i, j, k]
    at those triples, from a training sweep that keeps U, the nodes of i and
    j, so D is NaN outside U x U; without, the full sweep's dense log P on
    the open grid np.ogrid[:V, :V, :V], the one V^3 array this allocates.
    """
    n = validate_cost_matrix(m).shape[0]
    triples = None if at is None else _check_triples(at, n)
    tape = sweep(m, beta, None if at is None else np.concatenate(triples[:2]))
    tape.at = triples
    tape.log_p = log_shortcuts(tape, *(np.ogrid[:n, :n, :n] if at is None else triples))
    return tape.log_p, tape.dist, tape


def _shortcut_adjoint(tape: EngineTape, grad_log_p: np.ndarray):
    """Reduce G = grad_log_p, zero where log P = -inf, through the closed
    form: returns (g_dist, g_col, g_row, g_direct), the V x V gradients on D,
    C, R and the direct slots, each before its factor of beta."""
    n = tape.size
    g = np.where(np.isfinite(tape.log_p), grad_log_p, 0.0)
    if tape.at is None:
        nodes = np.arange(n)
        direct = (nodes[:, None], nodes[None, :], nodes[:, None])
        g_direct = g[direct]
        g_dist = g.sum(axis=2)
        g[direct] = 0.0
        return g_dist, g.sum(axis=1), g.sum(axis=0).T, g_direct
    i, j, k = tape.at
    is_direct = k == i
    g_via = np.where(is_direct, 0.0, g)

    def scatter(rows, cols, weights, along):
        # Each bin adds its terms in ascending `along`: the order of the
        # dense sums over axes 1 and 0, so C and R get the dense path's bits.
        # The dense sum over k is pairwise, and D's bits match it wherever a
        # pair observes at most two slots.
        order = np.argsort(along, kind="stable")
        flat = rows[order] * n + cols[order]
        # bincount counts in int64 when there is nothing to add
        sums = np.bincount(flat, weights[order], minlength=n * n).astype(float, copy=False)
        return sums.reshape(n, n)

    return (scatter(i, j, g, k), scatter(i, k, g_via, j), scatter(k, j, g_via, i),
            scatter(i, j, np.where(is_direct, g, 0.0), k))


def datasp_backward(tape: EngineTape, grad_log_p: np.ndarray, grad_m: np.ndarray) -> np.ndarray:
    """Reverse-mode adjoint: gradients of a scalar loss w.r.t. the input matrix.

    tape must come from `datasp_forward_efficient`, and grad_log_p / grad_m
    are the upstream gradients w.r.t. the log P and D it returned, grad_log_p
    in the shape of that log P and ignored where log P = -inf.  Through the
    closed form, G = grad_log_p moves beta * sum_k G[i, j, k] onto D[i, j],
    -beta * G[i, j, k] onto C[i, k] and R[k, j], and -beta * G[i, j, i] onto
    the input entry M[i, j].  The reverse sweep then carries the
    running-matrix gradient back through each pivot, on the live block the
    forward ran it on (`_layout`), adding the C and R gradients of pivot k
    as it passes.  It takes the steps the tape keeps and re-runs every other
    segment from the snapshot of its live block, in a buffer the size of the
    first snapshot, the largest live block it re-runs.  It ignores
    grad_m outside kept_nodes x kept_nodes, where D is NaN; an eliminated
    node's gradient is exactly zero until its own pivot.
    """
    if tape.log_p is None:
        raise ValidationError("the backward needs the tape of datasp_forward_efficient; "
                              "a sweep's tape holds no shortcut tensor")
    n = tape.size
    grad_log_p = np.asarray(grad_log_p, dtype=float)
    grad_m = np.asarray(grad_m, dtype=float)
    if grad_log_p.shape != tape.log_p.shape or grad_m.shape != (n, n):
        raise ValidationError(
            f"upstream gradients must have shapes {tape.log_p.shape} and {(n, n)}, "
            f"got {grad_log_p.shape} and {grad_m.shape}"
        )
    beta = tape.beta
    order, position, offset = _layout(tape.kept_nodes)
    r = n - np.count_nonzero(tape.kept_nodes)
    g_dist, g_col, g_row, g_direct = _shortcut_adjoint(tape, grad_log_p)
    # g, g_col's rows and g_row's columns in storage order
    g = np.zeros((n, n))
    g[r:, r:] = (grad_m + beta * g_dist)[np.ix_(order[r:], order[r:])]
    g_col = -beta * g_col[order]    # [a, k]
    g_row = -beta * g_row[:, order]  # [k, b]

    def adjoint(k, step):
        t = offset[k]
        p = position[k] - t
        block = g[t:, t:]
        block[:, p] += g_col[t:, k]
        block[p] += g_row[k, t:]
        pivot_adjoint(block, p, step, work)

    kept = len(tape.steps)
    work, buffer = Workspace(), np.empty(tape.snapshots[0].size if tape.snapshots else 0)
    for start, snapshot in reversed(list(zip(range(kept, n, tape.stride), tape.snapshots))):
        cur = buffer[:snapshot.size].reshape(snapshot.shape)
        np.copyto(cur, snapshot)
        segment = range(start, min(start + tape.stride, n))
        steps = []
        for k in segment:  # cur holds the live block from index offset[start] on
            t = offset[k] - offset[start]
            steps.append(pivot(cur[t:, t:], position[k] - offset[k], beta, work, weights=True))
        for k in reversed(segment):
            adjoint(k, steps[k - start])
    for k in reversed(range(kept)):
        adjoint(k, tape.steps[k])

    if r:
        g = g[np.ix_(position, position)]
    g -= beta * g_direct
    g[~np.isfinite(tape.m_input)] = 0.0
    return g
