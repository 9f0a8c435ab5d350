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
come first, so the sweep, the backward sweep and exclusion share one update
and one adjoint.

The shortcut tensor P[i, j, k] is the probability that k is the highest
intermediate node on an i -> j walk, and P[i, j, i] the probability of the
direct edge.  The softmin weights a pair collects over the sweep telescope,
so log P has a closed form in values the sweep already passes through:

    log P[i, j, k] = -beta * (C[i, k] + R[k, j] - D[i, j])   for k not in {i, j}
    log P[i, j, i] = -beta * (M[i, j] - D[i, j])

where C[:, k] and R[k, :] are column k and row k of the running matrix just
before pivot k, and M is the input matrix.  A slot whose P underflows keeps
a finite log P; only a slot with no walk reads -inf.  The sweep keeps C, R
and the running matrix, O(V^2) each, plus a snapshot of the running matrix
every ceil(sqrt(V)) pivots, O(V^2.5) in all, in an `EngineTape`.  log P
needs no softmin weights, but the backward needs those of every pivot.  A
training sweep computes them for its trailing segments and keeps each
pivot's (rows, w_via) step instead of the segment's snapshot, as many whole
segments as fit `graph.BLOCK_FLOATS` floats; the backward recomputes the
weights of every other segment from its snapshot.  A full sweep and a
query's sweep keep no steps.  Its pivots share one `smoothing.Workspace` of
three V x V float buffers.

A query reads one source row s of D, and a training step the rows of the
sources i of its triples; `sweep(m, beta, sources)` keeps only those rows.
The sweep is Gaussian elimination over the (smooth min, +) semiring (Carre,
"An algebra for network routing problems", 1971): pivot k' updates each row
from that row's own entry in column k' and from row k'.  Row k is a pivot
row only at pivot k, so once it is saved as R[k, :], no other row reads it
again.  Unless k is a source, the sweep retires it then (writes NaN), and
later pivots skip it: about V^3/2 + |S| V^2 updates for S sources, not V^3.
A query's tape holds no snapshots, O(V^2) in all; the backward retires the
same rows of a training tape as it recomputes each segment.  `EngineTape`
lists the entries a restricted tape keeps, each with the full sweep's bits.

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
  read from a full one, so no V^3 array is allocated for them.

Any entry is therefore bit-equal to the same entry of the dense log P.
`datasp_forward_efficient` is `sweep` plus log P at `at` or on the grid, and
its tape holds the log P it returned.  The backward pass, which needs such a
tape, moves the upstream gradient on log P (in the shape of that log P) onto
D, C, R and the direct slots, by axis sums of a dense gradient or a scatter
of a 1-D one, then runs one reverse sweep over the pivots.  It reads the
kept steps of the trailing segments and recomputes each other
sqrt(V)-pivot segment from its snapshot: checkpointing within a float
budget, as in Griewank & Walther, "Algorithm 799: revolve" (ACM TOMS
2000).  The closed form and its adjoint follow Mensch &
Blondel, "Differentiable Dynamic Programming for Structured Prediction and
Attention" (ICML 2018).
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
    """What queries and the adjoint need: O(V^2) arrays plus sqrt(V) snapshots
    or the steps that stand in for them.

    `shortcut_costs` and `log_shortcuts` read the closed form from any
    tape.  A tape from `datasp_forward_efficient` also holds the log P it
    returned, whose -inf slots the backward leaves out (it must not be
    modified in place), and the triples `at` it was evaluated at: a 1-D log P
    at the training loss's observed triples, or the dense V x V x V log P (at
    None) that the tests and the benchmark's engine sweep read.  A tape from
    `sweep` holds neither.

    A tape restricted to sources S (`kept_rows` marks them; every row for a
    full sweep), from `sweep` or from `datasp_forward_efficient` with `at`
    (S the i of its triples), holds only these entries, each bit-equal to
    the full sweep's:

    - the rows of D at S, `dist[S, :]`;
    - C[a, k] where a is in S or a >= k (C[k, k] is the diagonal, inf);
    - all of R and `m_input`.

    Every other entry of `dist` and `col` is NaN, so a reader that strays
    outside them gets NaN rather than a plausible cost.

    The backward needs each segment of `stride` pivots either as the
    snapshot it starts from or as its steps, `pivot`'s (rows, w_via) at
    each of its pivots:

    - a full sweep holds the snapshot of every segment (the first is
      `m_input`) and no steps;
    - a query's tape (S one node index) holds no snapshot but the input and
      no steps;
    - a training tape (S an array) holds the steps of its trailing segments,
      pivots V - len(steps) to V - 1, as many whole segments as bound their
      live rows times V within `graph.BLOCK_FLOATS` floats, and the
      snapshots of the segments before them only.  Those hold NaN in the
      rows retired before them.
    """

    beta: float
    size: int
    m_input: np.ndarray
    col: np.ndarray        # col[:, k] = column k of the running matrix before pivot k
    row: np.ndarray        # row[k, :] = row k of the running matrix before pivot k
    dist: np.ndarray
    stride: int
    snapshots: list[np.ndarray]  # running matrix before pivots 0, stride, ... of re-run segments
    kept_rows: np.ndarray  # kept_rows[a]: row a outlives its pivot
    steps: list[tuple[np.ndarray, np.ndarray]]  # `pivot`'s (rows, w_via) of the last pivots
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
    # which sends every slot of it, finite cost or not, to -inf.
    d = tape.dist[i, j]
    log_p = shortcut_costs(tape, i, j, k)
    log_p -= np.where(np.isfinite(d), d, -INF)
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


def _step(cur: np.ndarray, k: int, beta: float, work: Workspace, kept_rows, weights=False):
    """`pivot` k, then retire row k (write NaN) unless kept_rows[k]: later
    pivots only update rows with a finite entry in their column."""
    step = pivot(cur, k, beta, work, weights)
    if not kept_rows[k]:
        cur[k] = np.nan
    return step


def _first_kept_pivot(kept_rows: np.ndarray, stride: int) -> int:
    """The first pivot of the trailing segments whose steps a training sweep
    keeps: as many whole segments as fit BLOCK_FLOATS floats, counting V
    floats for each row still live at each pivot (V when none fits)."""
    n = kept_rows.size
    live = np.arange(n, 0, -1) + np.cumsum(kept_rows) - kept_rows  # rows >= k, kept rows < k
    tail = np.cumsum(live[::-1] * n)[::-1]  # tail[k]: the bound of pivots k, ..., V-1
    return next((k for k in range(0, n, stride) if tail[k] <= BLOCK_FLOATS), n)


def sweep(m: np.ndarray, beta: float, sources=None) -> EngineTape:
    """The smoothed Floyd-Warshall sweep: D, C, R and the snapshots.

    For a fixed pivot k the (i, j) updates are independent: row k and
    column k are never written during iteration k (those pairs are skipped
    as redundant), so each pivot is one batched in-place operation.

    `sources` names the rows kept past their own pivot: one node index (a
    query: no snapshots), a 1-D integer array of them (training; repeats
    allowed, and an empty array keeps no row, so D is all NaN), or None
    (every row, the full sweep).  A training sweep runs the pivots of its
    trailing segments with weights and keeps their steps in place of those
    segments' snapshots; its values keep their bits either way.  The tape
    holds what `EngineTape` lists.
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
    stride = max(1, math.ceil(math.sqrt(n)))
    training = sources is not None and s.ndim == 1
    first_kept = _first_kept_pivot(kept_rows, stride) if training else n
    # A query's one source takes no snapshot but the input, and a training
    # tape none for the segments whose steps it keeps.
    snapshot_end = first_kept if s.ndim == 1 else 0
    col = np.empty((n, n))
    row = np.empty((n, n))
    snapshots = [m_input] if first_kept else []
    steps = []
    cur = m_input.copy()
    work = Workspace(n * n)
    for k in range(n):
        if k % stride == 0 and 0 < k < snapshot_end:
            snapshots.append(cur.copy())
        col[:, k] = cur[:, k]
        row[k, :] = cur[k, :]
        step = _step(cur, k, beta, work, kept_rows, weights=k >= first_kept)
        if step is not None:
            steps.append(step)
    return EngineTape(beta=beta, size=n, m_input=m_input, col=col, row=row, dist=cur,
                      stride=stride, snapshots=snapshots, kept_rows=kept_rows, steps=steps)


def datasp_forward_efficient(m: np.ndarray, beta: float, at=None
                             ) -> tuple[np.ndarray, np.ndarray, EngineTape]:
    """Forward pass: returns (log shortcut tensor log P, distances D, tape).

    log P is `log_shortcuts` of the sweep's tape.  With at = (i, j, k),
    three equal-length integer arrays, it is the 1-D array of log P[i, j, k]
    at those triples, from a sweep restricted to the rows i, so D is NaN in
    every other row; without, the full sweep's dense log P on the open grid
    np.ogrid[:V, :V, :V], the one V^3 array this allocates.
    """
    n = validate_cost_matrix(m).shape[0]
    triples = None if at is None else _check_triples(at, n)
    tape = sweep(m, beta, None if at is None else triples[0])
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
        return np.bincount(flat, weights[order], minlength=n * n).reshape(n, n)

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
    running-matrix gradient back through each pivot, adding the C and R
    gradients of pivot k as it passes.  It takes each segment's steps from
    the tape where the tape keeps them, and otherwise recomputes them from
    the segment's snapshot; with nothing to recompute it allocates neither
    a running matrix nor a V x V workspace.  It ignores grad_m outside the
    kept rows, where D is NaN, and skips each retired row after its pivot,
    where its gradient is exactly zero: the steps of a restricted tape leave
    it out, kept or recomputed.
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
    g_dist, g_col, g_row, g_direct = _shortcut_adjoint(tape, grad_log_p)
    g = grad_m + beta * g_dist
    g[~tape.kept_rows] = 0.0
    g_col *= -beta    # [i, k]
    g_row *= -beta    # [k, j]

    first_kept = n - len(tape.steps)
    if first_kept:
        cur = np.empty((n, n))
        work = Workspace(n * n)
    else:
        work = Workspace(max((w_via.size for _, w_via in tape.steps), default=0))
    for start in reversed(range(0, n, tape.stride)):
        if start >= first_kept:
            steps = tape.steps[start - first_kept:start - first_kept + tape.stride]
        else:
            np.copyto(cur, tape.snapshots[start // tape.stride])
            steps = [_step(cur, k, beta, work, tape.kept_rows, weights=True)
                     for k in range(start, min(start + tape.stride, n))]
        for k in reversed(range(start, start + len(steps))):
            g[:, k] += g_col[:, k]
            g[k, :] += g_row[k, :]
            pivot_adjoint(g, k, steps[k - start], work)

    g -= beta * g_direct
    g[~np.isfinite(tape.m_input)] = 0.0
    return g
