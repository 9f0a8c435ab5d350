"""Differentiable all-to-all shortest paths.

`sweep` runs a smoothed Floyd-Warshall sweep: for each pivot node k in
ascending order, every pair (i, j) replaces its running cost with the smooth
min of that cost and the two-hop cost through k.  The final matrix D holds
the smooth minimum of the costs of all visitable walks per pair.  Redundant
updates are skipped: i == j (self loops), i == k or k == j (direct paths are
fixed at initialization), and pairs whose two-hop cost through k is
infinite.  One pivot is `smoothing.pivot` and its adjoint
`smoothing.pivot_adjoint`; node exclusion (`graph.exclude_nodes`) runs the
same pivot on ever smaller trailing blocks of a matrix whose removed nodes
come first, so the sweep, the backward sweep and exclusion share one update
and one adjoint.

The shortcut tensor P[i, j, k] is the probability that k is the highest
intermediate node on an i -> j walk, and P[i, j, i] the probability of the
direct edge.  The softmin weights a pair collects over the sweep telescope,
so P has a closed form in values the sweep already passes through:

    P[i, j, k] = exp(-beta * (C[i, k] + R[k, j] - D[i, j]))   for k not in {i, j}
    P[i, j, i] = exp(-beta * (M[i, j] - D[i, j]))

where C[:, k] and R[k, :] are column k and row k of the running matrix just
before pivot k, and M is the input matrix.  `shortcut_costs` returns the
costs in those exponents for one pair, C[i, :] + R[:, j] with M[i, j] in the
direct slot.  The sweep keeps C, R and the running matrix, O(V^2) each,
plus a snapshot of the running matrix every ceil(sqrt(V)) pivots, O(V^2.5)
in all, in an `EngineTape`.  It computes no softmin weights: P needs none,
and the backward recomputes a segment's weights from its snapshot.  Its
pivots share one `smoothing.Workspace` of three V x V float buffers.

The queries in `inference` (path sampling, destination likelihoods) run
`sweep` themselves and read the rows they need through `shortcut_costs`; a
sweep's tape holds no P, and no V^3 array is allocated for them.
`datasp_forward_efficient` is `sweep` plus the dense O(V^3) build of P,
which only the training loss and the oracle checks use; its tape holds that
P.  The backward pass, which needs such a tape, reduces the upstream
gradient on P to gradients on D, C, R and the direct slots, then runs one
reverse sweep over the pivots, recomputing each sqrt(V)-pivot segment from
its snapshot (checkpointing as in Griewank & Walther's "revolve").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .smoothing import INF, Workspace, check_beta, pivot, pivot_adjoint
from .graph import validate_cost_matrix


@dataclass
class EngineTape:
    """What queries and the adjoint need: O(V^2) arrays plus sqrt(V) snapshots.

    A tape from `datasp_forward_efficient` holds the P it returned, which
    the backward reads (it must not be modified in place); a tape from
    `sweep` holds none.
    """

    beta: float
    size: int
    m_input: np.ndarray
    col: np.ndarray        # col[:, k] = column k of the running matrix before pivot k
    row: np.ndarray        # row[k, :] = row k of the running matrix before pivot k
    dist: np.ndarray
    stride: int
    snapshots: list[np.ndarray]  # running matrix before pivots 0, stride, 2*stride, ...
    p: np.ndarray | None = None


def shortcut_costs(tape: EngineTape, a: int, b: int) -> np.ndarray:
    """Per-slot walk costs of the pair (a, b): P[a, b, :] = exp(-beta * (costs - D[a, b])).

    Slot k holds C[a, k] + R[k, b], slot a the direct cost M[a, b] and slot
    b inf.  Returns a new array.
    """
    costs = tape.col[a] + tape.row[:, b]
    costs[a] = tape.m_input[a, b]
    costs[b] = INF
    return costs


def _shortcuts(tape: EngineTape) -> np.ndarray:
    """Build P from the closed form; unreachable pairs and i == j get 0."""
    # A pair at infinite distance (i == j, or unreachable) gets -inf instead,
    # which sends every term of its slice, finite or infinite, to exp(-inf).
    beta = tape.beta
    d = np.where(np.isfinite(tape.dist), tape.dist, -INF)
    p = tape.col[:, None, :] + tape.row.T[None, :, :]
    p -= d[:, :, None]
    p *= -beta
    np.exp(p, out=p)
    nodes = np.arange(tape.size)
    p[nodes[:, None], nodes[None, :], nodes[:, None]] = np.exp(-beta * (tape.m_input - d))
    return p


def sweep(m: np.ndarray, beta: float) -> EngineTape:
    """The smoothed Floyd-Warshall sweep: D, C, R and the snapshots.

    For a fixed pivot k the (i, j) updates are independent: row k and
    column k are never written during iteration k (those pairs are skipped
    as redundant), so each pivot is one batched in-place operation.
    """
    m_input = validate_cost_matrix(m).copy()
    beta = check_beta(beta)
    n = m_input.shape[0]
    stride = max(1, math.ceil(math.sqrt(n)))
    col = np.empty((n, n))
    row = np.empty((n, n))
    snapshots = [m_input]
    cur = m_input.copy()
    work = Workspace(n * n)
    for k in range(n):
        if k and k % stride == 0:
            snapshots.append(cur.copy())
        col[:, k] = cur[:, k]
        row[k, :] = cur[k, :]
        pivot(cur, k, beta, work)
    return EngineTape(beta=beta, size=n, m_input=m_input, col=col, row=row, dist=cur,
                      stride=stride, snapshots=snapshots)


def datasp_forward_efficient(m: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray, EngineTape]:
    """Forward pass: returns (shortcut tensor P, smoothed distance matrix D, tape)."""
    tape = sweep(m, beta)
    tape.p = _shortcuts(tape)
    return tape.p, tape.dist, tape


def datasp_backward(tape: EngineTape, grad_p: np.ndarray, grad_m: np.ndarray) -> np.ndarray:
    """Reverse-mode adjoint: gradients of a scalar loss w.r.t. the input matrix.

    tape must come from `datasp_forward_efficient`, and grad_p / grad_m are
    the upstream gradients w.r.t. the P and D it returned.  Through the
    closed form, G = grad_p * P moves beta * sum_k G[i, j, k] onto D[i, j],
    -beta * G[i, j, k] onto C[i, k] and R[k, j], and -beta * G[i, j, i] onto
    the input entry M[i, j].  The reverse sweep then carries the
    running-matrix gradient back through each pivot, adding the C and R
    gradients of pivot k as it passes.
    """
    if tape.p is None:
        raise ValidationError("the backward needs the tape of datasp_forward_efficient; "
                              "a sweep's tape holds no shortcut tensor")
    n = tape.size
    grad_p = np.asarray(grad_p, dtype=float)
    grad_m = np.asarray(grad_m, dtype=float)
    if grad_p.shape != (n, n, n) or grad_m.shape != (n, n):
        raise ValidationError(
            f"upstream gradients must have shapes {(n, n, n)} and {(n, n)}, "
            f"got {grad_p.shape} and {grad_m.shape}"
        )
    beta = tape.beta
    g_p = grad_p * tape.p
    nodes = np.arange(n)
    direct = (nodes[:, None], nodes[None, :], nodes[:, None])
    g_direct = g_p[direct]
    g = grad_m + beta * g_p.sum(axis=2)
    g_p[direct] = 0.0
    g_col = -beta * g_p.sum(axis=1)    # [i, k]
    g_row = -beta * g_p.sum(axis=0).T  # [k, j]
    del g_p

    cur = np.empty((n, n))
    work = Workspace(n * n)
    for start in reversed(range(0, n, tape.stride)):
        np.copyto(cur, tape.snapshots[start // tape.stride])
        steps = [pivot(cur, k, beta, work, weights=True)
                 for k in range(start, min(start + tape.stride, n))]
        for k in reversed(range(start, start + len(steps))):
            g[:, k] += g_col[:, k]
            g[k, :] += g_row[k, :]
            pivot_adjoint(g, k, steps[k - start], work)

    g -= beta * g_direct
    g[~np.isfinite(tape.m_input)] = 0.0
    return g
