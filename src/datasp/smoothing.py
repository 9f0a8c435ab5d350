"""Numerically stable smooth minimum and its weights over extended reals,
and the smoothed Floyd-Warshall pivot built on them.

The smooth minimum of a vector v is -(1/beta) * log(sum_i exp(-beta*v[i]))
and its gradient is the softmin weight vector exp(-beta*v)/sum(exp(-beta*v)).
beta is a positive inverse temperature; beta -> inf recovers the hard min.

An entry of +inf marks an absent branch.  Infinite entries are categorical:
they get zero mass and zero gradient, and no overflow, underflow or NaN can
leak out of them.  `softmin_value` and `softmin_weights` exclude them from
the log-sum-exp; `pivot` passes them through exp() only as exp(-inf) = 0,
mapping the NaN of inf - inf to -inf first.  All computations subtract the
finite minimum before exponentiating, which keeps exp() arguments in
[-inf, 0].  A pivot that computes no weights floors the arguments at -38
instead: there 1 + exp() rounds to exactly 1.0, so the values are those of
the unfloored arithmetic, bit for bit.  The elementwise two-branch smooth
min that `pivot` matches bit for bit, `pair_softmin`, is a test reference
and lives with the tests.

`pivot` and `pivot_adjoint` allocate no matrix-sized temporaries: each
writes its elementwise steps into a `Workspace`, which grows to the largest
block it serves and frees its buffers before it grows.  Both run on any
square block: node exclusion and a training sweep pass the trailing live
block that remains once the nodes they eliminate have left it (a
non-contiguous view).  `pivot` computes the two-hop weights w_via only when
asked for them, as a new array the caller keeps for the adjoint: node
exclusion for every pivot, a training sweep for its first pivots while
their w_via fit a float budget, and the engine's backward for each segment
it re-runs.

Both also run on a stack of blocks interleaved by row (row i * stack + b
is row i of block b), as node exclusion runs a chunk of anchors.  The stack
is read from the block's shape, its rows over its width, so a square block
is a stack of one.  Each block's values and w_via keep their bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, is_real

INF = float("inf")


def check_beta(beta) -> float:
    """beta as a float.  It must be a positive finite real number: a bool or
    a numeric string is rejected, numpy scalars are accepted."""
    if isinstance(beta, (np.floating, np.integer)):
        beta = beta.item()
    if not (is_real(beta) and beta > 0):
        raise ValidationError(f"beta must be a positive finite real, got {beta!r}")
    return float(beta)


def softmin_value(values, beta: float) -> float:
    """Smooth minimum of a vector of extended reals.

    Returns inf iff every entry is inf.  Raises ValidationError on an
    empty vector.
    """
    beta = check_beta(beta)
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValidationError("softmin_value requires a nonempty vector")
    finite = np.isfinite(v)
    if not finite.any():
        return INF
    vf = v[finite]
    m = vf.min()
    return float(m - np.log(np.exp(-beta * (vf - m)).sum()) / beta)


def softmin_weights(values, beta: float) -> np.ndarray:
    """Softmin weight vector; entries for inf inputs are exactly 0.

    Raises ValidationError when no entry is finite (no branch to weight).
    """
    beta = check_beta(beta)
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValidationError("softmin_weights requires a nonempty vector")
    finite = np.isfinite(v)
    if not finite.any():
        raise ValidationError("softmin_weights: no finite branch")
    w = np.zeros(v.shape)
    vf = v[finite]
    w[finite] = np.exp(-beta * (vf - vf.min()))
    w /= w.sum()
    return w


class Workspace:
    """Scratch buffers for `pivot` and `pivot_adjoint`: three float buffers
    and one bool buffer of the largest (rows, width) block served so far,
    and the row positions arange(rows) of the largest pivot so far.

    A caller that runs a series of pivots (a sweep, a backward segment loop,
    an exclusion or its adjoint) creates one empty workspace and drops it
    when it returns.  A buffer is freed before a larger one is allocated, so
    a growth never holds both.  Each pivot carves (rows, width) views from
    the front of the buffers, so their contents are garbage between pivots.
    """

    def __init__(self):
        self._floats = np.empty((3, 0))
        self._mask = np.empty(0, dtype=bool)
        self._index = np.arange(0)

    def floats(self, rows: int, width: int) -> np.ndarray:
        """A (3, rows, width) view: unpack it into three (rows, width) buffers."""
        if self._floats.shape[1] < rows * width:
            self._floats = None  # freed before the larger buffer is allocated
            self._floats = np.empty((3, rows * width))
        return self._floats[:, :rows * width].reshape(3, rows, width)

    def mask(self, rows: int, width: int) -> np.ndarray:
        if self._mask.size < rows * width:
            self._mask = None
            self._mask = np.empty(rows * width, dtype=bool)
        return self._mask[:rows * width].reshape(rows, width)

    def index(self, count: int) -> np.ndarray:
        """arange(count), grown on demand: no more entries than the most rows
        a pivot has updated, so at most V."""
        if self._index.size < count:
            self._index = np.arange(count)
        return self._index[:count]


def _gather_rows(a: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a[rows], written into out when a is contiguous.  np.take copies a
    non-contiguous source (a trailing block) whole before gathering, which
    costs more than the fresh copy fancy indexing makes of the rows alone."""
    if a.flags.c_contiguous:
        return np.take(a, rows, axis=0, out=out, mode="clip")
    return a[rows]


def pivot(cur: np.ndarray, k: int, beta: float, work: Workspace, weights: bool = False):
    """One smoothed Floyd-Warshall pivot through node k, applied to cur in place.

    Every pair (i, j) with a finite two-hop cost cur[i, k] + cur[k, j] takes
    the smooth min of its running cost and that two-hop cost, except
    i == j.  cur[k, k] is inf, as every diagonal entry is, so pairs with
    i == k or j == k never have a finite two-hop cost, and row k and
    column k are read but never changed.  Only the rows i with a finite
    cur[i, k] can change, so only those are computed.

    cur may be a stack of interleaved blocks, as many as its rows over its
    width: the rows are gathered block-major, block b's pivot row is
    k * stack + b, and row i * stack + b has its diagonal at i.

    Every elementwise step is written into `work`, which grows to rows x
    width entries if it holds fewer.  The arithmetic matches the
    test reference `pair_softmin` operation for operation, so the values are
    bit-identical to it.  A pair that is not updated (an infinite two-hop cost, or
    i == j) comes out of the same arithmetic unchanged: its two-hop branch
    gets weight exp(-inf) = 0.

    With weights=True, returns (rows, w_via): those rows, and the softmin
    weight of the two-hop branch on them, a new array (0 where the pair is
    not updated; the running cost weighs 1 - w_via).  Otherwise returns
    None and computes no weights.
    """
    stack = cur.shape[0] // cur.shape[1]
    if stack > 1:  # (block, node) pairs, block-major
        block, nodes = np.isfinite(cur[:, k]).reshape(-1, stack).T.nonzero()
        rows = nodes * stack + block
    else:
        rows = nodes = np.isfinite(cur[:, k]).nonzero()[0]
    old, two_hop, e = work.floats(rows.size, cur.shape[1])
    old = _gather_rows(cur, rows, old)
    if stack > 1:  # each row's own block's pivot row, then its entry in column k
        np.take(cur[k * stack:(k + 1) * stack], block, axis=0, out=two_hop, mode="clip")
        two_hop += cur[rows, k, None]
    else:
        np.add(cur[rows, k, None], cur[k], out=two_hop)
    two_hop[work.index(rows.size), nodes] = INF
    with np.errstate(invalid="ignore"):
        np.subtract(two_hop, old, out=e)  # NaN where both branches are inf
    np.abs(e, out=e)
    if weights:
        via_wins = np.less(two_hop, old, out=work.mask(rows.size, cur.shape[1]))
    np.minimum(two_hop, old, out=two_hop)
    np.multiply(e, -beta, out=e)
    # NaN -> -inf: no finite branch, no mass.  Without weights the floor can
    # be -38: exp(-38) < 2^-54, so 1 + exp(e) is exactly 1.0 either way and
    # the values keep their bits, while exp skips its slow path far below 0.
    np.fmax(e, -INF if weights else -38.0, out=e)
    np.exp(e, out=e)
    denom = np.add(e, 1.0, out=old)
    w_via = None
    if weights:
        # On a tie exp(-beta * 0) is exactly 1, so `<` gives the weight
        # `pair_softmin` gives with `<=`, and 0 where both branches are inf.
        w_via = np.where(via_wins, 1.0, e)
        w_via /= denom
    np.log(denom, out=denom)
    denom /= beta
    cur[rows] = np.subtract(two_hop, denom, out=two_hop)
    return (rows, w_via) if weights else None


def pivot_adjoint(g: np.ndarray, k: int, step, work: Workspace) -> None:
    """Carry a gradient w.r.t. the output of `pivot` back to its input, in place.

    step is the (rows, w_via) pair `pivot` returned for node k (on a stack
    as `pivot` takes it), or (rows, finite, values): w_via is values at the
    finite entries of each row's pivot row, row by row, and 0 elsewhere.
    An updated pair passes the share w_via of its gradient to the two-hop
    branch, that is to the entries (i, k) and (k, j) of its own block; the
    rest stays on (i, j).
    """
    rows, w_via = step[0], step[-1]
    stack = g.shape[0] // g.shape[1]
    if len(step) == 3:  # expanded into the third buffer, which is free here
        w_via = work.floats(rows.size, step[1].shape[1])[2]
        w_via.fill(0.0)
        np.place(w_via, step[1][rows % stack], step[2])
    g_rows, g_two_hop, _ = work.floats(*w_via.shape)
    g_rows = _gather_rows(g, rows, g_rows)
    np.multiply(g_rows, w_via, out=g_two_hop)
    g[rows] = np.subtract(g_rows, g_two_hop, out=g_rows)
    g[rows, k] += g_two_hop.sum(axis=1)
    if stack == 1:
        g[k, :] += g_two_hop.sum(axis=0)
    else:  # each block's rows add to its own pivot row
        g[k * stack:(k + 1) * stack] += (rows % stack == np.arange(stack)[:, None]) @ g_two_hop
