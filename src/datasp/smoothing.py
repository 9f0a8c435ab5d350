"""Numerically stable smooth minimum and its weights over extended reals,
and the smoothed Floyd-Warshall pivot built on them.

The smooth minimum of a vector v is -(1/beta) * log(sum_i exp(-beta*v[i]))
and its gradient is the softmin weight vector exp(-beta*v)/sum(exp(-beta*v)).
beta is a positive inverse temperature; beta -> inf recovers the hard min.

An entry of +inf marks an absent branch.  Infinite entries are categorical:
they are excluded from the log-sum-exp (zero mass, zero gradient) rather
than pushed through exp(), so no overflow, underflow or NaN can leak out
of them.  All computations subtract the finite minimum before
exponentiating, which keeps exp() arguments in [-inf, 0].
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

INF = float("inf")


def check_beta(beta: float) -> float:
    try:
        beta = float(beta)
    except (TypeError, ValueError):
        raise ValidationError(f"beta must be a positive finite real, got {beta!r}") from None
    if not np.isfinite(beta) or beta <= 0.0:
        raise ValidationError(f"beta must be a positive finite real, got {beta!r}")
    return beta


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


def pivot(cur: np.ndarray, k: int, beta: float):
    """One smoothed Floyd-Warshall pivot through node k, applied to cur in place.

    Every pair (i, j) with a finite two-hop cost cur[i, k] + cur[k, j] takes
    the smooth min of its running cost and that two-hop cost, except
    i == j.  cur[k, k] is inf, as every diagonal entry is, so pairs with
    i == k or j == k never have a finite two-hop cost, and row k and
    column k are read but never changed.  Only the rows i with a finite
    cur[i, k] can change, so only those are computed.

    Returns (rows, w_via): those rows, and the softmin weight of the
    two-hop branch on them (0 where the pair is not updated; the running
    cost weighs 1 - w_via).  The arithmetic matches `pair_softmin`
    operation for operation, so the values are bit-identical to it.
    """
    rows = np.flatnonzero(np.isfinite(cur[:, k]))
    old = cur[rows]
    two_hop = cur[rows, k, None] + cur[None, k, :]
    active = np.isfinite(two_hop)
    active[np.arange(rows.size), rows] = False
    with np.errstate(invalid="ignore"):
        shift = np.minimum(two_hop, old)
        gap = np.abs(two_hop - old)
    e = np.exp(-beta * gap)
    denom = 1.0 + e
    value = shift - np.log(denom) / beta
    w_via = np.where(active, np.where(two_hop <= old, 1.0, e) / denom, 0.0)
    cur[rows] = np.where(active, value, old)
    return rows, w_via


def pivot_adjoint(g: np.ndarray, k: int, step) -> None:
    """Carry a gradient w.r.t. the output of `pivot` back to its input, in place.

    step is the (rows, w_via) pair `pivot` returned for node k.  An updated
    pair passes the share w_via of its gradient to the two-hop branch, that
    is to the entries (i, k) and (k, j); the rest stays on (i, j).
    """
    rows, w_via = step
    g_two_hop = g[rows] * w_via
    g[rows] -= g_two_hop
    g[rows, k] += g_two_hop.sum(axis=1)
    g[k, :] += g_two_hop.sum(axis=0)
