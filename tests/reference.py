"""Plain reference implementations that only tests compare against.

`pair_softmin` is the elementwise smooth min that `smoothing.pivot` must
match bit for bit, `classical_floyd_warshall` the hard all-pairs distances
that are the engine's beta -> inf limit, and `finite_difference_gradcheck`
the componentwise counterpart of `oracle.normwise_gradient_error`.
"""

import numpy as np

from datasp.graph import validate_cost_matrix
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


def finite_difference_gradcheck(func, analytic_grad, x, step: float = 1e-5) -> float:
    """Max componentwise relative error between analytic_grad and central
    differences of func.

    Differences are taken per finite coordinate of x; the relative error
    denominator is floored at 1e-8.
    """
    fd, g = _differences(func, analytic_grad, x, step)
    err = np.abs(fd - g) / np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-8)
    return float(err.max(initial=0.0))
