import math
import tracemalloc

import numpy as np
import pytest

from reference import pair_softmin
from datasp.errors import ValidationError
from datasp.smoothing import INF, Workspace, pivot, pivot_adjoint, softmin_value, softmin_weights

# Walk costs of the bundled 4-node fixture's tabulated pair: 4 walks of cost
# 3, 4 of cost 5, 7 of cost 7, 5 of cost 9.
TABULATED_COSTS = [3] * 4 + [5] * 4 + [7] * 7 + [9] * 5


def direct_softmin(values, beta):
    finite = [v for v in values if math.isfinite(v)]
    return -math.log(sum(math.exp(-beta * v) for v in finite)) / beta


def test_value_ignores_infinite_branch():
    assert softmin_value([3.0, INF], 1.0) == 3.0


def test_value_of_equal_pair():
    assert softmin_value([0.0, 0.0], 1.0) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_value_of_tabulated_walk_costs():
    expected = direct_softmin(TABULATED_COSTS, 1.0)
    got = softmin_value(TABULATED_COSTS, 1.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.4562, abs=1e-4)
    assert math.exp(-got) == pytest.approx(0.23310, abs=1e-5)


def test_value_all_infinite_is_infinite():
    assert softmin_value([INF, INF], 2.0) == INF


def test_value_empty_vector_rejected():
    with pytest.raises(ValidationError):
        softmin_value([], 1.0)


def test_value_bad_beta_rejected():
    for beta in (0.0, -1.0, INF, float("nan")):
        with pytest.raises(ValidationError):
            softmin_value([1.0], beta)


def test_value_bounds_vs_hard_min(rng):
    for _ in range(50):
        v = rng.uniform(-3, 3, size=rng.integers(1, 9))
        beta = float(rng.uniform(0.2, 5.0))
        s = softmin_value(v, beta)
        assert s <= v.min() + 1e-12
        assert s >= v.min() - math.log(len(v)) / beta - 1e-12


def test_weights_symmetry():
    for a in (-2.0, 0.0, 7.5):
        for beta in (0.5, 1.0, 10.0):
            w = softmin_weights([a, a], beta)
            assert np.allclose(w, [0.5, 0.5])


def test_weights_infinite_gets_zero():
    assert np.array_equal(softmin_weights([3.0, INF], 1.0), [1.0, 0.0])


def test_weights_two_branch_values():
    w = softmin_weights([3.0, 5.0], 1.0)
    z = 1.0 + math.exp(-2.0)
    assert w == pytest.approx([1.0 / z, math.exp(-2.0) / z], rel=1e-12)
    assert w == pytest.approx([0.8808, 0.1192], abs=1e-4)


def test_weights_sum_to_one(rng):
    for _ in range(50):
        v = rng.uniform(-5, 5, size=6)
        v[rng.integers(6)] = INF
        w = softmin_weights(v, 2.0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w >= 0).all()


def test_weights_all_infinite_rejected():
    with pytest.raises(ValidationError):
        softmin_weights([INF, INF], 1.0)


def test_shift_covariance(rng):
    for _ in range(20):
        v = rng.uniform(-2, 2, size=5)
        c = float(rng.uniform(-10, 10))
        beta = float(rng.uniform(0.3, 4.0))
        assert softmin_value(v + c, beta) == pytest.approx(softmin_value(v, beta) + c, rel=1e-12)
        assert softmin_weights(v + c, beta) == pytest.approx(softmin_weights(v, beta), abs=1e-12)


def test_monotonicity(rng):
    for _ in range(30):
        v = rng.uniform(0, 3, size=6)
        base = softmin_value(v, 1.5)
        idx = int(rng.integers(6))
        bumped = v.copy()
        bumped[idx] += rng.uniform(0, 2)
        assert softmin_value(bumped, 1.5) >= base - 1e-12


def test_hard_limit():
    v = [1.0, 2.0, 5.0]
    assert softmin_value(v, 1e4) == pytest.approx(1.0, abs=1e-3)
    w = softmin_weights(v, 1e4)
    assert w == pytest.approx([1.0, 0.0, 0.0], abs=1e-3)
    # exact ties split uniformly
    assert softmin_weights([2.0, 2.0], 1e4) == pytest.approx([0.5, 0.5])


def _fd_vjp(v, beta, value_grad, weight_grads, step=1e-6):
    v = np.asarray(v, dtype=float)
    grad = np.zeros_like(v)
    for idx in range(v.size):
        if not math.isfinite(v[idx]):
            continue
        up = v.copy()
        up[idx] += step
        down = v.copy()
        down[idx] -= step
        f_up = value_grad * softmin_value(up, beta) + float(
            np.dot(weight_grads, softmin_weights(up, beta)))
        f_down = value_grad * softmin_value(down, beta) + float(
            np.dot(weight_grads, softmin_weights(down, beta)))
        grad[idx] = (f_up - f_down) / (2 * step)
    return grad


def test_value_gradient_identity_by_finite_differences(rng):
    for _ in range(10):
        v = rng.uniform(-1, 2, size=6)
        beta = float(rng.uniform(0.5, 3.0))
        w = softmin_weights(v, beta)
        fd = _fd_vjp(v, beta, 1.0, np.zeros(6))
        rel = np.abs(w - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() <= 1e-6


def test_pair_softmin_matches_scalar_ops(rng):
    a = rng.uniform(0, 4, size=(5, 5))
    b = rng.uniform(0, 4, size=(5, 5))
    a[0, 0] = INF
    b[1, 1] = INF
    a[2, 2] = INF
    b[2, 2] = INF
    value, wa, wb = pair_softmin(a, b, 1.3)
    for i in range(5):
        for j in range(5):
            pair = [a[i, j], b[i, j]]
            if not np.isfinite(pair).any():
                assert value[i, j] == INF and wa[i, j] == 0 and wb[i, j] == 0
                continue
            assert value[i, j] == pytest.approx(softmin_value(pair, 1.3), rel=1e-14)
            expected_w = softmin_weights(pair, 1.3)
            assert wa[i, j] == pytest.approx(expected_w[0], abs=1e-14)
            assert wb[i, j] == pytest.approx(expected_w[1], abs=1e-14)


@pytest.mark.parametrize("stack", [2, 3, 5])
def test_a_stacked_pivot_is_each_block_pivoted_alone(rng, stack):
    # Blocks interleaved by row: row i * stack + b of the 2-D view is row i
    # of block b.  Some entries are inf, so rows and columns drop out.
    width, k, beta = 7, 2, 3.0
    blocks = np.where(rng.random((stack, width, width)) < 0.6,
                      rng.uniform(0.5, 3.0, (stack, width, width)), INF)
    blocks[:, np.arange(width), np.arange(width)] = INF
    blocks[1, :, k] = INF  # block 1 has no row to update
    interleaved = blocks.transpose(1, 0, 2).copy()
    flat = interleaved.reshape(-1, width)
    work = Workspace()
    rows, w_via = pivot(flat, k, beta, work, weights=True)
    assert (np.diff(rows % stack) >= 0).all()  # gathered block-major
    upstream = rng.standard_normal(flat.shape)
    g = upstream.copy()
    pivot_adjoint(g, k, (rows, w_via), work)
    finite = np.isfinite(flat[k * stack:(k + 1) * stack])
    compact = (rows, finite, w_via[finite[rows % stack]])
    g_compact = upstream.copy()
    pivot_adjoint(g_compact, k, compact, work)
    assert np.array_equal(g_compact, g)
    for b in range(stack):
        alone = blocks[b].copy()
        alone_rows, alone_w_via = pivot(alone, k, beta, Workspace(), weights=True)
        assert np.array_equal(interleaved[:, b], alone)
        mine = rows % stack == b
        assert np.array_equal(rows[mine] // stack, alone_rows)
        assert np.array_equal(w_via[mine], alone_w_via)
        g_alone = upstream.reshape(width, stack, width)[:, b].copy()
        pivot_adjoint(g_alone, k, (alone_rows, alone_w_via), Workspace())
        np.testing.assert_allclose(g.reshape(width, stack, width)[:, b], g_alone,
                                   rtol=1e-14, atol=1e-14)



def test_a_workspace_frees_its_buffers_before_it_grows():
    # grown from a block of half the rows, it never holds both sizes at once
    rows, width = 60, 80
    work = Workspace()
    tracemalloc.start()
    try:
        for count in (rows // 2, rows):
            assert work.floats(count, width).shape == (3, count, width)
            assert work.mask(count, width).shape == (count, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rows * width * 8 + rows * width + 1024
