import numpy as np
import pytest

from reference import finite_difference_gradcheck
from datasp.costmodel import (
    backward_params,
    init_params,
    inv_softplus,
    predict_costs,
    softplus,
)
from datasp.errors import ValidationError


def test_initial_prediction_equals_prior():
    params = init_params(4, [16, 16], 7, seed=0)
    prior = np.linspace(0.5, 3.0, 7)
    for trial in range(5):
        x = np.random.default_rng(trial).standard_normal(4)
        costs, _ = predict_costs(params, x, prior)
        assert costs == pytest.approx(prior, abs=1e-12)


def test_a_block_of_contexts_costs_what_each_context_costs():
    rng = np.random.default_rng(4)
    params = init_params(5, [16, 8], 40, seed=2)
    for arr in params.flat_arrays():  # a trained model: the last layer is not zero
        arr[...] = rng.standard_normal(arr.shape)
    prior = rng.uniform(0.5, 3.0, 40)
    contexts = rng.standard_normal((7, 5))
    block, _ = predict_costs(params, contexts, prior)
    assert block.shape == (7, 40)
    for x, costs in zip(contexts, block):
        np.testing.assert_allclose(costs, predict_costs(params, x, prior)[0],
                                   rtol=1e-12, atol=0)


def test_init_deterministic():
    a = init_params(3, [8], 5, seed=11)
    b = init_params(3, [8], 5, seed=11)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_affine_model_without_hidden_layers():
    params = init_params(3, [], 4, seed=0)
    prior = np.ones(4)
    costs, _ = predict_costs(params, np.zeros(3), prior)
    assert costs == pytest.approx(prior, abs=1e-12)


def test_large_negative_raw_hits_floor():
    params = init_params(2, [], 3, seed=0, cost_floor=0.01)
    params.biases[-1][:] = -50.0
    prior = np.array([1.0, 2.0, 0.5])
    costs, _ = predict_costs(params, np.zeros(2), prior)
    assert costs == pytest.approx(np.full(3, 0.01), abs=1e-8)


def test_parameterization_identity():
    params = init_params(1, [], 1, seed=0, cost_floor=0.01)
    costs, _ = predict_costs(params, np.zeros(1), np.array([1.0]))
    assert costs[0] == pytest.approx(1.0, abs=1e-12)


def test_positivity_for_arbitrary_params():
    rng = np.random.default_rng(5)
    params = init_params(3, [8, 8], 6, seed=1, cost_floor=1e-3)
    for w in params.weights:
        w[:] = rng.standard_normal(w.shape) * 5
    for b in params.biases:
        b[:] = rng.standard_normal(b.shape) * 5
    prior = rng.uniform(0.5, 2.0, size=6)
    for _ in range(10):
        costs, _ = predict_costs(params, rng.standard_normal(3) * 3, prior)
        assert (costs >= 1e-3).all()


def test_backward_zero_gradient():
    params = init_params(3, [4], 5, seed=2)
    prior = np.ones(5)
    _, cache = predict_costs(params, np.ones(3), prior)
    grads = backward_params(cache, np.zeros(5))
    assert all(not g.any() for g in grads)


def test_backward_single_edge_analytic():
    # no hidden layer, one edge: cost = floor + softplus(w.x + b + shift)
    params = init_params(2, [], 1, seed=0, cost_floor=0.01)
    params.weights[0][:] = np.array([[0.3, -0.7]])
    params.biases[0][:] = np.array([0.2])
    prior = np.array([1.5])
    x = np.array([0.5, 1.0])
    costs, cache = predict_costs(params, x, prior)
    grads = backward_params(cache, np.array([1.0]))
    shift = inv_softplus(np.array([1.5 - 0.01]))[0]
    raw = 0.3 * 0.5 - 0.7 * 1.0 + 0.2
    gate = 1.0 / (1.0 + np.exp(-(raw + shift)))
    assert grads[1][0] == pytest.approx(gate, rel=1e-12)
    assert grads[0][0] == pytest.approx(gate * x, rel=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    params = init_params(4, [6, 5], 8, seed=3)
    for w in params.weights:
        w[:] = rng.standard_normal(w.shape) * 0.7
    for b in params.biases:
        b[:] = rng.standard_normal(b.shape) * 0.3
    prior = rng.uniform(0.5, 2.0, size=8)
    x = rng.standard_normal(4)
    upstream = rng.standard_normal(8)

    costs, cache = predict_costs(params, x, prior)
    grads = backward_params(cache, upstream)

    worst = 0.0
    for layer in range(len(params.weights)):
        for arr, g in ((params.weights[layer], grads[2 * layer]),
                       (params.biases[layer], grads[2 * layer + 1])):
            def loss(flat, arr=arr):
                saved = arr.copy()
                arr[:] = flat.reshape(arr.shape)
                value = float(np.dot(predict_costs(params, x, prior)[0], upstream))
                arr[:] = saved
                return value

            err = finite_difference_gradcheck(loss, g.ravel(), arr.ravel(), step=1e-6)
            worst = max(worst, err)
    assert worst <= 1e-5


def test_inv_softplus_round_trip():
    y = np.array([1e-6, 0.1, 1.0, 5.0, 25.0, 100.0])
    assert softplus(inv_softplus(y)) == pytest.approx(y, rel=1e-9)


def test_shape_validation():
    params = init_params(3, [4], 5, seed=0)
    with pytest.raises(ValidationError):
        predict_costs(params, np.zeros(2), np.ones(5))
    with pytest.raises(ValidationError):
        predict_costs(params, np.zeros(3), np.ones(4))
    _, cache = predict_costs(params, np.zeros(3), np.ones(5))
    with pytest.raises(ValidationError):
        backward_params(cache, np.zeros(4))
    with pytest.raises(ValidationError):
        init_params(0, [4], 5, seed=0)
