"""Adam: first-step magnitude, multi-step trajectory against a float64
reference, and bookkeeping contracts."""

import numpy as np
import pytest

from faultgan.errors import DimensionError, UsageError
from faultgan.ndtensor import Tensor, adam_step, init_adam


def reference_adam(theta0, grads, lr, b1, b2, eps):
    """Scalar Adam trajectory computed step by step in float64."""
    theta, m, v = float(theta0), 0.0, 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append(theta)
    return history


def test_moments_zero_initialized():
    state = init_adam([Tensor([1.0, 2.0], requires_grad=True)])
    assert state.step_count == 0
    assert all((m == 0).all() for m in state.first_moment)
    assert all((v == 0).all() for v in state.second_moment)


def test_first_step_is_about_lr_times_sign():
    # bias correction makes the first update ~ lr * sign(g)
    for g in (0.5, -3.0, 1e-4):
        p = Tensor([1.0], requires_grad=True)
        state = init_adam([p], learning_rate=0.001, beta1=0.5, beta2=0.999)
        adam_step([p], [np.array([g], dtype=np.float32)], state)
        assert p.data[0] == pytest.approx(1.0 - 0.001 * np.sign(g), abs=1e-5)
        assert state.step_count == 1


def test_multi_step_matches_reference():
    lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
    rng = np.random.default_rng(3)
    grads = rng.normal(size=6)
    p = Tensor([0.7], requires_grad=True)
    state = init_adam([p], learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    expected = reference_adam(0.7, grads, lr, b1, b2, eps)
    for g, want in zip(grads, expected):
        adam_step([p], [np.array([g], dtype=np.float32)], state)
        assert p.data[0] == pytest.approx(want, abs=1e-5)
    assert state.step_count == len(grads)


def test_zero_grad_leaves_params_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    state = init_adam([p])
    before = p.data.copy()
    adam_step([p], [np.zeros(2, dtype=np.float32)], state)
    np.testing.assert_array_equal(p.data, before)


def test_equal_grads_give_identical_updates():
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([1.0], requires_grad=True)
    state = init_adam([a, b], learning_rate=0.05)
    g = np.array([0.3], dtype=np.float32)
    adam_step([a, b], [g, g.copy()], state)
    np.testing.assert_array_equal(a.data, b.data)


def test_none_grad_treated_as_zero():
    p = Tensor([4.0], requires_grad=True)
    state = init_adam([p])
    adam_step([p], [None], state)
    np.testing.assert_array_equal(p.data, [4.0])
    assert state.step_count == 1


def test_shape_mismatch_raises():
    p = Tensor([1.0, 2.0], requires_grad=True)
    state = init_adam([p])
    with pytest.raises(DimensionError):
        adam_step([p], [np.zeros(3, dtype=np.float32)], state)


def test_invalid_hyperparameters_raise():
    p = [Tensor([1.0], requires_grad=True)]
    with pytest.raises(UsageError):
        init_adam(p, learning_rate=0.0)
    with pytest.raises(UsageError):
        init_adam(p, beta1=1.0)
    with pytest.raises(UsageError):
        init_adam(p, beta2=0.0)


def test_adam_step_from_tensor_grads():
    p = Tensor([2.0], requires_grad=True)
    state = init_adam([p], learning_rate=0.001, beta1=0.5, beta2=0.999)
    (p * p).sum().backward()
    adam_step([p], [p.grad], state)
    assert p.data[0] == pytest.approx(2.0 - 0.001, abs=1e-5)
