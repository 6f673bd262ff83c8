"""Convolutions, batch norm, activations, and loss reductions: forward
oracles, gradient checks, and the conv/conv-transpose adjoint identity."""

import math

import numpy as np
import pytest
from helpers import check_grads, naive_conv1d, naive_conv_transpose1d

from faultgan.errors import DimensionError
from faultgan.ndtensor import (
    BCE_CLAMP,
    BatchNormStats,
    Tensor,
    batchnorm1d,
    bce_loss,
    conv1d,
    conv_transpose1d,
    l1_mean,
    l2_mean,
    leaky_relu,
    relu,
    sigmoid,
)
from faultgan.ndtensor import kernels

SEEDS = range(20)


# -- conv1d ------------------------------------------------------------------


def test_conv1d_identity_kernel():
    out = conv1d(Tensor([[[1, 2, 3]]]), Tensor([[[1]]]), None)
    np.testing.assert_array_equal(out.data, [[[1, 2, 3]]])


def test_conv1d_sliding_sum():
    # hand oracle: windowed sums of [1,2,3,4] with kernel [1,1]
    out = conv1d(Tensor([[[1, 2, 3, 4]]]), Tensor([[[1, 1]]]), None)
    np.testing.assert_array_equal(out.data, [[[3, 5, 7]]])


def test_conv1d_zero_input_is_zero():
    rng = np.random.default_rng(0)
    out = conv1d(Tensor(np.zeros((2, 3, 8))), Tensor(rng.normal(size=(4, 3, 3))), None, stride=2, padding=1)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 1), (3, 0)])
def test_conv1d_matches_naive(stride, padding):
    rng = np.random.default_rng(stride * 10 + padding)
    x = rng.normal(size=(2, 3, 11))
    k = rng.normal(size=(4, 3, 3))
    b = rng.normal(size=4)
    out = conv1d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding)
    expected = naive_conv1d(x, k, b, stride=stride, padding=padding)
    assert out.shape == expected.shape
    np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-5)


def test_conv1d_output_length_formula():
    for length, k, s, p in [(10, 4, 2, 1), (16, 4, 2, 1), (7, 3, 1, 0), (5, 5, 1, 0)]:
        out = conv1d(Tensor(np.zeros((1, 1, length))), Tensor(np.zeros((1, 1, k))), None, stride=s, padding=p)
        assert out.shape[2] == (length + 2 * p - k) // s + 1


def test_conv1d_channel_mismatch_raises():
    with pytest.raises(DimensionError):
        conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((3, 4, 3))), None)


def test_conv1d_kernel_larger_than_input_raises():
    with pytest.raises(DimensionError):
        conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))), None)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_conv1d(seed):
    rng = np.random.default_rng(seed)
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 3))
    x = rng.normal(size=(2, 2, 6))
    k = rng.normal(size=(2, 2, 3))
    b = rng.normal(size=2)
    tx = Tensor(x, requires_grad=True)
    tk = Tensor(k, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = conv1d(tx, tk, tb, stride=stride, padding=padding)
    w = rng.normal(size=out.shape)
    loss = (out * Tensor(w)).sum()
    check_grads(
        loss,
        [tx, tk, tb],
        lambda xv, kv, bv: (kernels.conv1d_forward(xv, kv, bv, stride, padding)[0] * w).sum(),
        [x, k, b],
    )


# -- conv_transpose1d ---------------------------------------------------------


def test_conv_transpose1d_scatter_oracle():
    # hand oracle: stride-2 scatter of [1,2] with kernel [1]
    out = conv_transpose1d(Tensor([[[1, 2]]]), Tensor([[[1]]]), None, stride=2)
    np.testing.assert_array_equal(out.data, [[[1, 0, 2]]])


def test_conv_transpose1d_identity():
    out = conv_transpose1d(Tensor([[[5]]]), Tensor([[[1]]]), None, stride=1)
    np.testing.assert_array_equal(out.data, [[[5]]])


def test_conv_transpose1d_overlap_add():
    out = conv_transpose1d(Tensor([[[1, 1]]]), Tensor([[[1, 1]]]), None, stride=1)
    np.testing.assert_array_equal(out.data, [[[1, 2, 1]]])


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (2, 1), (3, 1)])
def test_conv_transpose1d_matches_naive(stride, padding):
    rng = np.random.default_rng(stride * 10 + padding)
    x = rng.normal(size=(2, 3, 5))
    k = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=2)
    out = conv_transpose1d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding)
    expected = naive_conv_transpose1d(x, k, b, stride=stride, padding=padding)
    assert out.shape == expected.shape
    assert out.shape[2] == (5 - 1) * stride - 2 * padding + 4
    np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-5)


def test_conv_transpose1d_negative_length_raises():
    with pytest.raises(DimensionError):
        conv_transpose1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 1))), None, stride=1, padding=3)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_conv_transpose1d(seed):
    rng = np.random.default_rng(seed + 100)
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    x = rng.normal(size=(2, 2, 4))
    k = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=3)
    tx = Tensor(x, requires_grad=True)
    tk = Tensor(k, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = conv_transpose1d(tx, tk, tb, stride=stride, padding=padding)
    w = rng.normal(size=out.shape)
    loss = (out * Tensor(w)).sum()
    check_grads(
        loss,
        [tx, tk, tb],
        lambda xv, kv, bv: (kernels.conv_transpose1d_forward(xv, kv, bv, stride, padding) * w).sum(),
        [x, k, b],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_adjoint_identity(seed):
    # <conv(x, K), y> == <x, convT(y, K)> for shared kernel and geometry;
    # compatible shapes require the stride to tile the input exactly
    rng = np.random.default_rng(seed)
    stride = int(rng.integers(1, 4))
    padding = int(rng.integers(0, 2))
    c_in, c_out, k = 3, 4, 4
    n_windows = int(rng.integers(2, 6))
    length = (n_windows - 1) * stride + k - 2 * padding
    x = rng.normal(size=(2, c_in, length)).astype(np.float32)
    kern = rng.normal(size=(c_out, c_in, k)).astype(np.float32)
    fwd = conv1d(Tensor(x), Tensor(kern), None, stride=stride, padding=padding)
    y = rng.normal(size=fwd.shape).astype(np.float32)
    adj = conv_transpose1d(Tensor(y), Tensor(kern), None, stride=stride, padding=padding)
    lhs = float(np.sum(fwd.data.astype(np.float64) * y))
    rhs = float(np.sum(x.astype(np.float64) * adj.data))
    assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(lhs))


@pytest.mark.parametrize("stride,padding,k,length", [
    (2, 1, 4, 16), (2, 1, 4, 750), (2, 1, 4, 2),  # the encoder/decoder pyramid
    (1, 0, 8, 8), (1, 0, 750, 750), (1, 0, 1, 1),  # the full-length heads
])
def test_adjoint_pair_is_bit_exact(stride, padding, k, length):
    # on exact-fit shapes each convolution's input gradient is the other's
    # forward, to the bit: both run on the same gather and scatter cores
    rng = np.random.default_rng(k + length)
    kern = rng.normal(size=(6, 5, k)).astype(np.float32)  # conv1d [Co, Ci, k]; conv_transpose1d [Ci, Co, k]
    x = rng.normal(size=(3, 5, length)).astype(np.float32)
    out, col = kernels.conv1d_forward(x, kern, None, stride, padding)
    g = rng.normal(size=out.shape).astype(np.float32)
    grad_x = kernels.conv1d_backward(g, x.shape, kern, col, stride, padding)[0]
    assert np.array_equal(grad_x, kernels.conv_transpose1d_forward(g, kern, None, stride, padding))

    xt = rng.normal(size=out.shape).astype(np.float32)
    out_t = kernels.conv_transpose1d_forward(xt, kern, None, stride, padding)
    assert out_t.shape == x.shape
    g_t = rng.normal(size=out_t.shape).astype(np.float32)
    grad_xt = kernels.conv_transpose1d_backward(g_t, xt, kern, stride, padding)[0]
    assert np.array_equal(grad_xt, kernels.conv1d_forward(g_t, kern, None, stride, padding)[0])


# -- batchnorm1d ---------------------------------------------------------------


def _bn_args(channels):
    return (
        Tensor(np.ones(channels), requires_grad=True),
        Tensor(np.zeros(channels), requires_grad=True),
        BatchNormStats.fresh(channels),
    )


def test_batchnorm_constant_input_collapses_to_zero():
    gamma, beta, stats = _bn_args(1)
    out = batchnorm1d(Tensor(np.full((2, 1, 3), 2.0)), gamma, beta, stats, train=True)
    np.testing.assert_allclose(out.data, np.zeros((2, 1, 3)), atol=1e-4)


def test_batchnorm_already_normalized_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 2, 100))
    x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
    gamma, beta, stats = _bn_args(2)
    out = batchnorm1d(Tensor(x), gamma, beta, stats, train=True)
    np.testing.assert_allclose(out.data, x, atol=1e-3)


def test_batchnorm_zero_gamma_outputs_beta():
    rng = np.random.default_rng(1)
    beta = Tensor(np.array([1.5, -2.0], dtype=np.float32), requires_grad=True)
    out = batchnorm1d(
        Tensor(rng.normal(size=(3, 2, 5))),
        Tensor(np.zeros(2), requires_grad=True),
        beta,
        BatchNormStats.fresh(2),
        train=True,
    )
    expected = np.broadcast_to(beta.data.reshape(1, 2, 1), (3, 2, 5))
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_train_output_is_standardized(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.uniform(-3, 3), scale=rng.uniform(0.5, 3.0), size=(4, 3, 50))
    gamma, beta, stats = _bn_args(3)
    out = batchnorm1d(Tensor(x), gamma, beta, stats, train=True)
    mean = out.data.mean(axis=(0, 2))
    var = out.data.var(axis=(0, 2))
    assert np.abs(mean).max() <= 1e-5
    assert np.abs(var - 1.0).max() <= 1e-3


def test_batchnorm_eval_uses_running_stats():
    gamma, beta, stats = _bn_args(1)
    stats.mean[:] = 2.0
    stats.var[:] = 4.0
    x = np.full((1, 1, 4), 4.0, dtype=np.float32)
    out = batchnorm1d(Tensor(x), gamma, beta, stats, train=False)
    np.testing.assert_allclose(out.data, np.full((1, 1, 4), 1.0), atol=1e-5)
    # eval mode must not touch the stats
    assert stats.mean[0] == 2.0 and stats.var[0] == 4.0


def test_batchnorm_updates_running_stats_in_train():
    gamma, beta, stats = _bn_args(1)
    x = np.full((1, 1, 4), 10.0, dtype=np.float32)
    batchnorm1d(Tensor(x), gamma, beta, stats, train=True)
    assert stats.mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 10.0)
    assert stats.var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_batchnorm(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2, 5))
    gamma = rng.uniform(0.5, 1.5, size=2)
    beta = rng.normal(size=2)
    eps = 1e-5
    tx = Tensor(x, requires_grad=True)
    tg = Tensor(gamma, requires_grad=True)
    tb = Tensor(beta, requires_grad=True)
    out = batchnorm1d(tx, tg, tb, BatchNormStats.fresh(2), train=True)
    w = rng.normal(size=out.shape)

    def reference(xv, gv, bv):
        mu = xv.mean(axis=(0, 2), keepdims=True)
        var = ((xv - mu) ** 2).mean(axis=(0, 2), keepdims=True)
        xn = (xv - mu) / np.sqrt(var + eps)
        return (xn * gv.reshape(1, 2, 1) + bv.reshape(1, 2, 1)) * w

    loss = (out * Tensor(w)).sum()
    check_grads(loss, [tx, tg, tb], lambda xv, gv, bv: reference(xv, gv, bv).sum(), [x, gamma, beta])


def _unfused_batchnorm(x, gamma, beta, stats, train, momentum=0.1, eps=1e-5, slope=None):
    """Batch norm composed from generic tensor ops, then a separate leaky ReLU:
    the reference the fused op must match."""
    c = x.shape[1]
    if train:
        mu = x.mean(axis=(0, 2), keepdims=True)
        var = ((x - mu) ** 2).mean(axis=(0, 2), keepdims=True)
        m = np.float32(momentum)
        stats.mean[...] = (1 - m) * stats.mean + m * mu.data.reshape(-1)
        stats.var[...] = (1 - m) * stats.var + m * var.data.reshape(-1)
        normalized = (x - mu) / (var + eps).sqrt()
    else:
        mu = Tensor(stats.mean.reshape(1, c, 1))
        sd = Tensor(np.sqrt(stats.var + np.float32(eps)).reshape(1, c, 1))
        normalized = (x - mu) / sd
    out = normalized * gamma.reshape((1, c, 1)) + beta.reshape((1, c, 1))
    return out if slope is None else leaky_relu(out, slope)


def _random_stats(rng, channels):
    stats = BatchNormStats.fresh(channels)
    stats.mean[:] = rng.normal(size=channels)
    stats.var[:] = rng.uniform(0.5, 2.0, size=channels)
    return stats


@pytest.mark.parametrize("slope", [None, 0.0, 0.2])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("seed", range(5))
def test_fused_batchnorm_matches_unfused(seed, train, slope):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 2.0), size=(4, 3, 50))
    gamma = rng.uniform(0.5, 1.5, size=3)
    beta = rng.normal(size=3)
    w = rng.normal(size=x.shape)
    stats0 = _random_stats(rng, 3)
    results = []
    for op in (batchnorm1d, _unfused_batchnorm):
        tx, tg, tb = (Tensor(v, requires_grad=True) for v in (x, gamma, beta))
        stats = BatchNormStats(mean=stats0.mean.copy(), var=stats0.var.copy())
        out = op(tx, tg, tb, stats, train, slope=slope)
        (out * Tensor(w)).sum().backward()
        results.append((out.data, stats.mean, stats.var, tx.grad, tg.grad, tb.grad))
    fused, unfused = results
    np.testing.assert_allclose(fused[0], unfused[0], rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(fused[1], unfused[1], rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(fused[2], unfused[2], rtol=1e-6, atol=1e-6)
    for got, want in zip(fused[3:], unfused[3:]):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


@pytest.mark.parametrize("slope", [None, 0.0, 0.2])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_fused_batchnorm(seed, train, slope):
    rng = np.random.default_rng(seed)
    eps = 1e-5
    x = rng.normal(size=(3, 2, 5))
    gamma = rng.uniform(0.5, 1.5, size=2)
    stats = _random_stats(rng, 2)
    run_mean = stats.mean.astype(np.float64).reshape(1, 2, 1)
    run_var = stats.var.astype(np.float64).reshape(1, 2, 1)

    def pre_activation(xv, gv, bv):
        if train:
            mu = xv.mean(axis=(0, 2), keepdims=True)
            var = ((xv - mu) ** 2).mean(axis=(0, 2), keepdims=True)
        else:
            mu, var = run_mean, run_var
        return (xv - mu) / np.sqrt(var + eps) * gv.reshape(1, 2, 1) + bv.reshape(1, 2, 1)

    # keep every output clear of the kink, where finite differences straddle it
    beta = rng.normal(size=2)
    while slope is not None and np.abs(pre_activation(x, gamma, beta)).min() < 0.05:
        beta = rng.normal(size=2)
    w = rng.normal(size=x.shape)

    def reference(xv, gv, bv):
        y = pre_activation(xv, gv, bv)
        if slope is not None:
            y = np.where(y >= 0, y, slope * y)
        return (y * w).sum()

    tx, tg, tb = (Tensor(v, requires_grad=True) for v in (x, gamma, beta))
    out = batchnorm1d(tx, tg, tb, stats, train=train, slope=slope)
    check_grads((out * Tensor(w)).sum(), [tx, tg, tb], reference, [x, gamma, beta])


@pytest.mark.parametrize("slope", [0.0, 0.2])
def test_fused_batchnorm_zero_output_passes_gradient(slope):
    # x = [-1, 0, 1] normalizes to [-a, 0, a]: the exact zero takes slope 1
    gamma, beta, stats = _bn_args(1)
    out = batchnorm1d(Tensor([[[-1.0, 0.0, 1.0]]]), gamma, beta, stats, train=True, slope=slope)
    assert out.data[0, 0, 1] == 0.0
    out.sum().backward()
    assert beta.grad[0] == pytest.approx(2.0 + slope)


# -- activations ---------------------------------------------------------------


def test_leaky_relu_anchor_points():
    out = leaky_relu(Tensor([-1.0, 0.0, 2.0]), 0.2)
    np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0], atol=1e-7)


def test_leaky_relu_slope_one_is_identity():
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(leaky_relu(Tensor(x), 1.0).data, x.astype(np.float32))


def test_leaky_relu_slope_zero_is_relu():
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(leaky_relu(Tensor(x), 0.0).data, relu(Tensor(x)).data)
    np.testing.assert_allclose(relu(Tensor(x)).data, np.maximum(x, 0.0).astype(np.float32))


def test_leaky_relu_zero_passes_gradient():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    leaky_relu(x, 0.2).sum().backward()
    np.testing.assert_allclose(x.grad, [0.2, 1.0, 1.0])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_leaky_relu(seed):
    rng = np.random.default_rng(seed)
    slope = float(rng.uniform(0.0, 0.5))
    x = rng.uniform(0.1, 2.0, size=(20,)) * rng.choice([-1.0, 1.0], size=20)
    w = rng.normal(size=20)
    tx = Tensor(x, requires_grad=True)
    loss = (leaky_relu(tx, slope) * Tensor(w)).sum()
    check_grads(loss, [tx], lambda v: (np.where(v >= 0, v, slope * v) * w).sum(), [x])


def test_sigmoid_symmetry_and_range():
    assert sigmoid(Tensor([0.0])).item() == pytest.approx(0.5)
    x = np.array([-3.0, -0.5, 0.7, 4.0])
    s_pos = sigmoid(Tensor(x)).data
    s_neg = sigmoid(Tensor(-x)).data
    np.testing.assert_allclose(s_pos + s_neg, np.ones(4), atol=1e-6)
    extreme = sigmoid(Tensor([-500.0, 500.0])).data
    assert np.isfinite(extreme).all()
    assert (extreme > 0).all() and (extreme < 1).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_sigmoid(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, size=(16,))
    w = rng.normal(size=16)
    tx = Tensor(x, requires_grad=True)
    loss = (sigmoid(tx) * Tensor(w)).sum()
    check_grads(loss, [tx], lambda v: (1.0 / (1.0 + np.exp(-v)) * w).sum(), [x])


# -- losses --------------------------------------------------------------------


def test_bce_half_is_ln2():
    assert bce_loss(Tensor([0.5]), Tensor([1.0])).item() == pytest.approx(math.log(2), rel=1e-6)
    assert bce_loss(Tensor([0.5, 0.5]), Tensor([0.0, 1.0])).item() == pytest.approx(math.log(2), rel=1e-6)


def test_bce_perfect_prediction_near_zero():
    loss = bce_loss(Tensor([0.0, 1.0]), Tensor([0.0, 1.0])).item()
    assert 0.0 <= loss <= 2e-7  # only the clamp keeps it off exactly zero


def test_bce_clamp_ceiling():
    expected = -math.log(BCE_CLAMP)
    assert bce_loss(Tensor([0.0]), Tensor([1.0])).item() == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_bce_non_negative(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, size=32)
    t = rng.integers(0, 2, size=32).astype(np.float64)
    assert bce_loss(Tensor(p), Tensor(t)).item() >= 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_bce(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, size=(12,))
    t = rng.integers(0, 2, size=12).astype(np.float64)
    tp = Tensor(p, requires_grad=True)
    loss = bce_loss(tp, Tensor(t))
    check_grads(loss, [tp], lambda pv: -np.mean(t * np.log(pv) + (1 - t) * np.log(1 - pv)), [p])


def test_l1_mean_examples():
    assert l1_mean(Tensor([1, 2, 3]), Tensor([1, 2, 3])).item() == 0.0
    assert l1_mean(Tensor([0, 0]), Tensor([1, -1])).item() == pytest.approx(1.0)
    assert l1_mean(Tensor([1, 2, 3]), Tensor([2, 4, 6])).item() == pytest.approx(2.0)


def test_l2_mean_examples():
    assert l2_mean(Tensor([1, 2]), Tensor([1, 2])).item() == 0.0
    assert l2_mean(Tensor([0.0]), Tensor([2.0])).item() == pytest.approx(4.0)
    assert l2_mean(Tensor([1, 1]), Tensor([0, 2])).item() == pytest.approx(1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_l1_l2_symmetric_and_zero_only_at_equality(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=8)
    b = a.copy()
    b[int(rng.integers(0, 8))] += rng.uniform(0.5, 2.0)
    for fn in (l1_mean, l2_mean):
        assert fn(Tensor(a), Tensor(b)).item() == pytest.approx(fn(Tensor(b), Tensor(a)).item())
        assert fn(Tensor(a), Tensor(b)).item() > 0.0
        assert fn(Tensor(a), Tensor(a)).item() == 0.0


def test_loss_shape_mismatch_raises():
    for fn in (l1_mean, l2_mean):
        with pytest.raises(DimensionError):
            fn(Tensor([1, 2]), Tensor([1, 2, 3]))


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_l1_l2(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = a + rng.choice([-1.0, 1.0], size=(3, 4)) * rng.uniform(0.2, 1.0, size=(3, 4))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    loss = l1_mean(ta, tb) + l2_mean(ta, tb)
    check_grads(
        loss,
        [ta, tb],
        lambda av, bv: np.mean(np.abs(av - bv)) + np.mean((av - bv) ** 2),
        [a, b],
    )
