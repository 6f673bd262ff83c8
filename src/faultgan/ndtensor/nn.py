"""Differentiable neural-network primitives: 1-D convolutions, a dense
matmul, batch norm, activations, and the loss reductions the detector trains
with."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, UsageError
from . import kernels
from .tensor import Tensor, _lift, _make, _tracks, clip

BCE_CLAMP = 1e-7  # predictions are clamped to [BCE_CLAMP, 1 - BCE_CLAMP] before logs
BN_MOMENTUM = 0.1  # weight of a train-mode batch's statistics in the running stats
BN_EPS = 1e-5  # added to the variance before its square root


def _check_conv(op: str, x: Tensor, kernel: Tensor, stride: int, padding: int) -> None:
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise DimensionError(f"{op} expects 3-d input and kernel, got {x.shape} and {kernel.shape}")
    if stride < 1:
        raise UsageError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise UsageError(f"padding must be >= 0, got {padding}")


def _check_channels(c_in: int, kc_in: int, bias: Tensor | None, c_out: int) -> None:
    if c_in != kc_in:
        raise DimensionError(f"input has {c_in} channels but kernel expects {kc_in}")
    if bias is not None and bias.shape != (c_out,):
        raise DimensionError(f"bias shape {bias.shape} != ({c_out},)")


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate [B, Ci, L] with kernel [Co, Ci, k] -> [B, Co, out_len]."""
    _check_conv("conv1d", x, kernel, stride, padding)
    _, c_in, length = x.shape
    c_out, kc_in, k = kernel.shape
    _check_channels(c_in, kc_in, bias, c_out)
    if length + 2 * padding < k:
        raise DimensionError(f"input length {length} + 2*{padding} padding < kernel size {k}")

    x_data, k_data = x.data, kernel.data
    out, col = kernels.conv1d_forward(x_data, k_data, None if bias is None else bias.data, stride, padding)

    def backward(g):  # Tensor.backward zips the parents with (gx, gk, gb), so gb is dropped without a bias
        return kernels.conv1d_backward(g, x_data.shape, k_data, col, stride, padding)

    return _make(out, (x, kernel) if bias is None else (x, kernel, bias), backward)


def conv_transpose1d(x: Tensor, kernel: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """Adjoint of conv1d: [B, Ci, L] with kernel [Ci, Co, k] -> [B, Co, (L-1)*stride - 2*padding + k]."""
    _check_conv("conv_transpose1d", x, kernel, stride, padding)
    _, c_in, length = x.shape
    kc_in, c_out, k = kernel.shape
    _check_channels(c_in, kc_in, bias, c_out)
    out_len = (length - 1) * stride - 2 * padding + k
    if out_len <= 0:
        raise DimensionError(f"computed output length {out_len} is not positive")

    x_data, k_data = x.data, kernel.data
    out = kernels.conv_transpose1d_forward(
        x_data, k_data, None if bias is None else bias.data, stride, padding
    )

    def backward(g):  # Tensor.backward zips the parents with (gx, gk, gb), so gb is dropped without a bias
        return kernels.conv_transpose1d_backward(g, x_data, k_data, stride, padding)

    return _make(out, (x, kernel) if bias is None else (x, kernel, bias), backward)


def matmul(x: Tensor, w: Tensor, bias: Tensor | None = None, transpose_w: bool = False) -> Tensor:
    """[B, I] @ w [I, O] -> [B, O], plus an optional bias [O]. With
    ``transpose_w`` the weight is stored as [O, I] and read transposed."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-d input and weight, got {x.shape} and {w.shape}")
    x_data = x.data
    w_data = w.data.T if transpose_w else w.data
    _check_channels(x.shape[1], w_data.shape[0], bias, w_data.shape[1])
    out = x_data @ w_data
    if bias is not None:
        out += bias.data

    def backward(g):
        gw = g.T @ x_data if transpose_w else x_data.T @ g
        return g @ w_data.T, gw, g.sum(axis=0)

    return _make(out, (x, w) if bias is None else (x, w, bias), backward)


@dataclass
class BatchNormStats:
    """Per-channel running statistics, updated in train mode, used in eval."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "BatchNormStats":
        return cls(
            mean=np.zeros(channels, dtype=np.float32),
            var=np.ones(channels, dtype=np.float32),
        )


def batchnorm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: BatchNormStats,
    train: bool,
    slope: float | None = None,
) -> Tensor:
    """Normalize [B, C, L] per channel, apply the gamma/beta affine, then an
    optional leaky ReLU (slope in [0, 1]; 0 is ReLU, None is no activation),
    as one node.

    Train mode normalizes with batch statistics over (B, L) and folds them
    into the running stats with weight ``BN_MOMENTUM``; eval mode normalizes
    with the running stats, folded into one per-channel scale and shift.
    Both add ``BN_EPS`` to the variance. The backward pass is the
    closed form of Ioffe & Szegedy (2015), so train mode saves only the
    normalized input, the per-channel inverse std and, when a backward can
    run, the activation mask.
    """
    _check_slope(slope)
    if x.data.ndim != 3:
        raise DimensionError(f"batchnorm1d expects [B, C, L], got {x.shape}")
    channels = x.shape[1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise DimensionError(
            f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match {channels} channels"
        )

    col = (1, channels, 1)
    x_data, gamma_data = x.data, gamma.data
    keep_mask = _tracks((x, gamma, beta))
    if train:
        n = x_data.size // channels
        mu = x_data.mean(axis=(0, 2), keepdims=True)
        xhat = x_data - mu
        out = np.square(xhat)
        var = out.mean(axis=(0, 2), keepdims=True)
        m = np.float32(BN_MOMENTUM)
        stats.mean[...] = (1 - m) * stats.mean + m * mu.reshape(-1)
        stats.var[...] = (1 - m) * stats.var + m * var.reshape(-1)
        inv_std = 1.0 / np.sqrt(var + np.float32(BN_EPS))
        xhat *= inv_std
        np.multiply(xhat, gamma_data.reshape(col), out=out)
        out += beta.data.reshape(col)
        neg = _activate(out, slope, keep_mask)

        def backward(g):
            gy = _activation_grad(g, neg, slope)
            gbeta = gy.sum(axis=(0, 2))
            tmp = gy * xhat
            ggamma = tmp.sum(axis=(0, 2))
            # gx = gamma * inv_std / n * (n * gy - gbeta - xhat * ggamma), built in gy
            np.multiply(xhat, ggamma.reshape(col), out=tmp)
            tmp += gbeta.reshape(col)
            gy *= n
            gy -= tmp
            gy *= gamma_data.reshape(col) * inv_std / n
            return gy, ggamma, gbeta

        return _make(out, (x, gamma, beta), backward)

    mean = stats.mean.reshape(col).copy()  # a later train-mode call updates stats in place
    inv_std = 1.0 / np.sqrt(stats.var.reshape(col) + np.float32(BN_EPS))
    scale = gamma_data.reshape(col) * inv_std
    out = x_data * scale
    out += beta.data.reshape(col) - mean * scale
    neg = _activate(out, slope, keep_mask)

    def backward(g):
        gy = _activation_grad(g, neg, slope)
        xhat = (x_data - mean) * inv_std
        return gy * scale, (gy * xhat).sum(axis=(0, 2)), gy.sum(axis=(0, 2))

    return _make(out, (x, gamma, beta), backward)


def _check_slope(slope: float | None) -> None:
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise UsageError(f"leaky ReLU slope must lie in [0, 1], got {slope}")


def _activate(out: np.ndarray, slope: float | None, keep_mask: bool) -> np.ndarray | None:
    """Leaky ReLU in place as max(x, slope * x), which is x if x >= 0 else
    slope * x for a slope in [0, 1]. Returns the bool mask of scaled entries
    (x < 0, so x == 0 passes with slope 1) when ``keep_mask`` is set, else
    None; there is no mask without an activation."""
    if slope is None:
        return None
    neg = out < 0 if keep_mask else None
    np.maximum(out, out * slope, out=out)
    return neg


def _activation_grad(g: np.ndarray, neg: np.ndarray | None, slope: float | None) -> np.ndarray:
    """A fresh gradient array: the incoming one, scaled where the forward was."""
    if neg is None:
        return g.copy()
    return g * np.array([1, slope], g.dtype).take(neg.view(np.uint8))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """Elementwise x if x >= 0 else slope * x, for a slope in [0, 1]."""
    _check_slope(slope)
    out = x.data.copy()
    neg = _activate(out, slope, _tracks((x,)))

    def backward(g):
        return (_activation_grad(g, neg, slope),)

    return _make(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return leaky_relu(x, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; output stays strictly inside (0, 1)."""
    x_data = x.data
    out = np.empty_like(x_data)
    pos = x_data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x_data[pos]))
    ex = np.exp(x_data[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, np.finfo(np.float32).tiny, np.float32(1.0 - 2.0**-24), out=out)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), backward)


def bce_loss(prediction: Tensor, target) -> Tensor:
    """Mean binary cross entropy; predictions clamped away from {0, 1}."""
    target = _lift(target)
    if prediction.shape != target.shape:
        raise DimensionError(f"prediction {prediction.shape} vs target {target.shape}")
    p = clip(prediction, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = -(target * p.log() + (1.0 - target) * (1.0 - p).log())
    return loss.mean()


def l1_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference."""
    if a.shape != b.shape:
        raise DimensionError(f"l1_mean shapes differ: {a.shape} vs {b.shape}")
    return (a - b).abs().mean()


def l2_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference."""
    if a.shape != b.shape:
        raise DimensionError(f"l2_mean shapes differ: {a.shape} vs {b.shape}")
    return ((a - b) ** 2).mean()
