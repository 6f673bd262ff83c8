"""Raw numpy kernels for 1-D convolution ops.

These are dtype-preserving pure functions; the autodiff layer calls them on
float32 buffers. Forward kernels return whatever intermediates the matching
backward kernel needs so nothing is recomputed.

A transposed convolution is the adjoint of a convolution, so both run on
``_gather`` (windows times kernel) and ``_scatter`` (rows times kernel, taps
added at their positions), each once as a forward and once as an input
gradient. Both take and return activations as [B, channels, positions]: each
is one batched matmul whose result is already in that layout, so neither
transposes an activation.
"""

from __future__ import annotations

import numpy as np


def _gather(x, kmat, k: int, stride: int, padding: int, out_len: int):
    """Pad x [B, C, L], take its out_len windows as col [B, out_len, C*k] and
    multiply kmat [O, C*k] by each item's windows; returns
    (out [B, O, out_len], col)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    b, c, _ = xp.shape
    sb, sc, sl = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(b, c, out_len, k), strides=(sb, sc, sl * stride, sl)
    )
    col = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(b, out_len, c * k)
    return np.matmul(kmat, col.transpose(0, 2, 1)), col


def _scatter(g, kmat, k: int, stride: int, padding: int, full_len: int):
    """Multiply kmat.T [C*k, O] by each item of g [B, O, n], add each
    position's k taps at their places of a [B, C, full_len] buffer and crop
    the padding from both ends."""
    b, _, n = g.shape
    taps = np.matmul(kmat.T, g).reshape(b, -1, k, n)  # [B, C, k, n]
    full = np.zeros((b, taps.shape[1], full_len), dtype=g.dtype)
    span = (n - 1) * stride + 1
    for j in range(k):
        full[:, :, j : j + span : stride] += taps[:, :, j]
    return np.ascontiguousarray(full[:, :, padding : full_len - padding])


def conv1d_forward(x, kernel, bias, stride: int, padding: int):
    """x [B, Ci, L] * kernel [Co, Ci, k] -> (out [B, Co, out_len], col cache)."""
    c_out, _, k = kernel.shape
    out_len = (x.shape[2] + 2 * padding - k) // stride + 1
    out, col = _gather(x, kernel.reshape(c_out, -1), k, stride, padding, out_len)
    if bias is not None:
        out += bias.reshape(1, c_out, 1)
    return out, col


def conv1d_backward(grad_out, x_shape, kernel, col, stride: int, padding: int):
    """Gradients of conv1d_forward w.r.t. (x, kernel, bias)."""
    _, _, length = x_shape
    c_out, _, k = kernel.shape
    # the kernel gradient sums over every (item, position) in one GEMM
    gmat = np.ascontiguousarray(grad_out.transpose(0, 2, 1)).reshape(-1, c_out)
    grad_kernel = (gmat.T @ col.reshape(gmat.shape[0], -1)).reshape(kernel.shape)
    grad_x = _scatter(grad_out, kernel.reshape(c_out, -1), k, stride, padding, length + 2 * padding)
    return grad_x, grad_kernel, grad_out.sum(axis=(0, 2))


def conv_transpose1d_forward(x, kernel, bias, stride: int, padding: int):
    """x [B, Ci, L] * kernel [Ci, Co, k] -> out [B, Co, (L-1)*stride - 2*padding + k]."""
    _, c_in, length = x.shape
    _, c_out, k = kernel.shape
    full_len = (length - 1) * stride + k
    out = _scatter(x, kernel.reshape(c_in, -1), k, stride, padding, full_len)
    if bias is not None:
        out += bias.reshape(1, c_out, 1)
    return out


def conv_transpose1d_backward(grad_out, x, kernel, stride: int, padding: int):
    """Gradients of conv_transpose1d_forward w.r.t. (x, kernel, bias)."""
    b, c_in, length = x.shape
    _, c_out, k = kernel.shape
    grad_x, col = _gather(grad_out, kernel.reshape(c_in, -1), k, stride, padding, length)
    grad_kernel = np.tensordot(
        x, col.reshape(b, length, c_out, k), axes=([0, 2], [0, 1])
    )  # [Ci, Co, k]
    return grad_x, grad_kernel, grad_out.sum(axis=(0, 2))
