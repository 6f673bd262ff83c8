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

``_gather``'s im2col matrix ``col`` is tap-major, [C*k, B, positions]: row
c*k + j holds tap j of channel c for every item and window position. It is
filled by one strided copy per tap whose rows are a whole item long and unit
stride, and only the window positions that fall in the padding are zeroed, so
the input is never padded. Each item's [C*k, positions] block is a strided
view that numpy hands to BLAS without a copy, and the kernel gradients read
``col`` as one transposed [B*positions, C*k] operand.
"""

from __future__ import annotations

import numpy as np


def _gather(x, kmat, k: int, stride: int, padding: int, out_len: int):
    """Take the out_len windows of x [B, C, L], zero-padded by ``padding`` at
    both ends, as col [C*k, B, out_len] and multiply kmat [O, C*k] by each
    item's windows; returns (out [B, O, out_len], col).

    Window t's tap j reads x at t*stride + j - padding. For each tap the
    windows [lo, hi) read x, in one copy of x[:, :, lo*stride + j - padding ::
    stride]; the windows before lo and from hi on read padding and are zeroed.
    With padding >= k - 1 a tap can read padding in every window.

    The product has the bits of kmat times the window-major [B, out_len,
    C*k] matrix transposed, the layout ``col`` had before, wherever BLAS
    takes the same path for a row-major operand as for a transposed one.
    OpenBLAS 0.3.31 does with every kernel family once an item is more than
    1e6 multiply-adds, and at every size with its AVX2 (Haswell) kernels.
    Its AVX-512 (SkylakeX) small-matrix kernels, which take the items of at
    most 1e6, sum many of those in another order, feature mode's stages
    among them. The raw pyramid keeps its bits at 2048 and 12000 samples:
    its one-channel input stage did at every length measured, and each
    later stage is at least 32*64*512 multiply-adds per item.
    """
    b, c, length = x.shape
    col = np.empty((c, k, b, out_len), dtype=x.dtype)
    xt = x.transpose(1, 0, 2)  # [C, B, L] view
    for j in range(k):
        lo = min(out_len, max(0, -((j - padding) // stride)))
        hi = max(lo, min(out_len, (length - 1 + padding - j) // stride + 1))
        if hi > lo:
            start = lo * stride + j - padding
            col[:, j, :, lo:hi] = xt[:, :, start : start + (hi - lo - 1) * stride + 1 : stride]
        col[:, j, :, :lo] = 0
        col[:, j, :, hi:] = 0
    col = col.reshape(c * k, b, out_len)
    return np.matmul(kmat, col.transpose(1, 0, 2)), col


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
    grad_kernel = (gmat.T @ col.reshape(col.shape[0], -1).T).reshape(kernel.shape)
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
    _, c_in, length = x.shape
    _, c_out, k = kernel.shape
    grad_x, col = _gather(grad_out, kernel.reshape(c_in, -1), k, stride, padding, length)
    xmat = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(c_in, -1)
    grad_kernel = (xmat @ col.reshape(c_out * k, -1).T).reshape(kernel.shape)
    return grad_x, grad_kernel, grad_out.sum(axis=(0, 2))
