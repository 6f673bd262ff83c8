"""Shared test oracles: float64 finite differences, loop-based convolution
references, a naive feature-extractor reference, an identity standardizer,
a call counter, and the checkpoint header layout."""

from __future__ import annotations

import math
import struct

import numpy as np

from faultgan.features import Standardizer
from faultgan.trainer import CHECKPOINT_MAGIC

# the fixed header of a version-2 checkpoint, after the magic and the u16 version
HEADER_FIELDS = ("mode", "subsample_len", "window_len", "latent_dim", "base_channels", "n_down")
_HEADER_CODES = "BIIIII"


def field_offset(name: str) -> tuple[int, str]:
    """Byte offset and struct code of a header field of a version-2 checkpoint."""
    offset = len(CHECKPOINT_MAGIC) + 2
    for field_name, code in zip(HEADER_FIELDS, _HEADER_CODES):
        if field_name == name:
            return offset, code
        offset += struct.calcsize("<" + code)
    raise KeyError(name)


def with_field(blob: bytes, name: str, value: int) -> bytes:
    """A copy of a checkpoint blob with one header field set to ``value``."""
    offset, code = field_offset(name)
    patched = bytearray(blob)
    struct.pack_into("<" + code, patched, offset, value)
    return bytes(patched)


def identity_standardizer(channels: int) -> Standardizer:
    """A standardizer that leaves every channel unchanged."""
    return Standardizer(mean=np.zeros(channels, dtype=np.float32), std=np.ones(channels, dtype=np.float32))


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so each call appends its positional args to the
    returned list; callers that look the name up in ``module`` see it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def fd_grad(fn, arrays: list, index: int, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar float64 function w.r.t. one array."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    flat = base[index].reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(fn(*base))
        flat[i] = orig - h
        lo = float(fn(*base))
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(base[index].shape)


def rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max absolute error scaled by the gradient magnitude (floored at 1)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 0.0)
    return float(np.max(np.abs(actual - expected))) / scale


def check_grads(loss_tensor, inputs: list, fd_fn, arrays: list, tol: float = 1e-3, h: float = 1e-3):
    """Backprop loss_tensor and compare every input grad against float64 FD."""
    loss_tensor.backward()
    for i, t in enumerate(inputs):
        expected = fd_grad(fd_fn, arrays, i, h=h)
        assert t.grad is not None, f"input {i} received no gradient"
        err = rel_err(t.grad, expected)
        assert err <= tol, f"input {i}: gradient error {err:.3e} > {tol}"


def naive_conv1d(x, kernel, bias=None, stride=1, padding=0):
    """Direct sliding-window convolution, float64, triple loop."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    b, c_in, length = x.shape
    c_out, _, k = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    out_len = (length + 2 * padding - k) // stride + 1
    out = np.zeros((b, c_out, out_len))
    for n in range(b):
        for co in range(c_out):
            for pos in range(out_len):
                acc = 0.0
                for ci in range(c_in):
                    for j in range(k):
                        acc += xp[n, ci, pos * stride + j] * kernel[co, ci, j]
                out[n, co, pos] = acc + (0.0 if bias is None else bias[co])
    return out


def naive_conv_transpose1d(x, kernel, bias=None, stride=1, padding=0):
    """Direct scatter-add transposed convolution, float64."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    b, c_in, length = x.shape
    _, c_out, k = kernel.shape
    full_len = (length - 1) * stride + k
    full = np.zeros((b, c_out, full_len))
    for n in range(b):
        for ci in range(c_in):
            for pos in range(length):
                for co in range(c_out):
                    for j in range(k):
                        full[n, co, pos * stride + j] += x[n, ci, pos] * kernel[ci, co, j]
    out = full[:, :, padding : full_len - padding]
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64).reshape(1, c_out, 1)
    return out


def naive_features(window) -> dict:
    """Two-pass reference for the 16 descriptors, plain python arithmetic."""
    xs = [float(v) for v in window]
    n = len(xs)
    mean = sum(xs) / n
    variance = sum((v - mean) ** 2 for v in xs) / n
    std = math.sqrt(variance)
    m3 = sum((v - mean) ** 3 for v in xs) / n
    m4 = sum((v - mean) ** 4 for v in xs) / n
    peak = max(abs(v) for v in xs)
    avg_amplitude = sum(abs(v) for v in xs) / n
    rms = math.sqrt(sum(v * v for v in xs) / n)
    sqrt_amplitude = (sum(math.sqrt(abs(v)) for v in xs) / n) ** 2

    def ratio(num, den):
        return num / den if den != 0.0 else 0.0

    return {
        "max": max(xs),
        "min": min(xs),
        "mean": mean,
        "std": std,
        "peak_to_peak": max(xs) - min(xs),
        "avg_amplitude": avg_amplitude,
        "rms": rms,
        "skewness": ratio(m3, std**3),
        "variance": variance,
        "waveform_indicator": ratio(rms, avg_amplitude),
        "pulse_indicator": ratio(peak, avg_amplitude),
        "twist_index": ratio(m3, rms**3),
        "peak_indicator": ratio(peak, rms),
        "margin_indicator": ratio(peak, sqrt_amplitude),
        "kurtosis_index": ratio(m4, variance**2),
        "sqrt_amplitude": sqrt_amplitude,
    }
