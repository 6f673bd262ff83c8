"""Minimal dense-tensor engine: float32 arrays, reverse-mode autodiff,
the 1-D network primitives the detector needs, and Adam."""

from .nn import (
    BCE_CLAMP,
    BatchNormStats,
    batchnorm1d,
    bce_loss,
    conv1d,
    conv_transpose1d,
    l1_mean,
    l2_mean,
    leaky_relu,
    matmul,
    relu,
    sigmoid,
)
from .optim import AdamState, adam_step, init_adam
from .tensor import Tensor, clip, no_grad

__all__ = [
    "AdamState",
    "BCE_CLAMP",
    "BatchNormStats",
    "Tensor",
    "adam_step",
    "batchnorm1d",
    "bce_loss",
    "clip",
    "conv1d",
    "conv_transpose1d",
    "init_adam",
    "l1_mean",
    "l2_mean",
    "leaky_relu",
    "matmul",
    "no_grad",
    "relu",
    "sigmoid",
]
