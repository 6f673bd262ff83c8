"""Bias-corrected Adam for lists of parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, UsageError
from .tensor import Tensor

ADAM_EPS = 1e-8  # added to the root of the second moment before dividing


@dataclass
class AdamState:
    """Optimizer state: step counter plus per-parameter moment buffers."""

    learning_rate: float
    beta1: float
    beta2: float
    step_count: int
    first_moment: list
    second_moment: list

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise UsageError(f"learning rate must be positive, got {self.learning_rate}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 < b < 1.0:
                raise UsageError(f"{name} must lie in (0, 1), got {b}")


def init_adam(
    params: list[Tensor],
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        step_count=0,
        first_moment=[np.zeros_like(p.data) for p in params],
        second_moment=[np.zeros_like(p.data) for p in params],
    )


def adam_step(params: list[Tensor], grads: list, state: AdamState):
    """Apply one in-place Adam update; a None grad counts as zero.

    Every step is an ``out=`` ufunc over the moment buffers and one scratch
    array per parameter, so no other full-size temporary is allocated.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise DimensionError(
            f"adam_step got {len(params)} params, {len(grads)} grads, "
            f"{len(state.first_moment)} moment buffers"
        )
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    lr = state.learning_rate
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    step_scale = lr / bias1
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise DimensionError(f"grad shape {g.shape} != param shape {p.data.shape}")
        m = state.first_moment[i]
        v = state.second_moment[i]
        buf = np.empty_like(p.data)  # the update's only temporary
        m *= b1
        np.multiply(g, 1.0 - b1, out=buf)
        m += buf
        v *= b2
        np.multiply(g, g, out=buf)
        buf *= 1.0 - b2
        v += buf
        # p -= lr * (m / bias1) / (sqrt(v / bias2) + ADAM_EPS)
        np.divide(v, bias2, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        np.divide(m, buf, out=buf)
        buf *= step_scale
        p.data -= buf

