"""Autodiff engine core: graph mechanics, broadcasting, elementwise gradients."""

import weakref

import numpy as np
import pytest
from helpers import check_grads
from hypothesis import given, settings
from hypothesis import strategies as st

from faultgan.errors import UsageError
from faultgan.ndtensor import Tensor, clip, no_grad
from faultgan.ndtensor.tensor import _make

SEEDS = range(20)


def test_tensor_is_float32_row_major():
    t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3).T)
    assert t.data.dtype == np.float32
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (3, 2)


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    y = x**2
    y.backward()
    assert x.grad == pytest.approx(6.0)
    assert float(y.grad) == 1.0  # d(loss)/d(loss) == 1


def test_constant_loss_gives_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * 0.0).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.zeros(2, dtype=np.float32))


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        (x * 2.0).backward()


def test_grad_accumulates_across_backward_calls():
    w = Tensor([2.0], requires_grad=True)
    (w * 3.0).sum().backward()
    (w * 4.0).sum().backward()
    np.testing.assert_allclose(w.grad, [7.0])
    w.zero_grad()
    assert w.grad is None


def test_graph_freed_after_backward():
    x = Tensor([1.0], requires_grad=True)
    y = x * 2.0
    loss = y.sum()
    loss.backward()
    assert loss._parents == () and loss._backward is None
    assert y._parents == () and y._backward is None


def test_backward_releases_each_node_before_its_parents():
    # x -> y = x*2 -> z -> loss: z and its data must be gone by the time y's
    # closure runs, not kept until the whole pass ends
    x = Tensor([1.0], requires_grad=True)
    y = x * 2.0
    watched = np.ones(1, dtype=np.float32)
    z_data_alive = weakref.ref(watched)
    loss = _make(watched, (y,), lambda g: (g,)).sum()
    del watched
    y_backward, z_gone = y._backward, []

    def recording(g):
        z_gone.append(z_data_alive() is None)
        return y_backward(g)

    y._backward = recording
    loss.backward()
    assert z_gone == [True]
    np.testing.assert_allclose(x.grad, [2.0])


def test_second_backward_over_a_walked_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = (x * x).sum()
    y.backward()
    with pytest.raises(UsageError, match="already walked by backward"):
        y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_new_graph_through_a_walked_node_raises():
    # the first pass unlinks h from x; a second graph built on h must not
    # treat h as a leaf and stop its gradient there
    x = Tensor([1.0, 2.0], requires_grad=True)
    h = x * 3.0
    h.sum().backward()
    with pytest.raises(UsageError, match="detach"):
        (h * 2.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    (h.detach() * 2.0).sum().backward()  # a detached copy is a fresh leaf


def test_no_grad_suppresses_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert y._backward is None and not y.requires_grad


def test_detach_cuts_graph():
    x = Tensor([1.0], requires_grad=True)
    y = (x * 2.0).detach()
    assert not y.requires_grad
    loss = (y * 3.0).sum()
    loss.backward()
    assert x.grad is None


def test_diamond_graph_accumulates_fanout():
    # f = x*x + x*x -> df/dx = 4x
    x = Tensor([1.5], requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_broadcast_backward_reduces_correctly():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    c = Tensor(np.ones(()), requires_grad=True)
    ((a + b) * c).sum().backward()
    assert a.grad.shape == (2, 3)
    np.testing.assert_allclose(b.grad, np.full((1, 3), 2.0))
    np.testing.assert_allclose(c.grad, np.full((), 12.0))


def test_mean_and_sum_axis_keepdims():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(2, 2, 3), requires_grad=True)
    m = x.mean(axis=(0, 2), keepdims=True)
    assert m.shape == (1, 2, 1)
    np.testing.assert_allclose(m.data.ravel(), [(0 + 1 + 2 + 6 + 7 + 8) / 6, (3 + 4 + 5 + 9 + 10 + 11) / 6])
    m.sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 2, 3), 1.0 / 6.0))


def test_forward_backward_determinism():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        loss = ((x * w + x).exp().mean() / (w * w + 1.0).sqrt().sum())
        loss = loss.sum()
        loss.backward()
        return loss.item(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


# -- per-op gradient checks against float64 central differences ------------


def _rand(rng, shape, lo=0.5, hi=1.5, signed=False):
    x = rng.uniform(lo, hi, size=shape)
    if signed:
        x *= rng.choice([-1.0, 1.0], size=shape)
    return x


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_arithmetic(seed):
    rng = np.random.default_rng(seed)
    a = _rand(rng, (3, 4), signed=True)
    b = _rand(rng, (3, 4), signed=True)
    w = rng.normal(size=(3, 4))

    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    loss = (((ta + tb) * ta - tb) / tb * Tensor(w)).sum()
    check_grads(
        loss,
        [ta, tb],
        lambda x, y: ((((x + y) * x - y) / y) * w).sum(),
        [a, b],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_broadcast_ops(seed):
    rng = np.random.default_rng(seed)
    a = _rand(rng, (2, 3, 4), signed=True)
    b = _rand(rng, (3, 1))
    w = rng.normal(size=(2, 3, 4))

    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    loss = ((ta * tb + tb) * Tensor(w)).sum()
    check_grads(loss, [ta, tb], lambda x, y: ((x * y + y) * w).sum(), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_unary(seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, (4, 4))  # positive, away from kinks
    w = rng.normal(size=(4, 4))

    tx = Tensor(x, requires_grad=True)
    loss = ((tx.exp() + tx.log() + tx.sqrt() + tx**1.7 - (-tx).abs()) * Tensor(w)).sum()
    check_grads(
        loss,
        [tx],
        lambda v: ((np.exp(v) + np.log(v) + np.sqrt(v) + v**1.7 - np.abs(-v)) * w).sum(),
        [x],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_clip(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(16,))
    x = x[np.abs(np.abs(x) - 1.0) > 0.05]  # keep away from the clip edges
    w = rng.normal(size=x.shape)

    tx = Tensor(x, requires_grad=True)
    loss = (clip(tx, -1.0, 1.0) * Tensor(w)).sum()
    check_grads(loss, [tx], lambda v: (np.clip(v, -1.0, 1.0) * w).sum(), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_reductions_and_reshape(seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, (2, 3, 4), signed=True)
    w = rng.normal(size=(3, 8))

    tx = Tensor(x, requires_grad=True)
    loss = (tx.reshape((3, 8)) * Tensor(w)).mean() + tx.sum(axis=1).sum() * 0.25
    check_grads(
        loss,
        [tx],
        lambda v: (v.reshape(3, 8) * w).mean() + v.sum(axis=1).sum() * 0.25,
        [x],
    )


_DAG_OPS = st.lists(
    st.tuples(st.sampled_from("+-*"), st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(ops=_DAG_OPS, seed=st.integers(0, 2**32 - 1))
def test_gradcheck_random_dags(ops, seed):
    """Each op consumes any two earlier nodes (fan-out and self-products
    included); both leaves also reach the loss through a*b."""

    def build(a, b):
        nodes = [a, b]
        for op, i, j in ops:
            lhs, rhs = nodes[i % len(nodes)], nodes[j % len(nodes)]
            nodes.append(lhs + rhs if op == "+" else lhs - rhs if op == "-" else lhs * rhs)
        return (nodes[-1] + a * b).sum()

    rng = np.random.default_rng(seed)
    arrays = [_rand(rng, (3,), signed=True), _rand(rng, (3,), signed=True)]
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    check_grads(build(*inputs), inputs, build, arrays)
