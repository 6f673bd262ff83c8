"""Dense float32 tensors with tape-based reverse-mode automatic differentiation.

A Tensor wraps a contiguous float32 numpy array. Operations on tensors build a
graph of parent links and backward closures on the fly, numbering each node as
it is made; calling ``backward()`` on a scalar visits the reached nodes newest
first (a valid reverse topological order, since every parent is older than its
consumers), accumulates gradients into every reachable tensor that requires
them, and unlinks each node as soon as its gradients are passed on, so its
closure and the activations that closure holds die during the pass.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..errors import DimensionError, UsageError

_grad_enabled = True
_creation = itertools.count()  # numbers graph nodes in the order they are made


class no_grad:
    """Context manager that disables graph construction (used for scoring)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Dense n-dimensional float32 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    # -- introspection --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph management -----------------------------------------------

    def detach(self) -> "Tensor":
        """A new tensor sharing this one's data but cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` on every reachable tensor that requires it.

        Only valid on scalars. Repeated calls on fresh graphs accumulate into
        existing grad buffers. Nodes are visited newest first, and each one is
        unlinked from the graph as soon as its gradients are passed on.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() requires a scalar loss, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        heap = [(-self._seq, self)] if self._backward is not None else []
        while heap:
            node = heapq.heappop(heap)[1]
            parents, backward_fn = node._parents, node._backward
            node._parents, node._backward = (), None
            for parent, g in zip(parents, backward_fn(node.grad)):
                if g is None or not (parent.requires_grad or parent._backward is not None):
                    continue
                if parent.grad is None:
                    parent.grad = np.array(g, dtype=np.float32)
                    if parent._backward is not None:
                        heapq.heappush(heap, (-parent._seq, parent))
                else:
                    parent.grad += g

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        return exp(self)

    def log(self) -> "Tensor":
        return log(self)

    def sqrt(self) -> "Tensor":
        return sqrt(self)

    def abs(self) -> "Tensor":
        return absolute(self)


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float32))


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap an op result, attaching graph links only when grad is live."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
        out._seq = next(_creation)
    return out


# -- elementwise arithmetic (broadcasting) --------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data

    def backward(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _make(a_data * b_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g / b_data, a.shape)
        gb = _unbroadcast(-g * a_data / (b_data * b_data), b.shape)
        return ga, gb

    return _make(a_data / b_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return _make(-a.data, (a,), backward)


def power(a: Tensor, exponent) -> Tensor:
    if isinstance(exponent, Tensor):
        raise UsageError("power() supports scalar exponents only")
    e = float(exponent)
    a_data = a.data

    def backward(g):
        return (g * e * a_data ** (e - 1.0),)

    return _make(a_data**e, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        return (g * out_data,)

    return _make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    a_data = a.data

    def backward(g):
        return (g / a_data,)

    return _make(np.log(a_data), (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        return (g / (2.0 * out_data),)

    return _make(out_data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    a_data = a.data

    def backward(g):
        return (g * np.sign(a_data),)

    return _make(np.abs(a_data), (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through only inside the range."""
    a_data = a.data
    mask = (a_data >= lo) & (a_data <= hi)

    def backward(g):
        return (g * mask,)

    return _make(np.clip(a_data, lo, hi), (a,), backward)


# -- reductions and shape ---------------------------------------------------


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.shape

    if axis is None:
        axes = tuple(range(len(in_shape)))
    elif isinstance(axis, int):
        axes = (axis % len(in_shape),)
    else:
        axes = tuple(ax % len(in_shape) for ax in axis)

    def backward(g):
        kept = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
        return (np.broadcast_to(g.reshape(kept), in_shape),)

    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), backward)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_size = a.size
    total = tensor_sum(a, axis=axis, keepdims=keepdims)
    count = in_size // total.size
    return mul(total, _lift(1.0 / count))


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.shape

    def backward(g):
        return (g.reshape(in_shape),)

    try:
        data = a.data.reshape(shape)
    except ValueError as err:
        raise DimensionError(f"cannot reshape {in_shape} to {shape}: {err}") from None
    return _make(data, (a,), backward)
