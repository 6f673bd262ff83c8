"""In-memory span tracer that times faultgan from outside its source tree.

A span is (name, start, end, parent, counts). The tracer replaces each public
function at the attribute its callers look it up through: a module global
such as ``faultgan.trainer.adam_step`` (which ``train()`` resolves at call
time) or a class attribute such as ``Tensor.backward``. Replacing
``faultgan.ndtensor.optim.adam_step`` instead would time nothing, because
``trainer`` holds its own reference. Calls the benchmark makes itself are
wrapped in ``Tracer.span`` at the call site.

Spans stay in memory while the workload runs; ``write`` dumps them as JSON
lines at the end. Self time is a span's duration minus that of its children,
which never overlap because the traced code is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "child_s")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper. ``count(result, *args)``
        returns the work counts recorded on the span (FLOPs, windows, bytes);
        it runs after the span closes, so its cost is not timed."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index].counts = count(result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self": s.self_time, "counts": s.counts,
                }) + "\n")


class NullTracer:
    """Stand-in for untraced runs: call-site spans cost one context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()


# -- work counts computed from argument and result shapes ----------------------


def _conv_counts(b: int, c_in: int, c_out: int, out_len: int, k: int, passes: int, col_bytes: int) -> dict:
    return {"gflop": passes * 2.0 * b * c_out * out_len * c_in * k / 1e9, "im2col_mb": col_bytes / 1e6}


def _conv1d_fwd(result, x, kernel, bias, stride, padding):
    b, c_in, _ = x.shape
    c_out, _, k = kernel.shape
    out_len = result[0].shape[2]
    return _conv_counts(b, c_in, c_out, out_len, k, 1, result[1].nbytes)


def _conv1d_bwd(result, grad_out, x_shape, kernel, col, stride, padding):
    b, c_in, _ = x_shape
    c_out, _, k = kernel.shape
    return _conv_counts(b, c_in, c_out, grad_out.shape[2], k, 2, 0)  # reuses the forward's col


def _convT_fwd(result, x, kernel, bias, stride, padding):
    b, c_in, length = x.shape
    _, c_out, k = kernel.shape
    return _conv_counts(b, c_in, c_out, length, k, 1, 0)


def _convT_bwd(result, grad_out, x, kernel, stride, padding):
    b, c_in, length = x.shape
    _, c_out, k = kernel.shape
    return _conv_counts(b, c_in, c_out, length, k, 2, b * length * c_out * k * grad_out.itemsize)


def install(tracer: Tracer) -> None:
    """Wrap every public faultgan function the per-layer metrics read."""
    from faultgan import evaluator, model, trainer
    from faultgan.ndtensor import kernels
    from faultgan.ndtensor.tensor import Tensor

    def windows_in_x(result, g, x, train=False):
        return {"windows": x.shape[0]}

    def windows_in_list(result, owner, subsamples):
        return {"windows": len(subsamples)}

    for attr, count in (
        ("conv1d_forward", _conv1d_fwd),
        ("conv1d_backward", _conv1d_bwd),
        ("conv_transpose1d_forward", _convT_fwd),
        ("conv_transpose1d_backward", _convT_bwd),
    ):
        tracer.wrap(kernels, attr, "kernels." + attr, count)
    for attr in ("batchnorm1d", "leaky_relu", "relu", "sigmoid", "discriminator_forward"):
        tracer.wrap(model, attr, "model." + attr)
    tracer.wrap(model, "feature_matrix", "features.feature_matrix",
                lambda result, values, window_len, n_windows: {
                    "windows": n_windows, "input": values.__array_interface__["data"][0]})
    tracer.wrap(model.InputPipeline, "prepare_batch", "model.prepare_batch", windows_in_list)
    tracer.wrap(Tensor, "backward", "tensor.backward")
    tracer.wrap(trainer, "adam_step", "optim.adam_step",
                lambda result, params, grads, state: {"params": sum(p.data.size for p in params)})
    tracer.wrap(trainer, "generator_forward", "trainer.generator_forward", windows_in_x)
    tracer.wrap(trainer, "fit_pipeline", "trainer.fit_pipeline")
    tracer.wrap(trainer, "build_model", "trainer.build_model")
    tracer.wrap(trainer, "serialize_state", "trainer.serialize_state",
                lambda result, state: {"mb": len(result) / 1e6})
    tracer.wrap(evaluator, "generator_forward", "evaluator.generator_forward", windows_in_x)
    tracer.wrap(evaluator, "score_dataset", "evaluator.score_dataset", windows_in_list)
    for attr in ("reconstruction_pairs", "roc_auc", "pick_threshold"):
        tracer.wrap(evaluator, attr, "evaluator." + attr)
