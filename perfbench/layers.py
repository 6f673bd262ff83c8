"""Per-layer metrics derived from one traced pass.

Time metrics of the compute layers (kernels, nn, tensor, optim, model) are
per unit: per training step after each train() call's warm-up epoch, or per
timed scoring request on a workload whose unit is "request". Set-up layers
(trainer, signal_io) are per call, evaluator metrics per evaluate() call, and
feature counts cover the train() and evaluate() calls of the pass, whose work
is fixed by the workload and seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_FWD_BWD = {
    "kernels.conv1d_fwd_ms": "kernels.conv1d_forward",
    "kernels.conv1d_bwd_ms": "kernels.conv1d_backward",
    "kernels.convT_fwd_ms": "kernels.conv_transpose1d_forward",
    "kernels.convT_bwd_ms": "kernels.conv_transpose1d_backward",
}
ACTIVATIONS = ("model.leaky_relu", "model.relu", "model.sigmoid")
GENERATOR_FORWARD = ("trainer.generator_forward", "evaluator.generator_forward")
COVERAGE_FLOOR = 0.90  # traced spans must account for at least this share of a unit


def sgemm_peak_gflops(n: int = 1024, repeats: int = 5) -> float:
    """Best float32 n x n matmul rate, at the BLAS thread count of the run."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def _children(spans, parent: int, name: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s.parent == parent and s.name == name]


def unit_windows(spans, workload) -> tuple[list[tuple[float, float]], int, float]:
    """(time windows that hold the measured units, unit count, span coverage).

    A training step runs from one generator forward to the next; the last
    step of a train() call ends where the checkpoint is serialized. Coverage
    is the share of those steps' wall time spent inside spans, i.e. the sum of
    the self times of every span in them; for scoring requests it is the share
    of ``score_dataset`` spent in its child spans.
    """
    windows, units, covered, total = [], 0, 0.0, 0.0
    if workload.unit == "step":
        n_batches = workload.n_train // workload.batch
        for t, span in enumerate(spans):
            if span.name != "trainer.train":
                continue
            starts = [spans[i].start for i in _children(spans, t, "trainer.generator_forward")]
            ends = [spans[i].start for i in _children(spans, t, "trainer.serialize_state")]
            bounds = starts[n_batches:] + ends[:1]
            if len(bounds) < 2:
                continue
            windows.append((bounds[0], bounds[-1]))
            units += len(bounds) - 1
            total += bounds[-1] - bounds[0]
            covered += sum(
                s.duration for s in spans if s.parent == t and bounds[0] <= s.start < bounds[-1]
            )
    else:
        for p, span in enumerate(spans):
            if span.name != "phase.score":
                continue
            windows.append((span.start, span.end))
            for i in _children(spans, p, "evaluator.score_dataset"):
                units += 1
                total += spans[i].duration
                covered += spans[i].child_s
    return windows, units, covered / total if total else 0.0


def per_layer(spans, workload, traced, untraced) -> dict:
    """The per-layer metrics as (value, unit) pairs, by name."""
    windows, units, coverage = unit_windows(spans, workload)
    in_units = [s for s in spans if any(a <= s.start < b for a, b in windows)]

    def per_unit_ms(names, self_time=False) -> float:
        total = sum(s.self_time if self_time else s.duration for s in in_units if s.name in names)
        return 1e3 * total / units if units else 0.0

    def per_call_ms(name) -> float:
        times = [s.duration for s in spans if s.name == name]
        return 1e3 * statistics.fmean(times) if times else 0.0

    def unit_count(names, key) -> float:
        total = sum(s.counts.get(key, 0) for s in in_units if s.name in names)
        return total / units if units else 0.0

    kernel_names = set(KERNEL_FWD_BWD.values())
    kernel_ms = per_unit_ms(kernel_names)
    gflop = unit_count(kernel_names, "gflop")

    evaluate_calls = {i for i, s in enumerate(spans) if s.name == "evaluator.evaluate"}
    in_evaluate = [s for s in spans if _ancestor_in(spans, s, evaluate_calls) is not None]

    def per_evaluate_ms(name) -> float:
        total = sum(s.duration for s in in_evaluate if s.name == name)
        return 1e3 * total / len(evaluate_calls) if evaluate_calls else 0.0

    forwarded = sum(s.counts.get("windows", 0) for s in in_evaluate if s.name == "evaluator.generator_forward")
    scored = sum(s.counts.get("windows", 0) for s in in_evaluate if s.name == "evaluator.score_dataset")

    jobs = {i for i, s in enumerate(spans) if s.name in ("trainer.train", "evaluator.evaluate")}
    extracted, needed = 0, set()
    feature_spans = [s for s in spans if s.name == "features.feature_matrix"]
    for s in feature_spans:
        job = _ancestor_in(spans, s, jobs)
        if job is not None:
            extracted += s.counts["windows"]
            needed.add((job, s.counts["input"], s.counts["windows"]))
    feature_ms = sum(s.duration for s in feature_spans)
    feature_windows = sum(s.counts["windows"] for s in feature_spans)

    checkpoints = [s.counts["mb"] for s in spans if s.name == "trainer.serialize_state"]
    metrics = {
        **{name: (per_unit_ms({span}), "ms") for name, span in KERNEL_FWD_BWD.items()},
        "kernels.calls": (sum(s.name in kernel_names for s in in_units) / units if units else 0.0, "count"),
        "kernels.gflop": (gflop, "GFLOP"),
        "kernels.im2col_mb": (unit_count(kernel_names, "im2col_mb"), "MB"),
        "kernels.gflops_per_s": (gflop / (kernel_ms / 1e3) if kernel_ms else 0.0, "GFLOP/s"),
        "kernels.sgemm_peak_gflops": (sgemm_peak_gflops(), "GFLOP/s"),
        "nn.batchnorm_fwd_ms": (per_unit_ms({"model.batchnorm1d"}), "ms"),
        "nn.activation_fwd_ms": (per_unit_ms(set(ACTIVATIONS)), "ms"),
        "tensor.backward_ms": (per_unit_ms({"tensor.backward"}), "ms"),
        "tensor.backward_self_ms": (per_unit_ms({"tensor.backward"}, self_time=True), "ms"),
        "optim.adam_ms": (per_unit_ms({"optim.adam_step"}), "ms"),
        "optim.params": (unit_count({"optim.adam_step"}, "params"), "count"),
        "model.gen_fwd_ms": (per_unit_ms(set(GENERATOR_FORWARD)), "ms"),
        "model.disc_fwd_ms": (per_unit_ms({"model.discriminator_forward"}), "ms"),
        "model.prepare_batch_ms": (per_unit_ms({"model.prepare_batch"}), "ms"),
        "features.feature_matrix_ms": (per_call_ms("features.feature_matrix"), "ms"),
        "features.windows": (float(extracted), "count"),
        "features.extract_us_per_window": (1e6 * feature_ms / feature_windows if feature_windows else 0.0, "us"),
        "features.extract_ratio": (
            extracted / sum(n for _, _, n in needed) if needed else 0.0, "ratio"),
        "trainer.fit_pipeline_ms": (per_call_ms("trainer.fit_pipeline"), "ms"),
        "trainer.build_model_ms": (per_call_ms("trainer.build_model"), "ms"),
        "trainer.serialize_ms": (per_call_ms("trainer.serialize_state"), "ms"),
        "trainer.checkpoint_mb": (statistics.fmean(checkpoints) if checkpoints else 0.0, "MB"),
        "trainer.load_checkpoint_ms": (per_call_ms("trainer.load_checkpoint"), "ms"),
        "evaluator.score_dataset_ms": (per_evaluate_ms("evaluator.score_dataset"), "ms"),
        "evaluator.roc_auc_ms": (per_evaluate_ms("evaluator.roc_auc"), "ms"),
        "evaluator.pick_threshold_ms": (per_evaluate_ms("evaluator.pick_threshold"), "ms"),
        "evaluator.recon_pairs_ms": (per_evaluate_ms("evaluator.reconstruction_pairs"), "ms"),
        "evaluator.emit_report_ms": (per_call_ms("evaluator.emit_report"), "ms"),
        "evaluator.forward_ratio": (forwarded / scored if scored else 0.0, "ratio"),
        "signal_io.load_ms": (per_call_ms("signal_io.load_f32_binary"), "ms"),
        "trace.train_step_overhead_ms": (
            statistics.median(traced.step_ms) - statistics.median(untraced.step_ms), "ms"),
        "trace.score_batch_overhead_ms": (
            statistics.median(traced.request_ms) - statistics.median(untraced.request_ms), "ms"),
        "trace.coverage": (coverage, "ratio"),
    }
    return metrics


def _ancestor_in(spans, span, indices: set):
    """The nearest ancestor of ``span`` whose index is in ``indices``, or None."""
    parent = span.parent
    while parent is not None:
        if parent in indices:
            return parent
        parent = spans[parent].parent
    return None
