"""The four benchmark workloads and the pass that runs one of them.

Every workload runs the pipeline a user runs: ``train()`` on normal windows,
closed-loop scoring requests of ``SCORE_BATCH`` windows through
``score_dataset`` with one caller, then ``evaluate`` + ``emit_report`` on a
labelled test set. The workloads differ in size and in which phase gets most
of the time, so each one stresses different layers.

A pass repeats that pipeline in rounds (train, score, evaluate; or, when the
model comes from a checkpoint, load, score, evaluate), so that every metric
samples the whole run rather than a few seconds of it: on a shared host the
throughput drifts by 10-20% from one few-second stretch to the next. The work done depends only on the
workload and the seed, except that each round's scoring loop runs until the
pass has used its share of ``seconds``.

Inputs come from ``signal_io.synth``, seeded from the benchmark's ``--seed``;
the program sees only the generated windows, never the seed itself (its own
model seed stays 0).
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from faultgan import evaluator, signal_io, trainer
from faultgan.errors import FaultganError

SAMPLE_RATE_HZ = 8192.0
FAULT_RATE_HZ = 30.0
N_RECON = 4  # reconstruction pairs per evaluate call, as `faultgan eval --recon 4`


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # TrainConfig.pipeline_mode
    length: int  # samples per window (TrainConfig.subsample_len)
    latent: int
    batch: int
    n_train: int  # normal training windows
    epochs: int  # per train() call; the first is warm-up and not timed per step
    rounds: int  # set-ups per pass, each followed by scoring and evaluation
    n_test: int  # labelled test windows per class
    requests: int  # timed scoring requests per round, at least
    evals: int  # evaluate() calls per round
    from_files: bool = False  # train once, then each round loads the checkpoint and the .f32 test files

    @property
    def unit(self) -> str:
        """What per-layer metrics are normalized by. A workload that trains
        only to get a checkpoint is measured per scoring request."""
        return "request" if self.from_files else "step"


WORKLOADS = {w.name: w for w in (
    # The acceptance / criterion-5 config. Tensors fit in L2, so per-op
    # overhead, batch norm and activations weigh as much as the convolutions.
    Workload(name="train-small", mode="raw", length=2048, latent=32, batch=8, n_train=32, epochs=4,
             rounds=3, n_test=32, requests=3, evals=2),
    # The paper's length and latent at batch 16 (batch 64 peaks at 6.5 GB RSS).
    # Activations far exceed L2 and Adam sweeps 18.7M parameters per step, so
    # GEMM time, memory traffic and Adam dominate.
    Workload(name="train-long", mode="raw", length=12000, latent=64, batch=16, n_train=16, epochs=4,
             rounds=2, n_test=32, requests=2, evals=1),
    # The same model, trained for three steps, is saved and reloaded from a
    # checkpoint to score test windows read from .f32 files: forward-only,
    # eval-mode batch norm, no backward or Adam, so a training-only gain that
    # slows inference shows here.
    Workload(name="score-long", mode="raw", length=12000, latent=64, batch=8, n_train=8, epochs=3,
             rounds=3, n_test=32, requests=2, evals=1, from_files=True),
    # Feature mode (window 250: 48 windows x 16 channels). The network is
    # tiny, so tape and Python overhead set the step time, and the per-window
    # feature loop sets set-up and scoring time.
    Workload(name="features", mode="features", length=12000, latent=32, batch=8, n_train=32, epochs=10,
             rounds=3, n_test=32, requests=3, evals=2),
)}


@dataclass
class PassResult:
    setup_s: list[float] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    trained_windows: int = 0
    train_loop_s: float = 0.0
    request_ms: list[float] = field(default_factory=list)
    scored_windows: int = 0
    eval_s: list[float] = field(default_factory=list)
    auc: float = math.nan
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, ops: int = 1) -> bool:
        """Count ``ops`` attempted operations; all of them fail unless ``ok``."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.problems.append(what)
        return ok

    def end_to_end(self) -> dict:
        """The end-to-end metrics as (value, unit) pairs, by name."""
        request_s = sum(self.request_ms) / 1e3
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "train_step_ms": (statistics.median(self.step_ms), "ms"),
            "train_windows_per_s": (self.trained_windows / self.train_loop_s, "1/s"),
            "score_windows_per_s": (self.scored_windows / request_s, "1/s"),
            "score_batch_ms": (statistics.median(self.request_ms), "ms"),
            "eval_s": (statistics.median(self.eval_s), "s"),
            "auc": (self.auc, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


def make_windows(rng: np.random.Generator, count: int, length: int, fault: bool) -> list:
    kind = "fault" if fault else "normal"
    windows = []
    for i in range(count):
        spec = signal_io.SynthSpec(
            duration_samples=length,
            sample_rate_hz=SAMPLE_RATE_HZ,
            impulse_rate_hz=FAULT_RATE_HZ if fault else 0.0,
            seed=int(rng.integers(2**31)),
        )
        windows += signal_io.subsample(signal_io.synth(spec), length, source=f"{kind}{i:03d}")
    return windows


def _scores_ok(scored, chunk) -> list[bool]:
    """Per window: finite score, score == l_apparent + l_latent, order kept."""
    if len(scored) != len(chunk):
        return [False] * len(chunk)
    return [
        math.isfinite(s.score)
        and s.score == s.l_apparent + s.l_latent
        and s.source == f"{sub.source}@{sub.source_offset}"
        for s, sub in zip(scored, chunk)
    ]


def _report_files_ok(report, paths) -> tuple[bool, bool, bool]:
    """scores.csv, metrics.txt and reconstruction_pairs.csv exist and parse to the report."""
    scores_path, metrics_path, recon_path = paths
    try:
        rows = [line.split(",") for line in scores_path.read_text(encoding="utf-8").splitlines()]
        scores_ok = (
            rows[0] == ["id", "label", "raw_score", "norm_score", "l_apparent", "l_latent"]
            and len(rows) == len(report.scored) + 1
            and all(r[0] == s.source and float(r[2]) == s.score for r, s in zip(rows[1:], report.scored))
        )
        kv = dict(line.split("=", 1) for line in metrics_path.read_text(encoding="utf-8").splitlines())
        metrics_ok = (
            float(kv["auc"]) == report.auc
            and int(kv["n_normal"]) == report.n_normal
            and int(kv["n_fault"]) == report.n_fault
            and math.isfinite(float(kv["threshold"]))
        )
        recon_lines = recon_path.read_text(encoding="utf-8").splitlines()
        expected = 1 + sum(p.original.size for p in report.recon_pairs)
        recon_ok = recon_lines[0] == "id,channel,position,original,reconstructed" and len(recon_lines) == expected
        if len(recon_lines) > 1:
            recon_ok = recon_ok and all(math.isfinite(float(v)) for v in recon_lines[1].split(",")[3:])
    except (OSError, ValueError, KeyError, IndexError):
        return False, False, False
    return scores_ok, metrics_ok, recon_ok


def _load_test_files(paths: list[Path], length: int) -> list:
    windows = []
    for path in paths:
        label = signal_io.LABEL_FAULT if path.name.startswith("fault") else signal_io.LABEL_NORMAL
        series = signal_io.load_f32_binary(path, sample_rate_hz=SAMPLE_RATE_HZ, label=label)
        windows += signal_io.subsample(series, length, source=path.stem)
    return windows


def _train(w: Workload, train_set, res: PassResult, tracer):
    """One train() call; returns the model, or None if training failed."""
    n_batches = w.n_train // w.batch
    steps = w.epochs * n_batches
    config = trainer.TrainConfig(
        epochs=w.epochs, batch_size=w.batch, latent_dim=w.latent,
        subsample_len=w.length, pipeline_mode=w.mode, seed=0,
    )
    t0 = time.perf_counter()
    try:
        with tracer.span("trainer.train"):
            state, report = trainer.train(config, train_set)
    except FaultganError as err:
        res.check(False, f"train() raised {type(err).__name__}: {err}", steps)
        return None
    wall = time.perf_counter() - t0
    losses = [v for e in report.epochs for v in (e.l_total, e.l_fraud, e.l_apparent, e.l_latent, e.l_disc)]
    if not res.check(all(math.isfinite(v) for v in losses), "non-finite training loss", steps):
        return None
    if not w.from_files:
        res.setup_s.append(wall - report.total_seconds)
    res.step_ms += [1e3 * e.seconds / n_batches for e in report.epochs[1:]]
    res.trained_windows += steps * w.batch
    res.train_loop_s += sum(e.seconds for e in report.epochs)
    return state


def _score(state, chunk, res: PassResult, timed: bool = True) -> list[float]:
    t0 = time.perf_counter()
    scored = evaluator.score_dataset(state, chunk)
    if timed:
        res.request_ms.append(1e3 * (time.perf_counter() - t0))
        res.scored_windows += len(chunk)
    res.check(all(_scores_ok(scored, chunk)), "scored window failed its check", len(chunk))
    return [s.score for s in scored]


def _evaluate(state, test_set, out_dir: Path, res: PassResult, tracer) -> None:
    t0 = time.perf_counter()
    with tracer.span("evaluator.evaluate"):
        report = evaluator.evaluate(state, test_set, n_recon=N_RECON)
    with tracer.span("evaluator.emit_report"):
        paths = evaluator.emit_report(report, out_dir)
    res.eval_s.append(time.perf_counter() - t0)
    res.check(all(_scores_ok(report.scored, test_set)), "evaluate scored a window wrongly", len(test_set))
    if math.isnan(res.auc):
        res.auc = report.auc  # auc and eval_s come from the same calls, and every call must agree
    res.check(0.0 <= report.auc <= 1.0 and report.auc == res.auc, f"auc {report.auc} != {res.auc}")
    for ok, name in zip(_report_files_ok(report, paths), ("scores.csv", "metrics.txt", "reconstruction_pairs.csv")):
        res.check(ok, f"{name} is missing or does not match the report")


def _batches(windows: list) -> list[list]:
    return [windows[i : i + evaluator.SCORE_BATCH] for i in range(0, len(windows), evaluator.SCORE_BATCH)]


def run_pass(w: Workload, seed: int, seconds: float, work_dir: Path, tracer) -> PassResult:
    """Run one workload once; ``tracer`` is a Tracer or a NullTracer."""
    rng = np.random.default_rng(seed)
    train_set = make_windows(rng, w.n_train, w.length, fault=False)
    test_set = make_windows(rng, w.n_test, w.length, fault=False) + make_windows(rng, w.n_test, w.length, fault=True)
    res = PassResult()
    t_begin = time.perf_counter()

    if w.from_files:
        state = _train(w, train_set, res, tracer)
        if state is None:
            return res
        test_paths = []
        for sub in test_set:
            path = work_dir / f"{sub.source}.f32"
            signal_io.write_f32_binary(signal_io.TimeSeries(sub.values, SAMPLE_RATE_HZ, sub.label), path)
            test_paths.append(path)
        checkpoint = work_dir / "model.ckpt"
        trainer.save_checkpoint(state, checkpoint)
        reference = [s.score for s in evaluator.score_dataset(state, _batches(test_set)[0])]

    for r in range(1, w.rounds + 1):
        state = None  # free the previous round's model before making the next
        if w.from_files:
            t0 = time.perf_counter()
            with tracer.span("signal_io.load_f32_binary"):
                test_set = _load_test_files(test_paths, w.length)
            with tracer.span("trainer.load_checkpoint"):
                state = trainer.load_checkpoint(checkpoint)
            res.setup_s.append(time.perf_counter() - t0)
        else:
            state = _train(w, train_set, res, tracer)
            if state is None:
                continue
        batches = _batches(test_set)
        if r == 1:
            warm_up = _score(state, batches[0], res, timed=False)  # checked but not timed
            if w.from_files:
                res.check(warm_up == reference, "reloaded checkpoint scores differ from the trained model's")
        with tracer.span("phase.score"):
            n = 0
            while n < w.requests or time.perf_counter() - t_begin < seconds * r / w.rounds:
                _score(state, batches[n % len(batches)], res)
                n += 1
        for k in range(w.evals):
            _evaluate(state, test_set, work_dir / f"report{r}.{k}", res, tracer)
    return res
