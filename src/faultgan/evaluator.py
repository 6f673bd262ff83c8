"""Score mixed normal/fault test sets, normalize scores, pick a threshold,
compute AUC and accuracy, and write the report files for external plotting."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import UsageError
from .model import ModelState, generator_forward
from .ndtensor import Tensor, no_grad
from .signal_io import Subsample, is_fault, write_atomic

SCORE_BATCH = 64


@dataclass
class ScoredSample:
    """One test sample's anomaly score and its two components."""

    score: float
    l_apparent: float
    l_latent: float
    label: str
    source: str


@dataclass
class ReconPair:
    """Original versus reconstructed sequence of one sample, per channel."""

    source: str
    original: np.ndarray  # [C, L]
    reconstructed: np.ndarray


@dataclass
class EvalReport:
    scored: list[ScoredSample]
    normalized: list[float]
    auc: float
    accuracy: float
    threshold: float
    recon_pairs: list[ReconPair] = field(default_factory=list)

    @property
    def n_normal(self) -> int:
        return sum(1 for s in self.scored if not is_fault(s.label))

    @property
    def n_fault(self) -> int:
        return sum(1 for s in self.scored if is_fault(s.label))


def _sample_id(sub: Subsample, index: int) -> str:
    base = sub.source if sub.source else f"sample{index}"
    return f"{base}@{sub.source_offset}"


def _forward_batches(state: ModelState, samples: list[Subsample]):
    """Per SCORE_BATCH subsamples, yield (offset, chunk, x, x_hat, z, z_hat):
    the prepared inputs and the generator's eval-mode outputs, as arrays."""
    for start in range(0, len(samples), SCORE_BATCH):
        chunk = samples[start : start + SCORE_BATCH]
        x = state.pipeline.prepare_batch(chunk)
        with no_grad():
            x_hat, z, z_hat = generator_forward(state.generator, Tensor(x), train=False)
        yield start, chunk, x, x_hat.data, z.data, z_hat.data


def score_dataset(state: ModelState, samples: list[Subsample]) -> list[ScoredSample]:
    """Eval-mode anomaly score per subsample, order-preserving."""
    scored: list[ScoredSample] = []
    for start, chunk, x, x_hat, z, z_hat in _forward_batches(state, samples):
        l_a = np.mean(np.abs(x - x_hat), axis=(1, 2))
        l_l = np.mean((z - z_hat) ** 2, axis=1)
        for i, sub in enumerate(chunk):
            la, ll = float(l_a[i]), float(l_l[i])
            scored.append(ScoredSample(
                score=la + ll,
                l_apparent=la,
                l_latent=ll,
                label=sub.label,
                source=_sample_id(sub, start + i),
            ))
    return scored


def normalize_scores(scores: list[float]) -> list[float]:
    """Min-max map onto [0, 1]; a spread-free input maps to all zeros."""
    if not scores:
        raise UsageError("cannot normalize an empty score list")
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [0.0 for _ in scores]
    return [(s - lo) / (hi - lo) for s in scores]


def _split_scores(scored: list[ScoredSample]) -> tuple[np.ndarray, np.ndarray]:
    normal = np.array([s.score for s in scored if not is_fault(s.label)])
    fault = np.array([s.score for s in scored if is_fault(s.label)])
    if normal.size == 0 or fault.size == 0:
        raise UsageError("need both normal and fault samples")
    return normal, fault


def roc_auc(scored: list[ScoredSample]) -> float:
    """Probability a random fault outscores a random normal, ties counted half
    (the Mann-Whitney formulation)."""
    normal, fault = _split_scores(scored)
    pooled = np.concatenate([normal, fault])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # a value held by c entries ending at sorted position e has average rank e - (c - 1) / 2
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    rank_sum_fault = ranks[normal.size :].sum()
    u = rank_sum_fault - fault.size * (fault.size + 1) / 2.0
    return float(u / (fault.size * normal.size))


def pick_threshold(scored: list[ScoredSample]) -> tuple[float, float]:
    """Best-accuracy threshold under the rule: score > threshold means fault.

    Candidates are the midpoints between consecutive distinct scores plus one
    boundary candidate on each side (so the all-normal / all-fault calls are
    reachable); ties resolve to the lowest threshold.
    """
    normal, fault = _split_scores(scored)
    distinct = np.unique(np.concatenate([normal, fault]))
    candidates = np.concatenate([
        [distinct[0] - 1.0], 0.5 * (distinct[:-1] + distinct[1:]), [distinct[-1] + 1.0],
    ])
    # per candidate: normals at or below it plus faults above it
    normal_at_or_below = np.searchsorted(np.sort(normal), candidates, side="right")
    fault_at_or_below = np.searchsorted(np.sort(fault), candidates, side="right")
    correct = normal_at_or_below + (fault.size - fault_at_or_below)
    best = int(np.argmax(correct))  # first maximum, i.e. the lowest threshold
    return float(candidates[best]), int(correct[best]) / (normal.size + fault.size)


def evaluate(state: ModelState, samples: list[Subsample], n_recon: int = 0) -> EvalReport:
    """Score a mixed test set and assemble the full report."""
    scored = score_dataset(state, samples)
    normalized = normalize_scores([s.score for s in scored])
    auc = roc_auc(scored)
    threshold, accuracy = pick_threshold(scored)
    recon_pairs = reconstruction_pairs(state, samples[:n_recon]) if n_recon > 0 else []
    return EvalReport(
        scored=scored,
        normalized=normalized,
        auc=auc,
        accuracy=accuracy,
        threshold=threshold,
        recon_pairs=recon_pairs,
    )


def reconstruction_pairs(state: ModelState, samples: list[Subsample]) -> list[ReconPair]:
    """Original and reconstructed sequences (in raw input units, padding removed)."""
    restore = state.pipeline.restore
    return [
        ReconPair(source=_sample_id(sub, start + i), original=restore(x[i]), reconstructed=restore(x_hat[i]))
        for start, chunk, x, x_hat, _, _ in _forward_batches(state, samples)
        for i, sub in enumerate(chunk)
    ]


# -- report files -------------------------------------------------------------


def write_scores_csv(path, scored: list[ScoredSample], normalized: list[float]) -> None:
    """The scores.csv format of both ``faultgan score`` and ``emit_report``."""
    lines = ["id,label,raw_score,norm_score,l_apparent,l_latent"]
    for s, norm in zip(scored, normalized):
        lines.append(f"{s.source},{s.label},{s.score!r},{norm!r},{s.l_apparent!r},{s.l_latent!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def emit_report(report: EvalReport, out_dir) -> list[Path]:
    """Write scores.csv, metrics.txt, and reconstruction_pairs.csv; returns paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"cannot write report under {out_dir}: {err}") from err

    scores_path = out_dir / "scores.csv"
    write_scores_csv(scores_path, report.scored, report.normalized)

    metrics_path = out_dir / "metrics.txt"
    write_atomic(
        metrics_path,
        f"auc={report.auc!r}\n"
        f"accuracy={report.accuracy!r}\n"
        f"threshold={report.threshold!r}\n"
        f"n_normal={report.n_normal}\n"
        f"n_fault={report.n_fault}\n",
    )

    recon_path = out_dir / "reconstruction_pairs.csv"
    rows = ["id,channel,position,original,reconstructed"]
    for pair in report.recon_pairs:
        channels, length = pair.original.shape
        for c in range(channels):
            for pos in range(length):
                rows.append(
                    f"{pair.source},{c},{pos},"
                    f"{float(pair.original[c, pos])!r},{float(pair.reconstructed[c, pos])!r}"
                )
    write_atomic(recon_path, "\n".join(rows) + "\n")
    return [scores_path, metrics_path, recon_path]
