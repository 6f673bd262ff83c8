"""Alternating adversarial training on normal-only subsamples, plus the
binary checkpoint format.

Each batch runs one generator step (weighted fraud + apparent + latent loss,
Adam on generator parameters only) followed by one discriminator step
(feature-matching loss on the real batch versus the detached fake, Adam on
discriminator parameters only). Both steps' losses are computed and checked
for finiteness before either network is updated.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, NumericalError, UsageError
from .features import Standardizer
from .model import (
    Arch,
    InputPipeline,
    LossWeights,
    ModelState,
    apparent_loss,
    build_model,
    feature_matching_loss,
    fit_inputs,
    fit_pipeline,  # unused here since train() fits through fit_inputs; perfbench wraps trainer.fit_pipeline by name
    fraud_loss,
    generator_forward,
    generator_loss,
    latent_loss,
    pipeline_layout,
    state_size,
)
from .ndtensor import Tensor, adam_step, init_adam
from .signal_io import is_normal, write_atomic

CHECKPOINT_MAGIC = b"SGD1"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.001
    beta1: float = 0.5
    beta2: float = 0.999
    latent_dim: int = 64
    subsample_len: int = 12000
    pipeline_mode: str = "raw"
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    checkpoint_path: Path | None = None
    base_channels: int = 16
    n_down: int = 4
    feature_window_len: int = 250
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.epochs < 1:
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise UsageError(f"learning rate must be positive, got {self.lr}")


@dataclass
class EpochStats:
    epoch: int
    l_total: float
    l_fraud: float
    l_apparent: float
    l_latent: float
    l_disc: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    total_seconds: float
    checkpoint_digest: str


def train(config: TrainConfig, train_set) -> tuple[ModelState, TrainReport]:
    """Train on normal-labeled subsamples; returns the model and per-epoch stats.

    Raises before touching any parameter if the input contains a non-normal
    label. Aborts with a NumericalError naming the epoch and batch if any
    loss goes non-finite.
    """
    if not train_set:
        raise UsageError("training set is empty")
    bad = sorted({s.label for s in train_set if not is_normal(s.label)})
    if bad:
        raise UsageError(f"training is normal-only; refusing labels {bad}")
    for s in train_set:
        if len(s) != config.subsample_len:
            raise UsageError(
                f"subsample of {len(s)} samples does not match configured length {config.subsample_len}"
            )
    if len(train_set) < config.batch_size:
        raise UsageError(
            f"training set of {len(train_set)} is smaller than batch_size {config.batch_size}; "
            f"lower the batch size"
        )
    if config.checkpoint_path is not None and not Path(config.checkpoint_path).parent.is_dir():
        raise UsageError(f"checkpoint directory {Path(config.checkpoint_path).parent} does not exist")

    pipeline, inputs = fit_inputs(  # inputs: [N, C, net_len]
        train_set, config.pipeline_mode, config.subsample_len, config.feature_window_len, config.n_down
    )
    state = build_model(
        pipeline, config.latent_dim, config.base_channels, config.n_down,
        config.seed, config.bn_momentum, config.bn_eps,
    )
    gen_params = state.generator.params()
    disc_params = state.discriminator.params()
    gen_opt = init_adam(gen_params, config.lr, config.beta1, config.beta2)
    disc_opt = init_adam(disc_params, config.lr, config.beta1, config.beta2)

    n_batches = len(train_set) // config.batch_size  # last partial batch dropped
    order_rng = np.random.default_rng(config.seed)
    weights = config.loss_weights

    epoch_rows: list[EpochStats] = []
    t_start = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        t_epoch = time.perf_counter()
        perm = order_rng.permutation(len(train_set))
        sums = np.zeros(5)
        for b in range(n_batches):
            idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
            x = Tensor(inputs[idx])

            # generator forward and backward: the discriminator is frozen so
            # it accumulates no grad
            for p in disc_params:
                p.requires_grad = False
            for p in gen_params:
                p.zero_grad()
            x_hat, z, z_hat = generator_forward(state.generator, x, train=True)
            l_f = fraud_loss(state.discriminator, x_hat, train=True)
            l_a = apparent_loss(x, x_hat)
            l_l = latent_loss(z, z_hat)
            total = generator_loss(weights, l_f, l_a, l_l)
            gen_losses = {"total": total.item(), "l_f": l_f.item(), "l_a": l_a.item(), "l_l": l_l.item()}
            _check_finite(epoch, b, gen_losses)
            total.backward()
            for p in disc_params:
                p.requires_grad = True

            # discriminator loss on the real batch and the detached fake; it
            # is checked before either network is updated, so an abort leaves
            # the parameters of the last finite batch
            for p in disc_params:
                p.zero_grad()
            l_d = feature_matching_loss(state.discriminator, x, x_hat.detach(), train=True)
            l_d_val = l_d.item()
            _check_finite(epoch, b, {"l_d": l_d_val})
            l_d.backward()

            adam_step(gen_params, [p.grad for p in gen_params], gen_opt)
            adam_step(disc_params, [p.grad for p in disc_params], disc_opt)

            values = tuple(gen_losses.values()) + (l_d_val,)
            sums += values
        means = [float(v) for v in sums / n_batches]
        epoch_rows.append(EpochStats(
            epoch=epoch,
            l_total=means[0], l_fraud=means[1], l_apparent=means[2],
            l_latent=means[3], l_disc=means[4],
            seconds=time.perf_counter() - t_epoch,
        ))

    blob = serialize_state(state)
    if config.checkpoint_path is not None:
        path = Path(config.checkpoint_path)
        write_atomic(path, blob)
        write_train_report_csv(epoch_rows, path.parent / (path.name + ".train.csv"))
    report = TrainReport(
        epochs=epoch_rows,
        total_seconds=time.perf_counter() - t_start,
        checkpoint_digest=hashlib.sha256(blob).hexdigest(),
    )
    return state, report


def _check_finite(epoch: int, batch: int, losses: dict[str, float]) -> None:
    if not all(np.isfinite(v) for v in losses.values()):
        detail = " ".join(f"{name}={value}" for name, value in losses.items())
        raise NumericalError(f"non-finite loss at epoch {epoch} batch {batch}: {detail}")


def write_train_report_csv(epochs: list[EpochStats], path) -> None:
    lines = ["epoch,l_total,l_f,l_a,l_l,l_d,seconds"]
    for row in epochs:
        lines.append(
            f"{row.epoch},{row.l_total!r},{row.l_fraud!r},{row.l_apparent!r},"
            f"{row.l_latent!r},{row.l_disc!r},{row.seconds:.3f}"
        )
    write_atomic(path, "\n".join(lines) + "\n")


# -- checkpoint format --------------------------------------------------------
#
# magic "SGD1", u16 version, then a fixed header (pipeline mode, architecture
# hyperparameters, float knobs), the per-channel standardization statistics,
# and every parameter and running-stat tensor in deterministic traversal order
# as (u8 ndim, u32 dims..., float32 data), all little-endian.


def serialize_state(state: ModelState) -> bytes:
    arch = state.generator.arch
    pipe = state.pipeline
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    parts.append(struct.pack(
        "<BIIIIIIII",
        0 if pipe.mode == "raw" else 1,
        arch.input_channels,
        pipe.subsample_len,
        pipe.net_len,
        arch.latent_dim,
        arch.base_channels,
        arch.n_down,
        pipe.window_len,
        pipe.n_windows,
    ))
    parts.append(struct.pack("<ff", arch.bn_momentum, arch.bn_eps))
    mu = pipe.standardizer.mean.astype("<f4")
    sd = pipe.standardizer.std.astype("<f4")
    parts.append(struct.pack("<I", mu.size))
    parts.append(mu.tobytes())
    parts.append(sd.tobytes())

    arrays = state.arrays()
    parts.append(struct.pack("<I", len(arrays)))
    for arr in arrays:
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, origin: str):
        self.view = memoryview(blob)  # slices share the blob, so arrays are parsed in place
        self.pos = 0
        self.origin = origin

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.view):
            raise DataFormatError(f"{self.origin}: truncated checkpoint")
        chunk = self.view[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def deserialize_state(blob: bytes, origin: str = "checkpoint") -> ModelState:
    r = _Reader(blob, origin)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{origin}: bad magic bytes (not a checkpoint)")
    (version,) = r.unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{origin}: unsupported version {version} (expected {CHECKPOINT_VERSION})")
    (mode_code, in_ch, subsample_len, net_len, latent, base, n_down, window_len, n_windows) = r.unpack("<BIIIIIIII")
    bn_momentum, bn_eps = r.unpack("<ff")
    (n_stats,) = r.unpack("<I")
    mu = np.frombuffer(r.take(4 * n_stats), dtype="<f4").astype(np.float32)
    sd = np.frombuffer(r.take(4 * n_stats), dtype="<f4").astype(np.float32)

    # every header field is checked, and the payload it implies measured
    # against the file, before build_model allocates anything
    if mode_code > 1 or not 1 <= n_down < 32 or not math.isfinite(bn_momentum) or not math.isfinite(bn_eps):
        raise DataFormatError(  # n_down < 32 because net_len is a u32 multiple of 2^n_down
            f"{origin}: corrupt checkpoint header: mode code {mode_code}, n_down {n_down}, "
            f"batch-norm momentum {bn_momentum}, eps {bn_eps}"
        )
    try:
        pipeline = InputPipeline(
            mode=("raw", "features")[mode_code],
            subsample_len=subsample_len,
            net_len=net_len,
            standardizer=Standardizer(mean=mu, std=sd),
            window_len=window_len,
            n_windows=n_windows,
        )
        layout = pipeline_layout(pipeline.mode, subsample_len, window_len, n_down)
        arch = Arch(in_ch, net_len, latent, base, n_down)
    except UsageError as err:
        raise DataFormatError(f"{origin}: corrupt checkpoint header: {err}") from None
    if layout != (window_len, n_windows, net_len) or not in_ch == n_stats == pipeline.channels:
        raise DataFormatError(f"{origin}: checkpoint header does not describe a consistent input pipeline")
    need, have = 4 * state_size(arch), len(blob) - r.pos
    if need > have:
        raise DataFormatError(
            f"{origin}: truncated checkpoint: header implies at least {need} payload bytes, file has {have}"
        )
    state = build_model(pipeline, latent, base, n_down, seed=None,
                        bn_momentum=float(bn_momentum), bn_eps=float(bn_eps))

    (n_tensors,) = r.unpack("<I")
    arrays = state.arrays()
    if n_tensors != len(arrays):
        raise DataFormatError(f"{origin}: {n_tensors} tensors in file, architecture needs {len(arrays)}")
    for arr in arrays:
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if shape != arr.shape:
            raise DataFormatError(f"{origin}: tensor shape {shape} does not match architecture {arr.shape}")
        data = np.frombuffer(r.take(4 * arr.size), dtype="<f4")
        arr[...] = data.reshape(shape)
    if r.pos != len(blob):
        raise DataFormatError(f"{origin}: {len(blob) - r.pos} trailing bytes after checkpoint payload")
    return state


def save_checkpoint(state: ModelState, path) -> str:
    """Write the checkpoint; returns its sha256 hex digest."""
    blob = serialize_state(state)
    write_atomic(path, blob)
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint(path) -> ModelState:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as err:
        raise UsageError(f"cannot read checkpoint {path}: {err.strerror or err}") from err
    return deserialize_state(blob, origin=str(path))
