"""Alternating adversarial training on normal-only subsamples, plus the
binary checkpoint format.

Each batch runs a generator backward (weighted fraud + apparent + latent
loss) and then a discriminator backward (feature-matching loss on the real
batch versus the detached fake); each clears only its own network's grads
first. Both losses are computed and checked for finiteness before one Adam
update moves the parameters of both networks.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, NumericalError, UsageError
from .features import Standardizer
from .model import (
    Generator,
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
)
from .ndtensor import Tensor, adam_step, init_adam
from .signal_io import is_normal, write_atomic

CHECKPOINT_MAGIC = b"SGD1"
CHECKPOINT_VERSION = 2
_MODES = ("raw", "features")  # the header's pipeline-mode codes


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

    def __post_init__(self):
        if self.epochs < 1:
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr < math.inf:
            raise UsageError(f"learning rate must be positive and finite, got {self.lr}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 < beta < 1:
                raise UsageError(f"{name} must be finite and lie in (0, 1), got {beta}")


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
    state = build_model(pipeline, config.latent_dim, config.base_channels, config.n_down, config.seed)
    gen_params = state.generator.params()
    disc_params = state.discriminator.params()
    params = gen_params + disc_params
    opt = init_adam(params, config.lr, config.beta1, config.beta2)

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

            # generator forward and backward; the discriminator's grads it
            # also fills are cleared by the discriminator step's zero_grad
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

            # discriminator loss on the real batch and the detached fake; it
            # is checked before either network is updated, so an abort leaves
            # the parameters of the last finite batch
            for p in disc_params:
                p.zero_grad()
            l_d = feature_matching_loss(state.discriminator, x, x_hat.detach(), train=True)
            l_d_val = l_d.item()
            _check_finite(epoch, b, {"l_d": l_d_val})
            l_d.backward()

            adam_step(params, [p.grad for p in params], opt)

            values = tuple(gen_losses.values()) + (l_d_val,)
            sums += values
        means = [float(v) for v in sums / n_batches]
        epoch_rows.append(EpochStats(
            epoch=epoch,
            l_total=means[0], l_fraud=means[1], l_apparent=means[2],
            l_latent=means[3], l_disc=means[4],
            seconds=time.perf_counter() - t_epoch,
        ))

    # the optimizer moments (two arrays per parameter) are dead; freeing them
    # first keeps the serialized checkpoint out of the training peak memory
    del opt
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
# magic "SGD1", u16 version, then a fixed header (u8 pipeline mode, u32
# subsample_len, window_len, latent_dim, base_channels, n_down), the
# per-channel standardization mean and std (one value per channel of the
# mode), and every generator array in traversal order as (u8 ndim, u32
# dims..., float32 data), all little-endian. Everything else (channel count,
# network length, feature-window count, array shapes) follows from the header.


def serialize_state(state: ModelState) -> bytes:
    arch = state.generator.arch
    pipe = state.pipeline
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    parts.append(struct.pack(
        "<BIIIII",
        _MODES.index(pipe.mode),
        pipe.subsample_len,
        pipe.window_len,
        arch.latent_dim,
        arch.base_channels,
        pipe.n_down,
    ))
    parts.append(pipe.standardizer.mean.astype("<f4").tobytes())
    parts.append(pipe.standardizer.std.astype("<f4").tobytes())
    for arr in state.generator.arrays():
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


class _Reader:
    """Reads a checkpoint from a binary stream; a short read is a DataFormatError."""

    def __init__(self, stream, origin: str):
        self.stream = stream
        self.origin = origin
        self.size = stream.seek(0, io.SEEK_END)
        stream.seek(0)

    def left(self) -> int:
        return self.size - self.stream.tell()

    def take(self, n: int) -> bytes:
        chunk = self.stream.read(n)
        if len(chunk) != n:
            raise DataFormatError(f"{self.origin}: truncated checkpoint")
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape, mean=None, fill=0.0) -> np.ndarray:
        """The next stored array, as a loaded network's init (``mean`` and
        ``fill`` unused): its recorded shape must be ``shape`` and its bytes
        must be left in the file before it is allocated and read into."""
        (ndim,) = self.unpack("<B")
        dims = self.unpack(f"<{ndim}I")
        if dims != shape:
            raise DataFormatError(f"{self.origin}: tensor shape {dims} does not match architecture {shape}")
        if 4 * math.prod(dims) > self.left():
            raise DataFormatError(f"{self.origin}: truncated checkpoint")
        arr = np.empty(dims, dtype=np.float32)
        if self.stream.readinto(memoryview(arr).cast("B")) != arr.nbytes:
            raise DataFormatError(f"{self.origin}: truncated checkpoint")
        if sys.byteorder != "little":
            arr.byteswap(inplace=True)
        return arr


def deserialize_state(blob: bytes, origin: str = "checkpoint") -> ModelState:
    return _read_state(io.BytesIO(blob), origin)


def _read_state(stream, origin: str) -> ModelState:
    r = _Reader(stream, origin)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{origin}: bad magic bytes (not a checkpoint)")
    (version,) = r.unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{origin}: unsupported version {version} (expected {CHECKPOINT_VERSION})")
    mode_code, subsample_len, window_len, latent, base, n_down = r.unpack("<BIIIII")

    # every header field is checked before any generator array is read, and
    # each array's shape and byte count before that array is allocated
    if mode_code >= len(_MODES) or not 1 <= n_down < 32:
        raise DataFormatError(  # n_down < 32 keeps 2^n_down and the network length within u32
            f"{origin}: corrupt checkpoint header: mode code {mode_code}, n_down {n_down}"
        )
    try:
        pipeline = InputPipeline(_MODES[mode_code], subsample_len, window_len, n_down)
        arch = pipeline.arch(latent, base)
    except UsageError as err:
        raise DataFormatError(f"{origin}: corrupt checkpoint header: {err}") from None
    mean, std = np.frombuffer(r.take(8 * arch.input_channels), dtype="<f4").astype(np.float32).reshape(2, -1)
    if not (np.isfinite(mean).all() and (np.isfinite(std) & (std > 0)).all()):
        raise DataFormatError(
            f"{origin}: corrupt standardizer: every mean must be finite and every std finite and positive"
        )
    generator = Generator(arch, r.array)
    if r.left():
        raise DataFormatError(f"{origin}: {r.left()} trailing bytes after checkpoint payload")
    pipeline.standardizer = Standardizer(mean=mean, std=std)
    return ModelState(generator=generator, discriminator=None, pipeline=pipeline)


def save_checkpoint(state: ModelState, path) -> str:
    """Write the checkpoint; returns its sha256 hex digest."""
    blob = serialize_state(state)
    write_atomic(path, blob)
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint(path) -> ModelState:
    path = Path(path)
    try:
        with open(path, "rb") as fh:  # each array is read straight from the file, not from a copy of it in memory
            return _read_state(fh, str(path))
    except OSError as err:
        raise UsageError(f"cannot read checkpoint {path}: {err.strerror or err}") from err
