"""The encoder-decoder-encoder generator, the convolutional discriminator,
their four loss functions, and the input pipeline.

Layer plan: the encoder applies n_down stride-2 convolutions (kernel 4,
padding 1), doubling channels from base_channels, with batch norm and leaky
ReLU after every stage except that the first stage skips batch norm; a final
dense layer (one matmul over the flattened bottom activation) maps to the
latent vector. The decoder mirrors this with transposed convolutions, batch
norm and ReLU, ending in a plain affine transposed convolution so
reconstructions are unbounded (no squashing). The discriminator is an
encoder with a one-logit head read through a sigmoid; its flattened
penultimate activation is the feature map used for feature matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, UsageError
from .features import FEATURE_NAMES, Standardizer, feature_matrix
from .ndtensor import (
    BatchNormStats,
    Tensor,
    batchnorm1d,
    bce_loss,
    conv1d,
    conv_transpose1d,
    l1_mean,
    l2_mean,
    leaky_relu,
    matmul,
    relu,  # unused here since the decoder fuses ReLU into batch norm; perfbench wraps model.relu by name
    sigmoid,
)

LEAKY_SLOPE = 0.2
KERNEL_SIZE = 4
INIT_STD = 0.02  # convolution weights ~ N(0, 0.02), batch-norm gamma ~ N(1, 0.02)


@dataclass
class LossWeights:
    """Weights of the three generator loss components (fraud, apparent, latent)."""

    w_fraud: float = 1.0
    w_apparent: float = 50.0
    w_latent: float = 1.0

    def __post_init__(self):
        weights = (self.w_fraud, self.w_apparent, self.w_latent)
        if not np.isfinite(weights).all():
            raise UsageError(f"loss weights must be finite, got {weights}")
        if min(weights) < 0:
            raise UsageError("loss weights must be non-negative")
        if max(weights) == 0:
            raise UsageError("at least one loss weight must be positive")


class Conv:
    """A pyramid stage's convolution (kernel KERNEL_SIZE, stride 2, padding 1);
    bias is omitted under batch norm."""

    def __init__(self, kernel: Tensor, bias: Tensor | None):
        self.kernel = kernel
        self.bias = bias

    def __call__(self, x: Tensor) -> Tensor:
        return conv1d(x, self.kernel, self.bias, 2, 1)

    def params(self) -> list[Tensor]:
        return [self.kernel] + ([self.bias] if self.bias is not None else [])

    def arrays(self) -> list[np.ndarray]:
        return [p.data for p in self.params()]


class ConvT(Conv):
    def __call__(self, x: Tensor) -> Tensor:
        return conv_transpose1d(x, self.kernel, self.bias, 2, 1)


class Dense(Conv):
    """A head whose [O, C, L] kernel spans its whole [B, C, L] input: a dense
    layer h[B, C*L] @ W[O, C*L].T + b to [B, O], as one matmul. The kernel
    keeps its convolution shape in checkpoints."""

    def __call__(self, h: Tensor) -> Tensor:
        flat = h.reshape((h.shape[0], -1))
        return matmul(flat, self.kernel.reshape((self.kernel.shape[0], -1)), self.bias, transpose_w=True)


class DenseT(ConvT):
    """The transposed head: [B, I] through an [I, O, L] kernel to [B, O, L],
    as one matmul z @ W[I, O*L]."""

    def __call__(self, z: Tensor) -> Tensor:
        in_ch, out_ch, length = self.kernel.shape
        out = matmul(z, self.kernel.reshape((in_ch, -1)), self.bias)
        return out.reshape((z.shape[0], out_ch, length))


class BatchNorm:
    """Batch norm with ``batchnorm1d``'s fixed ``BN_MOMENTUM`` (0.1) and ``BN_EPS`` (1e-5)."""

    def __init__(self, gamma: Tensor, beta: Tensor, stats: BatchNormStats):
        self.gamma = gamma
        self.beta = beta
        self.stats = stats

    def __call__(self, x: Tensor, train: bool, slope: float | None = None) -> Tensor:
        return batchnorm1d(x, self.gamma, self.beta, self.stats, train, slope=slope)

    def params(self) -> list[Tensor]:
        return [self.gamma, self.beta]

    def arrays(self) -> list[np.ndarray]:
        return [self.gamma.data, self.beta.data, self.stats.mean, self.stats.var]


def seeded(rng):
    """An init for the network constructors: ``init(shape, mean)`` draws
    N(mean, INIT_STD) float32 values from ``rng``; ``init(shape, fill=f)``
    returns a constant array and draws nothing."""

    def init(shape, mean: float | None = None, fill: float = 0.0) -> np.ndarray:
        if mean is None:
            return np.full(shape, fill, np.float32)
        return rng.normal(mean, INIT_STD, shape).astype(np.float32)

    return init


def _init_conv(init, shape, cls: type[Conv], with_bias: bool) -> Conv:
    kernel = Tensor(init(shape, 0.0), requires_grad=True)
    n_bias = shape[1] if issubclass(cls, ConvT) else shape[0]
    bias = Tensor(init((n_bias,)), requires_grad=True) if with_bias else None
    return cls(kernel, bias)


def _init_bn(init, channels: int) -> BatchNorm:
    gamma = Tensor(init((channels,), 1.0), requires_grad=True)
    beta = Tensor(init((channels,)), requires_grad=True)
    return BatchNorm(gamma, beta, BatchNormStats(init((channels,)), init((channels,), fill=1.0)))


@dataclass
class Arch:
    """Shared architecture hyperparameters for all three sub-networks."""

    input_channels: int
    input_len: int  # padded network length, a multiple of 2**n_down
    latent_dim: int
    base_channels: int
    n_down: int

    def __post_init__(self):
        if self.n_down < 1:
            raise UsageError(f"n_down must be >= 1, got {self.n_down}")
        if self.input_len % (1 << self.n_down) != 0 or self.input_len < (1 << self.n_down):
            raise UsageError(
                f"network input length {self.input_len} must be a positive multiple of 2^{self.n_down}"
            )
        if min(self.input_channels, self.latent_dim, self.base_channels) < 1:
            raise UsageError("channels and latent_dim must be >= 1")

    @property
    def bottom_len(self) -> int:
        return self.input_len >> self.n_down

    @property
    def top_channels(self) -> int:
        return self.base_channels << (self.n_down - 1)

    def stage_channels(self) -> list[int]:
        return [self.base_channels << i for i in range(self.n_down)]


class _Network:
    """A network part built from ``self.layers``, whose order fixes the
    optimizer's parameter list and the checkpoint's array layout. The
    constructor asks ``init`` for every array in that same order, which lets
    the checkpoint reader be the init of a loaded generator."""

    layers: list

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def arrays(self) -> list[np.ndarray]:
        return [a for layer in self.layers for a in layer.arrays()]


class Encoder(_Network):
    """Downscaling pyramid ending in a latent projection."""

    def __init__(self, arch: Arch, init):
        self.arch = arch
        self.stages = []
        in_ch = arch.input_channels
        for i, out_ch in enumerate(arch.stage_channels()):
            conv = _init_conv(init, (out_ch, in_ch, KERNEL_SIZE), Conv, with_bias=i == 0)
            bn = None if i == 0 else _init_bn(init, out_ch)
            self.stages.append((conv, bn))
            in_ch = out_ch
        self.head = _init_conv(init, (arch.latent_dim, in_ch, arch.bottom_len), Dense, with_bias=True)
        self.layers = [layer for stage in self.stages for layer in stage if layer is not None] + [self.head]

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return self.head(self._body(x, train))

    def _body(self, x: Tensor, train: bool) -> Tensor:
        h = x
        for conv, bn in self.stages:
            h = conv(h)
            h = leaky_relu(h, LEAKY_SLOPE) if bn is None else bn(h, train, LEAKY_SLOPE)
        return h


class Decoder(_Network):
    """Mirror of the encoder: latent projection then upscaling pyramid."""

    def __init__(self, arch: Arch, init):
        self.arch = arch
        self.head = _init_conv(init, (arch.latent_dim, arch.top_channels, arch.bottom_len), DenseT, with_bias=False)
        self.head_bn = _init_bn(init, arch.top_channels)
        self.stages = []
        channels = arch.stage_channels()
        for i in range(arch.n_down - 1, 0, -1):
            conv = _init_conv(init, (channels[i], channels[i - 1], KERNEL_SIZE), ConvT, with_bias=False)
            bn = _init_bn(init, channels[i - 1])
            self.stages.append((conv, bn))
        self.final = _init_conv(init, (arch.base_channels, arch.input_channels, KERNEL_SIZE), ConvT, with_bias=True)
        self.layers = [self.head, self.head_bn, *(layer for stage in self.stages for layer in stage), self.final]

    def forward(self, z: Tensor, train: bool) -> Tensor:
        h = self.head_bn(self.head(z), train, 0.0)
        for conv, bn in self.stages:
            h = bn(conv(h), train, 0.0)
        return self.final(h)  # plain affine output, deliberately unbounded


class Generator(_Network):
    """Encoder-decoder-encoder; both encoders share architecture, not weights."""

    def __init__(self, arch: Arch, init):
        self.arch = arch
        self.encoder1 = Encoder(arch, init)
        self.decoder = Decoder(arch, init)
        self.encoder2 = Encoder(arch, init)
        self.layers = [self.encoder1, self.decoder, self.encoder2]


class Discriminator(Encoder):
    """An encoder with a one-logit real/fake head; its penultimate activation feeds feature matching."""

    def __init__(self, arch: Arch, init):
        super().__init__(replace(arch, latent_dim=1), init)


def _check_input(x: Tensor, arch: Arch, who: str):
    if x.data.ndim != 3 or x.shape[1] != arch.input_channels or x.shape[2] != arch.input_len:
        raise DimensionError(
            f"{who} expects [batch, {arch.input_channels}, {arch.input_len}], got {x.shape}"
        )


def generator_forward(g: Generator, x: Tensor, train: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """Return (x_hat, z, z_hat) for a [batch, C, L] input."""
    _check_input(x, g.arch, "generator")
    z = g.encoder1.forward(x, train)
    x_hat = g.decoder.forward(z, train)
    z_hat = g.encoder2.forward(x_hat, train)
    return x_hat, z, z_hat


def discriminator_forward(d: Discriminator, x: Tensor, train: bool = False) -> tuple[Tensor, Tensor]:
    """Return (p, f): real/fake probability per sample and flattened features."""
    _check_input(x, d.arch, "discriminator")
    h = d._body(x, train)
    batch = x.shape[0]
    f = h.reshape((batch, h.size // batch))
    logit = d.head(h)
    p = sigmoid(logit.reshape((batch,)))
    return p, f


def fraud_loss(d: Discriminator, x_hat: Tensor, train: bool = False) -> Tensor:
    """Binary cross entropy pushing the discriminator to call fakes real."""
    p, _ = discriminator_forward(d, x_hat, train)
    return bce_loss(p, Tensor(np.ones(p.shape, dtype=np.float32)))


def apparent_loss(x: Tensor, x_hat: Tensor) -> Tensor:
    """Mean L1 distance between an input and its reconstruction."""
    return l1_mean(x, x_hat)


def latent_loss(z: Tensor, z_hat: Tensor) -> Tensor:
    """Mean squared distance between the two latent codes."""
    return l2_mean(z, z_hat)


def generator_loss(weights: LossWeights, l_f: Tensor, l_a: Tensor, l_l: Tensor) -> Tensor:
    return weights.w_fraud * l_f + weights.w_apparent * l_a + weights.w_latent * l_l


def feature_matching_loss(d: Discriminator, x_real: Tensor, x_hat: Tensor, train: bool = False) -> Tensor:
    """Mean squared distance of discriminator features of real vs generated."""
    _, f_real = discriminator_forward(d, x_real, train)
    _, f_hat = discriminator_forward(d, x_hat, train)
    return l2_mean(f_real, f_hat)


# -- input pipeline ---------------------------------------------------------

MODE_CHANNELS = {"raw": 1, "features": len(FEATURE_NAMES)}  # network input channels per pipeline mode


@dataclass
class InputPipeline:
    """Turns raw subsamples into standardized, padded network inputs, and is
    the one place that decides and checks the input geometry.

    mode "raw" feeds the subsample as one channel; mode "features" feeds the
    16-channel statistical feature sequence of its whole windows. Either is
    reflect-padded to ``net_len``, the next multiple of 2^n_down, so the
    stride-2 pyramid halves it exactly. Standardization statistics come from
    the training set and travel with the checkpoint.
    """

    mode: str
    subsample_len: int
    window_len: int  # 0 in raw mode
    n_down: int
    standardizer: Standardizer | None = None  # set by fit_inputs or the checkpoint reader
    net_len: int = field(init=False)

    def __post_init__(self):
        if self.mode not in MODE_CHANNELS:
            raise UsageError(f"pipeline mode must be 'raw' or 'features', got {self.mode!r}")
        if self.n_down < 0:
            raise UsageError(f"n_down must be >= 0, got {self.n_down}")
        if self.mode == "raw":
            if self.window_len != 0:
                raise UsageError(f"feature window length {self.window_len} in a raw-mode pipeline")
        elif self.window_len < 2 or self.window_len > self.subsample_len:
            raise UsageError(
                f"feature window length {self.window_len} incompatible with subsample {self.subsample_len}"
            )
        self.net_len = padded_length(self.seq_len, self.n_down)
        if self.net_len - self.seq_len >= self.seq_len:
            raise UsageError(
                f"sequence length {self.seq_len} too short to reflect-pad to {self.net_len}; "
                f"reduce n_down or enlarge the input"
            )

    @property
    def channels(self) -> int:
        return MODE_CHANNELS[self.mode]

    @property
    def n_windows(self) -> int:
        return self.subsample_len // self.window_len if self.mode == "features" else 0

    @property
    def seq_len(self) -> int:
        return self.subsample_len if self.mode == "raw" else self.n_windows

    def arch(self, latent_dim: int, base_channels: int) -> Arch:
        """The architecture of a network over this pipeline's inputs."""
        return Arch(self.channels, self.net_len, latent_dim, base_channels, self.n_down)

    def prepare(self, values: np.ndarray) -> np.ndarray:
        """One subsample's values -> standardized [C, net_len] float32 array."""
        return self._standardize_and_pad(self._rows(values))

    def prepare_batch(self, subsamples) -> np.ndarray:
        return np.stack([self.prepare(s.values) for s in subsamples])

    def restore(self, net_output: np.ndarray) -> np.ndarray:
        """Undo standardization and padding of one [C, net_len] network output."""
        return self.standardizer.inverse(net_output.astype(np.float64))[:, : self.seq_len]

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """One subsample -> its unstandardized float64 [C, seq_len] rows: the
        signal itself as one channel, or its 16-channel feature sequence."""
        if values.size != self.subsample_len:
            raise DimensionError(
                f"subsample of {values.size} samples does not match configured length {self.subsample_len}"
            )
        if self.mode == "raw":
            return np.asarray(values, dtype=np.float64)[None, :]
        return feature_matrix(values, self.window_len, self.n_windows)

    def _standardize_and_pad(self, rows: np.ndarray) -> np.ndarray:
        rows = self.standardizer.transform(rows)
        pad = self.net_len - rows.shape[1]
        if pad:
            rows = np.pad(rows, ((0, 0), (0, pad)), mode="reflect")
        return rows.astype(np.float32)


def padded_length(seq_len: int, n_down: int) -> int:
    block = 1 << n_down
    return ((seq_len + block - 1) // block) * block


def fit_inputs(
    train_subsamples, mode: str, subsample_len: int, window_len: int, n_down: int
) -> tuple[InputPipeline, np.ndarray]:
    """Fit the input pipeline on a training set and prepare that set with it.

    ``window_len`` is read in features mode only. Each subsample becomes
    channel rows once: the standardizer is fit on their concatenation, then
    the same rows become the [N, C, net_len] inputs.
    """
    if not train_subsamples:
        raise UsageError("cannot fit an input pipeline on an empty training set")
    pipeline = InputPipeline(mode, subsample_len, window_len if mode == "features" else 0, n_down)
    rows = [pipeline._rows(s.values) for s in train_subsamples]
    pipeline.standardizer = Standardizer.fit(np.concatenate(rows, axis=1))
    return pipeline, np.stack([pipeline._standardize_and_pad(r) for r in rows])


def fit_pipeline(train_subsamples, mode: str, subsample_len: int, window_len: int, n_down: int) -> InputPipeline:
    """Fit train-set standardization stats and fix the padded network length."""
    return fit_inputs(train_subsamples, mode, subsample_len, window_len, n_down)[0]


@dataclass
class ModelState:
    """A generator behind its input pipeline: everything scoring reads. The
    discriminator only shapes training; a loaded checkpoint has none."""

    generator: Generator
    discriminator: Discriminator | None
    pipeline: InputPipeline


def build_model(pipeline: InputPipeline, latent_dim: int, base_channels: int, n_down: int, seed: int) -> ModelState:
    """Seeded construction of generator + discriminator behind a pipeline,
    whose inputs are padded for ``n_down`` stride-2 stages."""
    if n_down != pipeline.n_down:
        raise UsageError(f"n_down {n_down} differs from the {pipeline.n_down} the input pipeline pads for")
    arch = pipeline.arch(latent_dim, base_channels)
    init = seeded(np.random.default_rng(seed))
    return ModelState(
        generator=Generator(arch, init),
        discriminator=Discriminator(arch, init),
        pipeline=pipeline,
    )
