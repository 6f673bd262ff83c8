"""The encoder-decoder-encoder generator, the convolutional discriminator,
their four loss functions, and the input pipeline.

Layer plan: the encoder applies n_down stride-2 convolutions (kernel 4,
padding 1), doubling channels from base_channels, with batch norm and leaky
ReLU after every stage except that the first stage skips batch norm; a final
dense layer (one GEMM over the flattened bottom activation) maps to the latent
vector. The decoder mirrors this with transposed convolutions, batch norm and
ReLU, ending in a plain affine transposed convolution so reconstructions are
unbounded (no squashing). The discriminator reuses the encoder pyramid with a
sigmoid head; its flattened penultimate activation is the feature map used for
feature matching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        if min(self.w_fraud, self.w_apparent, self.w_latent) < 0:
            raise UsageError("loss weights must be non-negative")
        if max(self.w_fraud, self.w_apparent, self.w_latent) == 0:
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
    layer to [B, O], run as one kernel-1 convolution (a single GEMM) over the
    flattened input. The kernel keeps its convolution shape in checkpoints."""

    def __call__(self, h: Tensor) -> Tensor:
        batch, out_ch = h.shape[0], self.kernel.shape[0]
        out = conv1d(h.reshape((batch, -1, 1)), self.kernel.reshape((out_ch, -1, 1)), self.bias)
        return out.reshape((batch, out_ch))


class DenseT(ConvT):
    """The transposed head: [B, I] through an [I, O, L] kernel to [B, O, L],
    as one kernel-1 transposed convolution."""

    def __call__(self, z: Tensor) -> Tensor:
        in_ch, out_ch, length = self.kernel.shape
        batch = z.shape[0]
        out = conv_transpose1d(z.reshape((batch, in_ch, 1)), self.kernel.reshape((in_ch, -1, 1)), self.bias)
        return out.reshape((batch, out_ch, length))


class BatchNorm:
    """Batch norm with ``batchnorm1d``'s fixed ``BN_MOMENTUM`` (0.1) and ``BN_EPS`` (1e-5)."""

    def __init__(self, gamma: Tensor, beta: Tensor):
        self.gamma = gamma
        self.beta = beta
        self.stats = BatchNormStats.fresh(gamma.size)

    def __call__(self, x: Tensor, train: bool, slope: float | None = None) -> Tensor:
        return batchnorm1d(x, self.gamma, self.beta, self.stats, train, slope=slope)

    def params(self) -> list[Tensor]:
        return [self.gamma, self.beta]

    def arrays(self) -> list[np.ndarray]:
        return [self.gamma.data, self.beta.data, self.stats.mean, self.stats.var]


def _init_normal(rng, mean: float, shape) -> np.ndarray:
    """N(mean, INIT_STD) float32 initial values; zeros when rng is None, for
    a checkpoint load that overwrites them all."""
    if rng is None:
        return np.zeros(shape, dtype=np.float32)
    return rng.normal(mean, INIT_STD, shape).astype(np.float32)


def _init_conv(rng, shape, cls: type[Conv], with_bias: bool) -> Conv:
    kernel = Tensor(_init_normal(rng, 0.0, shape), requires_grad=True)
    n_bias = shape[1] if issubclass(cls, ConvT) else shape[0]
    bias = Tensor(np.zeros(n_bias, dtype=np.float32), requires_grad=True) if with_bias else None
    return cls(kernel, bias)


def _init_bn(rng, channels: int) -> BatchNorm:
    gamma = Tensor(_init_normal(rng, 1.0, channels), requires_grad=True)
    beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
    return BatchNorm(gamma, beta)


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
    """A network part built from ``self.layers``, whose order fixes both the
    optimizer's parameter list and the checkpoint's array layout."""

    layers: list

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def arrays(self) -> list[np.ndarray]:
        return [a for layer in self.layers for a in layer.arrays()]


class Encoder(_Network):
    """Downscaling pyramid ending in a latent projection."""

    def __init__(self, arch: Arch, rng):
        self.arch = arch
        self.stages = []
        in_ch = arch.input_channels
        for i, out_ch in enumerate(arch.stage_channels()):
            conv = _init_conv(rng, (out_ch, in_ch, KERNEL_SIZE), Conv, with_bias=i == 0)
            bn = None if i == 0 else _init_bn(rng, out_ch)
            self.stages.append((conv, bn))
            in_ch = out_ch
        self.head = _init_conv(rng, (arch.latent_dim, in_ch, arch.bottom_len), Dense, with_bias=True)
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

    def __init__(self, arch: Arch, rng):
        self.arch = arch
        self.head = _init_conv(rng, (arch.latent_dim, arch.top_channels, arch.bottom_len), DenseT, with_bias=False)
        self.head_bn = _init_bn(rng, arch.top_channels)
        self.stages = []
        channels = arch.stage_channels()
        for i in range(arch.n_down - 1, 0, -1):
            conv = _init_conv(rng, (channels[i], channels[i - 1], KERNEL_SIZE), ConvT, with_bias=False)
            bn = _init_bn(rng, channels[i - 1])
            self.stages.append((conv, bn))
        self.final = _init_conv(rng, (arch.base_channels, arch.input_channels, KERNEL_SIZE), ConvT, with_bias=True)
        self.layers = [self.head, self.head_bn, *(layer for stage in self.stages for layer in stage), self.final]

    def forward(self, z: Tensor, train: bool) -> Tensor:
        h = self.head_bn(self.head(z), train, 0.0)
        for conv, bn in self.stages:
            h = bn(conv(h), train, 0.0)
        return self.final(h)  # plain affine output, deliberately unbounded


class Generator(_Network):
    """Encoder-decoder-encoder; both encoders share architecture, not weights."""

    def __init__(self, arch: Arch, rng):
        self.arch = arch
        self.encoder1 = Encoder(arch, rng)
        self.decoder = Decoder(arch, rng)
        self.encoder2 = Encoder(arch, rng)
        self.layers = [self.encoder1, self.decoder, self.encoder2]


class Discriminator(_Network):
    """Encoder pyramid with a sigmoid head; exposes its penultimate activation."""

    def __init__(self, arch: Arch, rng):
        self.arch = arch
        self.encoder = Encoder(replace(arch, latent_dim=1), rng)  # head maps to a single real/fake logit
        self.layers = [self.encoder]


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
    h = d.encoder._body(x, train)
    batch = x.shape[0]
    f = h.reshape((batch, h.size // batch))
    logit = d.encoder.head(h)
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
    """Turns raw subsamples into standardized, padded network inputs.

    mode "raw" feeds the subsample as one channel; mode "features" feeds the
    16-channel statistical feature sequence. Standardization statistics come
    from the training set and travel with the checkpoint.
    """

    mode: str
    subsample_len: int
    net_len: int
    standardizer: Standardizer
    window_len: int = 0  # features mode only
    n_windows: int = 0

    def __post_init__(self):
        if self.mode not in MODE_CHANNELS:
            raise UsageError(f"pipeline mode must be 'raw' or 'features', got {self.mode!r}")

    @property
    def channels(self) -> int:
        return MODE_CHANNELS[self.mode]

    @property
    def seq_len(self) -> int:
        return self.subsample_len if self.mode == "raw" else self.n_windows

    def prepare(self, values: np.ndarray) -> np.ndarray:
        """One subsample's values -> standardized [C, net_len] float32 array."""
        rows = _channel_rows(values, self.mode, self.subsample_len, self.window_len, self.n_windows)
        return self._standardize_and_pad(rows)

    def prepare_batch(self, subsamples) -> np.ndarray:
        return np.stack([self.prepare(s.values) for s in subsamples])

    def restore(self, net_output: np.ndarray) -> np.ndarray:
        """Undo standardization and padding of one [C, net_len] network output."""
        return self.standardizer.inverse(net_output.astype(np.float64))[:, : self.seq_len]

    def _standardize_and_pad(self, rows: np.ndarray) -> np.ndarray:
        rows = self.standardizer.transform(rows)
        pad = self.net_len - rows.shape[1]
        if pad:
            rows = np.pad(rows, ((0, 0), (0, pad)), mode="reflect")
        return rows.astype(np.float32)


def _channel_rows(values: np.ndarray, mode: str, subsample_len: int, window_len: int, n_windows: int) -> np.ndarray:
    """One subsample -> its unstandardized float64 [C, seq_len] rows: the
    signal itself as one channel, or its 16-channel feature sequence."""
    if values.size != subsample_len:
        raise DimensionError(f"expected subsample of {subsample_len} samples, got {values.size}")
    if mode == "raw":
        return np.asarray(values, dtype=np.float64)[None, :]
    return feature_matrix(values, window_len, n_windows)


def padded_length(seq_len: int, n_down: int) -> int:
    block = 1 << n_down
    return ((seq_len + block - 1) // block) * block


def pipeline_layout(mode: str, subsample_len: int, window_len: int, n_down: int) -> tuple[int, int, int]:
    """Check a pipeline's geometry and return its (window_len, n_windows,
    net_len); both window fields are 0 in raw mode."""
    if mode == "raw":
        window_len, n_windows, seq_len = 0, 0, subsample_len
    elif mode == "features":
        if window_len < 2 or window_len > subsample_len:
            raise UsageError(f"feature window length {window_len} incompatible with subsample {subsample_len}")
        n_windows = seq_len = subsample_len // window_len
    else:
        raise UsageError(f"pipeline mode must be 'raw' or 'features', got {mode!r}")
    net_len = padded_length(seq_len, n_down)
    if net_len - seq_len >= seq_len:
        raise UsageError(
            f"sequence length {seq_len} too short to reflect-pad to {net_len}; "
            f"reduce n_down or enlarge the input"
        )
    return window_len, n_windows, net_len


def fit_inputs(
    train_subsamples, mode: str, subsample_len: int, window_len: int, n_down: int
) -> tuple[InputPipeline, np.ndarray]:
    """Fit the input pipeline on a training set and prepare that set with it.

    Each subsample becomes channel rows once: the standardizer is fit on their
    concatenation, then the same rows become the [N, C, net_len] inputs.
    """
    if not train_subsamples:
        raise UsageError("cannot fit an input pipeline on an empty training set")
    window_len, n_windows, net_len = pipeline_layout(mode, subsample_len, window_len, n_down)
    rows = [_channel_rows(s.values, mode, subsample_len, window_len, n_windows) for s in train_subsamples]
    pipeline = InputPipeline(
        mode=mode,
        subsample_len=subsample_len,
        net_len=net_len,
        standardizer=Standardizer.fit(np.concatenate(rows, axis=1)),
        window_len=window_len,
        n_windows=n_windows,
    )
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
    """Seeded construction of generator + discriminator behind a pipeline."""
    arch = Arch(
        input_channels=pipeline.channels,
        input_len=pipeline.net_len,
        latent_dim=latent_dim,
        base_channels=base_channels,
        n_down=n_down,
    )
    rng = np.random.default_rng(seed)
    return ModelState(
        generator=Generator(arch, rng),
        discriminator=Discriminator(arch, rng),
        pipeline=pipeline,
    )


def state_size(arch: Arch) -> int:
    """Float32 values in the arrays of a Generator of this architecture,
    counted without allocating any of them."""
    ch = arch.stage_channels()
    first = ch[0] * arch.input_channels * KERNEL_SIZE
    pyramid = sum(c_in * c_out * KERNEL_SIZE for c_in, c_out in zip(ch, ch[1:]))
    head = arch.top_channels * arch.bottom_len

    # first conv and its bias, batch-normed stages (gamma, beta, mean, var), head and its bias
    encoder = first + ch[0] + pyramid + 4 * sum(ch[1:]) + arch.latent_dim * head + arch.latent_dim
    decoder = arch.latent_dim * head + 4 * sum(ch) + pyramid + first + arch.input_channels
    return 2 * encoder + decoder
