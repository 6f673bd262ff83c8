"""Loading, windowing, splitting, and synthesizing univariate sensor signals,
the file read that every input of the package goes through, and the atomic
file write that every output goes through.

Ingestion formats are CSV (RFC-4180-style, UTF-8, optional single header row)
and headerless little-endian IEEE-754 float32 binary. Proprietary formats are
converted externally; see the README for a one-line .mat recipe.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, UsageError

LABEL_NORMAL = "normal"
LABEL_FAULT = "fault"
LABEL_UNLABELED = "unlabeled"


def fault_label(kind: str = "") -> str:
    """Fault label, optionally tagged with a kind, e.g. ``fault:inner``."""
    return f"{LABEL_FAULT}:{kind}" if kind else LABEL_FAULT


def is_fault(label: str) -> bool:
    return label == LABEL_FAULT or label.startswith(LABEL_FAULT + ":")


def is_normal(label: str) -> bool:
    return label == LABEL_NORMAL


@dataclass
class TimeSeries:
    """A raw sensor recording with its sampling rate and condition label."""

    values: np.ndarray
    sample_rate_hz: float = 1.0
    label: str = LABEL_UNLABELED

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 1 or self.values.size == 0:
            raise UsageError("a TimeSeries needs a non-empty 1-d value array")
        if not np.isfinite(self.values).all():
            raise DataFormatError("time series contains non-finite values")
        if not 0 < self.sample_rate_hz < np.inf:
            raise UsageError(f"sample rate must be positive and finite, got {self.sample_rate_hz}")

    def __len__(self) -> int:
        return self.values.size


@dataclass
class Subsample:
    """A fixed-length window cut from a TimeSeries; the unit fed to the model."""

    values: np.ndarray
    source_offset: int
    label: str = LABEL_UNLABELED
    source: str = ""

    def __len__(self) -> int:
        return self.values.size


@dataclass
class SynthSpec:
    """Recipe for a bearing-like test signal; impulse_rate_hz == 0 means normal."""

    duration_samples: int
    sample_rate_hz: float = 8192.0
    carrier_freqs_hz: tuple = (55.0, 130.0)
    noise_std: float = 0.1
    impulse_rate_hz: float = 0.0
    impulse_amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.duration_samples < 1:
            raise UsageError(f"duration_samples must be >= 1, got {self.duration_samples}")
        for name in ("sample_rate_hz", "noise_std", "impulse_rate_hz", "impulse_amplitude", "carrier_freqs_hz"):
            if not np.isfinite(getattr(self, name)).all():
                raise UsageError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sample_rate_hz <= 0:
            raise UsageError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.noise_std < 0 or self.impulse_rate_hz < 0:
            raise UsageError("noise_std and impulse_rate_hz must be non-negative")


def load_csv(path, column=0, sample_rate_hz: float = 1.0, label: str = LABEL_UNLABELED) -> TimeSeries:
    """Read one numeric column of a CSV file; a header row is auto-detected.

    ``column`` is either a 0-based index or a header name.
    """
    path = Path(path)
    try:
        text = read_input(path).decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if not rows:
        raise DataFormatError(f"{path}: empty file")

    header_cells = rows[0]
    has_header = not _all_numeric(header_cells)
    if isinstance(column, str):
        if not has_header:
            raise ConfigError(f"{path}: column {column!r} requested but file has no header row")
        try:
            col_idx = header_cells.index(column)
        except ValueError:
            raise ConfigError(f"{path}: no column named {column!r} (header: {header_cells})") from None
    else:
        col_idx = int(column)
        if col_idx < 0 or col_idx >= len(header_cells):
            raise ConfigError(f"{path}: column index {col_idx} out of range (row width {len(header_cells)})")

    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise DataFormatError(f"{path}: no data rows")

    values = np.empty(len(data_rows), dtype=np.float32)
    for i, row in enumerate(data_rows):
        row_number = i + 2 if has_header else i + 1
        if col_idx >= len(row):
            raise DataFormatError(f"{path}: row {row_number} has only {len(row)} columns")
        try:
            values[i] = float(row[col_idx])
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_number}: cannot parse {row[col_idx]!r} as a number"
            ) from None
    return _file_series(path, values, sample_rate_hz, label)


def _all_numeric(cells) -> bool:
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return False
    return True


def load_f32_binary(path, sample_rate_hz: float = 1.0, label: str = LABEL_UNLABELED) -> TimeSeries:
    """Read a headerless stream of little-endian float32 samples."""
    path = Path(path)
    raw = read_input(path)
    if len(raw) == 0:
        raise DataFormatError(f"{path}: empty file")
    if len(raw) % 4 != 0:
        raise DataFormatError(f"{path}: size {len(raw)} is not a multiple of 4 bytes")
    values = np.frombuffer(raw, dtype="<f4").astype(np.float32)
    return _file_series(path, values, sample_rate_hz, label)


def _file_series(path: Path, values: np.ndarray, sample_rate_hz: float, label: str) -> TimeSeries:
    """The TimeSeries of a file's samples; a data error names the file."""
    try:
        return TimeSeries(values=values, sample_rate_hz=sample_rate_hz, label=label)
    except DataFormatError as err:
        raise DataFormatError(f"{path}: {err}") from None


def write_f32_binary(series: TimeSeries, path) -> None:
    write_atomic(path, series.values.astype("<f4").tobytes())


def read_input(path: Path) -> bytes:
    """All of an input file's bytes; an OSError becomes a UsageError naming the path."""
    try:
        return path.read_bytes()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror or err}") from err


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` (str as UTF-8) to a temp file beside ``path``, then
    ``os.replace`` it, so ``path`` holds either its old content or all of the
    new. An OSError becomes a UsageError naming the path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as err:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise UsageError(f"cannot write {path}: {err.strerror or err}") from err


def subsample(series: TimeSeries, length: int, stride: int | None = None, source: str = "") -> list[Subsample]:
    """Cut fixed-length windows at offsets 0, stride, 2*stride, ...

    The default stride equals the window length (non-overlapping tiling);
    a trailing partial window is discarded.
    """
    if stride is None:
        stride = length
    if length < 1 or stride < 1:
        raise UsageError(f"length and stride must be >= 1, got {length}, {stride}")
    n = len(series)
    if length > n:
        raise UsageError(f"subsample length {length} exceeds series length {n}")
    count = (n - length) // stride + 1
    return [
        Subsample(
            values=series.values[i * stride : i * stride + length],
            source_offset=i * stride,
            label=series.label,
            source=source,
        )
        for i in range(count)
    ]


def split_train_test(subsamples: list[Subsample], train_fraction: float, seed: int) -> tuple[list[Subsample], list[Subsample]]:
    """Seeded shuffle followed by an exact partition into train and test.

    Training is normal-only, so any non-normal label in the input is refused.
    """
    if not 0.0 < train_fraction < 1.0:
        raise UsageError(f"train_fraction must be in (0, 1), got {train_fraction}")
    bad = sorted({s.label for s in subsamples if not is_normal(s.label)})
    if bad:
        raise UsageError(f"training is normal-only; refusing labels {bad}")
    order = np.random.default_rng(seed).permutation(len(subsamples))
    n_train = int(np.floor(train_fraction * len(subsamples) + 0.5))
    train = [subsamples[i] for i in order[:n_train]]
    test = [subsamples[i] for i in order[n_train:]]
    return train, test


def synth(spec: SynthSpec) -> TimeSeries:
    """Deterministic bearing-like signal: carriers + noise + optional impulse train.

    The defect model repeats an exponentially decaying impulse at
    ``impulse_rate_hz`` with a decay constant of a quarter period; it is an
    engineering test oracle, not a physical bearing model.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.duration_samples
    t = np.arange(n, dtype=np.float64) / spec.sample_rate_hz
    signal = np.zeros(n, dtype=np.float64)
    for freq in spec.carrier_freqs_hz:
        signal += np.sin(2.0 * np.pi * freq * t)
    if spec.noise_std > 0:
        signal += rng.normal(0.0, spec.noise_std, n)

    if spec.impulse_rate_hz > 0:
        period = spec.sample_rate_hz / spec.impulse_rate_hz  # in samples
        tau = period / 4.0
        onsets = np.arange(0.0, n, period).astype(np.int64)
        deltas = np.zeros(n, dtype=np.float64)
        deltas[onsets] = spec.impulse_amplitude
        decay_len = min(n, int(np.ceil(8.0 * tau)) + 1)
        envelope = np.exp(-np.arange(decay_len, dtype=np.float64) / tau)
        signal += np.convolve(deltas, envelope)[:n]
        label = LABEL_FAULT
    else:
        label = LABEL_NORMAL

    return TimeSeries(values=signal.astype(np.float32), sample_rate_hz=spec.sample_rate_hz, label=label)
