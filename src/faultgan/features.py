"""Sixteen time-domain statistical descriptors per signal window, and the
windowing that turns a subsample into a fixed-length multichannel feature
sequence for the network.

All moments are population moments (no sample-size correction). Every ratio
with a zero denominator is defined as 0 so constant windows stay valid.
`window_features` is the one implementation of the descriptors: it computes
them for a whole [n_windows, window_len] block of windows in one vectorized
pass, so a subsample costs one call, and a single window is the n = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import UsageError

FEATURE_NAMES = (
    "max",
    "min",
    "mean",
    "std",
    "peak_to_peak",
    "avg_amplitude",
    "rms",
    "skewness",
    "variance",
    "waveform_indicator",
    "pulse_indicator",
    "twist_index",
    "peak_indicator",
    "margin_indicator",
    "kurtosis_index",
    "sqrt_amplitude",
)


@dataclass
class FeatureVector:
    """The 16 descriptors of one window, in the canonical output order."""

    max: float
    min: float
    mean: float
    std: float
    peak_to_peak: float
    avg_amplitude: float
    rms: float
    skewness: float
    variance: float
    waveform_indicator: float
    pulse_indicator: float
    twist_index: float
    peak_indicator: float
    margin_indicator: float
    kurtosis_index: float
    sqrt_amplitude: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=np.float64)


def extract_features(window) -> FeatureVector:
    """Compute the 16 descriptors of a window of at least 2 finite samples."""
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1:
        raise UsageError(f"feature window needs >= 2 samples, got shape {x.shape}")
    return FeatureVector(*window_features(x[None, :])[:, 0].tolist())


def feature_matrix(values, window_len: int, n_windows: int) -> np.ndarray:
    """Split a subsample into consecutive windows and return their
    descriptors as a [16, n_windows] array (unstandardized). Samples past
    the last whole window are ignored."""
    x = np.asarray(values, dtype=np.float64)
    if window_len < 2 or n_windows < 1:
        raise UsageError(f"need window_len >= 2 and n_windows >= 1, got {window_len}, {n_windows}")
    if window_len * n_windows > x.size:
        raise UsageError(
            f"{n_windows} windows of {window_len} samples need {window_len * n_windows}, "
            f"subsample has {x.size}"
        )
    return window_features(x[: window_len * n_windows].reshape(n_windows, window_len))


def window_features(windows) -> np.ndarray:
    """The 16 descriptors of each row of a [n, window_len] array of windows,
    as a [16, n] array in FEATURE_NAMES order (unstandardized).

    Reductions run along axis 1. Powers are written as products: ``**3``
    and ``**4`` would go through libm ``pow``, which is several times slower.
    """
    block = np.asarray(windows, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] < 2:
        raise UsageError(f"feature window needs >= 2 samples, got shape {block.shape[1:]}")
    if not np.isfinite(block).all():
        raise UsageError("feature window contains non-finite values")

    mean = block.mean(axis=1)
    centered = block - mean[:, None]
    c2 = centered * centered
    variance = c2.mean(axis=1)
    std = np.sqrt(variance)
    m3 = (c2 * centered).mean(axis=1)
    m4 = (c2 * c2).mean(axis=1)
    abs_x = np.abs(block)
    peak = abs_x.max(axis=1)
    avg_amplitude = abs_x.mean(axis=1)
    rms = np.sqrt((block * block).mean(axis=1))
    root_amplitude = np.sqrt(abs_x).mean(axis=1)
    sqrt_amplitude = root_amplitude * root_amplitude
    high = block.max(axis=1)
    low = block.min(axis=1)

    return np.stack([
        high,
        low,
        mean,
        std,
        high - low,
        avg_amplitude,
        rms,
        _ratio(m3, std * std * std),  # skewness
        variance,
        _ratio(rms, avg_amplitude),  # waveform indicator
        _ratio(peak, avg_amplitude),  # pulse indicator
        _ratio(m3, rms * rms * rms),  # twist index
        _ratio(peak, rms),  # peak indicator
        _ratio(peak, sqrt_amplitude),  # margin indicator
        _ratio(m4, variance * variance),  # kurtosis index
        sqrt_amplitude,
    ])


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is 0; masked before dividing, so
    a zero denominator raises no RuntimeWarning."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


@dataclass
class Standardizer:
    """Per-channel affine map ((v - mean) / std) with train-set statistics.

    Channels with zero spread divide by 1 so constant features map to 0.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, channel_rows: np.ndarray) -> "Standardizer":
        """Fit on a [C, N] array of all training values per channel."""
        mean = channel_rows.mean(axis=1)
        std = channel_rows.std(axis=1)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean.astype(np.float32), std=std.astype(np.float32))

    def transform(self, channel_rows: np.ndarray) -> np.ndarray:
        return (channel_rows - self.mean[:, None]) / self.std[:, None]

    def inverse(self, channel_rows: np.ndarray) -> np.ndarray:
        return channel_rows * self.std[:, None] + self.mean[:, None]

