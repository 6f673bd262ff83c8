"""Sixteen time-domain statistical descriptors per signal window, and the
windowing that turns a subsample into a fixed-length multichannel feature
sequence for the network.

All moments are population moments (no sample-size correction). Every ratio
with a zero denominator is defined as 0 so constant windows stay valid.
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


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0.0 else 0.0


def extract_features(window) -> FeatureVector:
    """Compute the 16 descriptors of a window of at least 2 finite samples."""
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise UsageError(f"feature window needs >= 2 samples, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise UsageError("feature window contains non-finite values")

    mean = float(x.mean())
    centered = x - mean
    variance = float(np.mean(centered**2))
    std = float(np.sqrt(variance))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    abs_x = np.abs(x)
    peak = float(abs_x.max())
    avg_amplitude = float(abs_x.mean())
    rms = float(np.sqrt(np.mean(x**2)))
    sqrt_amplitude = float(np.mean(np.sqrt(abs_x)) ** 2)

    return FeatureVector(
        max=float(x.max()),
        min=float(x.min()),
        mean=mean,
        std=std,
        peak_to_peak=float(x.max() - x.min()),
        avg_amplitude=avg_amplitude,
        rms=rms,
        skewness=_ratio(m3, std**3),
        variance=variance,
        waveform_indicator=_ratio(rms, avg_amplitude),
        pulse_indicator=_ratio(peak, avg_amplitude),
        twist_index=_ratio(m3, rms**3),
        peak_indicator=_ratio(peak, rms),
        margin_indicator=_ratio(peak, sqrt_amplitude),
        kurtosis_index=_ratio(m4, variance**2),
        sqrt_amplitude=sqrt_amplitude,
    )


def feature_matrix(values, window_len: int, n_windows: int) -> np.ndarray:
    """Split a subsample into consecutive windows and stack one FeatureVector
    per window as a [16, n_windows] array (unstandardized)."""
    x = np.asarray(values, dtype=np.float64)
    if window_len < 2 or n_windows < 1:
        raise UsageError(f"need window_len >= 2 and n_windows >= 1, got {window_len}, {n_windows}")
    if window_len * n_windows > x.size:
        raise UsageError(
            f"{n_windows} windows of {window_len} samples need {window_len * n_windows}, "
            f"subsample has {x.size}"
        )
    out = np.empty((len(FEATURE_NAMES), n_windows), dtype=np.float64)
    for w in range(n_windows):
        fv = extract_features(x[w * window_len : (w + 1) * window_len])
        out[:, w] = fv.as_array()
    return out


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

