"""Feature extractor: hand oracles, naive-reference agreement, scale laws."""

import dataclasses

import numpy as np
import pytest
from helpers import identity_standardizer, naive_features
from hypothesis import given, settings
from hypothesis import strategies as st

from faultgan.errors import UsageError
from faultgan.features import (
    FEATURE_NAMES,
    FeatureVector,
    Standardizer,
    extract_features,
    feature_matrix,
)
from faultgan.model import InputPipeline
from faultgan.signal_io import Subsample

DIMENSIONLESS = (
    "waveform_indicator",
    "pulse_indicator",
    "twist_index",
    "peak_indicator",
    "margin_indicator",
    "kurtosis_index",
    "skewness",
)
LINEAR_IN_SCALE = ("max", "min", "mean", "std", "peak_to_peak", "avg_amplitude", "rms", "sqrt_amplitude")


def test_field_order_matches_output_contract():
    # this order is the channel layout of every features-mode checkpoint's
    # standardizer and the column order of `faultgan features`
    assert FEATURE_NAMES == (
        "max", "min", "mean", "std", "peak_to_peak", "avg_amplitude", "rms", "skewness",
        "variance", "waveform_indicator", "pulse_indicator", "twist_index", "peak_indicator",
        "margin_indicator", "kurtosis_index", "sqrt_amplitude",
    )
    assert np.array(dataclasses.astuple(extract_features([1.0, 2.0]))).shape == (16,)


def test_hand_oracle_window():
    fv = extract_features([0.0, 3.0, -4.0, 0.0])
    assert fv.rms == pytest.approx(2.5)
    assert fv.peak_indicator == pytest.approx(4.0 / 2.5)
    assert fv.peak_to_peak == pytest.approx(7.0)
    assert fv.max == 3.0 and fv.min == -4.0
    assert fv.pulse_indicator == pytest.approx(4.0 / 1.75)


def test_constant_window_conventions():
    fv = extract_features([2.0, 2.0, 2.0])
    assert fv.max == fv.min == fv.mean == 2.0
    assert fv.std == 0.0 and fv.variance == 0.0 and fv.peak_to_peak == 0.0
    assert fv.avg_amplitude == 2.0 and fv.rms == pytest.approx(2.0)
    assert fv.skewness == 0.0 and fv.kurtosis_index == 0.0  # zero-sigma convention
    assert np.isfinite(np.array(dataclasses.astuple(fv))).all()


def test_alternating_window_symmetry():
    fv = extract_features([-1.0, 1.0, -1.0, 1.0])
    assert fv.mean == 0.0
    assert fv.rms == pytest.approx(1.0)
    assert fv.avg_amplitude == pytest.approx(1.0)
    assert fv.waveform_indicator == pytest.approx(1.0)
    assert fv.peak_indicator == pytest.approx(1.0)
    assert fv.skewness == pytest.approx(0.0, abs=1e-12)


def test_zero_window_all_ratios_zero():
    fv = extract_features([0.0, 0.0])
    for name in DIMENSIONLESS:
        assert getattr(fv, name) == 0.0


@pytest.mark.parametrize("seed", range(25))
def test_matches_naive_reference(seed):
    rng = np.random.default_rng(seed)
    window = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.1, 4.0), size=int(rng.integers(2, 200)))
    fv = extract_features(window)
    ref = naive_features(window)
    for name in FEATURE_NAMES:
        got, want = getattr(fv, name), ref[name]
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9), name


@pytest.mark.parametrize("scale", [0.5, 3.0])
@pytest.mark.parametrize("seed", range(10))
def test_scale_equivariance(scale, seed):
    rng = np.random.default_rng(seed)
    window = rng.normal(size=64)
    base = extract_features(window)
    scaled = extract_features(scale * window)
    for name in LINEAR_IN_SCALE:
        assert getattr(scaled, name) == pytest.approx(scale * getattr(base, name), rel=1e-6, abs=1e-9), name
    assert scaled.variance == pytest.approx(scale**2 * base.variance, rel=1e-6)
    for name in DIMENSIONLESS:
        assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-6, abs=1e-9), name


def test_pulse_geq_peak_geq_one_for_nonzero_signal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        fv = extract_features(rng.normal(size=32))
        assert fv.pulse_indicator >= fv.peak_indicator >= 1.0
        assert fv.rms >= fv.avg_amplitude >= 0.0
        assert fv.peak_to_peak == pytest.approx(fv.max - fv.min)


def test_window_too_short_raises():
    with pytest.raises(UsageError):
        extract_features([1.0])
    with pytest.raises(UsageError):
        extract_features([1.0, np.inf])


# -- feature_matrix and the features-mode input pipeline ------------------------


def test_feature_matrix_window_count():
    values = np.random.default_rng(0).normal(size=12000)
    mat = feature_matrix(values, window_len=250, n_windows=48)  # 12000 // 250 == 48
    assert mat.shape == (16, 48)
    assert np.isfinite(mat).all()


def test_feature_matrix_insufficient_samples():
    with pytest.raises(UsageError):
        feature_matrix(np.zeros(100), window_len=30, n_windows=4)


@st.composite
def _subsamples(draw):
    """A float32 subsample of n_windows whole windows plus a partial remainder:
    criterion 3's random windows, with hypothesis-placed spikes and some
    constant and all-zero windows."""
    window_len = draw(st.integers(2, 300))
    n_windows = draw(st.integers(1, 60))
    remainder = draw(st.integers(0, window_len - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.1, 4.0),
                        size=window_len * n_windows + remainder).astype(np.float32)
    for index, value in draw(st.lists(st.tuples(st.integers(0, values.size - 1),
                                                st.floats(-1e4, 1e4, width=32)), max_size=5)):
        values[index] = value
    window = st.integers(0, n_windows - 1)
    for w, level in draw(st.lists(st.tuples(window, st.floats(-1e3, 1e3, width=32)), max_size=3)):
        values[w * window_len : (w + 1) * window_len] = level
    for w in draw(st.lists(window, max_size=3)):
        values[w * window_len : (w + 1) * window_len] = 0.0
    return values, window_len, n_windows


@settings(max_examples=40, deadline=None)
@given(_subsamples())
def test_feature_matrix_matches_naive_reference_per_window(case):
    values, window_len, n_windows = case
    mat = feature_matrix(values, window_len, n_windows)
    assert mat.shape == (16, n_windows)
    for w in range(n_windows):
        ref = naive_features(values[w * window_len : (w + 1) * window_len])
        for i, name in enumerate(FEATURE_NAMES):
            got, want = mat[i, w], ref[name]
            err = abs(got - want) / max(1e-9, abs(want)) if want != 0 else abs(got)
            assert err <= 1e-6, f"window {w} {name}: {got} vs {want}"


@settings(max_examples=60, deadline=None)
@given(_subsamples(), st.data())
def test_feature_matrix_non_finite_only_matters_inside_windows(case, data):
    values, window_len, n_windows = case
    used = window_len * n_windows
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    inside = values.copy()
    inside[data.draw(st.integers(0, used - 1))] = bad
    with pytest.raises(UsageError, match="feature window contains non-finite values"):
        feature_matrix(inside, window_len, n_windows)
    if values.size > used:
        outside = values.copy()
        outside[data.draw(st.integers(used, values.size - 1))] = bad
        np.testing.assert_array_equal(feature_matrix(outside, window_len, n_windows),
                                      feature_matrix(values, window_len, n_windows))


def _features_pipeline(window_len, n_windows, standardizer=None) -> InputPipeline:
    return InputPipeline(
        mode="features", subsample_len=window_len * n_windows, window_len=window_len, n_down=0,
        standardizer=standardizer or identity_standardizer(len(FEATURE_NAMES)),
    )


def test_feature_sequence_single_window_equals_extract():
    rng = np.random.default_rng(2)
    sub = Subsample(values=rng.normal(size=50).astype(np.float32), source_offset=0)
    expected = np.array(dataclasses.astuple(extract_features(sub.values)))
    np.testing.assert_array_equal(feature_matrix(sub.values, window_len=50, n_windows=1)[:, 0], expected)
    seq = _features_pipeline(50, 1).prepare(sub.values)
    assert seq.shape == (16, 1) and seq.dtype == np.float32
    np.testing.assert_allclose(seq[:, 0], expected.astype(np.float32), rtol=1e-5)


def test_feature_sequence_constant_subsample_has_constant_windows():
    sub = Subsample(values=np.full(40, 3.0, dtype=np.float32), source_offset=0)
    seq = _features_pipeline(10, 4).prepare(sub.values)
    assert np.ptp(seq, axis=1).max() == 0.0  # identical along the sequence axis
    assert np.isfinite(seq).all()


def test_feature_sequence_standardized_no_nan():
    rng = np.random.default_rng(4)
    subs = [Subsample(values=rng.normal(size=60).astype(np.float32), source_offset=0) for _ in range(5)]
    mats = np.concatenate([feature_matrix(s.values, 20, 3) for s in subs], axis=1)
    pipe = _features_pipeline(20, 3, Standardizer.fit(mats))
    for s in subs:
        assert np.isfinite(pipe.prepare(s.values)).all()


def test_standardizer_handles_zero_spread_channels():
    rows = np.zeros((3, 10))
    rows[1] = 5.0
    std = Standardizer.fit(rows)
    out = std.transform(rows)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, np.zeros_like(rows))
    np.testing.assert_allclose(std.inverse(out), rows)
