"""Loaders, windowing, splitting, and the synthetic signal generator."""

import numpy as np
import pytest

from faultgan import signal_io
from faultgan.errors import ConfigError, DataFormatError, UsageError
from faultgan.signal_io import (
    LABEL_NORMAL,
    SynthSpec,
    TimeSeries,
    fault_label,
    is_fault,
    is_normal,
    load_csv,
    load_f32_binary,
    split_train_test,
    subsample,
    synth,
    write_atomic,
    write_f32_binary,
)


# -- labels --------------------------------------------------------------------


def test_label_helpers():
    assert is_normal("normal") and not is_fault("normal")
    assert is_fault("fault") and is_fault("fault:inner")
    assert fault_label("outer") == "fault:outer"
    assert not is_normal("unlabeled") and not is_fault("unlabeled")


def test_timeseries_validation():
    with pytest.raises(UsageError):
        TimeSeries(values=np.array([]))
    with pytest.raises(DataFormatError):
        TimeSeries(values=np.array([1.0, np.nan]))
    with pytest.raises(UsageError):
        TimeSeries(values=np.array([1.0]), sample_rate_hz=0.0)


# -- CSV -----------------------------------------------------------------------


def test_load_csv_with_header_by_name(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("t,de_accel\n0,1.0\n1,2.0\n2,3.0\n")
    ts = load_csv(path, column="de_accel")
    np.testing.assert_array_equal(ts.values, [1.0, 2.0, 3.0])


def test_load_csv_without_header_by_index(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("0,1.5\n1,2.5\n")
    ts = load_csv(path, column=1)
    np.testing.assert_array_equal(ts.values, [1.5, 2.5])


def test_load_csv_missing_column_is_config_error(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        load_csv(path, column="nope")
    with pytest.raises(ConfigError):
        load_csv(path, column=7)


def test_load_csv_bad_cell_reports_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("v\n1.0\nouch\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_csv(path, column="v")


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(path)


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("v\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(path, column="v")


# -- float32 binary --------------------------------------------------------------


def test_f32_roundtrip_exact(tmp_path):
    path = tmp_path / "x.f32"
    rng = np.random.default_rng(0)
    ts = TimeSeries(values=rng.normal(size=101), sample_rate_hz=100.0)
    write_f32_binary(ts, path)
    back = load_f32_binary(path, sample_rate_hz=100.0)
    np.testing.assert_array_equal(back.values, ts.values)


def test_f32_known_bytes(tmp_path):
    path = tmp_path / "y.f32"
    path.write_bytes(np.array([1.0, 2.0, 3.0], dtype="<f4").tobytes())
    np.testing.assert_array_equal(load_f32_binary(path).values, [1.0, 2.0, 3.0])


def test_f32_empty_file(tmp_path):
    path = tmp_path / "z.f32"
    path.write_bytes(b"")
    with pytest.raises(DataFormatError, match="empty"):
        load_f32_binary(path)


def test_f32_bad_length(tmp_path):
    path = tmp_path / "w.f32"
    path.write_bytes(b"\x00" * 5)
    with pytest.raises(DataFormatError, match="multiple of 4"):
        load_f32_binary(path)


# -- atomic writes ----------------------------------------------------------------


def test_write_atomic_replaces_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    write_atomic(path, "old\n")
    write_atomic(path, b"new bytes")
    assert path.read_bytes() == b"new bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_atomic_missing_directory_is_usage_error(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(UsageError, match="missing"):
        write_atomic(path, "x")
    assert not path.parent.exists()


def test_write_atomic_failure_keeps_old_content(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old")

    def failing_replace(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(signal_io.os, "replace", failing_replace)
    with pytest.raises(UsageError, match="out.csv"):
        write_atomic(path, "new")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# -- subsampling ------------------------------------------------------------------


def test_subsample_offsets_enumeration():
    ts = TimeSeries(values=np.arange(10, dtype=np.float32), label=LABEL_NORMAL)
    subs = subsample(ts, length=4, stride=2)
    assert [s.source_offset for s in subs] == [0, 2, 4, 6]
    assert all(len(s) == 4 for s in subs)
    assert all(s.label == LABEL_NORMAL for s in subs)
    np.testing.assert_array_equal(subs[1].values, [2, 3, 4, 5])


def test_subsample_full_length_single_window():
    ts = TimeSeries(values=np.arange(8, dtype=np.float32))
    assert len(subsample(ts, length=8, stride=3)) == 1


def test_subsample_default_stride_tiles():
    ts = TimeSeries(values=np.arange(12, dtype=np.float32))
    subs = subsample(ts, length=4)
    rebuilt = np.concatenate([s.values for s in subs])
    np.testing.assert_array_equal(rebuilt, ts.values)


def test_subsample_prefix_reconstruction_property():
    rng = np.random.default_rng(5)
    ts = TimeSeries(values=rng.normal(size=103).astype(np.float32))
    subs = subsample(ts, length=10)
    rebuilt = np.concatenate([s.values for s in subs])
    np.testing.assert_array_equal(rebuilt, ts.values[: len(rebuilt)])


def test_subsample_too_long_raises():
    ts = TimeSeries(values=np.arange(4, dtype=np.float32))
    with pytest.raises(UsageError):
        subsample(ts, length=5)


# -- train/test split ----------------------------------------------------------------


def _normal_subs(n):
    ts = TimeSeries(values=np.arange(4 * n, dtype=np.float32), label=LABEL_NORMAL)
    return subsample(ts, length=4)


def test_split_80_20():
    train, test = split_train_test(_normal_subs(10), 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2


def test_split_deterministic():
    subs = _normal_subs(12)
    a = split_train_test(subs, 0.75, seed=9)
    b = split_train_test(subs, 0.75, seed=9)
    assert [s.source_offset for s in a[0]] == [s.source_offset for s in b[0]]
    assert [s.source_offset for s in a[1]] == [s.source_offset for s in b[1]]


def test_split_half_of_two():
    train, test = split_train_test(_normal_subs(2), 0.5, seed=1)
    assert len(train) == 1 and len(test) == 1


def test_split_is_exact_partition():
    subs = _normal_subs(13)
    train, test = split_train_test(subs, 0.6, seed=3)
    got = sorted(s.source_offset for s in train + test)
    assert got == [s.source_offset for s in subs]


def test_split_refuses_fault_labels():
    subs = _normal_subs(4)
    subs[2].label = fault_label("inner")
    with pytest.raises(UsageError, match="normal-only"):
        split_train_test(subs, 0.8, seed=0)


def test_split_rejects_bad_fraction():
    with pytest.raises(UsageError):
        split_train_test(_normal_subs(4), 1.0, seed=0)


# -- synthesis ------------------------------------------------------------------------


def test_synth_pure_sinusoid():
    spec = SynthSpec(duration_samples=2000, sample_rate_hz=1000.0, carrier_freqs_hz=(10.0,),
                     noise_std=0.0, impulse_rate_hz=0.0, seed=0)
    ts = synth(spec)
    assert ts.label == LABEL_NORMAL
    assert ts.values.max() == pytest.approx(1.0, abs=0.01)
    assert ts.values.min() == pytest.approx(-1.0, abs=0.01)


def test_synth_deterministic():
    spec = SynthSpec(duration_samples=512, seed=33, impulse_rate_hz=25.0)
    a, b = synth(spec), synth(spec)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.label == b.label == "fault"


def test_synth_fault_differs_only_by_impulse_train():
    base = dict(duration_samples=1024, sample_rate_hz=2048.0, carrier_freqs_hz=(50.0,),
                noise_std=0.1, seed=7)
    normal = synth(SynthSpec(impulse_rate_hz=0.0, **base))
    fault = synth(SynthSpec(impulse_rate_hz=30.0, impulse_amplitude=1.0, **base))
    assert normal.label == LABEL_NORMAL and fault.label == "fault"
    diff = fault.values.astype(np.float64) - normal.values
    assert (diff >= -1e-6).all()  # impulses only add energy
    assert diff.max() > 0.5


def test_synth_label_follows_impulse_rate():
    assert synth(SynthSpec(duration_samples=64, impulse_rate_hz=0.0)).label == LABEL_NORMAL
    assert is_fault(synth(SynthSpec(duration_samples=64, impulse_rate_hz=10.0, sample_rate_hz=64.0)).label)


def test_synth_rejects_bad_spec():
    with pytest.raises(UsageError):
        synth(SynthSpec(duration_samples=0))
    with pytest.raises(UsageError):
        synth(SynthSpec(duration_samples=10, noise_std=-1.0))
