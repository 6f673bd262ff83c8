"""Training loop contracts: normal-only gate, update scoping, determinism,
NaN abort, and the checkpoint wire format."""

import gc
import hashlib
import math
import re
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import HEADER_FIELDS, count_calls, field_offset, with_field
from hypothesis import given, settings
from hypothesis import strategies as st

from faultgan import model, trainer
from faultgan.errors import DataFormatError, NumericalError, UsageError
from faultgan.evaluator import score_dataset
from faultgan.features import Standardizer
from faultgan.model import InputPipeline, LossWeights, build_model, fit_pipeline
from faultgan.signal_io import SynthSpec, Subsample, fault_label, subsample, synth, write_atomic
from faultgan.trainer import (
    CHECKPOINT_ALIGN,
    CHECKPOINT_MAGIC,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    serialize_state,
    train,
)


def _normal_subs(n=24, length=64, seed0=0):
    subs = []
    for i in range(n):
        ts = synth(SynthSpec(duration_samples=length, sample_rate_hz=2048.0,
                             carrier_freqs_hz=(64.0,), noise_std=0.1, seed=seed0 + i))
        subs += subsample(ts, length, source=f"n{i}")
    return subs


def _all_params(state):
    return state.generator.params() + state.discriminator.params()


def _tiny_config(**kw):
    base = dict(epochs=2, batch_size=8, latent_dim=4, subsample_len=64,
                base_channels=4, n_down=3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_rejects_fault_labels_before_any_update():
    subs = _normal_subs(10)
    subs[3].label = fault_label("ball")
    with pytest.raises(UsageError, match="normal-only"):
        train(_tiny_config(), subs)


def test_rejects_empty_and_undersized_sets():
    with pytest.raises(UsageError, match="empty"):
        train(_tiny_config(), [])
    with pytest.raises(UsageError, match="batch"):
        train(_tiny_config(batch_size=64), _normal_subs(10))


def test_rejects_wrong_subsample_length():
    subs = _normal_subs(10, length=64)
    subs.append(Subsample(values=np.zeros(32, dtype=np.float32), source_offset=0, label="normal"))
    with pytest.raises(UsageError, match="does not match"):
        train(_tiny_config(), subs)


def test_wrong_subsample_length_fails_before_any_parameter_exists(monkeypatch):
    builds = count_calls(monkeypatch, trainer, "build_model")
    subs = _normal_subs(10, length=64)
    subs.insert(3, Subsample(values=np.zeros(32, dtype=np.float32), source_offset=0, label="normal"))
    with pytest.raises(UsageError, match="subsample of 32 samples does not match configured length 64"):
        train(_tiny_config(), subs)
    assert builds == []


def test_epoch_record_per_epoch_and_losses_finite():
    config = _tiny_config(epochs=20)
    state, report = train(config, _normal_subs(16))
    assert len(report.epochs) == 20
    assert [r.epoch for r in report.epochs] == list(range(1, 21))
    for row in report.epochs:
        for v in (row.l_total, row.l_fraud, row.l_apparent, row.l_latent, row.l_disc):
            assert np.isfinite(v)


def test_reconstruction_improves_over_training():
    config = _tiny_config(epochs=12, seed=3)
    state, report = train(config, _normal_subs(24))
    assert report.epochs[-1].l_apparent < report.epochs[0].l_apparent
    # same architecture, independently trained values
    assert [p.shape for p in state.generator.encoder1.params()] == [
        p.shape for p in state.generator.encoder2.params()
    ]
    k1 = state.generator.encoder1.head.kernel.data
    k2 = state.generator.encoder2.head.kernel.data
    assert not np.array_equal(k1, k2)


def test_training_is_deterministic():
    subs = _normal_subs(16)
    _, r1 = train(_tiny_config(), subs)
    _, r2 = train(_tiny_config(), subs)
    assert r1.checkpoint_digest == r2.checkpoint_digest
    loss_fields = lambda r: [(e.l_total, e.l_fraud, e.l_apparent, e.l_latent, e.l_disc) for e in r.epochs]
    assert loss_fields(r1) == loss_fields(r2)


def test_update_scoping_is_bit_exact():
    # one manual batch: the generator step must leave the discriminator
    # parameters untouched byte for byte, and vice versa
    from faultgan.model import (
        apparent_loss, feature_matching_loss, fit_pipeline, build_model,
        fraud_loss, generator_forward, generator_loss, latent_loss,
    )
    from faultgan.ndtensor import Tensor, adam_step, init_adam

    subs = _normal_subs(8)
    pipe = fit_pipeline(subs, "raw", 64, 0, 3)
    state = build_model(pipe, 4, 4, 3, seed=0)
    gen_params = state.generator.params()
    disc_params = state.discriminator.params()
    gen_opt = init_adam(gen_params, 1e-3, 0.5, 0.999)
    disc_opt = init_adam(disc_params, 1e-3, 0.5, 0.999)
    x = Tensor(pipe.prepare_batch(subs))

    disc_bytes = [p.data.tobytes() for p in disc_params]
    for p in disc_params:
        p.requires_grad = False
    x_hat, z, z_hat = generator_forward(state.generator, x, train=True)
    l = generator_loss(LossWeights(), fraud_loss(state.discriminator, x_hat, train=True),
                       apparent_loss(x, x_hat), latent_loss(z, z_hat))
    l.backward()
    adam_step(gen_params, [p.grad for p in gen_params], gen_opt)
    for p in disc_params:
        p.requires_grad = True
    assert [p.data.tobytes() for p in disc_params] == disc_bytes

    gen_bytes = [p.data.tobytes() for p in gen_params]
    l_d = feature_matching_loss(state.discriminator, x, x_hat.detach(), train=True)
    l_d.backward()
    adam_step(disc_params, [p.grad for p in disc_params], disc_opt)
    assert [p.data.tobytes() for p in gen_params] == gen_bytes
    assert [p.data.tobytes() for p in disc_params] != disc_bytes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_abort_names_epoch_and_batch():
    # an absurd learning rate sends parameters to inf and the loss to NaN
    config = _tiny_config(epochs=3, lr=1e30)
    with pytest.raises(NumericalError, match=r"epoch \d+ batch \d+"):
        train(config, _normal_subs(16))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failing", ["all losses", "l_d only"])
def test_nan_abort_leaves_last_finite_parameters(monkeypatch, failing):
    from faultgan import trainer

    seen = {}
    real_build, real_forward, real_fm = trainer.build_model, trainer.generator_forward, trainer.feature_matching_loss

    def build_model(*args, **kwargs):
        seen["state"] = real_build(*args, **kwargs)
        return seen["state"]

    def generator_forward(g, x, train=False):
        # a batch starts here, before any of its updates
        seen["before"] = [p.data.copy() for p in _all_params(seen["state"])]
        seen["batches"] = seen.get("batches", 0) + 1
        return real_forward(g, x, train)

    def feature_matching_loss(*args, **kwargs):
        loss = real_fm(*args, **kwargs)
        return loss * float("nan") if seen["batches"] == 2 else loss

    monkeypatch.setattr(trainer, "build_model", build_model)
    monkeypatch.setattr(trainer, "generator_forward", generator_forward)
    if failing == "l_d only":
        monkeypatch.setattr(trainer, "feature_matching_loss", feature_matching_loss)
        config = _tiny_config(epochs=3)
    else:
        config = _tiny_config(epochs=3, lr=1e30)  # parameters blow up, then every loss
    with pytest.raises(NumericalError, match=r"epoch \d+ batch \d+"):
        train(config, _normal_subs(16))
    params = _all_params(seen["state"])
    assert len(params) == len(seen["before"])
    for p, before in zip(params, seen["before"]):
        assert np.isfinite(p.data).all()
        np.testing.assert_array_equal(p.data, before)


def test_loss_finite_across_seeds():
    for seed in range(5):
        _, report = train(_tiny_config(epochs=2, seed=seed), _normal_subs(16, seed0=seed * 100))
        for row in report.epochs:
            assert np.isfinite([row.l_total, row.l_fraud, row.l_apparent, row.l_latent, row.l_disc]).all()


# -- checkpoints -----------------------------------------------------------------


@pytest.fixture(scope="module")
def load_blob(tmp_path_factory):
    """Loads a checkpoint blob the way the CLI does, from a file. The file is
    module-scoped, so @given tests can use it, and replaced, never rewritten
    in place, because a model loaded from it earlier may still map it."""
    path = tmp_path_factory.mktemp("checkpoint") / "model.ckpt"

    def load(blob: bytes):
        write_atomic(path, blob)
        return load_checkpoint(path)

    return load


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    state, _ = train(_tiny_config(), _normal_subs(16))
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert serialize_state(loaded) == serialize_state(state)
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_roundtrip_preserves_scores(tmp_path):
    subs = _normal_subs(16)
    state, _ = train(_tiny_config(), subs)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    before = [(s.score, s.l_apparent, s.l_latent) for s in score_dataset(state, subs)]
    after = [(s.score, s.l_apparent, s.l_latent) for s in score_dataset(loaded, subs)]
    assert before == after


def test_checkpoint_written_alongside_report(tmp_path):
    path = tmp_path / "model.ckpt"
    state, report = train(_tiny_config(checkpoint_path=path), _normal_subs(16))
    assert path.exists()
    report_csv = tmp_path / "model.ckpt.train.csv"
    lines = report_csv.read_text().splitlines()
    assert lines[0] == "epoch,l_total,l_f,l_a,l_l,l_d,seconds"
    assert len(lines) == 1 + len(report.epochs)
    import hashlib

    assert hashlib.sha256(path.read_bytes()).hexdigest() == report.checkpoint_digest


def test_checkpoint_bad_magic(tmp_path):
    state, _ = train(_tiny_config(), _normal_subs(16))
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unsupported_version(load_blob):
    state, _ = train(_tiny_config(), _normal_subs(16))
    blob = bytearray(serialize_state(state))
    # version 1 also stored the discriminator and header fields v2 derives; v2 did not align its arrays
    for version in (1, 2, 99):
        blob[4:6] = version.to_bytes(2, "little")
        with pytest.raises(DataFormatError, match=f"unsupported version {version} "):
            load_blob(bytes(blob))
    assert blob[:4] == CHECKPOINT_MAGIC


def test_checkpoint_truncated(load_blob):
    state, _ = train(_tiny_config(), _normal_subs(16))
    blob = serialize_state(state)
    with pytest.raises(DataFormatError, match="truncated"):
        load_blob(blob[: len(blob) // 2])


def test_optimizer_state_not_persisted():
    # the wire format holds only model arrays; a fresh load scores identically
    # but training resumption restarts Adam moments by design
    state, _ = train(_tiny_config(), _normal_subs(16))
    blob = serialize_state(state)
    n_param_bytes = sum(4 * a.size for a in state.generator.arrays())
    assert len(blob) < n_param_bytes + 4096  # header only, no moment buffers


def test_checkpoint_holds_only_the_generator(load_blob):
    state, _ = train(_tiny_config(), _normal_subs(16))
    blob = serialize_state(state)
    header = len(CHECKPOINT_MAGIC) + 2 + 1 + 5 * 4
    stats = 2 * 4 * state.generator.arch.input_channels
    size = header + stats
    for a in state.generator.arrays():
        size += 1 + 4 * a.ndim
        size += -size % CHECKPOINT_ALIGN + 4 * a.size  # zero padding, then the data
    assert len(blob) == size
    loaded = load_blob(blob)
    assert loaded.discriminator is None
    assert [a.tobytes() for a in loaded.generator.arrays()] == [a.tobytes() for a in state.generator.arrays()]


def test_config_validation():
    with pytest.raises(UsageError):
        TrainConfig(epochs=0)
    with pytest.raises(UsageError):
        TrainConfig(batch_size=0)
    with pytest.raises(UsageError):
        TrainConfig(lr=-0.1)


def test_features_mode_end_to_end(tmp_path):
    # the 16-channel feature-sequence path trains, checkpoints, and scores
    subs = _normal_subs(16, length=320)
    config = _tiny_config(
        epochs=3, subsample_len=320, pipeline_mode="features",
        feature_window_len=10, checkpoint_path=tmp_path / "feat.ckpt",
    )
    state, report = train(config, subs)
    assert state.pipeline.mode == "features"
    assert state.pipeline.n_windows == 32
    assert state.generator.arch.input_channels == 16
    assert all(np.isfinite(r.l_total) for r in report.epochs)

    loaded = load_checkpoint(tmp_path / "feat.ckpt")
    assert loaded.pipeline.mode == "features"
    probe = _normal_subs(4, length=320, seed0=900)
    before = [(s.score, s.l_apparent, s.l_latent) for s in score_dataset(state, probe)]
    after = [(s.score, s.l_apparent, s.l_latent) for s in score_dataset(loaded, probe)]
    assert before == after


def test_features_training_extracts_each_window_once(monkeypatch):
    calls = count_calls(monkeypatch, model, "feature_matrix")
    subs = _normal_subs(8, length=320)
    train(_tiny_config(epochs=1, subsample_len=320, pipeline_mode="features", feature_window_len=10), subs)
    assert len(calls) == len(subs)
    assert sorted(id(args[0]) for args in calls) == sorted(id(s.values) for s in subs)


def test_optimizer_state_is_freed_before_the_checkpoint_is_serialized(monkeypatch):
    optimizers, at_serialize = [], []
    init_adam, serialize = trainer.init_adam, trainer.serialize_state

    def tracked_init_adam(*args, **kwargs):
        opt = init_adam(*args, **kwargs)
        optimizers.append(weakref.ref(opt))
        return opt

    def checked_serialize(state):
        at_serialize.append([r() for r in optimizers])
        return serialize(state)

    monkeypatch.setattr(trainer, "init_adam", tracked_init_adam)
    monkeypatch.setattr(trainer, "serialize_state", checked_serialize)
    train(_tiny_config(), _normal_subs(16))
    assert at_serialize == [[None]]  # the one optimizer over both networks, its moment buffers gone


def test_missing_checkpoint_directory_fails_before_training(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "generator_forward", lambda *a, **k: calls.append(a))
    path = tmp_path / "missing" / "model.ckpt"
    with pytest.raises(UsageError, match="missing"):
        train(_tiny_config(checkpoint_path=path), _normal_subs(16))
    assert calls == []
    assert not (tmp_path / "missing").exists()


def test_load_missing_checkpoint_is_usage_error(tmp_path):
    with pytest.raises(UsageError, match="nothing.ckpt"):
        load_checkpoint(tmp_path / "nothing.ckpt")
    with pytest.raises(UsageError, match="cannot read"):
        load_checkpoint(tmp_path)  # a directory
    (tmp_path / "dir.ckpt").mkdir()
    for path in (tmp_path / "dir.ckpt", tmp_path / "missing" / "model.ckpt"):
        with pytest.raises(UsageError, match=f"cannot read checkpoint {re.escape(str(path))}"):
            load_checkpoint(path)


def test_load_checkpoint_checks_file_length(tmp_path, small_blobs):
    # load_checkpoint maps the file itself, so its length checks are the
    # file's, not those of a blob in memory; an empty file cannot be mapped
    path = tmp_path / "model.ckpt"
    for blob, match in (
        (small_blobs[0][:-1], "truncated"),
        (small_blobs[0] + b"\0", "1 trailing bytes"),
        (b"", "truncated"),
        (small_blobs[0][:3], "truncated"),
    ):
        path.write_bytes(blob)
        with pytest.raises(DataFormatError, match=match):
            load_checkpoint(path)
    path.write_bytes(small_blobs[0])
    assert serialize_state(load_checkpoint(path)) == small_blobs[0]


# -- corrupt checkpoint headers -----------------------------------------------------


@pytest.fixture(scope="module")
def small_blobs():
    """A raw-mode and a features-mode checkpoint of a tiny untrained model."""
    raw = fit_pipeline(_normal_subs(4), "raw", 64, 0, 3)
    feat = fit_pipeline(_normal_subs(4, length=320), "features", 320, 10, 3)
    return [serialize_state(build_model(p, 4, 4, 3, seed=0)) for p in (raw, feat)]


@pytest.mark.parametrize("name,value", [
    ("n_down", 0),
    ("latent_dim", 2**30),
    ("base_channels", 2**30),
    ("subsample_len", 0),
    ("n_down", 2**32 - 1),
    ("mode", 7),
    ("window_len", 3),
])
def test_corrupt_header_field_is_format_error(small_blobs, load_blob, name, value):
    with pytest.raises(DataFormatError):
        load_blob(with_field(small_blobs[0], name, value))


@pytest.mark.parametrize("name,value", [
    ("latent_dim", 2**30), ("base_channels", 2**30), ("subsample_len", 2**31), ("n_down", 31),
])
def test_corrupt_header_is_refused_before_its_arrays_are_allocated(small_blobs, load_blob, name, value):
    # each header implies gigabytes of arrays; the reader must refuse it
    # having allocated no more than a small multiple of the file itself
    blob = with_field(small_blobs[0], name, value)
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError):
            load_blob(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(blob)


def test_header_n_windows_checked_in_features_mode(small_blobs, load_blob):
    assert load_blob(small_blobs[1]).pipeline.n_windows == 32
    # window 20 gives 16 windows: a shorter network than the stored arrays
    with pytest.raises(DataFormatError, match="does not match architecture"):
        load_blob(with_field(small_blobs[1], "window_len", 20))
    for bad_window in (1, 321):  # shorter than 2 samples, longer than the subsample
        with pytest.raises(DataFormatError, match="corrupt checkpoint header"):
            load_blob(with_field(small_blobs[1], "window_len", bad_window))


@st.composite
def _geometries(draw):
    """A valid (mode, subsample_len, window_len, n_down): a sequence long
    enough to reflect-pad up to the next multiple of 2^n_down."""
    n_down = draw(st.integers(1, 4))
    block = 1 << n_down
    net_len = block * draw(st.integers(1, 3))
    seq_len = draw(st.integers(max(net_len - block, net_len // 2) + 1, net_len))
    if draw(st.booleans()):
        return "raw", seq_len, 0, n_down
    window_len = draw(st.integers(2, 5))
    return "features", seq_len * window_len + draw(st.integers(0, window_len - 1)), window_len, n_down


@settings(max_examples=40, deadline=None)
@given(geometry=_geometries(), latent=st.integers(1, 4), base=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_pipeline_geometry_survives_checkpoint(load_blob, geometry, latent, base, seed):
    mode, subsample_len, window_len, n_down = geometry
    pipe = InputPipeline(mode, subsample_len, window_len, n_down)
    seq_len = subsample_len if mode == "raw" else subsample_len // window_len
    block = 1 << n_down
    assert pipe.net_len % block == 0 and seq_len <= pipe.net_len < seq_len + block

    rng = np.random.default_rng(seed)
    pipe.standardizer = Standardizer(mean=rng.normal(size=pipe.channels).astype(np.float32),
                                     std=rng.uniform(0.5, 2.0, pipe.channels).astype(np.float32))
    blob = serialize_state(build_model(pipe, latent, base, n_down, seed))
    loaded = load_blob(blob)
    assert serialize_state(loaded) == blob
    assert (loaded.pipeline.n_windows, loaded.pipeline.net_len) == (pipe.n_windows, pipe.net_len)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("part,value", [
    ("std", 0.0), ("std", np.nan), ("std", np.inf), ("std", -1.0), ("mean", np.nan),
])
def test_corrupt_standardizer_is_format_error(small_blobs, load_blob, which, part, value):
    # zero, negative or non-finite spreads and non-finite means would load and
    # give NaN, constant or plausible but wrong scores
    blob = bytearray(small_blobs[which])
    channels = load_blob(small_blobs[which]).pipeline.channels
    mean_offset = field_offset("n_down")[0] + 4  # the statistics follow the header
    struct.pack_into("<f", blob, mean_offset + (4 * channels if part == "std" else 0), value)
    with pytest.raises(DataFormatError, match="corrupt standardizer"):
        load_blob(bytes(blob))


def _loads_or_format_error(load_blob, blob: bytes) -> None:
    try:
        load_blob(blob)
    except DataFormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 1), data=st.data())
def test_fuzz_truncation(small_blobs, load_blob, which, data):
    blob = small_blobs[which]
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(DataFormatError):
        load_blob(blob[:cut])


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 1), data=st.data())
def test_fuzz_byte_flips(small_blobs, load_blob, which, data):
    blob = bytearray(small_blobs[which])
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)), min_size=1, max_size=4))
    for index, mask in flips:
        blob[index] ^= mask
    _loads_or_format_error(load_blob, bytes(blob))


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 1), name=st.sampled_from(HEADER_FIELDS), data=st.data())
def test_fuzz_header_values(small_blobs, load_blob, which, name, data):
    limit = 255 if name == "mode" else 2**32 - 1
    edges = [v for v in (0, 1, 2, 2**30, 2**31, limit) if v <= limit]
    value = data.draw(st.integers(0, 64) | st.integers(0, limit) | st.sampled_from(edges))
    _loads_or_format_error(load_blob, with_field(small_blobs[which], name, value))


# -- the aligned layout and the copy-on-write mapping -------------------------------


def _array_layout(blob: bytes, channels: int) -> list[tuple[int, int]]:
    """(padding start, data offset) of each stored array, walking the blob
    by its record headers alone."""
    pos = field_offset("n_down")[0] + 4 + 8 * channels  # the arrays follow the standardizer
    layout = []
    while pos < len(blob):
        ndim = blob[pos]
        dims = struct.unpack_from(f"<{ndim}I", blob, pos + 1)
        pad_start = pos + 1 + 4 * ndim
        pos = pad_start + -pad_start % CHECKPOINT_ALIGN
        layout.append((pad_start, pos))
        pos += 4 * math.prod(dims)
    assert pos == len(blob)
    return layout


@pytest.mark.parametrize("which", [0, 1])
def test_checkpoint_arrays_are_64_byte_aligned(small_blobs, load_blob, which):
    blob = small_blobs[which]
    loaded = load_blob(blob)
    arrays = loaded.generator.arrays()
    layout = _array_layout(blob, loaded.pipeline.channels)
    assert len(layout) == len(arrays)
    for (pad_start, offset), arr in zip(layout, arrays):
        assert offset % 64 == 0 and offset - pad_start < 64
        assert blob[pad_start:offset] == bytes(offset - pad_start)
        assert blob[offset : offset + arr.nbytes] == arr.astype("<f4").tobytes()
        assert arr.ctypes.data % 64 == 0  # the mapping starts on a page, so offsets are addresses


@pytest.mark.parametrize("which", [0, 1])
def test_nonzero_padding_is_format_error(small_blobs, load_blob, which):
    channels = load_blob(small_blobs[which]).pipeline.channels
    blob = bytearray(small_blobs[which])
    offset = next(o for p, o in _array_layout(blob, channels) if o > p)  # the first array with padding
    blob[offset - 1] = 1
    with pytest.raises(DataFormatError, match=f"non-zero padding before the array at byte {offset}"):
        load_blob(bytes(blob))


def test_writes_to_a_loaded_model_never_reach_its_file(tmp_path, small_blobs):
    path = tmp_path / "model.ckpt"
    path.write_bytes(small_blobs[0])
    digest = hashlib.sha256(small_blobs[0]).hexdigest()
    loaded = load_checkpoint(path)
    for arr in loaded.generator.arrays():
        assert arr.flags.writeable
        arr += 1.0
    assert serialize_state(loaded) != small_blobs[0]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_saving_over_a_live_models_checkpoint_keeps_its_scores(tmp_path):
    subs = _normal_subs(8)
    pipeline = fit_pipeline(subs, "raw", 64, 0, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(pipeline, 4, 4, 3, seed=0), path)
    loaded = load_checkpoint(path)
    before = [(s.score, s.l_apparent, s.l_latent) for s in score_dataset(loaded, subs)]
    save_checkpoint(build_model(pipeline, 4, 4, 3, seed=1), path)  # replaces the file the model maps
    assert [(s.score, s.l_apparent, s.l_latent) for s in score_dataset(loaded, subs)] == before
    assert load_checkpoint(path).generator.arrays()[0].tobytes() != loaded.generator.arrays()[0].tobytes()


def test_a_dropped_model_unmaps_its_checkpoint(tmp_path, small_blobs):
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("no /proc/self/maps on this platform")
    path = tmp_path / "model.ckpt"
    path.write_bytes(small_blobs[0])
    loaded = load_checkpoint(path)
    assert str(path) in maps.read_text()
    del loaded
    gc.collect()
    assert str(path) not in maps.read_text()
