"""Generator/discriminator contracts, loss wiring, gradient scoping, and the
anomaly score."""

import numpy as np
import pytest
from helpers import identity_standardizer

from faultgan.errors import DimensionError, UsageError
from faultgan.evaluator import score_dataset
from faultgan.model import (
    Arch,
    Dense,
    DenseT,
    Discriminator,
    Generator,
    InputPipeline,
    LossWeights,
    ModelState,
    apparent_loss,
    build_model,
    discriminator_forward,
    feature_matching_loss,
    fit_pipeline,
    fraud_loss,
    generator_forward,
    generator_loss,
    latent_loss,
    padded_length,
    seeded,
)
from faultgan.ndtensor import Tensor
from faultgan.signal_io import Subsample


def _arch(**kw):
    base = dict(input_channels=1, input_len=64, latent_dim=8, base_channels=4, n_down=3)
    base.update(kw)
    return Arch(**base)


def _rng():
    return seeded(np.random.default_rng(0))


def test_generator_output_shapes():
    g = Generator(_arch(), _rng())
    x = Tensor(np.random.default_rng(1).normal(size=(5, 1, 64)))
    x_hat, z, z_hat = generator_forward(g, x)
    assert x_hat.shape == x.shape
    assert z.shape == z_hat.shape == (5, 8)
    assert np.isfinite(x_hat.data).all() and np.isfinite(z.data).all()


def test_paper_default_geometry():
    # latent 64 on 3136-sample subsamples (3136 = 196 * 16, no padding needed)
    arch = _arch(input_len=3136, latent_dim=64, base_channels=4, n_down=4)
    g = Generator(arch, _rng())
    x = Tensor(np.zeros((2, 1, 3136), dtype=np.float32))
    _, z, z_hat = generator_forward(g, x)
    assert z.shape == (2, 64) and z_hat.shape == (2, 64)


def test_encoders_share_architecture_not_weights():
    g = Generator(_arch(), _rng())
    assert [p.shape for p in g.encoder1.params()] == [p.shape for p in g.encoder2.params()]
    k1 = g.encoder1.stages[0][0].kernel.data
    k2 = g.encoder2.stages[0][0].kernel.data
    assert k1.shape == k2.shape
    assert not np.array_equal(k1, k2)  # independently initialized


def test_generator_shape_mismatch_raises():
    g = Generator(_arch(), _rng())
    with pytest.raises(DimensionError):
        generator_forward(g, Tensor(np.zeros((1, 1, 32))))
    with pytest.raises(DimensionError):
        generator_forward(g, Tensor(np.zeros((1, 2, 64))))


def test_decoder_output_is_unbounded():
    # no squashing activation anywhere: scaling the latent scales the output
    # past [-1, 1], which Tanh would forbid
    g = Generator(_arch(), _rng())
    probe = g.decoder.forward(Tensor(np.ones((1, 8), dtype=np.float32)), train=False)
    peak = np.abs(probe.data).max()
    assert peak > 0.0
    scale = 10.0 / peak
    out = g.decoder.forward(Tensor(np.full((1, 8), scale, dtype=np.float32)), train=False)
    assert np.abs(out.data).max() > 1.0


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _grads(head, x, weights):
    """The head's output on x and the gradients of <output, weights>, as
    (out, d/dx, d/dkernel[, d/dbias])."""
    tx = Tensor(x, requires_grad=True)
    out = head(tx)
    (out * Tensor(weights)).sum().backward()
    return [out.data, tx.grad] + [p.grad for p in head.params()]


def test_dense_heads_match_the_kernel1_convolution_arithmetic():
    # Before the heads were matmuls they ran as kernel-1 convolutions over a
    # length-1 input, whose im2col is the flattened input: one GEMM over the
    # whole batch each way, the input gradient scattered into zeros, and the
    # transposed kernel's gradient a tensordot. The matmul heads must give
    # those bits, or trained checkpoints would change.
    rng = np.random.default_rng(3)
    batch, channels, length, latent = 8, 128, 128, 32
    h = rng.normal(size=(batch, channels, length)).astype(np.float32)
    kernel = (0.02 * rng.normal(size=(latent, channels, length))).astype(np.float32)
    bias = rng.normal(size=latent).astype(np.float32)
    g = rng.normal(size=(batch, latent)).astype(np.float32)
    got = _grads(Dense(Tensor(kernel, requires_grad=True), Tensor(bias, requires_grad=True)), h, g)
    col, kmat = h.reshape(batch, -1), kernel.reshape(latent, -1)
    want = [col @ kmat.T + bias, np.zeros_like(col) + g @ kmat, g.T @ col, g.sum(axis=0)]
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a).reshape(-1), _bits(b).reshape(-1))

    z = rng.normal(size=(batch, latent)).astype(np.float32)
    kernel_t = (0.02 * rng.normal(size=(latent, channels, length))).astype(np.float32)
    g_t = rng.normal(size=(batch, channels, length)).astype(np.float32)
    got = _grads(DenseT(Tensor(kernel_t, requires_grad=True), None), z, g_t)
    kmat_t, gmat = kernel_t.reshape(latent, -1), g_t.reshape(batch, -1)
    want = [np.zeros_like(gmat) + z @ kmat_t, gmat @ kmat_t.T, np.tensordot(z[:, :, None], gmat[:, None], axes=([0, 2], [0, 1]))]
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a).reshape(-1), _bits(b).reshape(-1))


def test_discriminator_probability_and_features():
    d = Discriminator(_arch(), _rng())
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 1, 64)))
    p, f = discriminator_forward(d, x)
    assert p.shape == (4,)
    assert ((p.data > 0) & (p.data < 1)).all()
    assert f.shape[0] == 4 and f.data.ndim == 2
    # two different inputs should produce different feature rows
    assert not np.array_equal(f.data[0], f.data[1])
    p2, f2 = discriminator_forward(d, x)
    np.testing.assert_array_equal(p.data, p2.data)
    np.testing.assert_array_equal(f.data, f2.data)


def test_loss_weight_validation():
    with pytest.raises(UsageError):
        LossWeights(-1.0, 1.0, 1.0)
    with pytest.raises(UsageError):
        LossWeights(0.0, 0.0, 0.0)


def test_generator_loss_weighted_sum():
    w = LossWeights(1.0, 1.0, 1.0)
    total = generator_loss(w, Tensor(0.2), Tensor(0.3), Tensor(0.5))
    assert total.item() == pytest.approx(1.0)
    # defaults (1, 50, 1): a + 50 b + c
    total = generator_loss(LossWeights(), Tensor(0.25), Tensor(0.5), Tensor(0.125))
    assert total.item() == pytest.approx(0.25 + 50 * 0.5 + 0.125)


def test_generator_loss_zero_weight_annihilates_component():
    w = LossWeights(0.0, 1.0, 1.0)
    l_f = Tensor(123.0, requires_grad=True)
    total = generator_loss(w, l_f, Tensor(0.5), Tensor(0.25))
    assert total.item() == pytest.approx(0.75)
    total.backward()
    np.testing.assert_array_equal(l_f.grad, np.zeros(()))


def test_apparent_and_latent_losses():
    x = Tensor(np.array([[1.0, 1.0]]))
    assert apparent_loss(x, Tensor(np.array([[0.0, 0.0]]))).item() == pytest.approx(1.0)
    assert apparent_loss(x, x).item() == 0.0
    z = Tensor(np.zeros((1, 4)))
    assert latent_loss(z, Tensor(np.ones((1, 4)))).item() == pytest.approx(1.0)
    # quadratic: doubling the offset quadruples the loss
    z2 = Tensor(2 * np.ones((1, 4)))
    assert latent_loss(z, z2).item() == pytest.approx(4.0)


def test_apparent_loss_strictly_monotone_in_single_element():
    x = Tensor(np.zeros((1, 1, 8)))
    bad = np.zeros((1, 1, 8), dtype=np.float32)
    bad[0, 0, 3] = 1.0
    worse = bad.copy()
    worse[0, 0, 3] = 2.0
    assert apparent_loss(x, Tensor(worse)).item() > apparent_loss(x, Tensor(bad)).item() > 0.0


def test_fraud_loss_is_bce_of_discriminator_output():
    d = Discriminator(_arch(), _rng())
    x_hat = Tensor(np.random.default_rng(3).normal(size=(3, 1, 64)))
    p, _ = discriminator_forward(d, x_hat)
    expected = -np.log(p.data).mean()
    assert fraud_loss(d, x_hat).item() == pytest.approx(float(expected), rel=1e-5)


def test_feature_matching_loss_properties():
    d = Discriminator(_arch(), _rng())
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 1, 64)))
    b = Tensor(rng.normal(size=(2, 1, 64)))
    assert feature_matching_loss(d, a, a).item() == 0.0
    lab = feature_matching_loss(d, a, b).item()
    lba = feature_matching_loss(d, b, a).item()
    assert lab == pytest.approx(lba, rel=1e-6)
    assert lab > 0.0


def test_generator_gradients_flow_everywhere():
    state = _tiny_state()
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 1, 64)))
    x_hat, z, z_hat = generator_forward(state.generator, x, train=True)
    l_f = fraud_loss(state.discriminator, x_hat, train=True)
    total = generator_loss(LossWeights(), l_f, apparent_loss(x, x_hat), latent_loss(z, z_hat))
    total.backward()
    for i, p in enumerate(state.generator.params()):
        assert p.grad is not None, f"generator param {i} got no grad"
        assert np.isfinite(p.grad).all(), f"generator param {i} grad not finite"
        assert np.abs(p.grad).max() > 0.0, f"generator param {i} grad identically zero"


def test_gradient_masking_between_networks():
    state = _tiny_state()
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 1, 64)))

    # generator step with frozen discriminator: no disc grads at all
    for p in state.discriminator.params():
        p.requires_grad = False
    x_hat, z, z_hat = generator_forward(state.generator, x, train=True)
    l_f = fraud_loss(state.discriminator, x_hat, train=True)
    generator_loss(LossWeights(), l_f, apparent_loss(x, x_hat), latent_loss(z, z_hat)).backward()
    assert all(p.grad is None for p in state.discriminator.params())
    for p in state.discriminator.params():
        p.requires_grad = True

    # discriminator step on detached fake: no generator grads
    for p in state.generator.params():
        p.zero_grad()
    feature_matching_loss(state.discriminator, x, x_hat.detach(), train=True).backward()
    assert all(p.grad is None for p in state.generator.params())
    assert any(p.grad is not None for p in state.discriminator.params())


def _tiny_state() -> ModelState:
    pipeline = InputPipeline(
        mode="raw",
        subsample_len=64,
        window_len=0,
        n_down=3,
        standardizer=identity_standardizer(1),
    )
    return build_model(pipeline, latent_dim=8, base_channels=4, n_down=3, seed=0)


def test_anomaly_score_decomposition_and_determinism():
    state = _tiny_state()
    rng = np.random.default_rng(7)
    subs = [Subsample(values=rng.normal(size=64).astype(np.float32), source_offset=i) for i in range(3)]
    first = score_dataset(state, subs)
    second = score_dataset(state, subs)
    assert first == second  # bit-identical in eval mode
    for s, sub in zip(first, subs):
        assert s.score == s.l_apparent + s.l_latent
        assert s.l_apparent >= 0 and s.l_latent >= 0
        # the batched numpy components agree with the autodiff loss ops
        x = Tensor(state.pipeline.prepare_batch([sub]))
        x_hat, z, z_hat = generator_forward(state.generator, x)
        assert s.l_apparent == pytest.approx(apparent_loss(x, x_hat).item(), rel=1e-5)
        assert s.l_latent == pytest.approx(latent_loss(z, z_hat).item(), rel=1e-5)


def test_anomaly_score_zero_for_perfect_model():
    # l1(x, x) + l2(z, z) == 0 is the definitional lower bound
    x = Tensor(np.ones((1, 4)))
    z = Tensor(np.zeros((1, 2)))
    assert apparent_loss(x, x).item() + latent_loss(z, z).item() == 0.0


# -- input pipeline -------------------------------------------------------------


def test_padded_length():
    assert padded_length(2048, 4) == 2048
    assert padded_length(3136, 4) == 3136
    assert padded_length(12000, 4) == 12000
    assert padded_length(50, 4) == 64
    assert padded_length(1, 2) == 4


def test_fit_pipeline_raw_standardizes_with_train_stats():
    rng = np.random.default_rng(8)
    subs = [Subsample(values=(3.0 + 2.0 * rng.normal(size=48)).astype(np.float32), source_offset=0)
            for _ in range(20)]
    pipe = fit_pipeline(subs, "raw", 48, window_len=0, n_down=4)
    assert pipe.net_len == 48 and pipe.channels == 1
    all_values = np.concatenate([pipe.prepare(s.values)[0] for s in subs])
    assert abs(all_values.mean()) < 0.05
    assert abs(all_values.std() - 1.0) < 0.05


def test_pipeline_pads_reflectively():
    subs = [Subsample(values=np.arange(50, dtype=np.float32), source_offset=0)]
    pipe = fit_pipeline(subs, "raw", 50, window_len=0, n_down=4)
    assert pipe.net_len == 64
    prepared = pipe.prepare(subs[0].values)
    assert prepared.shape == (1, 64)
    # reflection mirrors the tail
    np.testing.assert_allclose(prepared[0, 50:], prepared[0, 48:34:-1], atol=1e-6)
    restored = pipe.restore(prepared)
    np.testing.assert_allclose(restored[0], subs[0].values, atol=1e-4)


def test_pipeline_features_mode_shapes():
    rng = np.random.default_rng(9)
    subs = [Subsample(values=rng.normal(size=320).astype(np.float32), source_offset=0) for _ in range(6)]
    pipe = fit_pipeline(subs, "features", 320, window_len=10, n_down=3)
    assert pipe.n_windows == 32 and pipe.channels == 16
    assert pipe.net_len == 32
    batch = pipe.prepare_batch(subs)
    assert batch.shape == (6, 16, 32)
    assert np.isfinite(batch).all()


def test_pipeline_rejects_wrong_subsample_length():
    subs = [Subsample(values=np.zeros(32, dtype=np.float32), source_offset=0)]
    pipe = fit_pipeline(subs, "raw", 32, window_len=0, n_down=2)
    with pytest.raises(DimensionError):
        pipe.prepare(np.zeros(16, dtype=np.float32))


def test_pipeline_rejects_unknown_mode():
    with pytest.raises(UsageError):
        InputPipeline(mode="spectral", subsample_len=8, window_len=0, n_down=3,
                      standardizer=identity_standardizer(1))


@pytest.mark.parametrize("window_len,n_down,match", [(3, 2, "window length 3"), (0, -1, "n_down")])
def test_pipeline_rejects_raw_window_and_negative_depth(window_len, n_down, match):
    with pytest.raises(UsageError, match=match):
        InputPipeline("raw", 48, window_len, n_down)


def test_build_model_refuses_another_n_down():
    # inputs padded for 2 stages are 52 long, which 1 stage would accept, but
    # the checkpoint header would then imply a 50-sample network
    subs = [Subsample(values=np.arange(50, dtype=np.float32), source_offset=0)]
    pipe = fit_pipeline(subs, "raw", 50, window_len=0, n_down=2)
    with pytest.raises(UsageError, match="n_down 1"):
        build_model(pipe, 4, 4, 1, seed=0)


def test_pipeline_too_short_for_depth():
    subs = [Subsample(values=np.zeros(3, dtype=np.float32), source_offset=0)]
    with pytest.raises(UsageError):
        fit_pipeline(subs, "raw", 3, window_len=0, n_down=4)
