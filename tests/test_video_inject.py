import dataclasses

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.backbone import BackboneConfig
from hcustom.errors import ConfigError, DimensionMismatchError
from hcustom.flow_match import flow_loss_t
from hcustom.latent_codec import CodecConfig, LatentCodec, PixelVideo, tokenize
from hcustom.model import CustomVideoModel, LatentStats, ModelConfig
from hcustom.nn import ParamStore
from hcustom.pipeline import condition_for_sample
from hcustom.synth_data import SceneParams, SpriteIdentity, generate_sample
from hcustom.video_inject import (AlignmentNet, ConcatCompressor,
                                  ConditionVideo, encode_condition)

from conftest import backbone_inputs

rng = np.random.default_rng(9)


@pytest.fixture(scope="module")
def codec():
    return LatentCodec(CodecConfig(spatial_factor=4, latent_channels=8,
                                   hidden_channels=8, seed=4))


def test_all_ones_mask_is_noop(codec):
    video = PixelVideo(rng.random((5, 16, 16, 3), dtype=np.float32))
    cond = ConditionVideo(video, np.ones((5, 16, 16), dtype=np.int64))
    plain = tokenize(codec.encode(video))
    np.testing.assert_array_equal(encode_condition(cond, codec), plain)


def test_all_zeros_mask_equals_gray(codec):
    video = PixelVideo(rng.random((5, 16, 16, 3), dtype=np.float32))
    cond = ConditionVideo(video, np.zeros((5, 16, 16), dtype=np.int64))
    gray = PixelVideo(np.full((5, 16, 16, 3), 0.5, dtype=np.float32))
    gray_tokens = tokenize(codec.encode(gray))
    np.testing.assert_array_equal(encode_condition(cond, codec), gray_tokens)


def test_condition_token_count(codec):
    video = PixelVideo(rng.random((129, 16, 16, 3), dtype=np.float32))
    tokens = encode_condition(ConditionVideo(video), codec)
    assert tokens.shape == (33 * 4 * 4, 8)


def test_mask_shape_mismatch(codec):
    video = PixelVideo(rng.random((5, 16, 16, 3), dtype=np.float32))
    with pytest.raises(DimensionMismatchError):
        ConditionVideo(video, np.ones((4, 16, 16)))


def test_alignment_net_zero_at_init():
    store = ParamStore(dtype=np.float64)
    net = AlignmentNet(store, np.random.default_rng(0), channels=8, hidden=16)
    assert len(store.names()) == 2 * AlignmentNet.NUM_LAYERS == 8
    out = net.forward_t(ag.Tensor(rng.normal(size=(10, 8))))
    np.testing.assert_array_equal(out.data, np.zeros((10, 8)))


def test_alignment_net_gradcheck():
    store = ParamStore(dtype=np.float64)
    net = AlignmentNet(store, np.random.default_rng(0), channels=4, hidden=6)
    # give the zero-initialized layer values so gradients are generic
    store["align.l3.w"].data = rng.normal(size=(6, 4))
    x = rng.normal(size=(5, 4))

    def loss_value():
        with ag.no_grad():
            out = net.forward_t(ag.Tensor(x))
            return float((out.data ** 2).sum())

    out = net.forward_t(ag.Tensor(x))
    ag.sum_(ag.mul(out, out)).backward()
    eps = 1e-6
    for name, p in store.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 5)):
            old = flat[i]
            flat[i] = old + eps
            hi = loss_value()
            flat[i] = old - eps
            lo = loss_value()
            flat[i] = old
            num = (hi - lo) / (2 * eps)
            assert abs(num - gflat[i]) <= 1e-3 * max(1.0, abs(num)), name


def _conditioned(mode, identity=True):
    """A tiny float64 model of the given video mode and one prepared
    video_custom sample (one identity subject unless `identity` is False)."""
    config = ModelConfig(backbone=BackboneConfig(width=16, heads=2, blocks=1,
                                                 latent_channels=8, text_width=16),
                         align_hidden=8, video_mode=mode, seed=4)
    model = CustomVideoModel(config, dtype=np.float64)
    codec = LatentCodec(CodecConfig(spatial_factor=8, latent_channels=8,
                                    hidden_channels=8, seed=1), dtype=np.float64)
    sample = generate_sample(SpriteIdentity(shape="star", hue_bin=2, size=8),
                             SceneParams(frames=5, size=16), seed=3)
    ps = model.prepare(codec, LatentStats.identity(8), video=sample.video,
                       identity_images=sample.identity_images if identity else (),
                       condition=condition_for_sample(sample))
    # the zero-initialized output projection would make every velocity zero
    model.store["backbone.out.w"].data = rng.normal(size=(16, 8))
    return model, ps


def test_add_mode_zero_condition_is_identity():
    model, ps = _conditioned("add")
    z = ag.Tensor(rng.standard_normal(ps.z1.shape))
    _, cond, v_cond = backbone_inputs(model, ps, z)
    _, none, v_plain = backbone_inputs(model, dataclasses.replace(ps, cond_tokens=None), z)
    assert none is None and not cond.data.any()  # zero alignment output at init
    np.testing.assert_array_equal(v_cond.data, v_plain.data)


def test_add_mode_identity_frames_untouched():
    model, ps = _conditioned("add")
    model.store["align.l3.w"].data = rng.normal(size=(8, 8))
    tokens, cond, _ = backbone_inputs(model, ps, ag.Tensor(rng.standard_normal(ps.z1.shape)))
    n_id = ps.n_identity_tokens
    assert cond.shape == (tokens.shape[0], model.config.backbone.width)
    np.testing.assert_array_equal(cond.data[:n_id], 0.0)
    assert np.abs(cond.data[n_id:]).max(axis=1).min() > 0  # every video row conditioned


def test_concat_mode_neutral_at_init_and_shape():
    store = ParamStore(dtype=np.float64)
    comp = ConcatCompressor(store, channels=8)
    video = rng.normal(size=(3 * 4, 8))
    out = comp.forward_t(ag.Tensor(video), ag.Tensor(rng.normal(size=(3 * 4, 8))))
    assert out.shape == video.shape
    np.testing.assert_allclose(out.data, video, atol=1e-12)  # init passes latent through


def test_token_count_preserved_both_modes():
    for mode in ("add", "concat"):
        model, ps = _conditioned(mode)
        z = ag.Tensor(rng.standard_normal(ps.z1.shape))
        tokens, _, v = backbone_inputs(model, ps, z)
        plain_tokens, _, v_plain = backbone_inputs(
            model, dataclasses.replace(ps, cond_tokens=None), z)
        assert tokens.shape == plain_tokens.shape and v.shape == v_plain.shape, mode


def test_frame_mismatch_and_unknown_mode():
    comp = ConcatCompressor(ParamStore(), channels=8)
    with pytest.raises(DimensionMismatchError):
        comp.forward_t(ag.Tensor(np.zeros((3 * 4, 8))), ag.Tensor(np.zeros((2 * 4, 8))))
    with pytest.raises(ConfigError):
        ModelConfig(video_mode="adapter")


def test_concat_mode_condition_rows_get_gradient_at_init():
    """Concat mode zeroes only the compressor's condition rows: the aligned
    condition is non-zero, so those rows get a gradient from the first step."""
    model, ps = _conditioned("concat", identity=False)
    flow_loss_t(model, ps, 0.4, rng.normal(size=ps.z1.shape)).backward()
    assert np.abs(model.store["vidcat.w"].grad[8:]).max() > 0
    assert np.abs(model.store["align.l3.w"].data).max() > 0
    np.testing.assert_array_equal(model.store["vidcat.w"].data[8:], 0.0)
