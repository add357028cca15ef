import numpy as np
import pytest
from scipy import ndimage

from hcustom import autograd as ag
from hcustom.errors import (ConfigMismatchError, DimensionMismatchError,
                            NumericalFailureError)
from hcustom.latent_codec import (CodecConfig, LatentCodec, LatentVideo,
                                  PixelVideo, latent_frame_count,
                                  _grow_masks, _upsample_conv, tokenize,
                                  train_codec, untokenize)
from hcustom.rope3d import video_positions

rng = np.random.default_rng(3)


@pytest.fixture(scope="module")
def codec():
    return LatentCodec(CodecConfig(spatial_factor=4, latent_channels=8,
                                   hidden_channels=8, seed=1))


def _video(frames, size=16):
    return PixelVideo(rng.random((frames, size, size, 3), dtype=np.float32))


def test_frame_count_law_exhaustive():
    for fp in range(1, 257):
        assert latent_frame_count(fp) == fp // 4 + 1


def test_single_image_is_one_latent_frame(codec):
    z = codec.encode(_video(1))
    assert z.frames == 1


def test_129_frame_clip_shape():
    codec = LatentCodec(CodecConfig(spatial_factor=8, latent_channels=8,
                                    hidden_channels=8, seed=0))
    video = PixelVideo(rng.random((129, 64, 64, 3), dtype=np.float32))
    z = codec.encode(video)
    assert (z.frames, z.height, z.width) == (33, 8, 8)


def test_encode_rejects_bad_spatial_dims(codec):
    with pytest.raises(DimensionMismatchError):
        codec.encode(PixelVideo(rng.random((4, 18, 16, 3), dtype=np.float32)))


def test_causality_zeroed_tail(codec):
    video = _video(13)
    z_full = codec.encode(video)
    tail = video.data.copy()
    tail[5:] = 0.0
    z_tail = codec.encode(PixelVideo(tail))
    np.testing.assert_array_equal(z_full.data[:2], z_tail.data[:2])


def test_causality_perturbation_exact(codec):
    video = _video(16)
    base = codec.encode(video).data
    for p in range(1, 16):
        bumped = video.data.copy()
        bumped[p] = rng.random(bumped[p].shape, dtype=np.float32)
        z = codec.encode(PixelVideo(bumped)).data
        for k in range(latent_frame_count(16)):
            if 4 * k < p:
                np.testing.assert_array_equal(base[k], z[k])


def test_encode_deterministic(codec):
    video = _video(9)
    a = codec.encode(video).data
    b = codec.encode(video).data
    np.testing.assert_array_equal(a, b)


def test_decode_shapes(codec):
    z = LatentVideo(rng.normal(size=(1, 4, 4, 8)).astype(np.float32))
    assert codec.decode(z).frames == 1
    z = LatentVideo(rng.normal(size=(33, 4, 4, 8)).astype(np.float32))
    out = codec.decode(z)
    assert out.frames == 129 and out.height == 16
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_decode_rejects_wrong_channels(codec):
    with pytest.raises(ConfigMismatchError):
        codec.decode(LatentVideo(rng.normal(size=(2, 4, 4, 5))))


def test_tokenize_shapes_and_positions(codec):
    z = LatentVideo(rng.normal(size=(2, 2, 3, 8)))
    tokens = tokenize(z)
    assert tokens.shape == (12, 8)
    # token i comes from the cell at video_positions(f, w, h)[i] = (t, x, y)
    for i, (t, x, y) in enumerate(video_positions(2, 3, 2)):
        np.testing.assert_array_equal(tokens[i], z.data[t, y, x])
    one = LatentVideo(rng.normal(size=(1, 1, 1, 8)))
    assert tokenize(one).shape == (1, 8)


def test_tokenize_roundtrip(codec):
    z = LatentVideo(rng.normal(size=(3, 4, 5, 8)))
    back = untokenize(tokenize(z), 3, 4, 5)
    np.testing.assert_array_equal(back.data, z.data)


def test_group_indices_partial_groups():
    idx = LatentCodec.group_frame_indices(4)
    assert idx.tolist() == [[1, 2, 3, 3]]
    idx = LatentCodec.group_frame_indices(9)
    assert idx.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]


def test_short_training_reduces_loss():
    codec = LatentCodec(CodecConfig(spatial_factor=4, latent_channels=8,
                                    hidden_channels=8, seed=2))
    videos = [PixelVideo(rng.random((5, 16, 16, 3), dtype=np.float32) * 0.5 + 0.25)
              for _ in range(3)]
    losses = train_codec(codec, videos, steps=30, batch_size=2, seed=0)
    assert losses[-1] < losses[0]
    repeat = LatentCodec(CodecConfig(spatial_factor=4, latent_channels=8,
                                     hidden_channels=8, seed=2))
    losses2 = train_codec(repeat, videos, steps=30, batch_size=2, seed=0)
    assert losses == losses2


def test_training_stops_on_a_non_finite_loss():
    codec = LatentCodec(CodecConfig(spatial_factor=4, latent_channels=8,
                                    hidden_channels=8, seed=2))
    codec.store["enc.first.w"].data[0, 0] = np.nan
    with pytest.raises(NumericalFailureError, match="step 0"):
        train_codec(codec, [_video(5)], steps=3, batch_size=1, seed=0)


def test_training_rejects_an_empty_video_set(codec):
    with pytest.raises(ValueError, match="empty"):
        train_codec(codec, [], steps=1)


def test_training_logs_every_step():
    codec = LatentCodec(CodecConfig(spatial_factor=4, latent_channels=8,
                                    hidden_channels=8, seed=2))
    events = []
    losses = train_codec(codec, [_video(5), _video(5)], steps=3, batch_size=2, seed=0,
                         log=lambda **kw: events.append(kw))
    assert [e["step"] for e in events] == [0, 1, 2]
    assert [e["loss"] for e in events] == losses
    for e in events:
        assert set(e) == {"step", "loss", "wall_time", "step_s", "page_faults",
                          "grad_norm", "clipped"}
        assert e["clipped"] == (e["grad_norm"] > 1.0)


def test_upsample_conv_matches_upsample_then_conv():
    x = rng.normal(size=(2, 5, 6, 4))
    w, b = rng.normal(size=(3, 3, 4, 6)), rng.normal(size=(6,))
    probe = rng.normal(size=(2, 10, 12, 6))
    xt, wt, bt = (ag.Tensor(a, requires_grad=True) for a in (x, w, b))
    out = _upsample_conv(xt, wt, bt)
    ag.sum_(ag.mul(out, probe)).backward()

    up = ag.Tensor(x.repeat(2, axis=1).repeat(2, axis=2), requires_grad=True)
    wr, br = ag.Tensor(w, requires_grad=True), ag.Tensor(b, requires_grad=True)
    ref = ag.conv2d(up, wr, br, stride=1, pad=1)
    ag.sum_(ag.mul(ref, probe)).backward()
    gx_ref = up.grad.reshape(2, 5, 2, 6, 2, 4).sum(axis=(2, 4))

    np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(xt.grad, gx_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(wt.grad, wr.grad, rtol=0, atol=1e-10)
    np.testing.assert_allclose(bt.grad, br.grad, rtol=0, atol=1e-10)


def test_codec_l1_roundtrip_gradients_match_finite_differences():
    codec = LatentCodec(CodecConfig(spatial_factor=4, latent_channels=4,
                                    hidden_channels=4, seed=3), dtype=np.float64)
    local = np.random.default_rng(7)
    for name in codec.store.names():
        p = codec.store[name]
        p.data = p.data + 0.1 * local.normal(size=p.shape)  # no all-zero tensors
    x = local.random((5, 8, 8, 3))

    def loss_t(xt):
        diff = ag.add(codec.decode_t(codec.encode_t(xt)), -x)
        return ag.mean_(ag.mul(diff, np.sign(diff.data)))

    xt = ag.Tensor(x.copy(), requires_grad=True)
    codec.store.zero_grad()
    loss_t(xt).backward()
    targets = [(name, codec.store[name]) for name in codec.store.names()] + [("x", xt)]
    eps = 1e-6
    for name, t in targets:
        flat = t.data.reshape(-1)
        for i in local.choice(flat.size, size=min(4, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + eps
            hi = float(loss_t(ag.Tensor(xt.data)).data)
            flat[i] = old - eps
            lo = float(loss_t(ag.Tensor(xt.data)).data)
            flat[i] = old
            num = (hi - lo) / (2 * eps)
            assert abs(t.grad.reshape(-1)[i] - num) <= 1e-6 + 1e-4 * abs(num), (name, i)


@pytest.mark.parametrize("steps", [0, 1, 3])
def test_grow_masks_matches_scipy_binary_dilation(steps):
    # the codec's focus-mask dilation against scipy's, with the 4-neighbour
    # cross inside each frame
    masks = np.random.default_rng(steps).random((3, 11, 9)) > 0.93
    masks[1, 0, 0] = masks[2, -1, 4] = True          # seeds on the border
    cross = np.zeros((1, 3, 3), dtype=bool)
    cross[0] = ndimage.generate_binary_structure(2, 1)
    want = (ndimage.binary_dilation(masks, cross, iterations=steps) if steps
            else masks)
    np.testing.assert_array_equal(_grow_masks(masks.astype(np.uint8), steps), want)
