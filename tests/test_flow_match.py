import math
import re

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.audio_net import AudioInjectConfig
from hcustom.backbone import BackboneConfig
from hcustom.container import load_container, save_container
from hcustom.errors import ContainerError, NumericalFailureError
from hcustom.flow_match import (NoiseSchedule, SamplerConfig, _step_rng, flow_loss_t,
                                interpolate, sample_flow, train_flow)
from hcustom.latent_codec import CodecConfig, LatentCodec, PixelVideo
from hcustom.model import (CustomVideoModel, LatentStats, ModelConfig,
                           load_checkpoint, save_checkpoint)
from hcustom.prompt_fusion import PromptSpec
from hcustom.synth_data import SceneParams, SpriteIdentity, generate_sample

rng = np.random.default_rng(17)

TINY = ModelConfig(
    backbone=BackboneConfig(width=16, heads=2, blocks=1, latent_channels=8,
                            text_width=16),
    audio=AudioInjectConfig(lambda_a=1.0, width=8, heads=1),
    align_hidden=8,
    seed=0,
)


@pytest.fixture(scope="module")
def setup():
    codec = LatentCodec(CodecConfig(spatial_factor=8, latent_channels=8,
                                    hidden_channels=8, seed=0))
    model = CustomVideoModel(TINY, dtype=np.float64)
    stats = LatentStats.identity(8)
    scene = SceneParams(frames=5, size=16)
    samples = [generate_sample(SpriteIdentity(shape="circle", hue_bin=i * 3, size=8),
                               scene, seed=i) for i in range(3)]
    prepared = []
    for s in samples:
        ps = model.prepare(codec, stats, video=s.video,
                           identity_images=s.identity_images,
                           spec=PromptSpec(s.caption,
                                           list(zip(s.descriptors, s.identity_images))),
                           audio=s.audio)
        prepared.append(ps)
    return codec, model, stats, prepared


def test_interpolate_endpoints():
    z0 = rng.normal(size=(4, 3))
    z1 = rng.normal(size=(4, 3))
    zt, u = interpolate(z0, z1, 0.0)
    np.testing.assert_array_equal(zt, z0)
    zt, u = interpolate(z0, z1, 1.0)
    np.testing.assert_array_equal(zt, z1)
    for t in (0.25, 0.5, 0.75):
        _, ut = interpolate(z0, z1, t)
        np.testing.assert_array_equal(ut, z1 - z0)
    with pytest.raises(ValueError):
        interpolate(z0, z1, 1.5)
    with pytest.raises(ValueError):
        interpolate(z0, z1[:2], 0.5)


def test_logit_normal_sampler_properties():
    sched = NoiseSchedule(m=0.4, s=1.3)
    r = np.random.default_rng(0)
    draws = np.array([sched.sample_t(r) for _ in range(20000)])
    assert (draws > 0).all() and (draws < 1).all()
    target = 1.0 / (1.0 + np.exp(-0.4))
    assert abs(np.median(draws) - target) < 0.02
    with pytest.raises(ValueError):
        NoiseSchedule(s=0.0)


def test_loss_zero_for_perfect_prediction(setup):
    codec, model, stats, prepared = setup
    ps = prepared[0]
    z0 = rng.standard_normal(ps.z1.shape)

    class Oracle:
        config = model.config
        store = model.store

        def velocity_t(self, psx, z_video, t):
            return ag.Tensor(psx.z1 - z0)

    loss = flow_loss_t(Oracle(), ps, 0.4, z0)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-24)


def test_loss_at_zero_init_equals_mean_square_velocity(setup):
    codec, model, stats, prepared = setup
    ps = prepared[0]
    z0 = rng.standard_normal(ps.z1.shape)
    fresh = CustomVideoModel(TINY, dtype=np.float64)  # zero-init output proj
    loss = flow_loss_t(fresh, ps, 0.3, z0)
    expected = np.mean((ps.z1 - z0) ** 2)
    assert float(loss.data) == pytest.approx(expected, rel=1e-12)


def test_identity_block_order_invariance_of_loss():
    codec = LatentCodec(CodecConfig(spatial_factor=8, latent_channels=8,
                                    hidden_channels=8, seed=0))
    model = CustomVideoModel(TINY, dtype=np.float64)
    stats = LatentStats.identity(8)
    scene = SceneParams(frames=5, size=16)
    a = generate_sample(SpriteIdentity(shape="circle", hue_bin=0, size=8), scene, 0)
    b = generate_sample(SpriteIdentity(shape="square", hue_bin=6, size=8), scene, 1)
    video = a.video
    img_a, img_b = a.identity_images[0], b.identity_images[0]
    spec_ab = PromptSpec("x", [("circle", img_a), ("square", img_b)])
    spec_ba = PromptSpec("x", [("square", img_b), ("circle", img_a)])
    ps_ab = model.prepare(codec, stats, video=video, identity_images=[img_a, img_b],
                          spec=spec_ab)
    ps_ba = model.prepare(codec, stats, video=video, identity_images=[img_b, img_a],
                          spec=spec_ba)
    z0 = rng.standard_normal(ps_ab.z1.shape)
    la = float(flow_loss_t(model, ps_ab, 0.5, z0).data)
    lb = float(flow_loss_t(model, ps_ba, 0.5, z0).data)
    assert la == pytest.approx(lb, rel=1e-9)


def test_training_determinism_and_progress(setup):
    codec, _, stats, prepared = setup
    losses = {}
    for run in range(2):
        model = CustomVideoModel(TINY, dtype=np.float64)
        losses[run] = train_flow(model, prepared, steps=8, batch_size=2,
                                 learning_rate=1e-3, seed=123)
    assert losses[0] == losses[1]
    model = CustomVideoModel(TINY, dtype=np.float64)
    curve = train_flow(model, prepared, steps=40, batch_size=2, seed=0)
    assert min(curve[-5:]) < curve[0]


def _grad_norm_at(model, prepared, step, seed, batch_size=2):
    """Global gradient norm of train_flow's step `step`, recomputed from the
    model's current parameters with that step's draws."""
    step_rng = _step_rng(seed, step)
    idx = step_rng.choice(len(prepared), size=min(batch_size, len(prepared)), replace=False)
    model.store.zero_grad()
    for i in idx:
        ps = prepared[int(i)]
        t = NoiseSchedule().sample_t(step_rng)
        z0 = step_rng.standard_normal(ps.z1.shape)
        ag.mul(flow_loss_t(model, ps, t, z0), 1.0 / len(idx)).backward()
    grads = [p.grad for _, p in model.store.items() if p.grad is not None]
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def test_training_events_report_gradient_norm_and_clipping(setup):
    prepared = setup[3]
    events = []
    model = CustomVideoModel(TINY, dtype=np.float64)
    train_flow(model, prepared, steps=2, batch_size=2, seed=3,
               log=lambda **kw: events.append(kw))
    assert [e["step"] for e in events] == [0, 1]
    replay = CustomVideoModel(TINY, dtype=np.float64)
    assert events[0]["grad_norm"] == pytest.approx(_grad_norm_at(replay, prepared, 0, 3),
                                                   rel=1e-12)
    train_flow(replay, prepared, steps=1, batch_size=2, seed=3)
    assert events[1]["grad_norm"] == pytest.approx(_grad_norm_at(replay, prepared, 1, 3),
                                                   rel=1e-12)
    for e in events:
        assert set(e) == {"step", "loss", "wall_time", "step_s", "page_faults",
                          "grad_norm", "clipped"}
        assert e["clipped"] == (e["grad_norm"] > 1.0)

    # the first step's norm does not depend on the threshold
    norm = events[0]["grad_norm"]
    for clip_norm, clipped in ((0.99 * norm, True), (1.01 * norm, False), (math.inf, False)):
        seen = []
        train_flow(CustomVideoModel(TINY, dtype=np.float64), prepared, steps=1,
                   batch_size=2, seed=3, clip_norm=clip_norm,
                   log=lambda **kw: seen.append(kw))
        assert seen[0]["grad_norm"] == norm and seen[0]["clipped"] is clipped


def test_zero_steps_keeps_initialization(setup):
    codec, _, stats, prepared = setup
    model = CustomVideoModel(TINY, dtype=np.float64)
    before = model.store.state_dict()
    train_flow(model, prepared, steps=0, batch_size=1, seed=0)
    after = model.store.state_dict()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_empty_dataset_rejected(setup):
    model = CustomVideoModel(TINY, dtype=np.float64)
    with pytest.raises(ValueError):
        train_flow(model, [], steps=1)


def test_divergence_detection(setup):
    codec, _, stats, prepared = setup
    model = CustomVideoModel(TINY, dtype=np.float64)
    huge = [  # scale the targets so the very first loss exceeds the limit
        type(prepared[0])(**{**prepared[0].__dict__, "z1": prepared[0].z1 + 100.0})]
    with pytest.raises(NumericalFailureError):
        train_flow(model, huge, steps=1, batch_size=1, seed=0)


def test_euler_constant_velocity_field_exact(setup):
    codec, model, stats, prepared = setup
    ps = prepared[0]
    const = rng.normal(size=(ps.n_video_tokens, 8))

    class ConstField:
        config = model.config
        store = model.store

        def velocity_t(self, psx, z_video, t):
            return ag.Tensor(const)

    z_1 = sample_flow(ConstField(), ps, SamplerConfig(steps=1, seed=5))
    z_40 = sample_flow(ConstField(), ps, SamplerConfig(steps=40, seed=5))
    start = np.random.default_rng(5).standard_normal((ps.n_video_tokens, 8))
    np.testing.assert_allclose(z_1, start + const, atol=1e-12)
    np.testing.assert_allclose(z_40, start + const, atol=1e-9)


def test_sampler_holds_identity_tokens_fixed(setup):
    codec, model, stats, prepared = setup
    ps = prepared[0]
    before = ps.id_tokens.copy()
    sample_flow(model, ps, SamplerConfig(steps=3, seed=0))
    np.testing.assert_array_equal(ps.id_tokens, before)


def test_checkpoint_roundtrip_and_version(tmp_path, setup):
    codec, model, stats, prepared = setup
    path = tmp_path / "ckpt.hc"
    save_checkpoint(path, model, codec, stats, step=5, extra_meta={"note": "t"})
    m2, c2, s2, step, meta = load_checkpoint(path)
    assert step == 5 and meta["version"] == "hcustom-ckpt/2"
    for k, v in model.store.state_dict().items():
        np.testing.assert_array_equal(v, m2.store.state_dict()[k])
    ps = prepared[0]
    z0 = rng.standard_normal(ps.z1.shape)
    la = float(flow_loss_t(model, ps, 0.4, z0).data)
    lb = float(flow_loss_t(m2, ps, 0.4, z0).data)
    assert la == pytest.approx(lb, rel=1e-6)


def test_checkpoint_of_the_first_version_is_refused(tmp_path, setup):
    # version 1 files carry config fields that are constants now
    codec, model, stats, _ = setup
    path = tmp_path / "ckpt.hc"
    save_checkpoint(path, model, codec, stats, step=1)
    arrays, meta = load_container(path)
    save_container(path, arrays, {**meta, "version": "hcustom-ckpt/1"})
    with pytest.raises(ContainerError,
                       match=re.escape(f"{path}: checkpoint version 'hcustom-ckpt/1'")):
        load_checkpoint(path)
