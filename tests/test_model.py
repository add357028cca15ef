"""CustomVideoModel.prepare: the sequence layout and the inputs it
resolves once, and the inputs it rejects."""

import dataclasses

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.audio_net import AudioTrack
from hcustom.backbone import BackboneConfig
from hcustom import prompt_fusion
from hcustom.errors import ConfigError, DimensionMismatchError, MissingDescriptorError
from hcustom.flow_match import SamplerConfig, flow_loss_t, sample_flow
from hcustom.latent_codec import CodecConfig, LatentCodec, PixelVideo
from hcustom.model import CustomVideoModel, LatentStats, ModelConfig
from hcustom.prompt_fusion import PromptSpec, Template
from hcustom.rope3d import rotation_tables, sequence_positions
from hcustom.synth_data import SceneParams, SpriteIdentity, generate_sample
from hcustom.video_inject import ConditionVideo


@pytest.fixture(scope="module")
def parts():
    model = CustomVideoModel(ModelConfig(
        backbone=BackboneConfig(width=16, heads=2, blocks=1, latent_channels=8,
                                text_width=16), align_hidden=8, seed=4))
    codec = LatentCodec(CodecConfig(spatial_factor=8, latent_channels=8,
                                    hidden_channels=8, seed=1))
    sample = generate_sample(SpriteIdentity(shape="circle", hue_bin=1, size=8),
                             SceneParams(frames=5, size=16), seed=2)
    return model, codec, LatentStats.identity(8), sample


def test_prepare_rotates_at_sequence_positions(parts):
    model, codec, stats, sample = parts
    ps = model.prepare(codec, stats, video=sample.video,
                       identity_images=sample.identity_images * 2)
    cos, sin = rotation_tables(sequence_positions(2, ps.frames, ps.width, ps.height),
                               model.config.backbone.rope(), dtype=model.store.dtype)
    np.testing.assert_array_equal(ps.rope_cos, cos)
    np.testing.assert_array_equal(ps.rope_sin, sin)


@pytest.mark.parametrize("ablation,subject_rows", [
    ({}, 1), ({"identity_enhancement": False}, 0),
    ({"identity_enhancement": False, "channel_concat": True}, 0)],
    ids=["identity_enhancement", "no_identity_enhancement", "channel_concat"])
def test_identity_rows_and_a_velocity_of_the_video_rows(parts, ablation, subject_rows):
    model, codec, stats, sample = parts
    model = CustomVideoModel(dataclasses.replace(model.config, **ablation))
    ps = model.prepare(codec, stats, video=sample.video,
                       identity_images=sample.identity_images)
    assert ps.n_identity_tokens == subject_rows * ps.wh
    with ag.no_grad():
        v = model.velocity_t(ps, ag.Tensor(ps.z1), 0.5)
    assert v.shape == (ps.n_video_tokens, model.config.backbone.latent_channels)


def test_prepare_rejects_identity_image_on_another_grid(parts):
    model, codec, stats, sample = parts
    wide = PixelVideo(np.full((1, 16, 24, 3), 0.5, dtype=np.float32))
    with pytest.raises(DimensionMismatchError):
        model.prepare(codec, stats, video=sample.video, identity_images=[wide])


def test_prepare_rejects_audio_without_exactly_one_subject(parts):
    model, codec, stats, sample = parts
    for images in ((), sample.identity_images * 2):
        with pytest.raises(ConfigError):
            model.prepare(codec, stats, video=sample.video, identity_images=images,
                          audio=sample.audio)


def test_prepare_rejects_condition_video_of_another_length(parts):
    model, codec, stats, sample = parts
    one_frame = ConditionVideo(PixelVideo(sample.video.data[:1]))  # 1 latent frame, not 2
    with pytest.raises(DimensionMismatchError):
        model.prepare(codec, stats, video=sample.video, condition=one_frame)


def test_prepare_without_frames_or_grid_is_a_config_error(parts):
    model, codec, stats, _ = parts
    with pytest.raises(ConfigError, match="frames"):
        model.prepare(codec, stats)
    with pytest.raises(ConfigError, match="size"):
        model.prepare(codec, stats, frames=5)


@pytest.mark.parametrize("size", [(20, 20), (16, 12), (0, 16), (-8, 16)],
                         ids=["20x20", "16x12", "0x16", "-8x16"])
def test_prepare_rejects_a_size_off_the_latent_grid(parts, size):
    # flooring size // spatial_factor would sample a 16x16 video for a 20x20 request
    model, codec, stats, _ = parts
    assert codec.config.spatial_factor == 8
    with pytest.raises(ConfigError, match="size"):
        model.prepare(codec, stats, frames=5, size=size)


def test_prepare_rejects_audio_features_of_another_width(parts):
    model, codec, stats, sample = parts
    audio = AudioTrack(np.zeros((sample.audio.frames, 4, 7), dtype=np.float32))
    with pytest.raises(DimensionMismatchError, match="width 7"):
        model.prepare(codec, stats, video=sample.video,
                      identity_images=sample.identity_images, audio=audio)


def _spec(sample, template=Template.image_appended):
    return PromptSpec(sample.caption, [(sample.descriptors[0], sample.identity_images[0])],
                      template)


def test_steps_after_prepare_pool_and_encode_nothing(parts, monkeypatch):
    # the prompt's image colours and every latent are found once, in prepare
    model, codec, stats, sample = parts
    ps = model.prepare(codec, stats, video=sample.video,
                       identity_images=sample.identity_images, spec=_spec(sample))
    assert ps.prompt is not None and "image-1" in ps.prompt.provenance

    def refuse(*args, **kwargs):
        raise AssertionError("a step after prepare read pixels")

    monkeypatch.setattr(prompt_fusion, "adaptive_pool_image", refuse)
    monkeypatch.setattr(LatentCodec, "encode", refuse)
    z0 = np.random.default_rng(3).standard_normal(ps.z1.shape).astype(np.float32)
    model.store.zero_grad()
    flow_loss_t(model, ps, 0.4, z0).backward()
    assert model.store["encoder.image.w"].grad is not None
    tokens = sample_flow(model, ps, SamplerConfig(steps=2, seed=1))
    assert tokens.shape == ps.z1.shape and np.isfinite(tokens).all()


def test_no_field_of_a_prepared_sample_is_a_pixel_video(parts):
    model, codec, stats, sample = parts
    ps = model.prepare(codec, stats, video=sample.video,
                       identity_images=sample.identity_images, spec=_spec(sample),
                       audio=sample.audio, condition=ConditionVideo(sample.video))
    values = [getattr(ps, f.name) for f in dataclasses.fields(ps)]
    values += [value for _, value in ps.prompt.pieces]
    assert not any(isinstance(value, PixelVideo) for value in values)
    # what the model reads is in its dtype
    for array in (ps.id_tokens, ps.cond_tokens, ps.aligned_audio.data,
                  *(value for kind, value in ps.prompt.pieces if kind == "image")):
        assert array.dtype == model.store.dtype


def test_prepare_rejects_an_embedded_template_without_its_descriptor(parts):
    model, codec, stats, sample = parts
    spec = PromptSpec("a shape drifts", [("circle", sample.identity_images[0])],
                      Template.image_embedded)
    with pytest.raises(MissingDescriptorError):
        model.prepare(codec, stats, video=sample.video,
                      identity_images=sample.identity_images, spec=spec)


@pytest.mark.parametrize("subjects", [0, 2])
def test_prepare_rejects_channel_concat_without_exactly_one_subject(parts, subjects):
    model, codec, stats, sample = parts
    model = CustomVideoModel(dataclasses.replace(
        model.config, identity_enhancement=False, channel_concat=True))
    with pytest.raises(DimensionMismatchError, match="exactly one subject"):
        model.prepare(codec, stats, video=sample.video,
                      identity_images=sample.identity_images * subjects)
