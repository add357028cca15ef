"""Audio alignment/injection and the additive video conditioning path."""

import dataclasses

import numpy as np

from hcustom import AudioTrack, align_audio
from hcustom import autograd as ag
from hcustom.audio_net import AudioInjectConfig, AudioInjector, inject_audio_t
from hcustom.backbone import BackboneConfig
from hcustom.latent_codec import CodecConfig, LatentCodec
from hcustom.model import CustomVideoModel, LatentStats, ModelConfig
from hcustom.nn import ParamStore
from hcustom.pipeline import condition_for_sample
from hcustom.synth_data import SceneParams, SpriteIdentity, generate_sample

rng = np.random.default_rng(0)

# an audio clip with f'_a = 9 frames aligns to f = 3 latent frames (+1 identity)
audio = AudioTrack(rng.normal(size=(9, 4, 32)).astype(np.float32))
aligned = align_audio(audio, f=3)
print("audio [9,4,32] -> aligned", aligned.data.shape, "(front-padded with",
      (3 + 1) * 4 - 9, "zero frames)")


def injector(lambda_a):
    return AudioInjector(ParamStore(), np.random.default_rng(1), latent_channels=16,
                         audio_width=32,
                         config=AudioInjectConfig(lambda_a=lambda_a, width=32, heads=2))


inj = injector(1.0)
tokens = ag.Tensor(rng.normal(size=(4 * 64, 16)).astype(np.float32))  # 4 frames of 8x8
with ag.no_grad():
    out = inject_audio_t(tokens, aligned, inj, wh=64).data
    print("injection preserves shape:", out.shape == tokens.shape)

    # per-frame isolation: changing frame 2's audio leaves other frames bit-identical
    bumped = aligned.data.copy()
    bumped[2] += 1.0
    out2 = inject_audio_t(tokens, type(aligned)(bumped), inj, wh=64).data
    same = [bool((out.reshape(4, 64, 16)[g] == out2.reshape(4, 64, 16)[g]).all())
            for g in range(4)]
    print("frames unchanged after editing frame 2's audio:", same)

    # lambda = 0 switches audio off exactly (lambda is fixed when the injector is built)
    off = inject_audio_t(tokens, aligned, injector(0.0), wh=64).data
    print("lambda=0 is exact identity:", bool((off == tokens.data).all()))

# additive video conditioning, through the model: the aligned condition is
# added in hidden space, so the sequence does not grow
model = CustomVideoModel(ModelConfig(
    backbone=BackboneConfig(width=32, heads=2, blocks=1, latent_channels=8, text_width=16),
    align_hidden=16, seed=0))
codec = LatentCodec(CodecConfig(spatial_factor=8, latent_channels=8, hidden_channels=8))
sample = generate_sample(SpriteIdentity(shape="circle", hue_bin=2, size=8),
                         SceneParams(frames=5, size=16), seed=1)
ps = model.prepare(codec, LatentStats.identity(8), video=sample.video,
                   identity_images=sample.identity_images,
                   condition=condition_for_sample(sample))
plain = dataclasses.replace(ps, cond_tokens=None)
model.store["backbone.out.w"].data = rng.normal(size=(32, 8)).astype(np.float32)
z = ag.Tensor(rng.normal(size=ps.z1.shape).astype(np.float32))
with ag.no_grad():
    v_cond, v_plain = model.velocity_t(ps, z, 0.5).data, model.velocity_t(plain, z, 0.5).data
    print("velocity rows with / without the condition:", v_cond.shape[0], "/",
          v_plain.shape[0], f"(the {ps.n_video_tokens} video rows of a sequence that "
          f"also holds {ps.n_identity_tokens} identity rows)")
    print("fresh alignment net (zero output layer) changes no velocity bit:",
          bool((v_cond == v_plain).all()))
    model.store["align.l3.w"].data = rng.normal(size=(16, 8)).astype(np.float32)
    moved = np.abs(model.velocity_t(ps, z, 0.5).data - v_plain).max()
    print(f"after training-like weights the condition moves the velocity by up to {moved:.3f}")
