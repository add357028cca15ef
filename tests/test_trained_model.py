"""Properties asserted on trained checkpoints (shares the session fixtures
with the acceptance suite, so running this module alone still trains the
small ablation models)."""

import dataclasses

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.audio_net import AlignedAudio, inject_audio_t
from hcustom.flow_match import SamplerConfig, flow_loss_t, sample_flow
from hcustom.rope3d import rotation_tables, sequence_positions

pytestmark = pytest.mark.slow


def test_sampler_convergence_ordering(identity_ablation_runs):
    result = identity_ablation_runs[1]["base"]
    model, ps = result["model"], result["prepared"][0]
    ends = {}
    for steps in (50, 200, 400):
        ends[steps] = sample_flow(model, ps, SamplerConfig(steps=steps, seed=3))
    d_200 = np.linalg.norm(ends[200] - ends[400])
    d_50 = np.linalg.norm(ends[50] - ends[400])
    assert d_200 < d_50


def test_identity_tokens_matter_on_trained_checkpoint(identity_ablation_runs):
    result = identity_ablation_runs[1]["base"]
    model, ps = result["model"], result["prepared"][0]
    rng = np.random.default_rng(0)
    z = rng.standard_normal(ps.z1.shape).astype(np.float32)
    with ag.no_grad():
        full = model.velocity_t(ps, ag.Tensor(z), 0.5).data
        cos, sin = rotation_tables(sequence_positions(0, ps.frames, ps.width, ps.height),
                                   model.config.backbone.rope(),
                                   dtype=model.store.dtype)
        ps_stripped = dataclasses.replace(ps, id_tokens=ps.id_tokens[:0], rope_cos=cos,
                                          rope_sin=sin)
        stripped = model.velocity_t(ps_stripped, ag.Tensor(z), 0.5).data
    assert np.abs(full - stripped).max() > 1e-5


def test_alignment_net_receives_gradients(video_ablation_runs):
    for mode in ("base", "video_inject_concat"):
        result = video_ablation_runs[1][mode]
        model, ps = result["model"], result["prepared"][0]
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal(ps.z1.shape).astype(np.float32)
        model.store.zero_grad()
        flow_loss_t(model, ps, 0.45, z0).backward()
        for name in model.store.names():
            if name.startswith("align."):
                grad = model.store[name].grad
                assert grad is not None and np.abs(grad).max() > 0, (mode, name)
        if mode == "video_inject_concat":
            # the compressor's condition rows carry the video into the sequence
            c = model.config.backbone.latent_channels
            grad = model.store["vidcat.w"].grad
            assert grad is not None and np.abs(grad[c:]).max() > 0


def test_audio_injection_ignores_identity_context(identity_ablation_runs):
    """The audio delta depends only on (latents, audio), never on identity."""
    result = identity_ablation_runs[1]["base"]
    model = result["model"]
    rng = np.random.default_rng(2)
    wh = 6 * 6
    tokens = rng.normal(size=(4 * wh, 16)).astype(np.float32)
    aligned = AlignedAudio(rng.normal(size=(4, 16, 32)).astype(np.float32))
    with ag.no_grad():
        delta_1 = inject_audio_t(ag.Tensor(tokens), aligned, model.audio_injector,
                                 wh).data - tokens
        # swap every identity-related input in the surrounding context
        other = identity_ablation_runs[1]["channel_concat"]["samples"][0]
        _ = other.identity_images[0]
        delta_2 = inject_audio_t(ag.Tensor(tokens), aligned, model.audio_injector,
                                 wh).data - tokens
    np.testing.assert_array_equal(delta_1, delta_2)
