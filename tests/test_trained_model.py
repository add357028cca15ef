"""Properties asserted on trained checkpoints (shares the session fixtures
with the acceptance suite, so running this module alone still trains the
small ablation models)."""

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.flow_match import SamplerConfig, flow_loss_t, sample_flow
from hcustom.rope3d import rotation_tables

pytestmark = pytest.mark.slow


def test_sampler_convergence_ordering(identity_ablation_runs):
    result = identity_ablation_runs["base"]
    model, ps = result["model"], result["prepared"][0]
    ends = {}
    for steps in (50, 200, 400):
        ends[steps] = sample_flow(model, ps, SamplerConfig(steps=steps, seed=3))
    d_200 = np.linalg.norm(ends[200] - ends[400])
    d_50 = np.linalg.norm(ends[50] - ends[400])
    assert d_200 < d_50


def test_identity_tokens_matter_on_trained_checkpoint(identity_ablation_runs):
    result = identity_ablation_runs["base"]
    model, ps = result["model"], result["prepared"][0]
    rng = np.random.default_rng(0)
    z = rng.standard_normal(ps.z1.shape).astype(np.float32)
    with ag.no_grad():
        full = model.velocity_t(ps, ag.Tensor(z), 0.5).data
        import dataclasses
        ps_stripped = dataclasses.replace(
            ps, id_tokens=ps.id_tokens[:0], n_subjects=0,
            positions=ps.positions[ps.n_identity_tokens:])
        cos, sin = rotation_tables(ps_stripped.positions,
                                   model.config.backbone.rope(),
                                   dtype=model.store.dtype)
        ps_stripped = dataclasses.replace(ps_stripped, rope_cos=cos, rope_sin=sin)
        stripped = model.velocity_t(ps_stripped, ag.Tensor(z), 0.5).data
    n_id = ps.n_identity_tokens
    assert np.abs(full[n_id:] - stripped).max() > 1e-5


def test_alignment_net_receives_gradients(video_ablation_runs):
    for mode in ("add", "concat"):
        result = video_ablation_runs[mode]
        model, ps = result["model"], result["prepared"][0]
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal(ps.z1.shape).astype(np.float32)
        model.store.zero_grad()
        flow_loss_t(model, ps, 0.45, z0).backward()
        for name in model.store.names():
            if name.startswith("align."):
                grad = model.store[name].grad
                assert grad is not None and np.abs(grad).max() > 0, (mode, name)
        if mode == "concat":
            # the compressor's condition rows carry the video into the sequence
            c = model.config.backbone.latent_channels
            grad = model.store["vidcat.w"].grad
            assert grad is not None and np.abs(grad[c:]).max() > 0


def test_audio_injection_ignores_identity_context(identity_ablation_runs):
    """The audio delta depends only on (latents, audio), never on identity."""
    from hcustom.audio_net import AlignedAudio, inject_audio
    result = identity_ablation_runs["base"]
    model = result["model"]
    rng = np.random.default_rng(2)
    wh = 6 * 6
    tokens = rng.normal(size=(4 * wh, 16)).astype(np.float32)
    aligned = AlignedAudio(rng.normal(size=(4, 16, 32)).astype(np.float32))
    delta_1 = inject_audio(tokens, aligned, model.audio_injector, wh) - tokens
    # swap every identity-related input in the surrounding context
    other = identity_ablation_runs["channel_concat"]["samples"][0]
    _ = other.identity_images[0]
    delta_2 = inject_audio(tokens, aligned, model.audio_injector, wh) - tokens
    np.testing.assert_array_equal(delta_1, delta_2)
