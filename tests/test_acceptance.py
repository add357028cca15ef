"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the heavy training criteria (7, 8) share session-scoped runs,
dominate the runtime and carry the `slow` marker (`pytest -m "not slow"`
skips them).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.audio_net import (AlignedAudio, AudioInjectConfig, AudioInjector,
                               AudioTrack, align_audio, inject_audio_t)
from hcustom.backbone import BackboneConfig
from hcustom.eval_metrics import (METRIC_COLUMNS, EvalRef, evaluate,
                                  id_consistency, temporal_consistency)
from hcustom.flow_match import (NoiseSchedule, SamplerConfig, flow_loss_t,
                                sample_flow)
from hcustom.latent_codec import (CodecConfig, LatentCodec, PixelVideo,
                                  latent_frame_count)
from hcustom.model import CustomVideoModel, LatentStats, ModelConfig
from hcustom.pipeline import condition_for_sample, run_training
from hcustom.prompt_fusion import PromptSpec
from hcustom.rope3d import RopeConfig, identity_positions, video_positions
from hcustom.synth_data import (AnnotationRecord, BBox, SceneParams,
                                SpriteIdentity, crop_with_coverage,
                                filter_clips, generate_dataset, generate_sample,
                                select_main_subject, validate_bbox_size,
                                validate_face_in_body)
from hcustom.nn import ParamStore

rng = np.random.default_rng(2024)


def report(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


from conftest import backbone_inputs, rotate


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_audio_alignment_oracle():
    t0 = time.monotonic()
    c_a = 7
    for fa in range(1, 65):
        audio = AudioTrack(rng.normal(size=(fa, 4, c_a)))
        f = fa // 4 + 1
        aligned = align_audio(audio, f).data
        padded = np.zeros(((f + 1) * 4, 4, c_a))
        padded[(f + 1) * 4 - fa:] = audio.data
        for g in range(f + 1):
            for a in range(4):
                for b in range(4):
                    assert (aligned[g, 4 * a + b] == padded[4 * g + a, b]).all()
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0,
           f"align_audio == brute-force index loop for f'_a in 1..64 ({elapsed:.1f}s)")


def test_criterion_2_frame_count_law_and_causality():
    for fp in range(1, 257):
        assert latent_frame_count(fp) == fp // 4 + 1
    codec = LatentCodec(CodecConfig(spatial_factor=4, latent_channels=8,
                                    hidden_channels=8, seed=3))
    video = PixelVideo(rng.random((16, 16, 16, 3), dtype=np.float32))
    base = codec.encode(video).data
    exact = True
    for p in range(1, 16):
        bumped = video.data.copy()
        bumped[p] = rng.random(bumped[p].shape, dtype=np.float32)
        z = codec.encode(PixelVideo(bumped)).data
        for k in range(latent_frame_count(16)):
            if 4 * k < p:
                exact &= bool((base[k] == z[k]).all())
    report(2, exact, "f = floor(f'/4)+1 for f' in 1..256; 16-frame causality exact")


def test_criterion_3_rope_suite():
    cfg = RopeConfig(head_dim=32)
    ok = True
    r = np.random.default_rng(0)
    for _ in range(1000):
        q = r.normal(size=32)
        k = r.normal(size=32)
        p1 = r.integers(-40, 40, size=3)
        p2 = r.integers(-40, 40, size=3)
        d = r.integers(-12, 12, size=3)
        ok &= abs(np.linalg.norm(rotate(q, p1, cfg)) - np.linalg.norm(q)) <= 1e-6
        a = rotate(q, p1, cfg) @ rotate(k, p2, cfg)
        b = rotate(q, p1 + d, cfg) @ rotate(k, p2 + d, cfg)
        ok &= abs(a - b) <= 1e-5
    video = {tuple(p) for p in video_positions(64, 8, 8)}
    ident_sets = [{tuple(p) for p in identity_positions(k, 8, 8)} for k in range(1, 9)]
    for i, s in enumerate(ident_sets):
        ok &= not (s & video)
        for j, s2 in enumerate(ident_sets):
            if i != j:
                ok &= not (s & s2)
    report(3, ok, "norm<=1e-6, relative shift<=1e-5 x1000, disjoint k<=8 f<=64")


def _tiny_full_model(video_mode="add"):
    config = ModelConfig(
        backbone=BackboneConfig(width=16, heads=2, blocks=1, latent_channels=8,
                                text_width=16),
        audio=AudioInjectConfig(lambda_a=0.7, width=8, heads=2),
        align_hidden=8, video_mode=video_mode, seed=4)
    model = CustomVideoModel(config, dtype=np.float64)
    codec = LatentCodec(CodecConfig(spatial_factor=8, latent_channels=8,
                                    hidden_channels=8, seed=1), dtype=np.float64)
    stats = LatentStats.identity(8)
    sample = generate_sample(SpriteIdentity(shape="square", hue_bin=3, size=8),
                             SceneParams(frames=5, size=16), seed=9)
    ps = model.prepare(
        codec, stats, video=sample.video,
        identity_images=sample.identity_images,
        spec=PromptSpec(sample.caption,
                        list(zip(sample.descriptors, sample.identity_images))),
        audio=sample.audio, condition=condition_for_sample(sample))
    return model, ps


def test_criterion_4_gradient_fidelity():
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    for mode in ("add", "concat"):
        model, ps = _tiny_full_model(video_mode=mode)
        # perturb the zero-initialized projections so no branch is trivially dead
        r = np.random.default_rng(8)
        for name in model.store.names():
            p = model.store[name]
            if not p.data.any():
                p.data = 0.05 * r.normal(size=p.data.shape)
        t, z0 = 0.37, r.standard_normal(ps.z1.shape)

        def loss_value():
            with ag.no_grad():
                return float(flow_loss_t(model, ps, t, z0).data)

        model.store.zero_grad()
        flow_loss_t(model, ps, t, z0).backward()
        names = [n for n in model.store.names() if model.store[n].grad is not None]
        for _ in range(110):
            name = names[int(r.integers(len(names)))]
            p = model.store[name]
            flat = p.data.reshape(-1)
            i = int(r.integers(flat.size))
            eps = 1e-5
            old = flat[i]
            flat[i] = old + eps
            hi = loss_value()
            flat[i] = old - eps
            lo = loss_value()
            flat[i] = old
            num = (hi - lo) / (2 * eps)
            ana = p.grad.reshape(-1)[i]
            denom = max(abs(num), abs(ana))
            if denom > 1e-7:
                rel = abs(num - ana) / denom
                worst = max(worst, rel)
                assert rel < 1e-3, f"{mode}:{name}[{i}] rel={rel}"
            checked += 1
    elapsed = time.monotonic() - t0
    report(4, checked >= 200 and elapsed < 300,
           f"{checked} sampled parameters, worst rel err {worst:.2e}, {elapsed:.0f}s")


def test_criterion_5_conditioning_noop_identities():
    ok = True
    # lambda_a = 0: audio injection is the identity, exactly
    store = ParamStore(dtype=np.float64)
    inj = AudioInjector(store, np.random.default_rng(0), 8, 6,
                        AudioInjectConfig(lambda_a=0.0, width=8, heads=1))
    tokens = rng.normal(size=(3 * 4, 8))
    aligned = AlignedAudio(rng.normal(size=(3, 16, 6)))
    ok &= bool((inject_audio_t(ag.Tensor(tokens), aligned, inj, wh=4).data == tokens).all())
    # add mode on a fresh model: the zero-initialized alignment output leaves
    # the velocity bit-identical to the unconditioned one.  Every other
    # zero-initialized layer is perturbed, so the velocity itself is not zero.
    model, ps = _tiny_full_model()
    r = np.random.default_rng(8)
    for name in model.store.names():
        p = model.store[name]
        if not p.data.any() and not name.startswith("align."):
            p.data = 0.05 * r.normal(size=p.data.shape)
    z = ag.Tensor(r.standard_normal(ps.z1.shape))
    _, _, v_cond = backbone_inputs(model, ps, z)
    _, _, v_plain = backbone_inputs(model, dataclasses.replace(ps, cond_tokens=None), z)
    ok &= bool(np.abs(v_cond.data).max() > 0) and bool((v_cond.data == v_plain.data).all())
    # a nonzero condition: the identity rows of the hidden-space term stay zero
    model.store["align.l3.w"].data = 0.05 * r.normal(size=(8, 8))
    _, cond, _ = backbone_inputs(model, ps, z)
    n_id = ps.n_identity_tokens
    ok &= bool((cond.data[:n_id] == 0).all()) and bool(np.abs(cond.data[n_id:]).max() > 0)
    # identity tokens unchanged by the sampler
    model, ps = _tiny_full_model()
    before = ps.id_tokens.copy()
    sample_flow(model, ps, SamplerConfig(steps=4, seed=2))
    ok &= bool((ps.id_tokens == before).all())
    report(5, ok, "lambda_a=0, zero-condition velocity, identity-row term, sampler: all exact")


def test_criterion_6_efficiency_token_count():
    model, ps = _tiny_full_model()
    z = ag.Tensor(rng.standard_normal(ps.z1.shape))
    tokens, cond, v_with = backbone_inputs(model, ps, z)
    plain_tokens, plain_cond, v_without = backbone_inputs(
        model, dataclasses.replace(ps, cond_tokens=None), z)
    ok = tokens.shape == plain_tokens.shape and plain_cond is None
    ok &= cond.shape == (tokens.shape[0], model.config.backbone.width)
    ok &= v_with.shape == v_without.shape
    report(6, ok, "token count with add-mode video conditioning == without")


@pytest.mark.slow
def test_criterion_7_overfit_run(overfit_run):
    losses = overfit_run["losses"]
    init = float(np.mean(losses[:10]))
    final = float(np.mean(losses[-10:]))
    ratio = final / init
    rep = evaluate(overfit_run["eval_videos"], overfit_run["eval_refs"])
    wall = overfit_run["wall_time_total"]
    ok = ratio < 0.1 and (rep.face_sim or 0.0) >= 0.8 and wall <= 1800
    report(7, ok,
           f"loss {init:.3f}->{final:.3f} (ratio {ratio:.3f}), "
           f"id_consistency {rep.face_sim:.3f}, wall {wall:.0f}s")


@pytest.mark.slow
def test_criterion_8a_identity_enhancement_direction(identity_ablation_runs):
    runs = identity_ablation_runs[0]["runs"]
    with_id = runs["base"]["metrics"]["Face-Sim"] or 0.0
    without_id = runs["no_identity_enhancement"]["metrics"]["Face-Sim"] or 0.0
    delta = with_id - without_id
    ok = delta >= 0.1
    detail = (f"id with={with_id:.3f} without={without_id:.3f} "
              f"delta={delta:.3f}; first-frame err "
              f"temporal={runs['base']['first_frame_error']:.4f} "
              f"channel={runs['channel_concat']['first_frame_error']:.4f}")
    report(8, ok, "(a) identity enhancement: " + detail)


@pytest.mark.slow
def test_criterion_8b_channel_concat_first_frame(identity_ablation_runs):
    runs = identity_ablation_runs[0]["runs"]
    with_ff = runs["base"]["first_frame_error"]
    chan_ff = runs["channel_concat"]["first_frame_error"]
    ok = chan_ff > with_ff
    report(8, ok, f"(b) first-frame error channel {chan_ff:.4f} > temporal {with_ff:.4f}")


@pytest.mark.slow
def test_criterion_8c_video_injection_background(video_ablation_runs):
    runs = video_ablation_runs[0]["runs"]
    add = runs["base"]["background_error"]
    concat = runs["video_inject_concat"]["background_error"]
    ok = add < concat
    report(8, ok, f"(c) background error add {add:.4f} < concat {concat:.4f}")


def test_criterion_9_pipeline_thresholds():
    ok = True
    ok &= filter_clips([AnnotationRecord("a", [], scores={"koala": 0.05})]) == []
    ok &= len(filter_clips([AnnotationRecord("a", [], scores={"koala": 0.06})])) == 1
    ok &= len(filter_clips([AnnotationRecord("a", [], scores={"sync": 3.0})])) == 1
    ok &= filter_clips([AnnotationRecord("a", [], scores={"sync": 2.999})]) == []
    ok &= len(filter_clips([AnnotationRecord("a", [], scores={"iqa": 40.0})])) == 1
    ok &= filter_clips([AnnotationRecord("a", [], scores={"iqa": 39.99})]) == []

    def rec(n_frames):
        frames = [{0: [0, 0, 5, 5]} if i < n_frames else {} for i in range(100)]
        return AnnotationRecord("c", frames)

    ok &= select_main_subject(rec(49)) is None
    ok &= select_main_subject(rec(50)) == (0,)
    ok &= validate_face_in_body(BBox(0, 0, 10, 10), BBox(5, 0, 20, 10)) is True
    ok &= validate_face_in_body(BBox(0, 0, 10, 10), BBox(6, 0, 20, 10)) is False
    ok &= validate_bbox_size(BBox(0, 0, 30, 30), 100, 100) is True
    ok &= validate_bbox_size(BBox(0, 0, 29, 30), 100, 100) is False
    crop = crop_with_coverage([BBox(0, 0, 30, 30)], 90, 160, "9:16")
    union = np.zeros((160, 90), dtype=bool)
    union[0:30, 0:30] = True
    pixel_cover = union[crop.y0:crop.y1, crop.x0:crop.x1].sum()
    ok &= pixel_cover >= 0.7 * 900
    report(9, ok, "koala/sync/iqa boundaries, 50-frame rule, 0.5/0.3 checks, 70% crop")


def test_criterion_10_metric_oracles_and_schema():
    r = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        ref = r.normal(size=6)
        frames = [r.normal(size=6) for _ in range(9)]
        brute = np.mean([np.dot(ref, f) / (np.linalg.norm(ref) * np.linalg.norm(f))
                         for f in frames])
        ok &= abs(id_consistency(ref, frames) - brute) < 1e-9
        brute_t = np.mean([0.5 * (np.dot(frames[i], frames[i - 1])
                                  / (np.linalg.norm(frames[i]) * np.linalg.norm(frames[i - 1]))
                                  + np.dot(frames[i], frames[0])
                                  / (np.linalg.norm(frames[i]) * np.linalg.norm(frames[0])))
                           for i in range(1, len(frames))])
        ok &= abs(temporal_consistency(frames) - brute_t) < 1e-9
    blank = PixelVideo(np.full((3, 16, 16, 3), 0.4, dtype=np.float32))
    rep = evaluate([blank], [EvalRef(prompt="a circle")])
    ok &= tuple(rep.as_columns().keys()) == METRIC_COLUMNS
    report(10, ok, "cosine aggregations == brute force within 1e-9; Table-style schema")


def test_criterion_11_determinism(tmp_path):
    scene = SceneParams(frames=5, size=16)
    data = tmp_path / "data"
    generate_dataset(data, 4, seed=2, scene=scene)
    cfg = {
        "task": "single_subject", "dataset": str(data), "seed": 9,
        "codec": {"spatial_factor": 8, "latent_channels": 8, "hidden_channels": 8,
                  "train_steps": 8, "batch_size": 2, "learning_rate": 2e-3},
        "model": {"width": 16, "heads": 2, "blocks": 1, "text_width": 16,
                  "mlp_ratio": 2},
        "train": {"steps": 6, "batch_size": 2, "learning_rate": 1e-3,
                  "checkpoint_every": 0},
    }
    blobs = []
    for run in ("a", "b"):
        c = dict(cfg)
        c["out_dir"] = str(tmp_path / run)
        run_training(c)
        with open(tmp_path / run / "checkpoint.hc", "rb") as f:
            blobs.append(f.read())
    identical = blobs[0] == blobs[1]
    sched = NoiseSchedule(m=0.7, s=1.0)
    r = np.random.default_rng(0)
    draws = np.array([sched.sample_t(r) for _ in range(100_000)])
    target = 1.0 / (1.0 + np.exp(-0.7))
    median_ok = abs(np.median(draws) - target) < 0.02 and (0 < draws).all() and (draws < 1).all()
    report(11, identical and median_ok,
           f"byte-identical checkpoints: {identical}; "
           f"logit-normal median err {abs(np.median(draws) - target):.4f}")
