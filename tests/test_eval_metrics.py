import numpy as np
import pytest

from hcustom.eval_metrics import (METRIC_COLUMNS, EvalRef, dynamic_degree, evaluate,
                                  id_consistency, masked_region_error,
                                  temporal_consistency)
from hcustom.latent_codec import PixelVideo
from hcustom.synth_data import (SceneParams, SpriteIdentity, generate_sample,
                                render_identity_frame)

rng = np.random.default_rng(31)


def unit(v):
    return v / np.linalg.norm(v)


def test_id_consistency_extremes():
    ref = np.array([1.0, 0.0, 0.0])
    assert id_consistency(ref, [ref, ref]) == pytest.approx(1.0)
    orth = np.array([0.0, 1.0, 0.0])
    assert id_consistency(ref, [orth, orth]) == pytest.approx(0.0)


def test_id_consistency_hand_mean():
    ref = np.array([1.0, 0.0])
    e1 = np.array([1.0, 0.0])
    e2 = unit(np.array([1.0, 1.0])) * 2.0  # rescaling must not matter
    e2 = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    e3 = np.array([0.0, 1.0])
    got = id_consistency(ref, [e1, e2, e3])
    assert got == pytest.approx((1.0 + 0.5 + 0.0) / 3)


def test_rescaling_invariance():
    ref = unit(rng.normal(size=8))
    frames = [unit(rng.normal(size=8)) for _ in range(5)]
    a = id_consistency(ref, frames)
    b = id_consistency(ref * 7.3, [f * 0.2 for f in frames])
    assert a == pytest.approx(b, abs=1e-12)


def test_temporal_consistency_cases():
    e = unit(rng.normal(size=4))
    assert temporal_consistency([e, e, e]) == pytest.approx(1.0)
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert temporal_consistency([a, b]) == pytest.approx(0.0)


def test_temporal_consistency_matches_bruteforce():
    embeds = [unit(rng.normal(size=6)) for _ in range(7)]
    got = temporal_consistency(embeds)
    total = 0.0
    for i in range(1, 7):
        ca = np.dot(embeds[i], embeds[i - 1])
        cb = np.dot(embeds[i], embeds[0])
        total += 0.5 * (ca + cb)
    assert got == pytest.approx(total / 6, abs=1e-9)


def test_temporal_consistency_needs_two():
    with pytest.raises(ValueError):
        temporal_consistency([unit(rng.normal(size=3))])


def test_dynamic_degree_cases():
    static = np.full((4, 8, 8, 3), 0.5)
    assert dynamic_degree(static) == 0.0
    alternating = np.zeros((4, 8, 8, 3))
    alternating[1::2] = 1.0
    assert dynamic_degree(alternating) == pytest.approx(1.0)


def test_dynamic_degree_monotone_with_step_size():
    ident = SpriteIdentity(shape="square", hue_bin=5, size=20)
    slow = generate_sample(ident, SceneParams(frames=9, walk_step=0.8), seed=4)
    fast = generate_sample(ident, SceneParams(frames=9, walk_step=4.0), seed=4)
    assert 0.0 < dynamic_degree(slow.video.data) < dynamic_degree(fast.video.data)


def test_evaluate_perfect_static_video():
    ident = SpriteIdentity(shape="triangle", hue_bin=8, size=24)
    frame = render_identity_frame(ident, 64)
    video = PixelVideo(np.repeat(frame[None], 4, axis=0))
    ref = EvalRef(identity_image=PixelVideo(frame[None]),
                  prompt=f"a {ident.hue_name} {ident.shape} drifts")
    report = evaluate([video], [ref])
    assert report.face_sim == pytest.approx(1.0, abs=1e-9)
    assert report.dino_sim == pytest.approx(1.0, abs=1e-9)
    assert report.temp_consis == pytest.approx(1.0, abs=1e-9)
    assert report.dd == 0.0
    assert report.clip_bt > 0.8


def test_evaluate_counts_missing_detections():
    blank = PixelVideo(np.full((3, 32, 32, 3), 0.5, dtype=np.float32))
    ref = EvalRef(identity_image=blank, prompt="a circle")
    report = evaluate([blank], [ref])
    assert report.missing_detections == 3
    assert report.face_sim is None  # subject metric absent, counted instead


def test_report_schema_matches_expected_columns():
    blank = PixelVideo(np.full((3, 16, 16, 3), 0.3, dtype=np.float32))
    report = evaluate([blank], [EvalRef(prompt="a circle")])
    cols = report.as_columns()
    assert tuple(cols.keys()) == METRIC_COLUMNS
    table = report.render_table("toy")
    for col in METRIC_COLUMNS:
        assert col in table


def test_wrong_identity_scores_lower():
    a = SpriteIdentity(shape="circle", hue_bin=0, size=24)
    b = SpriteIdentity(shape="star", hue_bin=6, size=24)
    frame_a = render_identity_frame(a, 64)
    video_a = PixelVideo(np.repeat(frame_a[None], 3, axis=0))
    ref_same = EvalRef(identity_image=PixelVideo(frame_a[None]))
    ref_other = EvalRef(identity_image=PixelVideo(render_identity_frame(b, 64)[None]))
    same = evaluate([video_a], [ref_same]).face_sim
    other = evaluate([video_a], [ref_other]).face_sim
    assert same > 0.95 and other < same - 0.5


def test_masked_region_error():
    gen = np.zeros((2, 4, 4, 3))
    src = np.ones((2, 4, 4, 3))
    region = np.zeros((2, 4, 4), dtype=np.uint8)
    region[:, :2] = 1
    assert masked_region_error(gen, src, region) == pytest.approx(1.0)
    assert masked_region_error(gen, gen, region) == 0.0


def test_brute_force_cosine_oracle_on_constructed_set():
    ref = unit(rng.normal(size=5))
    frames = [unit(rng.normal(size=5)) for _ in range(9)]
    slow = sum(float(np.dot(ref, f) / (np.linalg.norm(ref) * np.linalg.norm(f)))
               for f in frames) / 9
    assert abs(id_consistency(ref, frames) - slow) < 1e-9
