from dataclasses import asdict

import numpy as np
import pytest

from hcustom.container import load_container, save_container
from hcustom.errors import InfeasibleCropError
from hcustom.latent_codec import PixelVideo
from hcustom.synth_data import (AnnotationRecord, BBox, SceneParams,
                                SpriteIdentity, augment_mask,
                                crop_with_coverage, filter_clips,
                                generate_dataset, generate_sample,
                                load_dataset, load_sample, save_sample,
                                select_main_subject, standardize_resolution,
                                union_box, validate_bbox_size,
                                validate_face_in_body)

rng = np.random.default_rng(21)
IDENT = SpriteIdentity(shape="circle", hue_bin=2, texture="flat", size=20)
SCENE = SceneParams(frames=9, size=64)


def test_generation_deterministic():
    a = generate_sample(IDENT, SCENE, seed=7)
    b = generate_sample(IDENT, SCENE, seed=7)
    np.testing.assert_array_equal(a.video.data, b.video.data)
    np.testing.assert_array_equal(a.audio.data, b.audio.data)
    assert a.caption == b.caption


def test_zero_audio_depth_keeps_scale_constant():
    still = SceneParams(frames=9, size=64, audio_depth=0.0, walk_step=0.0)
    s = generate_sample(IDENT, still, seed=3)
    areas = s.masks.sum(axis=(1, 2))
    assert areas.max() == areas.min()  # frozen walk + zero depth: identical masks
    moving = generate_sample(IDENT, SceneParams(frames=9, size=64, audio_depth=0.35,
                                                walk_step=0.0), seed=3)
    modulated = moving.masks.sum(axis=(1, 2))
    assert modulated.max() - modulated.min() > 20  # audio visibly drives scale


def test_mask_matches_renderer_alpha():
    s = generate_sample(IDENT, SCENE, seed=1)
    # regenerate and compare: masks come from the same alpha the frames used
    again = generate_sample(IDENT, SCENE, seed=1)
    for k in range(SCENE.frames):
        inter = np.logical_and(s.masks[k], again.masks[k]).sum()
        union = np.logical_or(s.masks[k], again.masks[k]).sum()
        assert inter == union  # IoU exactly 1


def test_sample_roundtrip(tmp_path):
    s = generate_sample(IDENT, SCENE, seed=2)
    path = tmp_path / "sample.hc"
    save_sample(s, path)
    loaded = load_sample(path)
    np.testing.assert_array_equal(loaded.video.data, s.video.data)
    np.testing.assert_array_equal(loaded.audio.data, s.audio.data)
    np.testing.assert_array_equal(loaded.masks, s.masks)
    assert loaded.caption == s.caption
    assert loaded.identities == s.identities


def test_a_sample_file_holds_video_audio_masks_and_identity_images(tmp_path):
    s = generate_sample([IDENT, SpriteIdentity(shape="star", hue_bin=7)], SCENE, seed=4)
    save_sample(s, tmp_path / "sample.hc")
    arrays, _ = load_container(tmp_path / "sample.hc")
    assert sorted(arrays) == ["audio", "identity_image_0", "identity_image_1", "masks",
                              "video"]


def test_a_sample_file_of_the_older_format_loads(tmp_path):
    # older files also held per-subject masks, descriptors, an identity
    # category and an annotation record; the reader ignores them
    s = generate_sample([IDENT, SpriteIdentity(shape="star", hue_bin=7)], SCENE, seed=4)
    arrays = {"video": s.video.data, "audio": s.audio.data, "masks": s.masks,
              "identity_image_0": s.identity_images[0].data,
              "identity_image_1": s.identity_images[1].data,
              "subject_mask_0": s.masks, "subject_mask_1": s.masks}
    annotation = {"clip_id": "clip000004", "frame_subjects": [{"0": [1, 2, 9, 9]}],
                  "face_boxes": {"0": [3, 2, 7, 4]}, "scores": {"koala": 0.1},
                  "caption": s.caption, "descriptors": s.descriptors, "id_merges": [],
                  "split_point": SCENE.frames}
    meta = {"kind": "train_sample", "fps": SCENE.fps, "caption": s.caption,
            "descriptors": s.descriptors,
            "identities": [dict(asdict(i), category="objects") for i in s.identities],
            "annotation": annotation, "seed": 4, "scene": asdict(SCENE)}
    save_container(tmp_path / "old.hc", arrays, meta=meta)
    loaded = load_sample(tmp_path / "old.hc")
    np.testing.assert_array_equal(loaded.video.data, s.video.data)
    np.testing.assert_array_equal(loaded.masks, s.masks)
    assert loaded.identities == s.identities and loaded.caption == s.caption
    assert [i.data.shape for i in loaded.identity_images] == [(1, 64, 64, 3)] * 2


def test_generate_dataset_manifest(tmp_path):
    paths = generate_dataset(tmp_path / "data", count=3, seed=5, scene=SCENE)
    assert len(paths) == 3
    samples = load_dataset(tmp_path / "data")
    assert len(samples) == 3
    assert len({s.identities[0] for s in samples}) == 3  # unique identities


def test_multi_subject_dataset_distinct_descriptors(tmp_path):
    generate_dataset(tmp_path / "m", count=3, seed=6, scene=SCENE,
                     subjects_per_sample=2)
    for s in load_dataset(tmp_path / "m"):
        assert len(s.identities) == 2
        assert len(set(s.descriptors)) == 2


@pytest.mark.parametrize("subjects", [3, 4])
def test_every_sample_of_up_to_four_subjects_has_distinct_descriptors(tmp_path, subjects):
    # 80 samples of 4 subjects take more identities than the pool's 288
    generate_dataset(tmp_path / "m", count=80, seed=1, scene=SceneParams(frames=1, size=9),
                     subjects_per_sample=subjects)
    samples = load_dataset(tmp_path / "m")
    assert len(samples) == 80
    for s in samples:
        assert sorted(set(s.descriptors)) == sorted(s.descriptors)
        assert len(s.identities) == subjects


# -- pipeline procedures -------------------------------------------------------


def record_with(counts: dict[int, int], merges=(), total=100):
    """Record where subject id k appears in the first counts[k] frames."""
    frames = []
    for i in range(total):
        frame = {}
        for sid, n in counts.items():
            if i < n:
                frame[sid] = [0, 0, 10, 10]
        frames.append(frame)
    return AnnotationRecord(clip_id="t", frame_subjects=frames,
                            id_merges=list(merges))


def test_select_main_subject_argmax():
    assert select_main_subject(record_with({0: 60, 1: 30})) == (0,)


def test_select_main_subject_rejects_short_tracks():
    assert select_main_subject(record_with({0: 49, 1: 49})) is None
    assert select_main_subject(record_with({0: 50})) == (0,)


def test_select_main_subject_tie_breaks_to_lowest_id():
    assert select_main_subject(record_with({2: 60, 1: 60})) == (1,)


def test_select_main_subject_merges_tracks():
    # two fragmented ids linked into one 60-frame track
    frames = []
    for i in range(100):
        frame = {}
        if i < 30:
            frame[5] = [0, 0, 5, 5]
        elif i < 60:
            frame[9] = [0, 0, 5, 5]
        frames.append(frame)
    rec = AnnotationRecord(clip_id="t", frame_subjects=frames, id_merges=[(5, 9)])
    assert select_main_subject(rec) == (5, 9)
    rec_unmerged = AnnotationRecord(clip_id="t", frame_subjects=frames)
    assert select_main_subject(rec_unmerged) is None


def test_select_main_subject_frame_order_invariant():
    rec = record_with({0: 60, 1: 55})
    shuffled = AnnotationRecord(clip_id="t", frame_subjects=list(reversed(rec.frame_subjects)))
    assert select_main_subject(rec) == select_main_subject(shuffled)


def test_validate_face_in_body():
    body = BBox(0, 0, 100, 100)
    assert validate_face_in_body(BBox(10, 10, 20, 20), body)
    assert not validate_face_in_body(BBox(200, 200, 210, 210), body)
    # boundary: exactly half the face inside counts
    assert validate_face_in_body(BBox(0, 0, 10, 10), BBox(5, 0, 20, 10))


def test_validate_bbox_size():
    assert validate_bbox_size(BBox(0, 0, 100, 100), 100, 100)
    assert not validate_bbox_size(BBox(0, 0, 20, 90), 100, 100)
    assert validate_bbox_size(BBox(0, 0, 30, 30), 100, 100)  # exactly 0.3, inclusive


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        BBox(5, 5, 5, 10)


def test_union_box():
    u = union_box([BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)])
    assert u.to_list() == [0, 0, 30, 30]


def test_crop_fully_covers_small_centered_box():
    crop = crop_with_coverage([BBox(40, 40, 60, 60)], 100, 100, "1:1")
    u = BBox(40, 40, 60, 60)
    assert crop.intersection_area(u) == u.area


def test_crop_corner_union_box_9_16():
    crop = crop_with_coverage([BBox(0, 0, 30, 30)], 90, 160, "9:16")
    assert crop.to_list() == [0, 0, 90, 160]
    assert crop.intersection_area(BBox(0, 0, 30, 30)) >= 0.7 * 900


def test_crop_infeasible_raises():
    with pytest.raises(InfeasibleCropError):
        # union box spans the whole wide frame; a 1:1 crop cannot cover 70%
        crop_with_coverage([BBox(0, 0, 400, 100)], 400, 100, "1:1")


def test_crop_pixel_count_oracle():
    r = np.random.default_rng(0)
    for _ in range(25):
        W, H = int(r.integers(40, 200)), int(r.integers(40, 200))
        x0 = int(r.integers(0, W - 10))
        y0 = int(r.integers(0, H - 10))
        box = BBox(x0, y0, x0 + int(r.integers(5, W - x0)), y0 + int(r.integers(5, H - y0)))
        try:
            crop = crop_with_coverage([box], W, H, "1:1")
        except InfeasibleCropError:
            continue
        grid = np.zeros((H, W), dtype=bool)
        grid[box.y0:box.y1, box.x0:box.x1] = True
        pixel_overlap = grid[crop.y0:crop.y1, crop.x0:crop.x1].sum()
        assert pixel_overlap == crop.intersection_area(box)
        assert pixel_overlap >= 0.7 * box.area
        assert 0 <= crop.x0 and crop.x1 <= W and 0 <= crop.y0 and crop.y1 <= H


def test_augment_mask_dilate_single_pixel():
    mask = np.zeros((7, 7), dtype=np.uint8)
    mask[3, 3] = 1
    out = augment_mask(mask, "dilate", radius=1)
    assert out.sum() == 9
    assert out[2:5, 2:5].all()


def test_augment_mask_to_bbox_l_shape():
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[1:5, 1] = 1
    mask[4, 1:4] = 1
    out = augment_mask(mask, "to_bbox")
    assert out[1:5, 1:4].all() and out.sum() == 12


def test_dilate_composition_identity():
    mask = (rng.random((20, 20)) > 0.8).astype(np.uint8)
    twice = augment_mask(augment_mask(mask, "dilate", 2), "dilate", 2)
    once = augment_mask(mask, "dilate", 4)
    np.testing.assert_array_equal(twice, once)


def _rec(**scores):
    return AnnotationRecord(clip_id="x", frame_subjects=[], scores=scores)


def test_filter_thresholds_exact_boundaries():
    assert filter_clips([_rec(koala=0.05)]) == []
    assert filter_clips([_rec(koala=0.06)]) != []
    assert filter_clips([_rec(sync=2.99)]) == []
    assert filter_clips([_rec(sync=3.0)]) != []
    assert filter_clips([_rec(iqa=39.9)]) == []
    assert filter_clips([_rec(iqa=40.0)]) != []
    assert filter_clips([_rec()]) != []  # missing scores do not reject


def test_filter_monotone_in_thresholds():
    records = [_rec(koala=k, sync=s, iqa=q)
               for k in (0.04, 0.06, 0.2) for s in (2.0, 3.5) for q in (39.0, 60.0)]
    base = {r.clip_id for r in filter_clips(records)}
    kept = filter_clips(records, koala_min=0.1, sync_min=4.0, iqa_min=50.0)
    assert len(kept) <= len(base)
    for r in kept:
        assert r in filter_clips(records)


def test_standardize_resolution_scaling():
    video = PixelVideo(rng.random((2, 128, 256, 3), dtype=np.float32))
    out = standardize_resolution(video, 64, "1:1")
    assert out.data.shape == (2, 64, 64, 3)
    already = PixelVideo(rng.random((2, 64, 64, 3), dtype=np.float32))
    np.testing.assert_allclose(standardize_resolution(already, 64, "1:1").data,
                               already.data, atol=1e-6)
    square = standardize_resolution(PixelVideo(rng.random((1, 100, 100, 3),
                                                          dtype=np.float32)), 64)
    assert square.data.shape == (1, 64, 64, 3)
