import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from hcustom.container import load_container, save_container
from hcustom.errors import InfeasibleCropError
from hcustom.latent_codec import PixelVideo
from hcustom.synth_data import (SHAPES, TEXTURES, AnnotationRecord, BBox,
                                SceneParams, SpriteIdentity, augment_mask,
                                crop_with_coverage, filter_clips,
                                generate_dataset, generate_sample,
                                load_dataset, load_sample,
                                render_identity_frame, render_sprite_alpha,
                                save_sample, select_main_subject,
                                sprite_window, standardize_resolution,
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


def _rendered_arrays(kind, *args):
    """Every array `generate_sample` returns for one case, or one identity
    render larger than its 16x16 frame (kind "frame")."""
    if kind == "frame":
        shape, texture = args
        return [render_identity_frame(SpriteIdentity(shape, 9, texture, size=24), 16)]
    if kind == "sprite":
        shape, texture, size = args
        idents = [SpriteIdentity(shape, 5, texture, size=max(round(size * 0.46), 6))]
    else:
        subjects, size = args
        idents = [SpriteIdentity(SHAPES[k], 3 * k + 1, TEXTURES[k % 3],
                                 size=max(round(size * (0.34, 0.46)[k % 2]), 5 + k % 2))
                  for k in range(subjects)]
    s = generate_sample(idents, SceneParams(frames=5, size=size), seed=size + len(idents))
    return [s.video.data, s.audio.data, s.masks] + [i.data for i in s.identity_images]


# sha256 over each array's dtype, shape and bytes.  At size 9 every sprite
# is cut by the frame edge.
RENDER_DIGESTS = {
    ('sprite', 'circle', 'flat', 9): "cee750f9008999c1e9755b7ed3f6154f22a66a409a993563e1013abfa2eb91fa",
    ('sprite', 'circle', 'flat', 64): "39c76bfe7aee22dce9b017da61860dd01fca380043f4c356cd65500f542c7a18",
    ('sprite', 'circle', 'striped', 9): "d1fa4405dc9d36b2891c21d141a7cc85c0bf94f7b6a0fc363ffe8cec9699e10a",
    ('sprite', 'circle', 'striped', 64): "2085cb9311dac0d0902d7e5c38b99fc61af26e670afd9746881499bd1cdf3a32",
    ('sprite', 'circle', 'ringed', 9): "895357c348a583425d0d9a824dc07c554723edde802e682c9c7572079ad82d21",
    ('sprite', 'circle', 'ringed', 64): "8567257243cb0a21b2bbbd088a529991884bad82a0f2708696bca588580a4c32",
    ('sprite', 'square', 'flat', 9): "efaea6b33bae81d4322021dc220428ce2c8dccca07062f3127490d774282ce2c",
    ('sprite', 'square', 'flat', 64): "cb0d03e4234cab6b367e8cf28da1c7f792503ce61f08fd548dcac51326839e64",
    ('sprite', 'square', 'striped', 9): "bf9895a79342240b2236ca5c30b864e39e279751b707f67e0388c994b7a000a9",
    ('sprite', 'square', 'striped', 64): "3ab8b65f548031b7f81f5fa16291d0619314b8c3c77974e07ae7d116372cb462",
    ('sprite', 'square', 'ringed', 9): "6ae132f4ceb4374dd64ad84f3097a0631ace8f736eb73a3367595b64bdb7ef50",
    ('sprite', 'square', 'ringed', 64): "2ef3eb5a994fce8884b3e67e3e84943743ed82d0aae646bfb29395a5d2b1323c",
    ('sprite', 'triangle', 'flat', 9): "9d90ebcd2d47a63b442748757569684ca356cc0a0fec10072db543f18903a9bb",
    ('sprite', 'triangle', 'flat', 64): "ea20af414628ce2843eacd94f9db13f47fe92c82f367171cf1cce8c31cabdd26",
    ('sprite', 'triangle', 'striped', 9): "0d1bc3c2716883cecf2a1242fa4b5d644b7f47751dff6854f9b7bbb2a5de71b2",
    ('sprite', 'triangle', 'striped', 64): "40f1145e1f2124c58d04f8f3edd089e0705e3377b176f55fcf2bfae90270b2df",
    ('sprite', 'triangle', 'ringed', 9): "9d90ebcd2d47a63b442748757569684ca356cc0a0fec10072db543f18903a9bb",
    ('sprite', 'triangle', 'ringed', 64): "7fb63745baea81ad00f0489666c99ccdef96b51624ec920aab4be423e047f2fc",
    ('sprite', 'star', 'flat', 9): "0320010c9d36b28611a0d44bd51611ec070ca5392a153850119f85aa8d5569fe",
    ('sprite', 'star', 'flat', 64): "6e312d0dc241a51eb92d4e9beb236384b99a6d929e1305c021b68d4f707f5216",
    ('sprite', 'star', 'striped', 9): "b1014f2bcc8489310ba5b926a8069bedc1ff9a86f5d8e311535cc8e500be9926",
    ('sprite', 'star', 'striped', 64): "6806c77b1bd7b7e870d7ebad247498583725dbc833a330905b920668ca282a8a",
    ('sprite', 'star', 'ringed', 9): "0320010c9d36b28611a0d44bd51611ec070ca5392a153850119f85aa8d5569fe",
    ('sprite', 'star', 'ringed', 64): "5d29fe0f49aa1f21d6d83366afff7e2a984101376951f010f8ebbdddac87d763",
    ('subjects', 1, 9): "5f80260bf9a59c724ef944b3d432d9ad94012e84dedf85b469fbf3941697a659",
    ('subjects', 1, 64): "9abc4738de9ef299b1df85f875fa2d649f0ce65dc7768853af0a37e08fac9bde",
    ('subjects', 2, 9): "823b7b8a6749dafde8f0105044cb75473f35edfd7756d91f44d96c7b5fcb64a2",
    ('subjects', 2, 64): "a0245d563cb777dfba35ceb6d95d3d639ab79738fa4471e5ec292493a328f31b",
    ('subjects', 3, 9): "cd41ee02c8e48d0839bea68d4238c83eb76823fe9a51d4f9dd8a019e3ab0e56d",
    ('subjects', 3, 64): "d6347f84c7c8d5ced7e3a0d173f647ad4d57b2816d3a98b1a3ab747599653251",
    ('subjects', 4, 9): "4cf4a7637b7b0e2774c0060eab3dc63d9e40c04652d5c90281bccf3ed7fbca95",
    ('subjects', 4, 64): "09bc4192c9695930572c40a42cc6326ec59e3e2335052fe5df24fdcef855ff1a",
    ('frame', 'circle', 'flat'): "0676ef9e4265c5ae56836474351d559e14bc6809e7e83672cea79c1dbf897074",
    ('frame', 'circle', 'striped'): "3b8bb167f65713ce981e55521fdb00eb4b5db1e723043f79fe472eda5a688f97",
    ('frame', 'circle', 'ringed'): "f086e53091aa172a3e1123e801e318c33e696867074133bfe11eab0bfd2820fa",
    ('frame', 'square', 'flat'): "0676ef9e4265c5ae56836474351d559e14bc6809e7e83672cea79c1dbf897074",
    ('frame', 'square', 'striped'): "3b8bb167f65713ce981e55521fdb00eb4b5db1e723043f79fe472eda5a688f97",
    ('frame', 'square', 'ringed'): "f086e53091aa172a3e1123e801e318c33e696867074133bfe11eab0bfd2820fa",
    ('frame', 'triangle', 'flat'): "0c75f3ca381d11d903845c8417489913ae853bc7da1e261ec93ecd531168a40f",
    ('frame', 'triangle', 'striped'): "eb9f115e9a5d96912540c246ab2f2f91aebd5b498eccbbefe1205ba1c323ebf0",
    ('frame', 'triangle', 'ringed'): "39dd8f75e8bf63095611643da6035ae6194155ae9f797304f96150135607a31a",
    ('frame', 'star', 'flat'): "3a07198fbbe95b90a2681695b89faf04d4bce1838262a24bb1542c6088994b2c",
    ('frame', 'star', 'striped'): "c3afa0f6fe13f8f5028744eb053efbc7832c1105aff0c66e0ea2fc84918e7879",
    ('frame', 'star', 'ringed'): "86ed6cd1b80f543bcc4079167459e619fd49c4a7ca488c11d3f3b06812a6ee65",
}


@pytest.mark.parametrize("case", list(RENDER_DIGESTS),
                         ids=lambda c: "-".join(map(str, c)))
def test_rendered_arrays_keep_their_bits(case):
    h = hashlib.sha256()
    for a in _rendered_arrays(*case):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    assert h.hexdigest() == RENDER_DIGESTS[case]


@pytest.mark.parametrize("shape", SHAPES)
def test_alpha_is_zero_outside_the_sprite_window(shape):
    # the radii generate_sample draws: identity sizes 5..29 (scenes 9..64)
    # over half, times 1 -/+ audio_depth
    depth = SceneParams().audio_depth
    radii = np.linspace(2.5 * (1 - depth), 14.5 * (1 + depth), 23)
    centres = [(31.0, 31.0), (20.37, 40.81), (0.4, 63.2), (63.9, 2.5)]
    for radius in radii:
        reach = radius + 1.2
        # a pixel just inside the triangle's apex, 1e-6 short of the reach
        apex = [(32.0, 20 + reach - 1e-6), (32.0, 20.5 + reach - 1e-6)]
        for centre in centres + apex:
            alpha = render_sprite_alpha(shape, centre, radius, 64, 64)
            rows, cols = sprite_window(centre, radius, 64, 64)
            alpha[rows, cols] = 0.0
            assert not alpha.any(), (shape, radius, centre)


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
