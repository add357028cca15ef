"""Procedural moving-sprite dataset plus annotation-pipeline procedures.

Each sample is a textured-background video of one or more colored sprites
following a seeded random walk, with a sinusoidal audio envelope that
modulates sprite scale frame-for-frame, a caption built from descriptor
words, and per-frame masks (the union over subjects) that exactly match the
renderer's own alpha.  Identity is fully parameterized (shape, hue,
texture, size), so identity preservation is machine-checkable downstream.

The second half of the module implements the dataset-pipeline procedures
that operate on annotation records: main-subject selection by union-find
track frequency, face/body and box-size validation, union-box cropping
with a coverage guarantee, mask augmentation, score filtering, and
resolution standardization.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .audio_net import AUDIO_FEATURE_WIDTH, AudioTrack
from .container import load_container, reading, save_container
from .errors import InfeasibleCropError
from .latent_codec import PixelVideo

SHAPES = ("circle", "square", "triangle", "star")
TEXTURES = ("flat", "striped", "ringed")
HUE_NAMES = ("red", "orange", "amber", "yellow", "lime", "green",
             "teal", "cyan", "blue", "violet", "purple", "magenta")
N_HUE_BINS = len(HUE_NAMES)
_AUDIO_BASIS = np.random.default_rng(918273).normal(
    0.0, 1.0, size=(4, AUDIO_FEATURE_WIDTH)).astype(np.float32)


@dataclass(frozen=True)
class SpriteIdentity:
    shape: str = "circle"
    hue_bin: int = 0
    texture: str = "flat"
    size: int = 24

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not 0 <= self.hue_bin < N_HUE_BINS:
            raise ValueError(f"hue bin must be in 0..{N_HUE_BINS - 1}")
        if self.texture not in TEXTURES:
            raise ValueError(f"unknown texture {self.texture!r}")

    @property
    def hue(self) -> float:
        return self.hue_bin / N_HUE_BINS

    @property
    def hue_name(self) -> str:
        return HUE_NAMES[self.hue_bin]

    @property
    def descriptor(self) -> str:
        return self.shape


@dataclass(frozen=True)
class SceneParams:
    frames: int = 33
    size: int = 64
    fps: float = 25.0
    walk_step: float = 2.5
    audio_depth: float = 0.35
    caption_style: str = "full"  # "full" mentions hue, "plain" does not


@dataclass
class BBox:
    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate box {(self.x0, self.y0, self.x1, self.y1)}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    def intersection_area(self, other: "BBox") -> int:
        w = min(self.x1, other.x1) - max(self.x0, other.x0)
        h = min(self.y1, other.y1) - max(self.y0, other.y0)
        return max(w, 0) * max(h, 0)

    def to_list(self):
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass
class AnnotationRecord:
    """What the pipeline procedures read of one clip's annotations."""

    clip_id: str
    frame_subjects: list[dict]            # per frame: {subject_id: [x0,y0,x1,y1]}
    scores: dict = field(default_factory=dict)       # koala / sync / iqa (optional)
    id_merges: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class TrainSample:
    video: PixelVideo
    identities: list[SpriteIdentity]
    identity_images: list[PixelVideo]
    audio: AudioTrack
    masks: np.ndarray                      # [f', H, W] uint8, union of subjects
    caption: str
    seed: int
    scene: SceneParams

    @property
    def descriptors(self) -> list[str]:
        return [i.descriptor for i in self.identities]


# ---------------------------------------------------------------------------
# rendering


def _hsv_to_rgb(h, s, v):
    h = (h % 1.0) * 6.0
    i = np.floor(h).astype(int)
    f = h - i
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    table = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)]
    r = np.choose(i % 6, [c[0] for c in table])
    g = np.choose(i % 6, [c[1] for c in table])
    b = np.choose(i % 6, [c[2] for c in table])
    return np.stack([r, g, b], axis=-1)


def shape_distance(shape: str, xs: np.ndarray, ys: np.ndarray, radius: float) -> np.ndarray:
    """Signed distance (negative inside) from each (x, y) to the shape boundary."""
    if shape == "circle":
        return np.hypot(xs, ys) - radius
    if shape == "square":
        return np.maximum(np.abs(xs), np.abs(ys)) - radius
    if shape == "triangle":
        # equilateral, apex up (screen coords): intersection of three half planes
        a = ys - radius * 0.5
        b = 0.5 * np.sqrt(3) * xs - 0.5 * ys - radius * 0.5
        c = -0.5 * np.sqrt(3) * xs - 0.5 * ys - radius * 0.5
        return np.maximum(np.maximum(a, b), c)
    if shape == "star":
        rho = np.hypot(xs, ys)
        theta = np.arctan2(ys, xs)
        spike = (theta / (2 * np.pi / 5)) % 1.0
        edge = radius * (1.0 - 0.55 * (2 * np.abs(spike - 0.5)))
        return rho - edge
    raise ValueError(f"unknown shape {shape!r}")


def _alpha(shape, xs, ys, radius):
    # 0 wherever the signed distance is >= 0.6
    return np.clip(0.5 - shape_distance(shape, xs, ys, radius) / 1.2, 0.0, 1.0)


def render_sprite_alpha(shape: str, center: tuple[float, float], radius: float,
                        height: int, width: int) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    return _alpha(shape, xs - center[0], ys - center[1], radius)


def sprite_window(center, radius, height, width) -> tuple[slice, slice]:
    """Rows and columns of the pixels at most radius + 1.2 from the centre
    on both axes, within the frame.  Outside them every shape's alpha is 0:
    each shape grows by 0.6 where its alpha ends, and the triangle's apex,
    where two edges meet at 60 degrees, moves out by 1.2, to radius + 1.2."""
    reach = radius + 1.2

    def span(c, n):
        return slice(min(max(int(np.ceil(c - reach)), 0), n),
                     max(min(int(np.floor(c + reach)) + 1, n), 0))

    return span(center[1], height), span(center[0], width)


def _palette(identity: SpriteIdentity) -> np.ndarray:
    """The sprite's colours, [k, 3]: one for a flat texture, else three,
    row s + 1 where the sign of the stripe or ring wave is s."""
    value = np.array([0.95]) if identity.texture == "flat" else 0.95 * (
        0.85 + 0.15 * np.array([-1.0, 0.0, 1.0]))
    return _hsv_to_rgb(np.full(len(value), identity.hue), 0.85, value)


def render_identity_frame(identity: SpriteIdentity, size: int = 64) -> np.ndarray:
    """Clean centered render on a flat mid-gray background."""
    frame = np.full((size, size, 3), 0.5, dtype=np.float64)
    mask = np.zeros((size, size), dtype=np.uint8)
    _composite_sprite(frame, mask, identity, _palette(identity), (size / 2, size / 2),
                      identity.size / 2.0)
    return frame.astype(np.float32)


def _composite_sprite(frame, mask, identity, palette, center, radius):
    """Blend the sprite into `frame` [H, W, 3] and OR its alpha > 0.5 into
    `mask` [H, W], in place, on the sprite's window only."""
    rows, cols = sprite_window(center, radius, *frame.shape[:2])
    ys, xs = np.mgrid[rows, cols].astype(np.float64)
    xs -= center[0]
    ys -= center[1]
    alpha = _alpha(identity.shape, xs, ys, radius)[..., None]
    if identity.texture == "flat":
        color = palette[0]
    else:
        wave = xs * np.pi / 4.0 if identity.texture == "striped" else (
            np.hypot(xs, ys) * np.pi / 3.0)
        color = palette[np.sign(np.sin(wave)).astype(np.intp) + 1]
    window = frame[rows, cols]
    window *= 1 - alpha
    window += color * alpha
    mask[rows, cols] |= alpha[..., 0] > 0.5


def _background(rng, frames, size):
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64) / size
    base = 0.45 + 0.1 * rng.random()
    field = np.zeros((size, size))
    for _ in range(3):
        fx, fy = rng.uniform(0.5, 2.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        field += rng.uniform(0.03, 0.08) * np.sin(2 * np.pi * (fx * xs + fy * ys) + phase)
    tint = rng.uniform(-0.02, 0.02, size=3)
    bg = np.clip(base + field, 0.1, 0.9)[..., None] + tint
    return np.broadcast_to(np.clip(bg, 0.05, 0.95), (frames, size, size, 3)).copy()


def _audio_envelope(rng, frames, fps):
    freq = rng.uniform(0.6, 1.8)
    phase = rng.uniform(0, 2 * np.pi)
    k = np.arange(frames)
    return 0.5 + 0.5 * np.sin(2 * np.pi * freq * k / fps + phase), freq, phase


def audio_features_from_envelope(env: np.ndarray, freq: float, phase: float,
                                 fps: float) -> AudioTrack:
    """Deterministic per-frame features: 4 sub-frame tokens through a fixed basis."""
    frames = len(env)
    sub = (np.arange(frames)[:, None] + (np.arange(4)[None, :] + 0.5) / 4.0)
    carrier = 2 * np.pi * freq * sub / fps + phase
    env_sub = 0.5 + 0.5 * np.sin(carrier)
    raw = np.stack([env_sub, np.sin(carrier), np.cos(carrier),
                    np.ones_like(env_sub)], axis=-1)          # [f', 4, 4]
    feats = np.tanh(raw @ _AUDIO_BASIS)                        # [f', 4, 32]
    return AudioTrack(feats.astype(np.float32))


def _caption(identities, scene):
    parts = []
    for ident in identities:
        if scene.caption_style == "full":
            parts.append(f"a {ident.hue_name} {ident.shape}")
        else:
            parts.append(f"a {ident.shape}")
    joined = " and ".join(parts)
    verb = "drifts" if len(identities) == 1 else "drift"
    return f"{joined} {verb} across a textured background"


def generate_sample(identity, scene: SceneParams = SceneParams(),
                    seed: int = 0) -> TrainSample:
    """Render one deterministic sample; `identity` may be one or several sprites."""
    identities = list(identity) if isinstance(identity, (list, tuple)) else [identity]
    rng = np.random.default_rng(np.random.PCG64(seed))
    size, frames = scene.size, scene.frames
    video = _background(rng, frames, size)
    env, freq, phase = _audio_envelope(rng, frames, scene.fps)
    masks = np.zeros((frames, size, size), dtype=np.uint8)
    margin = max(i.size for i in identities) * 0.75
    for ident in identities:
        palette = _palette(ident)
        pos = rng.uniform(margin, size - margin, size=2)
        for k in range(frames):
            scale = 1.0 + scene.audio_depth * (env[k] - 0.5) * 2.0
            radius = ident.size / 2.0 * scale
            _composite_sprite(video[k], masks[k], ident, palette, tuple(pos), radius)
            pos = np.clip(pos + rng.normal(0, scene.walk_step, size=2),
                          margin, size - margin)
    return TrainSample(
        video=PixelVideo(video.astype(np.float32), fps=scene.fps),
        identities=identities,
        identity_images=[PixelVideo(render_identity_frame(i, size)[None],
                                    fps=scene.fps) for i in identities],
        audio=audio_features_from_envelope(env, freq, phase, scene.fps),
        masks=masks,
        caption=_caption(identities, scene),
        seed=seed,
        scene=scene,
    )


# ---------------------------------------------------------------------------
# sample persistence


def save_sample(sample: TrainSample, path):
    arrays = {
        "video": sample.video.data,
        "audio": sample.audio.data,
        "masks": sample.masks,
    }
    for i, img in enumerate(sample.identity_images):
        arrays[f"identity_image_{i}"] = img.data
    meta = {
        "kind": "train_sample",
        "fps": sample.scene.fps,
        "caption": sample.caption,
        "identities": [asdict(i) for i in sample.identities],
        "seed": sample.seed,
        "scene": asdict(sample.scene),
    }
    save_container(path, arrays, meta=meta)


def load_sample(path) -> TrainSample:
    """Read a `save_sample` file.  What older files also held (per-subject
    masks, descriptors, an identity category, an annotation record) is ignored."""
    arrays, meta = load_container(path)
    with reading(path, "train sample"):
        names = [f.name for f in fields(SpriteIdentity)]
        identities = [SpriteIdentity(**{k: d[k] for k in names})
                      for d in meta["identities"]]
        return TrainSample(
            video=PixelVideo(arrays["video"], fps=meta["fps"]),
            identities=identities,
            identity_images=[PixelVideo(arrays[f"identity_image_{i}"], fps=meta["fps"])
                             for i in range(len(identities))],
            audio=AudioTrack(arrays["audio"]),
            masks=arrays["masks"],
            caption=meta["caption"],
            seed=meta["seed"],
            scene=SceneParams(**meta["scene"]),
        )


def identity_pool(seed: int, count: int | None, sizes=(20, 26)) -> list[SpriteIdentity]:
    """The first `count` (None: all) of every identity, in a seeded order."""
    combos = [SpriteIdentity(shape=s, hue_bin=h, texture=t, size=sz)
              for s in SHAPES for h in range(N_HUE_BINS)
              for t in TEXTURES for sz in sizes]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(combos))
    return [combos[i] for i in order[:count]]


MIN_SCENE_SIZE = 9  # twice the walk margin (0.75 x size) of its largest sprite, 6 px


def generate_dataset(out_dir, count: int, seed: int,
                     scene: SceneParams = SceneParams(),
                     subjects_per_sample: int = 1) -> list[str]:
    """Write `count` samples of 1..len(SHAPES) subjects plus a manifest;
    returns the sample paths.  `scene.size` must be >= MIN_SCENE_SIZE."""
    os.makedirs(out_dir, exist_ok=True)
    sizes = (max(round(scene.size * 0.34), 5), max(round(scene.size * 0.46), 6))
    pool = identity_pool(seed, None, sizes=sizes)
    paths = []
    for i in range(count):
        idents = [pool[(i * subjects_per_sample + k) % len(pool)]
                  for k in range(subjects_per_sample)]
        # descriptors must be unique within a sample: a shape that repeats gives
        # way to the pool's next identity of a shape no other subject has
        candidates = iter(pool)
        for k in range(1, len(idents)):
            if idents[k].shape in {x.shape for x in idents[:k]}:
                taken = {x.shape for x in idents[:k] + idents[k + 1:]}
                idents[k] = next(c for c in candidates if c.shape not in taken)
        sample = generate_sample(idents if subjects_per_sample > 1 else idents[0],
                                 scene, seed=seed * 100_003 + i)
        path = os.path.join(out_dir, f"sample_{i:05d}.hc")
        save_sample(sample, path)
        paths.append(path)
    manifest = {"count": count, "seed": seed, "scene": asdict(scene),
                "subjects_per_sample": subjects_per_sample,
                "samples": [os.path.basename(p) for p in paths]}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return paths


def dataset_paths(path) -> list[str]:
    """The sample files of a `generate_dataset` directory, in manifest order."""
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = json.load(f)
    return [os.path.join(path, name) for name in manifest["samples"]]


def load_dataset(path) -> list[TrainSample]:
    return [load_sample(p) for p in dataset_paths(path)]


# ---------------------------------------------------------------------------
# pipeline procedures over annotation records


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, a):
        self.parent.setdefault(a, a)
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller id wins as root for deterministic output
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


def select_main_subject(record: AnnotationRecord, min_frames: int = 50):
    """Most frequent identity track, or None when every track is too short.

    Ids are clustered into tracks with union-find over the record's merge
    links; a track's frequency is the number of frames in which any member
    id appears.  Ties break toward the track containing the lowest id.
    """
    uf = _UnionFind()
    for frame in record.frame_subjects:
        for sid in frame:
            uf.find(sid)
    for a, b in record.id_merges:
        uf.union(a, b)
    counts: dict[int, int] = {}
    for frame in record.frame_subjects:
        roots = {uf.find(sid) for sid in frame}
        for root in roots:
            counts[root] = counts.get(root, 0) + 1
    if not counts:
        return None
    best = min(counts, key=lambda r: (-counts[r], r))
    if counts[best] < min_frames:
        return None
    members = sorted(sid for sid in uf.parent if uf.find(sid) == best)
    return tuple(members)


def validate_face_in_body(face: BBox, body: BBox, threshold: float = 0.5) -> bool:
    """True when enough of the face box lies inside the body box."""
    return face.intersection_area(body) / face.area >= threshold


def validate_bbox_size(box: BBox, width: int, height: int, ratio: float = 0.3) -> bool:
    """Both box dimensions must reach `ratio` of the frame (boundary inclusive)."""
    eps = 1e-9
    return (box.width + eps >= ratio * width) and (box.height + eps >= ratio * height)


def union_box(boxes: list[BBox]) -> BBox:
    if not boxes:
        raise ValueError("need at least one box")
    return BBox(min(b.x0 for b in boxes), min(b.y0 for b in boxes),
                max(b.x1 for b in boxes), max(b.y1 for b in boxes))


ASPECTS = {"1:1": (1, 1), "3:4": (3, 4), "9:16": (9, 16)}


def crop_with_coverage(boxes: list[BBox], width: int, height: int,
                       aspect: str = "1:1", coverage: float = 0.7) -> BBox:
    """Largest aspect-true crop covering >= `coverage` of the union box.

    The crop is centered on the union box then shifted minimally into the
    frame; because overlap only improves as the crop slides toward the
    union center, this placement is optimal for the fixed crop size.
    """
    if aspect not in ASPECTS:
        raise ValueError(f"aspect must be one of {sorted(ASPECTS)}")
    aw, ah = ASPECTS[aspect]
    union = union_box(boxes)
    k = min(width // aw, height // ah)
    if k < 1:
        raise InfeasibleCropError(f"frame {width}x{height} cannot fit aspect {aspect}")
    cw, ch = k * aw, k * ah
    cx = (union.x0 + union.x1) / 2.0
    cy = (union.y0 + union.y1) / 2.0
    x0 = int(round(min(max(cx - cw / 2.0, 0), width - cw)))
    y0 = int(round(min(max(cy - ch / 2.0, 0), height - ch)))
    crop = BBox(x0, y0, x0 + cw, y0 + ch)
    covered = crop.intersection_area(union) / union.area
    if covered < coverage:
        raise InfeasibleCropError(
            f"best {aspect} crop covers {covered:.3f} < {coverage} of the union box")
    return crop


def augment_mask(mask: np.ndarray, mode: str, radius: int = 1) -> np.ndarray:
    """Soften mask boundaries by dilation or by filling the bounding box."""
    mask = np.asarray(mask).astype(bool)
    if mode == "dilate":
        from scipy import ndimage  # deferred: 26 MB resident, see tests/test_layering.py
        elem = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
        return ndimage.binary_dilation(mask, structure=elem).astype(np.uint8)
    if mode == "to_bbox":
        out = np.zeros_like(mask, dtype=np.uint8)
        if mask.any():
            ys, xs = np.nonzero(mask)
            out[ys.min():ys.max() + 1, xs.min():xs.max() + 1] = 1
        return out
    raise ValueError(f"unknown mask augmentation mode {mode!r}")


def filter_clips(records: list[AnnotationRecord], koala_min: float = 0.06,
                 sync_min: float = 3.0, iqa_min: float = 40.0) -> list[AnnotationRecord]:
    """Keep records whose present scores all meet their thresholds."""
    thresholds = {"koala": koala_min, "sync": sync_min, "iqa": iqa_min}
    kept = []
    for record in records:
        ok = True
        for key, minimum in thresholds.items():
            if key in record.scores and record.scores[key] < minimum:
                ok = False
                break
        if ok:
            kept.append(record)
    return kept


def standardize_resolution(video: PixelVideo, short_side: int,
                           aspect: str = "1:1") -> PixelVideo:
    """Resize so the short side hits the target, then center crop/pad to aspect."""
    if aspect not in ASPECTS:
        raise ValueError(f"aspect must be one of {sorted(ASPECTS)}")
    frames, h, w = video.frames, video.height, video.width
    scale = short_side / min(h, w)
    nh, nw = int(round(h * scale)), int(round(w * scale))
    from scipy import ndimage  # deferred: 26 MB resident, see tests/test_layering.py
    resized = ndimage.zoom(video.data, (1, nh / h, nw / w, 1), order=1)
    aw, ah = ASPECTS[aspect]
    if nw <= nh:
        tw, th = short_side, int(round(short_side * ah / aw))
    else:
        th, tw = short_side, int(round(short_side * aw / ah))
    out = np.zeros((frames, th, tw, 3), dtype=resized.dtype)
    # center crop overlap region, pad the rest
    sy = max((nh - th) // 2, 0)
    sx = max((nw - tw) // 2, 0)
    dy = max((th - nh) // 2, 0)
    dx = max((tw - nw) // 2, 0)
    ch = min(th, nh)
    cw = min(tw, nw)
    out[:, dy:dy + ch, dx:dx + cw] = resized[:, sy:sy + ch, sx:sx + cw]
    return PixelVideo(np.clip(out, 0.0, 1.0), fps=video.fps)
