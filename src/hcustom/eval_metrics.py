"""Evaluation metrics over toy embeddings of the synthetic sprites.

The report mirrors the usual customization-benchmark columns: identity
similarity (Face-Sim), subject appearance similarity (DINO-Sim), text-video
alignment (CLIP-B-T), temporal consistency (Temp-Consis), and dynamic
degree (DD).  Toy embeddings stand in for the face, vision and text
encoders: the identity embedding places a detected sprite by its ground-truth
rendering parameters (shape + hue), which makes identity consistency
literally measure identity match at desk scale, and the text embedding
places a caption's shape and hue words in the same space.

Dynamic degree is a documented proxy (mean absolute inter-frame pixel
difference over the unit value range) rather than an optical-flow measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .latent_codec import PixelVideo
from .prompt_fusion import adaptive_pool_image
from .synth_data import (HUE_NAMES, N_HUE_BINS, SHAPES, BBox,
                         render_sprite_alpha)

METRIC_COLUMNS = ("Face-Sim", "CLIP-B-T", "DINO-Sim", "Temp-Consis", "DD")
SPRITE_SATURATION = 0.18  # channel spread (max - min) above which a pixel is sprite
MIN_SPRITE_PIXELS = 12    # smaller detections count as missing
SHAPE_TEMPERATURE = 16.0  # sharpens shape IoUs into shape probabilities


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(_unit(np.asarray(a, dtype=np.float64)),
                        _unit(np.asarray(b, dtype=np.float64))))


# ---------------------------------------------------------------------------
# aggregation formulas


def id_consistency(ref_embed: np.ndarray, frame_embeds: list[np.ndarray]) -> float:
    """Average cosine similarity between the reference and each frame."""
    if len(frame_embeds) == 0:
        raise ValueError("need at least one frame embedding")
    return float(np.mean([_cos(ref_embed, e) for e in frame_embeds]))


def temporal_consistency(frame_embeds: list[np.ndarray]) -> float:
    """Mean over frames i >= 1 of the average of cos to the previous and first frame."""
    if len(frame_embeds) < 2:
        raise ValueError("need at least two frames")
    terms = [0.5 * (_cos(frame_embeds[i], frame_embeds[i - 1])
                    + _cos(frame_embeds[i], frame_embeds[0]))
             for i in range(1, len(frame_embeds))]
    return float(np.mean(terms))


def dynamic_degree(frames: np.ndarray) -> float:
    """Mean absolute inter-frame pixel difference over the unit value range."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(frames, axis=0)).mean())


def frame_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a, dtype=np.float64)
                        - np.asarray(b, dtype=np.float64)).mean())


def masked_region_error(generated: np.ndarray, source: np.ndarray,
                        region: np.ndarray) -> float:
    """Mean absolute error restricted to region == 1 pixels."""
    region = np.asarray(region, dtype=bool)
    if not region.any():
        return 0.0
    diff = np.abs(np.asarray(generated, dtype=np.float64)
                  - np.asarray(source, dtype=np.float64))
    return float(diff[region].mean())


# ---------------------------------------------------------------------------
# sprite analysis


def detect_sprite(frame: np.ndarray) -> tuple[BBox, np.ndarray] | None:
    """Locate the saturated sprite against the near-gray background: the
    bounding box and mask of the largest saturated component, or None."""
    frame = np.asarray(frame, dtype=np.float64)
    sat = frame.max(axis=-1) - frame.min(axis=-1)
    mask = sat > SPRITE_SATURATION
    if mask.sum() < MIN_SPRITE_PIXELS:
        return None
    from scipy import ndimage  # deferred: 26 MB resident, see tests/test_layering.py
    labels, n = ndimage.label(mask)
    if n > 1:
        sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=range(1, n + 1))
        mask = labels == (int(np.argmax(sizes)) + 1)
        if mask.sum() < MIN_SPRITE_PIXELS:
            return None
    ys, xs = np.nonzero(mask)
    box = BBox(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)
    return box, mask


def estimate_hue(frame: np.ndarray, mask: np.ndarray) -> float:
    """Circular-mean hue of the masked pixels."""
    px = np.asarray(frame, dtype=np.float64)[mask]
    mx = px.max(axis=-1)
    mn = px.min(axis=-1)
    delta = mx - mn
    keep = delta > 0.05
    if not keep.any():
        return 0.0
    px, mx, mn, delta = px[keep], mx[keep], mn[keep], delta[keep]
    r, g, b = px[:, 0], px[:, 1], px[:, 2]
    h = np.where(mx == r, ((g - b) / delta) % 6,
                 np.where(mx == g, (b - r) / delta + 2, (r - g) / delta + 4)) / 6.0
    ang = 2 * np.pi * h
    mean = np.arctan2(np.sin(ang).mean(), np.cos(ang).mean())
    return float((mean / (2 * np.pi)) % 1.0)


def _calibrate_shapes():
    """Measure each shape's bbox extents and center offset in radius units."""
    cal = {}
    R, canvas = 40.0, 128
    for shape in SHAPES:
        alpha = render_sprite_alpha(shape, (canvas / 2, canvas / 2), R, canvas, canvas) > 0.5
        ys, xs = np.nonzero(alpha)
        w = (xs.max() - xs.min() + 1) / R
        h = (ys.max() - ys.min() + 1) / R
        off_x = ((xs.max() + xs.min() + 1) / 2.0 - canvas / 2) / R
        off_y = ((ys.max() + ys.min() + 1) / 2.0 - canvas / 2) / R
        cal[shape] = (w, h, off_x, off_y)
    return cal


_SHAPE_CAL: dict | None = None


def shape_scores(mask: np.ndarray, box: BBox) -> np.ndarray:
    """IoU of the detected silhouette against each canonical shape,
    rendered so its bounding box matches the detected one."""
    global _SHAPE_CAL
    if _SHAPE_CAL is None:
        _SHAPE_CAL = _calibrate_shapes()
    sub = mask[box.y0:box.y1, box.x0:box.x1]
    h, w = sub.shape
    bcx, bcy = (w - 1) / 2.0, (h - 1) / 2.0
    scores = []
    for shape in SHAPES:
        ew, eh, ox, oy = _SHAPE_CAL[shape]
        radius = 0.5 * (w / ew + h / eh)
        center = (bcx - ox * radius, bcy - oy * radius)
        alpha = render_sprite_alpha(shape, center, radius, h, w) > 0.5
        inter = np.logical_and(sub, alpha).sum()
        union = np.logical_or(sub, alpha).sum()
        scores.append(inter / union if union else 0.0)
    return np.asarray(scores)


def shape_probs(mask: np.ndarray, box: BBox) -> np.ndarray:
    s = SHAPE_TEMPERATURE * shape_scores(mask, box)
    e = np.exp(s - s.max())
    return e / e.sum()


_IDENTITY_DIM = len(SHAPES) + 3  # shape probs, hue phase (cos, sin), "nothing"


def identity_embedding(image: np.ndarray, hit) -> np.ndarray:
    """Shape probabilities and hue phase of the sprite that `hit`
    (`detect_sprite(image)`) found in `image`."""
    out = np.zeros(_IDENTITY_DIM)
    if hit is None:
        out[-1] = 1.0  # deterministic "nothing detected" direction
        return out
    box, mask = hit
    hue = estimate_hue(image, mask)
    out[:len(SHAPES)] = shape_probs(mask, box)
    out[len(SHAPES)] = np.cos(2 * np.pi * hue)
    out[len(SHAPES) + 1] = np.sin(2 * np.pi * hue)
    return _unit(out)


def text_embedding(text: str) -> np.ndarray:
    """The shape and hue words of `text`, in the identity embedding's space."""
    out = np.zeros(_IDENTITY_DIM)
    words = text.lower().split()
    for i, s in enumerate(SHAPES):
        if s in words:
            out[i] = 1.0
    for b, name in enumerate(HUE_NAMES):
        if name in words:
            hue = b / N_HUE_BINS
            out[len(SHAPES)] = np.cos(2 * np.pi * hue)
            out[len(SHAPES) + 1] = np.sin(2 * np.pi * hue)
    if not out.any():
        out[-1] = 1.0
    return _unit(out)


def appearance_embedding(image: np.ndarray) -> np.ndarray:
    """DINO-like appearance embedding: the centered 8x8 thumbnail of the image."""
    pooled = adaptive_pool_image(np.asarray(image, dtype=np.float64), 8)
    flat = pooled.reshape(-1)
    flat = flat - flat.mean()
    return _unit(np.concatenate([flat, [0.05]]))


def _crop(image: np.ndarray, box: BBox) -> np.ndarray:
    return np.asarray(image)[box.y0:box.y1, box.x0:box.x1]


@dataclass
class EvalRef:
    """Per-video reference inputs for evaluation."""

    identity_image: PixelVideo | None = None
    prompt: str | None = None


@dataclass
class MetricsReport:
    face_sim: float | None
    dino_sim: float | None
    clip_bt: float | None
    temp_consis: float | None
    dd: float
    per_video: list[dict] = field(default_factory=list)
    missing_detections: int = 0
    n_videos: int = 0

    def as_columns(self) -> dict:
        return {
            "Face-Sim": self.face_sim,
            "CLIP-B-T": self.clip_bt,
            "DINO-Sim": self.dino_sim,
            "Temp-Consis": self.temp_consis,
            "DD": self.dd,
        }

    def render_table(self, name: str = "model") -> str:
        cols = self.as_columns()
        head = "| Models | " + " | ".join(METRIC_COLUMNS) + " |"
        rule = "|" + "---|" * (len(METRIC_COLUMNS) + 1)
        fmt = lambda v: "n/a" if v is None else f"{v:.3f}"
        row = f"| {name} | " + " | ".join(fmt(cols[c]) for c in METRIC_COLUMNS) + " |"
        return "\n".join([head, rule, row])

    def save(self, path, name: str = "model"):
        payload = {
            "columns": self.as_columns(),
            "per_video": self.per_video,
            "missing_detections": self.missing_detections,
            "n_videos": self.n_videos,
            "table": self.render_table(name),
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)


def evaluate(videos: list[PixelVideo], refs: list[EvalRef]) -> MetricsReport:
    """Aggregate the benchmark metrics over (generated video, reference) pairs.

    The sprite is detected once per frame; Face-Sim and DINO-Sim compare the
    crops of the detected sprite with the reference image, and CLIP-B-T
    compares each whole frame's identity embedding with the prompt's.
    """
    rows = []
    missing_total = 0
    for video, ref in zip(videos, refs):
        frames = video.data
        row: dict = {}
        hits = [detect_sprite(fr) for fr in frames]
        crops = [_crop(fr, hit[0]) for fr, hit in zip(frames, hits) if hit is not None]
        missing = len(frames) - len(crops)
        missing_total += missing
        row["missing_detections"] = missing
        if ref.identity_image is not None and crops:
            image = ref.identity_image.data[0]
            ref_hit = detect_sprite(image)
            row["face_sim"] = id_consistency(
                identity_embedding(image, ref_hit),
                [identity_embedding(c, detect_sprite(c)) for c in crops])
            ref_crop = _crop(image, ref_hit[0]) if ref_hit else image
            row["dino_sim"] = id_consistency(appearance_embedding(ref_crop),
                                             [appearance_embedding(c) for c in crops])
        if ref.prompt:
            row["clip_bt"] = id_consistency(
                text_embedding(ref.prompt),
                [identity_embedding(fr, hit) for fr, hit in zip(frames, hits)])
        if len(frames) >= 2:
            row["temp_consis"] = temporal_consistency(
                [appearance_embedding(fr) for fr in frames])
        row["dd"] = dynamic_degree(frames)
        rows.append(row)

    def agg(key):
        vals = [r[key] for r in rows if key in r]
        return float(np.mean(vals)) if vals else None

    return MetricsReport(
        face_sim=agg("face_sim"),
        dino_sim=agg("dino_sim"),
        clip_bt=agg("clip_bt"),
        temp_consis=agg("temp_consis"),
        dd=agg("dd") or 0.0,
        per_video=rows,
        missing_detections=missing_total,
        n_videos=len(rows),
    )
