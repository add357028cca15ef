"""Image-text prompt construction over a pluggable multimodal encoder.

Two templates are supported: `image_embedded` replaces the subject's
descriptor word in the text with an image marker, `image_appended` keeps
the text intact and appends "<SEP> The {word} looks like <image>" per
subject.  At fusion time each marker expands into a 24x24 grid of image
hidden features (576 tokens); the separator is a dedicated learned
embedding that user text can never forge, since raw text is escaped and
the tokenizer only ever emits plain word/punctuation tokens.

An image token is the projection of one pooled RGB cell, and identity
sprites sit on flat backgrounds, so most of an image's 576 tokens repeat a
few colours.  The fused prompt therefore holds each image's distinct pooled
colours once, with a count per row of the cells it fills (text and
separator rows count 1); the backbone's cross-attention weights each row by
its count (`autograd.attention`), which equals attending over all 576
copies.  The distinct colours are found on the pooled pixels, once per
image, not on the projected features.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autograd as ag
from .errors import DuplicateDescriptorError, MissingDescriptorError, TemplateError
from .latent_codec import PixelVideo
from .nn import ParamStore, normal_init

IMAGE_GRID = 24
IMAGE_TOKENS = IMAGE_GRID * IMAGE_GRID  # 576

SEP_TEXT = "<SEP>"
IMAGE_TEXT = "<image>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

VOCAB = (
    "a an the and is are was over on in at to of with looks like moves drifts "
    "across under behind beside around background scene while slowly quickly "
    "red orange amber yellow lime green teal cyan blue violet purple magenta "
    "gray circle square triangle star sprite subject pulse pulses speaks sings "
    "textured striped ringed flat small large plain calm busy left right up down"
).split()
OOV_BUCKETS = 32  # table rows that out-of-vocabulary words hash into
_TOKEN_IDS = {w: i for i, w in enumerate(VOCAB)}


class Template(str, Enum):
    image_embedded = "image_embedded"
    image_appended = "image_appended"


@dataclass
class PromptSpec:
    """Text plus ordered (descriptor word, identity image) subjects."""

    text: str
    subjects: list[tuple[str, PixelVideo]] = field(default_factory=list)
    template: Template = Template.image_appended

    def __post_init__(self):
        if isinstance(self.template, str):
            self.template = Template(self.template)
        for word, image in self.subjects:
            if image.frames != 1:
                raise TemplateError(f"identity image for {word!r} must be a single frame")


def tokenize_text(text: str) -> list[str]:
    """Split on whitespace, keeping punctuation as separate tokens."""
    return _TOKEN_RE.findall(text)


def escape_markers(text: str) -> str:
    """Neutralize literal separator/marker strings in user text."""
    return text.replace(SEP_TEXT, "\\<SEP>").replace(IMAGE_TEXT, "\\<image>")


def _template_tokens(spec: PromptSpec) -> list[tuple[str, object]]:
    """Tagged token stream: ("text", word) | ("sep", None) | ("image", k)."""
    words = tokenize_text(escape_markers(spec.text))
    if spec.template is Template.image_embedded:
        out: list[tuple[str, object]] = [("text", w) for w in words]
        for k, (descriptor, _) in enumerate(spec.subjects, start=1):
            hits = [i for i, (tag, w) in enumerate(out)
                    if tag == "text" and str(w).lower() == descriptor.lower()]
            if not hits:
                raise MissingDescriptorError(
                    f"descriptor {descriptor!r} does not occur in the text")
            if len(hits) > 1:
                raise DuplicateDescriptorError(
                    f"descriptor {descriptor!r} occurs {len(hits)} times")
            out[hits[0]] = ("image", k)
        return out
    out = [("text", w) for w in words]
    for k, (descriptor, _) in enumerate(spec.subjects, start=1):
        out.append(("sep", None))
        out.extend(("text", w) for w in ["The", descriptor, "looks", "like"])
        out.append(("image", k))
    return out


def build_template(spec: PromptSpec) -> str:
    """Render the chosen template as a single token string."""
    parts = []
    for tag, value in _template_tokens(spec):
        if tag == "text":
            parts.append(str(value))
        elif tag == "sep":
            parts.append(SEP_TEXT)
        else:
            parts.append(IMAGE_TEXT)
    return " ".join(parts)


def adaptive_pool_image(image: np.ndarray, grid: int = IMAGE_GRID) -> np.ndarray:
    """Average-pool [H,W,3] onto a fixed grid x grid mesh (any input size)."""
    h, w = image.shape[:2]
    out = np.empty((grid, grid, image.shape[2]), dtype=np.float64)
    rs = [(int(np.floor(b * h / grid)), max(int(np.ceil((b + 1) * h / grid)), int(np.floor(b * h / grid)) + 1)) for b in range(grid)]
    cs = [(int(np.floor(b * w / grid)), max(int(np.ceil((b + 1) * w / grid)), int(np.floor(b * w / grid)) + 1)) for b in range(grid)]
    for i, (r0, r1) in enumerate(rs):
        for j, (c0, c1) in enumerate(cs):
            out[i, j] = image[r0:r1, c0:c1].mean(axis=(0, 1))
    return out


class ToyMultimodalEncoder:
    """Deterministic stand-in for a vision-language encoder.

    Text path: small-vocabulary embedding table with hashed OOV buckets.
    Image path: fixed 24x24 average pooling of the identity image followed
    by a learned linear map to the text width, applied to each distinct
    pooled colour once.
    """

    prefix = "encoder"

    def __init__(self, store: ParamStore, rng: np.random.Generator, d_text: int = 128):
        self.d_text = d_text
        self.store = store
        self._pool_cache: dict = {}
        prefix = self.prefix
        n_rows = len(VOCAB) + OOV_BUCKETS
        store.parameter(f"{prefix}.token_table", normal_init(rng, (n_rows, d_text), std=0.02))
        store.parameter(f"{prefix}.sep", normal_init(rng, (d_text,), std=0.02))
        store.parameter(f"{prefix}.image.w", normal_init(rng, (3, d_text)))
        store.parameter(f"{prefix}.image.b", np.zeros(d_text))

    def token_id(self, word: str) -> int:
        w = word.lower()
        if w in _TOKEN_IDS:
            return _TOKEN_IDS[w]
        return len(VOCAB) + zlib.crc32(w.encode("utf-8")) % OOV_BUCKETS

    def encode_text_t(self, words: list[str]) -> ag.Tensor:
        if not words:
            return ag.Tensor(np.zeros((0, self.d_text), dtype=self.store.dtype))
        ids = np.array([self.token_id(w) for w in words])
        return ag.embedding(self.store[f"{self.prefix}.token_table"], ids)

    def sep_t(self) -> ag.Tensor:
        return ag.reshape(self.store[f"{self.prefix}.sep"], (1, self.d_text))

    def _pooled(self, image: PixelVideo) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of the image's 24x24 pooled RGB grid, and how
        many of its IMAGE_TOKENS cells each row fills."""
        # pooling is pure and images are reused every step: cache by content,
        # under a digest that no two images can be made to share
        data = image.data
        key = (data.shape, data.dtype.str, hashlib.sha256(data.tobytes()).digest())
        hit = self._pool_cache.get(key)
        if hit is None:
            pooled = adaptive_pool_image(data[0]).reshape(IMAGE_TOKENS, 3)
            hit = np.unique(pooled.astype(self.store.dtype), axis=0, return_counts=True)
            if len(self._pool_cache) < 4096:
                self._pool_cache[key] = hit
        return hit

    def encode_image_t(self, image: PixelVideo) -> tuple[ag.Tensor, np.ndarray]:
        """Hidden features [n, d_text] of the image's n distinct pooled
        colours, and the count of grid cells each one stands for."""
        rows, counts = self._pooled(image)
        features = ag.matmul(ag.Tensor(rows), self.store[f"{self.prefix}.image.w"],
                             self.store[f"{self.prefix}.image.b"])
        return features, counts


def toy_encoder(seed: int = 0, d_text: int = 128) -> ToyMultimodalEncoder:
    """Standalone toy encoder with its own parameter store."""
    store = ParamStore()
    return ToyMultimodalEncoder(store, np.random.default_rng(seed), d_text=d_text)


def fuse_t(spec: PromptSpec, encoder: ToyMultimodalEncoder, include_images: bool = True
           ) -> tuple[ag.Tensor, list[str], np.ndarray]:
    """Taped fusion: expand markers into image feature blocks.

    Returns the fused rows [S, d_text], each row's provenance ("text" |
    "sep" | "image-k") and each row's count: how many prompt tokens the row
    stands for.  A text or separator row is one token; an image block holds
    one row per distinct pooled colour of its identity image, counted by the
    grid cells it fills, so the counts of each "image-k" sum to
    IMAGE_TOKENS.  Cross-attention over the rows weighted by their counts is
    attention over the full prompt of sum(counts) tokens.
    """
    tagged = _template_tokens(spec)
    pieces: list[ag.Tensor] = []
    provenance: list[str] = []
    counts: list[int] = []
    run: list[str] = []

    def flush():
        if run:
            pieces.append(encoder.encode_text_t(run))
            provenance.extend("text" for _ in run)
            counts.extend(1 for _ in run)
            run.clear()

    for tag, value in tagged:
        if tag == "text":
            run.append(str(value))
        elif tag == "sep":
            flush()
            pieces.append(encoder.sep_t())
            provenance.append("sep")
            counts.append(1)
        else:
            flush()
            if include_images:
                k = int(value)
                rows, image_counts = encoder.encode_image_t(spec.subjects[k - 1][1])
                pieces.append(rows)
                provenance.extend(f"image-{k}" for _ in range(len(image_counts)))
                counts.extend(image_counts)
    flush()
    row_counts = np.array(counts, dtype=np.int64)
    if not pieces:
        empty = ag.Tensor(np.zeros((0, encoder.d_text), dtype=encoder.store.dtype))
        return empty, [], row_counts
    return ag.concat(pieces, axis=0), provenance, row_counts
