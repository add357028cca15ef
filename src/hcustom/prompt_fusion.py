"""Image-text prompt construction over a pluggable multimodal encoder.

Two templates are supported: `image_embedded` replaces the subject's
descriptor word in the text with an image marker, `image_appended` keeps
the text intact and appends "<SEP> The {word} looks like <image>" per
subject.  At fusion time each marker expands into a 24x24 grid of image
hidden features (576 tokens); the separator is a dedicated learned
embedding that user text can never forge, since raw text is escaped and
the tokenizer only ever emits plain word/punctuation tokens.

`prepare_prompt` resolves a prompt once per sample: the template walk, the
token ids and each image's pooled colours depend on neither the timestep
nor the weights.  `fuse_t` maps that `PreparedPrompt` through the
encoder's weights, at every velocity.

An image token is the projection of one pooled RGB cell, and identity
sprites sit on flat backgrounds, so most of an image's 576 tokens repeat a
few colours.  The fused prompt therefore holds each image's distinct pooled
colours once, with a count per row of the cells it fills (text and
separator rows count 1); the backbone's cross-attention weights each row by
its count (`autograd.attention`), which equals attending over all 576
copies.  The distinct colours are found on the pooled pixels, not on the
projected features.
"""

from __future__ import annotations

import itertools
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
    out: list[tuple[str, object]] = [
        ("text", w) for w in tokenize_text(escape_markers(spec.text))]
    for k, (descriptor, _) in enumerate(spec.subjects, start=1):
        if spec.template is Template.image_appended:
            phrase = ("The", descriptor, "looks", "like")
            out += [("sep", None), *(("text", w) for w in phrase), ("image", k)]
            continue
        hits = [i for i, (tag, w) in enumerate(out)
                if tag == "text" and str(w).lower() == descriptor.lower()]
        if not hits:
            raise MissingDescriptorError(f"descriptor {descriptor!r} does not occur in the text")
        if len(hits) > 1:
            raise DuplicateDescriptorError(f"descriptor {descriptor!r} occurs {len(hits)} times")
        out[hits[0]] = ("image", k)
    return out


def build_template(spec: PromptSpec) -> str:
    """Render the chosen template as a single token string."""
    markers = {"sep": SEP_TEXT, "image": IMAGE_TEXT}
    return " ".join(markers.get(tag, str(value)) for tag, value in _template_tokens(spec))


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


def token_id(word: str) -> int:
    """Row of the encoder's token table: a vocabulary index, or a hashed
    out-of-vocabulary bucket."""
    w = word.lower()
    if w in _TOKEN_IDS:
        return _TOKEN_IDS[w]
    return len(VOCAB) + zlib.crc32(w.encode("utf-8")) % OOV_BUCKETS


@dataclass
class PreparedPrompt:
    """A prompt resolved once: all that `fuse_t` reads besides the weights.

    `pieces` follow the template order: ("text", token ids [n]) for a run of
    words, ("sep", None), or ("image", rows [n, 3]) for the distinct pooled
    colours of one identity image.  `provenance` ("text" | "sep" |
    "image-k") and `counts` hold one entry per fused row; a row's count is
    the number of prompt tokens it stands for.
    """

    pieces: tuple
    provenance: list[str]
    counts: np.ndarray


def prepare_prompt(spec: PromptSpec, include_images: bool = True,
                   dtype=np.float32) -> PreparedPrompt:
    """Walk the template once: token ids per text run, and per image the
    distinct rows of its 24x24 pooled RGB grid (in `dtype`) with the number
    of IMAGE_TOKENS cells each fills.  Without `include_images` the image
    markers are dropped.  Descriptor problems raise their TemplateError."""
    pieces, provenance, counts = [], [], []

    def add(piece, tag, cells):
        pieces.append(piece)
        provenance.extend([tag] * len(cells))
        counts.extend(cells)

    for tag, run in itertools.groupby(_template_tokens(spec), key=lambda item: item[0]):
        if tag == "text":
            ids = np.array([token_id(str(word)) for _, word in run])
            add(("text", ids), "text", [1] * len(ids))
        elif tag == "sep":
            for _ in run:
                add(("sep", None), "sep", [1])
        elif include_images:
            for _, k in run:
                pooled = adaptive_pool_image(spec.subjects[k - 1][1].data[0])
                rows, cells = np.unique(pooled.reshape(IMAGE_TOKENS, 3).astype(dtype),
                                        axis=0, return_counts=True)
                add(("image", rows), f"image-{k}", cells)
    return PreparedPrompt(tuple(pieces), provenance, np.array(counts, dtype=np.int64))


class ToyMultimodalEncoder:
    """Deterministic stand-in for a vision-language encoder: its weights.

    Text path: small-vocabulary embedding table with hashed OOV buckets.
    Image path: a learned linear map of each distinct pooled colour
    (`prepare_prompt`) to the text width.  `fuse_t` applies both.
    """

    prefix = "encoder"

    def __init__(self, store: ParamStore, rng: np.random.Generator, d_text: int = 128):
        self.d_text = d_text
        self.store = store
        prefix = self.prefix
        n_rows = len(VOCAB) + OOV_BUCKETS
        store.parameter(f"{prefix}.token_table", normal_init(rng, (n_rows, d_text), std=0.02))
        store.parameter(f"{prefix}.sep", normal_init(rng, (d_text,), std=0.02))
        store.parameter(f"{prefix}.image.w", normal_init(rng, (3, d_text)))
        store.parameter(f"{prefix}.image.b", np.zeros(d_text))


def toy_encoder(seed: int = 0, d_text: int = 128) -> ToyMultimodalEncoder:
    """Standalone toy encoder with its own parameter store."""
    store = ParamStore()
    return ToyMultimodalEncoder(store, np.random.default_rng(seed), d_text=d_text)


def fuse_t(prompt: PreparedPrompt, encoder: ToyMultimodalEncoder) -> ag.Tensor:
    """Taped fusion: the rows [S, d_text] of a prepared prompt, in the order
    of its provenance.

    A text run is a table lookup, the separator a learned row and an image
    block the projection of its distinct pooled colours, so the counts of
    each "image-k" sum to IMAGE_TOKENS.  Cross-attention over the rows
    weighted by `prompt.counts` is attention over the full prompt of
    sum(counts) tokens.
    """
    store, p = encoder.store, encoder.prefix
    pieces = []
    for kind, value in prompt.pieces:
        if kind == "text":
            pieces.append(ag.embedding(store[f"{p}.token_table"], value))
        elif kind == "sep":
            pieces.append(ag.reshape(store[f"{p}.sep"], (1, encoder.d_text)))
        else:
            pieces.append(ag.matmul(ag.Tensor(value), store[f"{p}.image.w"],
                                    store[f"{p}.image.b"]))
    if not pieces:
        return ag.Tensor(np.zeros((0, encoder.d_text), dtype=store.dtype))
    return ag.concat(pieces, axis=0)
