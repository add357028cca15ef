"""Video conditioning: masked encoding, feature alignment, concat compression.

The condition video is blanked to mid-gray wherever its mask is 0 (the
region to be replaced), encoded with the shared codec, serialized with the
same tokenizer as the generation target, and passed through a four-layer
fully connected alignment network (zero-initialized final layer).  In the
default add mode the model projects the aligned features to the backbone
width by their own input projection (`vidin.w`) and the backbone adds them
frame-by-frame to the video tokens right after its input projection, with
a zero term on the identity rows.  Adding in the c latent channels instead
would sum the condition into the same directions as the noisy latent, where
the backbone cannot tell the two apart.  The token sequence does not grow,
so attention cost is unchanged by conditioning.  The concat variant, kept
for ablations, stacks [video latent || aligned condition] per token and
compresses it back to latent width (`ConcatCompressor`): there the
alignment net's final layer is drawn at random and the compressor's
condition rows start at zero, so exactly one factor of the product is zero
and both receive gradients after the first step.

Like the audio path, this module never sees identity images or prompt
tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import DimensionMismatchError
from .latent_codec import LatentCodec, PixelVideo, tokenize
from .nn import ParamStore, normal_init

BLANK_VALUE = 0.5


@dataclass
class ConditionVideo:
    """Source pixels plus an optional {0,1} mask (0 marks the editable region)."""

    pixels: PixelVideo
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.mask is not None:
            self.mask = np.asarray(self.mask)
            if self.mask.shape != self.pixels.data.shape[:3]:
                raise DimensionMismatchError(
                    f"mask shape {self.mask.shape} != video shape {self.pixels.data.shape[:3]}")
            if not np.isin(self.mask, (0, 1)).all():
                raise DimensionMismatchError("mask values must be binary")


def encode_condition(video: ConditionVideo, codec: LatentCodec) -> np.ndarray:
    """Blank masked-out pixels to mid-gray, encode, and serialize to tokens."""
    frames = video.pixels.data
    if video.mask is not None:
        frames = np.where(video.mask[..., None].astype(bool), frames, BLANK_VALUE)
    return tokenize(codec.encode(PixelVideo(frames, fps=video.pixels.fps)))


class AlignmentNet:
    """Four affine layers (c -> d_a -> d_a -> d_a -> c).

    The output layer is zero-initialized by default, so add-mode injection
    starts as the identity.  With `zero_output=False` it is drawn like the
    other layers; concat mode needs this because its ConcatCompressor
    already zeroes the condition path (two zero factors in a product would
    keep each other's gradients at zero forever).
    """

    NUM_LAYERS = 4
    prefix = "align"

    def __init__(self, store: ParamStore, rng: np.random.Generator,
                 channels: int, hidden: int, zero_output: bool = True):
        self.store = store
        prefix = self.prefix
        dims = [channels, hidden, hidden, hidden, channels]
        for i in range(self.NUM_LAYERS):
            zero = zero_output and i == self.NUM_LAYERS - 1
            w = np.zeros((dims[i], dims[i + 1])) if zero else normal_init(rng, (dims[i], dims[i + 1]))
            store.parameter(f"{prefix}.l{i}.w", w)
            store.parameter(f"{prefix}.l{i}.b", np.zeros(dims[i + 1]))

    def forward_t(self, tokens: ag.Tensor) -> ag.Tensor:
        x = tokens
        for i in range(self.NUM_LAYERS):
            x = ag.matmul(x, self.store[f"{self.prefix}.l{i}.w"],
                          self.store[f"{self.prefix}.l{i}.b"])
            if i < self.NUM_LAYERS - 1:
                x = ag.gelu(x)
        return x


class ConcatCompressor:
    """Learned projection [latent || condition] -> latent width (concat mode).

    Initialized to pass the latent through untouched and ignore the
    condition: the latent rows start as the identity and the condition rows
    at zero.  In concat mode the alignment net feeding it is built with a
    random (not zero) output layer, so the condition rows get a non-zero
    gradient from the first step and the alignment net from the second.
    """

    prefix = "vidcat"

    def __init__(self, store: ParamStore, channels: int):
        self.store = store
        w = np.concatenate([np.eye(channels), np.zeros((channels, channels))], axis=0)
        store.parameter(f"{self.prefix}.w", w)
        store.parameter(f"{self.prefix}.b", np.zeros(channels))

    def forward_t(self, video: ag.Tensor, condition: ag.Tensor) -> ag.Tensor:
        """video [f*wh, c] and aligned condition [f*wh, c] -> [f*wh, c]."""
        if condition.shape[0] != video.shape[0]:
            raise DimensionMismatchError(
                f"condition tokens {condition.shape[0]} != video tokens {video.shape[0]}")
        stacked = ag.concat([video, condition], axis=1)
        return ag.matmul(stacked, self.store[f"{self.prefix}.w"],
                         self.store[f"{self.prefix}.b"])
