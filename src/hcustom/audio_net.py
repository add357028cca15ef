"""Audio conditioning: temporal alignment plus per-frame spatial cross-attention.

Per-frame audio features (4 tokens each) are front-padded with zeros to
(f+1)*4 frames and regrouped so each latent frame owns 16 audio tokens.
Injection is a residual cross-attention applied one frame at a time: the
wh latent tokens of frame g attend only to frame g's 16 audio tokens, so
audio at one frame can never touch another frame's latents.  The residual
is scaled by lambda_a; at lambda_a = 0 injection is exactly the identity.

This path is identity-disentangled by construction: nothing here accepts
identity images or fused-prompt tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import ConfigError, DimensionMismatchError, FrameCountError
from .nn import ParamStore, normal_init

TOKENS_PER_AUDIO_FRAME = 4
GROUP = 4  # consecutive audio frames aggregated per latent frame
GROUPED_TOKENS = GROUP * TOKENS_PER_AUDIO_FRAME  # 16
AUDIO_FEATURE_WIDTH = 32  # c_a: feature channels per audio token


@dataclass
class AudioTrack:
    """Features per audio frame, shape [f'_a, 4, c_a]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or self.data.shape[1] != TOKENS_PER_AUDIO_FRAME:
            raise DimensionMismatchError(
                f"audio track must be [f'_a, {TOKENS_PER_AUDIO_FRAME}, c_a], got {self.data.shape}")
        if self.data.shape[0] < 1:
            raise DimensionMismatchError("audio track needs at least one frame")
        if not np.isfinite(self.data).all():
            raise DimensionMismatchError("audio track contains non-finite values")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def feature_width(self) -> int:
        return self.data.shape[2]


@dataclass
class AlignedAudio:
    """Frame-aligned audio, shape [f+1, 16, c_a]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or self.data.shape[1] != GROUPED_TOKENS:
            raise DimensionMismatchError(
                f"aligned audio must be [f+1, {GROUPED_TOKENS}, c_a], got {self.data.shape}")

    @property
    def frames(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class AudioInjectConfig:
    lambda_a: float = 1.0
    width: int = 32
    heads: int = 1

    def __post_init__(self):
        if not np.isfinite(self.lambda_a) or self.lambda_a < 0:
            raise ConfigError("lambda_a", f"must be finite and >= 0, got {self.lambda_a}")
        if self.width % self.heads:
            raise ConfigError("heads", "audio attention width must divide evenly into heads")


def align_audio(audio: AudioTrack, f: int) -> AlignedAudio:
    """Front-pad with zeros to (f+1)*4 audio frames, then group by 4.

    Element mapping: output[g, 4a+b, :] = padded[4g+a, b, :].
    """
    fa = audio.frames
    if f != fa // GROUP + 1:
        raise FrameCountError(
            f"audio has {fa} frames; latent frame count {f} != {fa}//4 + 1")
    pad = (f + 1) * GROUP - fa  # > 0 under the check above
    padded = np.concatenate(
        [np.zeros((pad,) + audio.data.shape[1:], dtype=audio.data.dtype), audio.data],
        axis=0)
    out = padded.reshape(f + 1, GROUP * TOKENS_PER_AUDIO_FRAME, audio.feature_width)
    return AlignedAudio(out)


class AudioInjector:
    """Learned projections for the per-frame audio cross-attention."""

    prefix = "audio"

    def __init__(self, store: ParamStore, rng: np.random.Generator,
                 latent_channels: int, audio_width: int, config: AudioInjectConfig):
        self.config = config
        self.store = store
        prefix = self.prefix
        d = config.width
        store.parameter(f"{prefix}.q.w", normal_init(rng, (latent_channels, d)))
        store.parameter(f"{prefix}.q.b", np.zeros(d))
        store.parameter(f"{prefix}.k.w", normal_init(rng, (audio_width, d)))
        store.parameter(f"{prefix}.k.b", np.zeros(d))
        store.parameter(f"{prefix}.v.w", normal_init(rng, (audio_width, d)))
        store.parameter(f"{prefix}.v.b", np.zeros(d))
        store.parameter(f"{prefix}.o.w", normal_init(rng, (d, latent_channels)))
        store.parameter(f"{prefix}.o.b", np.zeros(latent_channels))

    def _heads(self, x: ag.Tensor, frames: int, length: int) -> ag.Tensor:
        h = self.config.heads
        dh = self.config.width // h
        x = ag.reshape(x, (frames, length, h, dh))
        x = ag.transpose(x, (0, 2, 1, 3))
        return ag.reshape(x, (frames * h, length, dh))

    def cross_attend_t(self, frames_tokens: ag.Tensor, aligned: np.ndarray) -> ag.Tensor:
        """frames_tokens [F, wh, c] attends per frame to aligned [F, 16, c_a],
        given in the tokens' dtype (`CustomVideoModel.prepare` casts it)."""
        p = self.prefix
        F, wh, _ = frames_tokens.shape
        heads = self.config.heads
        dh = self.config.width // heads
        audio = ag.Tensor(aligned)
        q = self._heads(ag.matmul(frames_tokens, self.store[f"{p}.q.w"],
                                  self.store[f"{p}.q.b"]), F, wh)
        k = self._heads(ag.matmul(audio, self.store[f"{p}.k.w"], self.store[f"{p}.k.b"]),
                        F, GROUPED_TOKENS)
        v = self._heads(ag.matmul(audio, self.store[f"{p}.v.w"], self.store[f"{p}.v.b"]),
                        F, GROUPED_TOKENS)
        out = ag.attention(q, k, v, 1.0 / float(np.sqrt(dh)))  # [F*h, wh, dh]
        out = ag.reshape(out, (F, heads, wh, dh))
        out = ag.transpose(out, (0, 2, 1, 3))
        out = ag.reshape(out, (F, wh, heads * dh))
        return ag.matmul(out, self.store[f"{p}.o.w"], self.store[f"{p}.o.b"])


def inject_audio_t(latent_tokens: ag.Tensor, aligned: AlignedAudio,
                   injector: AudioInjector, wh: int) -> ag.Tensor:
    """Taped injection on [(f+1)*wh, c] tokens; shape preserved exactly."""
    F = aligned.frames
    total, c = latent_tokens.shape
    if total != F * wh:
        raise DimensionMismatchError(
            f"latent token count {total} != aligned frames {F} * wh {wh}")
    lam = injector.config.lambda_a
    if lam == 0.0:
        return latent_tokens
    framed = ag.reshape(latent_tokens, (F, wh, c))
    delta = injector.cross_attend_t(framed, aligned.data)
    out = ag.add(framed, ag.mul(delta, lam))
    return ag.reshape(out, (total, c))

