"""Assembly of the conditioned velocity model and its checkpoint format.

A CustomVideoModel owns every trainable parameter group in one store:
the toy multimodal encoder, the diffusion-transformer backbone, the audio
cross-attention projections, the condition-video alignment network, and
the concat-mode compressor.  Conditioning branches are wired per sample:
identity tokens are prepended (or channel-concatenated under the ablation
flag), condition-video features are added to the video tokens after the
backbone's input projection (add mode) or stacked onto the latents and
compressed back to latent width (concat mode), audio is
cross-attended per frame, and the fused prompt feeds cross-attention inside
every block.  `prepare` resolves every input once per sample, in the
model's dtype: the sequence layout (subjects 1..m, then the video, at
`rope3d.sequence_positions`), the identity latent, the prompt's token ids
and pooled colours, the audio and the condition.  `velocity_t` computes
from those alone and returns the velocity of the video rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autograd as ag
from .audio_net import (AUDIO_FEATURE_WIDTH, AlignedAudio, AudioInjectConfig, AudioInjector,
                        align_audio, inject_audio_t)
from .backbone import Backbone, BackboneConfig
from .container import load_container, reading, save_container
from .errors import ConfigError, ContainerError, DimensionMismatchError
from .latent_codec import CodecConfig, LatentCodec, latent_frame_count, tokenize
from .nn import ParamStore, normal_init
from .prompt_fusion import (PreparedPrompt, PromptSpec, ToyMultimodalEncoder, fuse_t,
                            prepare_prompt)
from .rope3d import rotation_tables, sequence_positions
from .video_inject import AlignmentNet, ConcatCompressor, encode_condition

CHECKPOINT_VERSION = "hcustom-ckpt/2"


@dataclass(frozen=True)
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    audio: AudioInjectConfig = field(default_factory=AudioInjectConfig)
    align_hidden: int | None = None          # defaults to backbone width
    video_mode: str = "add"
    identity_enhancement: bool = True
    channel_concat: bool = False
    fusion_images: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.channel_concat and self.identity_enhancement:
            raise ConfigError("channel_concat",
                              "channel concatenation replaces identity enhancement; "
                              "disable identity_enhancement")
        if self.video_mode not in ("add", "concat"):
            raise ConfigError("video_mode", f"unknown mode {self.video_mode!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["backbone"] = BackboneConfig(**d["backbone"])
        d["audio"] = AudioInjectConfig(**d["audio"])
        return cls(**d)


@dataclass
class PreparedSample:
    """Every input the taped model reads of one item, resolved once by
    `CustomVideoModel.prepare`, so a training or sampler step only computes.

    All latents are stored in normalized latent space (see LatentStats);
    every array but z1 is in the model's dtype.
    """

    z1: np.ndarray | None                 # [f*h*w, c] clean video tokens
    # the identity latent as the sequence holds it: [n_identity_tokens, c]
    # rows, or under channel concat [f*h*w, c], tiled over the latent frames
    id_tokens: np.ndarray
    rope_cos: np.ndarray                  # [L, head_dim] for the assembled sequence
    rope_sin: np.ndarray
    prompt: PreparedPrompt | None         # None: an empty prompt, no cross-attention
    frames: int
    height: int
    width: int
    aligned_audio: AlignedAudio | None = None
    cond_tokens: np.ndarray | None = None  # [f*h*w, c] raw (pre-alignment)

    @property
    def wh(self) -> int:
        return self.height * self.width

    @property
    def n_identity_tokens(self) -> int:
        """Identity rows of the assembled sequence: those `prepare` gave
        positions to (none without identity enhancement)."""
        return self.rope_cos.shape[0] - self.n_video_tokens

    @property
    def n_video_tokens(self) -> int:
        return self.frames * self.wh


@dataclass
class LatentStats:
    """Per-channel normalization of codec latents used by flow training."""

    mean: np.ndarray
    std: np.ndarray

    def normalize(self, tokens: np.ndarray) -> np.ndarray:
        return (tokens - self.mean) / self.std

    def denormalize(self, tokens: np.ndarray) -> np.ndarray:
        return tokens * self.std + self.mean

    @classmethod
    def identity(cls, channels: int) -> "LatentStats":
        return cls(np.zeros(channels, dtype=np.float32), np.ones(channels, dtype=np.float32))

    @classmethod
    def from_tokens(cls, tokens: np.ndarray) -> "LatentStats":
        mean = tokens.mean(axis=0)
        std = tokens.std(axis=0)
        std = np.where(std < 1e-6, 1.0, std)
        return cls(mean.astype(np.float32), std.astype(np.float32))


class CustomVideoModel:
    """All trainable parameter groups plus the conditioned forward pass."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.store = ParamStore(dtype=dtype)
        rng = np.random.default_rng(config.seed)
        bb = config.backbone
        c = bb.latent_channels
        self.backbone = Backbone(self.store, rng, bb,
                                 in_channels=2 * c if config.channel_concat else c)
        self.encoder = ToyMultimodalEncoder(self.store, rng, d_text=bb.text_width)
        self.audio_injector = AudioInjector(self.store, rng, c, AUDIO_FEATURE_WIDTH,
                                            config.audio)
        self.align_net = AlignmentNet(self.store, rng, c, config.align_hidden or bb.width,
                                      zero_output=config.video_mode != "concat")
        self.compressor = ConcatCompressor(self.store, c)
        # add mode: the aligned condition enters the backbone through its own
        # input projection, so it and the noisy latent span different
        # directions of the hidden space instead of summing in c channels
        self.store.parameter("vidin.w", normal_init(rng, (c, bb.width)))

    # -- conditioned forward --------------------------------------------------

    def assemble_tokens_t(self, ps: PreparedSample, z_video: ag.Tensor) -> ag.Tensor:
        """Build the latent-space token sequence: `ps.n_identity_tokens`
        identity rows, then the video rows (under channel concat, the video
        rows with the identity latent stacked on their channels)."""
        if self.config.channel_concat:
            return ag.concat([z_video, ag.Tensor(ps.id_tokens)], axis=1)
        if ps.n_identity_tokens:
            return ag.concat([ag.Tensor(ps.id_tokens), z_video], axis=0)
        return z_video

    def velocity_t(self, ps: PreparedSample, z_video: ag.Tensor, t: float) -> ag.Tensor:
        """Predict the velocity of the video rows, [n_video_tokens, c]."""
        video_cond = None
        if ps.cond_tokens is not None:
            aligned = self.align_net.forward_t(ag.Tensor(ps.cond_tokens))
            if self.config.video_mode == "concat":
                z_video = self.compressor.forward_t(z_video, aligned)
            else:
                video_cond = ag.matmul(aligned, self.store["vidin.w"])
        tokens = self.assemble_tokens_t(ps, z_video)
        n_id = ps.n_identity_tokens
        if video_cond is not None and n_id:
            zeros = np.zeros((n_id, video_cond.shape[1]), dtype=video_cond.data.dtype)
            video_cond = ag.concat([ag.Tensor(zeros), video_cond], axis=0)
        if ps.aligned_audio is not None:
            tokens = inject_audio_t(tokens, ps.aligned_audio, self.audio_injector,
                                    ps.wh)
        prompt = counts = None
        if ps.prompt is not None:
            prompt, counts = fuse_t(ps.prompt, self.encoder), ps.prompt.counts
        v = self.backbone.forward_t(tokens, ps.rope_cos, ps.rope_sin, prompt, counts, t,
                                    video_cond=video_cond)
        return ag.split(v, [np.s_[n_id:]])[0] if n_id else v

    # -- sample preparation ----------------------------------------------------

    def prepare(self, codec: LatentCodec, stats: LatentStats, *,
                video=None, identity_images=(), spec: PromptSpec | None = None,
                audio=None, condition=None, frames: int | None = None,
                size: tuple[int, int] | None = None) -> PreparedSample:
        """Resolve raw inputs once into the layout `velocity_t` reads.

        For training pass `video`; for sampling pass `frames` (pixel frame
        count) and, when no identity image fixes the grid, `size` = (H, W).
        The prompt is resolved here (`prompt_fusion.prepare_prompt`), so a
        descriptor missing from an embedded template raises here too.
        """
        cfg, dtype = self.config, self.store.dtype
        s = codec.config.spatial_factor
        if video is not None:
            z = codec.encode(video)
            f, h, w = z.frames, z.height, z.width
            z1_tokens = stats.normalize(tokenize(z))
        else:
            if frames is None:
                raise ConfigError("frames", "need either a video or an explicit frame count")
            f = latent_frame_count(frames)
            if size is not None:
                if min(size) < 1 or size[0] % s or size[1] % s:
                    raise ConfigError("size", f"{size} is not a positive multiple of {s}")
                h, w = size[0] // s, size[1] // s
            elif identity_images:
                h = identity_images[0].height // s
                w = identity_images[0].width // s
            else:
                raise ConfigError("size", "cannot infer latent grid; pass size=(H, W)")
            z1_tokens = None
        id_tokens = []
        for image in identity_images:
            zi = codec.encode(image)
            if (zi.height, zi.width) != (h, w):
                raise DimensionMismatchError("identity image grid mismatch")
            id_tokens.append(stats.normalize(tokenize(zi)))
        m = len(id_tokens)
        use_identity_tokens = cfg.identity_enhancement and m > 0
        pos = sequence_positions(m if use_identity_tokens else 0, f, w, h)
        cos, sin = rotation_tables(pos, cfg.backbone.rope(), dtype=dtype)
        if cfg.channel_concat and m != 1:
            raise DimensionMismatchError(f"channel concat supports exactly one subject, got {m}")
        ident = np.zeros((0, cfg.backbone.latent_channels))
        if cfg.channel_concat:
            ident = np.tile(id_tokens[0], (f, 1))
        elif use_identity_tokens:
            ident = np.concatenate(id_tokens, axis=0)
        aligned = None
        if audio is not None:
            if audio.feature_width != AUDIO_FEATURE_WIDTH:
                raise DimensionMismatchError(
                    f"audio features have width {audio.feature_width}, "
                    f"the model reads {AUDIO_FEATURE_WIDTH}")
            aligned = AlignedAudio(align_audio(audio, f).data.astype(dtype))
            if not use_identity_tokens or m != 1:
                raise ConfigError("audio",
                                  "audio conditioning requires exactly one identity subject")
        cond_tokens = None
        if condition is not None:
            cond_tokens = stats.normalize(encode_condition(condition, codec)).astype(dtype)
            if cond_tokens.shape[0] != f * h * w:
                raise DimensionMismatchError("condition video frame count mismatch")
        prompt = prepare_prompt(spec or PromptSpec("", []), cfg.fusion_images, dtype)
        return PreparedSample(
            z1=z1_tokens, id_tokens=ident.astype(dtype), rope_cos=cos, rope_sin=sin,
            prompt=prompt if len(prompt.counts) else None,
            frames=f, height=h, width=w, aligned_audio=aligned, cond_tokens=cond_tokens)


# -- checkpointing ------------------------------------------------------------


def save_checkpoint(path, model: CustomVideoModel, codec: LatentCodec,
                    stats: LatentStats, step: int, extra_meta: dict | None = None):
    arrays = {f"model.{k}": v for k, v in model.store.state_dict().items()}
    arrays.update({f"codec.{k}": v for k, v in codec.store.state_dict().items()})
    arrays["stats.mean"] = stats.mean
    arrays["stats.std"] = stats.std
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": step,
        "model_config": asdict(model.config),
        "codec_config": asdict(codec.config),
        "dtype": model.store.dtype.str,
    }
    if extra_meta:
        meta["extra"] = extra_meta
    save_container(path, arrays, meta=meta)


def load_checkpoint(path, lambda_a: float | None = None
                    ) -> tuple[CustomVideoModel, LatentCodec, LatentStats, int, dict]:
    """Rebuild model, codec and latent statistics from a checkpoint.

    `lambda_a`, if given, replaces the stored audio scale before the model
    is built; the weights are the same for every scale.  A file whose meta
    record or arrays do not fit the model it describes raises
    `ContainerError`.
    """
    arrays, meta = load_container(path)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ContainerError(f"{path}: checkpoint version {meta.get('version')!r}, "
                             f"this program reads {CHECKPOINT_VERSION!r}")
    with reading(path, "meta"):
        dtype = np.dtype(meta.get("dtype", "<f4"))
        model_dict, codec_dict, step = meta["model_config"], meta["codec_config"], meta["step"]
    with reading(path, "model_config"):
        config = ModelConfig.from_dict(model_dict)
    with reading(path, "codec_config"):
        codec_config = CodecConfig(**codec_dict)
    if lambda_a is not None:
        config = replace(config, audio=replace(config.audio, lambda_a=lambda_a))
    model = CustomVideoModel(config, dtype=dtype)
    with reading(path, "model arrays"):
        model.store.load_state_dict(
            {k[len("model."):]: v for k, v in arrays.items() if k.startswith("model.")})
    codec = LatentCodec(codec_config)
    with reading(path, "codec arrays"):
        codec.store.load_state_dict(
            {k[len("codec."):]: v for k, v in arrays.items() if k.startswith("codec.")})
    with reading(path, "stats arrays"):
        stats = LatentStats(arrays["stats.mean"], arrays["stats.std"])
    return model, codec, stats, step, meta
