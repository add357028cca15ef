"""Toy diffusion transformer over an assembled latent token sequence.

Each block runs rotary self-attention over the latent tokens, cross
attention from latent tokens to the fused prompt (its distinct rows, each
weighted by the number of prompt tokens it stands for), and a feed-forward,
every sub-layer modulated (shift/scale/gate) by the flow timestep
embedding.  The output projection is zero-initialized, so a freshly
built model predicts exactly zero velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import ConfigError, DimensionMismatchError, NumericalFailureError
from .nn import ParamStore, normal_init
from .rope3d import RopeConfig, apply_rotation


@dataclass(frozen=True)
class BackboneConfig:
    width: int = 128
    heads: int = 4
    blocks: int = 4
    latent_channels: int = 16
    text_width: int = 128
    mlp_ratio: int = 4
    input_channels: int | None = None  # widened for the channel-concat ablation
    rope_base: float = 10000.0
    gate_init: float = 1.0  # initial modulation gate; small values ease training

    def __post_init__(self):
        if self.width % self.heads:
            raise ConfigError("heads", f"width {self.width} not divisible by heads {self.heads}")
        self.rope()  # rejects a head dim that the rotary axes cannot split

    @property
    def head_dim(self) -> int:
        return self.width // self.heads

    @property
    def in_channels(self) -> int:
        return self.input_channels or self.latent_channels

    def rope(self) -> RopeConfig:
        return RopeConfig(head_dim=self.head_dim, base=self.rope_base)


def timestep_features(t: float, dim: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal embedding of the flow time t in [0, 1]."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    args = 1000.0 * float(t) * freqs
    return np.concatenate([np.cos(args), np.sin(args)]).astype(dtype)[None, :]


class Backbone:
    """Parameter container plus the taped forward pass."""

    def __init__(self, store: ParamStore, rng: np.random.Generator,
                 config: BackboneConfig, prefix: str = "backbone"):
        self.config = config
        self.store = store
        self.prefix = prefix
        d = config.width
        p = prefix
        store.parameter(f"{p}.in.w", normal_init(rng, (config.in_channels, d)))
        store.parameter(f"{p}.in.b", np.zeros(d))
        store.parameter(f"{p}.t.w1", normal_init(rng, (d, d)))
        store.parameter(f"{p}.t.b1", np.zeros(d))
        store.parameter(f"{p}.t.w2", normal_init(rng, (d, d)))
        store.parameter(f"{p}.t.b2", np.zeros(d))
        for i in range(config.blocks):
            b = f"{p}.blk{i}"
            for ln in ("ln1", "ln2", "ln3"):
                store.parameter(f"{b}.{ln}.g", np.ones(d))
                store.parameter(f"{b}.{ln}.b", np.zeros(d))
            mod_bias = np.zeros(9 * d)
            for sub in range(3):  # gate segments start as (scaled) pass-through
                mod_bias[(3 * sub + 2) * d:(3 * sub + 3) * d] = config.gate_init
            store.parameter(f"{b}.mod.w", np.zeros((d, 9 * d)))
            store.parameter(f"{b}.mod.b", mod_bias)
            store.parameter(f"{b}.qkv.w", normal_init(rng, (d, 3 * d)))
            store.parameter(f"{b}.qkv.b", np.zeros(3 * d))
            store.parameter(f"{b}.ao.w", normal_init(rng, (d, d)))
            store.parameter(f"{b}.ao.b", np.zeros(d))
            store.parameter(f"{b}.xq.w", normal_init(rng, (d, d)))
            store.parameter(f"{b}.xq.b", np.zeros(d))
            store.parameter(f"{b}.xkv.w", normal_init(rng, (config.text_width, 2 * d)))
            store.parameter(f"{b}.xkv.b", np.zeros(2 * d))
            store.parameter(f"{b}.xo.w", normal_init(rng, (d, d)))
            store.parameter(f"{b}.xo.b", np.zeros(d))
            store.parameter(f"{b}.mlp.w1", normal_init(rng, (d, config.mlp_ratio * d)))
            store.parameter(f"{b}.mlp.b1", np.zeros(config.mlp_ratio * d))
            store.parameter(f"{b}.mlp.w2", normal_init(rng, (config.mlp_ratio * d, d)))
            store.parameter(f"{b}.mlp.b2", np.zeros(d))
        store.parameter(f"{p}.final.g", np.ones(d))
        store.parameter(f"{p}.final.b", np.zeros(d))
        store.parameter(f"{p}.out.w", np.zeros((d, config.latent_channels)))
        store.parameter(f"{p}.out.b", np.zeros(config.latent_channels))

    # -- helpers -------------------------------------------------------------

    def _split_heads(self, x: ag.Tensor, length: int) -> ag.Tensor:
        cfg = self.config
        x = ag.reshape(x, (length, cfg.heads, cfg.head_dim))
        return ag.transpose(x, (1, 0, 2))  # [H, L, dh]

    def _merge_heads(self, x: ag.Tensor, length: int) -> ag.Tensor:
        x = ag.transpose(x, (1, 0, 2))
        return ag.reshape(x, (length, self.config.width))

    def _attend(self, q, k, v, counts=None):
        scale = 1.0 / float(np.sqrt(self.config.head_dim))  # python float: no upcast
        return ag.attention(q, k, v, scale, counts)

    def timestep_embedding_t(self, t: float) -> ag.Tensor:
        p = self.prefix
        feats = ag.Tensor(timestep_features(t, self.config.width, self.store.dtype))
        h = ag.gelu(ag.matmul(feats, self.store[f"{p}.t.w1"], self.store[f"{p}.t.b1"]))
        return ag.matmul(h, self.store[f"{p}.t.w2"], self.store[f"{p}.t.b2"])  # [1, d]

    # -- forward -------------------------------------------------------------

    def forward_t(self, tokens: ag.Tensor, rope_cos: np.ndarray, rope_sin: np.ndarray,
                  prompt: ag.Tensor | None, counts: np.ndarray | None, t: float,
                  video_cond: ag.Tensor | None = None) -> ag.Tensor:
        """tokens [L, in_channels] -> velocity [L, latent_channels].

        `prompt` [S, text_width] holds the distinct rows of the fused prompt
        and `counts` [S] the number of prompt tokens each row stands for
        (`prompt_fusion.fuse_t`); cross-attention weights row j by
        counts[j].  Both are None for an empty prompt.
        `video_cond` ([L, width], add-mode video conditioning in hidden
        space) is added to the tokens right after the input projection.
        """
        cfg = self.config
        p = self.prefix
        L = tokens.shape[0]
        if tokens.shape[1] != cfg.in_channels:
            raise DimensionMismatchError(
                f"tokens have width {tokens.shape[1]}, backbone expects {cfg.in_channels}")
        rope = cfg.rope()
        x = ag.matmul(tokens, self.store[f"{p}.in.w"], self.store[f"{p}.in.b"])
        if video_cond is not None:
            if video_cond.shape != x.shape:
                raise DimensionMismatchError(
                    f"video condition {video_cond.shape} != hidden tokens {x.shape}")
            x = ag.add(x, video_cond)
        e = ag.gelu(self.timestep_embedding_t(t))
        n_text = prompt.shape[0] if prompt is not None else 0
        d = cfg.width
        for i in range(cfg.blocks):
            b = f"{p}.blk{i}"
            mod = ag.matmul(e, self.store[f"{b}.mod.w"], self.store[f"{b}.mod.b"])
            parts = [ag.slice_axis(mod, 1, j * d, (j + 1) * d) for j in range(9)]
            # self-attention over latent tokens with rotary q/k
            h = ag.layer_norm(x, self.store[f"{b}.ln1.g"], self.store[f"{b}.ln1.b"])
            h = ag.add(ag.mul(h, ag.add(parts[1], 1.0)), parts[0])
            qkv = ag.matmul(h, self.store[f"{b}.qkv.w"], self.store[f"{b}.qkv.b"])
            qkv = ag.reshape(qkv, (L, 3, cfg.heads, cfg.head_dim))
            q = ag.reshape(ag.slice_axis(qkv, 1, 0, 1), (L, cfg.heads, cfg.head_dim))
            k = ag.reshape(ag.slice_axis(qkv, 1, 1, 2), (L, cfg.heads, cfg.head_dim))
            v = ag.reshape(ag.slice_axis(qkv, 1, 2, 3), (L, cfg.heads, cfg.head_dim))
            q = apply_rotation(q, rope_cos, rope_sin, rope)
            k = apply_rotation(k, rope_cos, rope_sin, rope)
            o = self._attend(ag.transpose(q, (1, 0, 2)), ag.transpose(k, (1, 0, 2)),
                             ag.transpose(v, (1, 0, 2)))
            o = ag.matmul(self._merge_heads(o, L), self.store[f"{b}.ao.w"],
                          self.store[f"{b}.ao.b"])
            x = ag.add(x, ag.mul(o, parts[2]))
            # cross-attention to the fused prompt
            if n_text:
                h = ag.layer_norm(x, self.store[f"{b}.ln2.g"], self.store[f"{b}.ln2.b"])
                h = ag.add(ag.mul(h, ag.add(parts[4], 1.0)), parts[3])
                q = self._split_heads(ag.matmul(h, self.store[f"{b}.xq.w"],
                                                self.store[f"{b}.xq.b"]), L)
                kv = ag.matmul(prompt, self.store[f"{b}.xkv.w"], self.store[f"{b}.xkv.b"])
                kv = ag.reshape(kv, (n_text, 2, cfg.heads, cfg.head_dim))
                k = ag.transpose(ag.reshape(ag.slice_axis(kv, 1, 0, 1),
                                            (n_text, cfg.heads, cfg.head_dim)), (1, 0, 2))
                v = ag.transpose(ag.reshape(ag.slice_axis(kv, 1, 1, 2),
                                            (n_text, cfg.heads, cfg.head_dim)), (1, 0, 2))
                o = self._attend(q, k, v, counts)
                o = ag.matmul(self._merge_heads(o, L), self.store[f"{b}.xo.w"],
                              self.store[f"{b}.xo.b"])
                x = ag.add(x, ag.mul(o, parts[5]))
            # feed-forward
            h = ag.layer_norm(x, self.store[f"{b}.ln3.g"], self.store[f"{b}.ln3.b"])
            h = ag.add(ag.mul(h, ag.add(parts[7], 1.0)), parts[6])
            h = ag.gelu(ag.matmul(h, self.store[f"{b}.mlp.w1"], self.store[f"{b}.mlp.b1"]))
            h = ag.matmul(h, self.store[f"{b}.mlp.w2"], self.store[f"{b}.mlp.b2"])
            x = ag.add(x, ag.mul(h, parts[8]))
        x = ag.layer_norm(x, self.store[f"{p}.final.g"], self.store[f"{p}.final.b"])
        out = ag.matmul(x, self.store[f"{p}.out.w"], self.store[f"{p}.out.b"])
        if not np.isfinite(out.data).all():
            raise NumericalFailureError("backbone produced NaN/Inf activations")
        return out
