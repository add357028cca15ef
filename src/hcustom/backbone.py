"""Toy diffusion transformer over an assembled latent token sequence.

Each block runs rotary self-attention over the latent tokens, cross
attention from latent tokens to the fused prompt (its distinct rows, each
weighted by the number of prompt tokens it stands for), and a feed-forward,
every sub-layer modulated (shift/scale/gate) by the flow timestep
embedding.  The output projection is zero-initialized, so a freshly
built model predicts exactly zero velocity.

The modulation is folded into the linear layers (adaLN-Zero, DiT): the
layer norm's gamma and beta, (1 + scale) and shift become a [d, 1] gain on
the weight rows and a [k] bias of the layer that reads the norm
(`_norm_linear`), and each gate scales the weight columns and bias of the
layer before the residual add (`_gated_linear`).  Gains and gates are
`ag.matmul`'s `scale`, so the folded weights are rebuilt in backward, not
kept.  The result is the unfolded one in real arithmetic, and no [L, d]
array is written for the modulation.

What the tape keeps per block: the three layer-norm outputs, the rotated
q and k, the self-attention v, the cross-attention q and the two attention
outputs (their merged heads are views of them).  The feed-forward is one
op, `ag.mlp`, which keeps only the third norm's output, already kept by
that norm, and rebuilds its 4x-wide pre-activation in backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import ConfigError, DimensionMismatchError, NumericalFailureError
from .nn import ParamStore, normal_init
from .rope3d import RopeConfig, apply_rotation

GATE_INIT = 1.0  # initial modulation gates: every sub-layer starts as pass-through


@dataclass(frozen=True)
class BackboneConfig:
    width: int = 128
    heads: int = 4
    blocks: int = 4
    latent_channels: int = 16
    text_width: int = 128
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.width % self.heads:
            raise ConfigError("heads", f"width {self.width} not divisible by heads {self.heads}")
        self.rope()  # rejects a head dim that the rotary axes cannot split

    @property
    def head_dim(self) -> int:
        return self.width // self.heads

    def rope(self) -> RopeConfig:
        return RopeConfig(head_dim=self.head_dim)


def timestep_features(t: float, dim: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal embedding of the flow time t in [0, 1]."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    args = 1000.0 * float(t) * freqs
    return np.concatenate([np.cos(args), np.sin(args)]).astype(dtype)[None, :]


class Backbone:
    """Parameter container plus the taped forward pass over tokens of
    `in_channels` (the latent channels, doubled by the channel-concat
    ablation)."""

    prefix = "backbone"

    def __init__(self, store: ParamStore, rng: np.random.Generator,
                 config: BackboneConfig, in_channels: int):
        self.config = config
        self.store = store
        self.in_channels = in_channels
        d = config.width
        p = self.prefix
        store.parameter(f"{p}.in.w", normal_init(rng, (in_channels, d)))
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
            for sub in range(3):  # gate segments start as pass-through
                mod_bias[(3 * sub + 2) * d:(3 * sub + 3) * d] = GATE_INIT
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

    def _norm_fold(self, ln: str, w: str, bias: str, shift: ag.Tensor | None = None,
                   scale: ag.Tensor | None = None):
        """The weight, bias and [d, 1] gain of the linear layer (`w`, `bias`)
        that reads the layer norm `ln`, modulated, as `ag.matmul` takes them.

        With xh = layer_norm(x), (xh γ + β)(1 + scale) + shift, then @ W + b,
        is one product: xh @ (diag(γ (1 + scale)) W) + ((β (1 + scale) + shift)
        @ W + b).  The gain γ (1 + scale) is `matmul`'s [d, 1] scale and the
        bias a [k] op, so no [L, d] array is written between the norm and
        the product, and the tape keeps no folded weight.  Without `scale`
        and `shift` it is the plain affine norm.
        """
        st = self.store
        gain, offset, wt = st[f"{ln}.g"], st[f"{ln}.b"], st[w]
        if scale is not None:
            s1 = ag.add(scale, 1.0)
            gain = ag.mul(gain, s1)
            offset = ag.add(ag.mul(offset, s1), shift)
        return wt, ag.matmul(offset, wt, st[bias]), ag.reshape(gain, (-1, 1))

    def _norm_linear(self, x: ag.Tensor, ln: str, w: str, bias: str,
                     shift: ag.Tensor | None = None,
                     scale: ag.Tensor | None = None) -> ag.Tensor:
        """The linear layer (`w`, `bias`) of the layer norm `ln` of x, modulated."""
        return ag.matmul(ag.layer_norm(x), *self._norm_fold(ln, w, bias, shift, scale))

    def _gate_fold(self, w: str, bias: str, gate: ag.Tensor):
        """The weight, bias and [1, k] gate of (h @ W + b) * gate as one
        product, h @ (W gate) + b gate, as `ag.matmul` takes them."""
        return self.store[w], ag.mul(self.store[bias], gate), gate

    def _gated_linear(self, h: ag.Tensor, w: str, bias: str, gate: ag.Tensor) -> ag.Tensor:
        return ag.matmul(h, *self._gate_fold(w, bias, gate))

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
        if tokens.shape[1] != self.in_channels:
            raise DimensionMismatchError(
                f"tokens have width {tokens.shape[1]}, backbone expects {self.in_channels}")
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
            (shift1, scale1, gate1, shift2, scale2, gate2,
             shift3, scale3, gate3) = ag.split(mod, [np.s_[:, j * d:(j + 1) * d]
                                                     for j in range(9)])
            # self-attention over latent tokens with rotary q/k
            qkv = self._norm_linear(x, f"{b}.ln1", f"{b}.qkv.w", f"{b}.qkv.b", shift1, scale1)
            qkv = ag.reshape(qkv, (L, 3, cfg.heads, cfg.head_dim))
            q, k, v = ag.split(qkv, [np.s_[:, j] for j in range(3)])   # [L, H, dh]
            q = apply_rotation(q, rope_cos, rope_sin, rope)
            k = apply_rotation(k, rope_cos, rope_sin, rope)
            o = self._attend(ag.transpose(q, (1, 0, 2)), ag.transpose(k, (1, 0, 2)),
                             ag.transpose(v, (1, 0, 2)))
            x = ag.add(x, self._gated_linear(self._merge_heads(o, L), f"{b}.ao.w",
                                             f"{b}.ao.b", gate1))
            # cross-attention to the fused prompt
            if n_text:
                q = self._split_heads(self._norm_linear(x, f"{b}.ln2", f"{b}.xq.w",
                                                        f"{b}.xq.b", shift2, scale2), L)
                kv = ag.matmul(prompt, self.store[f"{b}.xkv.w"], self.store[f"{b}.xkv.b"])
                kv = ag.reshape(kv, (n_text, 2, cfg.heads, cfg.head_dim))
                k, v = (ag.transpose(a, (1, 0, 2))
                        for a in ag.split(kv, [np.s_[:, 0], np.s_[:, 1]]))
                o = self._attend(q, k, v, counts)
                x = ag.add(x, self._gated_linear(self._merge_heads(o, L), f"{b}.xo.w",
                                                 f"{b}.xo.b", gate2))
            # feed-forward
            x = ag.add(x, ag.mlp(ag.layer_norm(x),
                                 *self._norm_fold(f"{b}.ln3", f"{b}.mlp.w1", f"{b}.mlp.b1",
                                                  shift3, scale3),
                                 *self._gate_fold(f"{b}.mlp.w2", f"{b}.mlp.b2", gate3)))
        out = self._norm_linear(x, f"{p}.final", f"{p}.out.w", f"{p}.out.b")
        if not np.isfinite(out.data).all():
            raise NumericalFailureError("backbone produced NaN/Inf activations")
        return out
