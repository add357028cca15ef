"""3D rotary position embeddings over (time, x, y) token positions.

Video tokens sit at their literal grid coordinates.  Identity-image tokens
sit at negative time indices (subject k at time -k) with their spatial
coordinates shifted by a full grid (+w, +h), so no identity token can ever
share a position with a video token or with another subject's tokens.

Each axis segment of the head dim rotates its channels in pairs (first
half, second half).  `rotation_tables` spreads the per-pair angles over the
full head dim as a cos table and a signed-sin table, so a rotation is one
rotate-half expression, x * cos + x[..., half_swap] * sin (RoFormer, Su et
al. 2021), which `apply_rotation` computes as one tape op over
[L, heads, head_dim]; its VJP is the rotation by the negated angles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import ConfigError

ROPE_BASE = 10000.0  # frequency base of every axis segment


@dataclass(frozen=True)
class RopeConfig:
    head_dim: int

    def __post_init__(self):
        if self.head_dim < 8 or self.head_dim % 8:
            raise ConfigError("head_dim", "must be a multiple of 8 (time takes half, "
                              f"x and y a quarter each, in pairs), got {self.head_dim}")

    def segments(self) -> tuple[int, int, int]:
        """Head-dim channels per axis (t, x, y)."""
        return (self.head_dim // 2, self.head_dim // 4, self.head_dim // 4)


def video_positions(f: int, w: int, h: int) -> np.ndarray:
    """Grid of (t, x, y) triples for f*w*h video tokens, time outermost."""
    t, y, x = np.meshgrid(np.arange(f), np.arange(h), np.arange(w), indexing="ij")
    return np.stack([t.ravel(), x.ravel(), y.ravel()], axis=1).astype(np.int64)


def identity_positions(k: int, w: int, h: int) -> np.ndarray:
    """Positions for subject k's image tokens: time -k, spatial shift (+w, +h)."""
    if k < 1:
        raise ValueError(f"subject index must be >= 1, got {k}")
    y, x = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    t = np.full(w * h, -k)
    return np.stack([t, x.ravel() + w, y.ravel() + h], axis=1).astype(np.int64)


def sequence_positions(n_subjects: int, f: int, w: int, h: int) -> np.ndarray:
    """Positions of the assembled sequence: subjects 1..n_subjects, then the video."""
    grids = [identity_positions(k, w, h) for k in range(1, n_subjects + 1)]
    return np.concatenate(grids + [video_positions(f, w, h)], axis=0)


def _pair_angles(positions: np.ndarray, config: RopeConfig) -> np.ndarray:
    """Rotation angle per (token, pair): [L, head_dim/2]."""
    chunks = []
    for axis, da in enumerate(config.segments()):
        m = np.arange(da // 2, dtype=np.float64)
        freqs = ROPE_BASE ** (-2.0 * m / da)
        chunks.append(positions[:, axis:axis + 1].astype(np.float64) * freqs)
    return np.concatenate(chunks, axis=1)


@functools.cache
def _channel_layout(config: RopeConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per channel: its pair index, the sign of its sin term, and its partner,
    built once per config and read-only.

    Within an axis segment of size d_a, channel i < d_a/2 pairs with channel
    i + d_a/2 (first half u, second half v), and the pair rotates as
    u' = u cos - v sin, v' = v cos + u sin.
    """
    pair, sign, swap = [], [], []
    offset = first = 0
    for da in config.segments():
        half = da // 2
        pairs = np.arange(first, first + half)
        lo = np.arange(offset, offset + half)
        pair += [pairs, pairs]
        sign += [np.full(half, -1.0), np.full(half, 1.0)]
        swap += [lo + half, lo]
        offset += da
        first += half
    layout = np.concatenate(pair), np.concatenate(sign), np.concatenate(swap)
    for a in layout:
        a.flags.writeable = False
    return layout


def rotation_tables(positions: np.ndarray, config: RopeConfig, dtype=np.float64):
    """Full-width cos and signed-sin tables for a position grid, each [L, head_dim].

    Both halves of an axis segment carry their pair's cos; the first half
    carries -sin and the second +sin, so the rotation of x is
    x * cos + x[..., half_swap(config)] * sin.
    """
    pair, sign, _ = _channel_layout(config)
    ang = _pair_angles(positions, config)[:, pair]
    return np.cos(ang).astype(dtype), (sign * np.sin(ang)).astype(dtype)


def half_swap(config: RopeConfig) -> np.ndarray:
    """Channel permutation that swaps the two halves of every axis segment."""
    return _channel_layout(config)[2]


def _rotate_half(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                 swap: np.ndarray) -> np.ndarray:
    """x * cos + x[..., swap] * sin, with tables broadcast against x."""
    out = np.take(x, swap, axis=-1)     # x[..., swap], laid out C-contiguous
    out *= sin
    out += x * cos
    return out


def apply_rotation(x: ag.Tensor, cos: np.ndarray, sin: np.ndarray,
                   config: RopeConfig) -> ag.Tensor:
    """Rotate taped activations [L, heads, head_dim] with precomputed tables.

    One tape op.  cos/sin are the [L, head_dim] tables of `rotation_tables`;
    they broadcast over heads.  Within each axis segment of size d_a the
    channels form d_a/2 pairs (first half, second half), each rotated by
    pos_axis * ROPE_BASE**(-2m/d_a), so norms are preserved.  The rotation
    is linear and orthogonal, so its VJP is the rotation by the negated
    angles: g * cos - g[..., swap] * sin.
    """
    if x.shape[-1] != config.head_dim:
        raise ValueError(f"expected vectors of length {config.head_dim}, got {x.shape}")
    swap = half_swap(config)
    c, s = cos[:, None, :], sin[:, None, :]
    return ag._make(_rotate_half(x.data, c, s, swap), (x,),
                    lambda g: (_rotate_half(g, c, -s, swap),))
