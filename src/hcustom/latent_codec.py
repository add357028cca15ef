"""Trainable causal video autoencoder with 4x temporal compression.

A pixel video of f' frames maps to floor(f'/4) + 1 latent frames: pixel
frame 0 is encoded alone (the uncompressed initial frame) and every later
latent frame k is built only from the pixel-frame group 4k-3..4k.  Nothing
mixes information across groups, so causality holds exactly: perturbing a
pixel frame with index > 4k cannot change latent frames 0..k even at the
bit level.

Pixels are centered on mid-gray before encoding.  Beside the strided conv
stack, each 8x8 (generally s x s) pixel patch also reaches the latent cell
through a linear patch projection, and the decoder adds the matching linear
un-patch of each frame's features to its conv output.  The conv path alone
learns low spatial frequencies first and, at desk-scale step budgets, turns
small sprites into round blobs; the linear path gives sharp edges from the
first steps.

Each decoder stage is a nearest 2x upsample followed by a 3x3 conv, computed
at input resolution (sub-pixel convolution, as in ESPCN).  Along one axis,
output 2y sees upsampled inputs 2y-1, 2y, 2y+1, that is x[y-1], x[y], x[y],
so its taps collapse to the 2-tap kernel [w0, w1+w2] over x[y-1..y]; output
2y+1 sees x[y], x[y], x[y+1] and gets [w0+w1, w2] over x[y..y+1].  The four
row/column phase combinations are four 2x2 kernels (`_phase_kernels`, one
tape op) that one 2x2 conv of the low-resolution input applies as four
blocks of output channels; the blocks are interleaved by depth-to-space
(`_upsample_conv`).  The function and the 3x3 parameters are those of
upsample-then-conv; the conv does under half the multiply-adds and the
4x-larger upsampled input is never built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy import ndimage

from . import autograd as ag
from .container import load_container, save_container
from .errors import ConfigMismatchError, DimensionMismatchError
from .nn import Adam, ParamStore, conv_init, linear, normal_init

TEMPORAL_STRIDE = 4
PIXEL_MEAN = 0.5            # pixels are centered on mid-gray before encoding
TRAIN_WINDOW = 1 + TEMPORAL_STRIDE  # a first frame plus one full group
FOCUS_DILATION = 3          # pixels the codec's focus masks grow by


@dataclass
class PixelVideo:
    """Raw frames, shape [frames, H, W, 3], values in [0, 1]."""

    data: np.ndarray
    fps: float = 25.0

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 4 or self.data.shape[-1] != 3:
            raise DimensionMismatchError(f"pixel video must be [f',H,W,3], got {self.data.shape}")
        if self.data.shape[0] < 1:
            raise DimensionMismatchError("pixel video needs at least one frame")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def save(self, path):
        save_container(path, {"frames": self.data},
                       meta={"kind": "pixel_video", "fps": self.fps})

    @classmethod
    def load(cls, path) -> "PixelVideo":
        arrays, meta = load_container(path)
        return cls(arrays["frames"], fps=meta.get("fps", 25.0))


@dataclass
class LatentVideo:
    """Compressed representation, shape [f, h, w, c]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 4:
            raise DimensionMismatchError(f"latent video must be [f,h,w,c], got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise DimensionMismatchError("latent video contains non-finite values")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class CodecConfig:
    spatial_factor: int = 8
    latent_channels: int = 16
    hidden_channels: int = 16
    decoder_width: float = 1.5  # widens decoder stages relative to the encoder mirror
    seed: int = 0

    def __post_init__(self):
        s = self.spatial_factor
        if s < 2 or (s & (s - 1)) != 0:
            raise ValueError(f"spatial factor must be a power of two >= 2, got {s}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "CodecConfig":
        return cls(**d)


def latent_frame_count(pixel_frames: int) -> int:
    """f = floor(f'/4) + 1."""
    return pixel_frames // TEMPORAL_STRIDE + 1


def pixel_frame_count(latent_frames: int) -> int:
    """Inverse relation used by decode: f' = 4(f-1) + 1."""
    return TEMPORAL_STRIDE * (latent_frames - 1) + 1


class LatentCodec:
    """Encoder/decoder pair with parameters held in a ParamStore."""

    def __init__(self, config: CodecConfig, dtype=np.float32):
        self.config = config
        self.store = ParamStore(dtype=dtype)
        self._build_params()

    # -- parameters ---------------------------------------------------------

    def _stage_channels(self) -> list[int]:
        n = int(np.log2(self.config.spatial_factor))
        ch = self.config.hidden_channels
        return [ch * (2 ** i) for i in range(n)]  # e.g. [16, 32, 64] for s=8

    def _decoder_channels(self) -> list[int]:
        mirror = list(reversed(self._stage_channels()[:-1]))
        return [int(round(c * self.config.decoder_width)) for c in mirror]

    def _build_params(self):
        rng = np.random.default_rng(self.config.seed)
        stages = self._stage_channels()
        cs = stages[-1]
        c = self.config.latent_channels
        prev = 3
        for i, ch in enumerate(stages):
            self.store.parameter(f"enc.conv{i}.w", conv_init(rng, 3, 3, prev, ch))
            self.store.parameter(f"enc.conv{i}.b", np.zeros(ch))
            prev = ch
        self.store.parameter("enc.first.w", normal_init(rng, (cs, c)))
        self.store.parameter("enc.first.b", np.zeros(c))
        self.store.parameter("enc.group.w", normal_init(rng, (TEMPORAL_STRIDE * cs, c)))
        self.store.parameter("enc.group.b", np.zeros(c))
        self.store.parameter("dec.first.w", normal_init(rng, (c, cs)))
        self.store.parameter("dec.first.b", np.zeros(cs))
        self.store.parameter("dec.group.w", normal_init(rng, (c, TEMPORAL_STRIDE * cs)))
        self.store.parameter("dec.group.b", np.zeros(TEMPORAL_STRIDE * cs))
        prev = cs
        for i, ch in enumerate(self._decoder_channels()):
            self.store.parameter(f"dec.conv{i}.w", conv_init(rng, 3, 3, prev, ch))
            self.store.parameter(f"dec.conv{i}.b", np.zeros(ch))
            prev = ch
        # final 2x upsampling is a sub-pixel conv: predict 3*4 channels at half
        # resolution, then rearrange depth to space (keeps full-res convs out
        # of the hot path)
        self.store.parameter("dec.out.w", conv_init(rng, 3, 3, prev, 12))
        self.store.parameter("dec.out.b", np.zeros(12))
        # linear patch path (see module docstring); the decoder side starts
        # at zero so a fresh codec decodes through the conv stack alone
        patch = 3 * self.config.spatial_factor ** 2
        self.store.parameter("enc.patch.w", normal_init(rng, (patch, cs)))
        self.store.parameter("dec.patch.w", np.zeros((cs, patch)))

    # -- taped forward passes ------------------------------------------------

    def _spatial_encode(self, x: ag.Tensor) -> ag.Tensor:
        x = ag.add(x, -PIXEL_MEAN)
        patches = linear(_space_to_depth(x, self.config.spatial_factor),
                         self.store["enc.patch.w"])
        for i in range(len(self._stage_channels())):
            x = ag.conv2d(x, self.store[f"enc.conv{i}.w"], self.store[f"enc.conv{i}.b"],
                          stride=2, pad=1)
            x = ag.gelu(x)
        return ag.add(x, patches)

    @staticmethod
    def group_frame_indices(pixel_frames: int) -> np.ndarray:
        """Pixel-frame index feeding each slot of each latent group k >= 1.

        Group k covers frames 4k-3..4k; indices past the last frame repeat
        the final in-range frame (replication padding), which keeps every
        group dependent only on frames <= 4k.
        """
        f = latent_frame_count(pixel_frames)
        idx = np.empty(((f - 1), TEMPORAL_STRIDE), dtype=np.int64)
        for k in range(1, f):
            lo = TEMPORAL_STRIDE * k - (TEMPORAL_STRIDE - 1)
            hi = min(TEMPORAL_STRIDE * k, pixel_frames - 1)
            idx[k - 1] = np.minimum(np.arange(lo, lo + TEMPORAL_STRIDE), hi)
        return idx

    def encode_t(self, x: ag.Tensor) -> ag.Tensor:
        """Taped encode of [f',H,W,3] to [f,h,w,c]."""
        fp = x.shape[0]
        feats = self._spatial_encode(x)  # [f', h, w, cs]
        h, w, cs = feats.shape[1], feats.shape[2], feats.shape[3]
        first = linear(ag.slice_axis(feats, 0, 0, 1),
                       self.store["enc.first.w"], self.store["enc.first.b"])
        f = latent_frame_count(fp)
        if f == 1:
            return first
        idx = self.group_frame_indices(fp).reshape(-1)
        gathered = ag.embedding(feats, idx)           # [(f-1)*4, h, w, cs]
        gathered = ag.reshape(gathered, (f - 1, TEMPORAL_STRIDE, h, w, cs))
        gathered = ag.transpose(gathered, (0, 2, 3, 1, 4))
        stacked = ag.reshape(gathered, (f - 1, h, w, TEMPORAL_STRIDE * cs))
        rest = linear(stacked, self.store["enc.group.w"], self.store["enc.group.b"])
        return ag.concat([first, rest], axis=0)

    def decode_t(self, z: ag.Tensor) -> ag.Tensor:
        """Taped decode of [f,h,w,c] to unclamped [4(f-1)+1,H,W,3]."""
        f = z.shape[0]
        cs = self._stage_channels()[-1]
        first = linear(ag.slice_axis(z, 0, 0, 1),
                       self.store["dec.first.w"], self.store["dec.first.b"])
        feats = [first]
        if f > 1:
            rest = ag.slice_axis(z, 0, 1, f)
            group = linear(rest, self.store["dec.group.w"], self.store["dec.group.b"])
            h, w = z.shape[1], z.shape[2]
            group = ag.reshape(group, (f - 1, h, w, TEMPORAL_STRIDE, cs))
            group = ag.transpose(group, (0, 3, 1, 2, 4))
            feats.append(ag.reshape(group, ((f - 1) * TEMPORAL_STRIDE, h, w, cs)))
        x = feats = ag.concat(feats, axis=0)
        for i in range(len(self._decoder_channels())):
            x = _upsample_conv(x, self.store[f"dec.conv{i}.w"], self.store[f"dec.conv{i}.b"])
            x = ag.gelu(x)
        x = ag.conv2d(x, self.store["dec.out.w"], self.store["dec.out.b"],
                      stride=1, pad=1)
        x = _depth_to_space(x, 2)
        patches = _depth_to_space(linear(feats, self.store["dec.patch.w"]),
                                  self.config.spatial_factor)
        return ag.add(ag.add(x, patches), PIXEL_MEAN)

    # -- public numpy interface ----------------------------------------------

    def encode(self, video: PixelVideo) -> LatentVideo:
        s = self.config.spatial_factor
        if video.height % s or video.width % s:
            raise DimensionMismatchError(
                f"frame size {video.height}x{video.width} not divisible by spatial factor {s}")
        z = self.encode_t(ag.Tensor(video.data.astype(self.store.dtype)))
        return LatentVideo(z.data)

    def decode(self, latent: LatentVideo) -> PixelVideo:
        if latent.channels != self.config.latent_channels:
            raise ConfigMismatchError(
                f"latent has {latent.channels} channels, codec expects "
                f"{self.config.latent_channels}")
        x = self.decode_t(ag.Tensor(latent.data.astype(self.store.dtype)))
        return PixelVideo(np.clip(x.data, 0.0, 1.0))

    def save(self, path):
        save_container(path, self.store.state_dict(),
                       meta={"version": "hcustom-codec/1", "config": asdict(self.config)})

    @classmethod
    def load(cls, path) -> "LatentCodec":
        arrays, meta = load_container(path)
        codec = cls(CodecConfig.from_dict(meta["config"]))
        codec.store.load_state_dict(arrays)
        return codec


def _space_to_depth(x: ag.Tensor, s: int) -> ag.Tensor:
    """[n, H, W, C] -> [n, H/s, W/s, s*s*C], one row per s x s patch."""
    n, hh, ww, c = x.shape
    x = ag.reshape(x, (n, hh // s, s, ww // s, s, c))
    x = ag.transpose(x, (0, 1, 3, 2, 4, 5))
    return ag.reshape(x, (n, hh // s, ww // s, s * s * c))


def _depth_to_space(x: ag.Tensor, s: int) -> ag.Tensor:
    """Inverse of _space_to_depth: [n, h, w, s*s*C] -> [n, h*s, w*s, C]."""
    n, h, w, d = x.shape
    x = ag.reshape(x, (n, h, w, s, s, d // (s * s)))
    x = ag.transpose(x, (0, 1, 3, 2, 4, 5))
    return ag.reshape(x, (n, h * s, w * s, d // (s * s)))


# [phase, tap of the 2-tap kernel, tap of the 3-tap kernel]: along one axis,
# even outputs use [w0, w1+w2] and odd outputs [w0+w1, w2] (module docstring)
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]],
                        [[1, 1, 0], [0, 0, 1]]])


def _phase_kernels(w: ag.Tensor) -> ag.Tensor:
    """The four 2x2 phase kernels of a 3x3 kernel, side by side: one tape op.

    w [3, 3, Ci, Co] -> [2, 2, Ci, 4*Co]; output-channel block 2a+c holds the
    kernel of row phase a and column phase c.  Each phase tap is a sum of 3x3
    taps, so the VJP sums each phase tap's gradient back into those taps.
    """
    wd = w.data
    taps = _PHASE_TAPS.astype(wd.dtype)
    ci, co = wd.shape[2], wd.shape[3]
    rows = np.tensordot(taps, wd, axes=([2], [0]))        # [a, i, u, Ci, Co]
    k = np.tensordot(taps, rows, axes=([2], [2]))         # [c, j, a, i, Ci, Co]
    data = k.transpose(3, 1, 4, 2, 0, 5).reshape(2, 2, ci, 4 * co)

    def vjp(g):
        g = g.reshape(2, 2, ci, 2, 2, co)                 # [i, j, Ci, a, c, Co]
        cols = np.tensordot(taps, g, axes=([0, 1], [4, 1]))   # [u, i, Ci, a, Co]
        return (np.tensordot(taps, cols, axes=([0, 1], [3, 1])),)  # [t, u, Ci, Co]

    return ag._make(data, (w,), vjp)


def _upsample_conv(x: ag.Tensor, w: ag.Tensor, b: ag.Tensor) -> ag.Tensor:
    """Nearest 2x upsample then 3x3 stride-1 pad-1 conv, at input resolution.

    Output pixel (2y+a, 2x+c) depends only on input rows y-1+a..y+a and
    columns x-1+c..x+c, so each of the four phases (a, c) is a 2x2 conv of
    x with pad 1; its output rows a:a+h and columns c:c+w are that phase.
    One conv computes all four phases as blocks of output channels; the
    phases are interleaved back to [n, 2h, 2w, Co] by depth-to-space.
    """
    _, h, wd, _ = x.shape
    co = w.shape[3]
    y = ag.conv2d(x, _phase_kernels(w), stride=1, pad=1)   # [n, h+1, wd+1, 4*Co]
    phases = []
    for a in range(2):
        for c in range(2):
            j = 2 * a + c
            p = ag.slice_axis(y, 3, j * co, (j + 1) * co)
            phases.append(ag.slice_axis(ag.slice_axis(p, 1, a, a + h), 2, c, c + wd))
    return ag.add(_depth_to_space(ag.concat(phases, axis=3), 2), b)


def encode(video: PixelVideo, codec: LatentCodec) -> LatentVideo:
    return codec.encode(video)


def decode(latent: LatentVideo, codec: LatentCodec) -> PixelVideo:
    return codec.decode(latent)


def tokenize(latent: LatentVideo) -> tuple[np.ndarray, np.ndarray]:
    """Serialize [f,h,w,c] to (tokens [f*h*w, c], positions [f*h*w, 3]).

    Row-major: time outermost, then height, then width; the position triple
    of the token from cell (t, x, y) is exactly (t, x, y).
    """
    from .rope3d import video_positions

    f, h, w, c = latent.data.shape
    return latent.data.reshape(f * h * w, c), video_positions(f, w, h)


def untokenize(tokens: np.ndarray, f: int, h: int, w: int) -> LatentVideo:
    return LatentVideo(np.asarray(tokens).reshape(f, h, w, -1))


def train_codec(codec: LatentCodec, videos: list[PixelVideo], steps: int,
                batch_size: int = 2, learning_rate: float = 1e-3, seed: int = 0,
                focus_masks: list[np.ndarray] | None = None, focus_weight: float = 4.0,
                log=None) -> list[float]:
    """Overfit the autoencoder on a video set; returns the loss curve.

    Each step reconstructs, per chosen video, a random window of
    TRAIN_WINDOW frames: one frame through the first-frame path and one
    full group through the group path.  Every latent frame is built from a
    disjoint frame group, so a window trains both paths exactly as a whole
    clip would, at a fraction of the cost.  The loss is the mean absolute
    error, which keeps edges sharper than squared error.

    `focus_masks` (per-video [f',H,W] in {0,1}) upweight the reconstruction
    error inside the masked region, dilated by FOCUS_DILATION pixels so
    that colour bleeding just outside the region costs as much as error
    inside it; subjects cover a small fraction of each frame, and their
    silhouettes are what downstream identity checks depend on.
    """
    if focus_masks is not None:
        grow = np.zeros((1, 3, 3), dtype=bool)  # grow within each frame only
        grow[0] = ndimage.generate_binary_structure(2, 1)
        focus_masks = [ndimage.binary_dilation(np.asarray(m, dtype=bool), grow,
                                               iterations=FOCUS_DILATION)
                       for m in focus_masks]
    opt = Adam(codec.store, lr=learning_rate, clip_norm=1.0)
    losses = []
    for step in range(steps):
        rng = np.random.default_rng(np.random.PCG64(seed * 1_000_003 + step))
        idx = rng.choice(len(videos), size=min(batch_size, len(videos)), replace=False)
        codec.store.zero_grad()
        total = 0.0
        for i in idx:
            frames = videos[i].data
            start = int(rng.integers(max(frames.shape[0] - TRAIN_WINDOW, 0) + 1))
            stop = start + TRAIN_WINDOW
            x = ag.Tensor(frames[start:stop].astype(codec.store.dtype))
            recon = codec.decode_t(codec.encode_t(x))
            n_out = recon.shape[0]
            diff = ag.sub(recon, x.data[:n_out])
            err = ag.mul(diff, np.sign(diff.data))
            if focus_masks is not None:
                w = 1.0 + focus_weight * focus_masks[i][start:stop][:n_out, :, :, None]
                w = (w / w.mean()).astype(codec.store.dtype)
                err = ag.mul(err, w)
            loss = ag.mul(ag.mean_(err), 1.0 / len(idx))
            loss.backward()
            total += float(loss.data)
        opt.step()
        losses.append(total)
        if log is not None and (step % 50 == 0 or step == steps - 1):
            log(step, total)
    return losses
