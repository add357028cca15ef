"""Correctness checks, run outside the timed window of every run.

Each compares the program against a computation made here (central finite
differences, an Euler loop, a constant reconstruction) or against a
property the method must have (causality, the frame-count law,
determinism).  None compares against stored output.  Each returns a list of
failure messages, empty when the check passes.
"""

from __future__ import annotations

import numpy as np

from hcustom import autograd as ag
from hcustom import flow_match
from hcustom.backbone import BackboneConfig
from hcustom.latent_codec import (CodecConfig, LatentCodec, PixelVideo,
                                  latent_frame_count)
from hcustom.model import CustomVideoModel, LatentStats, ModelConfig
from hcustom.prompt_fusion import PromptSpec

FD_EPS = 1e-6
FD_RTOL = 1e-5
FD_ATOL = 1e-8


def _fd_mismatches(label, loss_fn, params, rng, entries):
    """Central differences of float64 `loss_fn` against each param's .grad."""
    bad = []
    for name, p in params:
        flat = p.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(entries, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + FD_EPS
            up = loss_fn()
            flat[idx] = keep - FD_EPS
            down = loss_fn()
            flat[idx] = keep
            fd = (up - down) / (2 * FD_EPS)
            an = p.grad.reshape(-1)[idx]
            if abs(fd - an) > FD_ATOL + FD_RTOL * max(abs(fd), abs(an)):
                bad.append(f"{label}: d/d{name}[{idx}] analytic {an:.9g} vs "
                           f"finite difference {fd:.9g}")
    return bad


def conv2d_gradients(seed: int) -> list[str]:
    """conv2d's input, weight and bias gradients against central differences."""
    rng = np.random.default_rng(seed)
    bad = []
    for stride, pad in ((1, 1), (2, 1), (1, 0)):
        x = ag.Tensor(rng.normal(size=(2, 6, 5, 3)), requires_grad=True)
        w = ag.Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
        b = ag.Tensor(rng.normal(size=4), requires_grad=True)
        probe = rng.normal(size=ag.conv2d(x, w, b, stride, pad).shape)

        def loss():
            return float((ag.conv2d(x, w, b, stride, pad).data * probe).sum())

        ag.sum_(ag.mul(ag.conv2d(x, w, b, stride, pad), probe)).backward()
        bad += _fd_mismatches(f"conv2d stride={stride} pad={pad}", loss,
                              [("x", x), ("w", w), ("b", b)], rng, entries=8)
    return bad


def codec_causality(codec: LatentCodec, video: PixelVideo, seed: int) -> list[str]:
    """Frames after 4k leave latent frames 0..k bit-identical; f' frames give
    floor(f'/4) + 1 latent frames."""
    rng = np.random.default_rng(seed)
    bad = []
    base = codec.encode(video).data
    for k in (0, 2, 5):
        frames = video.data.copy()
        frames[4 * k + 1:] = rng.uniform(size=frames[4 * k + 1:].shape)
        z = codec.encode(PixelVideo(frames)).data
        if not np.array_equal(z[:k + 1], base[:k + 1]):
            bad.append(f"codec causality: latent frames 0..{k} changed when pixel "
                       f"frames after {4 * k} did")
    for fp in (1, 2, 4, 5, 8, 9, 13):
        f = codec.encode(PixelVideo(video.data[:fp])).frames
        if f != latent_frame_count(fp) or f != fp // 4 + 1:
            bad.append(f"codec frame count: {fp} pixel frames gave {f} latent frames")
    return bad


def codec_round_trip(codec: LatentCodec, videos: list[PixelVideo]) -> list[str]:
    """The trained codec reconstructs its training clips better than mid-gray."""
    recon = [codec.decode(codec.encode(v)).data for v in videos]
    l1 = float(np.mean([np.abs(r - v.data).mean() for r, v in zip(recon, videos)]))
    gray = float(np.mean([np.abs(0.5 - v.data).mean() for v in videos]))
    if not l1 < gray:
        return [f"codec round trip: L1 {l1:.4f} does not beat mid-gray's {gray:.4f}"]
    return []


def flow_loss_gradients(seed: int) -> list[str]:
    """flow_loss_t's parameter gradients on a small float64 model against
    central differences, with every conditioning branch of the
    single-subject task live (identity tokens, fused image-text prompt)."""
    rng = np.random.default_rng(seed)
    codec = LatentCodec(CodecConfig(latent_channels=4, hidden_channels=4, seed=seed),
                        dtype=np.float64)
    config = ModelConfig(backbone=BackboneConfig(width=16, heads=2, blocks=1,
                                                 latent_channels=4, text_width=8,
                                                 mlp_ratio=2), seed=seed)
    model = CustomVideoModel(config, dtype=np.float64)
    for _, p in model.store.items():      # zero-initialised layers would hide gradients
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    image = PixelVideo(rng.uniform(size=(1, 16, 16, 3)))
    video = PixelVideo(rng.uniform(size=(5, 16, 16, 3)))
    ps = model.prepare(codec, LatentStats.identity(4), video=video, identity_images=[image],
                       spec=PromptSpec("a red circle drifts", [("circle", image)]))
    z0 = rng.normal(size=ps.z1.shape)
    t = 0.37

    def loss():
        return float(flow_match.flow_loss_t(model, ps, t, z0).data)

    model.store.zero_grad()
    flow_match.flow_loss_t(model, ps, t, z0).backward()
    params = [(n, p) for n, p in model.store.items() if p.grad is not None]
    bad = _fd_mismatches("flow_loss_t", loss, params, rng, entries=1)
    # without audio or a condition video, only those branches stay out of the loss
    idle = ("audio.", "align.", "vidcat.", "vidin.")
    missing = [n for n, p in model.store.items() if p.grad is None and not n.startswith(idle)]
    if missing:
        bad.append(f"flow_loss_t: no gradient reached {missing}")
    return bad


def loss_below_zero_velocity(losses: list[float], z1: np.ndarray) -> list[str]:
    """The last tenth of training beats predicting zero velocity, whose
    expected loss is E[(z1 - z0)^2] = mean(z1^2) + 1."""
    tail = losses[-max(len(losses) // 10, 1):]
    zero_v = float(np.mean(np.square(z1.astype(np.float64)))) + 1.0
    if not np.mean(tail) < zero_v:
        return [f"flow loss: last-tenth mean {np.mean(tail):.4f} is not below the "
                f"zero-velocity loss {zero_v:.4f}"]
    return []


def byte_identical(a: dict, b: dict, what: str) -> list[str]:
    """Byte equality of two name -> array dicts."""
    if sorted(a) != sorted(b) or any(
            a[k].dtype != b[k].dtype or a[k].tobytes() != b[k].tobytes() for k in a):
        return [f"determinism: {what} differ between two runs from the same seed"]
    return []


def clips_valid(videos: list[np.ndarray], frames: int) -> list[str]:
    bad = []
    for i, v in enumerate(videos):
        if v.shape[0] != frames or not np.isfinite(v).all() or v.min() < 0 or v.max() > 1:
            bad.append(f"clip {i}: {v.shape[0]} frames, range [{v.min()}, {v.max()}]")
    return bad


def euler_matches(model, ps, tokens: np.ndarray, steps: int, seed: int,
                  rtol: float = 1e-3) -> list[str]:
    """sample_flow against an Euler loop over model.velocity_t run here, from
    the same noise, with the state accumulated in float64."""
    z = np.random.default_rng(seed).standard_normal(
        (ps.n_video_tokens, model.config.backbone.latent_channels))
    z = z.astype(model.store.dtype).astype(np.float64)
    with ag.no_grad():
        for k in range(steps):
            v = model.velocity_t(ps, ag.Tensor(z.astype(model.store.dtype)), k / steps).data
            z += v[v.shape[0] - ps.n_video_tokens:] / steps
    err = float(np.abs(z - tokens).max())
    scale = max(float(np.abs(z).max()), 1.0)
    if not err <= rtol * scale:
        return [f"sampler: sample_flow differs from the reference Euler loop by "
                f"{err:.3g} (scale {scale:.3g})"]
    return []
