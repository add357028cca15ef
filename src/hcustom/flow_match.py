"""Flow-matching objective with logit-normal timesteps and an Euler sampler.

Convention fixed project-wide: t = 0 is pure noise, t = 1 is data, so the
linear path z_t = (1-t) z_0 + t z_1 has constant velocity u = z_1 - z_0
pointing toward the data.  Only video tokens are noised, and the model's
velocity holds only their rows; identity tokens stay clean during training
and are held fixed by the sampler.  Training runs through `nn.fit`: this
module supplies the per-item loss and the per-step Philox generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .model import CustomVideoModel, PreparedSample
from .nn import fit


@dataclass(frozen=True)
class NoiseSchedule:
    """Logit-normal parameters for timestep sampling."""

    m: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError(f"logit-normal scale must be positive, got {self.s}")

    def sample_t(self, rng: np.random.Generator) -> float:
        x = self.m + self.s * rng.standard_normal()
        return float(1.0 / (1.0 + np.exp(-x)))


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"sampler needs at least one step, got {self.steps}")


def interpolate(z0: np.ndarray, z1: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear path point z_t and its (t-independent) velocity u."""
    z0 = np.asarray(z0)
    z1 = np.asarray(z1)
    if z0.shape != z1.shape:
        raise ValueError(f"shape mismatch: {z0.shape} vs {z1.shape}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return (1.0 - t) * z0 + t * z1, z1 - z0


def flow_loss_t(model: CustomVideoModel, ps: PreparedSample, t: float,
                z0: np.ndarray) -> ag.Tensor:
    """Taped loss for one sample: MSE of predicted vs true velocity on video tokens."""
    if ps.z1 is None:
        raise ValueError("prepared sample has no clean latent; not a training sample")
    zt, u = interpolate(z0, ps.z1, t)
    v = model.velocity_t(ps, ag.Tensor(zt.astype(model.store.dtype)), t)
    diff = ag.add(v, -u.astype(model.store.dtype))
    return ag.mean_(ag.mul(diff, diff))


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, step]))


def train_flow(model: CustomVideoModel, samples: list[PreparedSample], *,
               steps: int, batch_size: int = 2, learning_rate: float = 1e-3,
               clip_norm: float = 1.0, schedule: NoiseSchedule = NoiseSchedule(),
               seed: int = 0, log=None) -> list[float]:
    """Seed-deterministic flow training through `nn.fit`; returns the loss curve.

    Step s draws from `_step_rng(seed, s)`, a counter-based generator keyed
    on (seed, step): the batch, then per item a timestep and its noise, so
    two runs with the same arguments produce identical curves and identical
    parameters.  `log` receives `fit`'s per-step events.
    """
    def item_loss(i, rng):
        ps = samples[i]
        t = schedule.sample_t(rng)
        z0 = rng.standard_normal(ps.z1.shape).astype(model.store.dtype)
        return flow_loss_t(model, ps, t, z0)

    return fit(model.store, len(samples), item_loss, lambda step: _step_rng(seed, step),
               steps=steps, batch_size=batch_size, learning_rate=learning_rate,
               clip_norm=clip_norm, log=log)


def sample_flow(model: CustomVideoModel, ps: PreparedSample,
                sampler: SamplerConfig) -> np.ndarray:
    """Euler-integrate the learned velocity field from noise to data.

    Returns normalized video latent tokens [f*wh, c]; identity tokens are
    held fixed inside the model assembly and never integrate.
    """
    rng = np.random.default_rng(sampler.seed)
    z = rng.standard_normal((ps.n_video_tokens,
                             model.config.backbone.latent_channels))
    z = z.astype(model.store.dtype)
    dt = 1.0 / sampler.steps
    with ag.no_grad():
        for k in range(sampler.steps):
            t = k / sampler.steps
            z = z + dt * model.velocity_t(ps, ag.Tensor(z), t).data
    return z
