"""Parameters, initializers, the Adam optimizer, and `fit`: the one training
loop, to which each trainer hands a per-item loss and a per-step generator."""

from __future__ import annotations

import ctypes
import functools
import os
import time

import numpy as np

from .autograd import Tensor, mul
from .errors import NumericalFailureError

try:
    import resource
except ImportError:     # not on every platform; steps then report no page faults
    resource = None

DIVERGENCE_LIMIT = 1e3
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# glibc's mallopt parameters (malloc.h) and the values `fit` gives them.  32 MiB
# is glibc's ceiling for its dynamic mmap threshold on 64-bit, and glibc's own
# rule keeps the trim threshold at twice the mmap threshold.  Both are set:
# setting either alone turns off glibc's dynamic thresholds, so that every
# array over 128 KiB is mmapped and faulted in again.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


class ParamStore:
    """Flat, name-keyed registry of trainable tensors.

    Iteration order is always sorted by name so that optimizer updates,
    gradient clipping, and checkpoint serialization are deterministic.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}

    def parameter(self, name: str, init: np.ndarray) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter name: {name}")
        t = Tensor(np.ascontiguousarray(init, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grad(self):
        for _, p in self.items():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Take over the arrays of `state`, copying only those of another
        dtype or layout; Adam then updates them in place."""
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in state.items():
            p = self._params[name]
            if p.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {arr.shape}")
            p.data = np.ascontiguousarray(arr, dtype=self.dtype)


def normal_init(rng: np.random.Generator, shape, std=None):
    if std is None:
        fan_in = shape[0] if len(shape) > 1 else shape[-1]
        std = 1.0 / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)


def conv_init(rng: np.random.Generator, kh, kw, cin, cout):
    std = 1.0 / np.sqrt(kh * kw * cin)
    return rng.normal(0.0, std, size=(kh, kw, cin, cout))


class Adam:
    """Adam with global gradient-norm clipping; updates are name-ordered.

    Each step updates the moments and the parameters in place, through two
    scratch buffers the size of the largest parameter, in the order of the
    textbook formula, so the arithmetic is that of the unfused expressions.
    """

    def __init__(self, store: ParamStore, lr=1e-3, clip_norm=1.0):
        self.store = store
        self.lr = float(lr)
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in store.items()}
        size = max((m.size for m in self._m.values()), default=0)
        self._scratch = np.empty((2, size), dtype=store.dtype)

    def step(self):
        grads = {}
        for name, p in self.store.items():
            if p.grad is None:
                continue
            grads[name] = p.grad
        if not grads:
            return 0.0
        norm = float(np.sqrt(sum(float(np.square(g, dtype=np.float64).sum())
                                 for g in grads.values())))
        scale = 1.0
        if norm > self.clip_norm:
            scale = self.clip_norm / norm
        self.t += 1
        b1, b2 = ADAM_BETAS
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for name in sorted(grads):
            p = self.store[name]
            m = self._m[name]
            v = self._v[name]
            s1, s2 = (buf[:m.size].reshape(m.shape) for buf in self._scratch)
            g = grads[name]
            if scale != 1.0:
                g = np.multiply(g, scale, out=s1)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s2)
            v *= b2
            np.multiply(g, g, out=s2)
            s2 *= 1.0 - b2
            v += s2
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
            np.divide(v, b2t, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            np.divide(m, b1t, out=s1)
            s1 *= self.lr
            s1 /= s2
            p.data -= s1
        return norm


@functools.cache
def _glibc_mallopt():
    """glibc's `mallopt` through ctypes, or None under another C library."""
    if ("CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {})
            or not os.confstr("CS_GNU_LIBC_VERSION")):
        return None
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    return mallopt


def _minor_faults() -> int | None:
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def fit(store: ParamStore, count: int, item_loss, step_rng, *, steps: int,
        batch_size: int, learning_rate: float, clip_norm: float,
        log=None) -> list[float]:
    """Train the parameters of `store` with Adam; returns the loss curve.

    Step s draws `rng = step_rng(s)`, then min(batch_size, count) distinct
    items from it, and backpropagates `item_loss(i, rng) / batch` for each
    item in draw order (`item_loss` takes its own draws from the same rng).
    A summed loss that is not finite or exceeds DIVERGENCE_LIMIT raises
    NumericalFailureError before the update.  `log` gets each step's loss,
    wall time, step time (`step_s`), gradient norm before clipping, whether
    clipping applied, and `page_faults`: the minor page faults of the
    process during the step, or None where `resource` is missing.

    Each step frees its whole tape after backward.  Before its first step,
    `fit` sets glibc's mmap and trim thresholds (MMAP_THRESHOLD,
    TRIM_THRESHOLD), so that glibc keeps that memory in the heap for the
    next step instead of unmapping it and faulting it back in zero-filled.
    The setting is process-wide, idempotent and never undone, and a no-op
    under another C library; it changes which addresses the arrays get,
    never the arithmetic.  It is made here and not at import because only
    training churns: no-grad code frees as it goes, so a process that only
    samples keeps glibc's defaults.
    """
    if count < 1:
        raise ValueError("dataset is empty")
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    opt = Adam(store, lr=learning_rate, clip_norm=clip_norm)
    losses = []
    t_start = time.monotonic()
    for step in range(steps):
        t_step, faults = time.monotonic(), _minor_faults()
        rng = step_rng(step)
        idx = rng.choice(count, size=min(batch_size, count), replace=False)
        store.zero_grad()
        total = 0.0
        for i in idx:
            loss = mul(item_loss(int(i), rng), 1.0 / len(idx))
            loss.backward()
            total += float(loss.data)
        if not np.isfinite(total):
            raise NumericalFailureError(f"loss became non-finite at step {step}")
        if total > DIVERGENCE_LIMIT:
            raise NumericalFailureError(f"training diverged at step {step}: loss={total}")
        grad_norm = opt.step()
        losses.append(total)
        if log is not None:
            now = time.monotonic()
            log(step=step, loss=total, wall_time=now - t_start, step_s=now - t_step,
                page_faults=None if faults is None else _minor_faults() - faults,
                grad_norm=grad_norm,
                clipped=grad_norm > clip_norm)
    return losses
