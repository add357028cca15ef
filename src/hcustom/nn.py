"""Parameter bookkeeping, initializers, and the Adam optimizer."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, matmul


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

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x w + b over the last axis of x: one tape op, `matmul` with its bias."""
    return matmul(x, w, b)


class Adam:
    """Adam with global gradient-norm clipping; updates are name-ordered."""

    def __init__(self, store: ParamStore, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 clip_norm=1.0):
        self.store = store
        self.lr = float(lr)
        self.b1, self.b2 = betas
        self.eps = float(eps)
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self):
        grads = {}
        for name, p in self.store.items():
            if p.grad is None:
                continue
            grads[name] = p.grad
        if not grads:
            return 0.0
        norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                                 for g in grads.values())))
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for name in sorted(grads):
            p = self.store[name]
            g = grads[name] * scale if scale != 1.0 else grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            p.data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
        return norm
