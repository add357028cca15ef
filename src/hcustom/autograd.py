"""Minimal reverse-mode autodiff on numpy arrays.

Every trainable computation in this package runs through the ops defined
here; `tests/test_autograd.py` checks each op against central finite
differences, and the acceptance suite re-checks the composed models the
same way.  Ops preserve the dtype of their inputs (float32 for training,
float64 for gradient-fidelity tests), and the whole tape is deterministic:
no op ever draws randomness.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class Tensor:
    """A numpy array plus the tape bookkeeping needed for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants stay plain numpy/python and are never taped
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("divide by a Tensor is not supported; use reciprocal ops explicitly")
        return mul(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def backward(self):
        """Backpropagate from this (scalar) tensor through the tape."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None:
                continue
            grads = node._vjp(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
            # free intermediate grads and the tape edge eagerly
            if node is not self:
                node.grad = None
                node._parents = ()
                node._vjp = None


def _toposort(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


_GRAD_ENABLED = [True]


class no_grad:
    """Context manager: ops built inside record no tape (inference mode)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


def _make(data, parents, vjp):
    if not _GRAD_ENABLED[-1]:
        return Tensor(data)
    tracked = tuple(p for p in parents if isinstance(p, Tensor))
    if any(p.requires_grad for p in tracked):
        return Tensor(data, requires_grad=True, _parents=tracked, _vjp=vjp)
    return Tensor(data)


def constant(data):
    return Tensor(data)


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b):
    if isinstance(b, Tensor):
        data = a.data + b.data
        return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                              _unbroadcast(g, b.data.shape)))
    data = a.data + b
    return _make(data, (a,), lambda g: (_unbroadcast(g, a.data.shape),))


def sub(a, b):
    if isinstance(b, Tensor):
        data = a.data - b.data
        return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                              _unbroadcast(-g, b.data.shape)))
    data = a.data - b
    return _make(data, (a,), lambda g: (_unbroadcast(g, a.data.shape),))


def neg(a):
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b):
    if isinstance(b, Tensor):
        data = a.data * b.data
        ad, bd = a.data, b.data
        return _make(data, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape),
                                              _unbroadcast(g * ad, bd.shape)))
    data = a.data * b
    return _make(data, (a,), lambda g: (_unbroadcast(g * b, a.data.shape),))


def matmul(a, b):
    ad, bd = a.data, b.data
    data = ad @ bd

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def gelu(a):
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * phi

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (phi + x * pdf),)

    return _make(data, (a,), vjp)


def softmax(a, axis=-1):
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return ((g - (g * y).sum(axis=axis, keepdims=True)) * y,)

    return _make(y, (a,), vjp)


def attention(q, k, v, scale):
    """Fused softmax(scale * q k^T) v over batched q [B, L, dh], k/v [B, S, dh].

    Same function as the matmul/softmax/matmul composition, with fewer full
    passes over the [B, L, S] score buffer (FlashAttention, Dao et al. 2022):

    - `scale` is folded into q, so the scores are never rescaled.
    - The weights are left unnormalised, e = exp(s - rowmax(s)), and the
      [B, L, dh] output e v is divided by the row sums den instead.
    - In the backward pass the softmax row term rowsum(dP * P), with
      dP = g v^T, equals rowsum(g * out): a [B, L, dh] product, not a
      score-sized one.  With gn = g / den the score gradient is
      e * (gn v^T - rowsum(g * out) / den).

    The backward pass keeps e (the only score-sized buffer) and den, besides
    the inputs and the output.  The VJP never writes to g.
    """
    qd, kd, vd = q.data, k.data, v.data
    e = (qd * scale) @ np.swapaxes(kd, -1, -2)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    den = e.sum(axis=-1, keepdims=True)
    out = e @ vd
    out /= den

    def vjp(g):
        gn = g / den
        gv = np.swapaxes(e, -1, -2) @ gn
        gs = gn @ np.swapaxes(vd, -1, -2)
        gs -= (g * out).sum(axis=-1, keepdims=True) / den
        gs *= e                     # gs is now the gradient of the scaled scores
        gq = gs @ kd
        gq *= scale
        gk = np.swapaxes(gs, -1, -2) @ qd
        gk *= scale
        return gq, gk, gv

    return _make(out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes):
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis=0):
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate(datas, axis=axis), tuple(tensors), vjp)


def slice_axis(a, axis, start, stop):
    """Contiguous slice a[..., start:stop, ...] along `axis`."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape = a.data.shape

    def vjp(g):
        out = np.zeros(shape, dtype=g.dtype)
        out[idx] = g
        return (out,)

    return _make(a.data[idx], (a,), vjp)


def sum_(a, axis=None, keepdims=False):
    shape = a.data.shape
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(data, (a,), vjp)


def mean_(a, axis=None, keepdims=False):
    shape = a.data.shape
    if axis is None:
        n = a.data.size
    else:
        n = np.prod([shape[ax] for ax in np.atleast_1d(axis)])
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def embedding(table, idx):
    """Row gather table[idx]; gradient scatter-adds into the table."""
    idx = np.asarray(idx)
    shape = table.data.shape

    def vjp(g):
        gt = np.zeros(shape, dtype=g.dtype)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make(table.data[idx], (table,), vjp)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv
    data = xh * gamma.data + beta.data
    d = xd.shape[-1]

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xh).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxh = g * gamma.data
        dx = inv * (dxh - dxh.mean(axis=-1, keepdims=True)
                    - xh * (dxh * xh).sum(axis=-1, keepdims=True) / d)
        return dx, dgamma, dbeta

    return _make(data, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# convolution ops (NHWC layout)


def _pad_hw(x, ph, pw):
    """Zero-pad the two spatial axes of [N,H,W,C] by ph rows and pw columns."""
    if not (ph or pw):
        return x
    n, h, w, c = x.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    out[:, ph:ph + h, pw:pw + w] = x
    return out


def _im2col(xp, kh, kw, stride, ho, wo):
    """Rows of kh x kw windows of padded [N,Hp,Wp,C]: [N*ho*wo, kh*kw*C].

    Each row holds one window, tap-major and channel-minor, which matches
    the layout of a [kh,kw,C,Co] kernel reshaped to [kh*kw*C, Co].
    """
    n, c = xp.shape[0], xp.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, :stride * ho:stride, :stride * wo:stride]   # [N,ho,wo,C,kh,kw]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, kh * kw * c)


def conv2d(x, w, b=None, stride=1, pad=0):
    """2D convolution; x [N,H,W,Ci], w [kh,kw,Ci,Co], b [Co].

    At stride 1 the input gradient is itself a convolution: the output
    gradient, zero-padded by k-1-pad, convolved with the spatially flipped
    kernel whose Ci and Co axes are swapped (the transposed convolution).
    Other strides scatter the column gradient back one kernel tap at a time.
    The input gradient is skipped when x does not require one.
    """
    xd, wd = x.data, w.data
    n, h, wdt, ci = xd.shape
    kh, kw, _, co = wd.shape
    xp = _pad_hw(xd, pad, pad)
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    cols = _im2col(xp, kh, kw, stride, ho, wo)
    wf = wd.reshape(kh * kw * ci, co)
    out = cols @ wf
    if b is not None:
        out += b.data
    data = out.reshape(n, ho, wo, co)

    def vjp(g):
        gf = g.reshape(n * ho * wo, co)
        gw = (cols.T @ gf).reshape(wd.shape)
        gb = gf.sum(axis=0) if b is not None else None
        if not x.requires_grad:
            gx = None
        elif stride == 1 and pad < min(kh, kw):
            gp = _pad_hw(g, kh - 1 - pad, kw - 1 - pad)
            wt = wd[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * co, ci)
            gx = (_im2col(gp, kh, kw, 1, h, wdt) @ wt).reshape(n, h, wdt, ci)
        else:
            gcols = (gf @ wf.T).reshape(n, ho, wo, kh, kw, ci)
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride, :] += gcols[:, :, :, i, j, :]
            gx = gxp[:, pad:pad + h, pad:pad + wdt, :] if pad else gxp
        if b is not None:
            return gx, gw, gb
        return gx, gw

    parents = (x, w, b) if b is not None else (x, w)
    return _make(data, parents, vjp)
