"""Minimal reverse-mode autodiff on numpy arrays.

Every trainable computation in this package runs through the ops defined
here; `tests/test_autograd.py` checks each op against central finite
differences, and the acceptance suite re-checks the composed models the
same way.  Ops preserve the dtype of their inputs (float32 for training,
float64 for gradient-fidelity tests), and the whole tape is deterministic:
no op ever draws randomness.  The module needs only numpy: `gelu` takes the
normal cdf from the Abramowitz & Stegun 7.1.26 erfc approximation
(absolute error at most 1.5e-7 in erf, so 7.5e-8 in the cdf).

Tape: a `Tensor` is an array and a `Node`; ops link the nodes, and every
VJP closure holds arrays, shapes and flags, never a tensor, so an
activation lives only while the forward code or a VJP holds it.  No op
keeps what its VJP can rebuild cheaply: `matmul` forms w * scale in each
pass, and `gelu_matmul` keeps only its input.  `layer_norm` only
normalises: the backbone folds the affine parameters and its timestep
modulation into the linear layers around it, as `matmul`'s `scale`.
`split` cuts one array into views whose gradients are written into one
buffer.

Memory: `attention` never allocates its [B, L, S] scores.  It works on one
tile of at most `_TILE` score elements at a time and keeps one log-sum-exp
per row for the backward pass, which recomputes each tile.  An untaped
`conv2d` builds its im2col columns in chunks of frames of at most `_TILE`
elements; a taped call keeps all of them, for its VJP.  `matmul` adds a
bias in place, so a linear layer is one tape op.  `gelu_matmul` runs its
GELU in row blocks whose working arrays total at most `_TILE` elements.

Time: `attention` works on base-2 scores with exp2.  When one Cauchy-Schwarz
bound per call proves every score within +-64, it skips the row-max pass;
otherwise it floors the shifted scores, and the backward pass always floors
its recomputed ones, so that no step makes subnormals.  Given a count per
key, `attention` computes softmax attention over each key repeated that many
times while scoring every distinct key once: the backbone's cross-attention
runs over the distinct rows of the fused prompt this way.
"""

from __future__ import annotations

import math

import numpy as np

# p and a1..a5 of Abramowitz & Stegun 7.1.26 (see `gelu`), rescaled for
# z = |x| / sqrt 2 and halved, so that q(t) exp(-x^2 / 2) is Phi(-|x|) with
# q(t) = a1 t + ... + a5 t^5; and b1..b6, b_k = (k-1) (a_{k-1} - a_k), of
# the polynomial b(t) in the exact derivative of that approximation.  They
# are Python floats: a numpy float64 scalar would upcast float32 arrays.
_AS_P = 0.3275911 / math.sqrt(2.0)
_AS_A = tuple(0.5 * c for c in (0.254829592, -0.284496736, 1.421413741,
                                -1.453152027, 1.061405429))
_AS_B = tuple((k - 1) * (lo - hi)
              for k, lo, hi in zip(range(1, 7), (0.0,) + _AS_A, _AS_A + (0.0,)))

# `attention` works in base 2: scores are scale * log2(e) * q k^T.  Its fast
# path needs every score within +-_SCORE_BOUND; its row-max path and its
# backward pass floor the shifted scores at _EXP2_FLOOR.  A weight of
# 2^-126, the least normal float32, would still make subnormal products with
# every |v| < 1 inside the weight product; at 2^-100 only |v| < 2^-26 does.
_LOG2E = 1.0 / math.log(2.0)
_SCORE_BOUND = 64.0
_EXP2_FLOOR = -100.0

# Elements in one working tile: an attention score tile (see `attention`),
# the im2col columns of one frame chunk of an untaped `conv2d`, or the
# working arrays of one row block of `gelu_matmul`'s GELU.
_TILE = 1 << 18


class Node:
    """One tape entry: the gradient being summed, the parent nodes and the VJP.

    A node holds no activation.  Whatever array its VJP reads, the VJP's
    closure holds, so an op's output lives only as long as the forward code
    holds its tensor or a VJP holds the array.
    """

    __slots__ = ("grad", "requires_grad", "parents", "vjp")

    def __init__(self, requires_grad):
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = ()
        self.vjp = None


class Tensor:
    """A numpy array (`data`) and its tape node (`node`)."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.node = Node(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self):
        return self.node.requires_grad

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def _vjp(self):
        return self.node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self.node.vjp = vjp

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from this (scalar) tensor through the tape."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        root = self.node
        topo = _toposort(root)
        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.vjp is None:
                continue
            grads = node.vjp(node.grad)
            for parent, g in zip(node.parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
            # free intermediate grads and the tape edge eagerly
            if node is not root:
                node.grad = None
                node.parents = ()
                node.vjp = None


def _toposort(root):
    """The nodes that `root` depends on through nodes requiring a gradient,
    parents before children."""
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
        for p in node.parents:
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
    """The tensor of an op's output `data`.  When taping and some parent
    tensor requires a gradient, its node records the parents' nodes and
    `vjp`, which maps the output's gradient to one gradient per parent."""
    out = Tensor(data)
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        node = out.node
        node.requires_grad = True
        node.parents = tuple(p.node for p in parents)
        node.vjp = vjp
    return out


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
    sa = a.data.shape
    if isinstance(b, Tensor):
        sb = b.data.shape
        return _make(a.data + b.data, (a, b),
                     lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return _make(a.data + b, (a,), lambda g: (_unbroadcast(g, sa),))


def mul(a, b):
    if isinstance(b, Tensor):
        data = a.data * b.data
        ad, bd = a.data, b.data
        return _make(data, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape),
                                              _unbroadcast(g * ad, bd.shape)))
    sa = a.data.shape
    return _make(a.data * b, (a,), lambda g: (_unbroadcast(g * b, sa),))


def _folded(wd, sd):
    """The weight w * scale of `matmul` and `gelu_matmul`; w itself without a scale."""
    return wd if sd is None else wd * sd


def _weight_grads(x2, g2, wd, sd, bias_shape):
    """The gradients of w, the bias (when `bias_shape` is not None) and
    scale (when `sd` is not None) of x2 @ (w * scale) + bias, given g2, the
    [rows, k] gradient of the output, and x2, the [rows, n] left operand.
    Those of w and scale are `mul(w, scale)`'s, given the folded weight's."""
    gws = x2.T @ g2
    grads = [gws if sd is None else gws * sd]
    if bias_shape is not None:
        grads.append(_unbroadcast(g2, bias_shape))
    if sd is not None:
        grads.append(_unbroadcast(gws * wd, sd.shape))
    return tuple(grads)


def matmul(a, w, bias=None, scale=None):
    """a @ (w * scale) + bias for a 2-D w (a weight), as one tape op.

    This is the linear layer of every model.  The leading axes of a are
    flattened into the rows of one matrix product, forward and backward.
    The bias is added in place to the product, so the tape keeps no separate
    product array.  The gradient of a is skipped when a does not require one
    (the input of a model's first layer).

    `scale`, when given, broadcasts against w: a [n, 1] gain scales its rows
    and a [1, k] gate its columns.  The forward pass and the VJP each form
    w * scale as a temporary, so the tape keeps w and scale, not the folded
    weight.
    """
    ad, wd = a.data, w.data
    sd = None if scale is None else scale.data
    a2 = ad.reshape(-1, ad.shape[-1])
    data = (a2 @ _folded(wd, sd)).reshape(ad.shape[:-1] + wd.shape[-1:])
    if bias is not None:
        data += bias.data
    need_ga = a.requires_grad
    bias_shape = None if bias is None else bias.data.shape

    def vjp(g):
        g2 = g.reshape(-1, wd.shape[-1])
        ga = (g2 @ _folded(wd, sd).T).reshape(ad.shape) if need_ga else None
        return (ga,) + _weight_grads(ad.reshape(-1, ad.shape[-1]), g2, wd, sd, bias_shape)

    parents = tuple(t for t in (a, w, bias, scale) if t is not None)
    return _make(data, parents, vjp)


def _horner(t, coefs):
    """coefs[0] t + coefs[1] t^2 + ..., as in-place passes over one new array."""
    acc = t * coefs[-1]
    for c in coefs[-2::-1]:
        acc += c
        acc *= t
    return acc


def _gelu_into(x, y, slope):
    """Write gelu(x) into y, an array of x's shape and dtype; return its
    derivative at x when `slope`, else None.  See `gelu`."""
    np.abs(x, out=y)                    # t, then e, then the output
    y *= _AS_P
    y += 1.0
    np.reciprocal(y, out=y)
    # d before T, so that T's buffer is the last one allocated and freed
    d = _horner(y, _AS_B) if slope else None
    s = _horner(y, _AS_A)               # q(t), then T, then |x| T
    np.multiply(x, x, out=y)
    y *= -0.5
    np.exp(y, out=y)
    s *= y
    if d is not None:
        d *= y
        np.multiply(x, x, out=y)
        y *= s
        d -= y                          # V
        np.subtract(0.5, d, out=d)
        np.copysign(d, x, out=d)
        d += 0.5
    np.abs(x, out=y)
    s *= y
    np.maximum(x, 0.0, out=y)
    y -= s
    return d


def gelu(a):
    """x Phi(x), with Phi the standard normal cdf (Hendrycks & Gimpel 2016).

    T = Phi(-|x|) = erfc(|x| / sqrt 2) / 2 comes from Abramowitz & Stegun
    7.1.26, erfc(z) ~ t (a1 + t (a2 + t (a3 + t (a4 + t a5)))) exp(-z^2) with
    t = 1 / (1 + p z): its error is at most 1.5e-7 in erfc, so 7.5e-8 in T.
    The output is max(x, 0) - |x| T, which needs no select on the sign of x
    and has no cancellation for negative x.  Every step is an in-place numpy
    pass over one of two buffers (three when taped), so the cost does not
    depend on the values, and float32 stays float32.

    When taped, the forward pass also computes the derivative d of that
    output and keeps only d: the VJP is g d.  d is exact for the
    approximation, so finite differences of the output agree with it; it is
    within 5.4e-7 of Phi(x) + x phi(x).  With u = |x| and u p t = 1 - t,
    d = 1/2 + sign(x) (1/2 - V), where V = T + u T'(u) = e b(t) - x^2 T
    reuses e = exp(-x^2 / 2) and t.  Under `no_grad` no derivative is
    computed.  An MLP's activation and the linear layer after it are one op,
    `gelu_matmul`, which keeps neither the output nor d.
    """
    x = a.data
    y = np.empty_like(x)
    d = _gelu_into(x, y, _GRAD_ENABLED[-1] and a.requires_grad)
    return _make(y, (a,), lambda g: (g * d,))


def gelu_matmul(u, w, bias=None, scale=None):
    """gelu(u) @ (w * scale) + bias as one tape op: an MLP's second layer.

    The same function as `matmul(gelu(u), w, bias, scale)`, with the same
    arithmetic, but the tape keeps only u (and the parameters): the VJP
    rebuilds gelu(u) and its derivative (gradient checkpointing, Chen et
    al., arXiv 1604.06174).  Both passes run the GELU kernel over blocks
    of rows whose working arrays (the rows of u and of gelu(u), the
    kernel's temporary and the derivative) total at most `_TILE`
    elements, so they stay small, and write gelu(u) into one u-sized
    buffer, so the product and the weight gradient each stay one matrix
    product.  Backward, the gradient of gelu(u), g (w * scale)^T, is
    multiplied by the derivative one block at a time.
    """
    ud, wd = u.data, w.data
    sd = None if scale is None else scale.data
    u2 = ud.reshape(-1, ud.shape[-1])
    blocks = _row_blocks(u2.shape[0], 4 * u2.shape[1])

    def activation(gh):
        # gelu(u) in one u-sized buffer; given gh, also gh *= its derivative
        h = np.empty_like(u2)
        for r in blocks:
            d = _gelu_into(u2[r], h[r], gh is not None)
            if gh is not None:
                gh[r] *= d
        return h

    data = (activation(None) @ _folded(wd, sd)).reshape(ud.shape[:-1] + wd.shape[-1:])
    if bias is not None:
        data += bias.data
    need_gu = u.requires_grad
    bias_shape = None if bias is None else bias.data.shape

    def vjp(g):
        g2 = g.reshape(-1, wd.shape[-1])
        gh = g2 @ _folded(wd, sd).T if need_gu else None
        h = activation(gh)
        gu = None if gh is None else gh.reshape(ud.shape)
        return (gu,) + _weight_grads(h, g2, wd, sd, bias_shape)

    parents = tuple(t for t in (u, w, bias, scale) if t is not None)
    return _make(data, parents, vjp)


def _row_blocks(rows, per_row):
    """Near-equal slices covering range(rows), of at most max(1, _TILE // per_row) rows."""
    count = -(-rows // max(1, _TILE // per_row))
    step = -(-rows // count)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _scores_bounded(qs, kd, vd, dtype, keys):
    """Whether the fast path of `attention` is safe for these inputs.

    By Cauchy-Schwarz every base-2 score qs_i . k_j lies within
    max_i |qs_i| max_j |k_j|; when that is at most `_SCORE_BOUND`, exp2 of a
    score is a normal float in [2^-64, 2^64], and e @ [c v | c] cannot
    overflow unless keys 2^64 max|v| does, where `keys` is the number of keys
    the softmax runs over: S, or the sum of the counts.  NaN or infinite
    inputs fail the test.
    """
    bound = math.sqrt(float(np.einsum("...i,...i->...", qs, qs).max())
                      * float(np.einsum("...i,...i->...", kd, kd).max()))
    vmax = float(max(vd.max(), -vd.min()))
    return (bound <= _SCORE_BOUND
            and vmax * keys * 2.0 ** _SCORE_BOUND < float(np.finfo(dtype).max))


def attention(q, k, v, scale, counts=None):
    """Fused softmax(scale * q k^T) v over batched q [B, L, dh], k/v [B, S, dh].

    Same function as the matmul/softmax/matmul composition, computed one
    block of query rows at a time; a block holds every key, so each row's
    softmax is exact and needs no online rescaling.  The blocks are near
    equal, and a block's [B, rows, S] score tile has at most `_TILE`
    elements (a block is one row if a single row is larger), so no
    [B, L, S] array is ever allocated.  Besides q, k and v the tape keeps
    only the output and one [B, L, 1] base-2 log-sum-exp per row
    (FlashAttention-2, Dao, arXiv 2307.08691):

    - v is held contiguous: a strided v (a third of a qkv product) is
      copied once, so the tape does not pin the array it views.
    - The output is written token-major, a [B, L, dh] view of an
      [L, B, dh] array, so merging the heads of a [heads, L, dh] output
      into [L, heads * dh] is a view, and the next linear layer holds the
      same array as this VJP.

    - `scale * log2(e)` is folded into q, so the scores s come out in base
      2, are never rescaled, and are exponentiated with exp2.
    - Fast path: when `_scores_bounded` proves every |s| <= `_SCORE_BOUND`
      (one Cauchy-Schwarz bound per call, from the largest row norms of the
      scaled q and of k), e = exp2(s) needs no row-max shift.
    - Row-max path, for any other input: e = exp2(max(s - rowmax(s), -100)).
      The floor (`_EXP2_FLOOR`) keeps exp2 and e v off subnormal floats,
      which cost 10-40x more, and changes each weight by at most 2^-100 of
      the row's largest.
    - Either path then takes one product e @ [v | 1], v with a column of
      ones appended, for the unnormalised output and the row sums den
      together; the output is divided by den, and lse = log2(den), plus
      rowmax(s) on the row-max path.
    - Backward: each tile is recomputed as P = exp2(max(s - lse, -100))
      (gradient checkpointing, Chen et al., arXiv 1604.06174).  The floor
      holds on both paths: on the fast path s - lse can reach
      -128 - log2(S), below the least normal float32.  The softmax row term
      rowsum(dP * P), with dP = g v^T, equals rowsum(g * out): a [B, L, dh]
      product, not a score-sized one.  The score gradient of the tile is
      P * (g v^T - rowsum(g * out)); gq is written block by block, and gk
      and gv are summed over the blocks.

    `counts`, a [S] array of positive key multiplicities, makes key j (with
    its value) stand for counts[j] identical copies: the result is that of
    attention over the keys repeated by their counts, the proportional
    attention of Token Merging (Bolya et al., arXiv 2210.09461), at the
    cost of the distinct keys.  The tail product becomes e @ [c v | c], so
    the output and the row sums both weight key j by c_j; the backward pass
    multiplies the recomputed P by c, so gv, the score gradient, gq and gk
    come out summed over the copies; and the overflow guard counts sum(c)
    keys.  Without counts (self-attention) every key counts once and none of
    these multiplies runs.

    Either path computes the same output whether or not the call is taped.
    The VJP never writes to g.  `scale` is taken as a Python float, so that
    a numpy float64 scale does not promote the float32 scores to float64.
    """
    scale = float(scale)
    qd, kd, vd = q.data, k.data, np.ascontiguousarray(v.data)
    n, rows = qd.shape[:2]
    blocks = _row_blocks(rows, n * kd.shape[1])
    qs = qd * (scale * _LOG2E)
    kt = np.ascontiguousarray(np.swapaxes(kd, -1, -2))
    out = np.empty((rows, n, vd.shape[-1]), dtype=np.result_type(qd, kd, vd))
    out = np.swapaxes(out, 0, 1)        # [B, L, dh], token-major in memory
    lse = np.empty((n, rows, 1), dtype=out.dtype)
    if counts is None:
        c = None
        keys = kd.shape[1]
        vo = np.concatenate([vd, np.ones(vd.shape[:-1] + (1,), dtype=out.dtype)], axis=-1)
    else:
        c = np.asarray(counts, dtype=out.dtype)
        keys = float(c.sum())
        cv = c[:, None]
        vo = np.concatenate([vd * cv, np.broadcast_to(cv, vd.shape[:-1] + (1,))], axis=-1)
    fast = _scores_bounded(qs, kd, vd, out.dtype, keys)
    for r in blocks:
        e = qs[:, r] @ kt
        if not fast:
            m = e.max(axis=-1, keepdims=True)
            e -= m
            np.maximum(e, _EXP2_FLOOR, out=e)
        np.exp2(e, out=e)
        ov = e @ vo
        den = ov[..., -1:]
        np.divide(ov[..., :-1], den, out=out[:, r])
        np.log2(den, out=lse[:, r])
        if not fast:
            lse[:, r] += m

    def vjp(g):
        # -lse and -rowsum(g * out) ride in one extra column of the left
        # operands, against a row of ones in the right ones, so each tile
        # product comes out shifted: s - lse, and g v^T - rowsum(g * out)
        ones = np.ones((n, 1, kd.shape[1]), dtype=out.dtype)
        qa = np.concatenate([qd * (scale * _LOG2E), -lse], axis=-1)
        ka = np.concatenate([np.swapaxes(kd, -1, -2), ones], axis=1)
        ga = np.concatenate([g, -(g * out).sum(axis=-1, keepdims=True)], axis=-1)
        va = np.concatenate([np.swapaxes(vd, -1, -2), ones], axis=1)
        gq = np.empty_like(qd)
        gk = np.zeros_like(kd)
        gv = np.zeros_like(vd)
        for r in blocks:
            p = qa[:, r] @ ka
            np.maximum(p, _EXP2_FLOOR, out=p)
            np.exp2(p, out=p)
            if c is not None:
                p *= c                  # each key's weight summed over its copies
            gv += np.swapaxes(p, -1, -2) @ g[:, r]
            gs = ga[:, r] @ va
            gs *= p                     # gs is now the gradient of scale * q k^T
            np.matmul(gs, kd, out=gq[:, r])
            gk += np.swapaxes(gs, -1, -2) @ qd[:, r]
        gq *= scale
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


def split(a, keys):
    """The pieces a[key] for each basic index `key` (slices and integers) in
    `keys`, as one op; the keys must select disjoint parts of a.

    Each piece is a view of a.  Backward, the first piece to receive a
    gradient allocates one a-sized buffer, zero where no piece writes, and
    every piece writes its gradient into its own part of it; the buffer
    reaches a once, through a node that stands between a and the pieces.
    """
    ad = a.data
    pieces = [ad[key] for key in keys]
    if not (_GRAD_ENABLED[-1] and a.requires_grad):
        return [Tensor(p) for p in pieces]
    shape = ad.shape
    buf = []
    src = _make(ad, (a,), lambda g: (g,))

    def piece(key):
        def vjp(g):
            first = not buf             # later pieces write into what src holds
            if first:
                buf.append(np.zeros(shape, dtype=g.dtype))
            buf[0][key] = g
            return (buf[0] if first else None,)
        return vjp

    return [_make(p, (src,), piece(key)) for p, key in zip(pieces, keys)]


def sum_(a):
    """Sum of every element: a scalar."""
    shape = a.data.shape
    return _make(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def mean_(a):
    """Mean of every element: a scalar."""
    return mul(sum_(a), 1.0 / float(a.data.size))


def embedding(table, idx):
    """Row gather table[idx]; gradient scatter-adds into the table."""
    idx = np.asarray(idx)
    shape = table.data.shape

    def vjp(g):
        gt = np.zeros(shape, dtype=g.dtype)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make(table.data[idx], (table,), vjp)


def layer_norm(x, eps=1e-5):
    """Normalise over the last axis: (x - mean) / sqrt(var + eps).

    No scale or shift: its callers fold those into the linear layer that
    reads the output (`Backbone._norm_linear`).  The VJP keeps the output
    and one 1/std per row.
    """
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xh = xd - mu
    var = (xh * xh).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh *= inv
    d = xd.shape[-1]

    def vjp(g):
        return (inv * (g - g.mean(axis=-1, keepdims=True)
                       - xh * (g * xh).sum(axis=-1, keepdims=True) / d),)

    return _make(xh, (x,), vjp)


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

    Untaped (under `no_grad`, or with no input requiring a gradient), the
    im2col columns are built one chunk of frames at a time, at most `_TILE`
    elements each, and each chunk's product is written into its slice of
    the output.  A taped call builds them in one piece, for its VJP.
    """
    xd, wd = x.data, w.data
    n, h, wdt, ci = xd.shape
    kh, kw, _, co = wd.shape
    xp = _pad_hw(xd, pad, pad)
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    wf = wd.reshape(kh * kw * ci, co)
    parents = (x, w, b) if b is not None else (x, w)
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        chunks = [slice(0, n)]          # one chunk: the VJP needs all of cols
    else:
        chunks = _row_blocks(n, ho * wo * kh * kw * ci)
    data = np.empty((n, ho, wo, co), dtype=np.result_type(xd, wd))
    for c in chunks:
        cols = _im2col(xp[c], kh, kw, stride, ho, wo)
        out = data[c].reshape(-1, co)
        np.matmul(cols, wf, out=out)
        if b is not None:
            out += b.data

    need_gx, has_bias = x.requires_grad, b is not None
    xp_shape, xp_dtype = xp.shape, xp.dtype

    def vjp(g):
        gf = g.reshape(n * ho * wo, co)
        gw = (cols.T @ gf).reshape(wd.shape)
        gb = gf.sum(axis=0) if has_bias else None
        if not need_gx:
            gx = None
        elif stride == 1 and pad < min(kh, kw):
            gp = _pad_hw(g, kh - 1 - pad, kw - 1 - pad)
            wt = wd[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * co, ci)
            gx = (_im2col(gp, kh, kw, 1, h, wdt) @ wt).reshape(n, h, wdt, ci)
        else:
            gcols = (gf @ wf.T).reshape(n, ho, wo, kh, kw, ci)
            gxp = np.zeros(xp_shape, dtype=xp_dtype)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride, :] += gcols[:, :, :, i, j, :]
            gx = gxp[:, pad:pad + h, pad:pad + wdt, :] if pad else gxp
        if has_bias:
            return gx, gw, gb
        return gx, gw

    return _make(data, parents, vjp)
