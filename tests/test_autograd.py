import numpy as np
import pytest

from hcustom import autograd as ag


def fd_grad(fn, x, eps=1e-6):
    """Central finite differences of scalar fn w.r.t. the array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = fn()
        flat[i] = old - eps
        lo = fn()
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, arrays, eps=1e-6, atol=1e-7, rtol=1e-5):
    """build(tensors) -> Tensor; compares backward() grads to FD for each input."""
    tensors = [ag.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    loss = ag.sum_(ag.mul(out, out))
    loss.backward()

    def scalar():
        ts = [ag.Tensor(a) for a in arrays]
        o = build(*ts)
        return float((o.data ** 2).sum())

    for t, a in zip(tensors, arrays):
        num = fd_grad(scalar, a, eps=eps)
        np.testing.assert_allclose(t.grad, num, atol=atol, rtol=rtol)


rng = np.random.default_rng(0)


def test_add_broadcast():
    check_op(lambda a, b: ag.add(a, b), [rng.normal(size=(3, 4)), rng.normal(size=(4,))])


def test_mul_broadcast():
    check_op(lambda a, b: ag.mul(a, b), [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 1))])


def test_sub_and_neg():
    check_op(lambda a, b: ag.sub(ag.neg(a), b), [rng.normal(size=(5,)), rng.normal(size=(5,))])


def test_scalar_const_paths():
    check_op(lambda a: ag.add(ag.mul(a, 0.3), 1.7), [rng.normal(size=(4, 2))])


def test_matmul_2d():
    check_op(lambda a, b: ag.matmul(a, b), [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))])


def test_matmul_batched():
    check_op(lambda a, b: ag.matmul(a, b), [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))])


def test_matmul_broadcast_rhs():
    check_op(lambda a, b: ag.matmul(a, b), [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))])


def test_gelu():
    check_op(ag.gelu, [rng.normal(size=(6, 3))])


def test_softmax():
    check_op(lambda a: ag.softmax(a, axis=-1), [rng.normal(size=(4, 7))])


def test_reshape_transpose():
    check_op(lambda a: ag.transpose(ag.reshape(a, (2, 3, 4)), (1, 0, 2)),
             [rng.normal(size=(6, 4))])


def test_concat_slice():
    def build(a, b):
        c = ag.concat([a, b], axis=1)
        return ag.slice_axis(c, 1, 1, 4)
    check_op(build, [rng.normal(size=(3, 2)), rng.normal(size=(3, 3))])


def test_sum_mean_axes():
    check_op(lambda a: ag.mean_(ag.sum_(a, axis=2), axis=0), [rng.normal(size=(2, 3, 4))])


def test_embedding():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda t: ag.embedding(t, idx), [rng.normal(size=(3, 5))])


def test_layer_norm():
    check_op(lambda x, g, b: ag.layer_norm(x, g, b),
             [rng.normal(size=(4, 8)), rng.normal(size=(8,)), rng.normal(size=(8,))],
             atol=1e-6)


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", [
    pytest.param((2, 6, 6, 3), (3, 3), 1, 0, id="1-0"),
    pytest.param((2, 6, 6, 3), (3, 3), 1, 1, id="1-1"),
    pytest.param((2, 6, 6, 3), (3, 3), 2, 1, id="2-1"),
    pytest.param((2, 4, 5, 3), (2, 2), 1, 1, id="k2-pad1"),
    pytest.param((1, 5, 7, 2), (3, 3), 1, 1, id="non-square"),
    pytest.param((1, 4, 6, 2), (2, 3), 1, 1, id="non-square-kernel"),
    pytest.param((1, 7, 6, 2), (3, 3), 2, 0, id="2-0-ragged"),
    pytest.param((1, 3, 4, 2), (2, 2), 1, 2, id="pad-exceeds-kernel"),
])
def test_conv2d(x_shape, k_shape, stride, pad):
    check_op(lambda x, w, b: ag.conv2d(x, w, b, stride=stride, pad=pad),
             [rng.normal(size=x_shape), rng.normal(size=(*k_shape, x_shape[3], 4)),
              rng.normal(size=(4,))],
             atol=1e-6)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_skips_input_gradient_when_not_required(stride):
    x = rng.normal(size=(2, 5, 6, 3))
    w, b = rng.normal(size=(3, 3, 3, 4)), rng.normal(size=(4,))
    wt, bt = ag.Tensor(w, requires_grad=True), ag.Tensor(b, requires_grad=True)
    xt = ag.Tensor(x)
    out = ag.conv2d(xt, wt, bt, stride=stride, pad=1)
    assert out._vjp(np.ones_like(out.data))[0] is None
    ag.sum_(ag.mul(out, out)).backward()
    assert xt.grad is None

    def scalar():
        return float((ag.conv2d(ag.Tensor(x), ag.Tensor(w), ag.Tensor(b),
                                stride=stride, pad=1).data ** 2).sum())

    np.testing.assert_allclose(wt.grad, fd_grad(scalar, w), atol=1e-6, rtol=1e-5)
    np.testing.assert_allclose(bt.grad, fd_grad(scalar, b), atol=1e-6, rtol=1e-5)


def test_no_grad_graph_is_pruned():
    a = ag.Tensor(rng.normal(size=(3, 3)))
    b = ag.matmul(a, a)
    assert not b.requires_grad and b._parents == ()


def test_grad_accumulates_over_reuse():
    a = ag.Tensor(np.array([2.0]), requires_grad=True)
    loss = ag.sum_(ag.mul(a, a))  # a appears twice
    loss.backward()
    np.testing.assert_allclose(a.grad, [4.0])


def test_backward_requires_scalar():
    a = ag.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ag.mul(a, 2.0).backward()


def test_dtype_preserved_float32():
    a = ag.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    out = ag.gelu(ag.add(ag.mul(a, 0.5), 0.25))
    assert out.data.dtype == np.float32


# ---------------------------------------------------------------------------
# attention


def _attention_reference(q, k, v, scale, probe):
    """matmul -> softmax -> matmul in plain numpy, and the gradients of
    sum(out * probe) with respect to q, k and v."""
    s = scale * q @ np.swapaxes(k, -1, -2)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v
    gp = probe @ np.swapaxes(v, -1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gq = scale * gs @ k
    gk = scale * np.swapaxes(gs, -1, -2) @ q
    gv = np.swapaxes(p, -1, -2) @ probe
    return out, (gq, gk, gv)


ATTENTION_CASES = [
    pytest.param(2, 5, 5, 4, 1.0, id="self"),
    pytest.param(3, 4, 7, 3, 0.37, id="cross"),
]


@pytest.mark.parametrize("b,l,s,dh,scale", ATTENTION_CASES)
def test_attention_gradients_match_finite_differences(b, l, s, dh, scale):
    local = np.random.default_rng(11)
    check_op(lambda q, k, v: ag.attention(q, k, v, scale),
             [local.normal(size=(b, l, dh)), local.normal(size=(b, s, dh)),
              local.normal(size=(b, s, dh))],
             atol=1e-7)


@pytest.mark.parametrize("b,l,s,dh,scale", ATTENTION_CASES)
def test_attention_matches_numpy_reference(b, l, s, dh, scale):
    local = np.random.default_rng(12)
    arrays = [local.normal(size=(b, l, dh)), local.normal(size=(b, s, dh)),
              local.normal(size=(b, s, dh))]
    probe = local.normal(size=(b, l, dh))
    ts = [ag.Tensor(a, requires_grad=True) for a in arrays]
    out = ag.attention(*ts, scale)
    ag.sum_(ag.mul(out, probe)).backward()
    ref, grads = _attention_reference(*arrays, scale, probe)
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)
    for t, g in zip(ts, grads):
        np.testing.assert_allclose(t.grad, g, rtol=0, atol=1e-12)


def test_attention_large_logits_stay_finite():
    # logits up to about +-100 in float32, where exp overflows above 88.7:
    # only the row-max subtraction keeps the outputs finite
    local = np.random.default_rng(13)
    q = local.choice([-1.0, 1.0], size=(2, 6, 4)) * 5.0
    k = local.choice([-1.0, 1.0], size=(2, 5, 4)) * 5.0
    v = local.normal(size=(2, 5, 4))
    ts = [ag.Tensor(a.astype(np.float32), requires_grad=True) for a in (q, k, v)]
    logits = q @ np.swapaxes(k, -1, -2)
    assert np.abs(logits).max() >= 80
    out = ag.attention(*ts, 1.0)
    ag.sum_(ag.mul(out, out)).backward()
    ref, _ = _attention_reference(q, k, v, 1.0, np.zeros((2, 6, 4)))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-5)
    for t in ts:
        assert np.isfinite(t.grad).all()


def test_attention_preserves_float32():
    local = np.random.default_rng(14)
    ts = [ag.Tensor(local.normal(size=shape).astype(np.float32), requires_grad=True)
          for shape in ((2, 3, 4), (2, 5, 4), (2, 5, 4))]
    out = ag.attention(*ts, 0.5)
    assert out.data.dtype == np.float32
    ag.sum_(ag.mul(out, out)).backward()
    assert all(t.grad.dtype == np.float32 for t in ts)


# ---------------------------------------------------------------------------
# VJPs must not write to their incoming gradient: `add` hands the same array
# to both parents and `Tensor.backward` stores it as `.grad` without a copy


def _vjp_cases():
    from hcustom.latent_codec import _phase_kernels
    from hcustom.rope3d import RopeConfig, apply_rotation, rotation_tables, video_positions

    local = np.random.default_rng(15)

    def t(*shape):
        return ag.Tensor(local.normal(size=shape), requires_grad=True)

    rope = RopeConfig(head_dim=8)
    cos, sin = rotation_tables(video_positions(2, 2, 1), rope)
    return {
        "add": lambda: ag.add(t(3, 4), t(4)),
        "add_const": lambda: ag.add(t(3, 4), 1.5),
        "sub": lambda: ag.sub(t(3, 4), t(3, 1)),
        "sub_const": lambda: ag.sub(t(3, 4), 1.5),
        "neg": lambda: ag.neg(t(3, 4)),
        "mul": lambda: ag.mul(t(3, 4), t(4)),
        "mul_const": lambda: ag.mul(t(3, 4), 2.0),
        "matmul": lambda: ag.matmul(t(2, 3, 4), t(4, 5)),
        "gelu": lambda: ag.gelu(t(3, 4)),
        "softmax": lambda: ag.softmax(t(3, 4)),
        "attention": lambda: ag.attention(t(2, 3, 4), t(2, 5, 4), t(2, 5, 4), 0.5),
        "reshape": lambda: ag.reshape(t(3, 4), (2, 6)),
        "transpose": lambda: ag.transpose(t(2, 3, 4), (2, 0, 1)),
        "concat": lambda: ag.concat([t(2, 3), t(2, 2)], axis=1),
        "slice_axis": lambda: ag.slice_axis(t(3, 5), 1, 1, 4),
        "sum_": lambda: ag.sum_(t(3, 4), axis=0),
        "mean_": lambda: ag.mean_(t(3, 4), axis=1, keepdims=True),
        "embedding": lambda: ag.embedding(t(4, 3), np.array([0, 2, 2])),
        "layer_norm": lambda: ag.layer_norm(t(3, 4), t(4), t(4)),
        "conv2d": lambda: ag.conv2d(t(1, 4, 5, 2), t(3, 3, 2, 3), t(3), stride=1, pad=1),
        "conv2d_stride2": lambda: ag.conv2d(t(1, 5, 5, 2), t(3, 3, 2, 3), stride=2, pad=1),
        "apply_rotation": lambda: apply_rotation(t(4, 2, 8), cos, sin, rope),
        "phase_kernels": lambda: _phase_kernels(t(3, 3, 2, 3)),
    }


def test_vjp_cases_cover_every_autograd_op():
    ops = {name for name, fn in vars(ag).items()
           if callable(fn) and getattr(fn, "__module__", None) == ag.__name__
           and not name.startswith("_") and not isinstance(fn, type)}
    assert ops - {"constant"} <= set(_vjp_cases())


@pytest.mark.parametrize("name", sorted(_vjp_cases()))
def test_vjp_leaves_incoming_gradient_unchanged(name):
    out = _vjp_cases()[name]()
    g = np.random.default_rng(16).normal(size=out.shape)
    before = g.copy()
    g.setflags(write=False)         # an in-place write raises here
    out._vjp(g)
    np.testing.assert_array_equal(g, before)
