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
