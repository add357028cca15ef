import math

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


def test_scalar_const_paths():
    check_op(lambda a: ag.add(ag.mul(a, 0.3), 1.7), [rng.normal(size=(4, 2))])


def test_matmul_2d():
    check_op(lambda a, b: ag.matmul(a, b), [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))])


def test_matmul_broadcast_rhs():
    check_op(lambda a, b: ag.matmul(a, b), [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))])


def test_gelu():
    check_op(ag.gelu, [rng.normal(size=(6, 3))])


@pytest.mark.parametrize("dtype,atol", [(np.float32, 5e-7), (np.float64, 3e-7)])
def test_gelu_matches_erf_reference(dtype, atol):
    from scipy.special import erf

    x = np.linspace(-12.0, 12.0, 24_001).astype(dtype)
    t = ag.Tensor(x, requires_grad=True)
    out = ag.gelu(t)
    xr = x.astype(np.float64)
    cdf = 0.5 * (1.0 + erf(xr / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * xr * xr) / np.sqrt(2.0 * np.pi)
    assert out.data.dtype == dtype
    np.testing.assert_allclose(out.data, xr * cdf, rtol=0, atol=atol)
    d = out._vjp(np.ones_like(x))[0]
    np.testing.assert_allclose(d, cdf + xr * pdf, rtol=0, atol=1e-6)

    with ag.no_grad():
        plain = ag.gelu(t)
    assert plain._vjp is None and not plain.requires_grad
    np.testing.assert_array_equal(plain.data, out.data)



def test_gelu_derivative_is_exact_for_its_output():
    # Phi(x) + x phi(x) differs from the slope of the approximated output by
    # up to 5e-7, enough to fail finite-difference checks of whole models
    x = np.linspace(-12.0, 12.0, 24_001)
    h = 1e-5
    d = ag.gelu(ag.Tensor(x, requires_grad=True))._vjp(np.ones_like(x))[0]
    fd = (ag.gelu(ag.Tensor(x + h)).data - ag.gelu(ag.Tensor(x - h)).data) / (2 * h)
    np.testing.assert_allclose(d, fd, rtol=0, atol=1e-8)

def test_reshape_transpose():
    check_op(lambda a: ag.transpose(ag.reshape(a, (2, 3, 4)), (1, 0, 2)),
             [rng.normal(size=(6, 4))])


def test_concat_slice():
    def build(a, b):
        c = ag.concat([a, b], axis=1)
        (piece,) = ag.split(c, [np.s_[:, 1:4]])
        return piece
    check_op(build, [rng.normal(size=(3, 2)), rng.normal(size=(3, 3))])


def test_split_gradients():
    # three disjoint windows of a [4, 3, 6] array, one of them left unused
    keys = [np.s_[:, 0, :2], np.s_[1:3, 1:, 2:5], np.s_[3, 2]]

    def build(a):
        p, q, _ = ag.split(a, keys)
        return ag.concat([ag.reshape(p, (-1,)), ag.reshape(ag.mul(q, q), (-1,))])
    check_op(build, [rng.normal(size=(4, 3, 6))])


def _sliced_gradient(shape, key, g):
    """The gradient a slice of an array sends back, written as a slice op did:
    a zero array of the whole shape holding g at the slice."""
    out = np.zeros(shape, dtype=g.dtype)
    out[key] = g
    return out


def test_split_gradient_equals_summed_slice_gradients_bitwise():
    local = np.random.default_rng(22)
    a = ag.Tensor(local.normal(size=(5, 12)).astype(np.float32), requires_grad=True)
    keys = [np.s_[:, j * 4:(j + 1) * 4] for j in range(3)]
    pieces = ag.split(a, keys)
    probes = [local.normal(size=(5, 4)).astype(np.float32) for _ in keys]
    assert all(np.shares_memory(p.data, a.data) for p in pieces)
    loss = ag.add(ag.add(ag.sum_(ag.mul(pieces[0], probes[0])),
                         ag.sum_(ag.mul(pieces[1], probes[1]))),
                  ag.sum_(ag.mul(pieces[2], probes[2])))
    loss.backward()
    want = sum(_sliced_gradient(a.shape, key, g) for key, g in zip(keys, probes))
    assert a.grad.dtype == np.float32
    np.testing.assert_array_equal(a.grad, want)


def test_untaped_split_records_nothing():
    a = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with ag.no_grad():
        pieces = ag.split(a, [np.s_[:, :2], np.s_[:, 2:]])
    assert [p.requires_grad for p in pieces] == [False, False]
    assert all(p.node.parents == () and p._vjp is None for p in pieces)


def test_embedding():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda t: ag.embedding(t, idx), [rng.normal(size=(3, 5))])


def test_layer_norm():
    check_op(lambda x: ag.layer_norm(x), [rng.normal(size=(4, 8))], atol=1e-6)


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
    assert not b.requires_grad and b.node.parents == () and b._vjp is None


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


# (b, l, s, dh, scale, tile): a tile of None keeps `ag._TILE`, which is far
# larger than these calls; the small tiles split the query rows into several
# blocks, the last one shorter (rows 3+3+1 and 2+2+1), or into single rows
ATTENTION_CASES = [
    pytest.param(2, 5, 5, 4, 1.0, None, id="self"),
    pytest.param(3, 4, 7, 3, 0.37, None, id="cross"),
    pytest.param(2, 7, 5, 4, 1.0, 30, id="self-blocked"),
    pytest.param(3, 5, 7, 3, 0.37, 42, id="cross-blocked"),
    pytest.param(3, 4, 7, 3, 0.37, 1, id="cross-row-per-block"),
]


def _set_tile(monkeypatch, tile, l, per_row):
    """Patch the tile size, checking that a patched call spans several blocks."""
    if tile is not None:
        monkeypatch.setattr(ag, "_TILE", tile)
        assert len(ag._row_blocks(l, per_row)) > 1


def test_row_blocks_cover_rows_with_an_uneven_last_block(monkeypatch):
    monkeypatch.setattr(ag, "_TILE", 30)
    assert ag._row_blocks(7, 10) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert ag._row_blocks(6, 10) == [slice(0, 3), slice(3, 6)]
    assert ag._row_blocks(2, 40) == [slice(0, 1), slice(1, 2)]   # a row over the tile
    assert ag._row_blocks(3, 1) == [slice(0, 3)]


@pytest.mark.parametrize("b,l,s,dh,scale,tile", ATTENTION_CASES)
def test_attention_gradients_match_finite_differences(b, l, s, dh, scale, tile, monkeypatch):
    _set_tile(monkeypatch, tile, l, b * s)
    local = np.random.default_rng(11)
    check_op(lambda q, k, v: ag.attention(q, k, v, scale),
             [local.normal(size=(b, l, dh)), local.normal(size=(b, s, dh)),
              local.normal(size=(b, s, dh))],
             atol=1e-7)


@pytest.mark.parametrize("b,l,s,dh,scale,tile", ATTENTION_CASES)
def test_attention_matches_numpy_reference(b, l, s, dh, scale, tile, monkeypatch):
    _set_tile(monkeypatch, tile, l, b * s)
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
    with ag.no_grad():
        plain = ag.attention(*ts, scale)
    np.testing.assert_array_equal(plain.data, out.data)


def test_attention_keeps_one_log_sum_exp_per_row(monkeypatch):
    # the VJP closure holds the inputs, the output and a [B, L, 1] array;
    # nothing of the [B, L, S] score size
    _set_tile(monkeypatch, 30, 7, 2 * 5)
    local = np.random.default_rng(18)
    ts = [ag.Tensor(local.normal(size=shape), requires_grad=True)
          for shape in ((2, 7, 4), (2, 5, 4), (2, 5, 4))]
    out = ag.attention(*ts, 0.5)
    held = [c.cell_contents for c in out._vjp.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert max(a.size for a in arrays) < 2 * 7 * 5
    assert [a.shape for a in arrays if a.shape[-1] == 1] == [(2, 7, 1)]


def test_attention_large_logits_stay_finite(monkeypatch):
    # logits up to about +-100 in float32, where exp overflows above 88.7:
    # only the row-max subtraction keeps the outputs finite, and the
    # recomputed tiles exp(s - lse) stay at or below 1
    local = np.random.default_rng(13)
    q = local.choice([-1.0, 1.0], size=(2, 6, 4)) * 5.0
    k = local.choice([-1.0, 1.0], size=(2, 5, 4)) * 5.0
    v = local.normal(size=(2, 5, 4))
    logits = q @ np.swapaxes(k, -1, -2)
    assert np.abs(logits).max() >= 80
    for tile in (None, 20):         # one block, then blocks of 2 rows
        _set_tile(monkeypatch, tile, 6, 2 * 5)
        ts = [ag.Tensor(a.astype(np.float32), requires_grad=True) for a in (q, k, v)]
        out = ag.attention(*ts, 1.0)
        ag.sum_(ag.mul(out, out)).backward()
        ref, grads = _attention_reference(q, k, v, 1.0, 2.0 * out.data.astype(np.float64))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-5)
        for t, g in zip(ts, grads):
            assert np.isfinite(t.grad).all()
            np.testing.assert_allclose(t.grad, g, rtol=0, atol=1e-3 * np.abs(g).max())


def test_attention_preserves_float32(monkeypatch):
    local = np.random.default_rng(14)
    arrays = [local.normal(size=shape).astype(np.float32)
              for shape in ((2, 3, 4), (2, 5, 4), (2, 5, 4))]
    for tile in (None, 16):         # one block, then one row per block
        _set_tile(monkeypatch, tile, 3, 2 * 5)
        ts = [ag.Tensor(a, requires_grad=True) for a in arrays]
        out = ag.attention(*ts, 0.5)
        assert out.data.dtype == np.float32
        ag.sum_(ag.mul(out, out)).backward()
        assert all(t.grad.dtype == np.float32 for t in ts)


def test_attention_numpy_float_scale_equals_the_python_float_bitwise():
    # under NumPy 2's promotion rules a float64 scalar would turn the scaled
    # q, and so the scores, into float64
    local = np.random.default_rng(15)
    arrays = [local.normal(size=shape).astype(np.float32)
              for shape in ((2, 6, 8), (2, 7, 8), (2, 7, 8))]
    results = []
    for scale in (1 / np.sqrt(8), float(1 / np.sqrt(8))):
        ts = [ag.Tensor(a, requires_grad=True) for a in arrays]
        out = ag.attention(*ts, scale)
        ag.sum_(ag.mul(out, out)).backward()
        results.append([out.data] + [t.grad for t in ts])
    for got, want in zip(*results):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def _attention_errors(arrays, scale, dtype, seed):
    """Worst errors of `ag.attention` at `dtype` against the float64 reference,
    for the output and the three gradients, each relative to the largest
    reference value; also checks that the untaped output is bitwise equal."""
    probe = np.random.default_rng(seed).normal(size=arrays[0].shape[:-1] + arrays[2].shape[-1:])
    ts = [ag.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = ag.attention(*ts, scale)
    ag.sum_(ag.mul(out, probe.astype(dtype))).backward()
    with ag.no_grad():
        np.testing.assert_array_equal(ag.attention(*ts, scale).data, out.data)
    ref, grads = _attention_reference(*arrays, scale, probe)
    return [float(np.abs(got - want).max() / np.abs(want).max())
            for got, want in zip([out.data] + [t.grad for t in ts], [ref, *grads])]


def _aligned_scores(bound, l=6, s=5, dh=4, seed=15):
    """q [2, l, dh] and k [2, s, dh] whose largest base-2 score at scale 1 is
    `bound` and whose smallest is -bound: all rows have one norm, and q's
    first two rows are k's first row and its negation."""
    local = np.random.default_rng(seed)
    q, k = local.normal(size=(2, l, dh)), local.normal(size=(2, s, dh))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    k /= np.linalg.norm(k, axis=-1, keepdims=True)
    q[:, 0], q[:, 1] = k[:, 0], -k[:, 0]
    r = math.sqrt(bound / ag._LOG2E)
    return q * r, k * r


@pytest.mark.parametrize("bound,fast", [(63.9, True), (64.1, False)])
def test_attention_guard_either_side_of_the_score_bound(bound, fast):
    q, k = _aligned_scores(bound)
    v = np.random.default_rng(16).normal(size=k.shape)
    assert abs(ag._LOG2E * (q @ np.swapaxes(k, -1, -2)).max() - bound) < 1e-9
    assert ag._scores_bounded(q * ag._LOG2E, k, v, np.float64, k.shape[1]) is fast
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        assert max(_attention_errors([q, k, v], 1.0, dtype, 17)) < tol


@pytest.mark.parametrize("s", [640, 589])
@pytest.mark.parametrize("path", ["fast", "row-max"])
def test_attention_float32_at_the_flow_train_shape(s, path, monkeypatch):
    # [4, 640, 32] against the self-attention (S = 640) and prompt
    # (S = 589) keys: float32 within 1e-5 of float64 on either path
    local = np.random.default_rng(s)
    arrays = [local.normal(size=(4, 640, 32)), local.normal(size=(4, s, 32)),
              local.normal(size=(4, s, 32))]
    scale = 32 ** -0.5
    assert ag._scores_bounded(arrays[0] * (scale * ag._LOG2E), *arrays[1:], np.float32, s)
    if path == "row-max":
        monkeypatch.setattr(ag, "_scores_bounded", lambda *args: False)
    assert max(_attention_errors(arrays, scale, np.float32, 20)) < 1e-5


def test_attention_large_v_takes_the_row_max_path_and_stays_finite():
    # scores up to 60 pass the score bound, but 2^60 * 3e20 overflows
    # float32, so e @ [v | 1] unshifted would be infinite
    q, k = _aligned_scores(60.0)
    v = 3e20 * np.random.default_rng(22).choice([-1.0, 1.0], size=k.shape)
    assert not ag._scores_bounded((q * ag._LOG2E).astype(np.float32), k.astype(np.float32),
                                  v.astype(np.float32), np.float32, k.shape[1])
    ts = [ag.Tensor(a.astype(np.float32)) for a in (q, k, v)]
    out = ag.attention(*ts, 1.0).data
    ref, _ = _attention_reference(q, k, v, 1.0, np.zeros_like(q))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5 * np.abs(ref).max())


def test_attention_row_max_path_keeps_exp2_above_the_subnormal_range(monkeypatch):
    # q and k at standard deviation 6 put most scores far below their row
    # maximum; unfloored, most of the float32 weights would be subnormal
    local = np.random.default_rng(23)
    arrays = [6.0 * local.normal(size=(4, 576, 32)), 6.0 * local.normal(size=(4, 576, 32)),
              local.normal(size=(4, 576, 32))]
    smallest = []
    exp2 = np.exp2

    def spy(x, *args, **kwargs):
        smallest.append(float(x.min()))
        return exp2(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp2", spy)
    assert max(_attention_errors(arrays, 32 ** -0.5, np.float32, 24)) < 1e-4
    assert -126.0 <= ag._EXP2_FLOOR
    assert smallest and min(smallest) >= ag._EXP2_FLOOR


def test_attention_fast_path_backward_keeps_exp2_above_the_subnormal_range(monkeypatch):
    # scores of +63 and -63 in one row pass the score bound, but the
    # backward recompute s - lse of the second is about -126
    q, k = _aligned_scores(63.0)
    k[:, 1] = -k[:, 0]
    v = np.random.default_rng(25).normal(size=k.shape)
    assert ag._scores_bounded((q * ag._LOG2E).astype(np.float32), k.astype(np.float32),
                              v.astype(np.float32), np.float32, k.shape[1])
    smallest = []
    exp2 = np.exp2

    def spy(x, *args, **kwargs):
        smallest.append(float(x.min()))
        return exp2(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp2", spy)
    assert max(_attention_errors([q, k, v], 1.0, np.float32, 26)) < 1e-5
    assert min(smallest) >= ag._EXP2_FLOOR


# counted keys: key j stands for counts[j] copies of itself and its value

COUNTS = np.array([3, 1, 4, 1, 5])


def _repeated(arrays, counts):
    """q, and k and v with each key row repeated by its count."""
    q, k, v = arrays
    return [q, np.repeat(k, counts, axis=1), np.repeat(v, counts, axis=1)]


def _summed_over_copies(g, counts):
    """A per-copy key gradient summed back onto its distinct key."""
    return np.add.reduceat(g, np.concatenate([[0], np.cumsum(counts)[:-1]]), axis=1)


@pytest.mark.parametrize("path", ["fast", "row-max"])
@pytest.mark.parametrize("tile", [None, 30])
def test_counted_attention_equals_attention_over_repeated_keys(path, tile, monkeypatch):
    local = np.random.default_rng(30)
    arrays = [local.normal(size=(2, 7, 4)), local.normal(size=(2, 5, 4)),
              local.normal(size=(2, 5, 4))]
    probe = local.normal(size=(2, 7, 4))
    assert ag._scores_bounded(arrays[0] * (0.6 * ag._LOG2E), arrays[1], arrays[2],
                              np.float64, COUNTS.sum())
    if path == "row-max":
        monkeypatch.setattr(ag, "_scores_bounded", lambda *args: False)
    results = []
    for inputs, counts in ((arrays, COUNTS), (_repeated(arrays, COUNTS), None)):
        _set_tile(monkeypatch, tile, 7, 2 * inputs[1].shape[1])
        ts = [ag.Tensor(a, requires_grad=True) for a in inputs]
        out = ag.attention(*ts, 0.6, counts)
        ag.sum_(ag.mul(out, probe)).backward()
        results.append((out.data, *[t.grad for t in ts]))
    (out_c, gq_c, gk_c, gv_c), (out_r, gq_r, gk_r, gv_r) = results
    np.testing.assert_allclose(out_c, out_r, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gq_c, gq_r, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gk_c, _summed_over_copies(gk_r, COUNTS), rtol=0, atol=1e-12)
    np.testing.assert_allclose(gv_c, _summed_over_copies(gv_r, COUNTS), rtol=0, atol=1e-12)
    ref, _ = _attention_reference(*_repeated(arrays, COUNTS), 0.6, probe)
    np.testing.assert_allclose(out_c, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tile", [None, 30])
def test_counted_attention_gradients_match_finite_differences(tile, monkeypatch):
    _set_tile(monkeypatch, tile, 7, 2 * 5)
    local = np.random.default_rng(31)
    check_op(lambda q, k, v: ag.attention(q, k, v, 0.45, COUNTS),
             [local.normal(size=(2, 7, 3)), local.normal(size=(2, 5, 3)),
              local.normal(size=(2, 5, 3))],
             atol=1e-7)


def test_counted_attention_overflow_guard_counts_every_copy():
    # a score of 63 on a key that stands for 1000 copies, with |v| = 1e17:
    # five single keys would pass the guard, but 1000 copies of 2^63 * 1e17
    # overflow float32, so the counted call must take the row-max path
    q, k = _aligned_scores(63.0)
    counts = np.array([1000, 1, 1, 1, 1])
    v = 1e17 * np.random.default_rng(32).choice([-1.0, 1.0], size=k.shape)
    bounded = [ag._scores_bounded((q * ag._LOG2E).astype(np.float32), k.astype(np.float32),
                                  v.astype(np.float32), np.float32, keys)
               for keys in (k.shape[1], counts.sum())]
    assert bounded == [True, False]
    ts = [ag.Tensor(a.astype(np.float32)) for a in (q, k, v)]
    out = ag.attention(*ts, 1.0, counts).data
    ref, _ = _attention_reference(*_repeated([q, k, v], counts), 1.0, np.zeros_like(q))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# a linear layer: matmul with its bias, one tape op


@pytest.mark.parametrize("x_shape,bias", [
    pytest.param((5, 3), True, id="2d"),
    pytest.param((2, 3, 4, 3), True, id="leading-axes"),
    pytest.param((2, 5, 3), False, id="no-bias"),
])
def test_linear_gradients_match_finite_differences(x_shape, bias):
    local = np.random.default_rng(19)
    arrays = [local.normal(size=x_shape), local.normal(size=(3, 4))]
    if bias:
        arrays.append(local.normal(size=4))
    check_op(lambda *ts: ag.matmul(*ts), arrays)


@pytest.mark.parametrize("scale_shape", [(3, 1), (1, 4)], ids=["gain", "gate"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
def test_scaled_linear_gradients_match_finite_differences(scale_shape, bias):
    # a [n, 1] scale multiplies the rows of w (a norm's gain), a [1, k] one
    # its columns (a gate)
    local = np.random.default_rng(22)
    arrays = [local.normal(size=(2, 5, 3)), local.normal(size=(3, 4)),
              local.normal(size=scale_shape)]
    if bias:
        arrays.append(local.normal(size=4))
        check_op(lambda a, w, s, b: ag.matmul(a, w, b, s), arrays)
    else:
        check_op(lambda a, w, s: ag.matmul(a, w, scale=s), arrays)


@pytest.mark.parametrize("u_shape", [(7, 8), (2, 4, 8)], ids=["2d", "leading-axes"])
def test_gelu_matmul_gradients_match_finite_differences_over_row_blocks(u_shape):
    # a row of 8 has 32 working elements, so a tile of 64 takes 2 rows: 7 rows
    # make blocks of 2, 2, 2, 1 and 8 rows four blocks of 2
    local = np.random.default_rng(23)
    arrays = [local.normal(size=u_shape), local.normal(size=(8, 3)),
              local.normal(size=3), local.normal(size=(1, 3))]
    check_op(lambda u, w, b, s: _with_tile(64, lambda: ag.gelu_matmul(u, w, b, s)), arrays)
    check_op(lambda u, w: _with_tile(64, lambda: ag.gelu_matmul(u, w)), arrays[:2])


@pytest.mark.parametrize("scale_shape", [None, (6, 1), (1, 5)], ids=["plain", "gain", "gate"])
def test_gelu_matmul_equals_gelu_then_matmul_bitwise(scale_shape, monkeypatch):
    # the same arithmetic as the two ops it replaces, in float32; 9 rows of
    # 6 (24 working elements each) over a tile of 48 make five row blocks
    local = np.random.default_rng(24)

    def arrays():
        out = [local.normal(size=(9, 6)), local.normal(size=(6, 5)), local.normal(size=5)]
        if scale_shape is not None:
            out.append(local.normal(size=scale_shape))
        return [a.astype(np.float32) for a in out]

    monkeypatch.setattr(ag, "_TILE", 48)
    data = arrays()
    g = local.normal(size=(9, 5)).astype(np.float32)
    results = []
    for fused in (True, False):
        ts = [ag.Tensor(a, requires_grad=True) for a in data]
        if fused:
            out = ag.gelu_matmul(*ts)
        else:
            out = ag.matmul(ag.gelu(ts[0]), *ts[1:])
        ag.sum_(ag.mul(out, ag.Tensor(g))).backward()
        results.append([out.data] + [t.grad for t in ts])
    for fused, plain in zip(*results):
        assert fused.dtype == np.float32
        np.testing.assert_array_equal(fused, plain)


def test_linear_is_one_op_and_skips_a_constant_input():
    local = np.random.default_rng(20)
    x = ag.Tensor(local.normal(size=(2, 3, 5)).astype(np.float32))
    w = ag.Tensor(local.normal(size=(5, 4)).astype(np.float32), requires_grad=True)
    b = ag.Tensor(local.normal(size=4).astype(np.float32), requires_grad=True)
    out = ag.matmul(x, w, b)
    assert out.node.parents == (x.node, w.node, b.node)
    np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=1e-6, atol=1e-6)
    gx, gw, gb = out._vjp(np.ones_like(out.data))
    assert gx is None
    assert gw.dtype == gb.dtype == np.float32
    np.testing.assert_allclose(gb, np.full(4, 6.0), rtol=1e-6)


# ---------------------------------------------------------------------------
# conv2d under no_grad


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1)])
def test_untaped_conv2d_matches_taped_in_frame_chunks(stride, pad, monkeypatch):
    # 5 frames of 6x6 windows x 27 column entries: 972 per frame, so a tile
    # of 2000 builds the columns two frames at a time (2 + 2 + 1)
    local = np.random.default_rng(21)
    x = local.normal(size=(5, 6, 6, 3))
    w, b = local.normal(size=(3, 3, 3, 4)), local.normal(size=4)
    taped = ag.conv2d(ag.Tensor(x), ag.Tensor(w, requires_grad=True), ag.Tensor(b),
                      stride=stride, pad=pad)
    monkeypatch.setattr(ag, "_TILE", 2000)
    with ag.no_grad():
        plain = ag.conv2d(ag.Tensor(x), ag.Tensor(w), ag.Tensor(b), stride=stride, pad=pad)
    assert plain._vjp is None
    np.testing.assert_allclose(plain.data, taped.data, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# VJPs must not write to their incoming gradient: `add` hands the same array
# to both parents and `Tensor.backward` stores it as `.grad` without a copy


def _with_tile(tile, build):
    """build() with `ag._TILE` set to `tile`; a VJP keeps the blocks it was built with."""
    old = ag._TILE
    ag._TILE = tile
    try:
        return build()
    finally:
        ag._TILE = old


def _vjp_cases(dtype=np.float64):
    from hcustom.latent_codec import _phase_kernels
    from hcustom.rope3d import RopeConfig, apply_rotation, rotation_tables, video_positions

    local = np.random.default_rng(15)

    def t(*shape):
        return ag.Tensor(local.normal(size=shape).astype(dtype), requires_grad=True)

    rope = RopeConfig(head_dim=8)
    cos, sin = rotation_tables(video_positions(2, 2, 1), rope, dtype=dtype)
    return {
        "add": lambda: ag.add(t(3, 4), t(4)),
        "add_const": lambda: ag.add(t(3, 4), 1.5),
        "mul": lambda: ag.mul(t(3, 4), t(4)),
        "mul_const": lambda: ag.mul(t(3, 4), 2.0),
        "matmul": lambda: ag.matmul(t(2, 3, 4), t(4, 5)),
        "gelu": lambda: ag.gelu(t(3, 4)),
        "attention": lambda: ag.attention(t(2, 3, 4), t(2, 5, 4), t(2, 5, 4), 0.5),
        "attention_blocked": lambda: _with_tile(16, lambda: ag.attention(
            t(2, 3, 4), t(2, 5, 4), t(2, 5, 4), 0.5)),
        "attention_counted": lambda: _with_tile(16, lambda: ag.attention(
            t(2, 3, 4), t(2, 5, 4), t(2, 5, 4), 0.5, COUNTS)),
        "matmul_bias": lambda: ag.matmul(t(2, 3, 4), t(4, 5), t(5)),
        "matmul_scale": lambda: ag.matmul(t(2, 3, 4), t(4, 5), t(5), t(4, 1)),
        "gelu_matmul": lambda: _with_tile(32, lambda: ag.gelu_matmul(
            t(2, 3, 4), t(4, 5), t(5), t(1, 5))),
        "reshape": lambda: ag.reshape(t(3, 4), (2, 6)),
        "transpose": lambda: ag.transpose(t(2, 3, 4), (2, 0, 1)),
        "concat": lambda: ag.concat([t(2, 3), t(2, 2)], axis=1),
        "split": lambda: ag.split(t(3, 5), [np.s_[:, :1], np.s_[:, 1:4]])[1],
        "sum_": lambda: ag.sum_(t(3, 4)),
        "mean_": lambda: ag.mean_(t(3, 4)),
        "embedding": lambda: ag.embedding(t(4, 3), np.array([0, 2, 2])),
        "layer_norm": lambda: ag.layer_norm(t(3, 4)),
        "conv2d": lambda: ag.conv2d(t(1, 4, 5, 2), t(3, 3, 2, 3), t(3), stride=1, pad=1),
        "conv2d_stride2": lambda: ag.conv2d(t(1, 5, 5, 2), t(3, 3, 2, 3), stride=2, pad=1),
        "apply_rotation": lambda: apply_rotation(t(4, 2, 8), cos, sin, rope),
        "phase_kernels": lambda: _phase_kernels(t(3, 3, 2, 3)),
    }


def test_vjp_cases_cover_every_autograd_op():
    ops = {name for name, fn in vars(ag).items()
           if callable(fn) and getattr(fn, "__module__", None) == ag.__name__
           and not name.startswith("_") and not isinstance(fn, type)}
    assert ops <= set(_vjp_cases())


@pytest.mark.parametrize("name", sorted(_vjp_cases()))
def test_vjp_leaves_incoming_gradient_unchanged(name):
    out = _vjp_cases()[name]()
    g = np.random.default_rng(16).normal(size=out.shape)
    before = g.copy()
    g.setflags(write=False)         # an in-place write raises here
    out._vjp(g)
    np.testing.assert_array_equal(g, before)


@pytest.mark.parametrize("name", sorted(_vjp_cases()))
def test_ops_keep_float32(name):
    # a float64 constant (a numpy scalar, a table) silently upcasts an op
    # and doubles its time
    out = _vjp_cases(np.float32)[name]()
    assert out.data.dtype == np.float32
    g = np.random.default_rng(17).normal(size=out.shape).astype(np.float32)
    for grad in out._vjp(g):
        assert grad is None or grad.dtype == np.float32
