import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.backbone import Backbone, BackboneConfig
from hcustom.errors import DimensionMismatchError
from hcustom.nn import ParamStore
from hcustom.rope3d import rotation_tables, sequence_positions

rng = np.random.default_rng(13)

SMALL = BackboneConfig(width=16, heads=2, blocks=1, latent_channels=4, text_width=8)


def build(config=SMALL, dtype=np.float64, seed=0):
    store = ParamStore(dtype=dtype)
    return Backbone(store, np.random.default_rng(seed), config, config.latent_channels), store


def _forward_setup(model, f=2, h=2, w=2, m=1, n_text=5, seed=10):
    r = np.random.default_rng(seed)
    c = model.config.latent_channels
    video = r.normal(size=(f * h * w, c))
    identity = [r.normal(size=(h * w, c)) for _ in range(m)]
    tokens = np.concatenate(identity + [video], axis=0)
    positions = sequence_positions(m, f, w, h)
    cos, sin = rotation_tables(positions, model.config.rope())
    prompt = r.normal(size=(n_text, model.config.text_width))
    counts = r.integers(1, 4, size=n_text)   # rows standing for repeated prompt tokens
    return tokens, positions, cos, sin, prompt, counts


def test_forward_zero_at_init():
    model, _ = build()
    seq, _, cos, sin, prompt, counts = _forward_setup(model)
    out = model.forward_t(ag.Tensor(seq), cos, sin, ag.Tensor(prompt), counts, t=0.37)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_video_condition_must_match_the_hidden_tokens():
    model, _ = build()
    seq, _, cos, sin, prompt, counts = _forward_setup(model)
    cond = ag.Tensor(np.ones((1, model.config.width)))  # would broadcast silently
    with pytest.raises(DimensionMismatchError):
        model.forward_t(ag.Tensor(seq), cos, sin, ag.Tensor(prompt), counts, t=0.3,
                        video_cond=cond)


def test_forward_deterministic_and_no_cross_sample_interaction():
    model, store = build()
    store["backbone.out.w"].data = rng.normal(size=store["backbone.out.w"].data.shape)
    seq, _, cos, sin, prompt, counts = _forward_setup(model)
    a = model.forward_t(ag.Tensor(seq), cos, sin, ag.Tensor(prompt), counts, t=0.5).data
    b = model.forward_t(ag.Tensor(seq), cos, sin, ag.Tensor(prompt), counts, t=0.5).data
    np.testing.assert_array_equal(a, b)


def test_video_token_permutation_equivariance():
    model, store = build()
    store["backbone.out.w"].data = rng.normal(size=store["backbone.out.w"].data.shape)
    seq, positions, cos, sin, prompt, counts = _forward_setup(model, f=3)
    base = model.forward_t(ag.Tensor(seq), cos, sin, ag.Tensor(prompt), counts, t=0.4).data

    n_id = int((positions[:, 0] < 0).sum())
    perm = np.arange(seq.shape[0])
    i, j = n_id + 1, n_id + 7
    perm[[i, j]] = perm[[j, i]]
    cos_p, sin_p = rotation_tables(positions[perm], model.config.rope())
    permuted = model.forward_t(ag.Tensor(seq[perm]), cos_p, sin_p,
                               ag.Tensor(prompt), counts, t=0.4).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-10)

    # permuting tokens without their positions must change outputs
    stale = model.forward_t(ag.Tensor(seq[perm]), cos, sin,
                            ag.Tensor(prompt), counts, t=0.4).data
    assert np.abs(stale - base[perm]).max() > 1e-8


def test_identity_tokens_affect_video_outputs():
    model, store = build()
    store["backbone.out.w"].data = rng.normal(size=store["backbone.out.w"].data.shape)
    seq, positions, cos, sin, prompt, counts = _forward_setup(model, f=2, m=1)
    with_id = model.forward_t(ag.Tensor(seq), cos, sin, ag.Tensor(prompt), counts, t=0.3).data
    n_id = int((positions[:, 0] < 0).sum())
    cos_v, sin_v = rotation_tables(positions[n_id:], model.config.rope())
    without = model.forward_t(ag.Tensor(seq[n_id:]), cos_v, sin_v,
                              ag.Tensor(prompt), counts, t=0.3).data
    assert np.abs(with_id[n_id:] - without).max() > 1e-8


def test_all_parameters_receive_gradient_after_warm_start():
    model, store = build()
    # emulate one optimizer step on the zero-initialized projections
    store["backbone.out.w"].data = 0.01 * rng.normal(size=store["backbone.out.w"].data.shape)
    for name in store.names():
        if ".mod.w" in name:
            store[name].data = 0.01 * rng.normal(size=store[name].data.shape)
    seq, _, cos, sin, prompt, counts = _forward_setup(model, f=2, m=1)
    out = model.forward_t(ag.Tensor(seq), cos, sin, ag.Tensor(prompt), counts, t=0.21)
    ag.mean_(ag.mul(out, out)).backward()
    for name, p in store.items():
        assert p.grad is not None, f"no gradient reached {name}"
        assert np.abs(p.grad).max() > 0, f"zero gradient at {name}"


def test_gradcheck_backbone_sampled_params():
    model, store = build()
    store["backbone.out.w"].data = 0.05 * rng.normal(size=store["backbone.out.w"].data.shape)
    seq, _, cos, sin, prompt_np, counts = _forward_setup(model, f=2, m=1, n_text=4)
    x = seq

    def loss_value():
        with ag.no_grad():
            out = model.forward_t(ag.Tensor(x), cos, sin, ag.Tensor(prompt_np), counts, t=0.42)
            return float((out.data ** 2).sum())

    out = model.forward_t(ag.Tensor(x), cos, sin, ag.Tensor(prompt_np), counts, t=0.42)
    ag.sum_(ag.mul(out, out)).backward()

    r = np.random.default_rng(0)
    names = store.names()
    checked = 0
    for _ in range(60):
        name = names[r.integers(len(names))]
        p = store[name]
        if p.grad is None:
            continue
        flat = p.data.reshape(-1)
        i = int(r.integers(flat.size))
        eps = 1e-5
        old = flat[i]
        flat[i] = old + eps
        hi = loss_value()
        flat[i] = old - eps
        lo = loss_value()
        flat[i] = old
        num = (hi - lo) / (2 * eps)
        ana = p.grad.reshape(-1)[i]
        denom = max(abs(num), abs(ana))
        if denom > 1e-7:  # below that, FD is pure roundoff noise
            assert abs(num - ana) / denom < 1e-3, f"{name}[{i}]: fd={num} vs {ana}"
        checked += 1
    assert checked >= 40


def test_counted_prompt_rows_equal_the_repeated_prompt():
    # a prompt row with count c acts as c identical prompt tokens, in the
    # output and in the gradients of the backbone and of the prompt rows
    model, store = build()
    store["backbone.out.w"].data = 0.05 * rng.normal(size=store["backbone.out.w"].data.shape)
    seq, _, cos, sin, prompt, counts = _forward_setup(model, n_text=4)
    assert counts.sum() > len(counts)
    runs = []
    for rows, row_counts in ((prompt, counts),
                             (np.repeat(prompt, counts, axis=0), np.ones(counts.sum(), int))):
        for _, p in store.items():
            p.grad = None
        rows_t = ag.Tensor(rows, requires_grad=True)
        out = model.forward_t(ag.Tensor(seq), cos, sin, rows_t, row_counts, t=0.33)
        ag.sum_(ag.mul(out, out)).backward()
        runs.append((out.data, rows_t.grad, {n: p.grad.copy() for n, p in store.items()}))
    (out_c, g_c, params_c), (out_r, g_r, params_r) = runs
    np.testing.assert_allclose(out_c, out_r, rtol=0, atol=1e-12)
    # the gradient of a counted row is the sum over its copies
    summed = np.add.reduceat(g_r, np.concatenate([[0], np.cumsum(counts)[:-1]]), axis=0)
    np.testing.assert_allclose(g_c, summed, rtol=0, atol=1e-12)
    for name in params_c:
        np.testing.assert_allclose(params_c[name], params_r[name], rtol=1e-9, atol=1e-12,
                                   err_msg=name)
