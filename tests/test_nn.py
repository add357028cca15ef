"""The shared training loop `nn.fit`, on a toy quadratic, and the allocator
setting it makes for the codec's training steps."""

import math
import statistics

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom import nn
from hcustom.latent_codec import CodecConfig, LatentCodec, PixelVideo, train_codec
from hcustom.nn import ADAM_BETAS, ADAM_EPS, Adam, ParamStore, fit

TARGETS = np.arange(12.0).reshape(4, 3)


def _quadratic(store, calls):
    def item_loss(i, rng):
        calls.append(i)
        d = ag.add(store["w"], -TARGETS[i])
        return ag.mean_(ag.mul(d, d))
    return item_loss


@pytest.mark.parametrize("batch_size,drawn", [(2, 2), (9, 4)])
def test_fit_draws_distinct_items_per_step_and_zeroes_gradients_once(batch_size, drawn):
    store = ParamStore(dtype=np.float64)
    store.parameter("w", np.zeros(3))
    calls, zeroed = [], []
    zero_grad = store.zero_grad

    def marked_zero_grad():         # the per-step mark an outside timer relies on
        zeroed.append(len(calls))
        zero_grad()

    store.zero_grad = marked_zero_grad
    losses = fit(store, 4, _quadratic(store, calls), np.random.default_rng, steps=3,
                 batch_size=batch_size, learning_rate=0.1, clip_norm=math.inf)
    assert zeroed == [0, drawn, 2 * drawn]
    for step in range(3):
        expect = np.random.default_rng(step).choice(4, size=drawn, replace=False)
        assert calls[step * drawn:(step + 1) * drawn] == expect.tolist()
    # the first loss is the batch mean at w = 0
    first = calls[:drawn]
    assert losses[0] == pytest.approx(np.mean([(TARGETS[i] ** 2).mean() for i in first]))
    assert len(losses) == 3



@pytest.mark.parametrize("clip_norm", [math.inf, 0.5])
def test_adam_step_equals_the_unfused_formula_bitwise(clip_norm):
    # the in-place update against the expressions it replaced, from a random
    # state at t = 3, with and without a clipping scale
    local = np.random.default_rng(23)
    shapes = {"a": (7, 5), "b": (11,), "c": (3, 4, 2)}
    store = ParamStore(dtype=np.float32)
    for name, shape in shapes.items():
        store.parameter(name, local.normal(size=shape))
    opt = Adam(store, lr=3e-3, clip_norm=clip_norm)
    opt.t = 3
    want = {}
    grads = {n: local.normal(size=s).astype(np.float32) for n, s in shapes.items()}
    norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values())))
    scale = clip_norm / norm if norm > clip_norm else 1.0
    b1, b2 = ADAM_BETAS
    b1t, b2t = 1.0 - b1 ** 4, 1.0 - b2 ** 4
    for name, p in store.items():
        opt._m[name][...] = local.normal(size=p.shape)
        opt._v[name][...] = local.random(size=p.shape)
        p.grad = grads[name].copy()
        g = grads[name] * scale if scale != 1.0 else grads[name]
        m = opt._m[name] * b1 + (1.0 - b1) * g
        v = opt._v[name] * b2 + (1.0 - b2) * (g * g)
        want[name] = (p.data - opt.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS), m, v)
    assert opt.step() == norm
    assert (scale != 1.0) == (clip_norm != math.inf)
    for name, p in store.items():
        data, m, v = want[name]
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, data)
        np.testing.assert_array_equal(opt._m[name], m)
        np.testing.assert_array_equal(opt._v[name], v)
        np.testing.assert_array_equal(p.grad, grads[name])   # the gradient is not scaled in place


def test_fit_events_carry_step_time_and_page_faults():
    store = ParamStore(dtype=np.float64)
    store.parameter("w", np.zeros(3))
    events = []
    fit(store, 4, _quadratic(store, []), np.random.default_rng, steps=3, batch_size=2,
        learning_rate=0.1, clip_norm=math.inf, log=lambda **kw: events.append(kw))
    assert [e["step"] for e in events] == [0, 1, 2]
    for e in events:
        assert set(e) == {"step", "loss", "wall_time", "step_s", "page_faults",
                          "grad_norm", "clipped"}
        assert 0.0 < e["step_s"] <= e["wall_time"]
        assert isinstance(e["page_faults"], int) and e["page_faults"] >= 0


def _codec_fit(steps, log=None):
    """The benchmark's codec step: 64x64 clips, one 5-frame window per step."""
    rng = np.random.default_rng(4)
    videos = [PixelVideo(rng.random((9, 64, 64, 3))) for _ in range(2)]
    codec = LatentCodec(CodecConfig(seed=2))
    return train_codec(codec, videos, steps=steps, batch_size=1, learning_rate=2e-3,
                       seed=7, log=log)


@pytest.mark.skipif(nn._glibc_mallopt() is None, reason="the thresholds are glibc's")
def test_codec_steps_reuse_the_memory_the_previous_step_freed():
    # without the thresholds every step faults in about 1,900 fresh pages:
    # glibc unmaps the tape's large arrays when they are freed
    events = []
    _codec_fit(15, log=lambda **kw: events.append(kw))
    faults = [e["page_faults"] for e in events[5:]]
    assert statistics.median(faults) < 100, faults


def test_fit_without_mallopt_trains_to_the_same_losses(monkeypatch):
    want = _codec_fit(4)
    monkeypatch.setattr(nn, "_glibc_mallopt", lambda: None)
    got = _codec_fit(4)
    assert np.array(got).tobytes() == np.array(want).tobytes()
