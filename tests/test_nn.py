"""The shared training loop `nn.fit`, on a toy quadratic."""

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.nn import ParamStore, fit

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
                 batch_size=batch_size, learning_rate=0.1, clip_norm=None)
    assert zeroed == [0, drawn, 2 * drawn]
    for step in range(3):
        expect = np.random.default_rng(step).choice(4, size=drawn, replace=False)
        assert calls[step * drawn:(step + 1) * drawn] == expect.tolist()
    # the first loss is the batch mean at w = 0
    first = calls[:drawn]
    assert losses[0] == pytest.approx(np.mean([(TARGETS[i] ** 2).mean() for i in first]))
    assert len(losses) == 3

