"""Memory the training tape keeps alive: one flow-loss forward at the flow-train shape.

`kept_arrays` walks the tape of a loss and collects every array its recorded
ops keep alive until `backward()`, through their outputs and their VJP
closures.  The test runs `flow_loss_t` once on a `single_subject` sample of
33 frames at 64x64 (`configs/single_subject.json`: 64 identity and 576 video
tokens, 589 fused prompt tokens held as a few dozen distinct rows with counts,
4 blocks of width 128 and 4 heads) and bounds what the tape holds by the
shapes of that run.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.flow_match import flow_loss_t
from hcustom.latent_codec import LatentCodec
from hcustom.model import CustomVideoModel
from hcustom.pipeline import (codec_config_from, compute_latent_stats, model_config_from,
                              prepare_samples, validate_config)
from hcustom.synth_data import SceneParams, generate_sample, identity_pool

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_subject.json"
# [L, width]-sized arrays a backbone block may keep: today about 46 (layer
# norms, linear inputs, the 4x-wide MLP hidden state and its GELU slope, the
# attention inputs and outputs).  One [heads, L, S] score buffer per
# attention call would add 2 * heads * S / width, about 37 more per block.
PER_BLOCK_ACTIVATIONS = 64


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def kept_arrays(loss):
    """Distinct arrays the tape of `loss` keeps alive, keyed by id.

    Visits every recorded op: its output and everything its VJP closure
    holds (arrays, tensors, tuples and lists of them, nested closures).  A
    view counts as the array it views.  The data of leaves (parameters and
    inputs) is left out: it lives on without the tape.
    """
    topo = ag._toposort(loss)
    leaves = {id(_base(n.data)) for n in topo if n._vjp is None}
    found, seen = {}, set()

    def visit(obj):
        if isinstance(obj, ag.Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            base = _base(obj)
            found[id(base)] = base
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif callable(obj) and id(obj) not in seen:
            seen.add(id(obj))
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    contents = cell.cell_contents
                except ValueError:        # a cell not yet filled
                    continue
                visit(contents)

    for node in topo:
        if node._vjp is not None:
            visit(node.data)
            visit(node._vjp)
    return {k: a for k, a in found.items() if k not in leaves}


@pytest.fixture(scope="module")
def flow_train_tape():
    """The loss of one flow_loss_t forward, the (B, L, S) of its attention
    calls and the key counts each call was given (None for self-attention)."""
    cfg = validate_config(json.loads(CONFIG.read_text()))
    sample = generate_sample(identity_pool(1, 1)[0], SceneParams(), seed=1)
    codec = LatentCodec(codec_config_from(cfg))
    stats = compute_latent_stats(codec, [sample])
    model = CustomVideoModel(model_config_from(cfg))
    ps = prepare_samples(model, codec, stats, [sample], "single_subject", cfg["template"])[0]
    z0 = np.random.default_rng(0).standard_normal(ps.z1.shape).astype(np.float32)
    calls, counts = [], []
    attention = ag.attention

    def recorded(q, k, v, scale, key_counts=None):
        calls.append((q.shape[0], q.shape[1], k.shape[1]))
        counts.append(key_counts)
        return attention(q, k, v, scale, key_counts)

    ag.attention = recorded
    try:
        loss = flow_loss_t(model, ps, 0.5, z0)
    finally:
        ag.attention = attention
    return loss, calls, counts, model.config.backbone


def test_flow_train_shape(flow_train_tape):
    _, calls, counts, bb = flow_train_tape
    distinct = calls[1][2]
    assert distinct < 589
    assert calls == [(4, 640, 640), (4, 640, distinct)] * bb.blocks
    assert counts[0::2] == [None] * bb.blocks
    for c in counts[1::2]:
        assert c.shape == (distinct,) and c.min() >= 1 and c.sum() == 589


def test_tape_keeps_no_score_sized_array(flow_train_tape):
    # the cross-attention scores (4 x 640 x the distinct prompt rows) are
    # smaller than an MLP activation, so the size bound is the self-attention
    # score size, and no kept array may have any call's score shape
    loss, calls, _, _ = flow_train_tape
    self_scores = min(b * l * s for b, l, s in calls if l == s)
    kept = kept_arrays(loss)
    biggest = max(kept.values(), key=lambda a: a.size)
    assert biggest.size < self_scores, biggest.shape
    score_shapes = set(calls)
    assert not [a.shape for a in kept.values() if a.shape in score_shapes]


def test_tape_bytes_stay_within_the_activation_bound(flow_train_tape):
    loss, calls, _, bb = flow_train_tape
    L = calls[0][1]
    itemsize = loss.data.itemsize
    bound = bb.blocks * PER_BLOCK_ACTIVATIONS * L * bb.width * itemsize
    total = sum(a.nbytes for a in kept_arrays(loss).values())
    assert total < bound, f"tape keeps {total / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
