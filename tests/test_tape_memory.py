"""Memory the training tape keeps alive: one flow-loss forward at the flow-train shape.

`kept_arrays` walks the tape of a loss and collects every array it keeps
alive until `backward()`: a node holds no array itself, so these are what
the VJP closures hold.  The test runs `flow_loss_t` once on a
`single_subject` sample of 33 frames at 64x64 (`configs/single_subject.json`: 64 identity and 576 video
tokens, 589 fused prompt tokens held as a few dozen distinct rows with counts,
4 blocks of width 128 and 4 heads) and bounds what the tape holds by the
shapes of that run.
"""

import json
import weakref
from pathlib import Path
from types import SimpleNamespace

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
# [L, width]-sized arrays a backbone block may keep: today about 24.5 (the
# 4x-wide GELU output and slope, 8; the three layer-norm outputs, which are
# also the inputs of the folded linear layers; the qkv product, the rotated
# q and k and the cross-attention q; the attention outputs and their merged
# heads; and the folded weights, about 2.7).  One [heads, L, S] score buffer
# per attention call would add 2 * heads * S / width, about 37 more per block.
PER_BLOCK_ACTIVATIONS = 28


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_contents(loss):
    """What the VJP closures of the tape of `loss` hold: (arrays keyed by the
    id of the array they view, tensors).  Visits every node of the tape and
    everything its VJP closure holds (arrays, tensors, tuples and lists of
    them, nested closures)."""
    topo = ag._toposort(loss.node)
    assert all(isinstance(n, ag.Node) for n in topo)
    found, tensors, seen = {}, [], set()

    def visit(obj):
        if isinstance(obj, ag.Tensor):
            tensors.append(obj)
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
        visit(node.vjp)
    return found, tensors


def kept_arrays(loss, params):
    """Distinct arrays the tape of `loss` keeps alive, keyed by id.

    A node holds no array, so these are what its VJP closures hold.  A view
    counts as the array it views.  The data of the parameters in `params`
    (a ParamStore) is left out: it lives on without the tape.
    """
    leaves = {id(_base(p.data)) for _, p in params.items()}
    found, _ = _closure_contents(loss)
    return {k: a for k, a in found.items() if k not in leaves}


@pytest.fixture(scope="module")
def flow_train_tape():
    """One flow_loss_t forward: its loss, the (B, L, S) of its attention calls,
    the key counts each call was given (None for self-attention), the
    backbone config, the parameter store, and weak references to the MLP
    pre-activations (GELU inputs of the MLP width) and to the residual
    stream (the layer-norm inputs)."""
    cfg = validate_config(json.loads(CONFIG.read_text()))
    sample = generate_sample(identity_pool(1, 1)[0], SceneParams(), seed=1)
    codec = LatentCodec(codec_config_from(cfg))
    stats = compute_latent_stats(codec, [sample])
    model = CustomVideoModel(model_config_from(cfg))
    bb = model.config.backbone
    ps = prepare_samples(model, codec, stats, [sample], "single_subject", cfg["template"])[0]
    z0 = np.random.default_rng(0).standard_normal(ps.z1.shape).astype(np.float32)
    calls, counts, mlp_refs, residual_refs = [], [], [], []
    attention, gelu, layer_norm = ag.attention, ag.gelu, ag.layer_norm

    def recorded(q, k, v, scale, key_counts=None):
        calls.append((q.shape[0], q.shape[1], k.shape[1]))
        counts.append(key_counts)
        return attention(q, k, v, scale, key_counts)

    def watched_gelu(x):
        if x.shape[-1] == bb.mlp_ratio * bb.width:
            mlp_refs.append(weakref.ref(_base(x.data)))
        return gelu(x)

    def watched_layer_norm(x, *args):
        residual_refs.append(weakref.ref(_base(x.data)))
        return layer_norm(x, *args)

    ag.attention, ag.gelu, ag.layer_norm = recorded, watched_gelu, watched_layer_norm
    try:
        loss = flow_loss_t(model, ps, 0.5, z0)
    finally:
        ag.attention, ag.gelu, ag.layer_norm = attention, gelu, layer_norm
    return SimpleNamespace(loss=loss, calls=calls, counts=counts, bb=bb, store=model.store,
                           mlp_refs=mlp_refs, residual_refs=residual_refs)


def test_flow_train_shape(flow_train_tape):
    calls, counts, bb = flow_train_tape.calls, flow_train_tape.counts, flow_train_tape.bb
    distinct = calls[1][2]
    assert distinct < 589
    assert calls == [(4, 640, 640), (4, 640, distinct)] * bb.blocks
    assert counts[0::2] == [None] * bb.blocks
    for c in counts[1::2]:
        assert c.shape == (distinct,) and c.min() >= 1 and c.sum() == 589


def test_no_vjp_holds_a_tensor(flow_train_tape):
    # closures hold arrays, shapes and flags: a held tensor would keep its
    # array alive for as long as the tape
    _, tensors = _closure_contents(flow_train_tape.loss)
    assert not tensors, [t.shape for t in tensors]


def test_mlp_pre_activation_and_residual_stream_die_after_the_forward(flow_train_tape):
    # no VJP reads them: GELU keeps its slope, a residual add its shapes and
    # a layer norm its normalised output
    tape = flow_train_tape
    assert len(tape.mlp_refs) == tape.bb.blocks
    assert len(tape.residual_refs) == 3 * tape.bb.blocks + 1
    assert [r() for r in tape.mlp_refs] == [None] * len(tape.mlp_refs)
    assert [r() for r in tape.residual_refs] == [None] * len(tape.residual_refs)


def test_tape_keeps_no_score_sized_array(flow_train_tape):
    # the cross-attention scores (4 x 640 x the distinct prompt rows) are
    # smaller than an MLP activation, so the size bound is the self-attention
    # score size, and no kept array may have any call's score shape
    calls = flow_train_tape.calls
    self_scores = min(b * l * s for b, l, s in calls if l == s)
    kept = kept_arrays(flow_train_tape.loss, flow_train_tape.store)
    biggest = max(kept.values(), key=lambda a: a.size)
    assert biggest.size < self_scores, biggest.shape
    score_shapes = set(calls)
    assert not [a.shape for a in kept.values() if a.shape in score_shapes]


def test_tape_bytes_stay_within_the_activation_bound(flow_train_tape):
    loss, bb = flow_train_tape.loss, flow_train_tape.bb
    L = flow_train_tape.calls[0][1]
    itemsize = loss.data.itemsize
    bound = bb.blocks * PER_BLOCK_ACTIVATIONS * L * bb.width * itemsize
    total = sum(a.nbytes for a in kept_arrays(loss, flow_train_tape.store).values())
    assert total < bound, f"tape keeps {total / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
