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
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.backbone import Backbone
from hcustom.flow_match import flow_loss_t
from hcustom.latent_codec import LatentCodec
from hcustom.model import CustomVideoModel
from hcustom.pipeline import (codec_config_from, compute_latent_stats, model_config_from,
                              prepare_samples, validate_config)
from hcustom.synth_data import SceneParams, generate_sample, identity_pool

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_subject.json"
# [L, width]-sized arrays a backbone block may keep: today about 13.8 (the
# 4x-wide MLP pre-activation, 4; the three layer-norm outputs, which are
# also the inputs of the folded linear layers; the rotated q and k, the
# self-attention v and the cross-attention q; the two attention outputs,
# which are also their merged heads; and row statistics).  One
# [heads, L, S] score buffer per attention call would add
# 2 * heads * S / width, about 37 more per block.
PER_BLOCK_ACTIVATIONS = 15
# tracemalloc peak of one flow_loss_t forward and its backward at that
# shape: the tape plus what backward allocates (about 20.6 MiB today)
STEP_PEAK_MIB = 23


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
def flow_train_step():
    """The model, its prepared `single_subject` sample and the noise of one
    flow-train step."""
    cfg = validate_config(json.loads(CONFIG.read_text()))
    sample = generate_sample(identity_pool(1, 1)[0], SceneParams(), seed=1)
    codec = LatentCodec(codec_config_from(cfg))
    stats = compute_latent_stats(codec, [sample])
    model = CustomVideoModel(model_config_from(cfg))
    ps = prepare_samples(model, codec, stats, [sample], "single_subject", cfg["template"])[0]
    z0 = np.random.default_rng(0).standard_normal(ps.z1.shape).astype(np.float32)
    return SimpleNamespace(model=model, ps=ps, z0=z0)


@pytest.fixture(scope="module")
def flow_train_tape(flow_train_step):
    """One flow_loss_t forward: its loss, the (B, L, S) of its attention calls,
    the key counts each call was given (None for self-attention), the
    backbone config, the parameter store, and weak references to arrays the
    forward made: the residual stream (the layer-norm inputs), the `qkv`
    products, the MLP pre-activations (`gelu_matmul` inputs) and the GELU
    outputs it computes from them, and each attention output with its
    merged heads."""
    step = flow_train_step
    bb = step.model.config.backbone
    calls, counts = [], []
    refs = SimpleNamespace(residual=[], qkv=[], mlp=[], gelu=[], merged=[])
    attention, gelu_matmul, gelu_into = ag.attention, ag.gelu_matmul, ag._gelu_into
    layer_norm, matmul, merge_heads = ag.layer_norm, ag.matmul, Backbone._merge_heads

    def recorded(q, k, v, scale, key_counts=None):
        calls.append((q.shape[0], q.shape[1], k.shape[1]))
        counts.append(key_counts)
        return attention(q, k, v, scale, key_counts)

    def watched_layer_norm(x, *args):
        refs.residual.append(weakref.ref(_base(x.data)))
        return layer_norm(x, *args)

    def watched_matmul(a, w, *args):
        out = matmul(a, w, *args)
        if out.shape[0] > 1 and out.shape[-1] == 3 * bb.width:   # not a folded bias
            refs.qkv.append(weakref.ref(_base(out.data)))
        return out

    def watched_gelu_matmul(u, *args):
        refs.mlp.append(weakref.ref(_base(u.data)))
        return gelu_matmul(u, *args)

    def watched_gelu_into(x, y, slope):
        if y.shape[-1] == bb.mlp_ratio * bb.width:
            refs.gelu.append(weakref.ref(_base(y)))
        return gelu_into(x, y, slope)

    def watched_merge_heads(self, x, length):
        out = merge_heads(self, x, length)
        refs.merged.append((weakref.ref(_base(x.data)), weakref.ref(_base(out.data))))
        return out

    ag.attention, ag.gelu_matmul, ag._gelu_into = recorded, watched_gelu_matmul, watched_gelu_into
    ag.layer_norm, ag.matmul = watched_layer_norm, watched_matmul
    Backbone._merge_heads = watched_merge_heads
    try:
        loss = flow_loss_t(step.model, step.ps, 0.5, step.z0)
    finally:
        ag.attention, ag.gelu_matmul, ag._gelu_into = attention, gelu_matmul, gelu_into
        ag.layer_norm, ag.matmul = layer_norm, matmul
        Backbone._merge_heads = merge_heads
    return SimpleNamespace(loss=loss, calls=calls, counts=counts, bb=bb,
                           store=step.model.store, refs=refs)


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


def test_only_the_mlp_pre_activation_outlives_the_forward(flow_train_tape):
    # no VJP reads the residual stream (an add keeps shapes, a layer norm its
    # output), the qkv product (q and k are rotated into new arrays and
    # attention holds its own copy of v) or a GELU output (gelu_matmul
    # rebuilds it from its input in backward); the pre-activation is the one
    # MLP-wide array the tape keeps
    tape, refs = flow_train_tape, flow_train_tape.refs
    blocks = tape.bb.blocks
    assert len(refs.residual) == 3 * blocks + 1
    assert len(refs.qkv) == len(refs.mlp) == blocks
    assert len(refs.gelu) > blocks          # row blocks: more than one per call
    for dead in (refs.residual, refs.qkv, refs.gelu):
        assert [r() for r in dead] == [None] * len(dead)
    kept = kept_arrays(tape.loss, tape.store)
    mlp_wide = {k for k, a in kept.items() if a.shape[-1] == tape.bb.mlp_ratio * tape.bb.width}
    assert mlp_wide == {id(r()) for r in refs.mlp}


def test_attention_output_and_its_merged_heads_share_one_buffer(flow_train_tape):
    tape, merged = flow_train_tape, flow_train_tape.refs.merged
    assert len(merged) == len(tape.calls)
    kept = kept_arrays(tape.loss, tape.store)
    for heads, tokens in merged:
        assert heads() is not None and heads() is tokens()
        assert id(heads()) in kept


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


def test_step_peak_stays_within_its_bound(flow_train_step):
    # a forward and its backward, measured from the first allocation of the
    # forward; the parameter gradients are among what it counts
    step = flow_train_step
    step.model.store.zero_grad()
    tracemalloc.start()
    try:
        flow_loss_t(step.model, step.ps, 0.5, step.z0).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        step.model.store.zero_grad()
    assert peak < STEP_PEAK_MIB * 2**20, f"peak {peak / 2**20:.1f} MiB"
