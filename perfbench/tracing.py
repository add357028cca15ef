"""Spans around calls into hcustom's public functions, recorded from outside.

Nothing inside the package is edited: `Tracer.install` swaps wrappers in for
the traced functions and methods, and `Tracer.uninstall` puts the originals
back.  A function imported by name into another module (`backbone` imports
`apply_rotation`, `model` imports `fuse_t` and `inject_audio_t`, `nn` imports
`matmul`) is a second reference that a wrapper on the defining module alone
would miss, so every hcustom module attribute that is the original object is
replaced.

A span is one row `[name, op, parent, start, end]`: `op` identifies the
training step or clip (or set-up repetition) the span belongs to, and
`parent` is the index of the enclosing span, or -1.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, attribute, span name); an attribute "Class.method" patches the class
FUNCTIONS = (
    ("autograd", "Tensor.backward", "autograd.backward"),
    ("nn", "Adam.step", "nn.adam_step"),
    ("rope3d", "apply_rotation", "rope3d.apply_rotation"),
    ("backbone", "Backbone.forward_t", "backbone.forward"),
    ("prompt_fusion", "fuse_t", "prompt_fusion.fuse"),
    ("audio_net", "inject_audio_t", "audio_net.inject"),
    ("video_inject", "AlignmentNet.forward_t", "video_inject.align"),
    ("model", "CustomVideoModel.prepare", "model.prepare"),
    ("model", "CustomVideoModel.velocity_t", "model.velocity"),
    ("flow_match", "flow_loss_t", "flow_match.loss"),
    ("flow_match", "sample_flow", "flow_match.sample_flow"),
    ("latent_codec", "LatentCodec.encode_t", "latent_codec.encode"),
    ("latent_codec", "LatentCodec.decode_t", "latent_codec.decode"),
    ("synth_data", "generate_sample", "synth_data.generate"),
    ("container", "load_container", "container.load"),
)
# tape ops timed forward and backward (their VJP closures are wrapped)
TAPE_OPS = ("conv2d", "attention", "matmul", "gelu", "layer_norm")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = {}   # (op, counter name) -> total
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0])
        self._stack.append(i)
        return i

    def end(self, i: int):
        self.spans[i][4] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0):
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def begin_op(self, op) -> int:
        """Open the root span of one operation (a step, a clip or a set-up)."""
        if self._stack:
            raise RuntimeError("operation opened inside another span")
        self.op = op
        return self.begin("op")

    def end_op(self, i: int):
        self.end(i)
        self.op = None

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return traced

    def _tape_op(self, op_name, fn):
        fwd, bwd = f"autograd.{op_name}.fwd", f"autograd.{op_name}.bwd"
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if op_name == "attention":
                q, k = args[0].data, args[1].data
                tracer.count("attention.score_bytes",
                             q.shape[0] * q.shape[1] * k.shape[1] * q.itemsize)
            vjp = out._vjp
            if vjp is not None:
                out._vjp = tracer._timed(bwd, vjp)
            return out
        return traced

    def _counted_make(self, fn):
        def counted(*args):
            self.count("autograd.ops")
            return fn(*args)
        return counted

    def install(self):
        if self._patches:
            return
        from hcustom import autograd
        targets = [(mod, attr, self._timed(name, _resolve(mod, attr)))
                   for mod, attr, name in FUNCTIONS]
        targets += [("autograd", op, self._tape_op(op, getattr(autograd, op)))
                    for op in TAPE_OPS]
        targets.append(("autograd", "_make", self._counted_make(autograd._make)))
        for mod, attr, wrapper in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(_module(mod), cls_name)
                self._patches.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, wrapper)
                continue
            original = getattr(_module(mod), attr)
            for owner in _hcustom_modules():
                if owner.__dict__.get(attr) is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "columns": ["name", "op", "parent", "start_s", "end_s"],
                "spans": [[index[n], op, p, round(t0, 7), round(t1, 7)]
                          for n, op, p, t0, t1 in self.spans],
                "counts": [[op, name, value] for (op, name), value in self.counts.items()]}


def _module(name):
    return sys.modules[f"hcustom.{name}"]


def _hcustom_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hcustom" or n.startswith("hcustom."))]


def _resolve(mod, attr):
    obj = _module(mod)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


MODULES = ("autograd", "nn", "rope3d", "backbone", "prompt_fusion", "audio_net",
           "video_inject", "model", "flow_match", "latent_codec")
PER_OP_MS = ("autograd.conv2d.fwd", "autograd.conv2d.bwd",
             "autograd.attention.fwd", "autograd.attention.bwd",
             "autograd.matmul.fwd", "autograd.matmul.bwd",
             "autograd.gelu.fwd", "autograd.layer_norm.fwd",
             "autograd.backward", "nn.adam_step", "rope3d.apply_rotation",
             "backbone.forward", "flow_match.loss", "prompt_fusion.fuse",
             "audio_net.inject", "video_inject.align")
PER_CALL_MS = ("latent_codec.encode", "latent_codec.decode", "model.prepare",
               "synth_data.generate", "container.load")
MB = float(1 << 20)


def layer_metrics(tracer: Tracer, ops: list) -> dict[str, float]:
    """Per-layer figures from the spans of the traced operations `ops`.

    `*_ms` of a PER_OP_MS layer is its inclusive time per operation, and of
    a PER_CALL_MS layer its mean time per call over the whole run, set-up
    included.  `<module>.self_ms` is the module's self time per operation;
    `op.self_ms` is the part of an operation no span covers.
    """
    opset = set(ops)
    n = max(len(ops), 1)
    selfs = tracer.self_times()
    incl: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES + ("op",), 0.0)
    calls: dict[str, list] = {}
    velocity, nfe, fuse_calls = [], 0, 0
    for (name, op, parent, t0, t1), st in zip(tracer.spans, selfs):
        calls.setdefault(name, []).append(t1 - t0)
        if op not in opset:
            continue
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        mod = name.split(".")[0]
        if mod in module_self:
            module_self[mod] += st
        fuse_calls += name == "prompt_fusion.fuse"
        if name == "model.velocity":
            velocity.append(t1 - t0)
            nfe += parent >= 0 and tracer.spans[parent][0] == "flow_match.sample_flow"

    def counter(name):
        return sum(v for (op, c), v in tracer.counts.items() if c == name and op in opset)

    out = {f"{name}_ms": 1e3 * incl.get(name, 0.0) / n for name in PER_OP_MS}
    out.update({f"{name}_ms": 1e3 * statistics.fmean(calls[name]) if calls.get(name) else 0.0
                for name in PER_CALL_MS})
    out["model.velocity_ms"] = 1e3 * statistics.median(velocity) if velocity else 0.0
    out["autograd.attention.score_mb"] = counter("attention.score_bytes") / MB / n
    out["autograd.ops_per_step"] = counter("autograd.ops") / n
    out["prompt_fusion.fuse_calls_per_clip"] = fuse_calls / n
    out["flow_match.nfe_per_clip"] = nfe / n
    out.update({f"{mod}.self_ms": 1e3 * t / n for mod, t in module_self.items()})
    return out

