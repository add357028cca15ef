"""The three workloads: set-up, the timed loop and the correctness checks.

Every clip is 33 frames at 64x64 (9 latent frames of 8x8, 576 video
tokens), and the model and codec come from `configs/single_subject.json`.
The run seed makes the inputs: the sprite clips and the sampler noise.
Parameter initialisation and the trainers' own draws keep the config's
seed, because the cost of `erf` and of `exp` near underflow depends on the
values they see: weights drawn anew for every seed would make step times
depend on the seed as well as on the program.  Each workload's `setup`
builds fresh state from the seed; `run` drives the program's own training
or sampling entry points for about the requested time and returns an
`OpLog`; `check` returns a list of failed correctness checks.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from hcustom import flow_match, synth_data
from hcustom.latent_codec import LatentCodec, train_codec, untokenize
from hcustom.model import CustomVideoModel, load_checkpoint
from hcustom.pipeline import (TASKS, codec_config_from, codec_training_set,
                              compute_latent_stats, condition_for_sample,
                              model_config_from, prepare_samples, spec_for_sample,
                              validate_config)
from hcustom.synth_data import SceneParams, generate_dataset, identity_pool, load_dataset

CONFIG = os.path.join("configs", "single_subject.json")
SCENE = SceneParams()            # 33 frames at 64x64
CODEC_CLIPS = 8                  # codec-train: 8 clips plus their 8 identity images
FLOW_CLIPS = 6                   # flow-train: single_subject samples
CKPT_CLIPS = 4                   # sample-mixed: clips the set-up checkpoint trains on
CKPT_CODEC_STEPS = 10
CKPT_FLOW_STEPS = 2
WARM_CODEC_STEPS = 12            # steps mix 1- and 5-frame windows: estimate on a dozen
MIN_CODEC_STEPS = 60             # enough for the round-trip check to be meaningful
MIN_FLOW_STEPS = 20              # enough for the loss check's last tenth to be 2 steps
REPEAT_STEPS = 2                 # flow steps re-run for the determinism check


@dataclass
class OpLog:
    """What the timed window did: one entry per operation (step or clip)."""

    op_s: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    tasks: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    frames: int = 0              # pixel frames trained on or generated
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)


def load_config(root: str) -> dict:
    with open(os.path.join(root, CONFIG)) as f:
        return validate_config(json.load(f))


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StepClock:
    """Times the steps of one training call from the outside.

    Both trainers call `store.zero_grad()` once at the start of every step,
    so each call marks a step boundary.  With a tracer, even steps run
    traced and odd steps untraced, which gives the tracing overhead from
    the same run.
    """

    def __init__(self, store, tracer=None, on_step=None):
        self.marks: list[float] = []
        self.tracer = tracer
        self.on_step = on_step
        self._op = None
        zero_grad = store.zero_grad

        def marked_zero_grad():
            self._boundary()
            zero_grad()

        store.zero_grad = marked_zero_grad

    def _boundary(self):
        now = time.perf_counter()
        self._close()
        step = len(self.marks)
        self.marks.append(now)
        if self.on_step is not None:
            self.on_step(step)
        if self.tracer is not None and step % 2 == 0:
            self.tracer.install()
            self._op = self.tracer.begin_op(f"step{step}")

    def _close(self):
        if self._op is not None:
            self.tracer.end_op(self._op)
            self._op = None
        if self.tracer is not None:
            self.tracer.uninstall()

    def finish(self, log: OpLog):
        end = time.perf_counter()
        self._close()
        log.op_s = list(np.diff(self.marks + [end])) if self.marks else []
        log.traced = [self.tracer is not None and i % 2 == 0 for i in range(len(log.op_s))]


def _steps_for(seconds: float, step_s: float, minimum: int) -> int:
    return max(minimum, math.ceil(seconds / step_s))


# ---------------------------------------------------------------------------
# codec-train


class CodecTrain:
    required = ("autograd.conv2d.fwd_ms", "autograd.conv2d.bwd_ms",
                "latent_codec.encode_ms", "latent_codec.decode_ms",
                "autograd.matmul.fwd_ms", "autograd.matmul.bwd_ms",
                "autograd.gelu.fwd_ms", "autograd.backward_ms",
                "autograd.ops_per_step", "nn.adam_step_ms",
                "synth_data.generate_ms", "container.load_ms")

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed

    def setup(self, workdir: str) -> dict:
        generate_dataset(workdir, CODEC_CLIPS, self.seed, SCENE)
        samples = load_dataset(workdir)
        videos, masks = codec_training_set(samples)
        return {"samples": samples, "videos": videos, "masks": masks,
                "codec": LatentCodec(codec_config_from(self.cfg))}

    def _train(self, state, steps):
        c = self.cfg["codec"]
        return train_codec(state["codec"], state["videos"], steps=steps,
                           batch_size=c["batch_size"], learning_rate=c["learning_rate"],
                           seed=self.cfg["seed"], focus_masks=state["masks"],
                           focus_weight=c.get("focus_weight", 3.0))

    def run(self, states, seconds, tracer) -> OpLog:
        t0 = time.perf_counter()
        self._train(states[0], WARM_CODEC_STEPS)
        steps = _steps_for(seconds, (time.perf_counter() - t0) / WARM_CODEC_STEPS,
                           MIN_CODEC_STEPS)
        state = states[-1]
        codec = state["codec"]
        log = OpLog(attempted=steps)

        def counted_encode_t(x):
            log.frames += x.shape[0]
            return type(codec).encode_t(codec, x)   # class lookup: sees the tracer

        codec.encode_t = counted_encode_t
        clock = StepClock(codec.store, tracer)
        t0 = time.perf_counter()
        try:
            self._train(state, steps)
        finally:
            clock.finish(log)
            log.wall_s = time.perf_counter() - t0
            del codec.encode_t
        log.peak_rss_mb = peak_rss_mb()
        log.failed = steps - len(log.op_s)
        return log

    def check(self, states, log) -> list[str]:
        state = states[-1]
        return (checks.conv2d_gradients(self.seed)
                + checks.codec_causality(state["codec"], state["samples"][0].video, self.seed)
                + checks.codec_round_trip(state["codec"], [s.video for s in state["samples"]]))


# ---------------------------------------------------------------------------
# flow-train


class FlowTrain:
    task = "single_subject"
    required = ("autograd.attention.fwd_ms", "autograd.attention.bwd_ms",
                "autograd.attention.score_mb", "autograd.matmul.fwd_ms",
                "autograd.matmul.bwd_ms", "autograd.gelu.fwd_ms",
                "autograd.layer_norm.fwd_ms", "autograd.backward_ms",
                "autograd.ops_per_step", "nn.adam_step_ms",
                "rope3d.apply_rotation_ms", "backbone.forward_ms",
                "model.velocity_ms", "flow_match.loss_ms", "prompt_fusion.fuse_ms",
                "model.prepare_ms", "latent_codec.encode_ms",
                "synth_data.generate_ms", "container.load_ms")

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed

    def setup(self, workdir: str) -> dict:
        generate_dataset(workdir, FLOW_CLIPS, self.seed, SCENE)
        samples = load_dataset(workdir)
        codec = LatentCodec(codec_config_from(self.cfg))
        stats = compute_latent_stats(codec, samples)
        model = CustomVideoModel(model_config_from(self.cfg))
        prepared = prepare_samples(model, codec, stats, samples, self.task,
                                   self.cfg["template"])
        return {"model": model, "prepared": prepared,
                "frames_per_sample": samples[0].video.frames}

    def _train(self, state, steps):
        tr = self.cfg["train"]
        return flow_match.train_flow(
            state["model"], state["prepared"], steps=steps,
            batch_size=tr["batch_size"], learning_rate=tr["learning_rate"],
            clip_norm=tr["clip_norm"],
            schedule=flow_match.NoiseSchedule(**self.cfg["schedule"]), seed=self.cfg["seed"])

    def run(self, states, seconds, tracer) -> OpLog:
        self._train(states[0], 1)            # fills the encoder's image-pool cache
        t0 = time.perf_counter()
        self._train(states[0], 1)
        steps = _steps_for(seconds, time.perf_counter() - t0, MIN_FLOW_STEPS)
        state = states[-1]
        model = state["model"]
        log = OpLog(attempted=steps)

        def snapshot(step):
            if step == REPEAT_STEPS:
                log.extra["params_after_repeat_steps"] = model.store.state_dict()

        clock = StepClock(model.store, tracer, on_step=snapshot)
        t0 = time.perf_counter()
        try:
            log.extra["losses"] = self._train(state, steps)
        finally:
            clock.finish(log)
            log.wall_s = time.perf_counter() - t0
        log.peak_rss_mb = peak_rss_mb()
        log.failed = steps - len(log.op_s)
        batch = min(self.cfg["train"]["batch_size"], len(state["prepared"]))
        log.frames = len(log.op_s) * batch * state["frames_per_sample"]
        return log

    def check(self, states, log) -> list[str]:
        state = states[-1]
        z1 = np.concatenate([ps.z1 for ps in state["prepared"]])
        problems = checks.flow_loss_gradients(self.seed)
        problems += checks.loss_below_zero_velocity(log.extra["losses"], z1)
        self._train(states[1], REPEAT_STEPS)
        problems += checks.byte_identical(states[1]["model"].store.state_dict(),
                                       log.extra["params_after_repeat_steps"],
                                       f"parameters after the first {REPEAT_STEPS} steps")
        return problems


# ---------------------------------------------------------------------------
# sample-mixed


def clip_round(seed: int, r: int) -> list[tuple[str, object]]:
    """One fresh (task, sample) per task; the sample seeds differ from those of
    every other round and of the set-up's training data."""
    pool = identity_pool(seed + 1 + r, 10**6)     # every identity, in a seeded order
    out = []
    for j, task in enumerate(TASKS):
        ident = pool[j]
        if task == "multi_subject":   # descriptors must differ within a sample
            ident = [ident, next(p for p in pool[len(TASKS):] if p.shape != ident.shape)]
        # through the module, so that a traced run sees the call
        out.append((task, synth_data.generate_sample(ident, SCENE,
                                                     seed=10**9 + 1000 * seed + 10 * r + j)))
    return out


class SampleMixed:
    required = ("autograd.conv2d.fwd_ms", "latent_codec.encode_ms",
                "latent_codec.decode_ms", "autograd.attention.fwd_ms",
                "autograd.attention.score_mb", "autograd.matmul.fwd_ms",
                "autograd.gelu.fwd_ms", "autograd.layer_norm.fwd_ms",
                "autograd.ops_per_step", "rope3d.apply_rotation_ms",
                "backbone.forward_ms", "model.velocity_ms", "prompt_fusion.fuse_ms",
                "prompt_fusion.fuse_calls_per_clip", "audio_net.inject_ms",
                "video_inject.align_ms", "flow_match.nfe_per_clip",
                "model.prepare_ms", "synth_data.generate_ms", "container.load_ms")

    def __init__(self, cfg: dict, seed: int, root: str):
        self.cfg, self.seed, self.root = cfg, seed, root

    def _hcustom(self, *args):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        env.pop("HCUSTOM_OUT", None)            # it would redirect the outputs
        subprocess.run([sys.executable, "-m", "hcustom", *args], cwd=self.root, env=env,
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

    def setup(self, workdir: str) -> dict:
        """Train a checkpoint on a short budget in a child process, then load it.

        The child keeps training memory out of this process's peak RSS, as
        with `hcustom train` followed by sampling in a new process.
        """
        data, run = os.path.join(workdir, "data"), os.path.join(workdir, "run")
        self._hcustom("gen-data", "--count", str(CKPT_CLIPS), "--seed", str(self.seed),
                      "--out", data)
        self._hcustom("train", "--config", CONFIG, "--set", f"dataset={data}",
                      "--set", f"out_dir={run}",
                      "--set", f"codec.train_steps={CKPT_CODEC_STEPS}",
                      "--set", f"train.steps={CKPT_FLOW_STEPS}")
        model, codec, stats, _, _ = load_checkpoint(os.path.join(run, "checkpoint.hc"))
        return {"model": model, "codec": codec, "stats": stats,
                "rounds": [clip_round(self.seed, 0)]}

    def clip(self, state, task, sample, sampler_seed):
        """prepare -> 50-step Euler sample_flow -> decode; returns (tokens, ps, video)."""
        model, codec, stats = state["model"], state["codec"], state["stats"]
        ps = model.prepare(
            codec, stats,
            identity_images=[] if task == "t2v" else (
                sample.identity_images if task == "multi_subject"
                else sample.identity_images[:1]),
            spec=spec_for_sample(sample, task, self.cfg["template"]),
            audio=sample.audio if task == "audio_custom" else None,
            condition=condition_for_sample(sample) if task == "video_custom" else None,
            frames=sample.video.frames, size=(sample.video.height, sample.video.width))
        sampler = flow_match.SamplerConfig(steps=self.cfg["sample"]["steps"], seed=sampler_seed)
        tokens = flow_match.sample_flow(model, ps, sampler)
        video = codec.decode(untokenize(stats.denormalize(tokens), ps.frames,
                                        ps.height, ps.width))
        return tokens, ps, video

    def sampler_seed(self, j):
        return 7919 * self.seed + j

    def run(self, states, seconds, tracer) -> OpLog:
        state = states[-1]
        log = OpLog()
        log.extra["videos"] = []
        # whole rounds, stopping where one more would overrun `seconds` by over
        # half a round; a traced run needs two, to run each task both ways
        min_rounds = 2 if tracer is not None else 1
        r = 0
        while r < min_rounds or log.wall_s * (1 + 0.5 / r) < seconds:
            if r == len(state["rounds"]):
                state["rounds"].append(clip_round(self.seed, r))
            for task, sample in state["rounds"][r]:
                j = log.attempted
                log.attempted += 1
                traced = tracer is not None and j % 2 == 0
                op = None
                if traced:
                    tracer.install()
                    op = tracer.begin_op(f"clip{j}")
                t0 = time.perf_counter()
                try:
                    tokens, _, video = self.clip(state, task, sample, self.sampler_seed(j))
                except Exception as e:   # a failed clip counts as failed, the run goes on
                    print(f"clip {j} ({task}) failed: {e!r}", file=sys.stderr)
                    log.failed += 1
                    continue
                finally:
                    dt = time.perf_counter() - t0
                    if traced:
                        tracer.end_op(op)
                        tracer.uninstall()
                    log.wall_s += dt
                log.op_s.append(dt)
                log.traced.append(traced)
                log.tasks.append(task)
                log.frames += video.frames
                log.extra["videos"].append(video.data)
                if j == 0:
                    log.extra["first_tokens"] = tokens
            r += 1
        log.peak_rss_mb = peak_rss_mb()
        return log

    def check(self, states, log) -> list[str]:
        state = states[-1]
        problems = checks.clips_valid(log.extra["videos"], SCENE.frames)
        task, sample = state["rounds"][0][0]
        tokens, ps, video = self.clip(state, task, sample, self.sampler_seed(0))
        problems += checks.byte_identical({"frames": video.data},
                                       {"frames": log.extra["videos"][0]},
                                       "decoded frames of a repeated clip")
        problems += checks.euler_matches(state["model"], ps, log.extra["first_tokens"],
                                         self.cfg["sample"]["steps"], self.sampler_seed(0))
        return problems


def make(name: str, cfg: dict, seed: int, root: str):
    if name == "codec-train":
        return CodecTrain(cfg, seed)
    if name == "flow-train":
        return FlowTrain(cfg, seed)
    return SampleMixed(cfg, seed, root)
