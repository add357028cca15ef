"""End-to-end orchestration: configs, task wiring, training runs, ablations.

A run config is a plain nested dict (JSON on disk).  Training is staged:
the codec is overfit first on the dataset's pixel videos, latent statistics
are frozen, every sample is encoded once into its prepared layout, and the
flow model then trains on those cached latents.  All stage seeds derive
from the run seed, so identical configs yield byte-identical checkpoints.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

from .audio_net import AudioInjectConfig
from .backbone import BackboneConfig
from .errors import ConfigError
from .eval_metrics import (SPRITE_SATURATION, EvalRef, evaluate, frame_error,
                           masked_region_error)
from .flow_match import NoiseSchedule, SamplerConfig, sample_flow, train_flow
from .latent_codec import (CodecConfig, LatentCodec, PixelVideo, tokenize, train_codec,
                           untokenize)
from .model import (CustomVideoModel, LatentStats, ModelConfig, PreparedSample,
                    save_checkpoint)
from .prompt_fusion import PromptSpec, Template
from .synth_data import TrainSample, dataset_paths, load_sample
from .video_inject import ConditionVideo

TASKS = ("t2v", "single_subject", "multi_subject", "audio_custom", "video_custom")

DEFAULT_CONFIG = {
    "task": "single_subject",
    "dataset": "data/train",
    "out_dir": "runs/run0",
    "seed": 0,
    "template": "image_appended",
    "codec": {"spatial_factor": 8, "latent_channels": 16, "hidden_channels": 16,
              "train_steps": 400, "batch_size": 2, "learning_rate": 2e-3},
    "model": {"width": 128, "heads": 4, "blocks": 4, "text_width": 128,
              "mlp_ratio": 4},
    "ablation": {"identity_enhancement": True, "channel_concat": False,
                 "fusion_images": True},
    "schedule": {"m": 0.0, "s": 1.0},
    "train": {"steps": 300, "batch_size": 2, "learning_rate": 1e-3,
              "clip_norm": 1.0, "checkpoint_every": 0},
    "sample": {"steps": 50},
    # the sections of one task; a run of another task builds that branch at
    # these values and may not set them
    "audio": {"lambda_a": 1.0, "width": 32, "heads": 1},
    "video_inject": {"mode": "add", "align_hidden": None},
}

_TASK_SECTIONS = {"audio": "audio_custom", "video_inject": "video_custom"}

# the numbers the model, codec and trainers read: counts with their least value
# (or null, for _NULLABLE), skipped when their task section is absent, and reals
# that must be finite, with the bound they must exceed (None: any finite value)
_COUNTS = {"codec.spatial_factor": 1, "codec.latent_channels": 1,
           "codec.hidden_channels": 1, "codec.train_steps": 1, "codec.batch_size": 1,
           "model.width": 1, "model.heads": 1, "model.blocks": 1, "model.text_width": 1,
           "model.mlp_ratio": 1, "train.steps": 1, "train.batch_size": 1,
           "train.checkpoint_every": 0, "sample.steps": 1, "audio.width": 1,
           "audio.heads": 1, "video_inject.align_hidden": 1}
_NULLABLE = {"video_inject.align_hidden"}
_REALS = {"codec.learning_rate": 0.0, "train.learning_rate": 0.0,
          "train.clip_norm": 0.0, "schedule.s": 0.0, "schedule.m": None}


def merge_config(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = value
    return out


def apply_overrides(config: dict, pairs: list[str]) -> dict:
    """Apply `--set a.b=value` overrides, last one wins."""
    config = copy.deepcopy(config)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError("--set", f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "path traverses a non-dict value")
        node[parts[-1]] = value
    return config


def _check_keys(config: dict, schema: dict, path: str = ""):
    """Raise ConfigError naming the dotted key of each entry of `config`
    that `schema` does not have, or whose nesting differs from it."""
    for key, value in config.items():
        dotted = f"{path}{key}"
        if key not in schema:
            raise ConfigError(dotted, "unknown key")
        section = isinstance(schema[key], dict)
        if section != isinstance(value, dict):
            raise ConfigError(dotted, "must be a section" if section else "must be a value")
        if section:
            _check_keys(value, schema[key], f"{dotted}.")


def _get(cfg: dict, dotted: str):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


def _check_numbers(cfg: dict):
    """Raise ConfigError naming the dotted key of a count or real of `cfg`
    that has the wrong type or lies out of range (bools are not numbers)."""
    for key, least in _COUNTS.items():
        if key.split(".")[0] not in cfg:
            continue
        value = _get(cfg, key)
        if value is None and key in _NULLABLE:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ConfigError(key, f"must be an integer >= {least}, got {value!r}")
    for key, bound in _REALS.items():
        value = _get(cfg, key)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or (bound is not None and value <= bound)):
            rule = "a finite number" + ("" if bound is None else f" > {bound:g}")
            raise ConfigError(key, f"must be {rule}, got {value!r}")


def validate_config(config: dict) -> dict:
    """Check every key against DEFAULT_CONFIG and fill in its defaults,
    with the task's own section, then check the trainers' numbers; returns
    the resolved dict."""
    _check_keys(config, DEFAULT_CONFIG)
    task = config.get("task", DEFAULT_CONFIG["task"])
    if task not in TASKS:
        raise ConfigError("task", f"must be one of {TASKS}, got {task!r}")
    for section, owner in _TASK_SECTIONS.items():
        if section in config and task != owner:
            raise ConfigError(section, f"section is only valid for task {owner!r}, "
                                       f"not {task!r}")
    schema = {k: v for k, v in DEFAULT_CONFIG.items() if _TASK_SECTIONS.get(k, task) == task}
    cfg = merge_config(schema, config)
    if cfg["template"] not in ("image_appended", "image_embedded"):
        raise ConfigError("template", f"unknown template {cfg['template']!r}")
    # channel concat stacks one subject on the video's channels and drops the
    # identity rows, which audio's f+1 aligned frames cover
    if cfg["ablation"]["channel_concat"] and task not in ("single_subject", "video_custom"):
        raise ConfigError("ablation.channel_concat", f"task {task!r} cannot stack one "
                          "subject on the video's channels")
    _check_numbers(cfg)
    return cfg


def serialize_config(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=1)


def _build(cls, cfg: dict, keys: dict[str, str], **given):
    """`cls(**given)` with each field of `keys` read from the dotted
    run-config key it maps to; a ConfigError naming one of those fields is
    raised again naming its key."""
    try:
        return cls(**{field: _get(cfg, key) for field, key in keys.items()}, **given)
    except ConfigError as e:
        if e.field not in keys:
            raise
        raise ConfigError(keys[e.field], e.message) from None


def model_config_from(cfg: dict) -> ModelConfig:
    """The model of the validated config `cfg`.  A task without an audio or
    video_inject section builds those branches at their DEFAULT_CONFIG values."""
    cfg = {**DEFAULT_CONFIG, **cfg}
    backbone = _build(BackboneConfig, cfg, {
        "width": "model.width", "heads": "model.heads", "blocks": "model.blocks",
        "text_width": "model.text_width", "mlp_ratio": "model.mlp_ratio",
        "latent_channels": "codec.latent_channels"})
    audio = _build(AudioInjectConfig, cfg, {
        "lambda_a": "audio.lambda_a", "width": "audio.width", "heads": "audio.heads"})
    return _build(ModelConfig, cfg, {
        "align_hidden": "video_inject.align_hidden", "video_mode": "video_inject.mode",
        "identity_enhancement": "ablation.identity_enhancement",
        "channel_concat": "ablation.channel_concat",
        "fusion_images": "ablation.fusion_images", "seed": "seed"},
        backbone=backbone, audio=audio)


def codec_config_from(cfg: dict) -> CodecConfig:
    return _build(CodecConfig, cfg, {
        "spatial_factor": "codec.spatial_factor", "latent_channels": "codec.latent_channels",
        "hidden_channels": "codec.hidden_channels", "seed": "seed"})


# ---------------------------------------------------------------------------
# task wiring


def spec_for_sample(sample: TrainSample, task: str, template: str) -> PromptSpec:
    if task == "t2v":
        return PromptSpec(sample.caption, [], Template(template))
    subjects = list(zip(sample.descriptors, sample.identity_images))
    if task in ("single_subject", "audio_custom", "video_custom"):
        subjects = subjects[:1]
    return PromptSpec(sample.caption, subjects, Template(template))


def condition_for_sample(sample: TrainSample) -> ConditionVideo:
    """Replacement-task conditioning: blank the subject region, keep background."""
    keep = (1 - sample.masks).astype(np.uint8)
    return ConditionVideo(sample.video, keep)


def prepare_samples(model: CustomVideoModel, codec: LatentCodec, stats: LatentStats,
                    samples: list[TrainSample], task: str,
                    template: str = "image_appended") -> list[PreparedSample]:
    prepared = []
    for s in samples:
        spec = spec_for_sample(s, task, template)
        prepared.append(model.prepare(
            codec, stats,
            video=s.video,
            identity_images=[image for _, image in spec.subjects],
            spec=spec,
            audio=s.audio if task == "audio_custom" else None,
            condition=condition_for_sample(s) if task == "video_custom" else None))
    return prepared


def compute_latent_stats(codec: LatentCodec, samples: list[TrainSample]) -> LatentStats:
    tokens = [tokenize(codec.encode(s.video)) for s in samples]
    return LatentStats.from_tokens(np.concatenate(tokens, axis=0))


def sample_to_pixel(model: CustomVideoModel, codec: LatentCodec, stats: LatentStats,
                    ps: PreparedSample, sampler: SamplerConfig) -> PixelVideo:
    tokens = sample_flow(model, ps, sampler)
    latent = untokenize(stats.denormalize(tokens), ps.frames, ps.height, ps.width)
    return codec.decode(latent)


# ---------------------------------------------------------------------------
# runs


def codec_training_set(samples: list[TrainSample]):
    """Videos plus identity images (so the first-frame path and clean sprite
    renders are in distribution), with subject-focus masks for each."""
    videos = [s.video for s in samples]
    masks = [s.masks for s in samples]
    for s in samples:
        for img in s.identity_images:
            videos.append(img)
            sat = img.data.max(axis=-1) - img.data.min(axis=-1)
            masks.append((sat > SPRITE_SATURATION).astype(np.uint8))
    return videos, masks


def _check_frame_sizes(paths, samples, factor):
    """Raise ConfigError naming the first sample file whose video or identity
    image the codec cannot encode: its height and width must be multiples
    of the spatial factor."""
    for path, s in zip(paths, samples):
        for video in [s.video] + s.identity_images:
            if video.height % factor or video.width % factor:
                raise ConfigError("codec.spatial_factor", f"{factor} does not divide the "
                                  f"{video.height}x{video.width} frames of {path}")


def run_training(cfg: dict, log=None, codec: LatentCodec | None = None) -> dict:
    """Stage A: codec; stage B: flow model.  Returns artifact paths.

    Pass the `codec` of an earlier run on the same dataset, run seed and
    codec section to skip stage A: stage A depends on nothing else, so the
    result is the same as retraining it (ablation variants share one codec).
    """
    cfg = validate_config(cfg)
    # both configs check their values before any stage spends time
    model_config, codec_config = model_config_from(cfg), codec_config_from(cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    paths = dataset_paths(cfg["dataset"])
    samples = [load_sample(p) for p in paths]
    _check_frame_sizes(paths, samples, codec_config.spatial_factor)
    c = cfg["codec"]
    if codec is None:
        codec = LatentCodec(codec_config)
        codec_videos, codec_masks = codec_training_set(samples)
        train_codec(
            codec, codec_videos, steps=c["train_steps"], batch_size=c["batch_size"],
            learning_rate=c["learning_rate"], seed=cfg["seed"],
            focus_masks=codec_masks,
            log=(lambda **kw: log(stage="codec", **kw)) if log else None)
    elif codec.config != codec_config:
        raise ConfigError("codec", "the given codec was built from another codec config")
    stats = compute_latent_stats(codec, samples)
    model = CustomVideoModel(model_config)
    prepared = prepare_samples(model, codec, stats, samples, cfg["task"],
                               cfg["template"])
    tr = cfg["train"]
    ckpt_path = os.path.join(out_dir, "checkpoint.hc")
    every = tr["checkpoint_every"]

    def flow_step_done(**event):
        if log:
            log(stage="flow", **event)
        step = event["step"] + 1
        if every and step % every == 0:
            save_checkpoint(os.path.join(out_dir, f"checkpoint_step{step:06d}.hc"),
                            model, codec, stats, step, extra_meta={"task": cfg["task"]})

    losses = train_flow(
        model, prepared, steps=tr["steps"], batch_size=tr["batch_size"],
        learning_rate=tr["learning_rate"], clip_norm=tr["clip_norm"],
        schedule=NoiseSchedule(**cfg["schedule"]), seed=cfg["seed"],
        log=flow_step_done)
    save_checkpoint(ckpt_path, model, codec, stats, step=tr["steps"],
                    extra_meta={"task": cfg["task"]})
    curve_path = os.path.join(out_dir, "loss_curve.csv")
    with open(curve_path, "w") as f:
        f.write("step,loss\n")
        for i, loss in enumerate(losses):
            f.write(f"{i},{loss:.10g}\n")
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        f.write(serialize_config(cfg))
    return {"checkpoint": ckpt_path, "loss_curve": curve_path,
            "losses": losses, "model": model, "codec": codec, "stats": stats,
            "prepared": prepared, "samples": samples, "config": cfg}


def sample_training_conditions(result: dict, count: int, sampler_steps: int,
                               seed: int = 0) -> tuple[list[PixelVideo], list[EvalRef]]:
    """Re-sample videos for the first `count` training items' conditioning."""
    model, codec, stats = result["model"], result["codec"], result["stats"]
    videos, refs = [], []
    for i, (ps, s) in enumerate(zip(result["prepared"], result["samples"])):
        if i >= count:
            break
        videos.append(sample_to_pixel(model, codec, stats, ps,
                                      SamplerConfig(steps=sampler_steps,
                                                    seed=seed * 7919 + i)))
        refs.append(EvalRef(identity_image=s.identity_images[0], prompt=s.caption))
    return videos, refs


ABLATION_AXES = ("no_fusion", "no_identity_enhancement", "channel_concat",
                 "video_inject_concat")


def ablation_variant(cfg: dict, axis: str) -> dict:
    """A copy of the validated config `cfg` with `axis`'s flags flipped."""
    cfg = copy.deepcopy(cfg)
    ab = cfg["ablation"]
    if axis == "no_fusion":
        ab["fusion_images"] = False
    elif axis == "no_identity_enhancement":
        ab["identity_enhancement"] = False
    elif axis == "channel_concat":
        ab["identity_enhancement"] = False
        ab["channel_concat"] = True
    elif axis == "video_inject_concat":
        if cfg["task"] != "video_custom":
            raise ConfigError("ablate", "video_inject_concat requires task video_custom")
        cfg["video_inject"]["mode"] = "concat"
    else:
        raise ConfigError("ablate", f"unknown axis {axis!r}; choose from {ABLATION_AXES}")
    return cfg


def _run_metrics(result: dict, n_eval: int, sampler_steps: int) -> dict:
    videos, refs = sample_training_conditions(result, n_eval, sampler_steps)
    report = evaluate(videos, refs)
    first_frame = float(np.mean([
        frame_error(v.data[0], s.video.data[0])
        for v, s in zip(videos, result["samples"][:len(videos)])]))
    out = {"metrics": report.as_columns(), "first_frame_error": first_frame,
           "missing_detections": report.missing_detections}
    if result["config"]["task"] == "video_custom":
        bg = [masked_region_error(v.data, s.video.data[:v.frames],
                                  (1 - s.masks[:v.frames]))
              for v, s in zip(videos, result["samples"][:len(videos)])]
        out["background_error"] = float(np.mean(bg))
    return out


def run_ablation(cfg: dict, axes, *, n_eval: int, sampler_steps: int,
                 log=None) -> tuple[dict, dict]:
    """Train the base config once, then one variant per axis on its codec.

    Each variant differs from the base only in its axis's flags, so every
    pair is seed-matched.  Runs go to `<out_dir>/base` and `<out_dir>/<axis>`.
    Returns (report, runs).  The report, also written to
    `<out_dir>/ablation.json`, holds each run's metrics under "runs" (keyed
    "base" and by axis) and the base-minus-variant metric differences under
    "deltas" (keyed by axis).  `runs` holds each `run_training` result under
    the same keys as the report's "runs".
    """
    cfg = validate_config(cfg)
    axes = list(axes)
    if not axes or len(set(axes)) != len(axes):
        raise ConfigError("ablate", f"need one or more distinct axes, got {axes}")
    # every variant is checked before the base spends any training time
    configs = {"base": cfg, **{axis: ablation_variant(cfg, axis) for axis in axes}}
    for run_cfg in configs.values():
        model_config_from(validate_config(run_cfg))
    runs = {}
    for name, run_cfg in configs.items():
        run_cfg = dict(run_cfg, out_dir=os.path.join(cfg["out_dir"], name))
        runs[name] = run_training(run_cfg, log=log,
                                  codec=runs["base"]["codec"] if runs else None)
    metrics = {name: _run_metrics(result, n_eval, sampler_steps)
               for name, result in runs.items()}
    deltas = {}
    for axis in axes:
        variant = metrics[axis]["metrics"]
        deltas[axis] = {key: bval - variant[key]
                        for key, bval in metrics["base"]["metrics"].items()
                        if bval is not None and variant[key] is not None}
    report = {"runs": metrics, "deltas": deltas}
    with open(os.path.join(cfg["out_dir"], "ablation.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True, default=float)
    return report, runs
