"""Command-line harness: gen-data, train, sample, evaluate, ablate,
inspect-positions.

Exit codes: 0 success, 2 configuration/usage problems (the message names the
offending field), 1 runtime failure.  Progress goes to stderr as
line-delimited JSON records; artifacts land in the run's output directory.
The HCUSTOM_OUT environment variable overrides the output directory of
gen-data and of the run config that train and ablate load.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .container import load_container, reading
from .errors import ConfigError, HCustomError
from .eval_metrics import EvalRef, evaluate
from .flow_match import SamplerConfig
from .latent_codec import PixelVideo
from .model import load_checkpoint
from .pipeline import (ABLATION_AXES, apply_overrides, check_seed, run_ablation,
                       run_training, sample_to_pixel)
from .prompt_fusion import PromptSpec, Template
from .rope3d import sequence_positions
from .synth_data import MIN_SCENE_SIZE, SHAPES, SceneParams, generate_dataset, load_sample
from .video_inject import ConditionVideo


def _emit(**record):
    print(json.dumps(record, sort_keys=True, default=float), file=sys.stderr)


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON in {path}: {e}")
    cfg = apply_overrides(cfg, overrides or [])
    if os.environ.get("HCUSTOM_OUT"):
        cfg["out_dir"] = os.environ["HCUSTOM_OUT"]
    return cfg


def _require_positive(*flags):
    for flag, value in flags:
        if value < 1:
            raise ConfigError(flag, f"must be >= 1, got {value}")


def cmd_gen_data(args) -> int:
    _require_positive(("--count", args.count), ("--frames", args.frames))
    check_seed("--seed", args.seed)
    if not 1 <= args.subjects <= len(SHAPES):
        raise ConfigError("--subjects", f"must be in 1..{len(SHAPES)} (descriptors are "
                                        f"distinct shapes), got {args.subjects}")
    if args.size < MIN_SCENE_SIZE:
        raise ConfigError("--size", f"must be >= {MIN_SCENE_SIZE}, got {args.size}")
    out = os.environ.get("HCUSTOM_OUT") or args.out
    scene = SceneParams(frames=args.frames, size=args.size,
                        caption_style=args.caption_style)
    paths = generate_dataset(out, args.count, args.seed, scene,
                             subjects_per_sample=args.subjects)
    _emit(event="gen-data", count=len(paths), out=out)
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.set)
    result = run_training(cfg, log=_emit)
    _emit(event="train-done", checkpoint=result["checkpoint"],
          final_loss=result["losses"][-1] if result["losses"] else None)
    print(result["checkpoint"])
    return 0


def _parse_subject(spec: str) -> tuple[str, str]:
    fields = dict(part.split("=", 1) for part in spec.split(",") if "=" in part)
    if "name" not in fields or "image" not in fields:
        raise ConfigError("--subject", f"expected name=<word>,image=<path>, got {spec!r}")
    return fields["name"], fields["image"]


def _require_trained_conditions(meta: dict, args):
    """Reject a condition whose branch the checkpoint's task did not train:
    that branch still holds its initial draw."""
    task = meta.get("extra", {}).get("task")
    for flag, given, needs in (("--audio", args.audio, "audio_custom"),
                               ("--condition-video", args.condition_video, "video_custom")):
        if given and task is not None and task != needs:
            raise ConfigError(flag, f"the checkpoint was trained for task {task!r}; "
                                    f"{flag} needs a {needs!r} checkpoint")


def cmd_sample(args) -> int:
    lam = args.lambda_audio
    if lam is not None and not (math.isfinite(lam) and lam >= 0):
        raise ConfigError("--lambda-audio", f"must be finite and >= 0, got {lam}")
    _require_positive(("--frames", args.frames), ("--steps", args.steps))
    check_seed("--seed", args.seed)
    model, codec, stats, step, meta = load_checkpoint(args.ckpt, lambda_a=lam)
    _require_trained_conditions(meta, args)
    subjects = []
    for spec in args.subject or []:
        word, image_path = _parse_subject(spec)
        subjects.append((word, PixelVideo.load(image_path)))
    template = Template.image_embedded if args.template == "embedded" \
        else Template.image_appended
    prompt_spec = PromptSpec(args.prompt, subjects, template)
    audio = load_sample(args.audio).audio if args.audio else None
    condition = None
    if args.condition_video:
        mask = None
        if args.condition_mask:
            arrays, _ = load_container(args.condition_mask)
            with reading(args.condition_mask, "condition mask"):
                mask = arrays["mask"]
        condition = ConditionVideo(PixelVideo.load(args.condition_video), mask)
    ps = model.prepare(codec, stats,
                       identity_images=[img for _, img in subjects],
                       spec=prompt_spec, audio=audio, condition=condition,
                       frames=args.frames,
                       size=(args.size, args.size) if args.size else None)
    video = sample_to_pixel(model, codec, stats, ps,
                            SamplerConfig(steps=args.steps, seed=args.seed))
    video.save(args.out)
    _emit(event="sample-done", out=args.out, frames=video.frames, ckpt_step=step)
    print(args.out)
    return 0


def cmd_evaluate(args) -> int:
    names = sorted(n for n in os.listdir(args.videos) if n.endswith(".hc"))
    if not names:
        raise ConfigError("--videos", f"no .hc video containers in {args.videos}")
    videos, refs = [], []
    for name in names:
        videos.append(PixelVideo.load(os.path.join(args.videos, name)))
        ref_path = os.path.join(args.refs, name)
        if not os.path.exists(ref_path):
            raise ConfigError("--refs", f"missing reference sample for {name}")
        ref = load_sample(ref_path)
        refs.append(EvalRef(identity_image=ref.identity_images[0], prompt=ref.caption))
    report = evaluate(videos, refs)
    report.save(args.report)
    print(report.render_table("hcustom"))
    return 0


def cmd_ablate(args) -> int:
    _require_positive(("--eval-count", args.eval_count),
                      ("--sampler-steps", args.sampler_steps))
    cfg = _load_config(args.config, args.set)
    report, _ = run_ablation(cfg, args.axis, n_eval=args.eval_count,
                             sampler_steps=args.sampler_steps, log=_emit)
    print(json.dumps(report, indent=1, sort_keys=True, default=float))
    return 0


def cmd_inspect_positions(args) -> int:
    try:
        w, h, f = (int(x) for x in args.latent.lower().split("x"))
    except ValueError:
        raise ConfigError("--latent", f"expected WxHxF, got {args.latent!r}")
    if min(w, h, f) < 1:
        raise ConfigError("--latent", f"every size must be >= 1, got {args.latent!r}")
    if args.subjects < 0:
        raise ConfigError("--subjects", f"must be >= 0, got {args.subjects}")
    print(f"{'segment':<12} {'t':>4} {'x':>4} {'y':>4}")
    for t, x, y in sequence_positions(args.subjects, f, w, h):
        segment = "video" if t >= 0 else f"identity-{-t}"
        print(f"{segment:<12} {t:>4} {x:>4} {y:>4}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcustom",
        description="Desk-scale multi-modal conditioned video generation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic sprite dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=33)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--subjects", type=int, default=1)
    p.add_argument("--caption-style", choices=("full", "plain"), default="full")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train codec then flow model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (dotted path, last wins)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate a video from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--subject", action="append",
                   metavar="name=<word>,image=<path>")
    p.add_argument("--template", choices=("embedded", "appended"), default="appended")
    p.add_argument("--audio", metavar="SAMPLE",
                   help="a gen-data sample container; its audio track conditions the clip")
    p.add_argument("--lambda-audio", type=float, default=None)
    p.add_argument("--condition-video")
    p.add_argument("--condition-mask")
    p.add_argument("--frames", type=int, default=33)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="score generated videos against references")
    p.add_argument("--videos", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train a base run and one seed-matched variant "
                                      "per --axis, each differing in one flag")
    p.add_argument("--axis", action="append", required=True, choices=ABLATION_AXES)
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--eval-count", type=int, default=8)
    p.add_argument("--sampler-steps", type=int, default=30)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect-positions",
                       help="print the rotary position grid for a config")
    p.add_argument("--subjects", type=int, default=1)
    p.add_argument("--latent", required=True, metavar="WxHxF")
    p.set_defaults(func=cmd_inspect_positions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except HCustomError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
