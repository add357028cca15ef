"""Shared session-scoped training runs for the acceptance and
trained-model-property tests.

These are the expensive fixtures: they generate data, train the codec and
flow model, and sample videos. Configs live here so the time/quality
trade-off is tuned in one place.
"""

import time

import numpy as np
import pytest

from hcustom.eval_metrics import evaluate, frame_error
from hcustom.pipeline import merge_config, run_training, sample_training_conditions
from hcustom.synth_data import SceneParams, generate_dataset

OVERFIT_CFG = {
    "task": "single_subject",
    "seed": 11,
    "codec": {"train_steps": 300, "batch_size": 2, "learning_rate": 2e-3},
    "train": {"steps": 700, "batch_size": 2, "learning_rate": 1e-3,
              "checkpoint_every": 0},
}
OVERFIT_COUNT = 50
OVERFIT_SCENE = dict(frames=33, size=64)
OVERFIT_EVAL = 8

ABLATION_CFG = {
    "task": "single_subject",
    "seed": 5,
    "codec": {"train_steps": 150, "batch_size": 2, "learning_rate": 2e-3},
    "model": {"width": 128, "heads": 4, "blocks": 2, "text_width": 128,
              "mlp_ratio": 4},
    "train": {"steps": 260, "batch_size": 2, "learning_rate": 1e-3,
              "checkpoint_every": 0},
}
ABLATION_COUNT = 20
ABLATION_SCENE = dict(frames=17, size=48, caption_style="plain")
ABLATION_EVAL = 20
ABLATION_SAMPLER_STEPS = 25


def train_variant(tmp_root, data_dir, name, overrides, codec=None):
    cfg = merge_config(ABLATION_CFG, overrides)
    cfg["dataset"] = str(data_dir)
    cfg["out_dir"] = str(tmp_root / name)
    return run_training(cfg, codec=codec)


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    data = root / "data"
    generate_dataset(data, OVERFIT_COUNT, seed=OVERFIT_CFG["seed"],
                     scene=SceneParams(**OVERFIT_SCENE))
    cfg = dict(OVERFIT_CFG)
    cfg["dataset"] = str(data)
    cfg["out_dir"] = str(root / "run")
    t0 = time.monotonic()
    result = run_training(cfg)
    videos, refs = sample_training_conditions(result, OVERFIT_EVAL,
                                              sampler_steps=50, seed=1)
    result["eval_videos"] = videos
    result["eval_refs"] = refs
    result["wall_time_total"] = time.monotonic() - t0
    return result


@pytest.fixture(scope="session")
def identity_ablation_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablate_id")
    data = root / "data"
    generate_dataset(data, ABLATION_COUNT, seed=ABLATION_CFG["seed"],
                     scene=SceneParams(**ABLATION_SCENE))
    base = train_variant(root, data, "base", {})
    # the variants differ only in the flow model, so they share base's codec
    return {
        "base": base,
        "no_identity": train_variant(
            root, data, "no_identity",
            {"ablation": {"identity_enhancement": False}}, codec=base["codec"]),
        "channel_concat": train_variant(
            root, data, "channel_concat",
            {"ablation": {"identity_enhancement": False, "channel_concat": True}},
            codec=base["codec"]),
    }


@pytest.fixture(scope="session")
def video_ablation_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablate_vid")
    data = root / "data"
    generate_dataset(data, ABLATION_COUNT, seed=ABLATION_CFG["seed"] + 1,
                     scene=SceneParams(**ABLATION_SCENE))
    overrides = {"task": "video_custom"}
    add = train_variant(root, data, "add", overrides)
    return {
        "add": add,
        "concat": train_variant(
            root, data, "concat",
            merge_config(overrides, {"video_inject": {"mode": "concat",
                                                      "align_hidden": None}}),
            codec=add["codec"]),
    }


@pytest.fixture(scope="session")
def identity_ablation_eval(identity_ablation_runs):
    """Per variant: (metrics report, mean first-frame error) over the first
    ABLATION_EVAL training conditions, sampled once and shared by 8a and 8b."""
    out = {}
    for name, result in identity_ablation_runs.items():
        videos, refs = sample_training_conditions(
            result, ABLATION_EVAL, sampler_steps=ABLATION_SAMPLER_STEPS)
        ff = float(np.mean([frame_error(v.data[0], s.video.data[0])
                            for v, s in zip(videos, result["samples"])]))
        out[name] = (evaluate(videos, refs), ff)
    return out


def backbone_inputs(model, ps, z, t=0.5):
    """Run `model.velocity_t` and capture what it hands the backbone.

    Returns (tokens, video_cond, velocity): the assembled latent tokens, the
    add-mode hidden-space condition term (None without one) and the output.
    """
    seen = {}
    forward = model.backbone.forward_t

    def spy(tokens, *args, video_cond=None):
        seen.update(tokens=tokens, video_cond=video_cond)
        return forward(tokens, *args, video_cond=video_cond)

    model.backbone.forward_t = spy
    try:
        velocity = model.velocity_t(ps, z, t)
    finally:
        del model.backbone.forward_t
    return seen["tokens"], seen["video_cond"], velocity
