"""Shared session-scoped training runs for the acceptance and
trained-model-property tests.

These are the expensive fixtures: they generate data, train the codec and
flow model, and sample videos. Configs live here so the time/quality
trade-off is tuned in one place.
"""

import time

import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.pipeline import (merge_config, run_ablation, run_training,
                              sample_training_conditions)
from hcustom.rope3d import apply_rotation, rotation_tables
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


def ablation(root, task, data_seed, axes):
    """`run_ablation` of ABLATION_CFG on `task`, over ABLATION_COUNT clips
    generated from `data_seed`; returns its (report, runs)."""
    data = root / "data"
    generate_dataset(data, ABLATION_COUNT, seed=data_seed,
                     scene=SceneParams(**ABLATION_SCENE))
    cfg = merge_config(ABLATION_CFG, {"task": task, "dataset": str(data),
                                      "out_dir": str(root / "runs")})
    return run_ablation(cfg, axes, n_eval=ABLATION_EVAL,
                        sampler_steps=ABLATION_SAMPLER_STEPS)


@pytest.fixture(scope="session")
def identity_ablation_runs(tmp_path_factory):
    """The base and the two identity-path variants (criteria 8a and 8b)."""
    return ablation(tmp_path_factory.mktemp("ablate_id"), "single_subject",
                    ABLATION_CFG["seed"], ("no_identity_enhancement", "channel_concat"))


@pytest.fixture(scope="session")
def video_ablation_runs(tmp_path_factory):
    """Add-mode video injection (the base) and concat mode (criterion 8c)."""
    return ablation(tmp_path_factory.mktemp("ablate_vid"), "video_custom",
                    ABLATION_CFG["seed"] + 1, ("video_inject_concat",))


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


def rotate(vector, pos, config):
    """One head-dim vector rotated to position pos = (t, x, y), through the
    path the backbone runs: `rotation_tables` and `apply_rotation`."""
    vector = np.asarray(vector)
    cos, sin = rotation_tables(np.reshape(pos, (1, 3)), config, dtype=vector.dtype)
    x = ag.Tensor(vector.reshape(1, 1, -1))
    return apply_rotation(x, cos, sin, config).data[0, 0]
