import ast
import json
import os
import pathlib

import numpy as np
import pytest

from hcustom.cli import main
from hcustom.container import load_container, save_container
from hcustom.latent_codec import PixelVideo
from hcustom.pipeline import (DEFAULT_CONFIG, apply_overrides, merge_config,
                              serialize_config, validate_config)
from hcustom.errors import ConfigError
from hcustom.synth_data import load_sample

TINY_CFG = {
    "task": "single_subject",
    "seed": 3,
    "codec": {"spatial_factor": 8, "latent_channels": 8, "hidden_channels": 8,
              "train_steps": 6, "batch_size": 2, "learning_rate": 2e-3},
    "model": {"width": 16, "heads": 2, "blocks": 1, "text_width": 16, "mlp_ratio": 2},
    "train": {"steps": 4, "batch_size": 2, "learning_rate": 1e-3,
              "clip_norm": 1.0, "checkpoint_every": 2},
    "sample": {"steps": 3},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["gen-data", "--count", "3", "--seed", "1", "--out", str(data),
               "--frames", "5", "--size", "16"])
    assert rc == 0
    cfg = dict(TINY_CFG)
    cfg["dataset"] = str(data)
    cfg["out_dir"] = str(root / "run")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, data, cfg_path


def test_gen_data_wrote_manifest(workspace):
    root, data, _ = workspace
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["count"] == 3
    assert len(manifest["samples"]) == 3


@pytest.mark.parametrize("flag,value", [
    ("--subjects", "0"), ("--subjects", "5"), ("--size", "8"), ("--size", "0"),
    ("--frames", "0"), ("--frames", "-3"), ("--count", "0"), ("--count", "-1")])
def test_gen_data_rejects_a_count_out_of_range(tmp_path, capsys, flag, value):
    args = ["gen-data", "--count", "2", "--out", str(tmp_path / "data"), flag, value]
    assert main(args) == 2
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_train_and_sample_cli(workspace, capsys):
    root, data, cfg_path = workspace
    rc = main(["train", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    out = captured.out.strip()
    assert rc == 0
    # both stages log one record per step, with the same fields
    records = [json.loads(line) for line in captured.err.splitlines()]
    steps = {stage: [r for r in records if r.get("stage") == stage]
             for stage in ("codec", "flow")}
    assert [r["step"] for r in steps["codec"]] == list(range(TINY_CFG["codec"]["train_steps"]))
    assert [r["step"] for r in steps["flow"]] == list(range(TINY_CFG["train"]["steps"]))
    assert {tuple(sorted(r)) for r in steps["codec"] + steps["flow"]} == {
        ("clipped", "grad_norm", "loss", "page_faults", "stage", "step", "step_s",
         "wall_time")}
    ckpt = out.splitlines()[-1]
    assert os.path.exists(ckpt)
    assert os.path.exists(root / "run" / "loss_curve.csv")
    assert os.path.exists(root / "run" / "checkpoint_step000002.hc")

    sample_file = sorted((data).glob("sample_*.hc"))[0]
    from hcustom.synth_data import load_sample
    sample = load_sample(sample_file)
    img_path = root / "ident.hc"
    sample.identity_images[0].save(img_path)
    out_path = root / "gen.hc"
    rc = main(["sample", "--ckpt", ckpt, "--prompt", sample.caption,
               "--subject", f"name={sample.descriptors[0]},image={img_path}",
               "--frames", "5", "--steps", "2", "--out", str(out_path)])
    assert rc == 0
    video = PixelVideo.load(out_path)
    assert video.frames == 5 and video.height == 16

    # no subject image and no --size leave the latent grid unknown: a usage error
    capsys.readouterr()
    rc = main(["sample", "--ckpt", ckpt, "--prompt", sample.caption,
               "--frames", "5", "--steps", "2", "--out", str(root / "nogrid.hc")])
    assert rc == 2
    assert "size" in capsys.readouterr().err

    # a size that is not a multiple of the spatial factor (8) is a usage error
    rc = main(["sample", "--ckpt", ckpt, "--prompt", sample.caption, "--size", "20",
               "--frames", "5", "--steps", "2", "--out", str(root / "size20.hc")])
    assert rc == 2
    assert "config error: size:" in capsys.readouterr().err
    assert not (root / "size20.hc").exists()


@pytest.mark.parametrize("override", [
    # values the config dataclasses check
    "model.heads=3", "audio.lambda_a=-1", "codec.spatial_factor=3",
    "ablation.channel_concat=true",
    # the trainers' numbers: a wrong type, a bool for an int, or out of range
    "codec.train_steps=0", "codec.batch_size=true", "train.steps=abc",
    "train.batch_size=0", "sample.steps=2.5", "train.checkpoint_every=-1",
    "codec.learning_rate=0", "train.learning_rate=NaN", "train.clip_norm=null",
    "schedule.s=-1", "schedule.m=Infinity",
    # the model's and the codec's sizes
    "model.heads=abc", "model.width=-16", "model.blocks=0", "model.text_width=0",
    "model.mlp_ratio=0", "codec.spatial_factor=abc", "codec.latent_channels=0",
    "codec.hidden_channels=0", "audio.width=0", "audio.heads=true",
    "video_inject.align_hidden=0",
    # channel concat on a task without exactly one subject, or one that
    # reads the identity rows (several overrides, the last one named)
    *(f"task={task} ablation.identity_enhancement=false ablation.channel_concat=true"
      for task in ("t2v", "multi_subject", "audio_custom"))])
def test_bad_config_value_exits_2_before_codec_training(workspace, tmp_path, capsys,
                                                        override):
    _, _, cfg_path = workspace
    overrides = override.split()
    args = ["train", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}"]
    args += [arg for pair in overrides for arg in ("--set", pair)]
    if override.startswith("audio."):
        args += ["--set", "task=audio_custom"]
    if override.startswith("video_inject."):
        args += ["--set", "task=video_custom"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert '"stage": "codec"' not in err
    key = overrides[-1].split("=")[0]
    assert f"config error: {key}:" in err


def test_frames_the_codec_cannot_encode_exit_2_before_codec_training(workspace, tmp_path,
                                                                     capsys):
    _, _, cfg_path = workspace
    data = tmp_path / "data12"
    assert main(["gen-data", "--count", "2", "--seed", "1", "--out", str(data),
                 "--frames", "5", "--size", "12"]) == 0
    args = ["train", "--config", str(cfg_path), "--set", f"dataset={data}",
            "--set", f"out_dir={tmp_path / 'run'}"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert '"stage": "codec"' not in err
    assert "config error: codec.spatial_factor: 8 does not divide the 12x12 frames" in err
    assert "sample_00000.hc" in err


@pytest.mark.parametrize("override,key", [
    ("seeed=1", "seeed"), ("ablaton.fusion_images=false", "ablaton"),
    ("train.stpes=5", "train.stpes"), ("ablation.fusion_imagse=false", "ablation.fusion_imagse"),
    ("audio.widht=8", "audio.widht"),
    # keys that earlier versions accepted
    ("sample.count=1", "sample.count"), ("model.gate_init=0.5", "model.gate_init"),
    ("codec.decoder_width=2", "codec.decoder_width"),
    ("codec.focus_weight=1", "codec.focus_weight")])
def test_unknown_config_key_exits_2_before_codec_training(workspace, tmp_path, capsys,
                                                          override, key):
    _, _, cfg_path = workspace
    args = ["train", "--config", str(cfg_path), "--set", override,
            "--set", f"out_dir={tmp_path}"]
    if override.startswith("audio."):
        args += ["--set", "task=audio_custom"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert '"stage": "codec"' not in err
    assert f"config error: {key}: unknown key" in err


@pytest.mark.parametrize("config,key", [({"train": 5}, "train"),
                                        ({"seed": {"value": 1}}, "seed")])
def test_config_entry_of_the_wrong_kind_is_rejected(config, key):
    with pytest.raises(ConfigError) as exc:
        validate_config(config)
    assert exc.value.field == key


def test_checked_in_configs_pass_the_strict_schema():
    from conftest import ABLATION_CFG, OVERFIT_CFG
    root = pathlib.Path(__file__).resolve().parents[1]
    configs = [json.loads(p.read_text()) for p in sorted(root.glob("configs/*.json"))]
    configs += [OVERFIT_CFG, ABLATION_CFG, TINY_CFG]
    for demo in sorted(root.glob("demos/*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "validate_config":
                configs.append(ast.literal_eval(node.args[0]))
    assert len(configs) >= 5
    for cfg in configs:
        validate_config(cfg)


def test_sample_rejects_negative_lambda_before_loading(tmp_path, capsys):
    rc = main(["sample", "--ckpt", str(tmp_path / "missing.hc"), "--prompt", "x",
               "--lambda-audio", "-1", "--out", str(tmp_path / "out.hc")])
    assert rc == 2
    assert "--lambda-audio" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--frames", "0"), ("--frames", "-7"),
                                        ("--steps", "0")])
def test_sample_rejects_a_non_positive_count_before_loading(tmp_path, capsys, flag, value):
    rc = main(["sample", "--ckpt", str(tmp_path / "missing.hc"), "--prompt", "x",
               flag, value, "--out", str(tmp_path / "out.hc")])
    assert rc == 2
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "out.hc").exists()


def test_evaluate_cli(workspace, capsys):
    root, data, cfg_path = workspace
    videos = root / "videos"
    videos.mkdir(exist_ok=True)
    from hcustom.synth_data import load_sample
    for name in sorted(os.listdir(data)):
        if name.startswith("sample_"):
            s = load_sample(data / name)
            s.video.save(videos / name)
    report = root / "report.json"
    rc = main(["evaluate", "--videos", str(videos), "--refs", str(data),
               "--report", str(report)])
    assert rc == 0
    table = capsys.readouterr().out
    for col in ("Face-Sim", "CLIP-B-T", "DINO-Sim", "Temp-Consis", "DD"):
        assert col in table
    payload = json.loads(report.read_text())
    assert payload["columns"]["Face-Sim"] > 0.9  # ground-truth videos match refs


def test_inspect_positions_output(capsys):
    rc = main(["inspect-positions", "--subjects", "2", "--latent", "4x4x3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [l.split() for l in lines[1:]]
    ident = [r for r in rows if r[0].startswith("identity")]
    video = [r for r in rows if r[0] == "video"]
    assert len(ident) == 2 * 16 and len(video) == 48
    assert {r[1] for r in ident} == {"-1", "-2"}
    assert ident[0][2:] == ["4", "4"]  # shifted spatial coordinates


@pytest.mark.parametrize("subjects,latent,flag", [
    ("-2", "2x2x1", "--subjects"), ("1", "0x4x4", "--latent"),
    ("1", "-2x4x4", "--latent"), ("1", "4x4x-1", "--latent")],
    ids=["subjects=-2", "latent=0x4x4", "latent=-2x4x4", "latent=4x4x-1"])
def test_inspect_positions_rejects_a_negative_subject_count(capsys, subjects, latent, flag):
    rc = main(["inspect-positions", f"--subjects={subjects}", f"--latent={latent}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"config error: {flag}:" in captured.err and captured.out == ""


def test_unknown_flag_exits_2(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--nonsense"])
    assert exc.value.code == 2


def test_bad_config_field_exit_code(workspace, tmp_path, capsys):
    root, data, _ = workspace
    cfg = dict(TINY_CFG)
    cfg["dataset"] = str(data)
    cfg["task"] = "nonsense"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 2
    assert "task" in capsys.readouterr().err


def test_audio_section_rejected_on_t2v(tmp_path, capsys):
    cfg = dict(TINY_CFG)
    cfg["task"] = "t2v"
    cfg["audio"] = {"lambda_a": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 2
    assert "audio" in capsys.readouterr().err


def test_config_roundtrip_and_overrides():
    cfg = validate_config({"task": "t2v", "dataset": "d", "out_dir": "o"})
    again = validate_config(json.loads(serialize_config(cfg)))
    assert cfg == again
    over = apply_overrides(cfg, ["train.steps=7", "model.width=32",
                                 "train.steps=9"])
    assert over["train"]["steps"] == 9 and over["model"]["width"] == 32
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["oops"])


def test_hcustom_out_env_overrides(workspace, tmp_path, monkeypatch, capsys):
    _, _, cfg_path = workspace
    monkeypatch.setenv("HCUSTOM_OUT", str(tmp_path / "env_out"))
    rc = main(["train", "--config", str(cfg_path),
               "--set", f"out_dir={tmp_path / 'ignored'}"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "env_out" / "checkpoint.hc")
    assert (tmp_path / "env_out" / "checkpoint.hc").exists()
    assert not (tmp_path / "ignored").exists()


def test_ablate_cli_trains_base_and_each_axis_under_hcustom_out(workspace, tmp_path,
                                                                monkeypatch, capsys):
    _, _, cfg_path = workspace
    out = tmp_path / "env_out"
    monkeypatch.setenv("HCUSTOM_OUT", str(out))
    axes = ["no_identity_enhancement", "channel_concat"]
    rc = main(["ablate", "--config", str(cfg_path), "--axis", axes[0], "--axis", axes[1],
               "--eval-count", "1", "--sampler-steps", "2"])
    assert rc == 0
    for name in ["base", *axes]:
        assert (out / name / "checkpoint.hc").exists()
    summary = json.loads(capsys.readouterr().out)
    assert summary == json.loads((out / "ablation.json").read_text())
    assert sorted(summary["deltas"]) == sorted(axes)
    assert sorted(summary["runs"]) == sorted(["base", *axes])


@pytest.mark.parametrize("flags,field", [
    (["--axis", "no_fusion"], "ablate"),
    (["--eval-count", "0"], "--eval-count"),
    (["--sampler-steps", "0"], "--sampler-steps"),
    # a variant that validation refuses stops the run before the base trains
    (["--set", "task=multi_subject", "--axis", "channel_concat"], "ablation.channel_concat"),
    (["--set", "task=t2v", "--axis", "channel_concat"], "ablation.channel_concat")])
def test_ablate_usage_errors_exit_2_before_training(workspace, tmp_path, capsys, flags,
                                                    field):
    _, _, cfg_path = workspace
    rc = main(["ablate", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}",
               "--axis", "no_fusion", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {field}:" in err and '"stage": "codec"' not in err


def test_sample_audio_reads_a_gen_data_sample(workspace, tmp_path, capsys):
    root, data, cfg_path = workspace
    rc = main(["train", "--config", str(cfg_path), "--set", "task=audio_custom",
               "--set", "train.checkpoint_every=0", "--set", f"out_dir={tmp_path / 'run'}"])
    assert rc == 0
    ckpt = capsys.readouterr().out.strip()
    sample_file = sorted(data.glob("sample_*.hc"))[0]
    from hcustom.synth_data import load_sample
    sample = load_sample(sample_file)
    img_path = tmp_path / "ident.hc"
    sample.identity_images[0].save(img_path)
    args = ["sample", "--ckpt", ckpt, "--prompt", sample.caption,
            "--subject", f"name={sample.descriptors[0]},image={img_path}",
            "--audio", str(sample_file), "--steps", "2"]
    # the 5-frame clip carries 5 audio frames: 2 latent frames, as 5 video frames are
    assert main(args + ["--frames", "5", "--out", str(tmp_path / "ok.hc")]) == 0
    assert PixelVideo.load(tmp_path / "ok.hc").frames == 5
    capsys.readouterr()
    assert main(args + ["--frames", "9", "--out", str(tmp_path / "bad.hc")]) == 1
    assert "error: audio has 5 frames" in capsys.readouterr().err
    assert not (tmp_path / "bad.hc").exists()


def _tiny_checkpoint(cfg_path, out_dir, task, capsys, every=0):
    """Train TINY_CFG on `task` into out_dir; returns the final checkpoint."""
    rc = main(["train", "--config", str(cfg_path), "--set", f"task={task}",
               "--set", f"train.checkpoint_every={every}", "--set", f"out_dir={out_dir}"])
    assert rc == 0
    return capsys.readouterr().out.strip()


def test_sample_rejects_a_condition_the_checkpoint_task_did_not_train(workspace, tmp_path,
                                                                       capsys):
    # the intermediate checkpoint records its task as the final one does
    root, data, cfg_path = workspace
    _tiny_checkpoint(cfg_path, tmp_path / "run", "single_subject", capsys, every=2)
    ckpt = tmp_path / "run" / "checkpoint_step000002.hc"
    assert load_container(ckpt)[1]["extra"] == {"task": "single_subject"}
    sample_file = sorted(data.glob("sample_*.hc"))[0]
    sample = load_sample(sample_file)
    img_path = tmp_path / "ident.hc"
    sample.identity_images[0].save(img_path)
    args = ["sample", "--ckpt", str(ckpt), "--prompt", sample.caption,
            "--subject", f"name={sample.descriptors[0]},image={img_path}",
            "--frames", "5", "--steps", "2"]
    for flag, value in (("--audio", sample_file), ("--condition-video", img_path)):
        out = tmp_path / f"{flag[2:]}.hc"
        assert main(args + [flag, str(value), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag}: the checkpoint was trained for task 'single_subject'" in err
        assert not out.exists()
    assert main(args + ["--out", str(tmp_path / "plain.hc")]) == 0


def test_sample_condition_video_on_a_video_custom_checkpoint(workspace, tmp_path, capsys):
    root, data, cfg_path = workspace
    ckpt = _tiny_checkpoint(cfg_path, tmp_path / "run", "video_custom", capsys)
    sample_file = sorted(data.glob("sample_*.hc"))[0]
    sample = load_sample(sample_file)
    img_path, cond_path, mask_path = (tmp_path / n for n in ("ident.hc", "cond.hc", "mask.hc"))
    sample.identity_images[0].save(img_path)
    sample.video.save(cond_path)
    save_container(mask_path, {"mask": (1 - sample.masks).astype(np.uint8)})
    args = ["sample", "--ckpt", ckpt, "--prompt", sample.caption,
            "--subject", f"name={sample.descriptors[0]},image={img_path}",
            "--condition-video", str(cond_path), "--condition-mask", str(mask_path),
            "--steps", "2"]
    assert main(args + ["--frames", "5", "--out", str(tmp_path / "ok.hc")]) == 0
    assert PixelVideo.load(tmp_path / "ok.hc").frames == 5
    capsys.readouterr()
    # the 5-frame condition video encodes to 2 latent frames, 9 frames need 3
    assert main(args + ["--frames", "9", "--out", str(tmp_path / "bad.hc")]) == 1
    assert "error: condition video frame count mismatch" in capsys.readouterr().err
    assert not (tmp_path / "bad.hc").exists()


@pytest.fixture(scope="module")
def sample_checkpoint(workspace, tmp_path_factory):
    """A tiny single_subject checkpoint and an identity image of the dataset."""
    root, data, cfg_path = workspace
    out = tmp_path_factory.mktemp("fit")
    assert main(["train", "--config", str(cfg_path), "--set", "train.checkpoint_every=0",
                 "--set", f"out_dir={out / 'run'}"]) == 0
    sample = load_sample(sorted(data.glob("sample_*.hc"))[0])
    img_path = out / "ident.hc"
    sample.identity_images[0].save(img_path)
    return out / "run" / "checkpoint.hc", img_path, sample


def _drop_qkv(arrays, meta):
    del arrays["model.backbone.blk0.qkv.w"]


def _drop_model_config(arrays, meta):
    del meta["model_config"]


def _unknown_field(arrays, meta):
    meta["model_config"]["backbone"]["colour"] = "red"


def _wrong_shape(arrays, meta):
    arrays["model.backbone.blk0.qkv.w"] = arrays["model.backbone.blk0.qkv.w"][:-1]


@pytest.mark.parametrize("damage,entry", [
    (_drop_qkv, "missing=['backbone.blk0.qkv.w']"),
    (_drop_model_config, "meta: missing 'model_config'"),
    (_unknown_field, "'colour'"),
    (_wrong_shape, "backbone.blk0.qkv.w"),
], ids=["missing-array", "no-model-config", "unknown-config-field", "wrong-shape"])
def test_sample_reports_a_checkpoint_that_does_not_fit_its_model(sample_checkpoint, tmp_path,
                                                                 capsys, damage, entry):
    ckpt, img_path, sample = sample_checkpoint
    arrays, meta = load_container(ckpt)
    damage(arrays, meta)
    bad = tmp_path / "bad.hc"
    save_container(bad, arrays, meta)
    capsys.readouterr()
    rc = main(["sample", "--ckpt", str(bad), "--prompt", sample.caption,
               "--subject", f"name={sample.descriptors[0]},image={img_path}",
               "--frames", "5", "--steps", "2", "--out", str(tmp_path / "out.hc")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {bad}: ") and entry in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out.hc").exists()


def test_sample_reports_a_subject_image_that_is_not_a_pixel_video(sample_checkpoint, tmp_path,
                                                                  capsys):
    ckpt, _, sample = sample_checkpoint
    capsys.readouterr()
    rc = main(["sample", "--ckpt", str(ckpt), "--prompt", sample.caption,
               "--subject", f"name={sample.descriptors[0]},image={ckpt}",
               "--frames", "5", "--steps", "2", "--out", str(tmp_path / "out.hc")])
    assert rc == 1
    assert f"error: {ckpt}: pixel video: missing 'frames'" in capsys.readouterr().err
    assert not (tmp_path / "out.hc").exists()


def test_evaluate_reports_references_that_are_not_train_samples(workspace, tmp_path, capsys):
    _, data, _ = workspace
    sample = load_sample(sorted(data.glob("sample_*.hc"))[0])
    videos, refs = tmp_path / "videos", tmp_path / "refs"
    videos.mkdir()
    refs.mkdir()
    sample.video.save(videos / "clip.hc")
    sample.video.save(refs / "clip.hc")
    capsys.readouterr()
    rc = main(["evaluate", "--videos", str(videos), "--refs", str(refs),
               "--report", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {refs / 'clip.hc'}: train sample: missing 'identities'")
    assert not (tmp_path / "report.json").exists()


def test_sample_reports_an_audio_file_that_is_not_a_train_sample(workspace, tmp_path, capsys):
    _, data, cfg_path = workspace
    ckpt = _tiny_checkpoint(cfg_path, tmp_path / "run", "audio_custom", capsys)
    sample = load_sample(sorted(data.glob("sample_*.hc"))[0])
    img_path, video_path = tmp_path / "ident.hc", tmp_path / "video.hc"
    sample.identity_images[0].save(img_path)
    sample.video.save(video_path)
    rc = main(["sample", "--ckpt", ckpt, "--prompt", sample.caption,
               "--subject", f"name={sample.descriptors[0]},image={img_path}",
               "--audio", str(video_path), "--frames", "5", "--steps", "2",
               "--out", str(tmp_path / "out.hc")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {video_path}: train sample: missing 'identities'")
    assert not (tmp_path / "out.hc").exists()


def test_sample_reports_a_condition_mask_file_without_a_mask(workspace, tmp_path, capsys):
    _, data, cfg_path = workspace
    ckpt = _tiny_checkpoint(cfg_path, tmp_path / "run", "video_custom", capsys)
    sample = load_sample(sorted(data.glob("sample_*.hc"))[0])
    img_path, cond_path, mask_path = (tmp_path / n for n in ("ident.hc", "cond.hc", "mask.hc"))
    sample.identity_images[0].save(img_path)
    sample.video.save(cond_path)
    save_container(mask_path, {"masks": (1 - sample.masks).astype(np.uint8)})
    rc = main(["sample", "--ckpt", ckpt, "--prompt", sample.caption,
               "--subject", f"name={sample.descriptors[0]},image={img_path}",
               "--condition-video", str(cond_path), "--condition-mask", str(mask_path),
               "--frames", "5", "--steps", "2", "--out", str(tmp_path / "out.hc")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {mask_path}: condition mask: missing 'mask'")
    assert not (tmp_path / "out.hc").exists()
