"""CLI surface: subcommands run end to end on tiny configs, flags override
config, and validation failures exit nonzero with a one-line diagnostic."""

import json
import struct

import pytest

from fdda import cli, trainer
from fdda.archive import load_model
from fdda.cli import main
from fdda.data import ToyDatasetSpec

from helpers import state_equal


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "dataset": {"samples_per_class": 20, "seed": 0},
        "train": {
            "warmup_epochs": 1,
            "total_epochs": 2,
            "steps_per_epoch": 2,
            "batch_size": 16,
        },
    }
    path = root / "cfg.json"
    path.write_text(json.dumps(cfg))
    return root, path


@pytest.fixture(scope="module")
def pretrained(tiny_cfg, capsys_factory=None):
    root, cfg = tiny_cfg
    model = root / "f.fdda"
    rc = main(["pretrain", "--config", str(cfg), "--out", str(model),
               "--epochs", "4", "--seed", "0"])
    assert rc == 0
    assert model.exists()
    return root, cfg, model


def test_pretrain_reports_accuracy(pretrained, capsys):
    root, cfg, model = pretrained
    rc = main(["eval", "--config", str(cfg), "--model", str(model)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= out["accuracy"] <= 1.0
    assert out["quantized"] is False


def test_analyze_bns_prints_layer_table(pretrained, capsys, tmp_path):
    root, cfg, model = pretrained
    csv_path = tmp_path / "layer1.csv"
    rc = main(["analyze-bns", "--config", str(cfg), "--model", str(model),
               "--samples-per-class", "4", "--csv", str(csv_path), "--layer", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header, *rows = [l for l in lines if not l.startswith("wrote")]
    assert header.split() == ["layer", "sc_mean", "sc_variance"]
    assert len(rows) == 6  # one per BN layer
    assert csv_path.exists()


def test_quantize_runs_and_writes_report(pretrained, capsys):
    root, cfg, model = pretrained
    out_dir = root / "run_full"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["per_epoch"]) == 2
    assert {"epoch", "lossG", "lossQ", "acc"} <= set(report["per_epoch"][0])
    assert (out_dir / "quantized.fdda").exists()
    # the archived model evaluates with its stored quantizers
    rc = main(["eval", "--config", str(cfg), "--model", str(out_dir / "quantized.fdda")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["quantized"] is True
    assert out["accuracy"] == pytest.approx(report["final_acc"], abs=1e-9)


def test_quantize_ablation_flags(pretrained):
    root, cfg, model = pretrained
    out_dir = root / "run_coarse"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--no-cbns", "--no-dbns", "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["weights"]["cbns"] == 0.0
    assert report["config"]["weights"]["dbns"] == 0.0


def test_quantize_no_synthetic_arm(pretrained):
    root, cfg, model = pretrained
    out_dir = root / "run_calib_only"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--no-synthetic", "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert all(e["lossG"] is None for e in report["per_epoch"])


def test_quantize_predict_labels_and_classes(pretrained):
    root, cfg, model = pretrained
    out_dir = root / "run_pred"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--predict-labels", "--classes", "5",
               "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["available_classes"]) <= 5


def test_quantize_policy_flags(pretrained):
    root, cfg, model = pretrained
    out_dir = root / "run_bits"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--wbits", "8", "--abits", "8",
               "--first-bits", "8", "--last-bits", "8", "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["policy"]["default_bits"] == 8
    assert report["policy"]["act_bits"] == 8


def test_validation_failure_exits_nonzero(pretrained, capsys):
    root, cfg, model = pretrained
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(root / "bad"), "--wbits", "11"])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_missing_model_exits_nonzero(tiny_cfg, capsys):
    root, cfg = tiny_cfg
    rc = main(["eval", "--config", str(cfg), "--model", str(root / "missing.fdda")])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error:")


def _rewrite_manifest(src, dst, edit):
    raw = src.read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    manifest = json.loads(raw[8 : 8 + mlen])
    edit(manifest)
    blob = json.dumps(manifest).encode()
    dst.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + mlen :])
    return dst


def test_eval_of_malformed_archive_exits_2_with_one_line(pretrained, capsys, tmp_path):
    root, cfg, model = pretrained
    bad = _rewrite_manifest(model, tmp_path / "bad.fdda",
                            lambda m: m["layers"][0].update(kind="deconv"))
    rc = main(["eval", "--config", str(cfg), "--model", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown layer spec" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_of_archive_with_bad_policy_exits_2_with_one_line(pretrained, capsys, tmp_path):
    root, cfg, model = pretrained
    bad = _rewrite_manifest(model, tmp_path / "bad.fdda",
                            lambda m: m.update(policy={"default_bits": 4, "bogus": 1}, act_quant=[]))
    rc = main(["eval", "--config", str(cfg), "--model", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad quantizers" in err and "'bogus'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def quantized(pretrained):
    root, cfg, model = pretrained
    out_dir = root / "run_archive"
    assert main(["quantize", "--config", str(cfg), "--model", str(model),
                 "--out", str(out_dir), "--seed", "2"]) == 0
    return out_dir / "quantized.fdda"


def _manifest(path):
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8 : 8 + mlen])


def test_quantized_archive_holds_only_what_eval_reads(quantized):
    manifest = _manifest(quantized)
    assert set(manifest) == {"version", "layers", "meta", "arrays", "policy", "act_quant"}
    assert all(a["name"].startswith(("param:", "buffer:")) for a in manifest["arrays"])


@pytest.mark.parametrize("missing", ["act_quant", "policy"])
def test_eval_of_archive_with_one_quantizer_key_exits_2_with_one_line(
        pretrained, quantized, capsys, tmp_path, missing):
    root, cfg, model = pretrained
    bad = _rewrite_manifest(quantized, tmp_path / "bad.fdda", lambda m: m.pop(missing))
    rc = main(["eval", "--config", str(cfg), "--model", str(bad)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and f"bad quantizers (no '{missing}' key)" in err
    assert len(err.strip().splitlines()) == 1 and out == ""


def test_eval_runs_the_activation_bits_of_the_archived_policy(
        pretrained, capsys, tmp_path, monkeypatch):
    root, cfg, model = pretrained
    out_dir = tmp_path / "w3a3"
    assert main(["quantize", "--config", str(cfg), "--model", str(model), "--out", str(out_dir),
                 "--wbits", "3", "--abits", "3", "--warmup", "0", "--epochs", "1"]) == 0
    a8 = _rewrite_manifest(out_dir / "quantized.fdda", tmp_path / "a8.fdda",
                           lambda m: m["policy"].update(act_bits=8))
    ran = []

    def evaluate(net, data, quant=None):
        ran.append([q.bits for q in quant.act_params])
        return trainer.evaluate(net, data, quant=quant)

    monkeypatch.setattr(cli, "evaluate", evaluate)
    for archive in (out_dir / "quantized.fdda", a8):
        assert main(["eval", "--config", str(cfg), "--model", str(archive)]) == 0
    n = len(_manifest(a8)["act_quant"])
    assert ran == [[3] * n, [8] * n]
    assert capsys.readouterr().err == ""


def _as_version_1(m):
    m["version"] = 1
    for layer in m["layers"]:
        if layer["kind"] == "conv2d":
            layer["stride"] = 1


@pytest.mark.parametrize("edit,match", [
    (_as_version_1, "format version 1, expected 5"),
    (lambda m: m["layers"][0].update(pad=3),
     "bad.fdda: conv2d layer 'conv1' needs kernel >= 1 and 0 <= pad < kernel, "
     "got kernel 3, pad 3"),
    (lambda m: m["layers"][0].update(upsample=True, pad=0),
     "bad.fdda: conv2d layer 'conv1' upsamples only with kernel 3 and pad 1, "
     "got kernel 3, pad 0"),
    (lambda m: m["layers"][0].update(upsample="yes"),
     "bad.fdda: conv2d layer 'conv1' needs a boolean upsample, got 'yes'"),
], ids=["version-1", "conv-pad-not-below-kernel", "upsample-pad-0", "upsample-not-bool"])
def test_eval_of_unusable_archive_exits_2_with_one_line(pretrained, capsys, tmp_path, edit, match):
    root, cfg, model = pretrained
    bad = _rewrite_manifest(model, tmp_path / "bad.fdda", edit)
    rc = main(["eval", "--config", str(cfg), "--model", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("kind", ["float", "quantized"])
def test_eval_of_version_4_archive_exits_2_with_one_line(
        pretrained, quantized, capsys, tmp_path, kind):
    root, cfg, model = pretrained

    def as_version_4(m):
        m["version"] = 4
        for q in m.get("act_quant", []):
            q["bits"] = m["policy"]["default_bits"]

    bad = _rewrite_manifest(model if kind == "float" else quantized, tmp_path / "v4.fdda",
                            as_version_4)
    rc = main(["eval", "--config", str(cfg), "--model", str(bad)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "v4.fdda: format version 4, expected 5" in err
    assert len(err.strip().splitlines()) == 1 and out == ""


def test_config_with_bn_momentum_exits_2(pretrained, capsys, tmp_path):
    root, _, model = pretrained
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"bn_momentum": 0.1}}))
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown key(s) in 'train': bn_momentum" in err
    assert len(err.strip().splitlines()) == 1


def test_analyze_bns_csv_layer_out_of_range_exits_2(pretrained, capsys, tmp_path):
    root, cfg, model = pretrained
    rc = main(["analyze-bns", "--config", str(cfg), "--model", str(model),
               "--samples-per-class", "2", "--csv", str(tmp_path / "l7.csv"), "--layer", "7"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "layer 7 out of range 1..6" in err
    assert len(err.strip().splitlines()) == 1


def test_seeded_reports_are_byte_identical(pretrained):
    root, cfg, model = pretrained
    out_a, out_b = root / "rep_a", root / "rep_b"
    for out in (out_a, out_b):
        rc = main(["quantize", "--config", str(cfg), "--model", str(model),
                   "--out", str(out), "--seed", "7"])
        assert rc == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "quantized.fdda").read_bytes() == (out_b / "quantized.fdda").read_bytes()


@pytest.mark.parametrize("step", ["_generator_step", "_quantized_step"])
def test_diverged_run_exits_3_with_one_line_and_no_report(pretrained, capsys, monkeypatch, step):
    root, cfg, model = pretrained
    out_dir = root / f"diverged{step}"
    argv = ["quantize", "--config", str(cfg), "--model", str(model),
            "--out", str(out_dir), "--seed", "1"]
    assert main(argv) == 0  # outputs of an earlier run in the same directory
    assert (out_dir / "report.json").exists() and (out_dir / "quantized.fdda").exists()
    capsys.readouterr()
    monkeypatch.setattr(trainer, step, lambda *a: float("nan"))
    rc = main(argv)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "loss became nan" in err and "epoch 0, step 0" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out_dir / "report.json").exists()
    assert not (out_dir / "quantized.fdda").exists()


@pytest.mark.parametrize("flags", [["--epochs", "0"], ["--classes", "0"]],
                         ids=["no-epochs", "no-calibration"])
def test_teacher_table_not_built_without_calibration_steps(pretrained, monkeypatch, flags):
    root, cfg, model = pretrained

    def refuse(*args):
        raise AssertionError("teacher logits table built")

    monkeypatch.setattr(trainer, "_teacher_calib_logits", refuse)
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(root / f"table{flags[0]}{flags[1]}"), "--seed", "1"] + flags)
    assert rc == 0


def _config_with(tmp_path, base_cfg, **sections):
    raw = json.loads(base_cfg.read_text())
    for section, entries in sections.items():
        raw.setdefault(section, {}).update(entries)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("flags,sections", [
    (["--no-cbns", "--no-dbns"], {"weights": {"cbns": 0.0, "dbns": 0.0}}),
    (["--no-synthetic"], {"train": {"mix_ratio": 1.0}}),
], ids=["no-centroid-terms", "no-synthetic"])
def test_ablation_flag_equals_its_config_values(pretrained, tmp_path, flags, sections):
    root, cfg, model = pretrained
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert main(["quantize", "--config", str(cfg), "--model", str(model),
                 "--out", str(by_flag), "--seed", "1"] + flags) == 0
    assert main(["quantize", "--config", str(_config_with(tmp_path, cfg, **sections)),
                 "--model", str(model), "--out", str(by_config), "--seed", "1"]) == 0
    for name in ("report.json", "quantized.fdda"):
        assert (by_flag / name).read_bytes() == (by_config / name).read_bytes()


def test_calibration_only_config_builds_no_generator(pretrained, tmp_path, monkeypatch):
    root, cfg, model = pretrained

    def refuse(*args, **kwargs):
        raise AssertionError("generator built")

    monkeypatch.setattr(trainer, "build_generator", refuse)
    out_dir = tmp_path / "run"
    rc = main(["quantize", "--config", str(_config_with(tmp_path, cfg, train={"mix_ratio": 1.0})),
               "--model", str(model), "--out", str(out_dir), "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["warmup_loss_first"] is None and report["warmup_loss_last"] is None
    assert all(e["lossG"] is None for e in report["per_epoch"])


def test_no_data_run_exits_2_with_one_line_and_no_outputs(pretrained, capsys, tmp_path):
    root, cfg, model = pretrained
    out_dir = tmp_path / "run"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--classes", "0", "--no-synthetic"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no training data" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out_dir / "report.json").exists()
    assert not (out_dir / "quantized.fdda").exists()


@pytest.mark.parametrize("raw,match", [
    ({"use_cbns": False}, "unknown key(s) in the config: use_cbns"),
    ({"use_dbns": False}, "unknown key(s) in the config: use_dbns"),
    ({"use_synthetic": False}, "unknown key(s) in the config: use_synthetic"),
    ({"train": {"generator_schedule": "step"}}, "unknown key(s) in 'train': generator_schedule"),
    ({"train": {"quantized_schedule": "cosine"}}, "unknown key(s) in 'train': quantized_schedule"),
    ({"dataset": {"image_size": 5}}, "'dataset' key 'image_size' must be of type"),
    ({"classes": 5}, "the config key 'classes' must be of type"),
    ({"train": [1]}, "'train' must be an object"),
    ({"train": {"steps_per_epoch": 1.5}}, "'train' key 'steps_per_epoch' must be of type int"),
    ({"policy": {"default_bits": 2.5}}, "'policy' key 'default_bits' must be of type int"),
    ({"policy": {"default_bits": True}}, "'policy' key 'default_bits' must be of type int"),
    ({"dataset": {"samples_per_class": 1}}, "need at least two samples per class"),
], ids=["use_cbns", "use_dbns", "use_synthetic", "generator_schedule", "quantized_schedule",
        "image-size-not-a-list", "classes-not-a-list", "section-not-an-object",
        "float-steps", "float-bits", "bool-bits", "one-sample-per-class"])
def test_bad_config_exits_2_with_one_line(pretrained, capsys, tmp_path, raw, match):
    root, _, model = pretrained
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out_dir = tmp_path / "run"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model), "--out", str(out_dir),
               "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert len(err.strip().splitlines()) == 1
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("n", ["-1", "9"])
def test_classes_out_of_range_exits_2(pretrained, capsys, tmp_path, n):
    root, cfg, model = pretrained
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(tmp_path / "run"), "--classes", n])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--classes must lie in [0, 8], got {n}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("dataset", [
    {"num_classes": 100_000_000},
    {"samples_per_class": 10**9},
    {"image_size": [1, 65536, 65536]},
], ids=["classes", "samples-per-class", "image-size"])
def test_oversized_dataset_exits_2_before_building_it(capsys, tmp_path, monkeypatch, dataset):
    def build(spec):
        raise AssertionError("an oversized dataset was built")

    monkeypatch.setattr(trainer, "make_toy_dataset", build)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": dataset}))
    rc = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "f.fdda")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the limit of 67108864" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "f.fdda").exists()


def test_pretrain_trains_with_the_config_training_step(tmp_path):
    dataset = {"samples_per_class": 20}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": dataset,
                               "train": {"batch_size": 8, "steps_per_epoch": 2}}))
    rc = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "f.fdda"),
               "--epochs", "1"])
    assert rc == 0
    net = load_model(tmp_path / "f.fdda").network
    spec = ToyDatasetSpec(**dataset)
    configured, _ = trainer.pretrain_classifier(spec, epochs=1, steps_per_epoch=2, batch_size=8)
    default, _ = trainer.pretrain_classifier(spec, epochs=1)
    assert state_equal(net, configured) and not state_equal(net, default)


@pytest.mark.parametrize("command", ["pretrain", "quantize"])
@pytest.mark.parametrize("batch_size", [1025, 10**8])
def test_oversized_batch_exits_2_before_any_data_is_built(
        pretrained, capsys, tmp_path, monkeypatch, command, batch_size):
    root, _, model = pretrained

    def build(spec):
        raise AssertionError("data built for an oversized batch")

    monkeypatch.setattr(trainer, "make_toy_dataset", build)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"batch_size": batch_size}}))
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out)]
    rc = main([command] + argv + (["--model", str(model)] if command == "quantize" else []))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"batch_size {batch_size} exceeds the limit of 1024" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
