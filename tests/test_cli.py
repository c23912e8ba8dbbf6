"""CLI surface: subcommands run end to end on tiny configs, flags override
config, and validation failures exit nonzero with a one-line diagnostic."""

import json
import struct

import pytest

from fdda.cli import main


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
    assert report["config"]["use_cbns"] is False
    assert report["config"]["use_dbns"] is False


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
                            lambda m: m.update(policy={"default_bits": 4, "bogus": 1}))
    rc = main(["eval", "--config", str(cfg), "--model", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad policy section" in err
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
