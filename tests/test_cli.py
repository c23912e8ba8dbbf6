"""CLI surface: subcommands run end to end on tiny configs, flags override
config, and validation failures exit nonzero with a one-line diagnostic."""

import argparse
import dataclasses
import json
import re
import struct
import typing
from pathlib import Path

import pytest

from fdda import bns, cli, trainer
from fdda.archive import load_model
from fdda.cli import main
from fdda.config import RunSettings
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


class _Libc:
    """A C library that records its ``mallopt`` calls; ``names`` are the
    functions it has."""

    def __init__(self, names):
        self.names, self.calls = names, []

    def __getattr__(self, name):
        if name not in self.names:
            raise AttributeError(name)
        return lambda *args: self.calls.append((name, args)) or 1


@pytest.mark.parametrize("names,calls", [
    (("gnu_get_libc_version", "mallopt"),
     [("mallopt", (-1, 256 << 20)), ("mallopt", (-3, 256 << 20))]),
    (("gnu_get_libc_version",), []),  # a glibc without mallopt
    (("mallopt",), []),  # another C library: glibc's parameter numbers mean nothing there
], ids=["glibc", "no-mallopt", "not-glibc"])
def test_allocator_is_set_only_through_glibcs_mallopt(pretrained, capsys, monkeypatch,
                                                      names, calls):
    root, cfg, model = pretrained
    args = ["eval", "--config", str(cfg), "--model", str(model)]
    assert main(args) == 0
    expected = capsys.readouterr()
    libc = _Libc(names)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert main(args) == 0
    assert capsys.readouterr() == expected
    assert libc.calls == calls


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


def test_quantize_classes_flag(pretrained):
    root, cfg, model = pretrained
    out_dir = root / "run_classes"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--classes", "5", "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["available_classes"] == [0, 1, 2, 3, 4]


def test_quantize_rejects_the_removed_predict_labels_flag(pretrained, capsys):
    root, cfg, model = pretrained
    with pytest.raises(SystemExit) as exc:
        main(["quantize", "--config", str(cfg), "--model", str(model),
              "--out", str(root / "run_pred"), "--predict-labels"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --predict-labels" in capsys.readouterr().err


def test_quantize_policy_flags(pretrained):
    root, cfg, model = pretrained
    out_dir = root / "run_bits"
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(out_dir), "--wbits", "8", "--abits", "8",
               "--first-bits", "8", "--last-bits", "8", "--seed", "1"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["policy"]["default_bits"] == 8
    assert report["config"]["policy"]["act_bits"] == 8


def _refused(capsys, argv, code, fragment, absent=()):
    """Run ``main(argv)`` and check the contract of a refused input: exit
    ``code``, nothing on stdout, one stderr line that starts with ``error: ``
    and contains ``fragment``, and no path of ``absent`` on disk. Returns
    that line, without its newline."""
    capsys.readouterr()
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out, err.count("\n")) == (code, "", 1), (rc, out, err)
    assert err.startswith("error: ") and err.endswith("\n") and fragment in err, err
    assert [p for p in absent if Path(p).exists()] == []
    return err[:-1]


def test_validation_failure_exits_nonzero(pretrained, capsys):
    root, cfg, model = pretrained
    _refused(capsys, ["quantize", "--config", str(cfg), "--model", str(model),
                      "--out", str(root / "bad"), "--wbits", "11"],
             2, "default_bits must be an integer in [2, 8], got 11", absent=[root / "bad"])


def test_missing_model_exits_nonzero(tiny_cfg, capsys, tmp_path):
    root, cfg = tiny_cfg
    _refused(capsys, ["eval", "--config", str(cfg), "--model", str(root / "missing.fdda")],
             1, "missing.fdda")
    out_dir = tmp_path / "run"
    _refused(capsys, ["quantize", "--config", str(cfg), "--model", str(root / "missing.fdda"),
                      "--out", str(out_dir)], 1, "missing.fdda", absent=[out_dir])


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
    bad = tmp_path / "bad.fdda"
    bad.write_bytes(model.read_bytes() + bytes(4))  # one float more than the graph reads
    _refused(capsys, ["eval", "--config", str(cfg), "--model", str(bad)],
             2, "bad.fdda: payload of 130116 bytes, expected 130112")


def test_eval_of_archive_with_bad_policy_exits_2_with_one_line(pretrained, capsys, tmp_path):
    root, cfg, model = pretrained
    bad = _rewrite_manifest(model, tmp_path / "bad.fdda",
                            lambda m: m.update(policy={"default_bits": 4, "bogus": 1}, act_quant=[]))
    line = _refused(capsys, ["eval", "--config", str(cfg), "--model", str(bad)],
                    2, "bad quantizers")
    assert "'bogus'" in line


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
    assert set(manifest) == {"version", "meta", "policy", "act_quant"}


@pytest.mark.parametrize("missing", ["act_quant", "policy"])
def test_eval_of_archive_with_one_quantizer_key_exits_2_with_one_line(
        pretrained, quantized, capsys, tmp_path, missing):
    root, cfg, model = pretrained
    bad = _rewrite_manifest(quantized, tmp_path / "bad.fdda", lambda m: m.pop(missing))
    _refused(capsys, ["eval", "--config", str(cfg), "--model", str(bad)],
             2, f"bad quantizers (no '{missing}' key)")


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


@pytest.mark.parametrize("edit,match", [
    (lambda m: m.update(version=1), "format version 1, expected 7"),
    (lambda m: m.update(version=6, arrays=[{"name": "param:conv1.w", "shape": [8, 1, 3, 3],
                                            "offset": 0, "nbytes": 288}]),
     "format version 6, expected 7"),
    (lambda m: m["meta"].update(input_shape=[16, 16]),
     "bad.fdda: bad meta: num_classes 8, input_shape [16, 16] (bad image size (16, 16))"),
    (lambda m: m["meta"].update(num_classes=9),
     "bad.fdda: payload of 130112 bytes, expected 130372 for the classifier of its meta"),
    (lambda m: m.update(arrays=[{"name": "param:conv1.w", "shape": [8, 1, 3, 3],
                                 "offset": 0, "nbytes": 288}]),
     "bad.fdda: unknown manifest key(s) ['arrays']"),
    (lambda m: m.update(layers=[]), "bad.fdda: unknown manifest key(s) ['layers']"),
    (lambda m: m["meta"].update(kind="generator"),
     "bad.fdda: bad meta: keys ['input_shape', 'kind', 'num_classes'], kind 'generator'"),
    (lambda m: m["meta"].update(note="x"),
     "bad.fdda: bad meta: keys ['input_shape', 'kind', 'note', 'num_classes'], kind 'classifier'"),
], ids=["version-1", "version-6", "two-extent-shape", "other-num-classes", "stray-arrays",
        "stray-layers", "generator-kind", "extra-meta-key"])
def test_eval_of_unusable_archive_exits_2_with_one_line(pretrained, capsys, tmp_path, edit, match):
    root, cfg, model = pretrained
    bad = _rewrite_manifest(model, tmp_path / "bad.fdda", edit)
    _refused(capsys, ["eval", "--config", str(cfg), "--model", str(bad)], 2, match)


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
    _refused(capsys, ["eval", "--config", str(cfg), "--model", str(bad)],
             2, "v4.fdda: format version 4, expected 7")


def test_config_with_bn_momentum_exits_2(pretrained, capsys, tmp_path):
    root, _, model = pretrained
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"bn_momentum": 0.1}}))
    _refused(capsys, ["quantize", "--config", str(cfg), "--model", str(model),
                      "--out", str(tmp_path / "run")],
             2, "unknown key(s) in 'train': bn_momentum", absent=[tmp_path / "run"])


def test_analyze_bns_csv_layer_out_of_range_exits_2(pretrained, capsys, tmp_path):
    # checked against the loaded network before the per-image pass, so no
    # silhouette table of a failed command reaches stdout
    root, cfg, model = pretrained
    _refused(capsys, ["analyze-bns", "--config", str(cfg), "--model", str(model),
                      "--samples-per-class", "2", "--csv", str(tmp_path / "l7.csv"),
                      "--layer", "7"],
             2, "--layer 7 out of range 1..6", absent=[tmp_path / "l7.csv"])


@pytest.mark.parametrize("layer", ["0", "7"])
def test_analyze_bns_layer_out_of_range_exits_2_without_csv(pretrained, capsys, layer):
    root, cfg, model = pretrained
    _refused(capsys, ["analyze-bns", "--config", str(cfg), "--model", str(model),
                      "--samples-per-class", "2", "--layer", layer],
             2, f"--layer {layer} out of range 1..6")


@pytest.mark.parametrize("n", ["-1", "0", "1"])
def test_analyze_bns_too_few_samples_per_class_exits_2(tiny_cfg, capsys, tmp_path, n):
    # one image per class has silhouette 0 by definition; the archive named
    # here does not exist, so the flag is checked before the model loads
    _, cfg = tiny_cfg
    _refused(capsys, ["analyze-bns", "--config", str(cfg), "--model", str(tmp_path / "none.fdda"),
                      "--samples-per-class", n],
             2, f"--samples-per-class must be at least 2, got {n}")


def test_seeded_reports_are_byte_identical(pretrained):
    root, cfg, model = pretrained
    out_a, out_b = root / "rep_a", root / "rep_b"
    for out in (out_a, out_b):
        rc = main(["quantize", "--config", str(cfg), "--model", str(model),
                   "--out", str(out), "--seed", "7"])
        assert rc == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "quantized.fdda").read_bytes() == (out_b / "quantized.fdda").read_bytes()


@pytest.mark.parametrize("step,nan", [
    ("_generator_step", (float("nan"), {}, None)),  # the loss, its terms and the batch
    ("_quantized_step", (float("nan"), {})),  # the loss and its terms
], ids=["_generator_step", "_quantized_step"])
def test_diverged_run_exits_3_with_one_line_and_no_report(pretrained, capsys, monkeypatch,
                                                          step, nan):
    root, cfg, model = pretrained
    out_dir = root / f"diverged{step}"
    argv = ["quantize", "--config", str(cfg), "--model", str(model),
            "--out", str(out_dir), "--seed", "1"]
    assert main(argv) == 0  # outputs of an earlier run in the same directory
    assert (out_dir / "report.json").exists() and (out_dir / "quantized.fdda").exists()
    monkeypatch.setattr(trainer, step, lambda *a: nan)
    line = _refused(capsys, argv, 3, "loss became nan",
                    absent=[out_dir / "report.json", out_dir / "quantized.fdda"])
    assert "epoch 0, step 0" in line


@pytest.mark.parametrize("flags,sections,match", [
    (["--classes", "9"], {}, "classes must lie in [0, 8], got 9"),
    ([], {"train": {"steps_per_epoch": 0}}, "steps_per_epoch and batch_size must be positive"),
], ids=["classes-out-of-range", "invalid-config"])
def test_refused_run_exits_2_and_leaves_no_earlier_outputs(pretrained, capsys, tmp_path,
                                                           flags, sections, match):
    root, cfg, model = pretrained
    out_dir = tmp_path / "q"
    assert main(["quantize", "--config", str(cfg), "--model", str(model),
                 "--out", str(out_dir), "--seed", "1"]) == 0
    assert (out_dir / "report.json").exists() and (out_dir / "quantized.fdda").exists()
    _refused(capsys, ["quantize", "--config", str(_config_with(tmp_path, cfg, **sections)),
                      "--model", str(model), "--out", str(out_dir), "--seed", "1"] + flags,
             2, match, absent=[out_dir / "report.json", out_dir / "quantized.fdda"])


@pytest.mark.parametrize("flags,passes", [(["--epochs", "0"], [8]), (["--classes", "0"], [])],
                         ids=["no-epochs", "no-calibration"])
def test_teacher_table_not_built_without_calibration_steps(pretrained, monkeypatch, flags, passes):
    # with no step to read the table, the teacher's one calibration pass is
    # the centroids' pass over the 8 images, not a pass of batch_size rows
    root, cfg, model = pretrained
    seen, fwd = [], bns.forward

    def spy_forward(net, x, *args, **kw):
        seen.append(x.shape[0])
        return fwd(net, x, *args, **kw)

    monkeypatch.setattr(bns, "forward", spy_forward)
    rc = main(["quantize", "--config", str(cfg), "--model", str(model),
               "--out", str(root / f"table{flags[0]}{flags[1]}"), "--seed", "1"] + flags)
    assert rc == 0
    assert seen == passes


@pytest.mark.parametrize("flags,sections", [
    (["--warmup", "0", "--epochs", "2", "--steps", "3", "--no-synthetic"], {}),
    (["--warmup", "1", "--epochs", "1", "--steps", "2"], {"policy": {"default_bits": 8}}),
], ids=["calibration-only", "full"])
def test_diverging_student_exits_3_with_one_line_and_no_report(pretrained, capsys, tmp_path,
                                                               flags, sections):
    # a finite loss whose update leaves the student's weights near 1e28: the
    # next step's arithmetic overflows, and no numpy warning reaches stderr
    root, cfg, model = pretrained
    cfg = _config_with(tmp_path, cfg, train={"lr_quantized": 1e30}, **sections)
    out_dir = tmp_path / "q"
    line = _refused(capsys, ["quantize", "--config", str(cfg), "--model", str(model),
                             "--out", str(out_dir), "--seed", "1"] + flags,
                    3, "overflow encountered",
                    absent=[out_dir / "report.json", out_dir / "quantized.fdda"])
    assert line == ("error: quantized-model step: overflow encountered in multiply at "
                    "training epoch 0, step 1")


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
    _refused(capsys, ["quantize", "--config", str(cfg), "--model", str(model),
                      "--out", str(out_dir), "--classes", "0", "--no-synthetic"],
             2, "no training data", absent=[out_dir])


def test_refused_flag_is_named_and_a_refused_config_is_not(pretrained, capsys, tmp_path):
    # the first flag the config cannot take is named, with no value for a
    # flag that takes none; a config refused on its own names no flag
    root, cfg, model = pretrained
    argv = ["quantize", "--model", str(model), "--out", str(tmp_path / "run"), "--seed", "1"]
    raw = json.loads(cfg.read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "classes": 0}))
    line = _refused(capsys, argv + ["--config", str(path), "--no-synthetic"], 2, "no training data")
    assert line.startswith("error: --no-synthetic: no training data: ")
    path.write_text(json.dumps({**raw, "classes": 9}))
    line = _refused(capsys, argv + ["--config", str(path), "--wbits", "3"], 2, "got 9")
    assert line == "error: invalid value in the config: classes must lie in [0, 8], got 9"


@pytest.mark.parametrize("dataset,config_shape", [
    ({"num_classes": 4}, "4 classes of [1, 16, 16]"),
    ({"num_classes": 10}, "10 classes of [1, 16, 16]"),
    ({"image_size": [1, 32, 32]}, "8 classes of [1, 32, 32]"),
], ids=["4-classes", "10-classes", "32x32-images"])
@pytest.mark.parametrize("command", ["quantize", "eval", "analyze-bns"])
def test_config_dataset_other_than_the_archives_exits_2_with_one_line_and_no_outputs(
        pretrained, capsys, tmp_path, command, dataset, config_shape):
    root, cfg, model = pretrained
    out_dir = tmp_path / "run"
    argv = [command, "--config", str(_config_with(tmp_path, cfg, dataset=dataset)),
            "--model", str(model)]
    if command == "quantize":
        fresh = tmp_path / "fresh"
        _refused(capsys, argv + ["--out", str(fresh)], 2, "classifies 8 classes", absent=[fresh])
        argv += ["--out", str(out_dir)]
        # an earlier run's outputs in the same directory
        assert main(["quantize", "--config", str(cfg), "--model", str(model),
                     "--out", str(out_dir), "--seed", "1"]) == 0
    line = _refused(capsys, argv, 2, "classifies 8 classes",
                    absent=[out_dir / "report.json", out_dir / "quantized.fdda"])
    assert line == (f"error: {model} classifies 8 classes of [1, 16, 16] images, but the "
                    f"config's dataset has {config_shape} images")


@pytest.mark.parametrize("raw,match", [
    ({"use_cbns": False}, "unknown key(s) in the config: use_cbns"),
    ({"use_dbns": False}, "unknown key(s) in the config: use_dbns"),
    ({"use_synthetic": False}, "unknown key(s) in the config: use_synthetic"),
    ({"train": {"generator_schedule": "step"}}, "unknown key(s) in 'train': generator_schedule"),
    ({"train": {"quantized_schedule": "cosine"}}, "unknown key(s) in 'train': quantized_schedule"),
    ({"dataset": {"image_size": 5}}, "'dataset' key 'image_size' must be of type"),
    ({"classes": [0, 1]}, "the config key 'classes' must be of type int | None, got [0, 1]"),
    ({"classes": [2, 0, 0]}, "the config key 'classes' must be of type int | None, got [2, 0, 0]"),
    ({"classes": [0, 0, 2]}, "the config key 'classes' must be of type int | None, got [0, 0, 2]"),
    ({"classes": [2, 0]}, "the config key 'classes' must be of type int | None, got [2, 0]"),
    ({"train": [1]}, "'train' must be an object"),
    ({"train": {"steps_per_epoch": 1.5}}, "'train' key 'steps_per_epoch' must be of type int"),
    ({"policy": {"default_bits": 2.5}}, "'policy' key 'default_bits' must be of type int"),
    ({"policy": {"default_bits": True}}, "'policy' key 'default_bits' must be of type int"),
    ({"dataset": {"samples_per_class": 1}}, "need at least two samples per class"),
    ({"predict_labels": True}, "unknown key(s) in the config: predict_labels"),
    ({"classes": 9}, "invalid value in the config: classes must lie in [0, 8], got 9"),
    ({"classes": -1}, "invalid value in the config: classes must lie in [0, 8], got -1"),
    ({"classes": 0, "train": {"mix_ratio": 1}}, "invalid value in the config: no training data"),
    ({"train": {"seed": -1}}, "invalid value in 'train': seed must be >= 0, got -1"),
    ({"dataset": {"seed": -1}}, "invalid value in 'dataset': seed must be >= 0, got -1"),
    ({"train": {"momentum": 0.9}}, "unknown key(s) in 'train': momentum"),
    ({"train": {"weight_decay": 0.0}}, "unknown key(s) in 'train': weight_decay"),
], ids=["use_cbns", "use_dbns", "use_synthetic", "generator_schedule", "quantized_schedule",
        "image-size-not-a-list", "classes-not-a-list", "classes-unsorted-repeated",
        "classes-repeated", "classes-unsorted", "section-not-an-object",
        "float-steps", "float-bits", "bool-bits", "one-sample-per-class", "predict_labels",
        "classes-too-many", "classes-negative", "classes-no-data", "negative-train-seed",
        "negative-dataset-seed", "momentum", "weight-decay"])
def test_bad_config_exits_2_with_one_line(pretrained, capsys, tmp_path, raw, match):
    root, _, model = pretrained
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out_dir = tmp_path / "run"
    _refused(capsys, ["quantize", "--config", str(cfg), "--model", str(model),
                      "--out", str(out_dir)],
             2, match, absent=[out_dir])


@pytest.mark.parametrize("command", ["pretrain", "quantize"])
def test_negative_seed_exits_2_before_any_output(pretrained, capsys, tmp_path, command):
    root, cfg, model = pretrained
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]
    _refused(capsys, argv + (["--model", str(model)] if command == "quantize" else []),
             2, "--seed -1: seed must be >= 0, got -1", absent=[out])


@pytest.mark.parametrize("n", ["-1", "9"])
def test_classes_out_of_range_exits_2(pretrained, capsys, tmp_path, n):
    root, cfg, model = pretrained
    _refused(capsys, ["quantize", "--config", str(cfg), "--model", str(model),
                      "--out", str(tmp_path / "run"), "--classes", n],
             2, f"error: --classes {n}: classes must lie in [0, 8], got {n}",
             absent=[tmp_path / "run"])


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
    _refused(capsys, ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "f.fdda")],
             2, "exceeds the limit of 67108864", absent=[tmp_path / "f.fdda"])


@pytest.mark.parametrize("size", [[1, 4, 4], [1, 12, 12]], ids=["4x4", "12x12"])
def test_unpoolable_image_size_exits_2_before_building_the_dataset(capsys, tmp_path,
                                                                   monkeypatch, size):
    # the classifier halves height and width three times
    def build(spec):
        raise AssertionError("a dataset the classifier cannot pool was built")

    monkeypatch.setattr(trainer, "make_toy_dataset", build)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"image_size": size}}))
    line = _refused(capsys, ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "f.fdda")],
                    2, "multiples of 8", absent=[tmp_path / "f.fdda"])
    assert line == ("error: invalid value in 'dataset': image height and width must be "
                    f"multiples of 8, got {size[1:]}")


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


def test_pretrain_negative_epochs_exits_2_with_one_line(capsys, tmp_path):
    out = tmp_path / "f.fdda"
    _refused(capsys, ["pretrain", "--out", str(out), "--epochs", "-1"],
             2, "epochs must be >= 0, got -1", absent=[out])


@pytest.mark.parametrize("command", ["pretrain", "quantize"])
@pytest.mark.parametrize("batch_size", [1025, 10**8])
def test_oversized_batch_exits_2_before_any_data_is_built(
        pretrained, capsys, tmp_path, monkeypatch, command, batch_size):
    root, _, model = pretrained

    def build(spec):
        raise AssertionError("data built for an oversized batch")

    for module in (trainer, cli):  # pretrain's and quantize's builders
        monkeypatch.setattr(module, "make_toy_dataset", build)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"batch_size": batch_size}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    _refused(capsys, argv + (["--model", str(model)] if command == "quantize" else []),
             2, f"batch_size {batch_size} exceeds the limit of 1024", absent=[out])


ARMS = {"full": [], "zero-shot": ["--classes", "0"], "bns-only": ["--no-cbns", "--no-dbns"],
        "calibration-only": ["--no-synthetic"]}


@pytest.fixture(scope="module")
def arm_reports(pretrained):
    root, cfg, model = pretrained
    reports = {}
    for arm, flags in ARMS.items():
        out = root / f"terms_{arm}"
        assert main(["quantize", "--config", str(cfg), "--model", str(model),
                     "--out", str(out), "--seed", "2", *flags]) == 0
        reports[arm] = json.loads((out / "report.json").read_text())
    return reports


@pytest.mark.parametrize("arm", list(ARMS))
def test_report_term_means_add_up_to_the_epoch_losses(arm_reports, arm):
    report = arm_reports[arm]
    w = report["config"]["weights"]
    for entry in report["per_epoch"]:
        q = entry["lossQ_terms"]
        assert q["ce"] + w["kd"] * q["kd"] == pytest.approx(entry["lossQ"], rel=1e-5)
        g = entry["lossG_terms"]
        if entry["lossG"] is None:
            assert g == {}
        else:
            assert sum(w[k] * v for k, v in g.items()) == pytest.approx(entry["lossG"], rel=1e-5)


@pytest.mark.parametrize("arm,terms", [
    ("full", {"ce", "bns", "cbns", "dbns"}),
    ("zero-shot", {"ce", "bns"}),  # no class has a centroid
    ("bns-only", {"ce", "bns"}),  # both centroid terms weighted 0
    ("calibration-only", set()),  # no generator
])
def test_report_terms_no_step_computed_are_absent(arm_reports, arm, terms):
    for entry in arm_reports[arm]["per_epoch"]:
        assert set(entry["lossG_terms"]) == terms
        assert set(entry["lossQ_terms"]) == {"ce", "kd"}


def test_readme_names_every_report_key(arm_reports):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("`report.json` holds", 1)[1].split("\n\n")[0]
    report = arm_reports["full"]
    keys = set(report) | set(report["per_epoch"][0])
    assert len(keys) >= 12
    assert sorted(k for k in keys if f"`{k}`" not in paragraph) == []


def test_readme_quantize_flags_are_accepted_by_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("`quantize` exposes the experiment arms:", 1)[1].split("\n\n")[1]
    documented = {flag for row in table.splitlines() if row.startswith("| `--")
                  for flag in re.findall(r"--[a-z][a-z-]*", row.split("|")[1])}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = set(subparsers.choices["quantize"]._option_string_actions)
    assert len(documented) >= 8
    assert documented - accepted == set()


def test_every_dotted_flag_dest_names_a_config_field():
    # a flag whose dest is dotted overrides the config key of that name, so a
    # typo in a dest must fail here rather than in a user's run
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    sections = typing.get_type_hints(RunSettings)
    dests = [(command, action.dest) for command, sub in subparsers.choices.items()
             for action in sub._actions if "." in action.dest]
    # --seed on every subcommand, and quantize's seven numeric and three arm flags
    assert len(dests) == len(subparsers.choices) + 10
    for command, dest in dests:
        section, key = dest.split(".")
        assert dataclasses.is_dataclass(sections.get(section)), (command, dest)
        assert key in {f.name for f in dataclasses.fields(sections[section])}, (command, dest)
