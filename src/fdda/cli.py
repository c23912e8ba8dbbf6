"""Command-line driver: pretrain the toy classifier, run the quantization
pipeline, inspect per-layer BN-statistics clustering, evaluate archives."""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .archive import ArchiveError, ModelArchive, load_model, save_model
from .bns import per_image_bns
from .clusters import export_bns_csv, mean_silhouette_per_layer
from .config import ConfigError, RunSettings, load_settings
from .data import LabeledImages, make_toy_dataset
from .models import toy_classifier_meta
from .trainer import TrainingDiverged, evaluate, pretrain_classifier, run_fdda


# glibc's malloc.h parameters, and the value both are set to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_THRESHOLD = 256 << 20


def _keep_heap() -> None:
    """Make glibc keep freed memory in the process's heap: no trimming of the
    heap top below 256 MiB free, and no mmap for blocks below 256 MiB.

    A training step allocates and frees tens of MB of arrays. With glibc's
    defaults, which adapt to the largest block freed, the heap top can be
    handed back to the kernel inside a step and its pages fault back in on
    the next one, as often as the placement of long-lived arrays decides.
    Without glibc, or where the C library has no ``mallopt``, this does
    nothing."""
    try:
        libc = ctypes.CDLL(None)  # the symbols already loaded, libc's among them
    except (OSError, TypeError):  # a platform that cannot open the running program
        return
    if not hasattr(libc, "gnu_get_libc_version") or not hasattr(libc, "mallopt"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument("--seed", dest="train.seed", type=int, metavar="SEED",
                   help="root random seed")


def _settings(args: argparse.Namespace) -> RunSettings:
    """The config file's settings under the flags given, each flag whose
    ``dest`` is a config key (dotted for a key of a section) overriding that
    key. The flags are applied in turn, so a refusal names the first flag
    that the settings cannot take, with its value: ``--classes 9: ...``."""
    keys = {f.name for f in dataclasses.fields(RunSettings)}
    overrides = {dest: value for dest, value in vars(args).items()
                 if dest.split(".")[0] in keys and value is not None}
    settings, applied = load_settings(args.config), {}
    for dest, value in overrides.items():
        applied[dest] = value
        try:
            settings = load_settings(args.config, applied)
        except ConfigError as exc:
            action = args.flags[dest]
            flag = action.option_strings[0] + ("" if action.nargs == 0 else f" {value}")
            raise ConfigError(f"{flag}: {exc.__cause__ or exc}") from None
    return settings


def _classifier(args, settings: RunSettings) -> tuple[ModelArchive, LabeledImages, LabeledImages]:
    """The archive of ``--model`` and the splits of the config's dataset,
    which must be the one the archive classifies."""
    archive, spec = load_model(args.model), settings.dataset
    meta = archive.network.meta
    if meta != toy_classifier_meta(spec.num_classes, spec.image_size):
        raise ConfigError(f"{args.model} classifies {meta['num_classes']} classes of "
                          f"{meta['input_shape']} images, but the config's dataset has "
                          f"{spec.num_classes} classes of {list(spec.image_size)} images")
    return (archive, *make_toy_dataset(spec))


def cmd_pretrain(args) -> int:
    settings = _settings(args)
    cfg = settings.train
    net, report = pretrain_classifier(
        settings.dataset, epochs=args.epochs, steps_per_epoch=cfg.steps_per_epoch,
        batch_size=cfg.batch_size, seed=cfg.seed,
    )
    save_model(args.out, net)
    print(json.dumps({"out": str(args.out), **report}))
    return 0


def cmd_quantize(args) -> int:
    out_dir = Path(args.out)
    model_path, report_path = out_dir / "quantized.fdda", out_dir / "report.json"
    # a run that fails, even one refused before it starts, must not leave an
    # earlier run's outputs behind; a refused run creates no --out directory
    model_path.unlink(missing_ok=True)
    report_path.unlink(missing_ok=True)
    settings = _settings(args)
    pretrained, train, test = _classifier(args, settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    quantized, report = run_fdda(settings, pretrained.network, train, test)
    save_model(model_path, quantized)
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(json.dumps({
        "report": str(report_path),
        "final_acc": report["final_acc"],
        "float_test_acc": report["float_test_acc"],
    }))
    return 0


def cmd_analyze_bns(args) -> int:
    if args.samples_per_class < 2:
        raise ConfigError(f"--samples-per-class must be at least 2, got {args.samples_per_class}")
    settings = _settings(args)
    archive, train, _ = _classifier(args, settings)
    net = archive.network
    if not 1 <= args.layer <= net.bn_layer_count:
        raise ConfigError(f"--layer {args.layer} out of range 1..{net.bn_layer_count}")

    rng = np.random.default_rng([settings.train.seed, 7])
    per_class = args.samples_per_class
    picks = []
    for c in range(settings.dataset.num_classes):
        idx = np.nonzero(train.labels == c)[0]
        picks.append(idx if len(idx) <= per_class
                     else rng.choice(idx, size=per_class, replace=False))
    picks = np.concatenate(picks)
    stats, labels = per_image_bns(net, train.images[picks])[0], train.labels[picks]

    sc_mean = mean_silhouette_per_layer(stats.means, labels)
    sc_var = mean_silhouette_per_layer(stats.variances, labels)
    print("layer  sc_mean   sc_variance")
    for layer in range(1, stats.layer_count + 1):
        print(f"{layer:5d}  {sc_mean[layer - 1]: .5f}  {sc_var[layer - 1]: .5f}")
    if args.csv is not None:
        export_bns_csv(stats, labels, args.layer, args.csv)
        print(f"wrote layer {args.layer} statistics to {args.csv}")
    return 0


def cmd_eval(args) -> int:
    settings = _settings(args)
    archive, _, test = _classifier(args, settings)
    acc = evaluate(archive.network, test, quant=archive.quant)
    print(json.dumps({"accuracy": acc, "quantized": archive.quant is not None}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdda",
        description="Toy-scale post-training quantization with BN-statistics-aligned synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train the full-precision toy classifier")
    _add_common(p)
    p.add_argument("--out", type=Path, required=True, help="output archive path")
    p.add_argument("--epochs", type=int, default=20)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("quantize", help="quantize and fine-tune a pretrained archive")
    _add_common(p)
    p.add_argument("--model", type=Path, required=True, help="pretrained classifier archive")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--wbits", dest="policy.default_bits", type=int, metavar="WBITS",
                   help="default weight bit-width")
    p.add_argument("--abits", dest="policy.act_bits", type=int, metavar="ABITS",
                   help="activation bit-width")
    p.add_argument("--first-bits", dest="policy.first_layer_bits", type=int, metavar="FIRST_BITS")
    p.add_argument("--last-bits", dest="policy.last_layer_bits", type=int, metavar="LAST_BITS")
    p.add_argument("--epochs", dest="train.total_epochs", type=int, metavar="EPOCHS",
                   help="override total epochs")
    p.add_argument("--warmup", dest="train.warmup_epochs", type=int, metavar="WARMUP",
                   help="override warm-up epochs")
    p.add_argument("--steps", dest="train.steps_per_epoch", type=int, metavar="STEPS",
                   help="override steps per epoch")
    p.add_argument("--no-cbns", dest="weights.cbns", action="store_const", const=0.0,
                   help="no centroid alignment (sets weights.cbns to 0)")
    p.add_argument("--no-dbns", dest="weights.dbns", action="store_const", const=0.0,
                   help="no distorted-centroid alignment (sets weights.dbns to 0)")
    p.add_argument("--no-synthetic", dest="train.mix_ratio", action="store_const", const=1.0,
                   help="fine-tune on calibration data only (sets train.mix_ratio to 1)")
    p.add_argument("--classes", type=int, metavar="N",
                   help="calibrate on the first N classes (sets classes)")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("analyze-bns", help="per-layer silhouette of per-image BN statistics")
    _add_common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int, default=20)
    p.add_argument("--csv", type=Path, default=None, help="export one layer's raw statistics")
    p.add_argument("--layer", type=int, default=1, help="layer to export with --csv")
    p.set_defaults(func=cmd_analyze_bns)

    p = sub.add_parser("eval", help="accuracy of an archived model on the toy test set")
    _add_common(p)
    p.add_argument("--model", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    for p in sub.choices.values():  # each flag's action by dest, to name it in errors
        p.set_defaults(flags={a.dest: a for a in p._actions})
    return parser


def main(argv=None) -> int:
    _keep_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArchiveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
