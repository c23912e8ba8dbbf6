"""Command-line driver: pretrain the toy classifier, run the quantization
pipeline, inspect per-layer BN-statistics clustering, evaluate archives."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .archive import ArchiveError, load_model, save_model
from .bns import per_image_bns
from .clusters import LabeledBnsDataset, export_bns_csv, mean_silhouette_per_layer
from .config import ConfigError, load_settings
from .data import make_toy_dataset
from .quantizer import FakeQuantRuntime
from .trainer import evaluate, pretrain_classifier, run_fdda


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="root random seed")


def _collect_overrides(args: argparse.Namespace, mapping: dict[str, str]) -> dict:
    overrides = {}
    for attr, dotted in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[dotted] = value
    return overrides


def cmd_pretrain(args) -> int:
    overrides = _collect_overrides(args, {"seed": "train.seed"})
    settings = load_settings(args.config, overrides)
    seed = settings.train.seed
    net, report = pretrain_classifier(
        settings.dataset, epochs=args.epochs, seed=seed,
    )
    save_model(args.out, net)
    print(json.dumps({"out": str(args.out), **report}))
    return 0


def cmd_quantize(args) -> int:
    overrides = _collect_overrides(args, {
        "seed": "train.seed",
        "wbits": "policy.default_bits",
        "abits": "policy.act_bits",
        "first_bits": "policy.first_layer_bits",
        "last_bits": "policy.last_layer_bits",
        "epochs": "train.total_epochs",
        "warmup": "train.warmup_epochs",
        "steps": "train.steps_per_epoch",
    })
    if args.no_cbns:
        overrides["use_cbns"] = False
    if args.no_dbns:
        overrides["use_dbns"] = False
    if args.no_synthetic:
        overrides["use_synthetic"] = False
    if args.predict_labels:
        overrides["predict_labels"] = True
    if args.classes is not None:
        overrides["classes"] = list(range(args.classes))
    settings = load_settings(args.config, overrides)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, report = run_fdda(settings, args.model, out_model_path=out_dir / "quantized.fdda")
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "report": str(report_path),
        "final_acc": report["final_acc"],
        "best_epoch": report["best_epoch"],
        "float_test_acc": report["float_test_acc"],
    }))
    return 0


def cmd_analyze_bns(args) -> int:
    overrides = _collect_overrides(args, {"seed": "train.seed"})
    settings = load_settings(args.config, overrides)
    net = load_model(args.model).network
    net.set_requires_grad(False)
    train, _ = make_toy_dataset(settings.dataset)

    rng = np.random.default_rng([settings.train.seed, 7])
    per_class = args.samples_per_class
    picks = []
    for c in range(settings.dataset.num_classes):
        idx = np.nonzero(train.labels == c)[0]
        picks.append(idx if len(idx) <= per_class
                     else rng.choice(idx, size=per_class, replace=False))
    picks = np.concatenate(picks)
    ds = LabeledBnsDataset(per_image_bns(net, train.images[picks]), train.labels[picks])

    sc_mean = mean_silhouette_per_layer(ds, "mean")
    sc_var = mean_silhouette_per_layer(ds, "variance")
    print("layer  sc_mean   sc_variance")
    for layer in range(1, ds.layer_count + 1):
        print(f"{layer:5d}  {sc_mean[layer - 1]: .5f}  {sc_var[layer - 1]: .5f}")
    if args.csv is not None:
        export_bns_csv(ds, args.layer, args.csv)
        print(f"wrote layer {args.layer} statistics to {args.csv}")
    return 0


def cmd_eval(args) -> int:
    overrides = _collect_overrides(args, {"seed": "train.seed"})
    settings = load_settings(args.config, overrides)
    archive = load_model(args.model)
    archive.network.set_requires_grad(False)
    _, test = make_toy_dataset(settings.dataset)
    quant = None
    if archive.policy is not None:
        quant = FakeQuantRuntime(archive.policy, archive.act_quant)
    acc = evaluate(archive.network, test, quant=quant)
    print(json.dumps({"accuracy": acc, "quantized": quant is not None}))
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
    p.add_argument("--wbits", type=int, default=None, help="default weight bit-width")
    p.add_argument("--abits", type=int, default=None, help="activation bit-width")
    p.add_argument("--first-bits", dest="first_bits", type=int, default=None)
    p.add_argument("--last-bits", dest="last_bits", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="override total epochs")
    p.add_argument("--warmup", type=int, default=None, help="override warm-up epochs")
    p.add_argument("--steps", type=int, default=None, help="override steps per epoch")
    p.add_argument("--no-cbns", action="store_true", help="disable centroid alignment")
    p.add_argument("--no-dbns", action="store_true", help="disable distorted-centroid alignment")
    p.add_argument("--no-synthetic", action="store_true", help="fine-tune on calibration data only")
    p.add_argument("--predict-labels", action="store_true",
                   help="replace calibration labels with the classifier's predictions")
    p.add_argument("--classes", type=int, default=None,
                   help="restrict calibration to the first N classes")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArchiveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
