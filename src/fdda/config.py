"""Run configuration: training hyper-parameters, loss weights, quantization
policy, dataset spec, and ablation switches. Stored as a JSON file; every CLI
flag overrides its config entry."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .bns import DistortionParams
from .data import ToyDatasetSpec
from .generator import LossWeights
from .quantizer import QuantPolicy


class ConfigError(ValueError):
    """Invalid configuration; the message is a one-line diagnostic."""


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and optimizer settings for the alternating training loop.

    The committed defaults are desk-scale; the large-scale reference settings
    (50 warm-up epochs, 350 training epochs, generator lr 1e-3, quantized lr
    1e-6) remain expressible through the config file.
    """

    warmup_epochs: int = 10
    total_epochs: int = 60
    steps_per_epoch: int = 25
    batch_size: int = 64
    lr_generator: float = 1e-3
    lr_quantized: float = 1e-4
    generator_schedule: str = "step"
    quantized_schedule: str = "cosine"
    weight_decay: float = 1e-4
    momentum: float = 0.9
    mix_ratio: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.generator_schedule not in ("step", "cosine"):
            raise ConfigError(f"unknown generator_schedule {self.generator_schedule!r}")
        if self.quantized_schedule not in ("step", "cosine"):
            raise ConfigError(f"unknown quantized_schedule {self.quantized_schedule!r}")
        if self.warmup_epochs < 0 or self.total_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.steps_per_epoch <= 0 or self.batch_size <= 0:
            raise ConfigError("steps_per_epoch and batch_size must be positive")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ConfigError("mix_ratio must lie in [0, 1]")
        if self.lr_generator < 0 or self.lr_quantized < 0 or self.weight_decay < 0:
            raise ConfigError("learning rates and weight decay must be >= 0")


@dataclass(frozen=True)
class RunSettings:
    """Everything a quantization run needs besides the pretrained model."""

    dataset: ToyDatasetSpec = field(default_factory=ToyDatasetSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    distortion: DistortionParams = field(default_factory=DistortionParams)
    policy: QuantPolicy = field(default_factory=QuantPolicy)
    use_synthetic: bool = True
    use_cbns: bool = True
    use_dbns: bool = True
    predict_labels: bool = False
    classes: tuple[int, ...] | None = None  # None = all classes

    def to_dict(self) -> dict:
        def enc(obj):
            if dataclasses.is_dataclass(obj):
                out = {}
                for f in dataclasses.fields(obj):
                    if f.init:
                        out[f.name] = enc(getattr(obj, f.name))
                return out
            if isinstance(obj, tuple):
                return list(obj)
            return obj

        return enc(self)


_SECTIONS = {
    "dataset": ToyDatasetSpec,
    "train": TrainConfig,
    "weights": LossWeights,
    "distortion": DistortionParams,
    "policy": QuantPolicy,
}
_TUPLE_FIELDS = {("dataset", "image_size")}


def settings_from_dict(raw: dict) -> RunSettings:
    """Build RunSettings from a nested dict, validating field names/values."""
    kwargs: dict = {}
    for section, cls in _SECTIONS.items():
        entries = dict(raw.get(section, {}))
        names = {f.name for f in dataclasses.fields(cls) if f.init}
        unknown = set(entries) - names
        if unknown:
            raise ConfigError(f"unknown key(s) in '{section}': {', '.join(sorted(unknown))}")
        for key in list(entries):
            if (section, key) in _TUPLE_FIELDS and entries[key] is not None:
                entries[key] = tuple(entries[key])
        try:
            kwargs[section] = cls(**entries)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad '{section}' config: {exc}") from exc

    flat = {k: v for k, v in raw.items() if k not in _SECTIONS}
    allowed = {"use_synthetic", "use_cbns", "use_dbns", "predict_labels", "classes"}
    unknown = set(flat) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    if "classes" in flat and flat["classes"] is not None:
        flat["classes"] = tuple(int(c) for c in flat["classes"])
    return RunSettings(**kwargs, **flat)


def load_settings(path=None, overrides: dict | None = None) -> RunSettings:
    """Load JSON config (optional) and apply nested overrides on top."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top-level config must be an object")
    for dotted, value in (overrides or {}).items():
        node = raw
        *parents, leaf = dotted.split(".")
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = value
    return settings_from_dict(raw)
