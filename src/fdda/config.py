"""Run configuration: training hyper-parameters, loss weights, quantization
policy, dataset spec and calibration choices. Stored as a JSON file; every
CLI flag overrides its config entry."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .bns import DistortionParams
from .data import ToyDatasetSpec
from .generator import LossWeights
from .quantizer import QuantPolicy


class ConfigError(ValueError):
    """Invalid configuration; the message is a one-line diagnostic."""


# most rows in one training batch; a full-arm quantize at 1024 rows peaks near
# 0.41 GB of resident memory (one BLAS thread)
MAX_BATCH_SIZE = 1024


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and learning rates of the alternating training loop.

    The committed defaults are desk-scale; the large-scale reference settings
    (50 warm-up epochs, 350 training epochs, generator lr 1e-3, quantized lr
    1e-6) remain expressible through the config file. The optimizers' other
    settings are constants of :mod:`fdda.optim`. ``mix_ratio`` is the share
    of calibration rows in each quantized-model batch: 1 fine-tunes on
    calibration images only and trains no generator.
    """

    warmup_epochs: int = 10
    total_epochs: int = 60
    steps_per_epoch: int = 25
    batch_size: int = 64
    lr_generator: float = 1e-3
    lr_quantized: float = 1e-4
    mix_ratio: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.warmup_epochs < 0 or self.total_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.steps_per_epoch <= 0 or self.batch_size <= 0:
            raise ConfigError("steps_per_epoch and batch_size must be positive")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ConfigError(f"batch_size {self.batch_size} exceeds the limit of {MAX_BATCH_SIZE}")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ConfigError("mix_ratio must lie in [0, 1]")
        if self.lr_generator < 0 or self.lr_quantized < 0:
            raise ConfigError("learning rates must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunSettings:
    """Everything a quantization run needs besides the pretrained model."""

    dataset: ToyDatasetSpec = field(default_factory=ToyDatasetSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    distortion: DistortionParams = field(default_factory=DistortionParams)
    policy: QuantPolicy = field(default_factory=QuantPolicy)
    # the calibration set is the first training image of each of the first
    # ``classes`` classes; None = every class
    classes: int | None = None

    def __post_init__(self):
        num_classes = self.dataset.num_classes
        if self.classes is not None and not 0 <= self.classes <= num_classes:
            raise ConfigError(f"classes must lie in [0, {num_classes}], got {self.classes}")
        self.batch_split()

    def batch_split(self) -> tuple[int, int]:
        """Calibration and synthetic rows of every quantized-model batch:
        round(mix_ratio * batch_size) calibration rows when there are
        calibration images, none otherwise, and the rest synthetic. Raises
        ConfigError when that leaves a batch with no data source."""
        cfg = self.train
        n_cal = int(round(cfg.mix_ratio * cfg.batch_size))
        if self.classes == 0:
            if n_cal == cfg.batch_size:
                raise ConfigError(f"no training data: no calibration images, and mix_ratio "
                                  f"{cfg.mix_ratio} leaves no synthetic rows in a batch of "
                                  f"{cfg.batch_size}")
            n_cal = 0
        return n_cal, cfg.batch_size - n_cal

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fits(value, hint) -> bool:
    """Whether a JSON value has a field's type. An integer field takes only
    JSON integers (no bools, no floats); a float field takes finite numbers."""
    if hint is int:
        return type(value) is int
    if hint is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    if hint is type(None):
        return value is None
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_fits, value, args)))
    return any(_fits(value, a) for a in args)  # a union


def _build(cls, raw, where: str):
    """An instance of dataclass ``cls`` from a JSON object, checking names,
    types and values; nested dataclass fields are sections of their own."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls) if f.init}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, value in raw.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _build(hint, value, f"'{key}'")
        elif _fits(value, hint):
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        else:
            kind = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{where} key {key!r} must be of type {kind}, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid value in {where}: {exc}") from exc


def settings_from_dict(raw: dict) -> RunSettings:
    """Build RunSettings from a nested dict, validating field names/values."""
    return _build(RunSettings, raw, "the config")


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
            if not isinstance(node, dict):
                raise ConfigError(f"'{p}' must be an object, got {node!r}")
        node[leaf] = value
    return settings_from_dict(raw)
