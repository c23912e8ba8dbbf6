"""Deterministic toy dataset (oriented gratings and blobs in [-1, 1]) and
calibration-set extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# class-pattern signal amplitude (std of the clean pattern); deliberately of
# the same order as a 4-bit input-quantization step so low-bit quantization
# visibly costs accuracy on noisy samples
PATTERN_STD = 0.12

# most float32 values the dataset's image array may hold (256 MiB); the
# default spec holds 204,800
MAX_IMAGE_VALUES = 2**26


@dataclass(frozen=True)
class ToyDatasetSpec:
    num_classes: int = 8
    image_size: tuple[int, int, int] = (1, 16, 16)
    samples_per_class: int = 100
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.samples_per_class < 2:
            raise ValueError("need at least two samples per class (one train, one test)")
        if len(self.image_size) != 3 or any(s <= 0 for s in self.image_size):
            raise ValueError(f"bad image size {self.image_size}")
        if any(s % 8 for s in self.image_size[1:]):  # the classifier pools by 2 three times
            raise ValueError(f"image height and width must be multiples of 8, got "
                             f"{list(self.image_size[1:])}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        values = self.num_classes * self.samples_per_class * math.prod(self.image_size)
        if values > MAX_IMAGE_VALUES:
            raise ValueError(f"dataset of {values} image values exceeds the limit of "
                             f"{MAX_IMAGE_VALUES}")


@dataclass(frozen=True)
class LabeledImages:
    images: np.ndarray  # (N, C, H, W) float32 in [-1, 1]
    labels: np.ndarray  # (N,) int64

    def __len__(self) -> int:
        return len(self.labels)


def class_pattern(c: int, image_size: tuple[int, int, int]) -> np.ndarray:
    """Deterministic base pattern for class c: even classes are oriented
    gratings, odd classes are off-center blobs. Every pattern is normalized
    to zero mean and matched energy so classes are not separable by
    first-order image statistics alone."""
    _, h, w = image_size
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ys = ys / (h - 1) - 0.5
    xs = xs / (w - 1) - 0.5
    if c % 2 == 0:
        k = c // 2
        theta = np.pi * k / 4.0
        freq = 2.0 + (k % 2)
        pat = np.sin(2 * np.pi * freq * (xs * np.cos(theta) + ys * np.sin(theta)))
    else:
        k = c // 2
        theta = np.pi * (2 * k + 1) / 4.0
        cx, cy = 0.25 * np.cos(theta), 0.25 * np.sin(theta)
        r2 = (xs - cx) ** 2 + (ys - cy) ** 2
        pat = np.exp(-r2 / 0.02) - np.exp(-((xs + cx) ** 2 + (ys + cy) ** 2) / 0.04)
    pat = pat - pat.mean()
    pat = pat / (pat.std() + 1e-12) * PATTERN_STD
    out = np.broadcast_to(pat, image_size).astype(np.float32)
    return np.clip(out, -0.95, 0.95)


def make_toy_dataset(spec: ToyDatasetSpec) -> tuple[LabeledImages, LabeledImages]:
    """Build labelled train/test tensors with an 80/20 per-class index split."""
    rng = np.random.default_rng(spec.seed)
    patterns = [class_pattern(c, spec.image_size) for c in range(spec.num_classes)]
    train_x, train_y, test_x, test_y = [], [], [], []
    n_train = int(spec.samples_per_class * 0.8)
    for c, pat in enumerate(patterns):
        noise = rng.normal(0.0, spec.noise_std,
                           size=(spec.samples_per_class,) + spec.image_size)
        samples = np.clip(pat[None] + noise.astype(np.float32), -1.0, 1.0)
        train_x.append(samples[:n_train])
        test_x.append(samples[n_train:])
        train_y.append(np.full(n_train, c, dtype=np.int64))
        test_y.append(np.full(spec.samples_per_class - n_train, c, dtype=np.int64))
    return (LabeledImages(np.concatenate(train_x), np.concatenate(train_y)),
            LabeledImages(np.concatenate(test_x), np.concatenate(test_y)))


def extract_calibration(train: LabeledImages, num_classes: int) -> LabeledImages:
    """The calibration set: the first-indexed sample of each class
    0..num_classes-1, in class order."""
    rows = np.array([np.nonzero(train.labels == c)[0][0] for c in range(num_classes)],
                    dtype=np.int64)
    return LabeledImages(train.images[rows], train.labels[rows])
