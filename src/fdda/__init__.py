"""Desk-scale post-training quantization toolkit: a small full-precision
classifier, BN-statistics-aligned synthetic data from a conditional
generator, and low-bit fine-tuning through a straight-through estimator."""

from .autodiff import Tensor, backward, no_grad
from .bns import (
    BnStats,
    ClassCentroids,
    DistortionParams,
    alignment_loss,
    collect_running_stats,
    deep_layer_start,
    per_image_bns,
)
from .config import RunSettings, TrainConfig
from .generator import LossWeights, generate, generator_total_loss
from .network import Network, forward
from .quantizer import QuantParams, QuantPolicy, fake_quantize_ste
from .trainer import cosine_lr, evaluate, run_fdda, step_lr

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "no_grad",
    "BnStats", "ClassCentroids", "DistortionParams",
    "alignment_loss", "collect_running_stats", "deep_layer_start", "per_image_bns",
    "RunSettings", "TrainConfig",
    "LossWeights", "generate", "generator_total_loss",
    "Network", "forward",
    "QuantParams", "QuantPolicy", "fake_quantize_ste",
    "cosine_lr", "evaluate", "run_fdda", "step_lr",
    "__version__",
]
