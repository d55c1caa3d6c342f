"""Dual-encoder U-shaped segmentation network, desk-scale reference build."""

from .blocks import DSUNet
from .config import PROFILES, ModelConfig, RunConfig
from .estimator import DSUNetEstimator
from .tensor import ConvSpec, DsuError, Tensor, grad_check

__all__ = [
    "ConvSpec",
    "DSUNet",
    "DSUNetEstimator",
    "DsuError",
    "ModelConfig",
    "PROFILES",
    "RunConfig",
    "Tensor",
    "grad_check",
]

__version__ = "0.1.0"
