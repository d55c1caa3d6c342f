"""Pixel-weighted BCE + IoU losses and the weighted multi-level total.

Each decoder output contributes L = L_bce + L_iou; the total is the
weighted sum over the three outputs.  Pixel weights emphasize boundaries:
w = 1 + 5 * |boxmean31(gt) - gt|.  Both terms use the weight map; set
``pixel_weighted_loss = false`` for the uniform-weight variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, _accumulate, _make, logistic


def _box_mean(gt, kernel, pad):
    """Window mean with zero padding counted in the denominator."""
    h, w = gt.shape
    padded = np.pad(gt.astype(np.float64), pad)
    integral = np.zeros((h + 2 * pad + 1, w + 2 * pad + 1))
    integral[1:, 1:] = padded.cumsum(0).cumsum(1)
    k = kernel
    sums = (integral[k:, k:] - integral[:-k, k:] - integral[k:, :-k]
            + integral[:-k, :-k])
    return sums / (k * k)


def pixel_weight_map(gt):
    """Boundary-emphasizing weights, 1 x H x W, valued in [1, 6]."""
    gt = np.asarray(gt, dtype=np.float64)
    pooled = _box_mean(gt, 31, 15)
    w = 1.0 + 5.0 * np.abs(pooled - gt)
    return w[None].astype(np.float32)


def _check_pair(logits, gt, w):
    if logits.data.shape != gt.shape or gt.shape != w.shape:
        raise ShapeError(
            f"loss shape mismatch: logits {logits.data.shape}, gt {gt.shape}, "
            f"weights {w.shape}")


def weighted_bce(logits, gt, w):
    """Weighted binary cross-entropy on logits, numerically stable.

    Sum(w * bce(sigmoid(z), g)) / Sum(w) with the logit-space form
    max(z, 0) - z*g + log(1 + exp(-|z|)).
    """
    _check_pair(logits, gt, w)
    z = logits.data.astype(np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("weighted_bce: non-finite logits")
    g64 = np.asarray(gt, dtype=np.float64)
    w64 = np.asarray(w, dtype=np.float64)
    per_pixel = np.maximum(z, 0.0) - z * g64 + np.log1p(np.exp(-np.abs(z)))
    wsum = w64.sum()
    loss = (w64 * per_pixel).sum() / wsum

    def backward(gout):
        p = logistic(z)
        dz = w64 * (p - g64) / wsum
        _accumulate(logits, (float(gout) * dz).astype(logits.dtype))

    return _make(np.asarray(loss, dtype=logits.dtype), (logits,), backward)


def weighted_iou(logits, gt, w):
    """Weighted soft IoU loss with +1 smoothing.

    p = sigmoid(z); loss = 1 - (inter + 1) / (union - inter + 1).
    """
    _check_pair(logits, gt, w)
    z = logits.data.astype(np.float64)
    g64 = np.asarray(gt, dtype=np.float64)
    w64 = np.asarray(w, dtype=np.float64)
    p = logistic(z)
    inter = (w64 * p * g64).sum()
    union = (w64 * (p + g64)).sum()
    a = inter + 1.0
    b = union - inter + 1.0
    loss = 1.0 - a / b

    def backward(gout):
        # d/dp of 1 - a/b with da/dp = w*g, db/dp = w*(1-g)
        dp = (a * w64 * (1.0 - g64) - b * w64 * g64) / (b * b)
        dz = dp * p * (1.0 - p)
        _accumulate(logits, (float(gout) * dz).astype(logits.dtype))

    return _make(np.asarray(loss, dtype=logits.dtype), (logits,), backward)


@dataclass
class LossBreakdown:
    """Per-level (bce, iou, level) values and the weighted total."""

    bce: tuple[float, float, float]
    iou: tuple[float, float, float]
    levels: tuple[float, float, float]
    total: float


def total_loss(outputs, gt, config):
    """Weighted multi-level loss over the three decoder outputs.

    ``gt`` is the H x W ground-truth mask.  Returns the differentiable scalar
    tensor and a float breakdown.
    """
    gt = np.asarray(gt, dtype=np.float32)
    if gt.ndim != 2:
        raise ShapeError(f"total_loss expects an H x W mask, got shape {gt.shape}")
    gt2 = gt[None]
    w = pixel_weight_map(gt) if config.pixel_weighted_loss else np.ones_like(gt2)
    weights = config.loss_weights
    bces, ious, levels = [], [], []
    total = None
    for lw, logits in zip(weights, outputs.levels()):
        lb = weighted_bce(logits, gt2, w)
        li = weighted_iou(logits, gt2, w)
        level = lb + li
        bces.append(float(lb.data))
        ious.append(float(li.data))
        levels.append(float(level.data))
        term = level * lw
        total = term if total is None else total + term
    breakdown = LossBreakdown(tuple(bces), tuple(ious), tuple(levels),
                              float(total.data))
    return total, breakdown
