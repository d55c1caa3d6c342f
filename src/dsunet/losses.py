"""The multi-level training loss, as one op.

Each decoder output contributes L = L_bce + L_iou, F3Net's pixel-weighted
BCE and soft IoU; the total is the level-weighted sum of the three.  Pixel
weights emphasize boundaries in both terms: w = 1 + 5 * |boxmean31(gt) - gt|.
Besides the scalar, :func:`total_loss` returns the values as one row in the
order of :data:`ROW`: per level its BCE, IoU and their sum, then the total.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, _accumulate, _make, logistic

ROW = tuple(f"{term}{k}" for k in (1, 2, 3)
            for term in ("bce", "iou", "level")) + ("total",)


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


def total_loss(outputs, gt, config):
    """Weighted multi-level loss over the three decoder outputs.

    ``outputs`` holds the logit maps (d1, d2, d3) and ``gt`` is the H x W
    ground-truth mask.  Per level, with z the logits in
    float64, p = sigmoid(z) and g = gt:

    - BCE = Sum(w * (max(z, 0) - z*g + log(1 + exp(-|z|)))) / Sum(w), the
      numerically stable logit-space form;
    - IoU = 1 - (inter + 1) / (union - inter + 1), with inter = Sum(w*p*g)
      and union = Sum(w*(p + g)).

    BCE and IoU are rounded to the logits' dtype, then summed, scaled by the
    level weight and added to the running total in that dtype.  Returns the
    differentiable scalar and the float64 row of values in :data:`ROW` order.
    """
    gt = np.asarray(gt, dtype=np.float32)
    if gt.ndim != 2:
        raise ShapeError(f"total_loss expects an H x W mask, got shape {gt.shape}")
    g = gt[None].astype(np.float64)
    w = pixel_weight_map(gt).astype(np.float64)
    wsum = w.sum()
    levels = tuple(outputs)
    dtype = levels[0].dtype.type
    row, saved, total = [], [], None
    for lw, logits in zip(config.loss_weights, levels):
        if logits.shape != g.shape:
            raise ShapeError(f"loss shape mismatch: logits {logits.shape}, "
                             f"gt {g.shape}")
        z = logits.data.astype(np.float64)
        p = logistic(z)
        per_pixel = np.maximum(z, 0.0) - z * g + np.log1p(np.exp(-np.abs(z)))
        bce = (w * per_pixel).sum() / wsum
        inter = (w * p * g).sum()
        a = inter + 1.0
        b = (w * (p + g)).sum() - inter + 1.0
        bce, iou = dtype(bce), dtype(1.0 - a / b)
        level = bce + iou
        term = level * dtype(lw)
        total = term if total is None else total + term
        row += [bce, iou, level]
        saved.append((p, a, b))

    def backward(gout):
        for lw, logits, (p, a, b) in zip(config.loss_weights, levels, saved):
            scale = float(gout * dtype(lw))
            _accumulate(logits, (scale * (w * (p - g) / wsum)).astype(logits.dtype))
            # d/dp of 1 - a/b with da/dp = w*g, db/dp = w*(1-g)
            dp = (a * w * (1.0 - g) - b * w * g) / (b * b)
            _accumulate(logits, (scale * (dp * p * (1.0 - p))).astype(logits.dtype))

    row.append(total)
    return _make(np.asarray(total), levels, backward), np.array(row, dtype=np.float64)
