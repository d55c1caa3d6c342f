"""Benchmark metrics for saliency/camouflage masks: MAE, F, E, S.

Predictions are continuous maps in [0, 1]; ground truths are binary.
All arithmetic is float64 with epsilon 1e-8 in denominators.

F and E score the binary maps ``pred >= t``, at one adaptive threshold or
averaged over the 255 uniform ones ``(k + 0.5) / 255``.  At the adaptive
threshold two ``count_nonzero`` calls give TP and the pixels reached, hence
FP.  On the grid neither rescans the map per threshold: one pass bins every
pixel by the number of thresholds it reaches, and cumulative sums of two
histograms, of all bins and of the foreground's, give the TP and FP counts at
every threshold, as PySODMetrics does
(https://github.com/lartpang/PySODMetrics).
A pixel's bin is arithmetic: ``floor(255 p + 0.5)`` is never more than one
off, and one comparison each way against the thresholds themselves makes it
exact, so a pixel on a threshold reaches it, as ``pred >= t`` has it; each
correction touches only the pixels it moves.  F follows from the counts
directly.  On a binary map the enhanced-alignment term of E (Fan et al.,
arXiv:1805.10421) takes one value per (prediction, truth) pixel class, so E is
the count-weighted mean of four values.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .data import read_mask
from .tensor import DsuError

EPS = 1e-8
BETA2 = 0.3   # F-measure's beta^2, the standard SOD/COD protocol

# 255 uniform binarization thresholds spanning (0, 1)
_THRESHOLDS = (np.arange(255) + 0.5) / 255.0


class MetricError(DsuError, ValueError):
    pass


class UndefinedMetric(MetricError):
    """The metric is undefined for this ground truth (e.g. no foreground)."""


def _check(pred, gt):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricError(f"dimension mismatch: pred {pred.shape} vs gt {gt.shape}")
    return pred, gt


def mae(pred, gt):
    pred, gt = _check(pred, gt)
    return float(np.abs(pred - gt).mean())


# Threshold k is bin k's upper edge and bin k+1's lower one; bin 0 is open
# below and bin 255 above.
_UPPER = np.append(_THRESHOLDS, np.inf)
_LOWER = np.append(-np.inf, _THRESHOLDS)


def _grid_bins(pred):
    """How many of the 255 thresholds in `_THRESHOLDS` each pixel reaches.

    Clamping sends NaN to -1 (a NaN reaches no threshold) and keeps 255 p
    finite.  The rounded guess is off by at most one, near a threshold, and
    the two corrections compare against the very floats of `_THRESHOLDS`, so
    the bins are exact; each touches only the pixels it moves.
    """
    c = np.fmin(np.fmax(pred, -1.0), 2.0)
    k = np.clip(np.floor(c * 255.0 + 0.5), 0.0, 255.0).astype(np.intp)
    k[c >= _UPPER[k]] += 1
    k[c < _LOWER[k]] -= 1
    return k


def _adaptive_counts(pred, gt_fg):
    """TP and FP at the one threshold min(2 mean, 1)."""
    reached = pred >= min(2.0 * float(pred.mean()), 1.0)
    tp = np.count_nonzero(reached & gt_fg)
    return np.array([[tp], [np.count_nonzero(reached) - tp]], dtype=np.float64)


def _grid_counts(pred, gt_fg):
    """TP and FP at each of the 255 thresholds: the pixels that reach
    threshold k are those in bins k+1 and up."""
    k = _grid_bins(pred)
    hist = np.stack((np.bincount(k[gt_fg], minlength=256),
                     np.bincount(k, minlength=256)))
    reached = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1].astype(np.float64)
    return reached[0], reached[1] - reached[0]


_COUNTS = {"adaptive": _adaptive_counts, "mean_thresholds": _grid_counts}


def _confusion_counts(pred, gt_fg, policy):
    """TP and FP of the binary map `pred >= t` at each of a policy's thresholds."""
    if policy not in _COUNTS:
        raise MetricError(f"unknown policy {policy!r}")
    return _COUNTS[policy](pred.ravel(), gt_fg.ravel())


def f_measure(pred, gt, policy="adaptive"):
    pred, gt = _check(pred, gt)
    gt_fg = gt >= 0.5
    n_fg = float(np.count_nonzero(gt_fg))
    if n_fg == 0.0:
        raise UndefinedMetric("F-measure undefined for empty-foreground ground truth")
    tp, fp = _confusion_counts(pred, gt_fg, policy)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / (tp + fp)
        recall = tp / n_fg
        f = (1 + BETA2) * precision * recall / (BETA2 * precision + recall)
    return float(np.mean(np.where(tp > 0.0, f, 0.0)))


def _enhanced(c, g, mean_c, mean_g):
    """Enhanced-alignment value of a pixel with binary prediction c and truth g."""
    phi_c = c - mean_c
    phi_g = g - mean_g
    xi = 2.0 * phi_c * phi_g / (phi_c**2 + phi_g**2 + EPS)
    return (xi + 1.0) ** 2 / 4.0


def e_measure(pred, gt, policy="adaptive"):
    pred, gt = _check(pred, gt)
    gt_fg = gt >= 0.5
    n = float(gt_fg.size)
    n_fg = float(np.count_nonzero(gt_fg))
    tp, fp = _confusion_counts(pred, gt_fg, policy)
    if n_fg == 0.0:
        scores = (n - fp) / n       # enhanced = 1 - c
    elif n_fg == n:
        scores = tp / n             # enhanced = c
    else:
        # on a binary map the enhanced term takes one value per (c, g) pair
        fn = n_fg - tp
        tn = n - n_fg - fp
        mean_c = (tp + fp) / n
        mean_g = n_fg / n
        scores = (tp * _enhanced(1.0, 1.0, mean_c, mean_g)
                  + fp * _enhanced(1.0, 0.0, mean_c, mean_g)
                  + fn * _enhanced(0.0, 1.0, mean_c, mean_g)
                  + tn * _enhanced(0.0, 0.0, mean_c, mean_g)) / n
    return float(np.mean(scores))


def _object_score(values):
    """2*mean / (mean^2 + 1 + std) for the compared values."""
    x = values.mean()
    sigma = values.std()
    return 2.0 * x / (x * x + 1.0 + sigma + EPS)


def _region_q(x, y):
    """Structural similarity of one quadrant; 1 when degenerate on both sides."""
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    dy = y - ym
    sx = (dx * dx).mean()
    sy = (dy * dy).mean()
    sxy = (dx * dy).mean()
    num = 4.0 * xm * ym * sxy
    den = (xm * xm + ym * ym) * (sx + sy)
    if num == 0.0 and den == 0.0:
        return 1.0
    return num / (den + EPS)


def s_measure(pred, gt):
    pred, gt = _check(pred, gt)
    if not np.isfinite(pred).all():
        raise MetricError("S-measure needs a finite prediction map; "
                          "it holds NaN or inf")
    fg = gt >= 0.5
    gt_bin = fg.astype(np.float64)
    mu = gt_bin.mean()
    if mu == 0.0:
        return max(0.0, 1.0 - float(pred.mean()))
    if mu == 1.0:
        return max(0.0, float(pred.mean()))

    s_object = mu * _object_score(pred[fg]) + (1.0 - mu) * _object_score(
        1.0 - pred[~fg])

    # the index sums are exact integers, so this is the mean foreground index
    h, w = gt_bin.shape
    n_fg = np.count_nonzero(fg)
    cy = int(round(np.arange(h) @ np.count_nonzero(fg, axis=1) / n_fg))
    cx = int(round(np.arange(w) @ np.count_nonzero(fg, axis=0) / n_fg))
    area = h * w
    s_region = 0.0
    for rs, cs in ((slice(0, cy), slice(0, cx)), (slice(0, cy), slice(cx, w)),
                   (slice(cy, h), slice(0, cx)), (slice(cy, h), slice(cx, w))):
        gq = gt_bin[rs, cs]
        if gq.size == 0:
            continue
        s_region += (gq.size / area) * _region_q(pred[rs, cs].ravel(), gq.ravel())

    return max(0.0, 0.5 * s_object + 0.5 * s_region)


# column -> score(pred, gt).  Each entry looks its scorer up in the module when
# it runs and passes the policy by keyword, for a wrapper set there later.
_SCORERS = {
    "S": lambda pred, gt: s_measure(pred, gt),
    "Fadp": lambda pred, gt: f_measure(pred, gt, policy="adaptive"),
    "Fmean": lambda pred, gt: f_measure(pred, gt, policy="mean_thresholds"),
    "Eadp": lambda pred, gt: e_measure(pred, gt, policy="adaptive"),
    "Emean": lambda pred, gt: e_measure(pred, gt, policy="mean_thresholds"),
    "MAE": lambda pred, gt: mae(pred, gt),
}
_COLUMNS = tuple(_SCORERS)


@dataclass
class MetricReport:
    rows: list = field(default_factory=list)        # (stem, {metric: value})
    means: dict = field(default_factory=dict)
    n_images: int = 0
    skipped: list = field(default_factory=list)     # stems missing a counterpart
    undefined: list = field(default_factory=list)   # stems with undefined F
    failures: list = field(default_factory=list)    # (stem, error message)

    def ok(self):
        return not self.failures


def compute_report(pairs):
    """Score (stem, pred, gt) triples in one pass over `pairs`, keeping only
    each pair's row; the rows are then sorted by stem, stably, and the means
    and the stems with an undefined score are read off them."""
    rows = []
    for stem, pred, gt in pairs:
        row = {}
        for col, score in _SCORERS.items():
            try:
                row[col] = score(pred, gt)
            except UndefinedMetric:
                row[col] = None
        rows.append((stem, row))
    rows.sort(key=lambda r: r[0])
    report = MetricReport(rows=rows, n_images=len(rows), undefined=list(dict.fromkeys(
        stem for stem, row in rows if None in row.values())))
    for c in _COLUMNS:
        # a left fold in row order: sum() compensates its rounding from Python 3.12
        values = [row[c] for _, row in rows if row[c] is not None]
        report.means[c] = reduce(add, values, 0.0) / len(values) if values else float("nan")
    return report


def evaluate_dataset(pred_dir, gt_dir):
    """Pair .pgm files in two directories by stem and score them one pair at a
    time; a pair the readers reject (DsuError, OSError) is a failure row."""

    def stems(d):
        return {os.path.splitext(f)[0]: os.path.join(d, f)
                for f in os.listdir(d) if f.endswith(".pgm")}

    preds = stems(pred_dir)
    gts = stems(gt_dir)
    common = sorted(set(preds) & set(gts))
    if not common:
        raise MetricError(f"no common stems between {pred_dir!r} and {gt_dir!r}")
    failures = []

    def read_pairs():
        for stem in common:
            try:
                pred = read_mask(preds[stem])
                gt = read_mask(gts[stem], binarize=True)
                if pred.shape != gt.shape:
                    raise MetricError(f"dimension mismatch: {pred.shape} vs {gt.shape}")
            except (DsuError, OSError) as exc:
                failures.append((stem, str(exc)))
            else:
                yield stem, pred, gt

    report = compute_report(read_pairs())
    report.skipped = sorted(set(preds) ^ set(gts))
    report.failures = failures
    return report


def report_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["image"] + list(_COLUMNS))
    for stem, row in report.rows:
        writer.writerow([stem] + [("" if row[c] is None else f"{row[c]:.6f}")
                                  for c in _COLUMNS])
    writer.writerow(["mean"] + [f"{report.means[c]:.6f}" for c in _COLUMNS])
    return buf.getvalue()


def report_table(report):
    header = f"{'image':<24}" + "".join(f"{c:>10}" for c in _COLUMNS)
    lines = [header, "-" * len(header)]
    for stem, row in report.rows:
        cells = "".join(
            f"{row[c]:>10.4f}" if row[c] is not None else f"{'--':>10}"
            for c in _COLUMNS)
        lines.append(f"{stem:<24}" + cells)
    lines.append("-" * len(header))
    lines.append(f"{'mean':<24}"
                 + "".join(f"{report.means[c]:>10.4f}" for c in _COLUMNS))
    if report.skipped:
        lines.append(f"skipped (unpaired): {', '.join(report.skipped)}")
    if report.undefined:
        lines.append(f"undefined F (empty gt): {', '.join(report.undefined)}")
    for stem, msg in report.failures:
        lines.append(f"FAILED {stem}: {msg}")
    return "\n".join(lines) + "\n"
