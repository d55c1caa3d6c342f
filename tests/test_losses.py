import hashlib
import re
import warnings

import numpy as np
import pytest

from dsunet.config import ModelConfig
from dsunet.losses import ROW, pixel_weight_map, total_loss
from dsunet.tensor import ShapeError, Tensor, cast_all, grad_check


def brute_force_weight_map(gt):
    """Direct double-loop window mean, zero pad counted in the denominator."""
    h, w = gt.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-15, 16):
                for dj in range(-15, 16):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += gt[ii, jj]
            out[i, j] = acc / (31 * 31)
    return 1.0 + 5.0 * np.abs(out - gt)


class TestPixelWeightMap:
    def test_constant_mask_gives_near_uniform_interior(self):
        gt = np.ones((64, 64), dtype=np.float32)
        w = pixel_weight_map(gt)[0]
        # far from the border the window mean equals the mask value
        assert w[32, 32] == pytest.approx(1.0, abs=1e-6)
        # near the border zero padding pulls the mean down, raising the weight
        assert w[0, 0] > 3.0

    def test_range(self):
        rng = np.random.default_rng(0)
        gt = (rng.random((40, 40)) > 0.5).astype(np.float32)
        w = pixel_weight_map(gt)
        assert w.shape == (1, 40, 40)
        assert np.all(w >= 1.0) and np.all(w <= 6.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        gt = (rng.random((20, 20)) > 0.5).astype(np.float64)
        got = pixel_weight_map(gt)[0]
        want = brute_force_weight_map(gt)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_edge_pixels_weighted_up(self):
        gt = np.zeros((96, 96), dtype=np.float32)
        gt[20:60, 20:60] = 1.0
        w = pixel_weight_map(gt)[0]
        assert w[20, 40] > w[40, 40]  # boundary beats object interior
        assert w[20, 40] > w[75, 40]  # boundary beats far background
        assert w[40, 40] == pytest.approx(1.0, abs=1e-6)


_BCE1, _IOU1 = ROW.index("bce1"), ROW.index("iou1")
# the level-1 weight: a power of two, so scaling by it is exact
_W1 = ModelConfig.loss_weights[0]


def _level1(z, gt):
    """total_loss with logits ``z`` (H x W, float64) at level 1 and zeros
    below; level 1's gradient share is ``_W1`` times its row's derivative.
    Returns (total, row, level-1 logits)."""
    cfg = ModelConfig(profile="toy", seed=0)
    d1 = Tensor(np.asarray(z, dtype=np.float64)[None], requires_grad=True)
    rest = [Tensor(np.zeros_like(d1.data)) for _ in range(2)]
    total, row = total_loss((d1, *rest), gt, cfg)
    return total, row, d1


def _weights(gt):
    return pixel_weight_map(gt)[0].astype(np.float64)


def _central_diff(f, z, step=1e-6):
    """Central finite differences of the scalar ``f(z)`` at each entry of z."""
    out = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp, zm = z.copy(), z.copy()
        zp[idx] += step
        zm[idx] -= step
        out[idx] = (f(zp) - f(zm)) / (2 * step)
    return out


def _random_case(seed, n=6):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n))
    gt = np.zeros((n, n))
    gt[1 : n - 2, 2 : n - 1] = 1.0
    return z, gt


class TestWeightedBCE:
    """The bce1 column of total_loss's row, and its share of the gradient."""

    def test_zero_logits_give_log_two(self):
        _, row, _ = _level1(np.zeros((4, 4)), np.zeros((4, 4)))
        assert row[_BCE1] == pytest.approx(np.log(2.0), rel=1e-6)

    def test_perfect_confident_prediction_near_zero(self):
        gt = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, row, _ = _level1(np.where(gt > 0.5, 50.0, -50.0), gt)
        assert row[_BCE1] < 1e-12

    def test_stable_at_extreme_logits(self):
        _, row, _ = _level1(np.array([[500.0, -500.0]]), np.array([[0.0, 1.0]]))
        assert np.isfinite(row).all()
        assert row[_BCE1] == pytest.approx(500.0, rel=1e-9)

    def test_backward_at_saturated_logits_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gt = np.array([[1.0, 0.0]])
            total, _, d1 = _level1(np.array([[-1000.0, 1000.0]]), gt)
            total.backward()
        # p = 0 and 1 exactly, so the BCE share is w (p - g) / Sum(w) and the
        # IoU share p (1 - p) dIoU/dp is 0
        w, p = _weights(gt), np.array([[0.0, 1.0]])
        np.testing.assert_array_equal(d1.grad, _W1 * (w * (p - gt) / w.sum())[None])

    def test_weighting_reweights_pixels(self):
        # confident and right everywhere but one boundary pixel: the weight
        # map raises that pixel's share above the plain per-pixel mean
        gt = np.zeros((16, 16))
        gt[4:12, 4:12] = 1.0
        z = np.where(gt > 0.5, 6.0, -6.0)
        z[4, 8] = -3.0
        per_pixel = np.maximum(z, 0.0) - z * gt + np.log1p(np.exp(-np.abs(z)))
        assert _level1(z, gt)[1][_BCE1] > per_pixel.mean()

    def test_matches_naive_formula(self):
        z, gt = _random_case(2)
        p = 1.0 / (1.0 + np.exp(-z))
        w = _weights(gt)
        naive = (w * -(gt * np.log(p) + (1 - gt) * np.log(1 - p))).sum() / w.sum()
        assert _level1(z, gt)[1][_BCE1] == pytest.approx(naive, rel=1e-10)

    def test_gradient(self):
        # the derivative of the bce1 column is the closed form the backward uses
        z, gt = _random_case(3, n=5)
        w = _weights(gt)
        p = 1.0 / (1.0 + np.exp(-z))
        numeric = _central_diff(lambda v: _level1(v, gt)[1][_BCE1], z)
        np.testing.assert_allclose(numeric, w * (p - gt) / w.sum(), atol=1e-8)

    def test_shape_mismatch(self):
        outputs = tuple(Tensor(np.zeros((1, 3, 3))) for _ in range(3))
        with pytest.raises(ShapeError, match="logits"):
            total_loss(outputs, np.zeros((4, 4)), ModelConfig(profile="toy", seed=0))


class TestWeightedIoU:
    """The iou1 column of total_loss's row, and its share of the gradient."""

    def test_perfect_prediction_near_zero(self):
        gt = np.zeros((8, 8))
        gt[2:6, 2:6] = 1.0
        _, row, _ = _level1(np.where(gt > 0.5, 50.0, -50.0), gt)
        assert row[_IOU1] < 1e-6

    def test_total_miss_is_high(self):
        gt = np.zeros((8, 8))
        gt[:4] = 1.0
        _, row, _ = _level1(np.where(gt > 0.5, -50.0, 50.0), gt)
        assert row[_IOU1] > 0.9

    def test_matches_naive_formula(self):
        z, gt = _random_case(4)
        p = 1.0 / (1.0 + np.exp(-z))
        w = _weights(gt)
        inter = (w * p * gt).sum()
        union = (w * (p + gt)).sum()
        naive = 1.0 - (inter + 1.0) / (union - inter + 1.0)
        assert _level1(z, gt)[1][_IOU1] == pytest.approx(naive, rel=1e-10)

    def test_saturated_logits_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gt = np.array([[0.0, 1.0]])
            total, row, d1 = _level1(np.array([[-1000.0, 1000.0]]), gt)
            total.backward()
        # p = 0 and 1 exactly: with w2 the second pixel's weight, inter = w2 and
        # union = 2 w2, so the loss is 1 - (w2 + 1) / (w2 + 1) = 0; the IoU
        # share p (1 - p) dIoU/dp is 0, which leaves the BCE share w (p - g) / Sum(w)
        assert row[_IOU1] == 0.0
        w, p = _weights(gt), np.array([[0.0, 1.0]])
        np.testing.assert_array_equal(d1.grad, _W1 * (w * (p - gt) / w.sum())[None])

    def test_in_unit_interval(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            gt = (r.random((5, 5)) > 0.5).astype(np.float64)
            v = _level1(3.0 * r.standard_normal((5, 5)), gt)[1][_IOU1]
            assert 0.0 <= v < 1.0

    def test_gradient(self):
        # the level-1 gradient, unscaled by _W1, less the closed-form BCE
        # share is the derivative of the iou1 column
        z, gt = _random_case(6, n=5)
        w = _weights(gt)
        p = 1.0 / (1.0 + np.exp(-z))
        total, _, d1 = _level1(z, gt)
        total.backward()
        numeric = _central_diff(lambda v: _level1(v, gt)[1][_IOU1], z)
        np.testing.assert_allclose(d1.grad[0] / _W1 - w * (p - gt) / w.sum(), numeric,
                                   atol=1e-8)


class TestTotalLoss:
    def _outputs(self, rng, h=16, w=16):
        return tuple(Tensor(rng.standard_normal((1, h, w)).astype(np.float32))
                     for _ in range(3))

    def test_weighted_sum_identity(self):
        # identical logits at all levels: total = (0.25 + 0.5 + 1.0) * level
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 16, 16)).astype(np.float32))
        outputs = (x, x, x)
        gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
        cfg = ModelConfig(profile="toy", seed=0)
        total, row = total_loss(outputs, gt, cfg)
        levels = row[2:9:3]
        assert levels[0] == pytest.approx(levels[1], rel=1e-6)
        assert float(total.data) == pytest.approx(1.75 * levels[0], rel=1e-5)

    def test_breakdown_consistency(self):
        rng = np.random.default_rng(1)
        outputs = self._outputs(rng)
        gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
        cfg = ModelConfig(profile="toy", seed=0)
        total, row = total_loss(outputs, gt, cfg)
        assert row.dtype == np.float64 and row.shape == (len(ROW),)
        for b, i, lv in zip(row[0:9:3], row[1:9:3], row[2:9:3]):
            assert lv == pytest.approx(b + i, rel=1e-6)
        want = sum(lw * lv for lw, lv in zip(cfg.loss_weights, row[2:9:3]))
        assert row[-1] == pytest.approx(want, rel=1e-5)
        assert float(total.data) == row[-1]

    def test_backward_reaches_all_levels(self):
        rng = np.random.default_rng(4)
        outputs = self._outputs(rng)
        for t in outputs:
            t.requires_grad = True
        gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
        total, _ = total_loss(outputs, gt, ModelConfig(profile="toy", seed=0))
        total.backward()
        for t in outputs:
            assert t.grad is not None
            assert np.any(t.grad != 0)

    @pytest.mark.parametrize("shape", [(1, 16, 16), (2, 16, 16), (16,)])
    def test_mask_must_be_h_by_w(self, shape):
        outputs = self._outputs(np.random.default_rng(6))
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            total_loss(outputs, np.zeros(shape, dtype=np.float32),
                       ModelConfig(profile="toy", seed=0))

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        outputs = self._outputs(rng, h=8, w=8)
        gt = (rng.random((8, 8)) > 0.5).astype(np.float32)
        cfg = ModelConfig(profile="toy", seed=0)
        ts = list(outputs)
        cast_all(ts, np.float64)
        assert grad_check(lambda: total_loss(outputs, gt, cfg)[0], ts) < 1e-6

    def test_row_order(self):
        assert ROW == ("bce1", "iou1", "level1", "bce2", "iou2", "level2",
                       "bce3", "iou3", "level3", "total")

    # SHA-256 of the bytes of the total, the row and the three logit
    # gradients (seeded with 0.25) for fixed float32 logits and the default
    # level weights.  A changed formula, rounding step or summation order
    # changes a digest.
    PINNED_DIGESTS = {
        "pixel-weighted": (
            "87a1e046e36efceddd1ba2791b3229848d00976e7391c198849e1c0f0d6f8c38",
            "9d7b22163ccb4337cb7720eec6228bb1b11c0c45ddb31fe690e9b70b2a10d331",
            "d97f5599ed6420a5de562b9cbac1bc720702ec6b4e76dda4a80a108c7df89a84",
            "5bac6550b95ed23d7e59d84ec42710fdaddc5679f1abc2a51c497016da3d5ef1",
            "5029cbb2e393faffc27416aea4e72ede0eb9aa307646d61f5b377c788120364e",
        ),
    }

    @pytest.mark.parametrize("case", ["pixel-weighted"])
    def test_matches_pinned_digests(self, case):
        rng = np.random.default_rng(17)
        logits = [Tensor(3.0 * rng.standard_normal((1, 20, 20)).astype(np.float32),
                         requires_grad=True) for _ in range(3)]
        gt = np.zeros((20, 20), dtype=np.float32)
        gt[4:13, 6:17] = 1.0
        total, row = total_loss(logits, gt, ModelConfig(profile="toy", seed=0))
        total.backward(np.asarray(0.25, dtype=np.float32))
        arrays = [total.data, row] + [t.grad for t in logits]
        assert [a.dtype for a in arrays] == [np.float32, np.float64] + [np.float32] * 3
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
        assert got == self.PINNED_DIGESTS[case]
