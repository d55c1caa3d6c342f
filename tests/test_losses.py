import warnings

import numpy as np
import pytest

from dsunet.blocks import DecoderOutputs
from dsunet.config import ModelConfig
from dsunet.losses import (
    pixel_weight_map,
    total_loss,
    weighted_bce,
    weighted_iou,
)
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


class TestWeightedBCE:
    def test_zero_logits_give_log_two(self):
        z = Tensor(np.zeros((1, 4, 4)))
        gt = np.zeros((1, 4, 4))
        w = np.ones((1, 4, 4))
        loss = weighted_bce(z, gt, w)
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-6)

    def test_perfect_confident_prediction_near_zero(self):
        gt = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        z = Tensor(np.where(gt > 0.5, 50.0, -50.0))
        loss = weighted_bce(z, gt, np.ones_like(gt))
        assert float(loss.data) < 1e-12

    def test_stable_at_extreme_logits(self):
        z = Tensor(np.array([[[500.0, -500.0]]]))
        gt = np.array([[[0.0, 1.0]]])
        loss = weighted_bce(z, gt, np.ones_like(gt))
        assert np.isfinite(loss.data)
        assert float(loss.data) == pytest.approx(500.0, rel=1e-9)

    def test_backward_at_saturated_logits_without_a_warning(self):
        z = Tensor(np.array([[[-1000.0, 1000.0]]]), trainable=True)
        gt = np.array([[[1.0, 0.0]]])
        loss = weighted_bce(z, gt, np.ones_like(gt))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss.backward()
        # p = 0 and 1 exactly, so dz = (p - g) / 2
        np.testing.assert_array_equal(z.grad, [[[-0.5, 0.5]]])

    def test_weighting_reweights_pixels(self):
        gt = np.array([[[1.0, 0.0]]])
        z = Tensor(np.array([[[0.0, 3.0]]]))  # second pixel is the bad one
        uniform = float(weighted_bce(z, gt, np.ones_like(gt)).data)
        w = np.array([[[1.0, 5.0]]])
        skewed = float(weighted_bce(z, gt, w).data)
        assert skewed > uniform

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((1, 6, 6))
        gt = (rng.random((1, 6, 6)) > 0.5).astype(np.float64)
        w = 1.0 + 4.0 * rng.random((1, 6, 6))
        p = 1.0 / (1.0 + np.exp(-z))
        naive = (w * -(gt * np.log(p) + (1 - gt) * np.log(1 - p))).sum() / w.sum()
        got = float(weighted_bce(Tensor(z), gt, w).data)
        assert got == pytest.approx(naive, rel=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        z = Tensor(rng.standard_normal((1, 5, 5)))
        gt = (rng.random((1, 5, 5)) > 0.5).astype(np.float64)
        w = 1.0 + 4.0 * rng.random((1, 5, 5))
        cast_all([z], np.float64)
        assert grad_check(lambda: weighted_bce(z, gt, w), [z]) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_bce(Tensor(np.zeros((1, 3, 3))), np.zeros((1, 4, 4)),
                         np.ones((1, 4, 4)))


class TestWeightedIoU:
    def test_perfect_prediction_near_zero(self):
        gt = np.zeros((1, 8, 8))
        gt[0, 2:6, 2:6] = 1.0
        z = Tensor(np.where(gt > 0.5, 50.0, -50.0))
        loss = weighted_iou(z, gt, np.ones_like(gt))
        assert float(loss.data) < 1e-6

    def test_total_miss_is_high(self):
        gt = np.zeros((1, 8, 8))
        gt[0, :4] = 1.0
        z = Tensor(np.where(gt > 0.5, -50.0, 50.0))
        loss = weighted_iou(z, gt, np.ones_like(gt))
        assert float(loss.data) > 0.9

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((1, 6, 6))
        gt = (rng.random((1, 6, 6)) > 0.5).astype(np.float64)
        w = 1.0 + 4.0 * rng.random((1, 6, 6))
        p = 1.0 / (1.0 + np.exp(-z))
        inter = (w * p * gt).sum()
        union = (w * (p + gt)).sum()
        naive = 1.0 - (inter + 1.0) / (union - inter + 1.0)
        got = float(weighted_iou(Tensor(z), gt, w).data)
        assert got == pytest.approx(naive, rel=1e-10)

    def test_saturated_logits_without_a_warning(self):
        z = Tensor(np.array([[[-1000.0, 1000.0]]]), trainable=True)
        gt = np.array([[[0.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = weighted_iou(z, gt, np.ones_like(gt))
            loss.backward()
        # p = 0 and 1 exactly: inter = 1, union = 1, loss = 1 - 2/2
        assert float(loss.data) == 0.0
        assert np.all(np.isfinite(z.grad))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            r = np.random.default_rng(seed)
            z = Tensor(3.0 * r.standard_normal((1, 5, 5)))
            gt = (r.random((1, 5, 5)) > 0.5).astype(np.float64)
            v = float(weighted_iou(z, gt, np.ones_like(gt)).data)
            assert 0.0 <= v < 1.0

    def test_gradient(self):
        rng = np.random.default_rng(6)
        z = Tensor(rng.standard_normal((1, 5, 5)))
        gt = (rng.random((1, 5, 5)) > 0.5).astype(np.float64)
        w = 1.0 + 4.0 * rng.random((1, 5, 5))
        cast_all([z], np.float64)
        assert grad_check(lambda: weighted_iou(z, gt, w), [z]) < 1e-6


class TestTotalLoss:
    def _outputs(self, rng, h=16, w=16):
        return DecoderOutputs(
            Tensor(rng.standard_normal((1, h, w)).astype(np.float32)),
            Tensor(rng.standard_normal((1, h, w)).astype(np.float32)),
            Tensor(rng.standard_normal((1, h, w)).astype(np.float32)),
        )

    def test_weighted_sum_identity(self):
        # identical logits at all levels: total = (0.25 + 0.5 + 1.0) * level
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 16, 16)).astype(np.float32))
        outputs = DecoderOutputs(x, x, x)
        gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
        cfg = ModelConfig(profile="toy", seed=0)
        total, br = total_loss(outputs, gt, cfg)
        assert br.levels[0] == pytest.approx(br.levels[1], rel=1e-6)
        assert float(total.data) == pytest.approx(1.75 * br.levels[0], rel=1e-5)

    def test_breakdown_consistency(self):
        rng = np.random.default_rng(1)
        outputs = self._outputs(rng)
        gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
        cfg = ModelConfig(profile="toy", seed=0)
        total, br = total_loss(outputs, gt, cfg)
        for b, i, lv in zip(br.bce, br.iou, br.levels):
            assert lv == pytest.approx(b + i, rel=1e-6)
        want = sum(lw * lv for lw, lv in zip(cfg.loss_weights, br.levels))
        assert br.total == pytest.approx(want, rel=1e-5)
        assert float(total.data) == pytest.approx(br.total, rel=1e-6)

    def test_custom_level_weights(self):
        rng = np.random.default_rng(2)
        outputs = self._outputs(rng)
        gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
        cfg = ModelConfig(profile="toy", seed=0, loss_weights=(1.0, 0.0, 0.0))
        total, br = total_loss(outputs, gt, cfg)
        assert float(total.data) == pytest.approx(br.levels[0], rel=1e-6)

    def test_uniform_weight_switch(self):
        rng = np.random.default_rng(3)
        outputs = self._outputs(rng)
        gt = np.zeros((16, 16), dtype=np.float32)
        gt[4:12, 4:12] = 1.0
        weighted = total_loss(outputs, gt, ModelConfig(profile="toy", seed=0))[1]
        uniform = total_loss(outputs, gt,
                             ModelConfig(profile="toy", seed=0,
                                         pixel_weighted_loss=False))[1]
        assert weighted.total != pytest.approx(uniform.total, rel=1e-6)

    def test_backward_reaches_all_levels(self):
        rng = np.random.default_rng(4)
        outputs = self._outputs(rng)
        for t in outputs.levels():
            t.requires_grad = True
        gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
        total, _ = total_loss(outputs, gt, ModelConfig(profile="toy", seed=0))
        total.backward()
        for t in outputs.levels():
            assert t.grad is not None
            assert np.any(t.grad != 0)

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        outputs = self._outputs(rng, h=8, w=8)
        gt = (rng.random((8, 8)) > 0.5).astype(np.float32)
        cfg = ModelConfig(profile="toy", seed=0)
        ts = list(outputs.levels())
        cast_all(ts, np.float64)
        assert grad_check(lambda: total_loss(outputs, gt, cfg)[0], ts) < 1e-6
