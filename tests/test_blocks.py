import hashlib

import numpy as np
import pytest

from dsunet.blocks import (
    CGA,
    RFB,
    SFF,
    Adapter,
    DecodeHead,
    DSUNet,
    WaveletDownsample,
    channel_resample,
    haar_dwt2,
    haar_idwt2,
)
from dsunet.config import PROFILES, ModelConfig
from dsunet.losses import total_loss
from dsunet.nn import seeded_init
from dsunet.optim import AdamW
from dsunet.tensor import (
    ShapeError,
    Tensor,
    bilinear_resize,
    cast_all,
    grad_check,
)


class TestHaarTransform:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        rec = haar_idwt2(haar_dwt2(x))
        assert np.max(np.abs(rec.data - x.data)) < 1e-6

    def test_constant_ll_response(self):
        c = 0.73
        x = Tensor(np.full((1, 4, 4), c, dtype=np.float32))
        sub = haar_dwt2(x).data
        # orthonormal analysis maps a constant c to 2c in the smooth band
        np.testing.assert_allclose(sub[0], 2 * c, atol=1e-6)
        np.testing.assert_allclose(sub[1:], 0.0, atol=1e-6)

    def test_band_layout(self):
        # vertical step edge lands in the band that differences columns
        x = np.zeros((1, 4, 4), dtype=np.float32)
        x[:, :, 2:] = 1.0
        sub = haar_dwt2(Tensor(x)).data
        assert sub.shape == (4, 2, 2)
        np.testing.assert_allclose(sub[2], 0.0, atol=1e-6)  # row-difference band
        np.testing.assert_allclose(sub[3], 0.0, atol=1e-6)  # diagonal band

    def test_energy_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 6, 6)).astype(np.float64)
        sub = haar_dwt2(Tensor(x)).data
        assert np.sum(sub**2) == pytest.approx(np.sum(x**2), rel=1e-10)

    def test_odd_size_rejected(self):
        with pytest.raises(ShapeError):
            haar_dwt2(Tensor(np.zeros((1, 5, 4))))

    def test_gradients(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 4, 4)))
        cast_all([x], np.float64)
        assert grad_check(lambda: haar_dwt2(x), [x]) < 1e-6
        y = Tensor(rng.standard_normal((8, 2, 2)))
        cast_all([y], np.float64)
        assert grad_check(lambda: haar_idwt2(y), [y]) < 1e-6


class TestChannelResample:
    def test_identity_when_same_width(self):
        x = Tensor(np.random.default_rng(0).random((6, 3, 3)))
        out = channel_resample(x, 6)
        np.testing.assert_array_equal(out.data, x.data)

    def test_endpoints_kept(self):
        x = Tensor(np.random.default_rng(1).random((8, 2, 2)))
        out = channel_resample(x, 5)
        np.testing.assert_allclose(out.data[0], x.data[0], atol=1e-6)
        np.testing.assert_allclose(out.data[-1], x.data[-1], atol=1e-6)

    def test_constant_across_channels(self):
        x = Tensor(np.broadcast_to(
            np.random.default_rng(2).random((1, 4, 4)), (7, 4, 4)).copy())
        out = channel_resample(x, 13)
        for c in range(13):
            np.testing.assert_allclose(out.data[c], x.data[0], atol=1e-6)

    def test_gradient(self):
        x = Tensor(np.random.default_rng(3).standard_normal((5, 2, 2)))
        cast_all([x], np.float64)
        assert grad_check(lambda: channel_resample(x, 9), [x]) < 1e-6


class TestAdapter:
    def test_initial_forward_is_identity(self):
        # the up-projection starts at zero, so only the residual path is live
        rng = np.random.default_rng(0)
        ad = Adapter(8, ratio=0.25, init=seeded_init(rng))
        x = Tensor(rng.standard_normal((8, 3, 3)).astype(np.float32))
        out = ad.forward(x)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_bottleneck_width(self):
        ad = Adapter(16, ratio=0.25, init=seeded_init(np.random.default_rng(0)))
        assert ad.down.weight.shape == (16, 4)
        assert ad.up.weight.shape == (4, 16)

    def test_all_parameters_trainable(self):
        ad = Adapter(8, ratio=0.25, init=seeded_init(np.random.default_rng(1)))
        assert all(p.requires_grad for p in ad.named_parameters().values())


class TestWaveletDownsample:
    @pytest.mark.parametrize("hw_in,hw_out", [((8, 8), (4, 4)), ((9, 7), (5, 5)),
                                              ((6, 6), (6, 6))])
    def test_identity_init_is_plain_resize(self, hw_in, hw_out):
        rng = np.random.default_rng(0)
        wtd = WaveletDownsample(3, init=seeded_init(rng))
        wtd.identity_init()
        x = Tensor(rng.standard_normal((3,) + hw_in).astype(np.float32))
        got = wtd.forward(x, *hw_out).data
        want = bilinear_resize(x, *hw_out).data
        assert np.max(np.abs(got - want)) < 1e-5

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        wtd = WaveletDownsample(6, init=seeded_init(rng))
        out = wtd.forward(Tensor(rng.standard_normal((6, 10, 10)).astype(np.float32)), 5, 5)
        assert out.shape == (6, 5, 5)

    @pytest.mark.parametrize("hw", [(7, 5), (7, 6), (6, 5)])
    def test_odd_map_is_reflect_padded(self, hw):
        # with random sub-band weights the output depends on the padded
        # values, which an identity-initialised block would not show
        rng = np.random.default_rng(3)
        wtd = WaveletDownsample(2, init=seeded_init(rng))
        x = rng.standard_normal((2,) + hw).astype(np.float32)
        pad = ((0, 0), (0, hw[0] % 2), (0, hw[1] % 2))
        y = haar_idwt2(wtd.subband(haar_dwt2(Tensor(np.pad(x, pad, mode="reflect")))))
        y = wtd.pointwise(Tensor(y.data[:, :hw[0], :hw[1]]))
        want = bilinear_resize(y, 4, 3).data
        np.testing.assert_array_equal(wtd.forward(Tensor(x), 4, 3).data, want)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        wtd = WaveletDownsample(2, init=seeded_init(rng))
        params = list(wtd.named_parameters().values())
        for hw in ((6, 6), (7, 5)):
            x = Tensor(rng.standard_normal((2,) + hw))
            cast_all([x] + params, np.float64)
            err = grad_check(lambda: wtd.forward(x, 3, 3), [x] + params)
            assert err < 1e-4


class TestRFB:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        rfb = RFB(12, 8, init=seeded_init(rng))
        out = rfb.forward(Tensor(rng.standard_normal((12, 6, 6)).astype(np.float32)))
        assert out.shape == (8, 6, 6)

    def test_branch_width_is_quarter(self):
        rfb = RFB(12, 8, init=seeded_init(np.random.default_rng(0)))
        assert rfb.reduce0.weight.shape[0] == 2  # 8 // 4
        for red, dil in rfb.branches:
            assert red.weight.shape[0] == 2
            assert dil.weight.shape[:2] == (2, 2)
        assert rfb.mix.weight.shape[1] == 8  # 4 branches x 2 channels

    def test_output_nonnegative(self):
        rng = np.random.default_rng(1)
        rfb = RFB(8, 8, init=seeded_init(rng))
        out = rfb.forward(Tensor(rng.standard_normal((8, 12, 12)).astype(np.float32)))
        assert np.all(out.data >= 0)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        rfb = RFB(4, 4, init=seeded_init(rng))
        params = list(rfb.named_parameters().values())
        x = Tensor(rng.standard_normal((4, 9, 9)))
        cast_all([x] + params, np.float64)
        assert grad_check(lambda: rfb.forward(x), [x] + params,
                          max_coords=16) < 1e-4


class TestCGA:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        cga = CGA(8, init=seeded_init(rng))
        u = Tensor(rng.standard_normal((8, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 5, 5)).astype(np.float32))
        assert cga.forward(u, w).shape == (8, 5, 5)

    def test_blend_is_convex(self):
        rng = np.random.default_rng(1)
        cga = CGA(8, init=seeded_init(rng))
        u = Tensor(rng.standard_normal((8, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 4, 4)).astype(np.float32))
        _, internals = cga.forward(u, w, return_internals=True)
        pa = internals["pixel_attention"].data
        assert np.all(pa > 0) and np.all(pa < 1)
        blend = internals["blend"].data
        lo = np.minimum(u.data, w.data)
        hi = np.maximum(u.data, w.data)
        assert np.all(blend >= lo - 1e-6)
        assert np.all(blend <= hi + 1e-6)

    def test_attention_maps_in_unit_interval(self):
        rng = np.random.default_rng(2)
        cga = CGA(4, init=seeded_init(rng))
        u = Tensor(rng.standard_normal((4, 6, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 6, 6)).astype(np.float32))
        _, internals = cga.forward(u, w, return_internals=True)
        for key in ("channel_attention", "spatial_attention"):
            a = internals[key].data
            assert np.all(a > 0) and np.all(a < 1)
        assert internals["channel_attention"].shape == (4, 1, 1)
        assert internals["spatial_attention"].shape == (1, 6, 6)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        cga = CGA(4, init=seeded_init(rng))
        params = list(cga.named_parameters().values())
        u = Tensor(rng.standard_normal((4, 4, 4)))
        w = Tensor(rng.standard_normal((4, 4, 4)))
        cast_all([u, w] + params, np.float64)
        assert grad_check(lambda: cga.forward(u, w), [u, w] + params,
                          max_coords=16) < 1e-4


class TestSFF:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        sff = SFF(8, init=seeded_init(rng))
        lo = Tensor(rng.standard_normal((8, 5, 5)).astype(np.float32))
        hi = Tensor(rng.standard_normal((8, 5, 5)).astype(np.float32))
        _, weights = sff.forward(lo, hi, return_weights=True)
        assert weights.shape == (2, 5, 5)
        np.testing.assert_allclose(weights.data.sum(axis=0), 1.0, atol=1e-6)

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        sff = SFF(6, init=seeded_init(rng))
        lo = Tensor(rng.standard_normal((6, 4, 4)).astype(np.float32))
        hi = Tensor(rng.standard_normal((6, 4, 4)).astype(np.float32))
        assert sff.forward(lo, hi).shape == (6, 4, 4)

    def test_coarse_input_resized_to_fine_grid(self):
        rng = np.random.default_rng(2)
        sff = SFF(6, init=seeded_init(rng))
        lo = Tensor(rng.standard_normal((6, 8, 8)).astype(np.float32))
        hi = Tensor(rng.standard_normal((6, 4, 4)).astype(np.float32))
        assert sff.forward(lo, hi).shape == (6, 8, 8)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        sff = SFF(6, init=seeded_init(rng))
        with pytest.raises(ShapeError):
            sff.forward(Tensor(np.zeros((6, 4, 4), dtype=np.float32)),
                        Tensor(np.zeros((5, 4, 4), dtype=np.float32)))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        sff = SFF(4, init=seeded_init(rng))
        params = list(sff.named_parameters().values())
        lo = Tensor(rng.standard_normal((4, 4, 4)))
        hi = Tensor(rng.standard_normal((4, 4, 4)))
        cast_all([lo, hi] + params, np.float64)
        assert grad_check(lambda: sff.forward(lo, hi), [lo, hi] + params,
                          max_coords=16) < 1e-4


class TestDecodeHead:
    def test_single_channel_at_target_size(self):
        rng = np.random.default_rng(0)
        head = DecodeHead(6, init=seeded_init(rng))
        out = head.forward(Tensor(rng.standard_normal((6, 4, 4)).astype(np.float32)),
                           16, 16)
        assert out.shape == (1, 16, 16)


class TestModelAssembly:
    @pytest.mark.parametrize("variant", ["full", "A", "B", "C"])
    def test_variant_builds_and_runs(self, variant):
        cfg = ModelConfig(profile="toy", variant=variant, seed=0)
        model = DSUNet(cfg)
        p = PROFILES["toy"]
        rng = np.random.default_rng(0)
        main = Tensor(rng.random((3, p.main_size, p.main_size)).astype(np.float32))
        aux = Tensor(rng.random((3, p.aux_size, p.aux_size)).astype(np.float32))
        outs = model.forward(main, aux)
        for d in outs:
            assert d.shape == (1, p.main_size, p.main_size)

    @pytest.mark.parametrize("variant", ["full", "A", "B", "C"])
    def test_float32_forward_loss_backward(self, variant, received_grads):
        cfg = ModelConfig(profile="toy", variant=variant, seed=0)
        model = DSUNet(cfg)
        p = PROFILES["toy"]
        rng = np.random.default_rng(0)
        main = Tensor(rng.random((3, p.main_size, p.main_size)).astype(np.float32))
        aux = Tensor(rng.random((3, p.aux_size, p.aux_size)).astype(np.float32))
        gt = (rng.random((p.main_size, p.main_size)) > 0.5).astype(np.float32)
        outs = model.forward(main, aux)
        assert [d.dtype for d in outs] == [np.float32] * 3
        loss, _ = total_loss(outs, gt, cfg)
        assert loss.dtype == np.float32
        loss.backward()
        for name, param in model.named_parameters().items():
            if param.requires_grad:
                assert param.grad is not None and param.grad.dtype == np.float32, name
        assert {dt for _, dt in received_grads} == {np.dtype(np.float32)}

    def test_encoder_frozen_decoder_trainable(self):
        model = DSUNet(ModelConfig(profile="toy", seed=0))
        for name, p in model.named_parameters().items():
            if name.startswith("encoder."):
                assert not p.requires_grad, name
            else:
                assert p.requires_grad, name

    def test_trainable_fraction_below_one(self):
        model = DSUNet(ModelConfig(profile="toy", seed=0))
        total, trainable, fraction, _ = model.parameter_counts()
        assert 0 < trainable < total
        assert fraction < 1.0

    def test_requires_grad_is_the_trainable_flag(self):
        # one flag moves a weight into or out of the trainable parameters,
        # the trainable count and the optimizer built from them
        model = DSUNet(ModelConfig(profile="toy", seed=0))
        params = model.named_parameters()
        enc = next(n for n in params if n.startswith("encoder."))
        dec = next(n for n in params if not n.startswith("encoder."))
        _, before, _, by_module = model.parameter_counts()
        params[enc].requires_grad = True
        params[dec].requires_grad = False
        trainable = model.trainable_parameters()
        assert enc in trainable and dec not in trainable
        _, after, _, by_module_after = model.parameter_counts()
        assert after == before + params[enc].size - params[dec].size
        assert by_module_after["encoder"][1] == by_module["encoder"][1] + params[enc].size
        optimizer = AdamW(trainable)
        assert enc in optimizer.params and dec not in optimizer.params
        with pytest.raises(ValueError, match="frozen tensor"):
            AdamW({dec: params[dec]})

    def test_same_seed_same_weights(self):
        a = DSUNet(ModelConfig(profile="toy", seed=7))
        b = DSUNet(ModelConfig(profile="toy", seed=7))
        for (na, pa), (nb, pb) in zip(a.named_parameters().items(),
                                      b.named_parameters().items()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    # SHA-256 over (name, shape, dtype, SHA-256 of the bytes) of every
    # parameter in named_parameters() order, for ModelConfig(profile="toy",
    # variant=v, seed=0).  A changed draw order, a skipped or an extra draw, or
    # a renamed parameter changes the digest.  B and C register the same
    # parameters; they differ only in which token features they fuse.
    PINNED_DIGESTS = {
        "A": "855daae94803abdb6d7e302418debee9e405ea363f68ab54b862b51712b60c04",
        "B": "563a74d79e1b1db8c667383ae8b2eeccb36b53061cdd8d5ab6fb2ad6d8048d19",
        "C": "563a74d79e1b1db8c667383ae8b2eeccb36b53061cdd8d5ab6fb2ad6d8048d19",
        "full": "fd6a5d752e5775adcb5ce186890b9166ceff86633c0703d566b44428b22593e2",
    }

    @pytest.mark.parametrize("variant", ["A", "B", "C", "full"])
    def test_fresh_weights_match_pinned_digests(self, variant):
        model = DSUNet(ModelConfig(profile="toy", variant=variant, seed=0))
        h = hashlib.sha256()
        for name, p in model.named_parameters().items():
            h.update(name.encode())
            h.update(str(p.data.shape).encode())
            h.update(str(p.data.dtype).encode())
            h.update(hashlib.sha256(p.data.tobytes()).digest())
        assert h.hexdigest() == self.PINNED_DIGESTS[variant]

    def test_chunked_draw_equals_one_draw(self):
        # a weight spanning several 2**20-value draws, the last one short, gets
        # the values of one float64 draw cast, and the stream continues alike
        shape, fan_in = (3, (1 << 19) + 1, 2), 7
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        got = seeded_init(a)(shape, fan_in)
        bound = 1.0 / np.sqrt(fan_in)
        want = b.uniform(-bound, bound, size=shape).astype(np.float32)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert a.random() == b.random()

    def _variant_b_pyramid(self):
        model = DSUNet(ModelConfig(profile="toy", variant="B", seed=0))
        p = PROFILES["toy"]
        rng = np.random.default_rng(0)
        main = Tensor(rng.random((3, p.main_size, p.main_size)).astype(np.float32))
        aux = Tensor(rng.random((3, p.aux_size, p.aux_size)).astype(np.float32))
        return model, model.encode(main, aux)

    def test_variant_b_rejects_misshapen_tap(self):
        model, pyramid = self._variant_b_pyramid()
        pyramid["v_tap3"] = Tensor(np.zeros((5, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError, match="'v_tap3'"):
            model.forward_pyramid(pyramid)

    @pytest.mark.parametrize("n_taps", [None, 0, 3])
    def test_variant_b_rejects_missing_taps(self, n_taps):
        # n_taps: the taps kept, v_tap1 onwards; None keeps every name but
        # maps it to None
        model, pyramid = self._variant_b_pyramid()
        for i in range(n_taps or 0, 4):
            if n_taps is None:
                pyramid[f"v_tap{i + 1}"] = None
            else:
                del pyramid[f"v_tap{i + 1}"]
        with pytest.raises(ShapeError, match=f"v_tap{(n_taps or 0) + 1} missing"):
            model.forward_pyramid(pyramid)

    def test_variant_a_has_no_aux_fusion_params(self):
        names_full = set(DSUNet(ModelConfig(profile="toy", variant="full",
                                            seed=0)).named_parameters())
        names_a = set(DSUNet(ModelConfig(profile="toy", variant="A",
                                         seed=0)).named_parameters())
        assert not any(n.startswith(("wtd", "cga")) for n in names_a)
        assert any(n.startswith("cga") for n in names_full)
