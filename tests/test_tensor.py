import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsunet import tensor
from dsunet.blocks import haar_dwt2, haar_idwt2
from dsunet.config import ModelConfig
from dsunet.losses import total_loss
from dsunet.tensor import (
    ConfigError,
    ConvSpec,
    DTypeError,
    GradCheckError,
    ShapeError,
    Tensor,
    _accumulate,
    _make,
    add,
    amax,
    bilinear_resize,
    cast_all,
    channel_resample,
    concat,
    conv2d,
    fixed_map,
    gelu,
    grad_check,
    linear,
    logistic,
    mean,
    mul,
    narrow,
    relu,
    sigmoid,
    softmax_over_branch,
)


def brute_force_conv(x, w, bias, stride, pad, dil, groups=1):
    """Per-output-pixel loop convolution oracle on C x N x H x W, in float64."""
    cin, n, h, w_in = x.shape
    cout, cpg, kh, kw = w.shape
    opg = cout // groups
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - dil * (kh - 1) - 1) // stride + 1
    ow = (w_in + 2 * pad - dil * (kw - 1) - 1) // stride + 1
    out = np.zeros((cout, n, oh, ow))
    for b in range(n):
        for co in range(cout):
            c0 = (co // opg) * cpg  # first input channel of this output's group
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[c0 + ci, b, i * stride + ki * dil,
                                       j * stride + kj * dil]
                                    * float(w[co, ci, ki, kj])
                                )
                    out[co, b, i, j] = acc + float(bias[co])
    return out


def zeros(n, dtype=np.float32):
    """A bias that adds nothing."""
    return Tensor(np.zeros(n, dtype=dtype))


class TestConv2d:
    def test_all_ones_kernel_interior_and_corner(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        spec = ConvSpec(1, 1, (3, 3), stride=1, padding=1)
        out = conv2d(x, w, zeros(1), spec).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == 4.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = conv2d(x, w, zeros(1), ConvSpec(1, 1, (1, 1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_depthwise_channel_independence(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 1, 5, 5)).astype(np.float32)
        w = Tensor(rng.standard_normal((3, 1, 3, 3)).astype(np.float32))
        spec = ConvSpec(3, 3, (3, 3), padding=1, groups=3)
        base = conv2d(Tensor(x), w, zeros(3), spec).data
        x2 = x.copy()
        x2[1, 0] += 1.0  # perturb channel 1 only
        pert = conv2d(Tensor(x2), w, zeros(3), spec).data
        np.testing.assert_array_equal(base[0, 0], pert[0, 0])
        np.testing.assert_array_equal(base[2, 0], pert[2, 0])
        assert np.any(base[1, 0] != pert[1, 0])

    @pytest.mark.parametrize("stride,pad,dil", [(1, 0, 1), (1, 1, 1), (2, 1, 1),
                                                (1, 2, 2)])
    def test_matches_brute_force(self, stride, pad, dil):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 2, 4, 4))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        spec = ConvSpec(3, 2, (3, 3), stride=stride, padding=pad, dilation=dil)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), spec).data
        want = brute_force_conv(x, w, b, stride, pad, dil)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("kind", ["dense", "groups2", "depthwise"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dil", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1, 3])
    def test_every_path_matches_the_loop_oracle(self, kind, stride, dil, pad, monkeypatch):
        cin, cout, groups = {"dense": (4, 6, 1), "groups2": (4, 6, 2),
                             "depthwise": (4, 4, 4)}[kind]
        rng = np.random.default_rng(100 * stride + 10 * dil + pad)
        x = rng.standard_normal((cin, 2, 9, 8))
        w = rng.standard_normal((cout, cin // groups, 3, 2))
        b = rng.standard_normal(cout)
        spec = ConvSpec(cin, cout, (3, 2), stride=stride, padding=pad, dilation=dil,
                        groups=groups)
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            xs, ws, bs = (a.astype(dtype) for a in (x, w, b))
            want = brute_force_conv(xs, ws, bs, stride, pad, dil, groups)
            for budget in (tensor._BLOCK_BYTES, 1):
                # a 1-byte budget puts each channel group in a block of its own
                monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
                for batched in (True, False):
                    xin = xs if batched else xs[:, 0]
                    got = conv2d(Tensor(xin), Tensor(ws), Tensor(bs), spec).data
                    assert got.dtype == dtype
                    ref = want if batched else want[:, 0]
                    assert got.shape == ref.shape
                    # error relative to the largest output, so a cancelling
                    # output does not count as a large relative error
                    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()

    @pytest.mark.parametrize("xshape,spec", [
        ((3, 7, 7), ConvSpec(3, 3, (3, 3), stride=2, padding=1, groups=3)),
        ((3, 7, 6), ConvSpec(3, 3, (3, 3), padding=2, dilation=2, groups=3)),
        ((3, 2, 5, 5), ConvSpec(3, 3, (3, 3), padding=1, groups=3)),
        ((4, 2, 5, 5), ConvSpec(4, 6, (3, 3), stride=2, padding=1, groups=2)),
        ((4, 2, 5, 5), ConvSpec(4, 3, (3, 3), padding=1)),
    ], ids=["depthwise-stride2", "depthwise-dilation2", "depthwise-batched",
            "grouped-batched", "dense-batched"])
    def test_gradients_off_the_unit_stride_path(self, xshape, spec, monkeypatch):
        rng = np.random.default_rng(12)
        kh, kw = spec.kernel
        x = Tensor(rng.standard_normal(xshape))
        w = Tensor(rng.standard_normal((spec.out_channels, spec.in_channels // spec.groups,
                                        kh, kw)), requires_grad=True)
        b = Tensor(rng.standard_normal(spec.out_channels), requires_grad=True)
        cast_all([x, w, b], np.float64)
        # a linear op: the finite-difference round-off alone reaches 2.5e-6
        # on the batched dense case
        for budget in (tensor._BLOCK_BYTES, 1):
            monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
            assert grad_check(lambda: conv2d(x, w, b, spec), [x, w, b]) < 1e-5

    @pytest.mark.parametrize("spec", [
        ConvSpec(6, 4, (3, 3), padding=1),
        ConvSpec(6, 4, (3, 2), stride=2, dilation=2, padding=2, groups=2),
        ConvSpec(6, 6, (3, 3), padding=1, groups=6),
    ], ids=["dense", "groups2", "depthwise"])
    def test_block_size_never_changes_a_result(self, spec, monkeypatch):
        rng = np.random.default_rng(14)
        kh, kw = spec.kernel
        x0 = rng.standard_normal((6, 2, 9, 8)).astype(np.float32)
        w0 = rng.standard_normal((spec.out_channels, 6 // spec.groups, kh, kw))
        b0 = rng.standard_normal(spec.out_channels)
        results = []
        for budget in (tensor._BLOCK_BYTES, 1):
            monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
            x = Tensor(x0)
            x.requires_grad = True
            w = Tensor(w0.astype(np.float32), requires_grad=True)
            b = Tensor(b0.astype(np.float32), requires_grad=True)
            out = conv2d(x, w, b, spec)
            out.backward(np.random.default_rng(15).standard_normal(out.shape))
            results.append([a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)])
        assert results[0] == results[1]

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(data=st.data())
    def test_matches_the_loop_oracle_on_drawn_geometry(self, data):
        draw = data.draw
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        stride, dil, pad = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
        groups = draw(st.integers(1, 3))
        cin, cout = groups * draw(st.integers(1, 3)), groups * draw(st.integers(1, 3))
        n = draw(st.integers(1, 3))
        # the smallest extents with a positive output, plus up to 4
        h = max(1, dil * (kh - 1) + 1 - 2 * pad) + draw(st.integers(0, 4))
        w_in = max(1, dil * (kw - 1) + 1 - 2 * pad) + draw(st.integers(0, 4))
        budget = draw(st.sampled_from([1, tensor._BLOCK_BYTES]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal((cin, n, h, w_in))
        w = rng.standard_normal((cout, cin // groups, kh, kw))
        b = rng.standard_normal(cout)
        spec = ConvSpec(cin, cout, (kh, kw), stride=stride, padding=pad, dilation=dil,
                        groups=groups)
        with mock.patch.object(tensor, "_BLOCK_BYTES", budget):
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), spec).data
        want = brute_force_conv(x, w, b, stride, pad, dil, groups)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((2, 1, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(x, w, zeros(1), ConvSpec(3, 1, (3, 3)))

    def test_nonpositive_output_raises(self):
        with pytest.raises(ConfigError, match="non-positive"):
            ConvSpec(1, 1, (5, 5)).out_size(3, 3)

    def test_grouped_conv_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        spec = ConvSpec(4, 4, (3, 3), padding=1, groups=2)
        cast_all([x, w, b], np.float64)
        err = grad_check(lambda: conv2d(x, w, b, spec), [x, w, b])
        assert err < 1e-6


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
        w = Tensor(np.eye(3, dtype=np.float32))
        out = linear(x, w, zeros(3))
        np.testing.assert_array_equal(out.data, x.data)

    def test_sum(self):
        out = linear(Tensor([3.0, 4.0]), Tensor([[1.0], [1.0]]),
                     Tensor([0.0]))
        assert out.data[0] == 7.0

    def test_trailing_mismatch(self):
        # the trailing axis is not mixed: only the leading extent must be Din
        with pytest.raises(ShapeError, match="leading extent 2"):
            linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 2))), zeros(2))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 5)))
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        cast_all([x, w, b], np.float64)
        assert grad_check(lambda: linear(x, w, b), [x, w, b]) < 1e-4

    @pytest.mark.parametrize("xshape", [(6, 1, 1), (6, 2, 3, 4)],
                             ids=["pooled-map", "batched-maps"])
    def test_mixes_the_leading_axis_of_a_map(self, xshape):
        # C x 1 x 1 is CGA's pooled channel vector; C x N x H x W a batch
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal(xshape))
        w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        want = np.einsum("c...,cd->d...", x.data, w.data) \
            + b.data.reshape((3,) + (1,) * (len(xshape) - 1))
        got = linear(x, w, b).data
        assert got.shape == (3,) + xshape[1:]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        cast_all([x, w, b], np.float64)
        assert grad_check(lambda: linear(x, w, b), [x, w, b]) < 1e-4


class TestActivations:
    def test_fixed_points(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        assert sigmoid(Tensor([0.0])).data[0] == 0.5
        assert relu(Tensor([-1.0])).data[0] == 0.0

    def test_gelu_at_three(self):
        got = float(gelu(Tensor([3.0])).data[0])
        # straight-line evaluation of the tanh approximation
        want = 0.5 * 3 * (1 + np.tanh(np.sqrt(2 / np.pi) * (3 + 0.044715 * 27)))
        assert abs(got - want) < 1e-12
        assert abs(got - 2.9964) < 5e-4

    def test_gelu_float32_accuracy(self):
        # reference: the tanh formula in float64 through the identity
        # (1 + tanh(u)) / 2 = 1 / (1 + exp(-2u)), which does not cancel for
        # negative u; its own error is about 1e-15 relative.
        x = np.concatenate([np.linspace(-10, 10, 20001), [0.0, 1e-20, -1e-20]])
        x = x.astype(np.float32)
        xd = x.astype(np.float64)
        u = np.sqrt(2 / np.pi) * (xd + 0.044715 * xd**3)
        want = xd / (1 + np.exp(-2 * u))
        got = gelu(Tensor(x)).data
        assert got.dtype == np.float32
        assert np.all(got[x == 0] == 0)
        nz = x != 0
        rel = np.abs(got[nz] - want[nz]) / np.abs(want[nz])
        # float32 rounds u itself, and exp turns an absolute error in 2u into
        # a relative one: a few eps (1 + 2|u|), 1.4e-5 near x = -9.4.
        eps = np.finfo(np.float32).eps
        assert np.all(rel <= 4 * eps * (1 + 2 * np.abs(u[nz])))
        assert rel[x[nz] >= -2].max() <= 1e-6

    def test_gelu_monotone_on_nonnegative_grid(self):
        xs = np.linspace(0, 5, 101)
        ys = gelu(Tensor(xs)).data
        assert np.all(np.diff(ys) >= 0)

    def test_logistic_saturates_to_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logistic(np.array([-1000.0]))[0] == 0.0
            y = sigmoid(Tensor(np.array([-100.0], dtype=np.float32))).data
        assert y.dtype == np.float32 and y[0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logistic_matches_the_plain_expression_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.standard_normal(5000) * 30.0,
                            [-1000.0, -100.0, -89.0, 0.0, 89.0, 1000.0]]).astype(dtype)
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-z))
        got = logistic(z)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert sigmoid(Tensor(z)).data.tobytes() == want.tobytes()


class TestBilinearResize:
    def test_identity_size(self):
        x = Tensor(np.random.default_rng(0).random((2, 4, 4)))
        out = bilinear_resize(x, 4, 4)
        np.testing.assert_array_equal(out.data, x.data)

    def test_2x2_to_3x3_center(self):
        x = Tensor(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        out = bilinear_resize(x, 3, 3)
        assert out.data[0, 1, 1] == pytest.approx(1.5)
        np.testing.assert_allclose(out.data[0, 0], [0.0, 0.5, 1.0])

    def test_constant_preserved(self):
        x = Tensor(np.full((3, 5, 7), 0.37, dtype=np.float32))
        out = bilinear_resize(x, 11, 2)
        np.testing.assert_allclose(out.data, 0.37, rtol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 4, 5)))
        cast_all([x], np.float64)
        assert grad_check(lambda: bilinear_resize(x, 7, 3), [x]) < 1e-6


class TestNarrow:
    def test_window_and_gradient(self):
        x = Tensor(np.random.default_rng(4).standard_normal((2, 3, 5, 4)))
        window = np.s_[..., 1:4, :2]
        np.testing.assert_array_equal(narrow(x, window).data, x.data[window])
        assert grad_check(lambda: narrow(x, window), [x]) < 1e-6


class TestReduce:
    def test_mean_of_ones(self):
        out = mean(Tensor(np.ones((2, 3, 3))), (-2, -1))
        np.testing.assert_array_equal(out.data, np.ones((2, 1, 1)))

    def test_max(self):
        out = amax(Tensor(np.array([[[-1.0]], [[2.0]]])), (0,))
        assert out.data.reshape(()) == 2.0

    def test_channel_shapes(self):
        x = Tensor(np.random.default_rng(2).random((4, 3, 5)))
        assert mean(x, (0,)).shape == (1, 3, 5)
        assert amax(x, (0,)).shape == (1, 3, 5)
        assert mean(x, (-2, -1)).shape == (4, 1, 1)
        batch = Tensor(np.random.default_rng(3).random((4, 2, 3, 5)))
        assert mean(batch, (-2, -1)).shape == (4, 2, 1, 1)
        assert amax(batch, (0,)).shape == (1, 2, 3, 5)

    def test_tied_maxima_share_the_gradient(self):
        x = Tensor(np.array([[[1.0]], [[3.0]], [[3.0]]]), requires_grad=True)
        amax(x, (0,)).backward()
        np.testing.assert_array_equal(x.grad.reshape(-1), [0.0, 0.5, 0.5])

    def test_gradients(self):
        rng = np.random.default_rng(11)
        for op in (mean, amax):
            for axes in ((0,), (-2, -1), (1, 2)):
                x = Tensor(rng.standard_normal((3, 4, 4)))
                cast_all([x], np.float64)
                assert grad_check(lambda: op(x, axes), [x]) < 1e-6


class TestSoftmaxOverBranch:
    def test_equal_logits(self):
        x = Tensor(np.zeros((4, 2, 2)))
        out = softmax_over_branch(x)
        np.testing.assert_allclose(out.data, 0.25)

    def test_saturated(self):
        x = Tensor(np.stack([np.full((2, 2), 10.0), np.full((2, 2), -10.0)]))
        out = softmax_over_branch(x).data
        np.testing.assert_allclose(out[0], 1.0, atol=1e-8)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-8)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 4)).astype(np.float32)
        a = softmax_over_branch(Tensor(x)).data
        b = softmax_over_branch(Tensor(x + 7.3)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for shape in ((5, 3, 3), (5, 2, 3, 3)):
            out = softmax_over_branch(Tensor(rng.standard_normal(shape))).data
            assert np.all(out > 0) and np.all(out < 1)
            np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)

    def test_requires_two_branches(self):
        with pytest.raises(ShapeError):
            softmax_over_branch(Tensor(np.zeros((1, 2, 2))))

    def test_gradient(self):
        x = Tensor(np.random.default_rng(6).standard_normal((3, 2, 2)))
        cast_all([x], np.float64)

        def fn():
            out = softmax_over_branch(x)
            return out * out  # non-uniform upstream gradient

        assert grad_check(fn, [x]) < 1e-4


# (C x H x W input shape, map): the parameter-free linear maps built on
# fixed_map, each also run with a batch axis of 3 after C
_FIXED_MAPS = {
    "narrow": ((4, 5, 6), lambda x: narrow(x, np.s_[1:3, ..., 1:4, :2])),
    "mean": ((3, 4, 5), lambda x: mean(x, (-2, -1))),
    "bilinear_resize": ((2, 4, 5), lambda x: bilinear_resize(x, 7, 3)),
    "channel_resample": ((5, 3, 4), lambda x: channel_resample(x, 9)),
    "haar_dwt2": ((3, 4, 6), haar_dwt2),
    "haar_idwt2": ((8, 2, 3), haar_idwt2),
}


class TestFixedMaps:
    @pytest.mark.parametrize("batch", [0, 3], ids=["CHW", "CNHW"])
    @pytest.mark.parametrize("name", list(_FIXED_MAPS))
    def test_adjoint_and_batch_axis(self, name, batch):
        shape, op = _FIXED_MAPS[name]
        if batch:
            shape = shape[:1] + (batch,) + shape[1:]
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = op(x)
        y = rng.standard_normal(out.shape)
        out.backward(y)
        # the backward pass is the adjoint: <A x, y> = <x, A^T y>
        lhs, rhs = np.vdot(out.data, y), np.vdot(x.data, x.grad)
        assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(out.data), np.abs(y))
        # a batch is the per-map results stacked on axis 1, bit for bit
        for n in range(batch):
            xn = Tensor(x.data[:, n].copy(), requires_grad=True)
            on = op(xn)
            on.backward(y[:, n].copy())
            assert on.data.tobytes() == out.data[:, n].tobytes()
            assert xn.grad.tobytes() == x.grad[:, n].tobytes()


class TestGradCheckHarness:
    def test_composition_conv_gelu_conv(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 4, 4)))
        w1 = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4, requires_grad=True)
        w2 = Tensor(rng.standard_normal((2, 3, 3, 3)) * 0.4, requires_grad=True)
        b1, b2 = zeros(3, np.float64), zeros(2, np.float64)
        s1 = ConvSpec(2, 3, (3, 3), padding=1)
        s2 = ConvSpec(3, 2, (3, 3), padding=1)
        cast_all([x, w1, w2], np.float64)
        err = grad_check(lambda: conv2d(gelu(conv2d(x, w1, b1, s1)), w2, b2, s2),
                         [x, w1, w2])
        assert err < 1e-4

    def test_frozen_tensor_gets_no_grad_buffer(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 2)))
        w_frozen = Tensor(rng.standard_normal((3, 2)), requires_grad=False)
        out = linear(x, w_frozen, zeros(2))
        out.backward()
        assert w_frozen.grad is None
        assert x.grad is None

    def test_multi_seed_grad_check(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((4, 3)))
            w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            b = zeros(3, np.float64)
            cast_all([x, w], np.float64)
            assert grad_check(lambda: sigmoid(linear(x, w, b)), [x, w]) < 1e-4

    def test_non_finite_forward_output_raises(self):
        x = Tensor(np.array([1.0, np.inf, 2.0]))
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradCheckError, match=r"index \(1,\)"):
            grad_check(lambda: x * w, [w])
        assert w.requires_grad and w.grad is None


class TestDeterminism:
    def test_forward_repeatable(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        spec = ConvSpec(3, 4, (3, 3), padding=1)
        a = conv2d(Tensor(x), Tensor(w), zeros(4), spec).data
        b = conv2d(Tensor(x), Tensor(w), zeros(4), spec).data
        assert a.tobytes() == b.tobytes()


_GT = (np.random.default_rng(11).random((1, 6, 6)) > 0.5).astype(np.float32)
_TOY = ModelConfig(profile="toy", seed=0)

# (leaf shapes, op applied to the leaves); every public op of tensor.py and
# losses.py, with each conv2d grouping taken once, and the windows blocks.py
# takes with narrow: WaveletDownsample's reflect pad (a concat of the map and
# its second-to-last row) and its crop (an ellipsis narrow)
_OP_CASES = {
    "add": ([(2, 3, 3), (1, 3, 1)], add),
    "mul": ([(2, 3, 3), (2, 3, 3)], mul),
    "relu": ([(2, 3, 3)], relu),
    "sigmoid": ([(2, 3, 3)], sigmoid),
    "gelu": ([(2, 3, 3)], gelu),
    "concat": ([(2, 3, 3), (1, 3, 3)], lambda a, b: concat([a, b], axis=0)),
    "narrow": ([(4, 3, 3)], lambda x: narrow(x, np.s_[1:3])),
    "concat-narrow-reflect-pad": ([(2, 3, 4)], lambda x: concat(
        [x, narrow(x, np.s_[..., 1:2, :])], axis=-2)),
    "narrow-ellipsis": ([(2, 1, 4, 5)], lambda x: narrow(x, np.s_[..., :3, :3])),
    "linear": ([(4, 2, 3), (4, 5), (5,)], linear),
    "conv2d-dense": ([(4, 1, 5, 5), (6, 4, 3, 3), (6,)],
                     lambda x, w, b: conv2d(x, w, b, ConvSpec(4, 6, (3, 3), padding=1))),
    "conv2d-depthwise": ([(4, 5, 5), (4, 1, 3, 3), (4,)],
                         lambda x, w, b: conv2d(x, w, b, ConvSpec(
                             4, 4, (3, 3), padding=1, groups=4))),
    "conv2d-grouped": ([(4, 5, 5), (6, 2, 3, 3), (6,)],
                       lambda x, w, b: conv2d(x, w, b, ConvSpec(
                           4, 6, (3, 3), stride=2, dilation=2, padding=2, groups=2))),
    "bilinear_resize": ([(2, 3, 4)], lambda x: bilinear_resize(x, 5, 7)),
    "channel_resample": ([(5, 3, 3)], lambda x: channel_resample(x, 7)),
    "mean": ([(3, 4, 4)], lambda x: mean(x, (-2, -1))),
    "amax": ([(3, 4, 4)], lambda x: amax(x, (0,))),
    "softmax_over_branch": ([(3, 4, 4)], softmax_over_branch),
    "total_loss": ([(1, 6, 6)] * 3,
                   lambda *ds: total_loss(ds, _GT[0], _TOY)[0]),
}


class TestDtypeContract:
    """Each op keeps its operands' dtype, forward and backward, in both the
    float32 training mode and the float64 gradient-check mode."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(_OP_CASES))
    def test_op_keeps_dtype(self, name, dtype, received_grads):
        shapes, op = _OP_CASES[name]
        rng = np.random.default_rng(0)
        leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        cast_all(leaves, dtype)
        out = op(*leaves)
        assert out.dtype == dtype
        out.backward()
        for leaf in leaves:
            got = [dt for t, dt in received_grads if t is leaf]
            assert got and all(dt == dtype for dt in got), (leaf.shape, got)
        assert all(dt == dtype for _, dt in received_grads)

    def test_make_rejects_a_changed_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(DTypeError, match="_leaky_op: float32 operands gave a float64"):
            _leaky_op(x)
        with pytest.raises(DTypeError, match="_leaky_map: float32 operands gave a float64"):
            _leaky_map(x)

    def test_accumulate_rejects_a_changed_gradient_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = _leaky_backward_op(x)
        assert out.dtype == np.float32
        with pytest.raises(DTypeError, match="float64 gradient for a float32 tensor"):
            out.backward()

    def test_mixed_operands_promote_without_error(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        assert add(a, b).dtype == np.float64


def _leaky_op(x):
    def backward(g):
        pass

    return _make(x.data.astype(np.float64), (x,), backward)


def _leaky_backward_op(x):
    def backward(g):
        _accumulate(x, g.astype(np.float64))

    return _make(x.data * 2.0, (x,), backward)


def _leaky_map(x):
    return fixed_map(x, lambda d: d.astype(np.float64), lambda g: g)
