import warnings

import numpy as np
import pytest

from dsunet.blocks import DecoderOutputs
from dsunet.config import ModelConfig
from dsunet.losses import pixel_weight_map, total_loss, weighted_bce, weighted_iou
from dsunet.tensor import (
    ConfigError,
    ConvSpec,
    DTypeError,
    ShapeError,
    Tensor,
    _accumulate,
    _make,
    add,
    avg_pool2d,
    bilinear_resize,
    cast_all,
    concat,
    conv2d,
    crop2d,
    gelu,
    grad_check,
    linear,
    logistic,
    mul,
    narrow,
    pad_reflect_br,
    pointwise_activation,
    reduce,
    relu,
    reshape,
    sigmoid,
    softmax_over_branch,
    transpose,
)


def brute_force_conv(x, w, bias, stride, pad, dil, groups=1):
    """Per-output-pixel loop convolution oracle, in float64."""
    n, cin, h, w_in = x.shape
    cout, cpg, kh, kw = w.shape
    opg = cout // groups
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - dil * (kh - 1) - 1) // stride + 1
    ow = (w_in + 2 * pad - dil * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, cout, oh, ow))
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
                                    xp[b, c0 + ci, i * stride + ki * dil,
                                       j * stride + kj * dil]
                                    * float(w[co, ci, ki, kj])
                                )
                    out[b, co, i, j] = acc + (float(bias[co]) if bias is not None else 0.0)
    return out


class TestConv2d:
    def test_all_ones_kernel_interior_and_corner(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        spec = ConvSpec(1, 1, (3, 3), stride=1, padding=1)
        out = conv2d(x, w, None, spec).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == 4.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = conv2d(x, w, None, ConvSpec(1, 1, (1, 1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_depthwise_channel_independence(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        w = Tensor(rng.standard_normal((3, 1, 3, 3)).astype(np.float32))
        spec = ConvSpec(3, 3, (3, 3), padding=1, groups=3)
        base = conv2d(Tensor(x), w, None, spec).data
        x2 = x.copy()
        x2[0, 1] += 1.0  # perturb channel 1 only
        pert = conv2d(Tensor(x2), w, None, spec).data
        np.testing.assert_array_equal(base[0, 0], pert[0, 0])
        np.testing.assert_array_equal(base[0, 2], pert[0, 2])
        assert np.any(base[0, 1] != pert[0, 1])

    @pytest.mark.parametrize("stride,pad,dil", [(1, 0, 1), (1, 1, 1), (2, 1, 1),
                                                (1, 2, 2)])
    def test_matches_brute_force(self, stride, pad, dil):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 4, 4))
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
    def test_every_path_matches_the_loop_oracle(self, kind, stride, dil, pad):
        cin, cout, groups = {"dense": (4, 6, 1), "groups2": (4, 6, 2),
                             "depthwise": (4, 4, 4)}[kind]
        rng = np.random.default_rng(100 * stride + 10 * dil + pad)
        x = rng.standard_normal((2, cin, 9, 8))
        w = rng.standard_normal((cout, cin // groups, 3, 2))
        b = rng.standard_normal(cout)
        spec = ConvSpec(cin, cout, (3, 2), stride=stride, padding=pad, dilation=dil,
                        groups=groups)
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            xs, ws, bs = (a.astype(dtype) for a in (x, w, b))
            want = brute_force_conv(xs, ws, bs, stride, pad, dil, groups)
            for batched in (True, False):
                xin = xs if batched else xs[0]
                got = conv2d(Tensor(xin), Tensor(ws), Tensor(bs), spec).data
                assert got.dtype == dtype
                ref = want if batched else want[0]
                assert got.shape == ref.shape
                # error relative to the largest output, so a cancelling
                # output does not count as a large relative error
                assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()

    @pytest.mark.parametrize("xshape,spec", [
        ((3, 7, 7), ConvSpec(3, 3, (3, 3), stride=2, padding=1, groups=3)),
        ((3, 7, 6), ConvSpec(3, 3, (3, 3), padding=2, dilation=2, groups=3)),
        ((2, 3, 5, 5), ConvSpec(3, 3, (3, 3), padding=1, groups=3)),
        ((2, 4, 5, 5), ConvSpec(4, 6, (3, 3), stride=2, padding=1, groups=2)),
        ((2, 4, 5, 5), ConvSpec(4, 3, (3, 3), padding=1)),
    ], ids=["depthwise-stride2", "depthwise-dilation2", "depthwise-batched",
            "grouped-batched", "dense-batched"])
    def test_gradients_off_the_unit_stride_path(self, xshape, spec):
        rng = np.random.default_rng(12)
        kh, kw = spec.kernel
        x = Tensor(rng.standard_normal(xshape))
        w = Tensor(rng.standard_normal((spec.out_channels, spec.in_channels // spec.groups,
                                        kh, kw)), trainable=True)
        b = Tensor(rng.standard_normal(spec.out_channels), trainable=True)
        cast_all([x, w, b], np.float64)
        # a linear op: the finite-difference round-off alone reaches 2.5e-6
        # on the batched dense case
        assert grad_check(lambda: conv2d(x, w, b, spec), [x, w, b]) < 1e-5

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(x, w, None, ConvSpec(3, 1, (3, 3)))

    def test_nonpositive_output_raises(self):
        with pytest.raises(ConfigError, match="non-positive"):
            ConvSpec(1, 1, (5, 5)).out_size(3, 3)

    def test_grouped_conv_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)), trainable=True)
        b = Tensor(rng.standard_normal(4), trainable=True)
        spec = ConvSpec(4, 4, (3, 3), padding=1, groups=2)
        cast_all([x, w, b], np.float64)
        err = grad_check(lambda: conv2d(x, w, b, spec), [x, w, b])
        assert err < 1e-6


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        w = Tensor(np.eye(3, dtype=np.float32))
        out = linear(x, w, None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_sum(self):
        out = linear(Tensor([3.0, 4.0]), Tensor([[1.0], [1.0]]),
                     Tensor([0.0]))
        assert out.data[0] == 7.0

    def test_trailing_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), None)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 4)))
        w = Tensor(rng.standard_normal((4, 2)), trainable=True)
        b = Tensor(rng.standard_normal(2), trainable=True)
        cast_all([x, w, b], np.float64)
        assert grad_check(lambda: linear(x, w, b), [x, w, b]) < 1e-4


class TestActivations:
    def test_fixed_points(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        assert sigmoid(Tensor([0.0])).data[0] == 0.5
        assert relu(Tensor([-1.0])).data[0] == 0.0

    def test_gelu_at_three(self):
        got = float(gelu(Tensor([3.0], dtype=np.float64)).data[0])
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

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            pointwise_activation(Tensor([1.0]), "tanh")

    def test_dispatch(self):
        x = Tensor([-1.0, 2.0])
        np.testing.assert_array_equal(pointwise_activation(x, "relu").data,
                                      relu(x).data)


class TestBilinearResize:
    def test_identity_size(self):
        x = Tensor(np.random.default_rng(0).random((2, 4, 4)))
        out = bilinear_resize(x, 4, 4)
        np.testing.assert_array_equal(out.data, x.data)

    def test_2x2_to_3x3_center(self):
        x = Tensor(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        out = bilinear_resize(x, 3, 3, align_corners=True)
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


class TestAvgPool:
    def test_constant_interior(self):
        x = Tensor(np.full((1, 6, 6), 2.5, dtype=np.float32))
        out = avg_pool2d(x, 3, stride=1, padding=0)
        np.testing.assert_allclose(out.data, 2.5, rtol=1e-6)

    def test_1x1_identity(self):
        x = Tensor(np.random.default_rng(1).random((2, 3, 3)))
        out = avg_pool2d(x, 1)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-6)

    def test_count_include_pad_corner(self):
        x = Tensor(np.ones((1, 2, 2), dtype=np.float32))
        out = avg_pool2d(x, 3, stride=1, padding=1)
        assert out.data[0, 0, 0] == pytest.approx(4.0 / 9.0)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 4, 4)))
        cast_all([x], np.float64)
        assert grad_check(lambda: avg_pool2d(x, 3, stride=1, padding=1), [x]) < 1e-6

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0)])
    def test_matches_a_uniform_depthwise_conv(self, stride, padding):
        x = np.random.default_rng(3).standard_normal((2, 3, 7, 6))
        w = np.full((3, 1, 3, 3), 1.0 / 9.0)
        want = brute_force_conv(x, w, None, stride, padding, 1, groups=3)
        got = avg_pool2d(Tensor(x), 3, stride, padding).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestReduce:
    def test_mean_of_ones(self):
        out = reduce(Tensor(np.ones((2, 3, 3))), "mean", "all")
        assert out.data.reshape(()) == 1.0

    def test_max(self):
        out = reduce(Tensor(np.array([[[-1.0]], [[2.0]]])), "max", "all")
        assert out.data.reshape(()) == 2.0

    def test_channel_shapes(self):
        x = Tensor(np.random.default_rng(2).random((4, 3, 5)))
        assert reduce(x, "mean", "channel").shape == (1, 3, 5)
        assert reduce(x, "max", "channel").shape == (1, 3, 5)
        assert reduce(x, "sum", "spatial").shape == (4, 1, 1)

    def test_sum_gradient_is_broadcast(self):
        x = Tensor(np.random.default_rng(3).random((2, 2, 2)))
        x.requires_grad = True
        reduce(x, "sum", "all").backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_gradients(self):
        rng = np.random.default_rng(11)
        for op in ("mean", "sum", "max"):
            for axis in ("channel", "spatial", "all"):
                x = Tensor(rng.standard_normal((3, 4, 4)))
                cast_all([x], np.float64)
                assert grad_check(lambda: reduce(x, op, axis), [x]) < 1e-6


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
        out = softmax_over_branch(Tensor(rng.standard_normal((5, 3, 3)))).data
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


class TestGradCheckHarness:
    def test_composition_conv_gelu_conv(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 4, 4)))
        w1 = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4, trainable=True)
        w2 = Tensor(rng.standard_normal((2, 3, 3, 3)) * 0.4, trainable=True)
        s1 = ConvSpec(2, 3, (3, 3), padding=1)
        s2 = ConvSpec(3, 2, (3, 3), padding=1)
        cast_all([x, w1, w2], np.float64)
        err = grad_check(lambda: conv2d(gelu(conv2d(x, w1, None, s1)), w2, None, s2),
                         [x, w1, w2])
        assert err < 1e-4

    def test_frozen_tensor_gets_no_grad_buffer(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3)))
        w_frozen = Tensor(rng.standard_normal((3, 2)), trainable=False)
        out = linear(x, w_frozen, None)
        out.backward()
        assert w_frozen.grad is None
        assert x.grad is None

    def test_multi_seed_grad_check(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((3, 4)))
            w = Tensor(rng.standard_normal((4, 3)), trainable=True)
            cast_all([x, w], np.float64)
            assert grad_check(lambda: sigmoid(linear(x, w, None)), [x, w]) < 1e-4


class TestDeterminism:
    def test_forward_repeatable(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        spec = ConvSpec(3, 4, (3, 3), padding=1)
        a = conv2d(Tensor(x), Tensor(w), None, spec).data
        b = conv2d(Tensor(x), Tensor(w), None, spec).data
        assert a.tobytes() == b.tobytes()


_GT = (np.random.default_rng(11).random((1, 6, 6)) > 0.5).astype(np.float32)
_GT_WEIGHTS = pixel_weight_map(_GT[0])
_TOY = ModelConfig(profile="toy", seed=0)

# (leaf shapes, op applied to the leaves); every public op of tensor.py and
# losses.py, with each conv2d and reduce branch taken once
_OP_CASES = {
    "add": ([(2, 3, 3), (1, 3, 1)], add),
    "mul": ([(2, 3, 3), (2, 3, 3)], mul),
    "relu": ([(2, 3, 3)], relu),
    "sigmoid": ([(2, 3, 3)], sigmoid),
    "gelu": ([(2, 3, 3)], gelu),
    "pointwise_activation": ([(2, 3, 3)], lambda x: pointwise_activation(x, "gelu")),
    "reshape": ([(2, 3, 4)], lambda x: reshape(x, (6, 4))),
    "transpose": ([(2, 3, 4)], lambda x: transpose(x, (2, 0, 1))),
    "concat": ([(2, 3, 3), (1, 3, 3)], lambda a, b: concat([a, b], axis=0)),
    "narrow": ([(4, 3, 3)], lambda x: narrow(x, 0, 1, 2)),
    "pad_reflect_br": ([(2, 3, 4)], lambda x: pad_reflect_br(x, 1, 1)),
    "crop2d": ([(2, 4, 5)], lambda x: crop2d(x, 3, 3)),
    "linear": ([(2, 3, 4), (4, 5), (5,)], linear),
    "conv2d-dense": ([(1, 4, 5, 5), (6, 4, 3, 3), (6,)],
                     lambda x, w, b: conv2d(x, w, b, ConvSpec(4, 6, (3, 3), padding=1))),
    "conv2d-depthwise": ([(4, 5, 5), (4, 1, 3, 3), (4,)],
                         lambda x, w, b: conv2d(x, w, b, ConvSpec(
                             4, 4, (3, 3), padding=1, groups=4))),
    "conv2d-grouped": ([(4, 5, 5), (6, 2, 3, 3)],
                       lambda x, w: conv2d(x, w, None, ConvSpec(
                           4, 6, (3, 3), stride=2, dilation=2, padding=2, groups=2))),
    "avg_pool2d": ([(2, 5, 5)], lambda x: avg_pool2d(x, 3, 1, 1)),
    "bilinear_resize": ([(2, 3, 4)], lambda x: bilinear_resize(x, 5, 7)),
    "reduce-mean": ([(3, 4, 4)], lambda x: reduce(x, "mean", "spatial")),
    "reduce-sum": ([(3, 4, 4)], lambda x: reduce(x, "sum", "all")),
    "reduce-max": ([(3, 4, 4)], lambda x: reduce(x, "max", "channel")),
    "softmax_over_branch": ([(3, 4, 4)], softmax_over_branch),
    "weighted_bce": ([(1, 6, 6)], lambda z: weighted_bce(z, _GT, _GT_WEIGHTS)),
    "weighted_iou": ([(1, 6, 6)], lambda z: weighted_iou(z, _GT, _GT_WEIGHTS)),
    "total_loss": ([(1, 6, 6)] * 3,
                   lambda *ds: total_loss(DecoderOutputs(*ds), _GT[0], _TOY)[0]),
}


class TestDtypeContract:
    """Each op keeps its operands' dtype, forward and backward, in both the
    float32 training mode and the float64 gradient-check mode."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(_OP_CASES))
    def test_op_keeps_dtype(self, name, dtype, received_grads):
        shapes, op = _OP_CASES[name]
        rng = np.random.default_rng(0)
        leaves = [Tensor(rng.standard_normal(s), trainable=True) for s in shapes]
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

    def test_accumulate_rejects_a_changed_gradient_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), trainable=True)
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
