"""Dense float tensors with hand-written backward passes.

The network graph is static, so there is no general autograd: every
operation builds its output tensor with a closure that knows how to push
gradients to its parents.  The ops: elementwise ``add``, ``mul``, ``relu``,
``sigmoid`` and ``gelu``; ``concat`` and the slicing ``narrow``; ``conv2d``,
``bilinear_resize`` and ``channel_resample``; ``mean`` and ``amax`` over given
axes; and ``softmax_over_branch``.  ``fixed_map`` builds the node of a
parameter-free linear map (``narrow``, ``mean``, the two resamplings and the
Haar pair of ``blocks``) from its forward and adjoint kernels.  Axis 0 is
every op's channel axis and the last two are its spatial axes: maps are
C x H x W, batches C x N x H x W.  Every learned per-position channel mix
(an adapter or attention projection, a head) is a 1 x 1 ``conv2d``.
Row-major float32; ``mean`` and the finite-difference oracle accumulate in
float64.

Every op keeps the dtype its operands share: float32 in training and inference,
float64 in the gradient-check mode (see :func:`cast_all`).  A constant mixed
into a feature map must therefore be a Python float, or be cast to the
operand's dtype first: under numpy 2's promotion rules (NEP 50) a numpy
float64 scalar such as ``np.sqrt(2.0)`` promotes a float32 array to float64,
where numpy 1 kept it float32.  Integer powers of a feature map are written
as products (``x * x * x``, not ``x**3``): numpy evaluates ``x**3`` with one
``pow`` call per element, 107 ms against 1.2 ms for the products on a float32
1024 x 37 x 37 map (2 cores, numpy 2.4.6).  :func:`_make` raises :class:`DTypeError`
when an op's output dtype differs from the one dtype its operands share, and
:func:`_accumulate` raises it when a gradient's dtype differs from its
tensor's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class DsuError(Exception):
    """An input the package rejects: ``dsu`` prints it as one line, exit 2."""


class ShapeError(DsuError, ValueError):
    """Operand shapes are inconsistent with an operation's contract."""


class ConfigError(DsuError, ValueError):
    """Geometry or hyperparameter configuration is invalid."""


class DTypeError(TypeError):
    """An op produced a dtype other than the one its operands share, or a
    gradient reached a tensor of another dtype."""


class GradCheckError(RuntimeError):
    """The gradient verification harness hit a non-finite value."""


class Tensor:
    """N-dimensional float array with an optional gradient buffer.

    ``requires_grad`` is the one gradient flag: a leaf with it set gets a
    gradient buffer from :meth:`backward`, and only such leaves may be
    given to the optimizer.  A module parameter is frozen by switching it
    off; switching it off for a forward pass records no backward graph.
    """

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self, grad=None):
        """Backpropagate from this tensor through the recorded graph.

        The graph is released as it is consumed: once a node's backward step
        has run, its gradient, its step and its links to its parents are
        dropped, so each intermediate map and gradient is freed as soon as
        nothing else holds it.  Leaves keep their gradients.  A second
        ``backward`` through a released node raises ``RuntimeError``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        _accumulate(self, grad)
        while topo:  # the root first; popping drops the list's reference
            node = topo.pop()
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _released

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)


def _released(g):
    """The backward step of a node whose graph an earlier backward released."""
    raise RuntimeError("backward through a graph that an earlier backward "
                       "already consumed and released")


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if g.dtype != t.dtype:
        # `+=` would cast it silently and hide a dtype leak in a backward pass
        raise DTypeError(f"a {g.dtype} gradient for a {t.dtype} tensor "
                         f"of shape {t.shape}")
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _make(data, parents, backward):
    out = Tensor(data)
    dtype = parents[0].dtype
    if out.dtype != dtype and all(p.dtype == dtype for p in parents):
        caller = sys._getframe(1)  # the op, or fixed_map on behalf of the op
        if caller.f_code is fixed_map.__code__:
            caller = caller.f_back
        raise DTypeError(f"{caller.f_code.co_name}: {dtype} operands gave a {out.dtype} output")
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def fixed_map(x, apply, adjoint):
    """A parameter-free linear map of ``x``: ``apply`` maps its array forward
    and ``adjoint`` maps a gradient back (both array -> array)."""
    return _make(apply(x.data), (x,), lambda g: _accumulate(x, adjoint(g)))


# -- elementwise ---------------------------------------------------------


def add(a, b):
    b = _as_tensor(b, a)
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape).astype(a.dtype))
        _accumulate(b, _unbroadcast(g, b.data.shape).astype(b.dtype))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    b = _as_tensor(b, a)
    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape).astype(a.dtype))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape).astype(b.dtype))

    return _make(out_data, (a, b), backward)


def relu(x):
    out_data = np.maximum(x.data, 0)

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _make(out_data, (x,), backward)


def logistic(z):
    """``1 / (1 + exp(-z))`` of an array, in its dtype.

    For very negative ``z``, ``exp`` overflows to inf and the value is exactly
    0; that overflow is expected and does not warn.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def sigmoid(x):
    y = logistic(x.data)

    def backward(g):
        _accumulate(x, g * y * (1.0 - y))

    return _make(y, (x,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """GeLU via the tanh approximation: ``x * p``, ``p = (1 + tanh(u)) / 2``.

    ``p`` is evaluated as ``1 / (1 + exp(-2u))``, the same function, which
    does not cancel for negative ``u`` as ``1 + tanh(u)`` does (in float32
    that form has a relative error of up to 13 on [-10, 0]).  ``exp``
    overflows to inf for very negative ``u``, where ``p`` is 0.
    """
    xv = x.data
    u = xv * xv
    u *= 0.044715
    u += 1.0
    u *= xv
    u *= -2.0 * _GELU_C  # -2u, u = c * (x + 0.044715 * x**3)
    with np.errstate(over="ignore"):
        np.exp(u, out=u)
    u += 1.0
    p = np.reciprocal(u, out=u)
    out_data = xv * p

    def backward(g):
        # d/dx = p + x * p' and p' = (1 - tanh(u)**2) / 2 * u' = 2 p (1 - p) u'
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (xv * xv))
        dx = p + 2.0 * xv * p * (1.0 - p) * d_inner
        _accumulate(x, g * dx)

    return _make(out_data, (x,), backward)


# -- shape manipulation ---------------------------------------------------


def concat(tensors, axis=0):
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, gt in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, gt)

    return _make(out_data, tuple(tensors), backward)


def narrow(x, index):
    """The window ``x.data[index]`` of a basic index (slices and ``...``)."""
    def adjoint(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return gx

    return fixed_map(x, lambda d: d[index].copy(), adjoint)


# -- convolution ----------------------------------------------------------

# Upper bound on one block of im2col columns in conv2d.  A block holds at
# least one channel group, so a dense convolution is always a single block.
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    groups: int = 1

    def __post_init__(self):
        for name in ("in_channels", "out_channels", "stride", "dilation", "groups"):
            if getattr(self, name) < 1:
                raise ConfigError(f"ConvSpec.{name} must be positive")
        if self.padding < 0:
            raise ConfigError("ConvSpec.padding must be non-negative")
        kh, kw = self.kernel
        if kh < 1 or kw < 1:
            raise ConfigError("ConvSpec.kernel extents must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ConfigError("channel counts must be divisible by groups")

    def out_size(self, h, w):
        kh, kw = self.kernel
        oh = (h + 2 * self.padding - self.dilation * (kh - 1) - 1) // self.stride + 1
        ow = (w + 2 * self.padding - self.dilation * (kw - 1) - 1) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ConfigError(
                f"convolution of {h}x{w} with {self} has non-positive output extent"
            )
        return oh, ow


def _taps(kh, kw, stride, dil, oh, ow):
    """``(i, j, index)`` per kernel tap; ``index`` selects from a padded
    (..., Hp, Wp) map the strided oh x ow view of inputs that tap meets."""
    return [(i, j, (..., slice(i * dil, i * dil + stride * (oh - 1) + 1, stride),
                    slice(j * dil, j * dil + stride * (ow - 1) + 1, stride)))
            for i in range(kh) for j in range(kw)]


def conv2d(x, weight, bias, spec):
    """2-D cross-correlation per ConvSpec; input C x H x W or C x N x H x W.

    One grouped GEMM (dense is groups = 1, depthwise groups = C) over im2col
    columns laid out as (groups, Cin/groups * kh * kw, N * OH * OW).  The
    columns are gathered one block of consecutive groups at a time, each
    block at most ``_BLOCK_BYTES`` (but at least one group), and each block
    runs one matmul into its slice of the output; the backward pass rebuilds
    a block's columns from the padded input instead of keeping them.
    """
    if x.data.ndim < 3:
        raise ShapeError(f"conv2d expects C x H x W or C x N x H x W input, got "
                         f"shape {x.data.shape}")
    cin, (h, w) = x.data.shape[0], x.data.shape[-2:]
    xd = x.data.reshape(cin, -1, h, w)
    n = xd.shape[1]
    kh, kw = spec.kernel
    cout, groups = spec.out_channels, spec.groups
    if cin != spec.in_channels:
        raise ShapeError(f"conv2d: input has {cin} channels, spec expects {spec.in_channels}")
    wshape = (cout, cin // groups, kh, kw)
    if weight.data.shape != wshape:
        raise ShapeError(f"conv2d: weight shape {weight.data.shape} != expected {wshape}")
    oh, ow = spec.out_size(h, w)
    taps = _taps(kh, kw, spec.stride, spec.dilation, oh, ow)
    pad = spec.padding
    xp = xd
    if pad:  # zeros and a copy: np.pad's generic path costs more on small maps
        xp = np.zeros(xd.shape[:2] + (h + 2 * pad, w + 2 * pad), dtype=xd.dtype)
        xp[..., pad:pad + h, pad:pad + w] = xd
    cpg, npix = cin // groups, n * oh * ow
    per_block = max(1, _BLOCK_BYTES // (cpg * kh * kw * npix * xd.itemsize))
    blocks = [(slice(g, g + per_block), slice(g * cpg, (g + per_block) * cpg))
              for g in range(0, groups, per_block)]
    wm = weight.data.reshape(groups, cout // groups, -1)

    def columns(chans):
        """im2col of input channels ``chans``: (their groups, cpg * kh * kw, N * OH * OW)."""
        xb = xp[chans]
        cols = np.empty((len(xb), kh, kw, n, oh, ow), dtype=xd.dtype)
        for i, j, idx in taps:
            cols[:, i, j] = xb[idx]
        return cols.reshape(-1, cpg * kh * kw, npix)

    out = np.empty((groups, cout // groups, npix), dtype=xd.dtype)
    for grp, chans in blocks:
        np.matmul(wm[grp], columns(chans), out=out[grp])
    out += bias.data.reshape(groups, -1, 1)
    out_data = out.reshape((cout,) + x.data.shape[1:-2] + (oh, ow))

    def backward(g):
        gd = g.reshape(cout, n, oh, ow)
        _accumulate(bias, gd.sum(axis=(1, 2, 3)))
        gm = gd.reshape(groups, cout // groups, npix)
        gw = np.empty_like(wm) if weight.requires_grad else None
        gxp = np.zeros_like(xp) if x.requires_grad else None
        for grp, chans in blocks:
            if gw is not None:
                np.matmul(gm[grp], columns(chans).transpose(0, 2, 1), out=gw[grp])
            if gxp is not None:
                wt = wm[grp].transpose(0, 2, 1)
                # one output channel per group (depthwise): the product is an
                # outer product, which a broadcast multiply does faster than
                # matmul's non-BLAS loop, with equal sums once added below
                gcols = (wt * gm[grp] if wt.shape[-1] == 1
                         else np.matmul(wt, gm[grp]))
                gcols = gcols.reshape(-1, kh, kw, n, oh, ow)
                for i, j, idx in taps:
                    gxp[chans][idx] += gcols[:, i, j]
        if gw is not None:
            _accumulate(weight, gw.reshape(wshape))
        if gxp is not None:
            _accumulate(x, gxp[..., pad:pad + h, pad:pad + w].reshape(x.data.shape))

    return _make(out_data, (x, weight, bias), backward)


def _interp_taps(n_in, n_out):
    """Corner-aligned linear taps: output j samples input coordinate
    j * (n_in-1) / (n_out-1) as (1 - frac) * in[j0] + frac * in[j1]."""
    if n_out == 1:
        pos = np.zeros(1)
    else:
        pos = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    j0 = np.floor(pos).astype(np.intp)
    j1 = np.minimum(j0 + 1, n_in - 1)
    return j0, j1, pos - j0


def _interp_matrix(n_in, n_out, dtype):
    """Row-stochastic (n_out, n_in) corner-aligned bilinear sampling matrix."""
    j0, j1, frac = _interp_taps(n_in, n_out)
    m = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    m[rows, j0] = 1.0 - frac
    m[rows, j1] += frac
    return m


def bilinear_resize(x, out_h, out_w):
    """Corner-aligned bilinear resampling of the two spatial axes (separable:
    out = My @ x @ Mx^T)."""
    if out_h < 1 or out_w < 1:
        raise ConfigError("bilinear_resize target extents must be >= 1")
    h, w = x.data.shape[-2:]
    if out_h == h and out_w == w:
        return x
    my = _interp_matrix(h, out_h, x.dtype)
    mx = _interp_matrix(w, out_w, x.dtype)
    return fixed_map(x, lambda d: np.matmul(my, np.matmul(d, mx.T)),
                     lambda g: np.matmul(my.T, np.matmul(g, mx)))


def channel_resample(x, out_channels):
    """Corner-aligned linear interpolation along the channel axis: output
    channel j samples input coordinate j * (Cin-1) / (Cout-1)."""
    cin = x.data.shape[0]
    if out_channels == cin:
        return x
    j0, j1, frac = _interp_taps(cin, out_channels)
    w1 = frac.astype(x.dtype).reshape((-1,) + (1,) * (x.data.ndim - 1))
    w0 = 1 - w1

    def adjoint(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, j0, g * w0)
        np.add.at(gx, j1, g * w1)
        return gx

    return fixed_map(x, lambda d: d[j0] * w0 + d[j1] * w1, adjoint)


# -- reductions -----------------------------------------------------------


def mean(x, axes):
    """Mean over the tuple ``axes``, kept with extent 1, summed in float64."""
    count = math.prod(x.data.shape[a] for a in axes)
    return fixed_map(
        x, lambda d: (d.sum(axis=axes, keepdims=True, dtype=np.float64) / count).astype(d.dtype),
        lambda g: np.broadcast_to(g * (1.0 / count), x.data.shape).astype(x.dtype))


def amax(x, axes):
    """Max over the tuple ``axes``, kept with extent 1; ties share the gradient."""
    out_data = x.data.max(axis=axes, keepdims=True)

    def backward(g):
        mask = (x.data == out_data).astype(x.dtype)
        counts = mask.sum(axis=axes, keepdims=True)
        _accumulate(x, mask / counts * g)

    return _make(out_data, (x,), backward)


def softmax_over_branch(x):
    """Per-pixel softmax across the leading (branch) axis of a K x ... map."""
    if x.data.shape[0] < 2:
        raise ShapeError("softmax_over_branch expects K >= 2 branches on axis 0")
    m = x.data.max(axis=0, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=0, keepdims=True)

    def backward(g):
        dot = (y * g).sum(axis=0, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _make(y, (x,), backward)


# -- verification ---------------------------------------------------------


def cast_all(tensors, dtype):
    """In-place dtype conversion (used to run gradient checks in float64)."""
    for t in tensors:
        t.data = t.data.astype(dtype)
        t.grad = None


def _finite_output(fn):
    out = fn()
    if not np.all(np.isfinite(out.data)):
        bad = np.argwhere(~np.isfinite(out.data))[0]
        raise GradCheckError(f"non-finite forward output at index {tuple(bad.tolist())}")
    return out


def grad_check(fn, tensors, rng=None, step=1e-5, max_coords=None, atol=1e-6):
    """Compare analytic gradients against central finite differences.

    ``fn`` rebuilds the forward graph on each call and returns the output
    tensor; the checked loss is the float64 sum of its entries.  ``tensors``
    are the leaves (parameters and/or inputs) to verify; they should be
    float64 (see :func:`cast_all`) so the oracle runs in 64-bit arithmetic.
    When ``max_coords`` is set, at most that many coordinates per tensor are
    probed (sampled with ``rng``).  Returns the worst relative error.
    """
    rng = rng or np.random.default_rng(0)
    flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = True
        t.grad = None
    try:
        out = _finite_output(fn)
        out.backward()
        analytic = [
            t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
            for t in tensors
        ]

        def loss_value():
            return _finite_output(fn).data.sum(dtype=np.float64)

        worst = 0.0
        for t, a in zip(tensors, analytic):
            flat = t.data.reshape(-1)
            aflat = a.reshape(-1)
            n = flat.size
            if max_coords is not None and n > max_coords:
                idxs = np.sort(rng.choice(n, size=max_coords, replace=False))
            else:
                idxs = range(n)
            for i in idxs:
                x0 = flat[i]
                h = step * max(1.0, abs(x0))
                flat[i] = x0 + h
                f_plus = loss_value()
                flat[i] = x0 - h
                f_minus = loss_value()
                flat[i] = x0
                fd = (f_plus - f_minus) / (2 * h)
                an = aflat[i]
                if abs(an) < atol and abs(fd) < atol:
                    continue
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd)))
        return worst
    finally:
        for t, f in zip(tensors, flags):
            t.requires_grad = f
            t.grad = None
