"""Dense float tensors with hand-written backward passes.

The network graph is static, so there is no general autograd: every
operation builds its output tensor with a closure that knows how to push
gradients to its parents.  Feature maps are C x H x W, batches N x C x H x W,
row-major float32.  Reductions and the finite-difference oracle accumulate
in float64.

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
from dataclasses import dataclass

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes are inconsistent with an operation's contract."""


class ConfigError(ValueError):
    """Geometry or hyperparameter configuration is invalid."""


class DTypeError(TypeError):
    """An op produced a dtype other than the one its operands share, or a
    gradient reached a tensor of another dtype."""


class GradCheckError(RuntimeError):
    """The gradient verification harness hit a non-finite value."""


class Tensor:
    """N-dimensional float array with an optional gradient buffer.

    ``trainable`` marks leaf parameters eligible for optimizer updates.
    ``requires_grad`` controls whether a gradient buffer is populated; it
    defaults to ``trainable`` but may be switched on for inputs that are
    being gradient-checked.
    """

    def __init__(self, data, trainable=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.trainable = bool(trainable)
        self.requires_grad = self.trainable
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

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Backpropagate from this tensor through the recorded graph."""
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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def detach(self):
        out = Tensor(self.data)
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, trainable={self.trainable})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)


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
        op = backward.__qualname__.split(".")[0]
        raise DTypeError(f"{op}: {dtype} operands gave a {out.dtype} output")
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


_ACTIVATIONS = {"gelu": gelu, "relu": relu, "sigmoid": sigmoid}


def pointwise_activation(x, kind):
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation {kind!r}") from None
    return fn(x)


# -- shape manipulation ---------------------------------------------------


def reshape(x, shape):
    out_data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _make(out_data, (x,), backward)


def transpose(x, axes):
    axes = tuple(axes)
    out_data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(x, np.transpose(g, inv))

    return _make(out_data, (x,), backward)


def concat(tensors, axis=0):
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out_data, tuple(tensors), backward)


def narrow(x, axis, start, length):
    """Contiguous slice along one axis."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = x.data[idx].copy()

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        _accumulate(x, gx)

    return _make(out_data, (x,), backward)


def pad_reflect_br(x, pad_h, pad_w):
    """Reflect-pad a C x H x W map at the bottom/right by 0 or 1 pixels."""
    if pad_h == 0 and pad_w == 0:
        return x
    c, h, w = x.data.shape
    if (pad_h and h < 2) or (pad_w and w < 2):
        raise ShapeError("reflect padding needs spatial extent >= 2")
    out_data = np.pad(x.data, ((0, 0), (0, pad_h), (0, pad_w)), mode="reflect")
    src_r = np.concatenate([np.arange(h), [h - 2]] if pad_h else [np.arange(h)])
    src_c = np.concatenate([np.arange(w), [w - 2]] if pad_w else [np.arange(w)])

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), src_r[:, None], src_c[None, :]), g)
        _accumulate(x, gx)

    return _make(out_data, (x,), backward)


def crop2d(x, out_h, out_w):
    """Keep the top-left out_h x out_w window of a C x H x W map."""
    c, h, w = x.data.shape
    if out_h == h and out_w == w:
        return x
    out_data = x.data[:, :out_h, :out_w].copy()

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, :out_h, :out_w] = g
        _accumulate(x, gx)

    return _make(out_data, (x,), backward)


# -- linear / convolution -------------------------------------------------


def linear(x, weight, bias=None):
    """Affine map over the trailing axis: (..., Din) -> (..., Dout)."""
    din, dout = weight.data.shape
    if x.data.shape[-1] != din:
        raise ShapeError(
            f"linear: trailing extent {x.data.shape[-1]} != weight Din {din}"
        )
    out_data = x.data @ weight.data
    if bias is not None:
        out_data = out_data + bias.data

    def backward(g):
        g2 = g.reshape(-1, dout)
        x2 = x.data.reshape(-1, din)
        _accumulate(x, (g @ weight.data.T).reshape(x.data.shape))
        _accumulate(weight, x2.T @ g2)
        if bias is not None:
            _accumulate(bias, g2.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, backward)


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


def _unpad(gxp, pad, batched):
    """Crop a padded (N,C,Hp,Wp) input gradient back to the input's shape."""
    h, w = gxp.shape[2] - 2 * pad, gxp.shape[3] - 2 * pad
    gx = gxp[:, :, pad : pad + h, pad : pad + w]
    return gx if batched else gx[0]


def conv2d(x, weight, bias, spec):
    """2-D cross-correlation per ConvSpec; input C x H x W or N x C x H x W.

    A depthwise convolution (groups == in == out channels) adds up, per
    kernel tap, a strided view of the padded input times that tap's
    per-channel weight.  Every other convolution is one grouped GEMM (dense
    is groups = 1) over a single im2col copy laid out as
    (groups, Cin/groups * kh * kw, N * OH * OW), which the backward pass reuses.
    """
    batched = x.data.ndim == 4
    xd = x.data if batched else x.data[None]
    n, cin, h, w = xd.shape
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
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    depthwise = groups == cin == cout

    if depthwise:
        wk = weight.data[:, 0, :, :, None, None]  # (C, kh, kw, 1, 1)
        out = np.zeros((n, cin, oh, ow), dtype=xd.dtype)
        for i, j, idx in taps:
            out += xp[idx] * wk[:, i, j]
    else:
        cols = np.empty((cin, kh, kw, n, oh, ow), dtype=xd.dtype)
        for i, j, idx in taps:
            cols[:, i, j] = xp[idx].transpose(1, 0, 2, 3)
        cols = cols.reshape(groups, -1, n * oh * ow)
        wm = weight.data.reshape(groups, cout // groups, -1)
        out = np.matmul(wm, cols).reshape(cout, n, oh, ow).transpose(1, 0, 2, 3)
        out = np.ascontiguousarray(out)
    if bias is not None:
        out += bias.data[:, None, None]
    out_data = out if batched else out[0]

    def backward(g):
        gd = g if batched else g[None]
        if bias is not None:
            _accumulate(bias, gd.sum(axis=(0, 2, 3)))
        gxp = np.zeros_like(xp) if x.requires_grad else None
        if depthwise:
            if weight.requires_grad:
                gw = np.empty((cin, kh, kw), dtype=gd.dtype)
                for i, j, idx in taps:
                    gw[:, i, j] = np.einsum("nchw,nchw->c", gd, xp[idx])
                _accumulate(weight, gw.reshape(wshape))
            if gxp is not None:
                for i, j, idx in taps:
                    gxp[idx] += gd * wk[:, i, j]
        else:
            gm = gd.transpose(1, 0, 2, 3).reshape(groups, cout // groups, n * oh * ow)
            if weight.requires_grad:
                _accumulate(weight, np.matmul(gm, cols.transpose(0, 2, 1)).reshape(wshape))
            if gxp is not None:
                gcols = np.matmul(wm.transpose(0, 2, 1), gm).reshape(cin, kh, kw, n, oh, ow)
                for i, j, idx in taps:
                    gxp[idx] += gcols[:, i, j].transpose(1, 0, 2, 3)
        if gxp is not None:
            _accumulate(x, _unpad(gxp, pad, batched))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, backward)


def avg_pool2d(x, kernel, stride=1, padding=0):
    """Window mean with count_include_pad semantics (denominator = kernel area)."""
    batched = x.data.ndim == 4
    xd = x.data if batched else x.data[None]
    spec = ConvSpec(xd.shape[1], xd.shape[1], (kernel, kernel), stride, padding)
    oh, ow = spec.out_size(xd.shape[2], xd.shape[3])
    taps = _taps(kernel, kernel, stride, 1, oh, ow)
    pads = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(xd, pads) if padding else xd
    area = kernel * kernel
    acc = np.zeros(xd.shape[:2] + (oh, ow), dtype=np.float64)
    for _, _, idx in taps:
        acc += xp[idx]
    out = (acc / area).astype(xd.dtype)
    out_data = out if batched else out[0]

    def backward(g):
        gd = (g if batched else g[None]) / area
        gxp = np.zeros_like(xp)
        for _, _, idx in taps:
            gxp[idx] += gd
        _accumulate(x, _unpad(gxp, padding, batched))

    return _make(out_data, (x,), backward)


def _interp_matrix(n_in, n_out, align_corners, dtype):
    """Row-stochastic (n_out, n_in) bilinear sampling matrix."""
    if align_corners:
        if n_out == 1:
            pos = np.zeros(1)
        else:
            pos = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    else:
        pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0, n_in - 1)
    j0 = np.floor(pos).astype(np.intp)
    j1 = np.minimum(j0 + 1, n_in - 1)
    frac = pos - j0
    m = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    m[rows, j0] = 1.0 - frac
    m[rows, j1] += frac
    return m


def bilinear_resize(x, out_h, out_w, align_corners=True):
    """Bilinear resampling of a C x H x W map (separable: out = My @ x @ Mx^T)."""
    if out_h < 1 or out_w < 1:
        raise ConfigError("bilinear_resize target extents must be >= 1")
    c, h, w = x.data.shape
    if out_h == h and out_w == w:
        return x
    my = _interp_matrix(h, out_h, align_corners, x.dtype)
    mx = _interp_matrix(w, out_w, align_corners, x.dtype)
    out_data = np.matmul(my, np.matmul(x.data, mx.T))

    def backward(g):
        _accumulate(x, np.matmul(my.T, np.matmul(g, mx)))

    return _make(out_data, (x,), backward)


# -- reductions -----------------------------------------------------------

_REDUCE_AXES = {"channel": (0,), "spatial": (1, 2), "all": (0, 1, 2)}


def reduce(x, op, axis):
    """Reduce a C x H x W map over channel, spatial, or all axes (keepdims)."""
    if x.data.ndim != 3:
        raise ShapeError("reduce expects a C x H x W tensor")
    try:
        axes = _REDUCE_AXES[axis]
    except KeyError:
        raise ConfigError(f"unknown reduce axis {axis!r}") from None

    if op in ("sum", "mean"):
        acc = x.data.sum(axis=axes, keepdims=True, dtype=np.float64)
        count = 1
        for a in axes:
            count *= x.data.shape[a]
        if op == "mean":
            acc = acc / count
        out_data = acc.astype(x.dtype)

        def backward(g):
            scale = 1.0 / count if op == "mean" else 1.0
            _accumulate(x, np.broadcast_to(g * scale, x.data.shape).astype(x.dtype))

    elif op == "max":
        out_data = x.data.max(axis=axes, keepdims=True)

        def backward(g):
            mask = (x.data == out_data).astype(x.dtype)
            counts = mask.sum(axis=axes, keepdims=True)
            _accumulate(x, mask / counts * g)

    else:
        raise ConfigError(f"unknown reduce op {op!r}")

    return _make(out_data, (x,), backward)


def softmax_over_branch(x):
    """Per-pixel softmax across the leading (branch) axis of a K x H x W map."""
    if x.data.ndim != 3 or x.data.shape[0] < 2:
        raise ShapeError("softmax_over_branch expects K x H x W with K >= 2")
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
        out = fn()
        if not np.all(np.isfinite(out.data)):
            bad = np.argwhere(~np.isfinite(out.data))[0]
            raise GradCheckError(f"non-finite forward output at index {tuple(bad)}")
        out.backward()
        analytic = [
            t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
            for t in tensors
        ]

        def loss_value():
            o = fn()
            if not np.all(np.isfinite(o.data)):
                bad = np.argwhere(~np.isfinite(o.data))[0]
                raise GradCheckError(f"non-finite forward output at index {tuple(bad)}")
            return o.data.sum(dtype=np.float64)

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
