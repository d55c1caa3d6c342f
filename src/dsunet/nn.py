"""Parameter registry and thin layer wrappers over the tensor ops.

Layers take an initialiser ``init(shape, fan_in) -> float32 array`` and call
it once per parameter, in registration order.  A fresh model passes
:func:`seeded_init`; a model whose values are assigned right after
construction (a loaded checkpoint) passes :func:`placeholder_init`.
Every layer has a bias, and its parameters start with ``requires_grad`` on;
a module holding frozen weights calls :meth:`Module.freeze` at the end of its
own ``__init__``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .tensor import ConvSpec, Tensor, conv2d, linear


class Module:
    """Base class with a deterministic, insertion-ordered parameter registry."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._children: dict[str, Module] = {}

    def register(self, name, tensor):
        self._params[name] = tensor
        return tensor

    def add(self, name, module):
        self._children[name] = module
        return module

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix=""):
        out: dict[str, Tensor] = {}
        for name, p in self._params.items():
            out[prefix + name] = p
        for name, child in self._children.items():
            out.update(child.named_parameters(prefix + name + "."))
        return out

    def parameters(self):
        return list(self.named_parameters().values())

    def trainable_parameters(self):
        return {n: p for n, p in self.named_parameters().items() if p.requires_grad}

    def freeze(self):
        for p in self.parameters():
            p.requires_grad = False
        return self


def uniform_init(rng, shape, fan_in):
    """A float64 draw cast to float32, drawn 2**20 values at a time (no whole float64 copy)."""
    bound = 1.0 / np.sqrt(fan_in)
    out = np.empty(shape, dtype=np.float32)
    for part in np.split(out.reshape(-1), range(1 << 20, out.size, 1 << 20)):
        part[...] = rng.uniform(-bound, bound, size=part.size)
    return out


def seeded_init(rng):
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws from ``rng``, in call order."""
    return partial(uniform_init, rng)


def placeholder_init(shape, fan_in):
    """Uninitialised float32 storage for a parameter whose value is assigned
    next; no random draw, and the pages of a large array are never touched."""
    return np.empty(shape, dtype=np.float32)


class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel, init, stride=1, padding=0,
                 dilation=1, groups=1):
        super().__init__()
        if isinstance(kernel, int):
            kernel = (kernel, kernel)
        self.spec = ConvSpec(in_channels, out_channels, kernel, stride, padding,
                             dilation, groups)
        kh, kw = kernel
        fan_in = (in_channels // groups) * kh * kw
        self.weight = self.register(
            "weight", Tensor(init((out_channels, in_channels // groups, kh, kw), fan_in),
                             requires_grad=True))
        self.bias = self.register(
            "bias", Tensor(init((out_channels,), fan_in), requires_grad=True))

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, self.spec)


class Linear(Module):
    def __init__(self, in_features, out_features, init):
        super().__init__()
        self.weight = self.register(
            "weight", Tensor(init((in_features, out_features), in_features),
                             requires_grad=True))
        self.bias = self.register(
            "bias", Tensor(init((out_features,), in_features), requires_grad=True))

    def forward(self, x):
        return linear(x, self.weight, self.bias)
