"""AdamW with decoupled weight decay over a named parameter registry."""

from __future__ import annotations

import numpy as np

from .tensor import DsuError


class NonFiniteGradient(DsuError, RuntimeError):
    def __init__(self, name):
        super().__init__(f"non-finite gradient for parameter {name!r}")
        self.name = name


class AdamW:
    """theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta).

    Decay is decoupled: it scales the parameter directly and is never
    added to the gradient; the caller owns lr and wd.  Only tensors with
    ``requires_grad`` on may be registered.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8   # AdamW's usual constants

    def __init__(self, params, lr, weight_decay):
        for name, p in params.items():
            if not p.requires_grad:
                raise ValueError(f"frozen tensor {name!r} passed to the optimizer")
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(name)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                 + self.weight_decay * p.data)

    def state_tensors(self):
        """Moment buffers and step counter, for checkpointing."""
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        out["opt.step"] = np.array([float(self.step_count)], dtype=np.float32)
        return out

    def load_state_tensors(self, tensors):
        for name in self.params:
            self.m[name] = tensors[f"opt.m.{name}"].copy()
            self.v[name] = tensors[f"opt.v.{name}"].copy()
        self.step_count = int(tensors["opt.step"][0])
