"""Scikit-learn style estimator wrapping the training and prediction paths."""

from __future__ import annotations

import inspect
from dataclasses import fields, replace

import numpy as np

from .config import ModelConfig, RunConfig
from .data import Sample
from .harness import fit_samples, load_or_generate, predict_sample
from .metrics import mae


def _as_samples(X, y=None):
    samples = []
    for i, item in enumerate(X):
        if isinstance(item, Sample):
            samples.append(item)
        else:
            main, aux = item
            gt = y[i] if y is not None else np.zeros(main.shape[1:],
                                                     dtype=np.float32)
            samples.append(Sample(np.asarray(main, dtype=np.float32),
                                  np.asarray(aux, dtype=np.float32),
                                  np.asarray(gt, dtype=np.float32), f"x{i:04d}"))
    return samples


class DSUNetEstimator:
    """fit/predict interface over the dual-encoder segmentation model.

    ``X`` is a sequence of Samples or (image_main, image_aux) pairs;
    ``y`` (for fit) is the matching sequence of binary masks.  With
    ``X=None``, fit trains on a synthetic dataset derived from ``seed``.
    """

    def __init__(self, profile=ModelConfig.profile, variant=ModelConfig.variant,
                 lr=RunConfig.lr, batch=RunConfig.batch, epochs=5,
                 seed=RunConfig.seed, mode=RunConfig.mode, n_train=16):
        params = dict(locals())
        del params["self"]
        self.set_params(**params)

    # sklearn-compatible parameter plumbing: __init__'s signature is the
    # parameter list, and each parameter is an attribute of the same name
    def get_params(self, deep=True):
        return {name: getattr(self, name)
                for name in inspect.signature(type(self)).parameters}

    def set_params(self, **params):
        valid = inspect.signature(type(self)).parameters
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for DSUNetEstimator")
            setattr(self, key, value)
        return self

    def _run_config(self):
        """Each ModelConfig and RunConfig field named like a parameter takes
        its value (`seed` sets both); the others keep their defaults."""
        params = self.get_params()

        def fields_of(cls):
            return {f.name: params[f.name] for f in fields(cls) if f.name in params}

        return RunConfig(model=ModelConfig(**fields_of(ModelConfig)),
                         **fields_of(RunConfig))

    def fit(self, X=None, y=None):
        """Train in memory; writes no file."""
        run = self._run_config()
        if X is not None:
            X = list(X)
            is_sample = [isinstance(item, Sample) for item in X]
            # Samples carry their masks; image pairs take theirs from y
            if y is not None and any(is_sample):
                raise ValueError("fit got masks in y for Samples, which carry their own")
            n_masks = 0 if y is None else len(y)
            if n_masks != len(X) and not (y is None and all(is_sample)):
                raise ValueError(f"fit got {len(X)} training inputs but "
                                 f"{n_masks} masks in y")
            samples = _as_samples(X, y)
        else:
            samples, _ = load_or_generate(replace(run, n_val=0))
        model, _, epoch_rows = fit_samples(run, samples)
        self.model_ = model
        self.epoch_losses_ = [row[-1] for row in epoch_rows]
        return self

    def predict(self, X):
        if not hasattr(self, "model_"):
            raise RuntimeError("estimator is not fitted; call fit first")
        return [predict_sample(self.model_, s) for s in _as_samples(X)]

    def score(self, X, y):
        """Mean (1 - MAE) over the given pairs; higher is better."""
        X, y = list(X), list(y)
        if not X or len(y) != len(X):
            raise ValueError(f"score needs one mask per input and at least one "
                             f"input; got {len(X)} inputs and {len(y)} masks")
        preds = self.predict(X)
        return float(np.mean([1.0 - mae(p, g) for p, g in zip(preds, y)]))

