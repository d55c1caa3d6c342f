"""Scikit-learn style estimator wrapping the training and prediction paths."""

from __future__ import annotations

import tempfile

import numpy as np

from .config import ModelConfig, RunConfig
from .data import Sample
from .harness import predict_sample, train


def _check_sample(sample, profile, index):
    exp_main = (3, profile.main_size, profile.main_size)
    exp_aux = (3, profile.aux_size, profile.aux_size)
    if sample.image_main.shape != exp_main:
        raise ValueError(f"sample {index}: image_main shape "
                         f"{sample.image_main.shape}, expected {exp_main}")
    if sample.image_aux.shape != exp_aux:
        raise ValueError(f"sample {index}: image_aux shape "
                         f"{sample.image_aux.shape}, expected {exp_aux}")


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

    def __init__(self, profile="toy", variant="full", adapter_ratio=0.25,
                 reduced_channels=64, lr=1e-3, weight_decay=5e-4, batch=4,
                 epochs=5, seed=42, mode="sod", n_train=16, n_val=4):
        self.profile = profile
        self.variant = variant
        self.adapter_ratio = adapter_ratio
        self.reduced_channels = reduced_channels
        self.lr = lr
        self.weight_decay = weight_decay
        self.batch = batch
        self.epochs = epochs
        self.seed = seed
        self.mode = mode
        self.n_train = n_train
        self.n_val = n_val

    # sklearn-compatible parameter plumbing
    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in (
            "profile", "variant", "adapter_ratio", "reduced_channels", "lr",
            "weight_decay", "batch", "epochs", "seed", "mode", "n_train",
            "n_val")}

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for DSUNetEstimator")
            setattr(self, key, value)
        return self

    def _run_config(self, out_dir):
        model = ModelConfig(profile=self.profile, variant=self.variant,
                            adapter_ratio=self.adapter_ratio,
                            reduced_channels=self.reduced_channels,
                            seed=self.seed)
        return RunConfig(model=model, lr=self.lr,
                         weight_decay=self.weight_decay, batch=self.batch,
                         epochs=self.epochs, seed=self.seed, mode=self.mode,
                         n_train=self.n_train, n_val=self.n_val,
                         out_dir=out_dir)

    def fit(self, X=None, y=None):
        with tempfile.TemporaryDirectory() as tmp:
            run = self._run_config(tmp)
            if X is not None:
                samples = _as_samples(X, y)
                for i, s in enumerate(samples):
                    _check_sample(s, run.model.resolved_profile, i)
                run.n_train = len(samples)
                run.n_val = 0
                result = train(run, samples=samples)
            else:
                result = train(run)
        self.model_ = result.model
        self.epoch_losses_ = [row[-1] for row in result.epoch_rows]
        return self

    def predict(self, X):
        if not hasattr(self, "model_"):
            raise RuntimeError("estimator is not fitted; call fit first")
        samples = _as_samples(X)
        for i, s in enumerate(samples):
            _check_sample(s, self.model_.profile, i)
        return [predict_sample(self.model_, s) for s in samples]

    def score(self, X, y):
        """Mean (1 - MAE) over the given pairs; higher is better."""
        from .metrics import mae

        preds = self.predict(X)
        return float(np.mean([1.0 - mae(p, g) for p, g in zip(preds, y)]))

