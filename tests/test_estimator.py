from dataclasses import replace

import numpy as np
import pytest

from dsunet import DSUNetEstimator
from dsunet.data import generate_sample, load_dataset, write_dataset
from dsunet.harness import train


def make_samples(n, seed_base=0):
    return [generate_sample(seed_base + i, "sod", "toy") for i in range(n)]


def fast_params():
    return dict(epochs=1, n_train=4, n_val=2, batch=2, seed=1)


class TestParamPlumbing:
    def test_get_params_round_trip(self):
        est = DSUNetEstimator(**fast_params())
        params = est.get_params()
        clone = DSUNetEstimator(**params)
        assert clone.get_params() == params

    def test_set_params_chains(self):
        est = DSUNetEstimator()
        out = est.set_params(lr=0.01, epochs=2)
        assert out is est
        assert est.lr == 0.01 and est.epochs == 2

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            DSUNetEstimator().set_params(gamma=0.1)


class TestFitPredict:
    def test_fit_on_synthetic_then_predict(self):
        est = DSUNetEstimator(**fast_params()).fit()
        assert hasattr(est, "model_")
        assert len(est.epoch_losses_) == 1
        samples = make_samples(2, seed_base=50)
        preds = est.predict(samples)
        assert len(preds) == 2
        for pred, s in zip(preds, samples):
            assert pred.shape == s.gt.shape
            assert pred.min() >= 0.0 and pred.max() <= 1.0

    def test_fit_on_explicit_pairs(self):
        samples = make_samples(4)
        X = [(s.image_main, s.image_aux) for s in samples]
        y = [s.gt for s in samples]
        est = DSUNetEstimator(**fast_params()).fit(X, y)
        preds = est.predict(X)
        assert len(preds) == 4

    def test_fit_trains_on_the_callers_arrays(self, tmp_path):
        # mean/std-style inputs: well outside [0, 1]
        samples = [replace(s, image_main=(s.image_main - 0.5) * 3.0,
                           image_aux=(s.image_aux - 0.5) * 3.0)
                   for s in make_samples(4, seed_base=30)]
        X = [(s.image_main, s.image_aux) for s in samples]
        y = [s.gt for s in samples]
        est = DSUNetEstimator(**fast_params()).fit(X, y)
        ref = train(est._run_config(str(tmp_path / "ref")), samples=samples)
        got = est.model_.named_parameters()
        for name, p in ref.model.named_parameters().items():
            assert got[name].data.tobytes() == p.data.tobytes(), name

        # the clipped, 8-bit copies a PGM round trip makes train another model
        write_dataset(str(tmp_path / "data"), samples, range(len(samples)))
        quantised = load_dataset(str(tmp_path / "data"))
        assert not np.array_equal(quantised[0].image_main, samples[0].image_main)
        other = DSUNetEstimator(**fast_params()).fit(
            [(s.image_main, s.image_aux) for s in quantised], y)
        assert any(other.model_.named_parameters()[name].data.tobytes()
                   != p.data.tobytes() for name, p in got.items())

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DSUNetEstimator().predict(make_samples(1))

    def test_input_validation_on_shapes(self):
        est = DSUNetEstimator(**fast_params()).fit()
        bad = [(np.zeros((3, 64, 64), dtype=np.float32),
                np.zeros((3, 126, 126), dtype=np.float32))]
        with pytest.raises(ValueError, match="image_main shape"):
            est.predict(bad)

    def test_fit_validates_training_shapes(self):
        bad_main = np.zeros((3, 64, 64), dtype=np.float32)
        aux = np.zeros((3, 126, 126), dtype=np.float32)
        with pytest.raises(ValueError, match="sample 0"):
            DSUNetEstimator(**fast_params()).fit(
                [(bad_main, aux)], [np.zeros((64, 64), dtype=np.float32)])

    def test_score_in_unit_interval(self):
        est = DSUNetEstimator(**fast_params()).fit()
        samples = make_samples(2, seed_base=60)
        score = est.score(samples, [s.gt for s in samples])
        assert 0.0 <= score <= 1.0

    def test_same_seed_reproducible(self):
        a = DSUNetEstimator(**fast_params()).fit()
        b = DSUNetEstimator(**fast_params()).fit()
        s = make_samples(1, seed_base=70)
        pa = a.predict(s)[0]
        pb = b.predict(s)[0]
        assert pa.tobytes() == pb.tobytes()
