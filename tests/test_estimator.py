import inspect
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import dsunet.data
from dsunet import DSUNetEstimator
from dsunet.config import ModelConfig, RunConfig
from dsunet.data import generate_sample, load_dataset, write_dataset
from dsunet.harness import fit_samples, load_or_generate


def make_samples(n, seed_base=0):
    return [generate_sample(seed_base + i, "sod", "toy") for i in range(n)]


def fast_params():
    return dict(epochs=1, n_train=4, batch=2, seed=1)


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

    def test_fixed_values_are_not_parameters(self):
        with pytest.raises(TypeError, match="adapter_ratio"):
            DSUNetEstimator(adapter_ratio=0.5)
        with pytest.raises(ValueError, match="invalid parameter 'reduced_channels'"):
            DSUNetEstimator().set_params(reduced_channels=32)
        assert list(DSUNetEstimator().get_params()) == [
            "profile", "variant", "lr", "batch", "epochs", "seed", "mode", "n_train"]

    def test_every_parameter_names_a_config_field(self):
        # _run_config maps parameters onto fields by name, so a parameter
        # naming no field would be dropped without an error
        names = {f.name for cls in (ModelConfig, RunConfig) for f in fields(cls)}
        assert set(DSUNetEstimator().get_params()) <= names

    def test_defaults_are_the_configs_but_epochs_and_n_train(self):
        # seed sets both configs' seeds; its default is the run's
        config = {f.name: f.default for cls in (ModelConfig, RunConfig)
                  for f in fields(cls)}
        defaults = {name: p.default for name, p in
                    inspect.signature(DSUNetEstimator).parameters.items()}
        assert (defaults.pop("epochs"), defaults.pop("n_train")) == (5, 16)
        assert defaults == {name: config[name] for name in defaults}
        assert config["epochs"] != 5 and config["n_train"] != 16


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
        ref, _, _ = fit_samples(est._run_config(), samples)
        got = est.model_.named_parameters()
        for name, p in ref.named_parameters().items():
            assert got[name].data.tobytes() == p.data.tobytes(), name

        # the clipped, 8-bit copies a PGM round trip makes train another model
        write_dataset(str(tmp_path / "data"), samples, range(len(samples)))
        quantised = load_dataset(str(tmp_path / "data"))
        assert not np.array_equal(quantised[0].image_main, samples[0].image_main)
        other = DSUNetEstimator(**fast_params()).fit(
            [(s.image_main, s.image_aux) for s in quantised], y)
        assert any(other.model_.named_parameters()[name].data.tobytes()
                   != p.data.tobytes() for name, p in got.items())

    def test_fit_without_X_trains_on_the_loaders_samples(self):
        est = DSUNetEstimator(**fast_params()).fit()
        samples, _ = load_or_generate(est._run_config())
        ref, _, rows = fit_samples(est._run_config(), samples)
        assert est.epoch_losses_ == [row[-1] for row in rows]
        got = est.model_.named_parameters()
        for name, p in ref.named_parameters().items():
            assert got[name].data.tobytes() == p.data.tobytes(), name

    def test_fit_without_X_generates_only_its_training_samples(self, monkeypatch):
        calls = []
        real = dsunet.data.generate_sample

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dsunet.data, "generate_sample", counting)
        est = DSUNetEstimator(**fast_params()).fit()
        assert len(calls) == est.n_train

    @pytest.mark.parametrize("with_X", [False, True])
    def test_fit_writes_no_file(self, with_X, monkeypatch):
        def no_write(*args, **kwargs):
            raise AssertionError("fit wrote a file")

        monkeypatch.setattr("dsunet.harness.save_checkpoint", no_write)
        monkeypatch.setattr("tempfile.TemporaryDirectory", no_write)
        samples = make_samples(2) if with_X else None
        est = DSUNetEstimator(**fast_params()).fit(samples)
        assert len(est.epoch_losses_) == 1

    def test_fit_on_no_samples_raises(self):
        with pytest.raises(ValueError, match="no training samples"):
            DSUNetEstimator(**fast_params()).fit([], [])

    def test_fit_on_pairs_without_masks_raises(self):
        X = [(s.image_main, s.image_aux) for s in make_samples(2)]
        with pytest.raises(ValueError, match="2 training inputs but 0 masks"):
            DSUNetEstimator(**fast_params()).fit(X)

    def test_fit_with_too_few_masks_raises(self):
        samples = make_samples(3)
        X = [(s.image_main, s.image_aux) for s in samples]
        with pytest.raises(ValueError, match="3 training inputs but 2 masks"):
            DSUNetEstimator(**fast_params()).fit(X, [s.gt for s in samples[:2]])

    def test_fit_rejects_masks_for_samples(self):
        # Samples carry their own masks; masks in y beside them would be ignored
        samples = make_samples(2)
        with pytest.raises(ValueError, match="masks in y for Samples"):
            DSUNetEstimator(**fast_params()).fit(
                samples, [np.zeros_like(s.gt) for s in samples])

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

    def test_fit_rejects_a_misshapen_mask_before_training(self, monkeypatch):
        def no_model(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr("dsunet.harness.DSUNet", no_model)
        s = make_samples(1)[0]
        with pytest.raises(ValueError, match=re.escape(
                "sample 0 (x0000): gt shape (64, 64): 'gt' of profile 'toy' is (96, 96)")):
            DSUNetEstimator(**fast_params()).fit(
                [(s.image_main, s.image_aux)], [np.zeros((64, 64), dtype=np.float32)])

    def test_score_in_unit_interval(self):
        est = DSUNetEstimator(**fast_params()).fit()
        samples = make_samples(2, seed_base=60)
        score = est.score(samples, [s.gt for s in samples])
        assert 0.0 <= score <= 1.0

    def test_score_rejects_unpaired_or_empty_inputs(self):
        est = DSUNetEstimator(**fast_params()).fit()
        samples = make_samples(3, seed_base=60)
        with pytest.raises(ValueError, match="got 3 inputs and 1 masks"):
            est.score(samples, [samples[0].gt])
        with pytest.raises(ValueError, match="got 0 inputs and 0 masks"):
            est.score([], [])

    def test_same_seed_reproducible(self):
        a = DSUNetEstimator(**fast_params()).fit()
        b = DSUNetEstimator(**fast_params()).fit()
        s = make_samples(1, seed_base=70)
        pa = a.predict(s)[0]
        pb = b.predict(s)[0]
        assert pa.tobytes() == pb.tobytes()
