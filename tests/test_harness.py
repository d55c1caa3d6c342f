import os
from dataclasses import replace

import numpy as np
import pytest

from dsunet.blocks import DSUNet
from dsunet.cli import main as cli_main
from dsunet.config import ModelConfig, RunConfig, render_config
from dsunet.data import generate_sample, read_pgm
from dsunet.harness import (
    LOG_HEADER,
    format_ablation_table,
    format_parameter_report,
    load_checkpoint,
    predict,
    predict_sample,
    save_checkpoint,
    train,
)
from dsunet.optim import AdamW, NonFiniteGradient
from dsunet.tensor import ShapeError, Tensor


def tiny_run(out_dir, **overrides):
    kwargs = dict(model=ModelConfig(profile="toy", seed=0), lr=1e-3,
                  batch=2, epochs=1, seed=1, n_train=4, n_val=2,
                  out_dir=out_dir)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestAdamW:
    def _param(self, value=1.0):
        return Tensor(np.full((3,), value, dtype=np.float64), trainable=True)

    def test_rejects_frozen(self):
        p = Tensor(np.zeros(3), trainable=False)
        with pytest.raises(ValueError, match="frozen"):
            AdamW({"w": p})

    def test_first_step_direction(self):
        # with a constant gradient the first update is -lr * (1 + wd)
        # for unit parameters: m_hat = g, v_hat = g^2, g/sqrt(g^2) = sign(g)
        p = self._param(1.0)
        opt = AdamW({"w": p}, lr=0.1, weight_decay=0.5)
        p.grad = np.full(3, 2.0)
        opt.step()
        want = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8) + 0.5 * 1.0)
        np.testing.assert_allclose(p.data, want, rtol=1e-9)

    def test_decay_is_decoupled(self):
        # zero gradient still shrinks the parameter, by exactly lr*wd*theta
        p = self._param(4.0)
        opt = AdamW({"w": p}, lr=0.01, weight_decay=0.1)
        p.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(p.data, 4.0 * (1 - 0.001), rtol=1e-12)

    def test_no_decay_no_grad_is_noop(self):
        p = self._param(2.0)
        opt = AdamW({"w": p}, lr=0.01, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(p.data, 2.0)

    def test_non_finite_gradient_raises(self):
        p = self._param()
        opt = AdamW({"w": p})
        p.grad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NonFiniteGradient, match="'w'"):
            opt.step()

    def test_state_round_trip(self):
        rng = np.random.default_rng(0)
        p1 = Tensor(rng.standard_normal(4), trainable=True)
        p2 = Tensor(rng.standard_normal(4).copy(), trainable=True)
        p2.data[:] = p1.data
        a = AdamW({"w": p1}, lr=0.05)
        for _ in range(3):
            p1.grad = rng.standard_normal(4)
            saved_grad = p1.grad.copy()
            a.step()
        # state_tensors exposes the live buffers; copy to freeze a snapshot
        state = {k: v.copy() for k, v in a.state_tensors().items()}
        p2.data[:] = p1.data  # weights travel separately from optimizer state

        b = AdamW({"w": p2}, lr=0.05)
        b.load_state_tensors(state)
        assert b.step_count == a.step_count
        # one more identical step from restored state matches exactly
        g = rng.standard_normal(4)
        p1.grad = g.copy()
        p2.grad = g.copy()
        a.step()
        b.step()
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_convergence_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), trainable=True)
        opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
        for _ in range(300):
            p.grad = 2.0 * p.data  # d/dx of |x|^2
            opt.step()
        assert np.max(np.abs(p.data)) < 1e-2


class TestCheckpoint:
    def test_round_trip_restores_weights_and_config(self, tmp_path):
        run = tiny_run(str(tmp_path))
        model = DSUNet(run.model)
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, model, run)
        back, back_run, raw = load_checkpoint(path)
        assert back_run == run
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(
                back.named_parameters()[name].data, p.data)
        assert "__config__" in raw

    def test_config_echo_is_readable_text(self, tmp_path):
        run = tiny_run(str(tmp_path), epochs=3)
        model = DSUNet(run.model)
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, model, run)
        _, _, raw = load_checkpoint(path)
        text = bytes(raw["__config__"].astype(np.uint8)).decode("utf-8")
        assert text == render_config(run)

    def test_shape_mismatch_detected(self, tmp_path):
        run = tiny_run(str(tmp_path))
        model = DSUNet(run.model)
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, model, run)
        from dsunet.container import MAGIC_CHECKPOINT, read_container, write_container

        tensors = read_container(path, magic=MAGIC_CHECKPOINT)
        name = next(n for n in tensors if n.endswith("weight"))
        tensors[name] = tensors[name][..., :1]
        write_container(path, tensors, magic=MAGIC_CHECKPOINT)
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)


    def test_loaded_parameters_are_owned_writeable_float32(self, tmp_path):
        run = tiny_run(str(tmp_path))
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, DSUNet(run.model), run)
        model, _, raw = load_checkpoint(path)
        for name, p in model.named_parameters().items():
            assert p.data.dtype == np.float32
            assert p.data.flags.owndata and p.data.flags.writeable
            assert p.data is raw[name]


class TestProbabilityMap:
    """predict_sample, predict and ablate share one tape-free forward."""

    def _model_and_sample(self):
        return (DSUNet(ModelConfig(profile="toy", seed=4)),
                generate_sample(9, "sod", "toy"))

    def test_equals_the_sigmoid_of_a_taped_forward(self):
        model, sample = self._model_and_sample()
        d3 = model(Tensor(sample.image_main), Tensor(sample.image_aux)).d3
        assert d3._parents != ()
        with np.errstate(over="ignore"):
            want = (1.0 / (1.0 + np.exp(-d3.data.astype(np.float64))))[0]
        got = predict_sample(model, sample)
        assert got.dtype == np.float64 and got.shape == sample.gt.shape
        assert got.tobytes() == want.tobytes()

    def test_forward_records_no_graph(self, monkeypatch):
        model, sample = self._model_and_sample()
        seen = []
        forward_pyramid = model.forward_pyramid

        def spy(*args):
            outputs = forward_pyramid(*args)
            seen.append(outputs.d3)
            return outputs

        monkeypatch.setattr(model, "forward_pyramid", spy)
        predict_sample(model, sample)
        (d3,) = seen
        assert d3._parents == () and d3._backward is None
        assert not d3.requires_grad

    def test_requires_grad_flags_restored(self):
        model, sample = self._model_and_sample()
        params = model.parameters()
        params[0].requires_grad = True   # a frozen encoder weight, switched on
        flags = [p.requires_grad for p in params]
        assert any(flags) and not all(flags)
        predict_sample(model, sample)
        assert [p.requires_grad for p in params] == flags
        bad = replace(sample, image_aux=np.zeros((3, 100, 100), dtype=np.float32))
        with pytest.raises(ShapeError):
            predict_sample(model, bad)
        assert [p.requires_grad for p in params] == flags


class TestTraining:
    def test_writes_log_and_checkpoint(self, tmp_path):
        run = tiny_run(str(tmp_path / "run"))
        res = train(run)
        assert os.path.exists(res.checkpoint_path)
        lines = open(res.log_path).read().strip().split("\n")
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + run.epochs
        row = lines[1].split(",")
        assert len(row) == 11
        # total column equals the weighted level sum
        levels = [float(row[3]), float(row[6]), float(row[9])]
        want = 0.25 * levels[0] + 0.5 * levels[1] + 1.0 * levels[2]
        assert float(row[10]) == pytest.approx(want, rel=1e-5)

    def test_progress_callback(self, tmp_path):
        seen = []
        train(tiny_run(str(tmp_path / "run"), epochs=2),
              progress=lambda e, t: seen.append((e, t)))
        assert [e for e, _ in seen] == [1, 2]

    def test_loss_decreases_over_epochs(self, tmp_path):
        run = tiny_run(str(tmp_path / "run"), epochs=4, n_train=8, lr=3e-3)
        res = train(run)
        totals = [row[-1] for row in res.epoch_rows]
        assert totals[-1] < totals[0]

    def test_training_on_given_samples(self, tmp_path):
        samples = [generate_sample(20 + i, "sod", "toy") for i in range(3)]
        res = train(tiny_run(str(tmp_path / "run")), samples=samples)
        assert len(res.train_samples) == 3 and res.val_samples == []
        assert all(a is b for a, b in zip(res.train_samples, samples))
        assert len(res.epoch_rows) == 1

    def test_training_from_dataset_dir(self, tmp_path):
        data = str(tmp_path / "data")
        assert cli_main(["gen-data", "--out", data, "--n", "6",
                         "--mode", "sod", "--seed", "3"]) == 0
        run = tiny_run(str(tmp_path / "run"), data_dir=data, n_train=4, n_val=2)
        res = train(run)
        assert len(res.train_samples) == 4
        assert len(res.val_samples) == 2


class TestPredictExport:
    def test_exported_bytes_match_sigmoid_rule(self, tmp_path):
        data = str(tmp_path / "data")
        cli_main(["gen-data", "--out", data, "--n", "2", "--seed", "5"])
        run = tiny_run(str(tmp_path / "run"))
        res = train(run)

        out = str(tmp_path / "pred")
        written = predict(res.checkpoint_path, data, out)
        assert len(written) == 2

        model, _, _ = load_checkpoint(res.checkpoint_path)
        from dsunet.data import load_dataset

        for sample in load_dataset(data):
            pred = predict_sample(model, sample)
            path = os.path.join(out, f"{sample.id}.pgm")
            raw = open(path, "rb").read()
            payload = raw.split(b"255\n", 1)[1]
            want = np.rint(pred * 255.0).astype(np.uint8).tobytes()
            assert payload == want


class TestReportsAndTables:
    def test_parameter_report(self):
        model = DSUNet(ModelConfig(profile="toy", seed=0))
        text = format_parameter_report(model)
        assert "trainable fraction" in text
        frac = float(text.rsplit("(", 1)[0].rsplit(":", 1)[1])
        assert 0.0 < frac < 1.0

    def test_ablation_table_layout(self):
        means = {"S": 0.5, "Fadp": 0.4, "Eadp": 0.6, "MAE": 0.2}
        rows = [(v, dict(means)) for v in ("A", "B", "C", "full")]
        table = format_ablation_table(rows)
        lines = table.strip().split("\n")
        assert len(lines) == 6  # header, rule, four variants
        assert lines[-1].startswith("full (ours)")


class TestCLI:
    def _config(self, tmp_path, **overrides):
        run = tiny_run(str(tmp_path / "run"), **overrides)
        path = str(tmp_path / "cfg.txt")
        open(path, "w").write(render_config(run))
        return path

    def test_train_eval_round_trip(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        cli_main(["gen-data", "--out", data, "--n", "4", "--seed", "0"])
        cfg = self._config(tmp_path, data_dir=data, n_train=3, n_val=1)
        out = str(tmp_path / "run")
        assert cli_main(["train", "--config", cfg, "--out", out]) == 0
        assert cli_main(["predict", "--ckpt", os.path.join(out, "model.dsut"),
                         "--images", data, "--out", str(tmp_path / "pred")]) == 0
        report = str(tmp_path / "report.csv")
        assert cli_main(["eval", "--pred", str(tmp_path / "pred"),
                         "--gt", os.path.join(data, "gt"),
                         "--report", report]) == 0
        header = open(report).readline().strip()
        assert header == "image,S,Fadp,Fmean,Eadp,Emean,MAE"

    def test_params_command(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert cli_main(["params", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "trainable fraction" in out

    def test_gen_data_writes_layout(self, tmp_path):
        data = str(tmp_path / "d")
        assert cli_main(["gen-data", "--out", data, "--n", "2",
                         "--mode", "cod", "--seed", "1"]) == 0
        assert os.path.exists(os.path.join(data, "manifest.txt"))
        assert os.path.isdir(os.path.join(data, "gt"))

    def test_unknown_config_key_fails_cleanly(self, tmp_path):
        bad = str(tmp_path / "bad.txt")
        open(bad, "w").write("momentum = 0.9\n")
        from dsunet.tensor import ConfigError

        with pytest.raises(ConfigError):
            cli_main(["train", "--config", bad])
