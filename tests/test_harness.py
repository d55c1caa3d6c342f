import os
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

import dsunet.data
import dsunet.encoders
import dsunet.harness
import dsunet.nn
from dsunet.blocks import DSUNet
from dsunet.cli import main as cli_main
from dsunet.config import ModelConfig, RunConfig, parse_config_file, render_config
from dsunet.container import MAGIC_CHECKPOINT, read_container, write_container
from dsunet.data import generate_sample, read_pgm, write_dataset
from dsunet.harness import (
    TrainingDiverged,
    ablate,
    fit_samples,
    format_ablation_table,
    format_parameter_report,
    load_checkpoint,
    load_or_generate,
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
        return Tensor(np.full((3,), value, dtype=np.float64), requires_grad=True)

    def test_rejects_frozen(self):
        p = Tensor(np.zeros(3), requires_grad=False)
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
        p1 = Tensor(rng.standard_normal(4), requires_grad=True)
        p2 = Tensor(rng.standard_normal(4).copy(), requires_grad=True)
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
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
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

    def test_numpy_scalar_settings_load_back(self, tmp_path):
        run = tiny_run(str(tmp_path / "run"), lr=np.float64(0.003))
        result = train(run)
        _, back_run, _ = load_checkpoint(result.checkpoint_path)
        assert back_run == run
        assert type(back_run.lr) is float

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


    def test_missing_parameter_detected(self, tmp_path):
        run = tiny_run(str(tmp_path))
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, DSUNet(run.model), run)
        tensors = read_container(path, magic=MAGIC_CHECKPOINT)
        name = "adapter2.up.weight"
        del tensors[name]
        write_container(path, tensors, magic=MAGIC_CHECKPOINT)
        with pytest.raises(KeyError, match=re.escape(repr(name))):
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


class TestLoadDrawsNothing:
    """A loaded model gets its values from the checkpoint, not from a draw."""

    def _checkpoint(self, tmp_path):
        # non-zero adapter up-projections: a construction-time zeroing that
        # reached the loaded values would show
        run = tiny_run(str(tmp_path))
        model = DSUNet(run.model)
        rng = np.random.default_rng(3)
        for ad in model.adapters:
            for p in (ad.up.weight, ad.up.bias):
                p.data = rng.uniform(0.5, 1.0, p.shape).astype(np.float32)
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, model, run)
        return path, model

    def test_load_makes_no_random_draw(self, tmp_path, monkeypatch):
        path, saved = self._checkpoint(tmp_path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random values")

        monkeypatch.setattr(dsunet.nn, "uniform_init", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        model, _, _ = load_checkpoint(path)
        assert list(model.named_parameters()) == list(saved.named_parameters())

    def test_every_parameter_equals_the_checkpoint_array(self, tmp_path):
        path, saved = self._checkpoint(tmp_path)
        on_disk = read_container(path, magic=MAGIC_CHECKPOINT)
        model, _, raw = load_checkpoint(path)
        params = model.named_parameters()
        assert list(params) == list(saved.named_parameters())
        for name, p in params.items():
            assert p.data is raw[name]
            np.testing.assert_array_equal(p.data, on_disk[name])
            np.testing.assert_array_equal(p.data, saved.named_parameters()[name].data)
        for ad in model.adapters:
            assert np.all(ad.up.weight.data >= 0.5) and np.all(ad.up.bias.data >= 0.5)


class TestProbabilityMap:
    """predict_sample, predict and ablate share one tape-free forward."""

    def _model_and_sample(self):
        return (DSUNet(ModelConfig(profile="toy", seed=4)),
                generate_sample(9, "sod", "toy"))

    def test_equals_the_sigmoid_of_a_taped_forward(self):
        model, sample = self._model_and_sample()
        d3 = model(Tensor(sample.image_main), Tensor(sample.image_aux))[-1]
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
            seen.append(outputs[-1])
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
        with open(res.log_path) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == "epoch,bce1,iou1,level1,bce2,iou2,level2,bce3,iou3,level3,total"
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
        out = tmp_path / "run"
        model, optimizer, rows = fit_samples(tiny_run(str(out)), samples)
        assert len(rows) == 1 and rows[0].shape == (10,)
        assert all(optimizer.params[name] is p
                   for name, p in model.trainable_parameters().items())
        assert not out.exists()

    def test_each_sample_graph_is_freed_before_the_next_forward(
            self, monkeypatch):
        losses, alive_at_forward = [], []
        real_total_loss = dsunet.harness.total_loss
        real_forward = DSUNet.forward

        def recording_total_loss(*args, **kwargs):
            loss, row = real_total_loss(*args, **kwargs)
            losses.append(weakref.ref(loss))
            return loss, row

        def checking_forward(self, *args, **kwargs):
            alive_at_forward.append([ref() is not None for ref in losses])
            return real_forward(self, *args, **kwargs)

        monkeypatch.setattr(dsunet.harness, "total_loss", recording_total_loss)
        monkeypatch.setattr(DSUNet, "forward", checking_forward)
        samples = [generate_sample(20 + i, "sod", "toy") for i in range(2)]
        fit_samples(tiny_run("unused"), samples)
        assert alive_at_forward == [[], [False]]

    def test_non_finite_logits_raise_training_diverged(self, monkeypatch):
        def nan_head_model(config):
            model = DSUNet(config)
            model.heads[0].proj.bias.data[:] = np.nan
            return model

        monkeypatch.setattr(dsunet.harness, "DSUNet", nan_head_model)
        samples = [generate_sample(20 + i, "sod", "toy") for i in range(2)]
        with pytest.raises(TrainingDiverged, match="epoch 1, step 1"):
            fit_samples(tiny_run("unused"), samples)

    @pytest.mark.parametrize("route", ["n_train-0", "empty-manifest",
                                       "empty-list"])
    def test_no_training_sample_raises_before_building(self, route, tmp_path,
                                                       monkeypatch):
        def no_model(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr("dsunet.harness.DSUNet", no_model)
        out = tmp_path / "run"
        if route == "n_train-0":
            run = tiny_run(str(out), n_train=0)
        elif route == "empty-manifest":
            data = tmp_path / "data"
            data.mkdir()
            (data / "manifest.txt").write_text("")
            run = tiny_run(str(out), data_dir=str(data))
        with pytest.raises(ValueError, match="no training samples"):
            if route == "empty-list":
                fit_samples(tiny_run(str(out)), [])
            else:
                train(run)
        assert not out.exists()

    @pytest.mark.parametrize("call", [train, ablate], ids=["train", "ablate"])
    def test_uncreatable_out_dir_fails_before_training(self, call, tmp_path,
                                                       monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(dsunet.harness, "_train_step", no_step)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(NotADirectoryError):
            call(tiny_run(str(blocker / "run")))

    def test_other_profile_dataset_raises_before_any_encoder_call(
            self, tmp_path, monkeypatch):
        data = str(tmp_path / "data")
        assert cli_main(["gen-data", "--out", data, "--n", "1",
                         "--profile", "large"]) == 0
        calls = []
        real = dsunet.encoders.ToyHiera.forward

        def counting(self, image):
            calls.append(image.shape)
            return real(self, image)

        monkeypatch.setattr(dsunet.encoders.ToyHiera, "forward", counting)
        run = tiny_run(str(tmp_path / "run"), data_dir=data, n_train=1, n_val=0)
        with pytest.raises(ShapeError, match=re.escape(
                "sample 0 (sod_000000): image_main shape (3, 352, 352): "
                "'image_main' of profile 'toy' is (3, 96, 96)")):
            train(run)
        assert calls == []

    @pytest.mark.parametrize("call", [train, ablate], ids=["train", "ablate"])
    def test_rejected_dataset_leaves_no_out_dir(self, call, tmp_path):
        data = str(tmp_path / "data")
        assert cli_main(["gen-data", "--out", data, "--n", "1",
                         "--profile", "large"]) == 0
        out = tmp_path / "run"
        with pytest.raises(ShapeError, match=re.escape("sample 0 (sod_000000)")):
            call(tiny_run(str(out), data_dir=data, n_train=1, n_val=0))
        assert not out.exists()

    def test_training_from_dataset_dir(self, tmp_path):
        data = str(tmp_path / "data")
        assert cli_main(["gen-data", "--out", data, "--n", "6",
                         "--mode", "sod", "--seed", "3"]) == 0
        run = tiny_run(str(tmp_path / "run"), data_dir=data, n_train=4, n_val=2)
        res = train(run)
        assert len(res.train_samples) == 4
        assert len(res.val_samples) == 2

    def test_dataset_dir_reads_only_the_samples_returned(self, tmp_path,
                                                          monkeypatch):
        data = str(tmp_path / "data")
        assert cli_main(["gen-data", "--out", data, "--n", "6",
                         "--mode", "sod", "--seed", "3"]) == 0
        reads = []
        real = dsunet.data.read_pgm

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(dsunet.data, "read_pgm", counting)
        # three planes of each image and the mask: 7 files a sample
        for n_train, n_val, kept in ((2, 1, (2, 1)), (5, 3, (5, 1)), (8, 1, (6, 0))):
            reads.clear()
            train_samples, val_samples = load_or_generate(
                tiny_run("unused", data_dir=data, n_train=n_train, n_val=n_val))
            assert (len(train_samples), len(val_samples)) == kept
            assert len(reads) == 7 * sum(kept)


class TestAblation:
    def test_sweep_generates_its_dataset_once(self, tmp_path, monkeypatch):
        calls = []
        real = dsunet.data.generate_sample

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dsunet.data, "generate_sample", counting)
        run = tiny_run(str(tmp_path / "sweep"), n_train=2, n_val=1)
        rows = ablate(run)
        assert len(calls) == run.n_train + run.n_val
        assert [variant for variant, _ in rows] == ["A", "B", "C", "full"]
        for variant, _ in rows:
            out = tmp_path / "sweep" / f"variant_{variant}"
            assert (out / "model.dsut").exists()
            assert (out / "train_log.csv").exists()


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
            with open(path, "rb") as f:
                raw = f.read()
            payload = raw.split(b"255\n", 1)[1]
            want = np.rint(pred * 255.0).astype(np.uint8).tobytes()
            assert payload == want

    def test_dotted_sample_id(self, tmp_path):
        sample = replace(generate_sample(0, "sod", "toy"), id="img.01")
        data = str(tmp_path / "data")
        write_dataset(data, [sample], [0])
        run = tiny_run(str(tmp_path / "run"))
        ckpt = str(tmp_path / "m.dsut")
        save_checkpoint(ckpt, DSUNet(run.model), run)
        out = str(tmp_path / "pred")
        assert predict(ckpt, data, out) == [os.path.join(out, "img.01.pgm")]


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
        with open(path, "w") as f:
            f.write(render_config(run))
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
        with open(report) as f:
            header = f.readline().strip()
        assert header == "image,S,Fadp,Fmean,Eadp,Emean,MAE"

    def test_params_command(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert cli_main(["params", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "trainable fraction" in out

    def test_params_report_matches_a_drawn_model_without_a_draw(
            self, tmp_path, capsys, monkeypatch):
        cfg = self._config(tmp_path, model=ModelConfig(profile="toy", variant="B",
                                                       seed=5))
        want = format_parameter_report(DSUNet(parse_config_file(cfg).model))

        def no_draw(*args, **kwargs):
            raise AssertionError("dsu params drew random values")

        monkeypatch.setattr(dsunet.nn, "uniform_init", no_draw)
        assert cli_main(["params", "--config", cfg]) == 0
        assert capsys.readouterr().out == want

    def test_verify_passes_when_every_check_passes(self, monkeypatch, capsys):
        import dsunet.verify

        results = [("wavelet", True, "err 0"), ("metric", True, "err 0")]
        monkeypatch.setattr(dsunet.verify, "run_all", lambda: results)
        assert cli_main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["[PASS] wavelet: err 0", "[PASS] metric: err 0",
                         "2/2 checks passed"]

    def test_verify_fails_when_a_check_fails(self, monkeypatch, capsys):
        import dsunet.verify

        results = [("wavelet", True, "err 0"), ("gradient", False, "rel err 0.2")]
        monkeypatch.setattr(dsunet.verify, "run_all", lambda: results)
        assert cli_main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "[FAIL] gradient: rel err 0.2" in lines
        assert lines[-1] == "1/2 checks passed"

    def test_gen_data_writes_layout(self, tmp_path):
        data = str(tmp_path / "d")
        assert cli_main(["gen-data", "--out", data, "--n", "2",
                         "--mode", "cod", "--seed", "1"]) == 0
        assert os.path.exists(os.path.join(data, "manifest.txt"))
        assert os.path.isdir(os.path.join(data, "gt"))

    def test_unknown_config_key_fails_cleanly(self, tmp_path):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as f:
            f.write("momentum = 0.9\n")
        from dsunet.tensor import ConfigError

        with pytest.raises(ConfigError):
            cli_main(["train", "--config", bad])
