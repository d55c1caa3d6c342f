import os
import re
import shutil
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
from dsunet.container import MAGIC_CHECKPOINT, ContainerError, read_container, write_container
from dsunet.data import augment_flip, generate_sample, read_pgm, write_dataset
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
from dsunet.losses import ROW, total_loss
from dsunet.optim import AdamW, NonFiniteGradient
from dsunet.tensor import ConfigError, ShapeError, Tensor


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
            AdamW({"w": p}, lr=RunConfig.lr,
                  weight_decay=RunConfig.weight_decay)

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
        opt = AdamW({"w": p}, lr=RunConfig.lr,
                    weight_decay=RunConfig.weight_decay)
        p.grad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NonFiniteGradient, match="'w'"):
            opt.step()

    def test_state_round_trip(self):
        rng = np.random.default_rng(0)
        p1 = Tensor(rng.standard_normal(4), requires_grad=True)
        p2 = Tensor(rng.standard_normal(4).copy(), requires_grad=True)
        p2.data[:] = p1.data
        a = AdamW({"w": p1}, lr=0.05, weight_decay=RunConfig.weight_decay)
        for _ in range(3):
            p1.grad = rng.standard_normal(4)
            saved_grad = p1.grad.copy()
            a.step()
        # state_tensors exposes the live buffers; copy to freeze a snapshot
        state = {k: v.copy() for k, v in a.state_tensors().items()}
        p2.data[:] = p1.data  # weights travel separately from optimizer state

        b = AdamW({"w": p2}, lr=0.05, weight_decay=RunConfig.weight_decay)
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

    def test_linear_layout_checkpoint_names_the_parameter_and_both_shapes(
            self, tmp_path):
        # checkpoints written before the adapter and CGA projections became
        # 1x1 convolutions hold their weights as (in, out)
        run = tiny_run(str(tmp_path))
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, DSUNet(run.model), run)
        tensors = read_container(path, magic=MAGIC_CHECKPOINT)
        name = "adapter1.down.weight"
        tensors[name] = np.ascontiguousarray(tensors[name][:, :, 0, 0].T)
        write_container(path, tensors, magic=MAGIC_CHECKPOINT)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: checkpoint parameter {name!r} has shape (24, 6), "
                "model expects (6, 24, 1, 1)")):
            load_checkpoint(path)

    def test_missing_parameter_detected(self, tmp_path):
        run = tiny_run(str(tmp_path))
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, DSUNet(run.model), run)
        tensors = read_container(path, magic=MAGIC_CHECKPOINT)
        name = "adapter2.up.weight"
        del tensors[name]
        write_container(path, tensors, magic=MAGIC_CHECKPOINT)
        with pytest.raises(ContainerError, match=re.escape(
                f"{path}: checkpoint is missing parameter {name!r}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", [None, b"profile = toy\n# caf\xe9\n"],
                             ids=["no-config", "latin-1-config"])
    def test_checkpoint_without_a_utf8_config_names_the_file(self, tmp_path, config):
        run = tiny_run(str(tmp_path))
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, DSUNet(run.model), run)
        tensors = read_container(path, magic=MAGIC_CHECKPOINT)
        del tensors["__config__"]
        if config is not None:
            tensors["__config__"] = np.frombuffer(config, dtype=np.uint8)
        write_container(path, tensors, magic=MAGIC_CHECKPOINT)
        with pytest.raises(ContainerError, match="^" + re.escape(
                f"{path}: checkpoint holds no UTF-8 '__config__' tensor") + "$"):
            load_checkpoint(path)

    def test_invalid_embedded_config_names_the_file(self, tmp_path):
        run = tiny_run(str(tmp_path))
        path = str(tmp_path / "m.dsut")
        save_checkpoint(path, DSUNet(run.model), run)
        tensors = read_container(path, magic=MAGIC_CHECKPOINT)
        tensors["__config__"] = np.frombuffer(b"lr = nan\n", dtype=np.uint8)
        write_container(path, tensors, magic=MAGIC_CHECKPOINT)
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path}: line 1: lr must be > 0 and finite, got nan") + "$"):
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
        real_forward = DSUNet.forward_pyramid

        def recording_total_loss(*args, **kwargs):
            loss, row = real_total_loss(*args, **kwargs)
            losses.append(weakref.ref(loss))
            return loss, row

        def checking_forward(self, *args, **kwargs):
            alive_at_forward.append([ref() is not None for ref in losses])
            return real_forward(self, *args, **kwargs)

        monkeypatch.setattr(dsunet.harness, "total_loss", recording_total_loss)
        monkeypatch.setattr(DSUNet, "forward_pyramid", checking_forward)
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
        with pytest.raises(ConfigError, match="^no training samples"):
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


def _reference_fit(run, samples):
    """fit_samples without the pyramid cache: every step runs the whole model
    on the flipped images."""
    model = DSUNet(run.model)
    optimizer = AdamW(model.trainable_parameters(), lr=run.lr,
                      weight_decay=run.weight_decay)
    shuffle_rng = np.random.default_rng(run.seed + 1)
    augment_rng = np.random.default_rng(run.seed + 2)
    rows = []
    for _ in range(run.epochs):
        order = shuffle_rng.permutation(len(samples))
        sums = np.zeros(len(ROW))
        for start in range(0, len(samples), run.batch):
            batch_idx = order[start : start + run.batch]
            optimizer.zero_grad()
            for i in batch_idx:
                sample, _, _ = augment_flip(samples[i], augment_rng)
                outputs = model(Tensor(sample.image_main), Tensor(sample.image_aux))
                loss, row = total_loss(outputs, sample.gt, model.config)
                loss.backward(np.asarray(1.0 / len(batch_idx), dtype=loss.dtype))
                sums += row
            optimizer.step()
        rows.append(sums / len(samples))
    return model, rows


def _result_bytes(model, rows):
    return ([(name, p.data.tobytes()) for name, p in model.named_parameters().items()],
            [r.tobytes() for r in rows])


class TestPyramidCache:
    """fit_samples encodes each (sample, flip) once and trains as if it
    encoded on every step."""

    @pytest.fixture
    def encodes(self, monkeypatch):
        """(input bytes, pyramid, copies of its arrays) per DSUNet.encode call."""
        calls = []
        real = DSUNet.encode

        def spy(self, image_main, image_aux):
            pyramid = real(self, image_main, image_aux)
            calls.append((image_main.data.tobytes() + image_aux.data.tobytes(), pyramid,
                          {name: t.data.copy() for name, t in pyramid.items()}))
            return pyramid

        monkeypatch.setattr(DSUNet, "encode", spy)
        return calls

    @pytest.fixture
    def flips(self, monkeypatch):
        """(sample id, flip_h, flip_v) per training step."""
        keys = []
        real = dsunet.harness.augment_flip

        def spy(sample, rng):
            out = real(sample, rng)
            keys.append((sample.id,) + out[1:])
            return out

        monkeypatch.setattr(dsunet.harness, "augment_flip", spy)
        return keys

    def _samples(self, n=3):
        return [generate_sample(40 + i, "sod", "toy") for i in range(n)]

    def test_one_encode_per_sample_and_flip(self, encodes, flips):
        fit_samples(tiny_run("unused", epochs=6), self._samples())
        assert len(flips) == 18 and len(set(flips)) < len(flips)
        assert len(encodes) == len(set(flips))
        assert len({inputs for inputs, _, _ in encodes}) == len(encodes)

    @pytest.mark.parametrize("variant", ["A", "B", "C", "full"])
    def test_equals_encoding_on_every_step(self, variant, encodes, flips):
        run = tiny_run("unused", epochs=4, model=ModelConfig(
            profile="toy", variant=variant, seed=0))
        samples = self._samples()
        model, _, rows = fit_samples(run, samples)
        assert len(encodes) < len(flips)  # some steps read a cached pyramid
        assert _result_bytes(model, rows) == _result_bytes(*_reference_fit(run, samples))

    def test_no_op_writes_into_a_cached_map(self, encodes):
        fit_samples(tiny_run("unused", epochs=4), self._samples())
        for _, pyramid, copies in encodes:
            for name, t in pyramid.items():
                assert t.data.tobytes() == copies[name].tobytes(), name

    @pytest.mark.parametrize("entries", [0, 2])
    def test_a_full_budget_changes_no_result(self, entries, encodes, flips,
                                             monkeypatch):
        run = tiny_run("unused", epochs=4)
        samples = self._samples()
        want = _result_bytes(*_reference_fit(run, samples))
        model = DSUNet(run.model)
        s = samples[0]
        pyramid = model.encode(Tensor(s.image_main), Tensor(s.image_aux))
        entry = sum(t.data.nbytes for t in pyramid.values())
        encodes.clear()
        monkeypatch.setattr(dsunet.harness, "_PYRAMID_CACHE_BYTES", entries * entry)
        model, _, rows = fit_samples(run, samples)
        # the first `entries` keys are kept; every other step encodes
        kept = list(dict.fromkeys(flips))[:entries]
        assert len(encodes) == entries + sum(1 for k in flips if k not in kept)
        assert _result_bytes(model, rows) == want

    def test_divergence_on_a_later_step_names_it(self, monkeypatch):
        calls = []
        real = DSUNet.forward_pyramid

        def nan_on_sixth(self, pyramid):
            outputs = real(self, pyramid)
            calls.append(pyramid)
            if len(calls) == 6:
                outputs[0].data[:] = np.nan
            return outputs

        # 3 samples in batches of 2: the sixth step is epoch 2's second batch
        monkeypatch.setattr(DSUNet, "forward_pyramid", nan_on_sixth)
        with pytest.raises(TrainingDiverged, match="epoch 2, step 2$"):
            fit_samples(tiny_run("unused", epochs=3), self._samples())


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

    @pytest.mark.parametrize("route", ["n_val-0", "manifest-of-n_train"])
    def test_no_validation_sample_raises_before_training(self, route, tmp_path,
                                                         monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a variant trained")

        monkeypatch.setattr(dsunet.harness, "_train_run", no_run)
        out = tmp_path / "sweep"
        if route == "n_val-0":
            run = tiny_run(str(out), n_train=2, n_val=0)
        else:
            data = str(tmp_path / "data")
            assert cli_main(["gen-data", "--out", data, "--n", "2"]) == 0
            run = tiny_run(str(out), data_dir=data, n_train=2, n_val=2)
        with pytest.raises(ConfigError, match=re.escape(
                "no validation samples: n_val is 0, or the data_dir manifest "
                "lists none after the first n_train")):
            ablate(run)
        assert not out.exists()


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

    @staticmethod
    def _one_error_line(capsys, command):
        """The stderr of a rejected input: exactly one line in the form of
        argparse's usage errors, and no traceback."""
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"dsu {command}: error: ")
        assert "Traceback" not in lines[0]
        return lines[0]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_out_dir_override_is_validated(self, command, tmp_path, monkeypatch,
                                           capsys):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(dsunet.harness, "_train_step", no_step)
        cfg = self._config(tmp_path)
        out = tmp_path / "run#2"
        argv = (["train", "--config", cfg, "--out", str(out)] if command == "train" else
                ["ablate", "--config", cfg, "--out", str(tmp_path / "t.txt"),
                 "--out-dir", str(out)])
        assert cli_main(argv) == 2
        line = self._one_error_line(capsys, command)
        assert line.startswith(f"dsu {command}: error: out_dir {str(out)!r} cannot be "
                               f"written to a config line")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-2"),
                                             ("--seed", "-1"), ("--n", "two")])
    def test_gen_data_rejects_bad_numbers_at_the_parser(self, flag, value,
                                                        tmp_path, capsys):
        # a non-integer is argparse's own usage error; an integer out of range
        # is rejected before anything is generated, in the same form and code
        data = tmp_path / "d"
        argv = ["gen-data", "--out", str(data), "--n", "2", flag, value]
        if value == "two":
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == f"dsu gen-data: error: argument {flag}: invalid int value: 'two'"
        else:
            assert cli_main(argv) == 2
            low = 1 if flag == "--n" else 0
            assert self._one_error_line(capsys, "gen-data") == (
                f"dsu gen-data: error: {flag} must be >= {low} and finite, got {value}")
        assert not data.exists()

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as f:
            f.write("momentum = 0.9\n")
        assert cli_main(["train", "--config", bad]) == 2
        assert self._one_error_line(capsys, "train") == (
            "dsu train: error: line 1: unknown key 'momentum'")

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A toy dataset, one with a bad manifest line, one with a manifest
        that is not UTF-8, a large-profile one, a toy one whose second sample
        is large-profile, a toy checkpoint and one whose config sets lr = nan."""
        root = tmp_path_factory.mktemp("inputs")
        for name, profile in (("toy", "toy"), ("large", "large")):
            samples, seeds = dsunet.data.generate_dataset(1, "sod", profile, 0)
            write_dataset(str(root / name), samples, seeds)
        write_dataset(str(root / "mixed"), [generate_sample(0, "sod", "toy"),
                                            generate_sample(1, "sod", "large")], [0, 1])
        shutil.copytree(root / "toy", root / "bad")
        (root / "bad" / "manifest.txt").write_text("sod_000000 0\nsod_000001\n")
        shutil.copytree(root / "toy", root / "latin")
        (root / "latin" / "manifest.txt").write_bytes(b"sod_000000 0\ncaf\xe9 1\n")
        run = tiny_run(str(root / "unused"))
        save_checkpoint(str(root / "toy.dsut"), DSUNet(run.model), run)
        tensors = read_container(str(root / "toy.dsut"), magic=MAGIC_CHECKPOINT)
        tensors["__config__"] = np.frombuffer(b"lr = nan\n", dtype=np.uint8)
        write_container(str(root / "nan.dsut"), tensors, magic=MAGIC_CHECKPOINT)
        return root

    # Every input `dsu` rejects: (name, command, argv, config file text or
    # None, the whole message after "dsu <command>: error: ", paths that must
    # not exist afterwards).  CI runs this table against the installed package.
    LARGE = "image_main shape (3, 352, 352): 'image_main' of profile 'toy' is (3, 96, 96)"
    REJECTED = [
        ("retired-changed", "params", ["--config", "{cfg}"], "pixel_weighted_loss = false\n",
         "line 1: setting 'pixel_weighted_loss' was removed; it may only hold its "
         "old value true", ()),
        ("retired-width", "params", ["--config", "{cfg}"], "reduced_channels = 32\n",
         "line 1: setting 'reduced_channels' was removed; it may only hold its old "
         "value 64", ()),
        ("bad-value", "params", ["--config", "{cfg}"], "lr = fast\n",
         "line 1: bad value for lr: 'fast'", ()),
        ("retired-twice", "params", ["--config", "{cfg}"], "beta2_f = 0.3\nbeta2_f = 0.3\n",
         "line 2: key 'beta2_f' already set on line 1", ()),
        ("params-lr-nan", "params", ["--config", "{cfg}"], "epochs = 2\nlr = nan\n",
         "line 2: lr must be > 0 and finite, got nan", ()),
        ("lr-nan", "train", ["--config", "{cfg}"], "lr = nan\n",
         "line 1: lr must be > 0 and finite, got nan", ()),
        ("unknown-key", "train", ["--config", "{cfg}"], "momentum = 0.9\n",
         "line 1: unknown key 'momentum'", ()),
        ("out-hash", "train", ["--config", "{cfg}", "--out", "{tmp}/run#2"],
         "epochs = 1\nbatch = 2\nn_train = 2\nn_val = 0\ndata_dir = {inputs}/toy\n"
         "out_dir = {tmp}/run\n",
         "out_dir '{tmp}/run#2' cannot be written to a config line: it may hold no "
         "'#', line break, or leading or trailing whitespace", ("run#2", "run")),
        ("n_train-0", "train", ["--config", "{cfg}"], "n_train = 0\nout_dir = {tmp}/out\n",
         "no training samples: n_train is 0, the data_dir manifest lists none, or "
         "the given sample list is empty", ("out",)),
        ("manifest-line", "train", ["--config", "{cfg}"],
         "n_train = 1\nn_val = 0\ndata_dir = {inputs}/bad\nout_dir = {tmp}/out\n",
         "{inputs}/bad/manifest.txt line 2: expected 'id seed', got 'sod_000001'",
         ("out",)),
        ("manifest-not-utf8", "train", ["--config", "{cfg}"],
         "n_train = 1\nn_val = 0\ndata_dir = {inputs}/latin\nout_dir = {tmp}/out\n",
         "{inputs}/latin/manifest.txt: not UTF-8 text", ("out",)),
        ("large-images", "predict",
         ["--ckpt", "{inputs}/toy.dsut", "--images", "{inputs}/large", "--out", "{tmp}/out"],
         None, LARGE, ("out",)),
        ("large-dataset", "train", ["--config", "{cfg}"],
         "epochs = 1\nn_train = 1\nn_val = 0\ndata_dir = {inputs}/large\n"
         "out_dir = {tmp}/out\n", f"sample 0 (sod_000000): {LARGE}", ("out",)),
        ("missing-ckpt", "predict",
         ["--ckpt", "{tmp}/none.dsut", "--images", "{inputs}/toy", "--out", "{tmp}/out"],
         None, "[Errno 2] No such file or directory: '{tmp}/none.dsut'", ("out",)),
        ("ckpt-config-nan", "predict",
         ["--ckpt", "{inputs}/nan.dsut", "--images", "{inputs}/toy", "--out", "{tmp}/out"],
         None, "{inputs}/nan.dsut: line 1: lr must be > 0 and finite, got nan", ("out",)),
        ("pgm-ckpt", "predict",
         ["--ckpt", "{inputs}/toy/gt/sod_000000.pgm", "--images", "{inputs}/toy",
          "--out", "{tmp}/out"],
         None, "{inputs}/toy/gt/sod_000000.pgm: bad magic b'P5\\n9', expected b'DSUT'",
         ("out",)),
        ("no-common-stems", "eval",
         ["--pred", "{inputs}/toy/images-main", "--gt", "{inputs}/toy/gt",
          "--report", "{tmp}/r.csv"],
         None, "no common stems between '{inputs}/toy/images-main' and '{inputs}/toy/gt'",
         ("r.csv",)),
        ("gen-data-n-0", "gen-data", ["--out", "{tmp}/out", "--n", "0"], None,
         "--n must be >= 1 and finite, got 0", ("out",)),
        ("ablate-n_val-0", "ablate", ["--config", "{cfg}", "--out", "{tmp}/table.txt"],
         "epochs = 1\nn_train = 2\nn_val = 0\nout_dir = {tmp}/sweep\n",
         "no validation samples: n_val is 0, or the data_dir manifest lists none "
         "after the first n_train", ("sweep", "table.txt")),
        ("ablate-large-val", "ablate", ["--config", "{cfg}", "--out", "{tmp}/table.txt"],
         "epochs = 1\nn_train = 1\nn_val = 1\ndata_dir = {inputs}/mixed\n"
         "out_dir = {tmp}/sweep\n", f"sample 1 (sod_000001): {LARGE}",
         ("sweep", "table.txt")),
        ("ablate-out-missing", "ablate",
         ["--config", "{cfg}", "--out", "{tmp}/missing/table.txt"],
         "epochs = 1\nn_train = 1\nn_val = 1\nout_dir = {tmp}/sweep\n",
         "--out '{tmp}/missing/table.txt': directory '{tmp}/missing' does not exist",
         ("sweep", "missing")),
    ]

    @pytest.mark.parametrize("name, command, argv, config, message, absent", REJECTED,
                             ids=[r[0] for r in REJECTED])
    def test_rejected_input_is_one_line_and_exit_2(
            self, name, command, argv, config, message, absent, inputs, tmp_path,
            capsys):
        def fill(text):
            return text.format(tmp=tmp_path, inputs=inputs, cfg=tmp_path / "c.cfg")

        if config is not None:
            (tmp_path / "c.cfg").write_text(fill(config))
        assert cli_main([command] + [fill(a) for a in argv]) == 2
        assert self._one_error_line(capsys, command) == (
            f"dsu {command}: error: {fill(message)}")
        assert [p for p in absent if (tmp_path / p).exists()] == []

    def test_other_exceptions_keep_their_traceback(self, tmp_path, monkeypatch):
        # a fault in the code is not a rejected input: it propagates
        def broken(*args, **kwargs):
            raise TypeError("a bug")

        monkeypatch.setattr(dsunet.harness, "train", broken)
        with pytest.raises(TypeError, match="a bug"):
            cli_main(["train", "--config", self._config(tmp_path)])

    def test_eval_with_a_failed_file_exits_1(self, tmp_path, capsys):
        # exit 1: the command ran, and a check it made failed
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        gt.mkdir()
        pred.mkdir()
        for stem in ("a", "b"):
            dsunet.data.write_pgm(str(gt / f"{stem}.pgm"), np.eye(4))
            dsunet.data.write_pgm(str(pred / f"{stem}.pgm"), np.eye(4))
        (pred / "b.pgm").write_bytes((pred / "b.pgm").read_bytes()[:-1])
        assert cli_main(["eval", "--pred", str(pred), "--gt", str(gt),
                         "--report", str(tmp_path / "r.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"FAILED b: {pred / 'b.pgm'}: truncated PGM payload" in captured.out
