import inspect
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

import dsunet.metrics
from dsunet.blocks import Adapter, DSUNet
from dsunet.config import PROFILES, ModelConfig, RunConfig, parse_config_text, render_config
from dsunet.container import (
    MAGIC_CHECKPOINT,
    MAGIC_FEATURES,
    ContainerError,
    read_container,
    write_container,
)
from dsunet.encoders import (
    ToyHiera,
    ToyViT,
    load_pyramid,
    write_feature_file,
)
from dsunet.nn import placeholder_init, seeded_init
from dsunet.optim import AdamW
from dsunet.tensor import ConfigError, ShapeError, Tensor


class TestProfiles:
    def test_large_profile_geometry(self):
        p = PROFILES["large"]
        shapes = p.pyramid_shapes()
        assert shapes["s1"] == (144, 88, 88)
        assert shapes["s2"] == (288, 44, 44)
        assert shapes["s3"] == (576, 22, 22)
        assert shapes["s4"] == (1152, 11, 11)
        assert shapes["v"] == (1024, 37, 37)

    def test_toy_profile_geometry(self):
        p = PROFILES["toy"]
        shapes = p.pyramid_shapes()
        assert shapes["s1"] == (24, 24, 24)
        assert shapes["s4"] == (192, 3, 3)
        assert shapes["v"] == (128, 9, 9)
        assert list(shapes) == ["s1", "s2", "s3", "s4", "v",
                                "v_tap1", "v_tap2", "v_tap3", "v_tap4"]
        assert {shapes[f"v_tap{i}"] for i in (1, 2, 3, 4)} == {shapes["v"]}


class TestToyHiera:
    def test_pyramid_shapes(self):
        p = PROFILES["toy"]
        enc = ToyHiera(p, seeded_init(np.random.default_rng(0)))
        img = Tensor(np.random.default_rng(1).random(
            (3, p.main_size, p.main_size)).astype(np.float32))
        outs = enc(img)
        for out, (name, shape) in zip(outs, sorted(p.pyramid_shapes().items())):
            assert out.shape == shape

    def test_rejects_indivisible_size(self):
        # the profile check in DSUNet.encode guards the encoder's input
        model = DSUNet(ModelConfig(profile="toy"), init=placeholder_init)
        aux = Tensor(np.zeros((3, 126, 126), dtype=np.float32))
        with pytest.raises(ShapeError, match=re.escape(
                "image_main shape (3, 50, 50): 'image_main' of profile 'toy' is (3, 96, 96)")):
            model.encode(Tensor(np.zeros((3, 50, 50), dtype=np.float32)), aux)

    def test_parameters_frozen(self):
        enc = ToyHiera(PROFILES["toy"], seeded_init(np.random.default_rng(0)))
        assert all(not p.requires_grad for p in enc.named_parameters().values())


class TestToyViT:
    def test_token_map_shape_and_taps(self):
        p = PROFILES["toy"]
        enc = ToyViT(p, seeded_init(np.random.default_rng(0)))
        img = Tensor(np.random.default_rng(1).random(
            (3, p.aux_size, p.aux_size)).astype(np.float32))
        # one tap per block; the last is the token map v
        taps = enc(img)
        assert len(taps) == 4
        for t in taps:
            assert t.shape == (p.vit_channels, p.vit_grid, p.vit_grid)

    def test_rejects_non_patch_multiple(self):
        # the profile check in DSUNet.encode guards the encoder's input
        model = DSUNet(ModelConfig(profile="toy"), init=placeholder_init)
        main = Tensor(np.zeros((3, 96, 96), dtype=np.float32))
        with pytest.raises(ShapeError, match=re.escape(
                "image_aux shape (3, 100, 100): 'image_aux' of profile 'toy' is (3, 126, 126)")):
            model.encode(main, Tensor(np.zeros((3, 100, 100), dtype=np.float32)))


def joined_container_bytes(tensors, magic=MAGIC_FEATURES):
    """Oracle: the container bytes as one join of every header and payload.

    ``tensors`` is a name -> array mapping or a list of (name, array) pairs,
    each name a str or its raw bytes, so a test can craft a file that the
    writer would never produce."""
    items = list(tensors.items() if isinstance(tensors, dict) else tensors)
    chunks = [magic, struct.pack("<II", 1, len(items))]
    for name, arr in items:
        arr = np.asarray(arr, dtype=np.float32)
        nameb = name if isinstance(name, bytes) else name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nameb)))
        chunks.append(nameb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(chunks)


class TestContainer:
    def _arrays(self):
        rng = np.random.default_rng(0)
        return {
            "gamma": rng.standard_normal((3, 4)).astype(np.float32),
            "beta": rng.standard_normal((2, 2, 2, 2)).astype(np.float32),
            "scalarish": np.array([1.5], dtype=np.float32),
        }

    def test_round_trip(self, tmp_path):
        p = str(tmp_path / "a.dsuf")
        arrays = self._arrays()
        write_container(p, arrays)
        back = read_container(p)
        assert set(back) == set(arrays)
        for k in arrays:
            assert back[k].dtype == np.float32
            np.testing.assert_array_equal(back[k], arrays[k])

    def test_layout_prefix(self, tmp_path):
        p = str(tmp_path / "b.dsuf")
        write_container(p, {"x": np.zeros((2, 3), dtype=np.float32)})
        with open(p, "rb") as f:
            raw = f.read()
        assert raw[:4] == b"DSUF"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 1  # tensor count
        assert int.from_bytes(raw[12:16], "little") == 1  # name length
        assert raw[16:17] == b"x"
        assert int.from_bytes(raw[17:21], "little") == 2  # ndim
        assert int.from_bytes(raw[21:29], "little") == 2  # dim 0
        assert int.from_bytes(raw[29:37], "little") == 3  # dim 1
        assert len(raw) == 37 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "c.dsuf")
        write_container(p, self._arrays())
        with open(p, "rb") as f:
            raw = bytearray(f.read())
        raw[:4] = b"NOPE"
        with open(p, "wb") as f:
            f.write(bytes(raw))
        with pytest.raises(ContainerError, match=re.escape(
                f"{p}: bad magic b'NOPE', expected b'DSUF'")):
            read_container(p)

    def test_checkpoint_magic_differs(self, tmp_path):
        p = str(tmp_path / "d.dsut")
        from dsunet.container import MAGIC_CHECKPOINT
        write_container(p, self._arrays(), magic=MAGIC_CHECKPOINT)
        with pytest.raises(ContainerError, match=re.escape(
                f"{p}: bad magic b'DSUT', expected b'DSUF'")):
            read_container(p)  # default expects the feature magic
        assert set(read_container(p, magic=MAGIC_CHECKPOINT)) == set(self._arrays())

    def test_bad_version(self, tmp_path):
        p = str(tmp_path / "e.dsuf")
        write_container(p, self._arrays())
        with open(p, "rb") as f:
            raw = bytearray(f.read())
        raw[4:8] = (99).to_bytes(4, "little")
        with open(p, "wb") as f:
            f.write(bytes(raw))
        with pytest.raises(ContainerError, match=re.escape(
                f"{p}: unsupported version 99")):
            read_container(p)

    def test_truncation(self, tmp_path):
        p = str(tmp_path / "f.dsuf")
        write_container(p, self._arrays())
        with open(p, "rb") as f:
            raw = f.read()
        with open(p, "wb") as f:
            f.write(raw[:-5])
        with pytest.raises(ContainerError, match=re.escape(
                f"{p}: truncated payload while reading dims")):
            read_container(p)

    def test_rejects_non_finite(self, tmp_path):
        p = str(tmp_path / "g.dsuf")
        with pytest.raises(ValueError):
            write_container(p, {"x": np.array([np.nan], dtype=np.float32)})


    def _odd_arrays(self):
        rng = np.random.default_rng(3)
        big = rng.standard_normal((5, 7, 3))
        return {
            "random": rng.standard_normal((4, 6)).astype(np.float32),
            "float64": big,
            "strided": big[:, ::2, 1].astype(np.float32),
            "fortran": np.asfortranarray(rng.standard_normal((3, 4))).astype(np.float32),
            "empty": np.zeros((0,), dtype=np.float32),
            "empty2d": np.zeros((2, 0, 3), dtype=np.float32),
            "one": np.array([2.5], dtype=np.float32),
            "scalar": np.float32(-1.25),
            "n\u00e4me": np.ones((1, 1), dtype=np.float32),
        }

    @pytest.mark.parametrize("magic", [MAGIC_FEATURES, MAGIC_CHECKPOINT])
    def test_bytes_equal_the_joined_writer(self, tmp_path, magic):
        for tensors in (self._arrays(), self._odd_arrays(), {}):
            p = tmp_path / "o.bin"
            write_container(str(p), tensors, magic=magic)
            assert p.read_bytes() == joined_container_bytes(tensors, magic)
            back = read_container(str(p), magic=magic)
            assert list(back) == list(tensors)
            for name, arr in tensors.items():
                want = np.asarray(arr, dtype=np.float32)
                assert back[name].dtype == np.float32
                assert back[name].shape == want.shape
                np.testing.assert_array_equal(back[name], want)

    def test_every_cut_point_is_truncated(self, tmp_path):
        p = tmp_path / "cut.dsuf"
        write_container(str(p), {"a": np.arange(3, dtype=np.float32),
                                 "bc": np.ones((2, 1), dtype=np.float32)})
        raw = p.read_bytes()
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(ContainerError,
                               match="^" + re.escape(f"{p}: truncated payload while reading ")):
                read_container(str(p))

    def test_non_utf8_name_raises(self, tmp_path):
        p = tmp_path / "latin1.dsuf"
        one = np.ones(2, dtype=np.float32)
        p.write_bytes(joined_container_bytes([("ok", one), (b"n\xe4me", one)]))
        with pytest.raises(ContainerError, match=re.escape(
                f"{p}: tensor 1: name is not UTF-8")):
            read_container(str(p))

    def test_repeated_name_raises(self, tmp_path):
        p = tmp_path / "twice.dsuf"
        pairs = [("s1", np.zeros(2)), ("v", np.ones(3)), ("s1", np.ones(2))]
        p.write_bytes(joined_container_bytes(pairs))
        with pytest.raises(ContainerError, match=re.escape(
                f"{p}: tensor 2: name 's1' appears twice")):
            read_container(str(p))

    def test_read_arrays_are_owned_and_writeable(self, tmp_path):
        p = str(tmp_path / "w.dsuf")
        write_container(p, self._odd_arrays())
        for arr in read_container(p).values():
            assert arr.dtype == np.float32
            assert arr.flags.owndata and arr.flags.writeable

    def test_non_finite_leaves_an_existing_file_untouched(self, tmp_path):
        p = tmp_path / "keep.dsuf"
        write_container(str(p), self._arrays())
        before = p.read_bytes()
        for bad in (np.nan, np.inf, -np.inf, 1e39):   # 1e39 overflows float32
            tensors = dict(self._arrays(), late=np.array([0.0, bad]))
            with pytest.raises(ValueError, match="'late'"):
                write_container(str(p), tensors)
            assert p.read_bytes() == before

class TestFeatureIngestion:
    def _pyramid_arrays(self, profile):
        rng = np.random.default_rng(0)
        return {name: rng.standard_normal(shape).astype(np.float32)
                for name, shape in profile.pyramid_shapes().items()
                if not name.startswith("v_tap")}

    def test_load_validates_and_runs(self, tmp_path):
        prof = PROFILES["toy"]
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, self._pyramid_arrays(prof))
        pyr = load_pyramid(path, prof)
        assert list(pyr) == ["s1", "s2", "s3", "s4", "v"]
        assert all(isinstance(t, Tensor) for t in pyr.values())
        model = DSUNet(ModelConfig(profile="toy", seed=0))
        outs = model.forward_pyramid(pyr)
        for d in outs:
            assert d.shape == (1, prof.main_size, prof.main_size)

    def _images(self, profile):
        rng = np.random.default_rng(2)
        return (Tensor(rng.random((3, profile.main_size, profile.main_size))
                       .astype(np.float32)),
                Tensor(rng.random((3, profile.aux_size, profile.aux_size))
                       .astype(np.float32)))

    @pytest.mark.parametrize("variant", ["A", "B", "C", "full"])
    def test_encoded_pyramid_round_trips_through_a_feature_file(self, variant,
                                                                tmp_path):
        # encode's dict is what a DSUF file holds: written, read back and
        # decoded, it gives the logits of the in-memory forward, byte for byte
        prof = PROFILES["toy"]
        model = DSUNet(ModelConfig(profile="toy", variant=variant, seed=0))
        main, aux = self._images(prof)
        path = str(tmp_path / "encoded.dsuf")
        write_feature_file(path, model.encode(main, aux))
        pyr = load_pyramid(path, prof)
        assert list(pyr) == list(model.pyramid_names)
        got = model.forward_pyramid(pyr)
        want = model.forward(main, aux)
        assert [d.data.tobytes() for d in got] == [d.data.tobytes() for d in want]

    def test_missing_tensor(self, tmp_path, monkeypatch):
        # a file holds the maps its writer's variant reads: a B-encoded file
        # has no v, loads, and decodes under B; variant full names the map
        # it lacks before any decoder block runs
        prof = PROFILES["toy"]
        model_b = DSUNet(ModelConfig(profile="toy", variant="B", seed=0))
        path = str(tmp_path / "b.dsuf")
        write_feature_file(path, model_b.encode(*self._images(prof)))
        pyr = load_pyramid(path, prof)
        assert "v" not in pyr
        model_b.forward_pyramid(pyr)

        def no_decoder(*args):
            raise AssertionError("a decoder block ran")

        full = DSUNet(ModelConfig(profile="toy", variant="full", seed=0))
        monkeypatch.setattr(Adapter, "__call__", no_decoder)
        with pytest.raises(ShapeError, match=re.escape(
                "v missing: 'v' of profile 'toy' is (128, 9, 9)")):
            full.forward_pyramid(pyr)

    def test_wrong_shape(self, tmp_path):
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        arrays["v"] = arrays["v"][:, :4, :4]
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        with pytest.raises(ShapeError, match="'v'"):
            load_pyramid(path, prof)

    # the inputs image_main, image_aux and gt are names the profile knows, in
    # the shapes it takes them, but no feature file holds them
    @pytest.mark.parametrize("name", ["v_tap5", "v_tap0", "s5", "V", "gt",
                                      "image_main", "image_aux"])
    def test_unknown_name_raises(self, name, tmp_path):
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        shape = {"gt": (96, 96), "image_main": (3, 96, 96),
                 "image_aux": (3, 126, 126)}.get(name, arrays["v"].shape)
        arrays[name] = np.zeros(shape, dtype=np.float32)
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        with pytest.raises(ShapeError, match=re.escape(
                f"{name!r} is not a pyramid map of profile 'toy'")):
            load_pyramid(path, prof)

    def test_taps_loaded_in_order(self, tmp_path):
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        rng = np.random.default_rng(1)
        for i in range(4):
            arrays[f"v_tap{i + 1}"] = rng.standard_normal(
                arrays["v"].shape).astype(np.float32)
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        pyr = load_pyramid(path, prof)
        assert list(pyr) == list(arrays)
        for name, array in arrays.items():
            np.testing.assert_array_equal(pyr[name].data, array)

    def test_taps_read_by_name(self, tmp_path):
        # written out of order, each tap is still found under its own name
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        for i in (4, 2, 1, 3):
            arrays[f"v_tap{i}"] = np.full(arrays["v"].shape, i, dtype=np.float32)
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        pyr = load_pyramid(path, prof)
        assert [float(pyr[f"v_tap{i}"].data.flat[0]) for i in (1, 2, 3, 4)] == [1, 2, 3, 4]

    def test_tap_gap_raises(self, tmp_path):
        # taps are optional in a file; a variant-B decode names the one it lacks
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        for i in (1, 3, 4):
            arrays[f"v_tap{i}"] = np.zeros(arrays["v"].shape, dtype=np.float32)
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        pyr = load_pyramid(path, prof)
        model = DSUNet(ModelConfig(profile="toy", variant="B", seed=0))
        with pytest.raises(ShapeError, match="v_tap2 missing"):
            model.forward_pyramid(pyr)

    def test_misshapen_tap_raises(self, tmp_path):
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        for i in (1, 2, 3):
            arrays[f"v_tap{i}"] = np.zeros(arrays["v"].shape, dtype=np.float32)
        arrays["v_tap2"] = arrays["v_tap2"][:, :4, :4]
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        with pytest.raises(ShapeError, match=re.escape(
                "v_tap2 shape (128, 4, 4): 'v_tap2' of profile 'toy' is (128, 9, 9)")):
            load_pyramid(path, prof)


class TestConfigFormat:
    def test_defaults(self):
        run = parse_config_text("")
        assert run.model.profile == "toy"
        assert run.lr == 1e-3

    def test_fixed_values_are_class_constants_not_settings(self):
        assert ModelConfig.adapter_ratio == 0.25
        assert ModelConfig.reduced_channels == 64
        assert ModelConfig.loss_weights == (0.25, 0.5, 1.0)
        assert RunConfig.weight_decay == 5e-4
        names = {f.name for cls in (ModelConfig, RunConfig) for f in fields(cls)}
        assert names.isdisjoint({"adapter_ratio", "reduced_channels", "loss_weights",
                                 "weight_decay"})
        with pytest.raises(TypeError):
            ModelConfig(adapter_ratio=0.5)

    def test_fixed_values_are_not_function_parameters(self):
        # beta^2, the adapter ratio and AdamW's moment settings each have one
        # copy, and the learning rate and decay come from the caller
        assert str(inspect.signature(dsunet.metrics.f_measure)) == (
            "(pred, gt, policy='adaptive')")
        assert str(inspect.signature(Adapter)) == "(channels, init)"
        assert str(inspect.signature(AdamW)) == "(params, lr, weight_decay)"
        assert dsunet.metrics.BETA2 == 0.3
        assert (AdamW.beta1, AdamW.beta2, AdamW.eps) == (0.9, 0.999, 1e-8)

    def test_parse_overrides_and_comments(self):
        text = """
        # training setup
        profile = toy
        variant = B   # per-level fusion
        lr = 0.003
        model_seed = 5
        """
        run = parse_config_text(text)
        assert run.model.variant == "B"
        assert run.lr == 0.003
        assert run.model.seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate = 0.1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: key 'lr' already set on line 1"):
            parse_config_text("lr = 0.1\nepochs = 2\nlr = 0.2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("lr = fast")

    def test_bad_value_names_its_line(self):
        with pytest.raises(ConfigError, match="^line 2: bad value for lr: 'fast'$"):
            parse_config_text("epochs = 2\nlr = fast\n")

    def test_repeated_retired_key_rejected(self):
        with pytest.raises(ConfigError,
                           match="^line 2: key 'beta2_f' already set on line 1$"):
            parse_config_text("beta2_f = 0.3\nbeta2_f = 0.3\n")

    def test_render_round_trip(self):
        run = RunConfig(model=ModelConfig(profile="toy", variant="C", seed=3),
                        lr=0.0025, epochs=7, mode="cod", out_dir="runs/x")
        back = parse_config_text(render_config(run))
        assert back == run

    def test_render_is_the_pinned_format(self):
        # checkpoints embed this text, so its bytes are part of the format
        assert render_config(RunConfig()) == (
            "profile = toy\nvariant = full\nmodel_seed = 0\nlr = 0.001\n"
            "batch = 4\nepochs = 20\nseed = 42\nmode = sod\nn_train = 64\n"
            "n_val = 16\ndata_dir = \nout_dir = runs/out\n")

    # render_config(RunConfig()) before beta2_f and pixel_weighted_loss were
    # removed (20 keys)
    RETIRED_FORMAT = (
        "profile = toy\nvariant = full\nadapter_ratio = 0.25\n"
        "reduced_channels = 64\nloss_w1 = 0.25\nloss_w2 = 0.5\n"
        "loss_w3 = 1.0\nbeta2_f = 0.3\npixel_weighted_loss = true\n"
        "model_seed = 0\nlr = 0.001\nweight_decay = 0.0005\nbatch = 4\n"
        "epochs = 20\nseed = 42\nmode = sod\nn_train = 64\nn_val = 16\n"
        "data_dir = \nout_dir = runs/out\n")

    def test_retired_keys_at_their_old_default_still_parse(self):
        assert parse_config_text(self.RETIRED_FORMAT) == RunConfig()

    def test_format_before_the_fixed_values_became_constants_still_parses(self):
        # render_config(RunConfig()) while adapter_ratio, reduced_channels,
        # loss_w1..loss_w3 and weight_decay were settings (18 keys): the text
        # every checkpoint of the current weight layout written then embeds
        assert parse_config_text(
            "profile = toy\nvariant = full\nadapter_ratio = 0.25\n"
            "reduced_channels = 64\nloss_w1 = 0.25\nloss_w2 = 0.5\n"
            "loss_w3 = 1.0\nmodel_seed = 0\nlr = 0.001\nweight_decay = 0.0005\n"
            "batch = 4\nepochs = 20\nseed = 42\nmode = sod\nn_train = 64\n"
            "n_val = 16\ndata_dir = \nout_dir = runs/out\n") == RunConfig()

    @pytest.mark.parametrize("line", [
        "weight_decay = 5e-4", "loss_w3 = 1", "adapter_ratio = .25",
        "reduced_channels = 064", "beta2_f = 0.30"])
    def test_retired_key_reads_by_value_not_by_text(self, line):
        assert parse_config_text(f"{line}\n") == RunConfig()

    @pytest.mark.parametrize("key, value", [
        ("pixel_weighted_loss", "false"), ("beta2_f", "1.0"),
        ("adapter_ratio", "0.5"), ("reduced_channels", "32"),
        ("reduced_channels", "2.5"), ("reduced_channels", "2.0"), ("loss_w1", "0.1"), ("loss_w1", "nan"),
        ("loss_w2", "inf"), ("loss_w3", "0.5"), ("weight_decay", "1e-4"),
        ("weight_decay", "nan")])
    def test_retired_key_with_another_value_names_line_and_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^line 2: setting '{key}' was removed"):
            parse_config_text(f"lr = 0.01\n{key} = {value}\n")

    def test_numpy_scalars_round_trip(self):
        run = RunConfig(
            model=ModelConfig(seed=np.int64(3)), lr=np.float64(0.003),
            epochs=np.int64(2), seed=np.int64(5))
        text = render_config(run)
        assert "lr = 0.003\n" in text and "np." not in text
        assert parse_config_text(text) == run

    def test_run_edge_values_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig(epochs=0)
        with pytest.raises(ConfigError, match="n_val"):
            RunConfig(n_val=-1)
        RunConfig(n_val=0)   # the boundary is valid

    @pytest.mark.parametrize("line", [
        "lr = nan", "lr = inf", "model_seed = -3", "seed = -1"])
    def test_non_finite_or_out_of_range_value_names_its_key(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"^line 1: {key} must be"):
            parse_config_text(line)

    @pytest.mark.parametrize("line, message", [
        ("lr = nan", "lr must be > 0 and finite, got nan"),
        ("epochs = 0", "epochs must be >= 1 and finite, got 0"),
        ("mode = xyz", "unknown data mode 'xyz'"),
        ("profile = huge", "unknown profile 'huge'"),
    ])
    def test_a_value_that_fails_validation_names_its_line(self, line, message):
        # values are checked as their line is read, not after the last line
        text = f"n_val = 3\n\n# a comment\n{line}\nbatch = 3\n"
        with pytest.raises(ConfigError, match=f"^{re.escape(f'line 4: {message}')}$"):
            parse_config_text(text)

    # config key -> (class, field) of each integer setting
    INTEGER_SETTINGS = {
        "model_seed": (ModelConfig, "seed"), "seed": (RunConfig, "seed"),
        "batch": (RunConfig, "batch"), "epochs": (RunConfig, "epochs"),
        "n_train": (RunConfig, "n_train"), "n_val": (RunConfig, "n_val")}

    # reduced_channels is the constant ModelConfig.reduced_channels now, so a
    # float for it can only arrive on a config line
    @pytest.mark.parametrize("key", [*INTEGER_SETTINGS, "reduced_channels"])
    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_integer_setting_rejects_a_float(self, key, value):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            parse_config_text(f"{key} = {value}\n")
        if key in self.INTEGER_SETTINGS:
            cls, name = self.INTEGER_SETTINGS[key]
            with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {value}"):
                cls(**{name: value})

    @pytest.mark.parametrize("key", ["data_dir", "out_dir"])
    @pytest.mark.parametrize("value", [
        "runs/#1", "runs/x\ny", "runs/x\ry", "runs/x\x1cy", "runs/x\u2028y",
        " runs/x", "runs/x ", "runs/x\t"],
        ids=["hash", "newline", "carriage-return", "file-separator",
             "line-separator", "leading-space", "trailing-space", "trailing-tab"])
    def test_path_a_config_line_cannot_hold_names_its_key(self, key, value):
        # checkpoints echo the config text, so such a path would not read back
        with pytest.raises(ConfigError, match=f"^{key} "):
            RunConfig(**{key: value})

    def test_paths_with_inner_spaces_and_equals_read_back(self):
        run = RunConfig(data_dir="data/set 1", out_dir="runs/lr=0.1")
        assert parse_config_text(render_config(run)) == run

    def test_negative_n_train_rejected(self):
        with pytest.raises(ConfigError, match="n_train must be >= 0"):
            parse_config_text("n_train = -3")
        assert RunConfig(n_train=0).n_train == 0  # left to train's own error

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ModelConfig(profile="huge")
        with pytest.raises(ConfigError):
            ModelConfig(variant="D")
        with pytest.raises(ConfigError):
            RunConfig(lr=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(mode="video")
