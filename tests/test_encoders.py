import re
import struct

import numpy as np
import pytest

from dsunet.blocks import DSUNet
from dsunet.config import PROFILES, ModelConfig, RunConfig, parse_config_text, render_config
from dsunet.container import (
    MAGIC_CHECKPOINT,
    MAGIC_FEATURES,
    BadMagicError,
    BadVersionError,
    ContainerError,
    TruncatedError,
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
        v, taps = enc(img)
        assert v.shape == (p.vit_channels, p.vit_grid, p.vit_grid)
        assert len(taps) == 4
        for t in taps:
            assert t.shape == v.shape

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
        with pytest.raises(BadMagicError):
            read_container(p)

    def test_checkpoint_magic_differs(self, tmp_path):
        p = str(tmp_path / "d.dsut")
        from dsunet.container import MAGIC_CHECKPOINT
        write_container(p, self._arrays(), magic=MAGIC_CHECKPOINT)
        with pytest.raises(BadMagicError):
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
        with pytest.raises(BadVersionError):
            read_container(p)

    def test_truncation(self, tmp_path):
        p = str(tmp_path / "f.dsuf")
        write_container(p, self._arrays())
        with open(p, "rb") as f:
            raw = f.read()
        with open(p, "wb") as f:
            f.write(raw[:-5])
        with pytest.raises(TruncatedError):
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
            with pytest.raises(TruncatedError):
                read_container(str(p))

    def test_non_utf8_name_raises(self, tmp_path):
        p = tmp_path / "latin1.dsuf"
        one = np.ones(2, dtype=np.float32)
        p.write_bytes(joined_container_bytes([("ok", one), (b"n\xe4me", one)]))
        with pytest.raises(ContainerError, match="tensor 1: name is not UTF-8"):
            read_container(str(p))

    def test_repeated_name_raises(self, tmp_path):
        p = tmp_path / "twice.dsuf"
        pairs = [("s1", np.zeros(2)), ("v", np.ones(3)), ("s1", np.ones(2))]
        p.write_bytes(joined_container_bytes(pairs))
        with pytest.raises(ContainerError, match="tensor 2: name 's1' appears twice"):
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
                for name, shape in profile.pyramid_shapes().items()}

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

    @pytest.mark.parametrize("variant", ["B", "full"])
    def test_encoded_pyramid_round_trips_through_a_feature_file(self, variant,
                                                                tmp_path):
        # encode's dict is what a DSUF file holds: written, read back and
        # decoded, it gives the logits of the in-memory forward, byte for byte
        prof = PROFILES["toy"]
        model = DSUNet(ModelConfig(profile="toy", variant=variant, seed=0))
        rng = np.random.default_rng(2)
        main = Tensor(rng.random((3, prof.main_size, prof.main_size)).astype(np.float32))
        aux = Tensor(rng.random((3, prof.aux_size, prof.aux_size)).astype(np.float32))
        path = str(tmp_path / "encoded.dsuf")
        write_feature_file(path, model.encode(main, aux))
        pyr = load_pyramid(path, prof)
        assert list(pyr) == ["s1", "s2", "s3", "s4", "v",
                             "v_tap1", "v_tap2", "v_tap3", "v_tap4"]
        got = model.forward_pyramid(pyr)
        want = model.forward(main, aux)
        assert [d.data.tobytes() for d in got] == [d.data.tobytes() for d in want]

    def test_missing_tensor(self, tmp_path):
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        del arrays["s3"]
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        with pytest.raises(ShapeError, match="s3 missing: 's3' of profile 'toy'"):
            load_pyramid(path, prof)

    def test_wrong_shape(self, tmp_path):
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        arrays["v"] = arrays["v"][:, :4, :4]
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        with pytest.raises(ShapeError, match="'v'"):
            load_pyramid(path, prof)

    @pytest.mark.parametrize("name", ["v_tap5", "v_tap0", "s5", "V"])
    def test_unknown_name_raises(self, name, tmp_path):
        prof = PROFILES["toy"]
        arrays = self._pyramid_arrays(prof)
        arrays[name] = arrays["v"]
        path = str(tmp_path / "feat.dsuf")
        write_feature_file(path, arrays)
        with pytest.raises(ShapeError, match=re.escape(
                f"{name!r} is not an input of profile 'toy'")):
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
        assert run.model.loss_weights == (0.25, 0.5, 1.0)
        assert run.lr == 1e-3

    def test_parse_overrides_and_comments(self):
        text = """
        # training setup
        profile = toy
        variant = B   # per-level fusion
        lr = 0.003
        loss_w1 = 0.1
        model_seed = 5
        pixel_weighted_loss = false
        """
        run = parse_config_text(text)
        assert run.model.variant == "B"
        assert run.lr == 0.003
        assert run.model.loss_weights == (0.1, 0.5, 1.0)
        assert run.model.seed == 5
        assert run.model.pixel_weighted_loss is False

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
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("pixel_weighted_loss = maybe")

    def test_render_round_trip(self):
        run = RunConfig(model=ModelConfig(profile="toy", variant="C", seed=3,
                                          loss_weights=(0.2, 0.3, 0.5)),
                        lr=0.0025, epochs=7, mode="cod", out_dir="runs/x")
        back = parse_config_text(render_config(run))
        assert back == run

    def test_render_is_the_pinned_format(self):
        # checkpoints embed this text, so its bytes are part of the format
        assert render_config(RunConfig()) == (
            "profile = toy\nvariant = full\nadapter_ratio = 0.25\n"
            "reduced_channels = 64\nloss_w1 = 0.25\nloss_w2 = 0.5\n"
            "loss_w3 = 1.0\nbeta2_f = 0.3\npixel_weighted_loss = true\n"
            "model_seed = 0\nlr = 0.001\nweight_decay = 0.0005\nbatch = 4\n"
            "epochs = 20\nseed = 42\nmode = sod\nn_train = 64\nn_val = 16\n"
            "data_dir = \nout_dir = runs/out\n")

    def test_numpy_scalars_round_trip(self):
        run = RunConfig(
            model=ModelConfig(adapter_ratio=np.float32(0.5),
                              reduced_channels=np.int64(32),
                              loss_weights=(np.float64(0.1), np.float32(0.2), 1.0),
                              pixel_weighted_loss=np.bool_(False),
                              seed=np.int64(3)),
            lr=np.float64(0.003), weight_decay=np.float32(1e-4),
            epochs=np.int64(2), seed=np.int64(5))
        text = render_config(run)
        assert "lr = 0.003\n" in text and "np." not in text
        assert "pixel_weighted_loss = false\n" in text
        assert parse_config_text(text) == run

    def test_run_edge_values_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig(epochs=0)
        with pytest.raises(ConfigError, match="weight_decay"):
            RunConfig(weight_decay=-1e-4)
        with pytest.raises(ConfigError, match="n_val"):
            RunConfig(n_val=-1)
        with pytest.raises(ConfigError, match="loss_weights"):
            ModelConfig(loss_weights=(0.5, 1.0))
        RunConfig(weight_decay=0.0, n_val=0)   # the boundaries are valid

    @pytest.mark.parametrize("line", [
        "lr = nan", "lr = inf", "weight_decay = nan", "loss_w1 = nan",
        "loss_w2 = inf", "beta2_f = -1", "beta2_f = nan"])
    def test_non_finite_or_out_of_range_value_names_its_key(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config_text(line)

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
