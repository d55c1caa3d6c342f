import hashlib
import os
import re

import numpy as np
import pytest

from dsunet.config import PROFILES
from dsunet.data import (
    PgmError,
    PgmHeaderError,
    PgmMaxvalError,
    PgmTruncatedError,
    Sample,
    apply_flip,
    augment_flip,
    generate_dataset,
    generate_sample,
    load_dataset,
    read_image_planes,
    read_mask,
    read_pgm,
    write_dataset,
    write_mask,
    write_pgm,
)


class TestPgmIO:
    def test_round_trip_exact_bytes(self, tmp_path):
        p = str(tmp_path / "x.pgm")
        raw = np.arange(256, dtype=np.uint8).reshape(16, 16)
        write_pgm(p, raw / 255.0)
        back = read_pgm(p)
        np.testing.assert_array_equal(np.rint(back * 255).astype(np.uint8), raw)

    def test_quantization_rule(self, tmp_path):
        p = str(tmp_path / "q.pgm")
        vals = np.array([[0.0, 0.4999 / 255, 0.5001 / 255, 1.0]])
        write_pgm(p, vals)
        with open(p, "rb") as f:
            raw = f.read()
        assert raw[-4:] == bytes([0, 0, 1, 255])

    def test_header_layout(self, tmp_path):
        p = str(tmp_path / "h.pgm")
        write_pgm(p, np.zeros((3, 5)))
        with open(p, "rb") as f:
            head = f.read().split(b"\n")[0:1]
        assert head[0] == b"P5"
        with open(p, "rb") as f:
            tokens = f.read().split(None, 4)
        assert tokens[0] == b"P5"
        assert int(tokens[1]) == 5  # width
        assert int(tokens[2]) == 3  # height
        assert int(tokens[3]) == 255

    def test_comments_in_header_skipped(self, tmp_path):
        p = str(tmp_path / "c.pgm")
        body = bytes([10, 20, 30, 40])
        with open(p, "wb") as f:
            f.write(b"P5\n# a comment line\n2 2\n# another\n255\n" + body)
        vals = read_pgm(p)
        np.testing.assert_allclose(vals * 255, [[10, 20], [30, 40]], atol=1e-9)

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "bad.pgm")
        with open(p, "wb") as f:
            f.write(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(PgmHeaderError):
            read_pgm(p)

    def test_bad_maxval(self, tmp_path):
        p = str(tmp_path / "mv.pgm")
        with open(p, "wb") as f:
            f.write(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PgmMaxvalError):
            read_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = str(tmp_path / "t.pgm")
        with open(p, "wb") as f:
            f.write(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(PgmTruncatedError):
            read_pgm(p)

    @pytest.mark.parametrize("extents", [b"0 4", b"4 0", b"-2 -3"])
    def test_empty_or_negative_extents(self, tmp_path, extents):
        p = str(tmp_path / "e.pgm")
        with open(p, "wb") as f:
            f.write(b"P5\n" + extents + b"\n255\n" + bytes(6))
        with pytest.raises(PgmHeaderError, match="image"):
            read_pgm(p)

    def test_write_rejects_nan(self, tmp_path):
        p = str(tmp_path / "n.pgm")
        with pytest.raises(PgmError, match=r"\[0, 1\]"):
            write_pgm(p, np.array([[0.5, np.nan]]))
        assert not os.path.exists(p)

    def test_mask_binarization(self, tmp_path):
        p = str(tmp_path / "m.pgm")
        write_mask(p, np.array([[0.0, 127 / 255.0, 128 / 255.0, 1.0]]))
        binary = read_mask(p, binarize=True)
        np.testing.assert_array_equal(binary, [[0.0, 0.0, 1.0, 1.0]])


class TestGenerateSample:
    @pytest.mark.parametrize("mode", ["sod", "cod"])
    def test_shapes_match_profile(self, mode):
        prof = PROFILES["toy"]
        s = generate_sample(0, mode, prof)
        assert s.image_main.shape == (3, prof.main_size, prof.main_size)
        assert s.image_aux.shape == (3, prof.aux_size, prof.aux_size)
        assert s.gt.shape == (prof.main_size, prof.main_size)

    def test_deterministic(self):
        a = generate_sample(7, "sod", "toy")
        b = generate_sample(7, "sod", "toy")
        assert a.image_main.tobytes() == b.image_main.tobytes()
        assert a.gt.tobytes() == b.gt.tobytes()
        assert a.id == b.id == "sod_000007"

    def test_different_seeds_differ(self):
        a = generate_sample(1, "sod", "toy")
        b = generate_sample(2, "sod", "toy")
        assert a.image_main.tobytes() != b.image_main.tobytes()

    def test_foreground_fraction_bounds(self):
        for seed in range(25):
            s = generate_sample(seed, "sod", "toy")
            frac = s.gt.mean()
            assert 0.05 <= frac <= 0.6, seed

    def test_mask_is_binary(self):
        s = generate_sample(3, "cod", "toy")
        assert set(np.unique(s.gt)) <= {0.0, 1.0}

    def test_values_in_unit_interval(self):
        s = generate_sample(4, "sod", "toy")
        for img in (s.image_main, s.image_aux):
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_sod_object_contrasts_with_background(self):
        # per-channel gap between object mean and background mean is large
        s = generate_sample(5, "sod", "toy")
        fg = s.gt == 1.0
        gaps = [abs(s.image_main[c][fg].mean() - s.image_main[c][~fg].mean())
                for c in range(3)]
        assert max(gaps) > 0.25

    def test_cod_object_blends_with_background(self):
        # camouflaged objects reuse the background palette: small mean gap
        sod_gaps, cod_gaps = [], []
        for seed in range(8):
            for mode, acc in (("sod", sod_gaps), ("cod", cod_gaps)):
                s = generate_sample(seed, mode, "toy")
                fg = s.gt == 1.0
                acc.append(np.mean([abs(s.image_main[c][fg].mean()
                                        - s.image_main[c][~fg].mean())
                                    for c in range(3)]))
        assert np.mean(cod_gaps) < np.mean(sod_gaps)

    def test_views_share_geometry(self):
        # both resolutions render the same scene, so a nearest-neighbor
        # downsample of the main view should track the aux view closely
        prof = PROFILES["toy"]
        s = generate_sample(6, "sod", prof)
        idx = np.minimum(
            (np.arange(prof.aux_size) * prof.main_size // prof.aux_size),
            prof.main_size - 1)
        down = s.image_main[:, idx][:, :, idx]
        assert np.mean(np.abs(down - s.image_aux)) < 0.1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate_sample(0, "weird", "toy")

    # SHA-256 over (shape, dtype, SHA-256 of the bytes) of image_main,
    # image_aux and gt of toy samples 0, 1 and 2.  A changed draw, geometry or
    # rendering step changes the digest.
    PINNED_DIGESTS = {
        "sod": "dcdf3563c37e09c473e4ee020ffd1fa3701425d8a2b14fefaeb61e5338b1c7b4",
        "cod": "04b4c9df652224406a33feb7542e4296f9d83a25dd31e1c11a8755e558e6c92d",
    }

    @pytest.mark.parametrize("mode", ["sod", "cod"])
    def test_samples_match_pinned_digests(self, mode):
        h = hashlib.sha256()
        for seed in range(3):
            s = generate_sample(seed, mode, "toy")
            for a in (s.image_main, s.image_aux, s.gt):
                h.update(str(a.shape).encode())
                h.update(str(a.dtype).encode())
                h.update(hashlib.sha256(a.tobytes()).digest())
        assert h.hexdigest() == self.PINNED_DIGESTS[mode]


class TestAugmentation:
    def test_flip_consistency(self):
        s = generate_sample(0, "sod", "toy")
        f = apply_flip(s, flip_h=True, flip_v=False)
        np.testing.assert_array_equal(f.gt, s.gt[:, ::-1])
        np.testing.assert_array_equal(f.image_main, s.image_main[:, :, ::-1])
        np.testing.assert_array_equal(f.image_aux, s.image_aux[:, :, ::-1])

    def test_double_flip_restores(self):
        s = generate_sample(1, "sod", "toy")
        f = apply_flip(apply_flip(s, True, True), True, True)
        np.testing.assert_array_equal(f.gt, s.gt)

    def test_no_flip_returns_same_object(self):
        s = generate_sample(2, "sod", "toy")
        assert apply_flip(s, False, False) is s

    def test_augment_deterministic_with_seeded_rng(self):
        s = generate_sample(3, "sod", "toy")
        a = augment_flip(s, np.random.default_rng(11))
        b = augment_flip(s, np.random.default_rng(11))
        np.testing.assert_array_equal(a.gt, b.gt)


class TestDatasetLayout:
    def test_write_then_load_round_trip(self, tmp_path):
        samples, seeds = generate_dataset(3, "sod", "toy", seed_base=10)
        root = str(tmp_path / "ds")
        write_dataset(root, samples, seeds)

        for sub in ("images-main", "images-aux", "gt"):
            assert os.path.isdir(os.path.join(root, sub))
        with open(os.path.join(root, "manifest.txt")) as f:
            manifest = f.read().strip().split("\n")
        assert manifest == [f"sod_{s:06d} {s}" for s in (10, 11, 12)]

        back = load_dataset(root)
        assert [s.id for s in back] == [s.id for s in samples]
        for orig, rt in zip(samples, back):
            # one PGM quantization trip: max error half a byte step
            assert np.max(np.abs(orig.image_main - rt.image_main)) <= 0.5 / 255 + 1e-6
            np.testing.assert_array_equal(orig.gt, rt.gt)

    def test_planar_rgb_files(self, tmp_path):
        samples, seeds = generate_dataset(1, "cod", "toy", seed_base=0)
        root = str(tmp_path / "ds")
        write_dataset(root, samples, seeds)
        sid = samples[0].id
        for suffix in ("r", "g", "b"):
            assert os.path.exists(os.path.join(root, "images-main",
                                               f"{sid}.{suffix}.pgm"))
        planes = read_image_planes(os.path.join(root, "images-main"), sid)
        assert planes.shape == samples[0].image_main.shape

    @pytest.mark.parametrize("line", ["sod_000010", "sod_000010 10 extra"])
    def test_malformed_manifest_line_names_file_and_line(self, tmp_path, line):
        samples, seeds = generate_dataset(1, "sod", "toy", seed_base=10)
        root = str(tmp_path / "ds")
        write_dataset(root, samples, seeds)
        manifest = os.path.join(root, "manifest.txt")
        with open(manifest, "w", encoding="utf-8") as f:
            f.write(f"sod_000010 10\n\n{line}\n")  # the blank line is skipped
        with pytest.raises(ValueError, match=re.escape(
                f"{manifest} line 3: expected 'id seed', got {line!r}")):
            load_dataset(root, limit=1)  # lines past the limit are checked too

    def test_generate_dataset_seeds_are_sequential(self):
        samples, seeds = generate_dataset(4, "sod", "toy", seed_base=100)
        assert seeds == [100, 101, 102, 103]
        assert samples[0].id == "sod_000100"
