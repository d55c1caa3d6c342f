"""Procedural SOD/COD samples, flip augmentation, and PGM mask IO.

Scenes are metaball blobs over a low-frequency sinusoidal background,
rendered at both encoder resolutions from the same normalized geometry.
SOD blobs are filled with a high-contrast color; COD blobs reuse the
background texture, phase-shifted and mildly warped.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .config import PROFILES
from .tensor import ConfigError, DsuError


class PgmError(DsuError, ValueError):
    """A PGM file this module cannot read, or an array it cannot write as one."""


def write_pgm(path, values):
    """Write an H x W array of [0, 1] floats as binary PGM (P5, maxval 255)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise PgmError("write_pgm expects an H x W array")
    if not (values.min() >= 0.0 and values.max() <= 1.0):   # NaN fails both
        raise PgmError("write_pgm expects values in [0, 1], not NaN")
    data = np.rint(values * 255.0).astype(np.uint8)
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def _read_pgm_tokens(data, count, path):
    """Read `count` whitespace-separated header tokens (skipping # comments)."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise PgmError(f"{path}: malformed PGM header: ran out of data")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise PgmError(f"{path}: malformed PGM header: unterminated comment")
            pos = nl + 1
        else:
            m = re.match(rb"[^\s#]+", data[pos:])
            tokens.append(m.group(0))
            pos += len(m.group(0))
    return tokens, pos


def read_pgm(path):
    """Read a binary PGM into an H x W float array in [0, 1]; PgmError names path."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise PgmError(f"{path}: malformed PGM header: missing P5 signature")
    tokens, pos = _read_pgm_tokens(data[2:], 3, path)
    pos += 2
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PgmError(f"{path}: malformed PGM header: non-numeric fields {tokens}")
    if w < 1 or h < 1:
        raise PgmError(f"{path}: malformed PGM header: {w} x {h} image")
    if maxval != 255:
        raise PgmError(f"{path}: unsupported PGM maxval {maxval}, expected 255")
    pos += 1  # the single whitespace byte after maxval
    payload = data[pos : pos + h * w]
    if len(payload) < h * w:
        raise PgmError(f"{path}: truncated PGM payload: expected {h * w} bytes, "
                       f"got {len(payload)}")
    return (np.frombuffer(payload, dtype=np.uint8)
            .reshape(h, w).astype(np.float64) / 255.0)


def write_mask(path, mask):
    write_pgm(path, mask)


def read_mask(path, binarize=False):
    """Read a mask; ground truths binarize at raw byte >= 128, to 0.0/1.0
    written in place over the map read_pgm returned (no second map)."""
    values = read_pgm(path)
    if binarize:
        return np.greater_equal(values, 128.0 / 255.0, out=values)
    return values


@dataclass
class Sample:
    image_main: np.ndarray   # 3 x H x W float32
    image_aux: np.ndarray    # 3 x H' x W' float32
    gt: np.ndarray           # H x W binary float32
    id: str


def _grid(n):
    # normalized pixel-center coordinates in [0, 1)
    return (np.arange(n) + 0.5) / n


def _background(rng_params, x, y):
    """Low-frequency 3-channel sinusoidal texture on a unit grid."""
    img = np.empty((3, y.size, x.size), dtype=np.float64)
    yy = y[:, None]
    xx = x[None, :]
    for c in range(3):
        acc = 0.5 * np.ones((y.size, x.size))
        for fx, fy, phase, amp in rng_params[c]:
            acc += amp * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
        img[c] = acc
    return np.clip(img, 0.0, 1.0)


def _metaball_field(blobs, x, y):
    yy = y[:, None]
    xx = x[None, :]
    field = np.zeros((y.size, x.size))
    for cx, cy, r in blobs:
        field += r * r / ((xx - cx) ** 2 + (yy - cy) ** 2 + 1e-9)
    return field


def generate_sample(rng_seed, mode, profile):
    """Deterministic synthetic sample; gt foreground fraction in [0.05, 0.6]."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    if mode not in ("sod", "cod"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(rng_seed)
    x_main = _grid(profile.main_size)
    y_main = x_main
    x_aux = _grid(profile.aux_size)
    y_aux = x_aux

    for _ in range(200):
        bg_params = [
            [(rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5),
              rng.uniform(0, 2 * np.pi), rng.uniform(0.05, 0.14))
             for _ in range(3)]
            for _ in range(3)
        ]
        n_blobs = int(rng.integers(1, 4))
        blobs = [
            (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(0.08, 0.25))
            for _ in range(n_blobs)
        ]
        warp = (rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0),
                rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 0.3))
        fg_color_u = rng.uniform(0.0, 1.0, size=3)

        mask_main = _metaball_field(blobs, x_main, y_main) >= 1.0
        frac = mask_main.mean()
        if not 0.05 <= frac <= 0.6:
            continue

        mask_aux = _metaball_field(blobs, x_aux, y_aux) >= 1.0
        views = []
        for xg, yg, mask in ((x_main, y_main, mask_main), (x_aux, y_aux, mask_aux)):
            bg = _background(bg_params, xg, yg)
            if mode == "sod":
                # solid color on the opposite side of the background mean
                fg = np.empty(3)
                for c in range(3):
                    if bg[c].mean() >= 0.5:
                        fg[c] = 0.1 * fg_color_u[c]
                    else:
                        fg[c] = 0.9 + 0.1 * fg_color_u[c]
                img = np.where(mask[None], fg[:, None, None], bg)
            else:
                # background texture, phase-shifted and mildly warped
                wfx, wfy, wphase, wshift = warp
                dx = 0.04 * np.sin(2 * np.pi * (wfx * xg[None, :] + wfy * yg[:, None])
                                   + wphase)
                xs = np.clip(xg[None, :] + dx + 0.08 * wshift, 0, 1 - 1e-9)
                # resample each row of the background at warped x positions
                idx = np.minimum((xs * xg.size).astype(np.intp), xg.size - 1)
                warped = np.take_along_axis(
                    bg, np.broadcast_to(idx[None], bg.shape), axis=2)
                img = np.where(mask[None], warped, bg)
            views.append(img.astype(np.float32))

        return Sample(views[0], views[1], mask_main.astype(np.float32),
                      f"{mode}_{rng_seed:06d}")
    raise RuntimeError(f"could not generate a valid sample for seed {rng_seed}")


def apply_flip(sample, flip_h, flip_v):
    """Flip both image views and the mask together, as views (no copy)."""
    def fl(a, spatial_axes):
        out = a
        if flip_v:
            out = np.flip(out, axis=spatial_axes[0])
        if flip_h:
            out = np.flip(out, axis=spatial_axes[1])
        return out

    if not (flip_h or flip_v):
        return sample
    return Sample(fl(sample.image_main, (1, 2)), fl(sample.image_aux, (1, 2)),
                  fl(sample.gt, (0, 1)), sample.id)


def augment_flip(sample, rng):
    """Independent vertical and horizontal flips, each with probability 0.5.

    Returns ``(flipped sample, flip_h, flip_v)``.
    """
    flip_v = bool(rng.random() < 0.5)
    flip_h = bool(rng.random() < 0.5)
    return apply_flip(sample, flip_h, flip_v), flip_h, flip_v


# -- dataset directory layout ----------------------------------------------


def write_dataset(root, samples, seeds):
    """images-main/<id>.{r,g,b}.pgm, images-aux/ likewise, gt/<id>.pgm, manifest."""
    for sub in ("images-main", "images-aux", "gt"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    lines = []
    for sample, seed in zip(samples, seeds):
        for sub, img in (("images-main", sample.image_main),
                         ("images-aux", sample.image_aux)):
            for plane, suffix in zip(img, ("r", "g", "b")):
                write_pgm(os.path.join(root, sub, f"{sample.id}.{suffix}.pgm"),
                          np.clip(plane, 0.0, 1.0))
        write_mask(os.path.join(root, "gt", f"{sample.id}.pgm"), sample.gt)
        lines.append(f"{sample.id} {seed}")
    with open(os.path.join(root, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def read_image_planes(directory, sample_id):
    planes = [read_pgm(os.path.join(directory, f"{sample_id}.{s}.pgm"))
              for s in ("r", "g", "b")]
    return np.stack(planes).astype(np.float32)


def load_dataset(root, limit=None):
    """Read a dataset directory back into Samples (quantized by the PGM trip):
    the first ``limit`` manifest entries, or all of them when it is None."""
    manifest = os.path.join(root, "manifest.txt")
    with open(manifest, "r", encoding="utf-8") as f:
        try:
            entries = [(lineno, line.split()) for lineno, line in enumerate(f, start=1)
                       if line.strip()]
        except UnicodeDecodeError:
            raise ConfigError(f"{manifest}: not UTF-8 text") from None
    for lineno, fields in entries:
        if len(fields) != 2:
            raise ConfigError(f"{manifest} line {lineno}: expected 'id seed', "
                              f"got {' '.join(fields)!r}")
    samples = []
    for _, (sample_id, _seed) in entries[:limit]:
        main = read_image_planes(os.path.join(root, "images-main"), sample_id)
        aux = read_image_planes(os.path.join(root, "images-aux"), sample_id)
        gt = read_mask(os.path.join(root, "gt", f"{sample_id}.pgm"),
                       binarize=True).astype(np.float32)
        samples.append(Sample(main, aux, gt, sample_id))
    return samples


def generate_dataset(n, mode, profile, seed_base):
    """n deterministic samples with seeds seed_base .. seed_base + n - 1."""
    seeds = list(range(seed_base, seed_base + n))
    return [generate_sample(s, mode, profile) for s in seeds], seeds
