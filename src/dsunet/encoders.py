"""Frozen stand-in backbones and the feature-file ingestion path.

The stand-ins are intentionally shallow; they exist to reproduce the
feature geometry and the frozen/adapter training dynamic, not to extract
good representations.  Features computed by real backbones can be injected
through the DSUF container instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Profile
from .container import MAGIC_FEATURES, read_container, write_container
from .nn import Conv2d, Module
from .tensor import ShapeError, Tensor, gelu, relu


@dataclass
class FeaturePyramid:
    """The four hierarchical maps S1..S4, the token map V, optional ViT taps."""

    s1: Tensor
    s2: Tensor
    s3: Tensor
    s4: Tensor
    v: Tensor
    v_taps: list[Tensor] | None = None

    def levels(self):
        return [self.s1, self.s2, self.s3, self.s4]


class ToyHiera(Module):
    """Four stages of stride-2 convolution blocks with channel doubling."""

    def __init__(self, profile: Profile, init):
        super().__init__()
        chans = profile.hiera_channels
        self.stem = self.add("stem", Conv2d(3, chans[0] // 2, 3, init, stride=2,
                                            padding=1))
        self.stages = []
        prev = chans[0] // 2
        for i, c in enumerate(chans):
            down = self.add(f"stage{i + 1}.down",
                            Conv2d(prev, c, 3, init, stride=2, padding=1))
            mix = self.add(f"stage{i + 1}.mix", Conv2d(c, c, 3, init, padding=1))
            self.stages.append((down, mix))
            prev = c
        self.freeze()

    def forward(self, image):
        c, h, w = image.shape
        if c != 3 or h % 32 or w % 32:
            raise ShapeError(f"pyramid encoder needs 3 x H x W with H, W divisible by 32, got {image.shape}")
        x = relu(self.stem(image))
        outs = []
        for down, mix in self.stages:
            x = relu(down(x))
            x = relu(mix(x))
            outs.append(x)
        return outs


class ToyViT(Module):
    """Patch embedding plus a short stack of token-mixing blocks.

    One tap is exposed after each block (four blocks total) for the
    per-level fusion variant.
    """

    N_BLOCKS = 4

    def __init__(self, profile: Profile, init):
        super().__init__()
        c = profile.vit_channels
        self.patch = profile.patch
        self.embed = self.add("embed", Conv2d(3, c, profile.patch, init,
                                              stride=profile.patch))
        self.blocks = []
        for i in range(self.N_BLOCKS):
            dw = self.add(f"block{i + 1}.token_mix",
                          Conv2d(c, c, 3, init, padding=1, groups=c))
            pw = self.add(f"block{i + 1}.channel_mix", Conv2d(c, c, 1, init))
            self.blocks.append((dw, pw))
        self.freeze()

    def forward(self, image):
        c, h, w = image.shape
        if c != 3 or h % self.patch or w % self.patch:
            raise ShapeError(
                f"token encoder needs 3 x H x W with H, W divisible by {self.patch}, got {image.shape}"
            )
        x = self.embed(image)
        taps = []
        for dw, pw in self.blocks:
            x = x + relu(dw(x))
            x = x + gelu(pw(x))
            taps.append(x)
        return x, taps


def write_feature_file(path, named_tensors):
    arrays = {
        name: (t.data if isinstance(t, Tensor) else t)
        for name, t in named_tensors.items()
    }
    write_container(path, arrays, magic=MAGIC_FEATURES)


def load_pyramid(path, profile: Profile):
    """Read a DSUF file and validate its shapes against the active profile;
    ViT taps, when present, are read by number as v_tap1 .. v_tapN."""
    arrays = read_container(path, magic=MAGIC_FEATURES)
    expected = profile.pyramid_shapes()
    tensors = {}
    for name, shape in expected.items():
        if name not in arrays:
            raise ShapeError(f"feature file is missing {name!r}")
        if arrays[name].shape != shape:
            raise ShapeError(
                f"feature {name!r} has shape {arrays[name].shape}, "
                f"profile {profile.name!r} expects {shape}"
            )
        tensors[name] = Tensor(arrays[name])
    n_taps = sum(name.startswith("v_tap") for name in arrays)
    tap_names = [f"v_tap{i}" for i in range(1, n_taps + 1)]
    missing = [name for name in tap_names if name not in arrays]
    if missing:
        raise ShapeError(f"feature file has {n_taps} ViT taps but no {missing[0]!r}")
    taps = [Tensor(arrays[name]) for name in tap_names] or None
    return FeaturePyramid(tensors["s1"], tensors["s2"], tensors["s3"], tensors["s4"],
                          tensors["v"], taps)
