"""Frozen stand-in backbones and the feature-file ingestion path.

The stand-ins are intentionally shallow; they exist to reproduce the
feature geometry and the frozen/adapter training dynamic, not to extract
good representations.  Features computed by real backbones can be injected
through the DSUF container instead.
"""

from __future__ import annotations

from .config import Profile
from .container import MAGIC_FEATURES, read_container, write_container
from .nn import Conv2d, Module
from .tensor import ShapeError, Tensor, gelu, relu


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
        x = relu(self.stem(image))
        outs = []
        for down, mix in self.stages:
            x = relu(down(x))
            x = relu(mix(x))
            outs.append(x)
        return outs


class ToyViT(Module):
    """Patch embedding plus four token-mixing blocks; ``forward`` returns the
    map after each block (the taps variant B fuses), the token map v last."""

    N_BLOCKS = 4

    def __init__(self, profile: Profile, init):
        super().__init__()
        c = profile.vit_channels
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
        x = self.embed(image)
        taps = []
        for dw, pw in self.blocks:
            x = x + relu(dw(x))
            x = x + gelu(pw(x))
            taps.append(x)
        return taps


def write_feature_file(path, named_tensors):
    arrays = {
        name: (t.data if isinstance(t, Tensor) else t)
        for name, t in named_tensors.items()
    }
    write_container(path, arrays, magic=MAGIC_FEATURES)


def load_pyramid(path, profile: Profile):
    """Read a DSUF file as the name -> Tensor pyramid ``DSUNet.encode`` returns:
    ShapeError unless each array is a pyramid map, named as in
    ``profile.pyramid_shapes()``, of the profile's shape.  A missing map is
    reported by its reader, ``DSUNet.forward_pyramid``."""
    arrays = read_container(path, magic=MAGIC_FEATURES)
    names = profile.pyramid_shapes()
    for name in arrays:
        if name not in names:
            raise ShapeError(f"feature file {path}: {name!r} is not a pyramid map "
                             f"of profile {profile.name!r}, which has {', '.join(names)}")
    profile.check(arrays, f"feature file {path}: ")
    return {name: Tensor(array) for name, array in arrays.items()}
