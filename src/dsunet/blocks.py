"""Trainable DSU-Net blocks and the full network assembly.

Adapter, the Haar wavelet pair and wavelet downsampling (WTD),
receptive-field reduction (RFB), content-guided attention fusion (CGA),
spatial feature fusion (SFF) decoding, point-wise heads, and the four fusion
variants.  The token map's channel resampling is ``tensor.channel_resample``.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .encoders import ToyHiera, ToyViT
from .nn import Conv2d, Module, seeded_init
from .tensor import (
    ShapeError,
    amax,
    bilinear_resize,
    channel_resample,
    concat,
    fixed_map,
    gelu,
    mean,
    mul,
    narrow,
    relu,
    sigmoid,
    softmax_over_branch,
)


# orthonormal 2x2 Haar mixing matrix applied to the (y00, y01, y10, y11)
# corners of each block; symmetric and self-inverse
def _haar_mix(a, b, c, d):
    ll = (a + b + c + d) * 0.5
    lh = (a - b + c - d) * 0.5
    hl = (a + b - c - d) * 0.5
    hh = (a - b - c + d) * 0.5
    return ll, lh, hl, hh


def _dwt(d):
    """C x ... x H x W array -> its 4C x ... x H/2 x W/2 LL, LH, HL, HH sub-bands."""
    return np.concatenate(_haar_mix(d[..., 0::2, 0::2], d[..., 0::2, 1::2],
                                    d[..., 1::2, 0::2], d[..., 1::2, 1::2]), axis=0)


def _idwt(d):
    """4C x ... x H x W sub-band array -> the C x ... x 2H x 2W array _dwt maps to it."""
    h, w = d.shape[-2:]
    out = np.empty((d.shape[0] // 4,) + d.shape[1:-2] + (2 * h, 2 * w), dtype=d.dtype)
    (out[..., 0::2, 0::2], out[..., 0::2, 1::2],
     out[..., 1::2, 0::2], out[..., 1::2, 1::2]) = _haar_mix(*np.split(d, 4, axis=0))
    return out


# the transform is orthonormal, so each op's adjoint is the other kernel
def haar_dwt2(x):
    """One-level orthonormal Haar analysis: C x H x W -> 4C x H/2 x W/2, or
    C x N x H x W -> 4C x N x H/2 x W/2.

    Sub-bands stacked on channels in LL, LH, HL, HH order.  H and W must
    be even (the wavelet downsampling block reflect-pads odd inputs first).
    """
    h, w = x.data.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"haar_dwt2 needs even spatial extents, got {h}x{w}")
    return fixed_map(x, _dwt, _idwt)


def haar_idwt2(x):
    """Exact inverse of haar_dwt2: 4C x [N x] H x W -> C x [N x] 2H x 2W."""
    if x.data.shape[0] % 4:
        raise ShapeError("haar_idwt2 needs a channel count divisible by 4")
    return fixed_map(x, _idwt, _dwt)


class Adapter(Module):
    """Residual bottleneck applied per position over the channel axis.

    1x1 conv (C -> b) -> GeLU -> 1x1 conv (b -> C) -> GeLU, added to the
    input; b is ``ModelConfig.adapter_ratio`` of C.  The up-projection starts
    at zero so training begins from the frozen features unperturbed.
    """

    def __init__(self, channels, init):
        super().__init__()
        bottleneck = max(1, round(channels * ModelConfig.adapter_ratio))
        self.down = self.add("down", Conv2d(channels, bottleneck, 1, init))
        self.up = self.add("up", Conv2d(bottleneck, channels, 1, init))
        self.up.weight.data[:] = 0.0
        self.up.bias.data[:] = 0.0

    def forward(self, x):
        return x + gelu(self.up(gelu(self.down(x))))


class WaveletDownsample(Module):
    """Depthwise-separable convolution in Haar sub-band space, then resize.

    reflect-pad to even dims -> dwt -> depthwise 3x3 per sub-band -> idwt
    -> crop -> pointwise 1x1 -> bilinear resize to the target extent.  The
    pad (an odd last row or column mirrors the one before it) and the crop are
    ``concat`` and ``narrow`` ops, so their backward passes are the adjoints.
    """

    def __init__(self, channels, init):
        super().__init__()
        self.channels = channels
        self.subband = self.add(
            "subband", Conv2d(4 * channels, 4 * channels, 3, init, padding=1,
                              groups=4 * channels))
        self.pointwise = self.add("pointwise", Conv2d(channels, channels, 1, init))

    def identity_init(self):
        """Make the block an exact bilinear resize (used by the contract test)."""
        self.subband.weight.data[:] = 0.0
        self.subband.weight.data[:, 0, 1, 1] = 1.0
        self.subband.bias.data[:] = 0.0
        self.pointwise.weight.data[:] = np.eye(self.channels, dtype=np.float32)[
            :, :, None, None
        ]
        self.pointwise.bias.data[:] = 0.0
        return self

    def forward(self, x, target_h, target_w):
        h, w = x.data.shape[-2:]
        y = x  # the padded map is y, so it is freed once the dwt has used it
        if h % 2:
            y = concat([y, narrow(y, np.s_[..., h - 2:h - 1, :])], axis=-2)
        if w % 2:
            y = concat([y, narrow(y, np.s_[..., w - 2:w - 1])], axis=-1)
        y = haar_dwt2(y)
        y = self.subband(y)
        y = haar_idwt2(y)
        y = narrow(y, np.s_[..., :h, :w])
        y = self.pointwise(y)
        return bilinear_resize(y, target_h, target_w)


class RFB(Module):
    """Parallel dilated branches compressing features to a common width.

    Four branches (1x1; 1x1 -> 3x3 d=3; 1x1 -> 3x3 d=5; 1x1 -> 3x3 d=7)
    are concatenated, mixed by a 3x3 convolution, summed with a 1x1
    shortcut projection, and rectified.
    """

    DILATIONS = (3, 5, 7)

    def __init__(self, in_channels, out_channels, init):
        super().__init__()
        q = max(1, out_channels // 4)
        self.reduce0 = self.add("reduce0", Conv2d(in_channels, q, 1, init))
        self.branches = []
        for i, d in enumerate(self.DILATIONS, start=1):
            red = self.add(f"reduce{i}", Conv2d(in_channels, q, 1, init))
            dil = self.add(f"dilated{i}", Conv2d(q, q, 3, init, padding=d, dilation=d))
            self.branches.append((red, dil))
        self.mix = self.add("mix", Conv2d(4 * q, out_channels, 3, init, padding=1))
        self.shortcut = self.add("shortcut", Conv2d(in_channels, out_channels, 1, init))

    def forward(self, x):
        feats = [self.reduce0(x)]
        for red, dil in self.branches:
            feats.append(dil(red(x)))
        y = self.mix(concat(feats, axis=0))
        return relu(y + self.shortcut(x))


class CGA(Module):
    """Content-guided fusion of two same-shaped maps.

    Channel and spatial attentions over the sum form a coarse map: the
    channel attention is a 1x1 conv bottleneck (C -> C/4 -> C) over the
    pooled C x 1 x 1 vector.  A depthwise-separable refinement turns the
    coarse map into per-pixel weights that convexly blend the two inputs
    before a final 1x1 projection.
    """

    def __init__(self, channels, init):
        super().__init__()
        hidden = max(1, channels // 4)
        self.ch_down = self.add("ch_down", Conv2d(channels, hidden, 1, init))
        self.ch_up = self.add("ch_up", Conv2d(hidden, channels, 1, init))
        self.spatial = self.add("spatial", Conv2d(2, 1, 7, init, padding=3))
        self.px_depthwise = self.add(
            "px_depthwise", Conv2d(channels, channels, 3, init, padding=1,
                                   groups=channels))
        self.px_pointwise = self.add("px_pointwise", Conv2d(channels, channels, 1, init))
        self.proj = self.add("proj", Conv2d(channels, channels, 1, init))

    def forward(self, x, y, return_internals=False):
        if x.data.shape != y.data.shape:
            raise ShapeError(f"CGA inputs differ: {x.data.shape} vs {y.data.shape}")
        u = x + y
        gap = mean(u, (-2, -1))  # C x 1 x 1
        wc = sigmoid(self.ch_up(relu(self.ch_down(gap))))
        stats = concat([mean(u, (0,)), amax(u, (0,))], axis=0)
        ws = sigmoid(self.spatial(stats))
        coarse = wc + ws  # broadcast to C x H x W
        w = sigmoid(self.px_pointwise(self.px_depthwise(u + coarse)))
        fused = mul(x, w) + mul(y, 1.0 - w)
        out = self.proj(fused)
        if return_internals:
            return out, {
                "channel_attention": wc,
                "spatial_attention": ws,
                "pixel_attention": w,
                "blend": fused,
            }
        return out


class SFF(Module):
    """Per-pixel softmax blending of a fine map and an upsampled coarse map."""

    def __init__(self, channels, init):
        super().__init__()
        self.gate = self.add("gate", Conv2d(2 * channels, 2, 1, init))
        self.out = self.add("out", Conv2d(channels, channels, 3, init, padding=1))

    def forward(self, low, high, return_weights=False):
        if low.data.shape[0] != high.data.shape[0]:
            raise ShapeError(
                f"SFF channel mismatch: {low.data.shape[0]} vs {high.data.shape[0]}")
        _, h, w = low.data.shape
        high_up = bilinear_resize(high, h, w)
        weights = softmax_over_branch(self.gate(concat([low, high_up], axis=0)))
        a_low = narrow(weights, np.s_[0:1])
        a_high = narrow(weights, np.s_[1:2])
        fused = mul(low, a_low) + mul(high_up, a_high)
        out = self.out(fused)
        if return_weights:
            return out, weights
        return out


class DecodeHead(Module):
    """1x1 point-wise convolution to logits, then bilinear upsampling."""

    def __init__(self, channels, init):
        super().__init__()
        self.proj = self.add("proj", Conv2d(channels, 1, 1, init))

    def forward(self, x, out_h, out_w):
        return bilinear_resize(self.proj(x), out_h, out_w)


# the token map each variant fuses, by name, into a pyramid level (0 = S1 ..
# 3 = S4) through a WTD + CGA pair: variant B fuses ViT tap i + 1 into level
# i, C and full the final token map v.  A single fused level registers its
# pair as wtd/cga, several as wtd1/cga1 .. wtd4/cga4 (checkpoint names).
FUSED_LEVELS = {
    "A": {},
    "B": {i: f"v_tap{i + 1}" for i in range(4)},
    "C": {i: "v" for i in range(4)},
    "full": {3: "v"},
}

LEVELS = ("s1", "s2", "s3", "s4")


class DSUNet(Module):
    """Dual-encoder U-shaped network with frozen backbones.

    Trainable set: adapters, wavelet downsampling, RFB reductions, CGA
    fusions, SFF decoders, and heads.  Both encoders are frozen.
    """

    def __init__(self, config: ModelConfig, init=None):
        """``init`` defaults to uniform draws from ``default_rng(config.seed)``;
        pass :func:`dsunet.nn.placeholder_init` when every value is assigned
        afterwards (a loaded checkpoint) or never read (parameter counting)."""
        super().__init__()
        self.config = config
        profile = config.resolved_profile
        self.profile = profile
        if init is None:
            init = seeded_init(np.random.default_rng(config.seed))

        self.hiera = self.add("encoder.hiera", ToyHiera(profile, init))
        self.vit = self.add("encoder.vit", ToyViT(profile, init))

        chans = profile.hiera_channels
        self.adapters = [
            self.add(f"adapter{i + 1}", Adapter(c, init))
            for i, c in enumerate(chans)
        ]

        levels = FUSED_LEVELS[config.variant]
        # the maps encode builds and forward_pyramid reads
        self.pyramid_names = LEVELS + tuple(dict.fromkeys(levels.values()))
        self.fusions = []
        for i, tokens in levels.items():
            suffix = str(i + 1) if len(levels) > 1 else ""
            wtd = self.add(f"wtd{suffix}", WaveletDownsample(chans[i], init))
            cga = self.add(f"cga{suffix}", CGA(chans[i], init))
            self.fusions.append((i, tokens, wtd, cga))

        rc = config.reduced_channels
        self.rfbs = [
            self.add(f"rfb{i + 1}", RFB(c, rc, init)) for i, c in enumerate(chans)
        ]
        self.sffs = [self.add(f"sff{i + 1}", SFF(rc, init)) for i in range(3)]
        self.heads = [self.add(f"head{i + 1}", DecodeHead(rc, init)) for i in range(3)]

    # -- forward ---------------------------------------------------------

    def encode(self, image_main, image_aux):
        """The name -> Tensor dict of exactly ``pyramid_names`` (what a DSUF file
        holds) after checking both images: s1..s4, then the token maps the variant
        fuses; the token encoder runs only for those, so never for variant A."""
        self.profile.check({"image_main": image_main, "image_aux": image_aux})
        pyramid = dict(zip(LEVELS, self.hiera(image_main)))
        tokens = self.pyramid_names[len(LEVELS):]
        if tokens:
            taps = self.vit(image_aux)
            named = dict(((f"v_tap{i + 1}", t) for i, t in enumerate(taps)), v=taps[-1])
            pyramid.update((name, named[name]) for name in tokens)
        return pyramid

    def forward_pyramid(self, pyramid):
        """Logits (d1, d2, d3), each 1 x H x W, coarsest decoder stage first,
        from a name -> Tensor pyramid; the maps named in ``pyramid_names``
        (s1..s4 and the token maps the variant fuses) must be there in the
        profile's shapes, and no other map is read."""
        self.profile.check({name: pyramid.get(name) for name in self.pyramid_names})
        adapted = [ad(pyramid[name]) for ad, name in zip(self.adapters, LEVELS)]

        fused = list(adapted)
        for i, tokens, wtd, cga in self.fusions:
            c_i, h_i, w_i = adapted[i].data.shape
            fused[i] = cga(adapted[i], wtd(channel_resample(pyramid[tokens], c_i),
                                           h_i, w_i))

        x1, x2, x3, x4 = [rfb(t) for rfb, t in zip(self.rfbs, fused)]
        u3 = self.sffs[0](x3, x4)
        u2 = self.sffs[1](x2, u3)
        u1 = self.sffs[2](x1, u2)
        size = self.profile.main_size
        d1 = self.heads[0](u3, size, size)
        d2 = self.heads[1](u2, size, size)
        d3 = self.heads[2](u1, size, size)
        return d1, d2, d3

    def forward(self, image_main, image_aux):
        return self.forward_pyramid(self.encode(image_main, image_aux))

    # -- parameter accounting ---------------------------------------------

    def parameter_counts(self):
        """(total, trainable, fraction, per-top-level-module subtotals)."""
        total = 0
        trainable = 0
        by_module: dict[str, tuple[int, int]] = {}
        for name, p in self.named_parameters().items():
            group = name.split(".")[0]
            t, tr = by_module.get(group, (0, 0))
            by_module[group] = (t + p.size, tr + (p.size if p.requires_grad else 0))
            total += p.size
            if p.requires_grad:
                trainable += p.size
        fraction = trainable / total if total else 0.0
        return total, trainable, fraction, by_module
