"""Self-contained verification suites: gradients, wavelets, metric oracles.

Run from the command line as `dsu verify`; each check prints one
pass/fail line.  The same routines back the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from .blocks import (
    CGA,
    RFB,
    SFF,
    Adapter,
    WaveletDownsample,
    haar_dwt2,
    haar_idwt2,
)
from .metrics import e_measure, f_measure, mae, s_measure
from .nn import Conv2d, seeded_init
from .tensor import Tensor, bilinear_resize, cast_all, gelu, grad_check


def _random_binary_mask(rng, h=16, w=16):
    # mixed foreground/background, never degenerate
    while True:
        m = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.float64)
        if 0 < m.sum() < m.size:
            return m


def _threshold_oracle_pair(rng, h=8, w=8):
    """A small continuous map with PGM-quantised rows, pixels lying exactly on
    thresholds, a row one ulp off thresholds, and exact 0 and 1, against a
    mixed mask; small because the brute-force loops run over 255 thresholds."""
    pred = rng.random((h, w))
    pred[::2] = rng.integers(0, 256, (h // 2 + h % 2, w)) / 255.0
    pred[1, : w // 2] = (rng.integers(0, 255, w // 2) + 0.5) / 255.0
    pred[3, 0], pred[3, 1] = 0.0, 1.0
    pred[5] = np.nextafter((rng.integers(0, 255, w) + 0.5) / 255.0,
                           rng.choice([-np.inf, np.inf], w))
    return pred, _random_binary_mask(rng, h, w)


def _threshold_neighbour_pair():
    """Both float neighbours of each of the 255 thresholds, one ulp below and
    one above, against a fixed mixed mask: the values where a bin guessed
    from ``255 p`` is off by one unless it is corrected."""
    t = (np.arange(255) + 0.5) / 255.0
    pred = np.concatenate([np.nextafter(t, -np.inf),
                           np.nextafter(t, np.inf)]).reshape(30, 17)
    g = (np.arange(pred.size) % 3 == 0).reshape(pred.shape).astype(np.float64)
    return pred, g


def _brute_mean_over_thresholds(pred, g, score):
    """Mean of score(binary map, g) over the 255 thresholds (k + 0.5) / 255."""
    rows, g = pred.tolist(), g.tolist()
    total = 0.0
    for k in range(255):
        t = (k + 0.5) / 255.0
        total += score([[1 if p >= t else 0 for p in row] for row in rows], g)
    return total / 255.0


def _brute_f(binary, g):
    tp = fp = fn = 0
    for brow, grow in zip(binary, g):
        for c, y in zip(brow, grow):
            if c and y:
                tp += 1
            elif c:
                fp += 1
            elif y:
                fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return (1 + 0.3) * precision * recall / (0.3 * precision + recall)


def _brute_e(binary, g):
    cells = [(c, y) for brow, grow in zip(binary, g) for c, y in zip(brow, grow)]
    n = len(cells)
    mean_c = sum(c for c, _ in cells) / n
    mean_g = sum(y for _, y in cells) / n
    total = 0.0
    for c, y in cells:
        if mean_g == 0.0:
            total += 1.0 - c
        elif mean_g == 1.0:
            total += c
        else:
            phi_c = c - mean_c
            phi_g = y - mean_g
            xi = 2.0 * phi_c * phi_g / (phi_c * phi_c + phi_g * phi_g + 1e-8)
            total += (xi + 1.0) ** 2 / 4.0
    return total / n


def check_block_gradients(seeds=range(5), tol=1e-4):
    """Finite-difference checks for each trainable block; returns worst error."""
    worst = {}

    def check(name, fn, tensors, max_coords=None):
        cast_all(tensors, np.float64)
        err = grad_check(fn, tensors, rng=crng, max_coords=max_coords)
        worst[name] = max(worst.get(name, 0.0), err)

    for seed in seeds:
        rng = np.random.default_rng(seed)
        crng = np.random.default_rng(seed + 500)
        init = seeded_init(rng)   # parameters and inputs share one stream

        pointwise = Conv2d(4, 2, 1, init)
        x = Tensor(rng.standard_normal((4, 1, 1)))  # a pooled vector, as in CGA
        check("pointwise", lambda: pointwise(x), pointwise.parameters() + [x])

        c1 = Conv2d(2, 3, 3, init, padding=1)
        c2 = Conv2d(3, 2, 3, init, padding=1)
        x = Tensor(rng.standard_normal((2, 5, 5)))
        check("conv_gelu_conv", lambda: c2(gelu(c1(x))),
              c1.parameters() + c2.parameters() + [x])

        adapter = Adapter(8, init)
        adapter.up.weight.data = rng.standard_normal(
            adapter.up.weight.data.shape).astype(np.float32) * 0.1
        x = Tensor(rng.standard_normal((8, 4, 4)))
        check("adapter", lambda: adapter(x), adapter.parameters() + [x])

        rfb = RFB(8, 8, init)
        x = Tensor(rng.standard_normal((8, 6, 6)))
        check("rfb", lambda: rfb(x), rfb.parameters() + [x], max_coords=24)

        cga = CGA(8, init)
        x = Tensor(rng.standard_normal((8, 4, 4)))
        y = Tensor(rng.standard_normal((8, 4, 4)))
        check("cga", lambda: cga(x, y), cga.parameters() + [x, y], max_coords=24)

        sff = SFF(4, init)
        low = Tensor(rng.standard_normal((4, 6, 6)))
        high = Tensor(rng.standard_normal((4, 3, 3)))
        check("sff", lambda: sff(low, high), sff.parameters() + [low, high],
              max_coords=24)

        wtd = WaveletDownsample(3, init)
        x = Tensor(rng.standard_normal((3, 7, 7)))
        check("wtd", lambda: wtd(x, 3, 3), wtd.parameters() + [x], max_coords=24)
    return [(f"grad:{name}", bool(err < tol), f"worst rel err {err:.2e}")
            for name, err in sorted(worst.items())]


def check_wavelets(seeds=range(5)):
    results = []
    worst_recon = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        back = haar_idwt2(haar_dwt2(x))
        worst_recon = max(worst_recon, float(np.abs(back.data - x.data).max()))
    results.append(("wavelet:perfect_reconstruction", bool(worst_recon < 1e-6),
                    f"max abs err {worst_recon:.2e} on 3x8x8"))

    rng = np.random.default_rng(7)
    wtd = WaveletDownsample(4, seeded_init(rng)).identity_init()
    worst_id = 0.0
    for seed in seeds:
        srng = np.random.default_rng(seed + 100)
        x = Tensor(srng.standard_normal((4, 9, 9)).astype(np.float32))
        got = wtd(x, 5, 5)
        want = bilinear_resize(x, 5, 5)
        worst_id = max(worst_id, float(np.abs(got.data - want.data).max()))
    results.append(("wavelet:identity_wtd_is_resize", bool(worst_id < 1e-5),
                    f"max abs err {worst_id:.2e}"))
    return results


def check_metric_oracles(seeds=range(20)):
    """Self-comparison identities plus naive 64-bit per-pixel loop oracles."""
    results = []
    self_ok = True
    detail = ""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        g = _random_binary_mask(rng)
        checks = (mae(g, g), s_measure(g, g), f_measure(g, g),
                  e_measure(g, g))
        if not (checks[0] == 0.0 and abs(checks[1] - 1.0) < 1e-6
                and checks[2] == 1.0 and abs(checks[3] - 1.0) < 1e-6):
            self_ok = False
            detail = f"seed {seed}: M={checks[0]}, S={checks[1]}, F={checks[2]}, E={checks[3]}"
            break
    results.append(("metric:self_comparison", self_ok,
                    detail or "M=0, S=1, F=1, E=1 on 20 random masks"))

    worst_mae = 0.0
    worst_f = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed + 300)
        pred = rng.random((16, 16))
        g = _random_binary_mask(rng)
        # brute-force double loops in float64
        acc = 0.0
        for i in range(16):
            for j in range(16):
                acc += abs(pred[i, j] - g[i, j])
        worst_mae = max(worst_mae, abs(acc / 256.0 - mae(pred, g)))

        thr = min(2.0 * pred.mean(), 1.0)
        brute_f = _brute_f((pred >= thr).tolist(), g.tolist())
        worst_f = max(worst_f, abs(brute_f - f_measure(pred, g)))
    results.append(("metric:mae_oracle", bool(worst_mae < 1e-12),
                    f"worst diff {worst_mae:.2e}"))
    results.append(("metric:f_oracle", bool(worst_f < 1e-12),
                    f"worst diff {worst_f:.2e}"))

    worst_fmean = 0.0
    worst_emean = 0.0
    pairs = [_threshold_oracle_pair(np.random.default_rng(seed + 600))
             for seed in seeds]
    for pred, g in pairs + [_threshold_neighbour_pair()]:
        worst_fmean = max(worst_fmean, abs(
            _brute_mean_over_thresholds(pred, g, _brute_f)
            - f_measure(pred, g, policy="mean_thresholds")))
        worst_emean = max(worst_emean, abs(
            _brute_mean_over_thresholds(pred, g, _brute_e)
            - e_measure(pred, g, policy="mean_thresholds")))
    results.append(("metric:fmean_oracle", bool(worst_fmean < 1e-12),
                    f"worst diff {worst_fmean:.2e}"))
    results.append(("metric:emean_oracle", bool(worst_emean < 1e-12),
                    f"worst diff {worst_emean:.2e}"))
    return results


def run_all():
    results = []
    results.extend(check_wavelets())
    results.extend(check_metric_oracles())
    results.extend(check_block_gradients())
    return results
