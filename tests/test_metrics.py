import os
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsunet.metrics
from dsunet.data import write_pgm
from dsunet.metrics import (
    _THRESHOLDS,
    _grid_bins,
    EPS,
    MetricError,
    UndefinedMetric,
    compute_report,
    e_measure,
    evaluate_dataset,
    f_measure,
    mae,
    report_csv,
    report_table,
    s_measure,
)
from dsunet.verify import check_metric_oracles


def oracle_mae(pred, gt):
    """Scalar double loop, no vectorization."""
    total = 0.0
    h, w = pred.shape
    for i in range(h):
        for j in range(w):
            total += abs(float(pred[i, j]) - float(gt[i, j]))
    return total / (h * w)


def oracle_f(pred, gt, thr, beta2=0.3):
    tp = fp = fn = 0
    h, w = pred.shape
    for i in range(h):
        for j in range(w):
            p = pred[i, j] >= thr
            g = gt[i, j] >= 0.5
            if p and g:
                tp += 1
            elif p and not g:
                fp += 1
            elif g:
                fn += 1
    if tp == 0:
        return 0.0
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return (1 + beta2) * prec * rec / (beta2 * prec + rec)


def oracle_s(pred, gt):
    """Independent straight-line structural score."""
    gtb = (gt >= 0.5).astype(np.float64)
    mu = gtb.mean()
    if mu == 0.0:
        return max(0.0, 1.0 - pred.mean())
    if mu == 1.0:
        return max(0.0, pred.mean())

    def obj(vals):
        x = vals.mean()
        return 2.0 * x / (x * x + 1.0 + vals.std() + EPS)

    so = mu * obj(pred[gtb == 1]) + (1 - mu) * obj(1.0 - pred[gtb == 0])
    rows, cols = np.nonzero(gtb == 1)
    cy, cx = int(round(rows.mean())), int(round(cols.mean()))
    h, w = gtb.shape
    sr = 0.0
    for rs, cs in ((slice(0, cy), slice(0, cx)), (slice(0, cy), slice(cx, w)),
                   (slice(cy, h), slice(0, cx)), (slice(cy, h), slice(cx, w))):
        x, y = pred[rs, cs].ravel(), gtb[rs, cs].ravel()
        if x.size == 0:
            continue
        xm, ym = x.mean(), y.mean()
        sxy = ((x - xm) * (y - ym)).mean()
        num = 4 * xm * ym * sxy
        den = (xm**2 + ym**2) * (((x - xm) ** 2).mean() + ((y - ym) ** 2).mean())
        q = 1.0 if (num == 0.0 and den == 0.0) else num / (den + EPS)
        sr += x.size / (h * w) * q
    return max(0.0, 0.5 * so + 0.5 * sr)


def random_pair(seed, h=24, w=24):
    rng = np.random.default_rng(seed)
    pred = rng.random((h, w))
    gt = np.zeros((h, w))
    r0, c0 = rng.integers(0, h - 6), rng.integers(0, w - 6)
    gt[r0:r0 + 6, c0:c0 + 6] = 1.0
    return pred, gt


class TestMAE:
    def test_identical(self):
        p = np.random.default_rng(0).random((8, 8))
        assert mae(p, p) == 0.0

    def test_opposite(self):
        assert mae(np.ones((4, 4)), np.zeros((4, 4))) == 1.0

    def test_matches_oracle(self):
        for seed in range(20):
            pred, gt = random_pair(seed)
            assert abs(mae(pred, gt) - oracle_mae(pred, gt)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(MetricError, match="mismatch"):
            mae(np.zeros((4, 4)), np.zeros((4, 5)))


class TestFMeasure:
    def test_perfect_binary_prediction(self):
        _, gt = random_pair(0)
        assert f_measure(gt, gt) == pytest.approx(1.0)

    def test_adaptive_matches_oracle(self):
        for seed in range(20):
            pred, gt = random_pair(seed)
            thr = min(2.0 * pred.mean(), 1.0)
            got = f_measure(pred, gt, policy="adaptive")
            assert abs(got - oracle_f(pred, gt, thr)) < 1e-12

    def test_mean_policy_matches_oracle(self):
        pred, gt = random_pair(3)
        want = np.mean([oracle_f(pred, gt, (k + 0.5) / 255) for k in range(255)])
        got = f_measure(pred, gt, policy="mean_thresholds")
        assert abs(got - want) < 1e-12

    def test_threshold_saturates_at_one(self):
        # mean 0.6 doubles past 1; nothing reaches a threshold of 1 exactly
        # except pixels valued 1.0
        pred = np.full((8, 8), 0.6)
        gt = np.zeros((8, 8))
        gt[:4] = 1.0
        assert f_measure(pred, gt, policy="adaptive") == 0.0

    def test_empty_foreground_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            f_measure(np.random.default_rng(0).random((8, 8)), np.zeros((8, 8)))

    def test_no_true_positives_is_zero(self):
        gt = np.zeros((8, 8))
        gt[:2] = 1.0
        pred = np.zeros((8, 8))
        pred[6:] = 1.0
        assert f_measure(pred, gt, policy="adaptive") == 0.0

    def test_unknown_policy(self):
        pred, gt = random_pair(0)
        with pytest.raises(MetricError):
            f_measure(pred, gt, policy="weird")


class TestEMeasure:
    def test_hand_computed_two_by_two(self):
        # one overlapping pixel out of a two-pixel target:
        # enhanced matrix is (0.924556, 0.01, 0.81, 0.81) / 4
        pred = np.array([[1.0, 0.0], [0.0, 0.0]])
        gt = np.array([[1.0, 1.0], [0.0, 0.0]])
        got = e_measure(pred, gt, policy="adaptive")
        phi_c = pred - pred.mean()
        phi_g = gt - gt.mean()
        xi = 2 * phi_c * phi_g / (phi_c**2 + phi_g**2 + EPS)
        want = float(((xi + 1) ** 2 / 4).mean())
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(0.6386, abs=5e-4)

    def test_perfect_binary_prediction(self):
        _, gt = random_pair(1)
        assert e_measure(gt, gt, policy="adaptive") == pytest.approx(1.0, abs=1e-3)

    def test_all_zero_gt_rule(self):
        pred = np.zeros((6, 6))
        pred[0, 0] = 1.0  # adaptive threshold keeps only this pixel
        got = e_measure(pred, np.zeros((6, 6)), policy="adaptive")
        assert got == pytest.approx(1.0 - 1.0 / 36.0)

    def test_all_one_gt_rule(self):
        pred = np.full((6, 6), 0.4)
        pred[:3] = 0.9
        binary_frac = 0.5  # threshold 2*0.65 > 0.9 is false; thr=1 -> none
        got = e_measure(pred, np.ones((6, 6)), policy="adaptive")
        thr = min(2 * pred.mean(), 1.0)
        want = float((pred >= thr).mean())
        assert got == pytest.approx(want)

    def test_mean_policy_averages_255_thresholds(self):
        pred, gt = random_pair(2)
        singles = []
        for k in range(255):
            t = (k + 0.5) / 255
            b = (pred >= t).astype(float)
            phi_c = b - b.mean()
            phi_g = gt - gt.mean()
            xi = 2 * phi_c * phi_g / (phi_c**2 + phi_g**2 + EPS)
            singles.append(((xi + 1) ** 2 / 4).mean())
        got = e_measure(pred, gt, policy="mean_thresholds")
        assert got == pytest.approx(float(np.mean(singles)), abs=1e-12)


def per_threshold_f(pred, gt, beta2=0.3, policy="adaptive"):
    """F-measure that binarizes and rescans the map once per threshold."""
    pred = np.asarray(pred, dtype=np.float64)
    gt_fg = np.asarray(gt, dtype=np.float64) >= 0.5
    if not gt_fg.any():
        raise UndefinedMetric("empty foreground")

    def single(binary):
        tp = float(np.logical_and(binary, gt_fg).sum())
        if tp == 0.0:
            return 0.0
        fp = float(np.logical_and(binary, ~gt_fg).sum())
        fn = float(np.logical_and(~binary, gt_fg).sum())
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        return (1 + beta2) * precision * recall / (beta2 * precision + recall)

    if policy == "adaptive":
        return single(pred >= min(2.0 * float(pred.mean()), 1.0))
    return float(np.mean([single(pred >= t) for t in _THRESHOLDS]))


def per_threshold_e(pred, gt, policy="adaptive"):
    """E-measure that binarizes and rescans the map once per threshold."""
    pred = np.asarray(pred, dtype=np.float64)
    gt_fg = np.asarray(gt, dtype=np.float64) >= 0.5

    def single(binary):
        c = binary.astype(np.float64)
        g = gt_fg.astype(np.float64)
        if not gt_fg.any():
            enhanced = 1.0 - c
        elif gt_fg.all():
            enhanced = c
        else:
            phi_c = c - c.mean()
            phi_g = g - g.mean()
            xi = 2.0 * phi_c * phi_g / (phi_c**2 + phi_g**2 + EPS)
            enhanced = (xi + 1.0) ** 2 / 4.0
        return float(enhanced.mean())

    if policy == "adaptive":
        return single(pred >= min(2.0 * float(pred.mean()), 1.0))
    return float(np.mean([single(pred >= t) for t in _THRESHOLDS]))


def _continuous(rng, shape):
    return rng.random(shape)


def _pgm_quantised(rng, shape):
    return rng.integers(0, 256, shape) / 255.0


def _on_thresholds(rng, shape):
    return _THRESHOLDS[rng.integers(0, 255, shape)]


def _with_exact_ends(rng, shape):
    pred = rng.random(shape)
    pred.flat[::3] = 0.0
    pred.flat[1::4] = 1.0
    return pred


def _constant(rng, shape):
    value = (0.0, 1.0, _THRESHOLDS[100], rng.random())[rng.integers(0, 4)]
    return np.full(shape, value)


def _one_nan(rng, shape):
    pred = rng.random(shape)
    pred.flat[rng.integers(0, pred.size)] = np.nan
    return pred


def _next_to_thresholds(rng, shape):
    # one ulp below or above a threshold: where a rounded guess of the bin errs
    return np.nextafter(_THRESHOLDS[rng.integers(0, 255, shape)],
                        rng.choice([-np.inf, np.inf], shape))


def _out_of_range(rng, shape):
    # one infinity per map: +inf and -inf together make the adaptive
    # threshold's mean NaN with an invalid-value warning
    pred = rng.uniform(-2.0, 3.0, shape)
    pred.flat[rng.integers(0, pred.size)] = rng.choice([-np.inf, np.inf])
    return pred


MAP_KINDS = {
    "continuous": _continuous,
    "pgm_quantised": _pgm_quantised,
    "on_thresholds": _on_thresholds,
    "exact_0_and_1": _with_exact_ends,
    "constant": _constant,
    "nan_pixel": _one_nan,
    "next_to_thresholds": _next_to_thresholds,
    "out_of_range": _out_of_range,
}


class TestCountsMatchPerThreshold:
    """F and E from confusion counts equal the per-threshold rescans."""

    def _gt(self, rng, shape, kind):
        if kind == "all_fg":
            return np.ones(shape)
        if kind == "all_bg":
            return np.zeros(shape)
        gt = (rng.random(shape) < rng.uniform(0.2, 0.8)).astype(np.float64)
        gt.flat[0], gt.flat[-1] = 1.0, 0.0   # both classes present
        return gt

    def _assert_match(self, pred, gt):
        for policy in ("adaptive", "mean_thresholds"):
            got = e_measure(pred, gt, policy)
            assert abs(got - per_threshold_e(pred, gt, policy)) < 1e-12, policy
            if not (np.asarray(gt) >= 0.5).any():
                with pytest.raises(UndefinedMetric):
                    f_measure(pred, gt, policy)
                continue
            got = f_measure(pred, gt, policy)
            assert abs(got - per_threshold_f(pred, gt, 0.3, policy)) < 1e-12, policy

    @pytest.mark.parametrize("gt_kind", ["mixed", "all_fg", "all_bg"])
    @pytest.mark.parametrize("map_kind", list(MAP_KINDS))
    def test_map_kinds(self, map_kind, gt_kind):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            shape = tuple(rng.integers(2, 30, 2))
            pred = MAP_KINDS[map_kind](rng, shape)
            self._assert_match(pred, self._gt(rng, shape, gt_kind))

    @pytest.mark.parametrize("value", [0.0, 1.0, _THRESHOLDS[7], 0.5, np.nan])
    def test_one_by_one_maps(self, value):
        pred = np.array([[value]])
        for gt in (np.ones((1, 1)), np.zeros((1, 1))):
            self._assert_match(pred, gt)

    def test_nan_pixel_is_negative_at_every_threshold(self):
        gt = np.zeros((4, 4))
        gt[:2] = 1.0
        pred = gt.copy()
        pred[0, 0] = np.nan   # a NaN that counted as positive would raise F
        assert f_measure(pred, gt, "mean_thresholds") == pytest.approx(
            per_threshold_f(pred, gt, 0.3, "mean_thresholds"), abs=1e-12)
        assert f_measure(pred, gt, "mean_thresholds") < 1.0


def _nudged_threshold(k, ulps):
    t = _THRESHOLDS[k]
    for _ in range(abs(ulps)):
        t = np.nextafter(t, np.copysign(np.inf, ulps))
    return float(t)


_BIN_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(_nudged_threshold, st.integers(0, 254), st.integers(-3, 3)))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(values=st.lists(_BIN_VALUES, min_size=1, max_size=40))
@example(values=[_nudged_threshold(k, ulps)           # every close neighbour
                 for k in range(255) for ulps in range(-3, 4)])
def test_grid_bins_equal_searchsorted(values):
    # the searchsorted binning that the arithmetic one replaced is the reference
    pred = np.array(values, dtype=np.float64)
    expected = np.searchsorted(_THRESHOLDS, pred, side="right")
    expected[np.isnan(pred)] = 0
    np.testing.assert_array_equal(_grid_bins(pred), expected)


def test_verify_metric_checks_return_python_bools():
    results = check_metric_oracles(seeds=range(3))
    names = {name for name, _, _ in results}
    assert {"metric:fmean_oracle", "metric:emean_oracle"} <= names
    assert all(type(ok) is bool and ok for _, ok, _ in results), results


def test_verify_catches_a_bin_guess_without_its_downward_correction(
        monkeypatch):
    import dsunet.metrics as metrics

    def uncorrected_bins(pred):
        c = np.fmin(np.fmax(pred, -1.0), 2.0)
        k = np.clip(np.floor(c * 255.0 + 0.5), 0.0, 255.0).astype(np.intp)
        k[c >= metrics._UPPER[k]] += 1
        return k

    monkeypatch.setattr(metrics, "_grid_bins", uncorrected_bins)
    failed = {name for name, ok, _ in check_metric_oracles(seeds=range(3))
              if not ok}
    assert failed == {"metric:fmean_oracle", "metric:emean_oracle"}


class TestScoresArePinned:
    """Every score to the last bit, as recorded before the counting moved to
    count_nonzero and sparse bin corrections.  The maps come from integer
    arithmetic and one correctly rounded division or table lookup, so they
    are the same on every numpy."""

    i, j = np.mgrid[0:24, 0:20]
    gt = (((i - 11) ** 2 + (j - 9) ** 2 < 49)
          | ((i * 7 + j * 3) % 23 == 0)).astype(np.float64)
    g = gt.astype(np.intp)
    MAPS = {
        "continuous": 0.5 * gt + ((i * 7919 + j * 104729) % 10007) / 20014.0,
        "quantised": ((i * 13 + j * 29 + 97 * g) % 256) / 255.0,
        "on_threshold": _THRESHOLDS[(i * 11 + j * 5) % 128 + 127 * g],
    }
    ROWS = {
        "continuous": {"S": "0x1.9a2876aa14815p-1", "Fadp": "0x1.636adfb0774d1p-1",
                       "Fmean": "0x1.5729a34fd335ap-1", "Eadp": "0x1.235a92d24f7d5p-1",
                       "Emean": "0x1.3c18820fd1da1p-1", "MAE": "0x1.01157cbc905bbp-2"},
        "on_threshold": {"S": "0x1.9e37dfb47fc08p-1", "Fadp": "0x1.747de2e08747fp-1",
                         "Fmean": "0x1.5adf93fd0e1b5p-1", "Eadp": "0x1.361d0045b3c7cp-1",
                         "Emean": "0x1.420e5a6cda2c7p-1", "MAE": "0x1.f1e960d84fc73p-3"},
        "quantised": {"S": "0x1.4d37889b7503ap-2", "Fadp": "0x1.91df279b88362p-5",
                      "Fmean": "0x1.4a0724a31296bp-2", "Eadp": "0x1.1221ac2a67db5p-2",
                      "Emean": "0x1.9483b83eca0b3p-2", "MAE": "0x1.fe0ad7a4713e0p-2"},
    }

    EMPTY_ROW = {"S": "0x1.2a88ca0603748p-1", "Fadp": None, "Fmean": None,
                 "Eadp": "0x1.c555555555555p-1", "Emean": "0x1.2a8b9cadbecfep-1",
                 "MAE": "0x1.aaee6bf3f916fp-2"}
    MEANS = {"S": "0x1.4261392c948e0p-1", "Fadp": "0x1.f60478b1cf659p-2",
             "Fmean": "0x1.1d044334ce342p-1", "Eadp": "0x1.29f76fa0a3221p-1",
             "Emean": "0x1.1cbd155273f70p-1", "MAE": "0x1.68c0dc3048a51p-2"}

    def test_report_rows(self):
        # with one empty-foreground truth, whose F is undefined and left out
        # of the F means
        pairs = [(stem, pred, self.gt) for stem, pred in self.MAPS.items()]
        pairs.append(("empty", self.MAPS["continuous"], np.zeros_like(self.gt)))
        rep = compute_report(pairs)
        assert [stem for stem, _ in rep.rows] == sorted([*self.MAPS, "empty"])
        got = {stem: {c: None if v is None else v.hex() for c, v in row.items()}
               for stem, row in rep.rows}
        assert got == {**self.ROWS, "empty": self.EMPTY_ROW}
        assert {c: v.hex() for c, v in rep.means.items()} == self.MEANS
        assert rep.undefined == ["empty"] and rep.n_images == 4

    def test_f_and_e_with_nan_and_infinities(self):
        # the NaN makes the adaptive threshold NaN, which no pixel reaches
        pred = self.MAPS["continuous"].copy()
        pred[0, 0], pred[1, 1], pred[2, 2] = np.nan, np.inf, -np.inf
        got = {(fn.__name__, policy): fn(pred, self.gt, policy=policy).hex()
               for fn in (f_measure, e_measure)
               for policy in ("adaptive", "mean_thresholds")}
        assert got == {("f_measure", "adaptive"): "0x0.0p+0",
                       ("f_measure", "mean_thresholds"): "0x1.54ef1bffeca59p-1",
                       ("e_measure", "adaptive"): "0x1.0000000000000p-2",
                       ("e_measure", "mean_thresholds"): "0x1.3be9915d09ff3p-1"}


class TestSMeasure:
    def test_perfect_binary_prediction(self):
        _, gt = random_pair(0)
        assert s_measure(gt, gt) == pytest.approx(1.0, abs=1e-3)

    def test_matches_oracle(self):
        for seed in range(20):
            pred, gt = random_pair(seed)
            assert abs(s_measure(pred, gt) - oracle_s(pred, gt)) < 1e-10

    def test_all_zero_gt(self):
        pred = np.full((8, 8), 0.3)
        assert s_measure(pred, np.zeros((8, 8))) == pytest.approx(0.7)

    def test_all_one_gt(self):
        pred = np.full((8, 8), 0.3)
        assert s_measure(pred, np.ones((8, 8))) == pytest.approx(0.3)

    def test_score_clamped_nonnegative(self):
        # anti-correlated prediction drives the raw score below zero
        gt = np.zeros((16, 16))
        gt[:8] = 1.0
        pred = 1.0 - gt
        assert s_measure(pred, gt) >= 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("gt_kind", ["mixed", "all_fg", "all_bg"])
    def test_non_finite_prediction_is_an_error(self, value, gt_kind):
        pred, gt = random_pair(3)
        gt = {"mixed": gt, "all_fg": np.ones_like(gt),
              "all_bg": np.zeros_like(gt)}[gt_kind]
        pred[1, 2] = value
        with pytest.raises(MetricError, match="NaN or inf"):
            s_measure(pred, gt)

    def test_hand_computed_constant_prediction(self):
        # fg mean 0.5/std 0 -> object fg = 1/(1.25); bg uses 1-p = 0.5 too.
        # every quadrant has constant pred: sxy=0 -> num=0, den>0 -> Q=0 for
        # mixed quadrants, Q=1 where gt is constant... with the centered
        # object each quadrant is mixed, so region = 0.
        gt = np.zeros((8, 8))
        gt[2:6, 2:6] = 1.0
        pred = np.full((8, 8), 0.5)
        want = 0.5 * (2 * 0.5 / (0.25 + 1 + EPS))  # object half; region zero
        assert s_measure(pred, gt) == pytest.approx(want, abs=1e-9)


class TestReports:
    def _pairs(self, n=3):
        out = []
        for i in range(n):
            pred, gt = random_pair(i)
            out.append((f"img_{i:03d}", pred, gt))
        return out

    def test_means_are_column_averages(self):
        pairs = self._pairs()
        rep = compute_report(pairs)
        assert rep.n_images == 3
        for col in ("S", "MAE", "Fadp"):
            vals = [row[col] for _, row in rep.rows]
            assert rep.means[col] == pytest.approx(np.mean(vals))

    def test_rows_sorted_by_stem(self):
        pairs = list(reversed(self._pairs()))
        rep = compute_report(pairs)
        stems = [s for s, _ in rep.rows]
        assert stems == sorted(stems)

    def test_undefined_f_tracked_not_fatal(self):
        pred, _ = random_pair(0)
        pairs = [("empty", pred, np.zeros_like(pred))] + self._pairs(1)
        rep = compute_report(pairs)
        assert "empty" in rep.undefined
        assert rep.ok()
        row = dict(rep.rows)["empty"]
        assert row["Fadp"] is None
        assert row["MAE"] is not None

    def test_csv_layout(self):
        rep = compute_report(self._pairs(2))
        lines = report_csv(rep).strip().split("\n")
        assert lines[0] == "image,S,Fadp,Fmean,Eadp,Emean,MAE"
        assert len(lines) == 4  # header + 2 rows + mean
        assert lines[-1].startswith("mean,")

    def test_pairs_are_scored_as_they_come(self):
        # no pair outlives its row: when the source makes pair i, the arrays
        # of pair i - 2 are gone
        refs, gone = [], []

        def source():
            for i in range(6):
                if i >= 2:
                    gone.append([r() is None for r in refs[i - 2]])
                pred, gt = random_pair(i)
                refs.append((weakref.ref(pred), weakref.ref(gt)))
                yield f"img_{i:03d}", pred, gt

        rep = compute_report(source())
        assert rep.n_images == 6
        assert gone == [[True, True]] * 4

    def test_table_renders(self):
        rep = compute_report(self._pairs(2))
        text = report_table(rep)
        assert "img_000" in text and "mean" in text

    def test_report_calls_scorers_through_the_module(self, monkeypatch):
        # a wrapper set on the module after import (a tracer, say) sees every
        # call, with exactly (pred, gt) positional and the policy by keyword
        import dsunet.metrics as module

        (stem, pred, gt), = self._pairs(1)
        calls = []
        for name in ("s_measure", "f_measure", "e_measure", "mae"):
            def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
                same = len(args) == 2 and args[0] is pred and args[1] is gt
                calls.append((_name, same, kwargs))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        compute_report([(stem, pred, gt)])
        assert calls == [("s_measure", True, {}),
                         ("f_measure", True, {"policy": "adaptive"}),
                         ("f_measure", True, {"policy": "mean_thresholds"}),
                         ("e_measure", True, {"policy": "adaptive"}),
                         ("e_measure", True, {"policy": "mean_thresholds"}),
                         ("mae", True, {})]


class TestEvaluateDataset:
    def _write(self, d, name, arr):
        write_pgm(str(d / name), arr)

    def test_reads_a_pair_only_after_scoring_the_one_before(self, tmp_path,
                                                             monkeypatch):
        log = []
        real_read = dsunet.metrics.read_mask

        def reading(path, *args, **kwargs):
            log.append(("read", os.path.relpath(path, tmp_path)))
            return real_read(path, *args, **kwargs)

        monkeypatch.setattr(dsunet.metrics, "read_mask", reading)
        for name in ("s_measure", "f_measure", "e_measure", "mae"):
            def scoring(*args, _name=name, _fn=getattr(dsunet.metrics, name),
                        **kwargs):
                log.append((_name, kwargs.get("policy")))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dsunet.metrics, name, scoring)
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        for i, stem in enumerate("cab"):
            pred, gt = random_pair(i)
            self._write(tmp_path / "pred", f"{stem}.pgm", pred)
            self._write(tmp_path / "gt", f"{stem}.pgm", gt)
        evaluate_dataset(str(tmp_path / "pred"), str(tmp_path / "gt"))
        scored = [("s_measure", None), ("f_measure", "adaptive"),
                  ("f_measure", "mean_thresholds"), ("e_measure", "adaptive"),
                  ("e_measure", "mean_thresholds"), ("mae", None)]
        assert log == [call for stem in "abc"
                       for call in [("read", os.path.join("pred", f"{stem}.pgm")),
                                    ("read", os.path.join("gt", f"{stem}.pgm"))] + scored]

    def test_pairs_by_stem_and_skips_unpaired(self, tmp_path):
        pd = tmp_path / "pred"
        gd = tmp_path / "gt"
        pd.mkdir()
        gd.mkdir()
        pred, gt = random_pair(0)
        self._write(pd, "a.pgm", pred)
        self._write(gd, "a.pgm", gt)
        self._write(pd, "only_pred.pgm", pred)
        self._write(gd, "only_gt.pgm", gt)
        rep = evaluate_dataset(str(pd), str(gd))
        assert rep.n_images == 1
        assert sorted(rep.skipped) == ["only_gt", "only_pred"]
        assert rep.ok()

    def test_no_common_stems_is_hard_error(self, tmp_path):
        pd = tmp_path / "pred"
        gd = tmp_path / "gt"
        pd.mkdir()
        gd.mkdir()
        self._write(pd, "a.pgm", np.zeros((4, 4)))
        self._write(gd, "b.pgm", np.zeros((4, 4)))
        with pytest.raises(MetricError, match="no common stems"):
            evaluate_dataset(str(pd), str(gd))

    def test_per_file_failure_recorded(self, tmp_path):
        pd = tmp_path / "pred"
        gd = tmp_path / "gt"
        pd.mkdir()
        gd.mkdir()
        pred, gt = random_pair(1)
        self._write(pd, "good.pgm", pred)
        self._write(gd, "good.pgm", gt)
        self._write(pd, "bad.pgm", pred)
        self._write(gd, "bad.pgm", gt[:12])  # mismatched size
        rep = evaluate_dataset(str(pd), str(gd))
        assert not rep.ok()
        assert rep.n_images == 1
        assert rep.failures[0][0] == "bad"

    def test_truncated_pgm_is_a_failed_row_naming_the_file(self, tmp_path):
        pd = tmp_path / "pred"
        gd = tmp_path / "gt"
        pd.mkdir()
        gd.mkdir()
        pred, gt = random_pair(1)
        for stem in ("good", "cut"):
            self._write(pd, f"{stem}.pgm", pred)
            self._write(gd, f"{stem}.pgm", gt)
        cut = pd / "cut.pgm"
        cut.write_bytes(cut.read_bytes()[:-3])
        rep = evaluate_dataset(str(pd), str(gd))
        assert rep.n_images == 1 and [stem for stem, _ in rep.rows] == ["good"]
        assert rep.failures == [("cut", f"{cut}: truncated PGM payload: expected "
                                        f"{gt.size} bytes, got {gt.size - 3}")]
        assert f"FAILED cut: {cut}: truncated PGM payload" in report_table(rep)

    @pytest.mark.parametrize("where", ["scorer", "reader"])
    def test_a_bug_propagates(self, tmp_path, monkeypatch, where):
        # only input failures become FAILED rows; a fault in the code is not one
        def broken(*args, **kwargs):
            raise TypeError(f"{where} bug")

        if where == "scorer":
            monkeypatch.setitem(dsunet.metrics._SCORERS, "MAE", broken)
        else:
            monkeypatch.setattr(dsunet.metrics, "read_mask", broken)
        pd = tmp_path / "pred"
        gd = tmp_path / "gt"
        pd.mkdir()
        gd.mkdir()
        pred, gt = random_pair(1)
        self._write(pd, "a.pgm", pred)
        self._write(gd, "a.pgm", gt)
        with pytest.raises(TypeError, match=f"{where} bug"):
            evaluate_dataset(str(pd), str(gd))
