"""Acceptance suite: ten end-to-end contracts, one test per criterion.

Each test prints a single ``ACCEPTANCE n ... PASS`` line on success; a
failed assertion marks the criterion failed.  The heavyweight reference
runs (criteria 7-9) are shared through session fixtures.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from dsunet.blocks import DSUNet, SFF
from dsunet.cli import main as cli_main
from dsunet.config import PROFILES, ModelConfig, RunConfig, render_config
from dsunet.data import generate_sample, read_mask, write_dataset, write_mask
from dsunet.harness import predict, train
from dsunet.losses import total_loss
from dsunet.metrics import (
    EPS,
    e_measure,
    evaluate_dataset,
    f_measure,
    mae,
    report_csv,
    s_measure,
)
from dsunet.nn import seeded_init
from dsunet.optim import AdamW
from dsunet.tensor import Tensor, cast_all, grad_check
from dsunet.verify import check_block_gradients, check_metric_oracles, check_wavelets


def _report(n, label):
    print(f"\nACCEPTANCE {n} ({label}): PASS")


def _read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# pinned reference configuration for the toy training run (criterion 7);
# determinism (criterion 9) repeats it bit-for-bit
def reference_run(out_dir):
    return RunConfig(model=ModelConfig(profile="toy", variant="full", seed=0),
                     lr=3e-3, batch=4, epochs=20, seed=42,
                     mode="sod", n_train=64, n_val=16, out_dir=out_dir)


def ablation_run(out_dir):
    return RunConfig(model=ModelConfig(profile="toy", variant="full", seed=0),
                     lr=3e-3, batch=4, epochs=2, seed=7, mode="sod",
                     n_train=8, n_val=4, out_dir=out_dir)


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def ref_result(work_dir):
    return train(reference_run(str(work_dir / "ref")))


@pytest.fixture(scope="session")
def ref_repeat(work_dir, ref_result):
    """Repeat the reference run with the *identical* config, out_dir included
    (the checkpoint echoes its config, so a different out_dir could never be
    bit-identical).  The first run's artifacts are snapshotted beforehand."""
    import shutil

    first_ckpt = str(work_dir / "ref_first.dsut")
    shutil.copyfile(ref_result.checkpoint_path, first_ckpt)
    result = train(reference_run(str(work_dir / "ref")))
    return result, first_ckpt


@pytest.fixture(scope="session")
def ablation_tables(work_dir):
    """Run the four-variant sweep twice through the CLI; return table texts."""
    texts = []
    for tag in ("a", "b"):
        cfg_path = str(work_dir / f"ablate_cfg_{tag}.txt")
        with open(cfg_path, "w", encoding="utf-8") as f:
            f.write(render_config(ablation_run(str(work_dir / f"ablate_{tag}"))))
        table_path = str(work_dir / f"ablation_{tag}.txt")
        rc = cli_main(["ablate", "--config", cfg_path, "--out", table_path])
        assert rc == 0
        with open(table_path, encoding="utf-8") as f:
            texts.append(f.read())
    return texts


def test_criterion_01_shape_conformance():
    prof = PROFILES["large"]
    model = DSUNet(ModelConfig(profile="large", seed=0))
    rng = np.random.default_rng(0)
    main = Tensor(rng.random((3, 352, 352)).astype(np.float32))
    aux = Tensor(rng.random((3, prof.aux_size, prof.aux_size)).astype(np.float32))

    start = time.monotonic()
    pyramid = model.encode(main, aux)
    outputs = model.forward_pyramid(pyramid)
    elapsed = time.monotonic() - start

    assert pyramid["s1"].shape == (144, 88, 88)
    assert pyramid["s2"].shape == (288, 44, 44)
    assert pyramid["s3"].shape == (576, 22, 22)
    assert pyramid["s4"].shape == (1152, 11, 11)
    assert pyramid["v"].shape == (1024, 37, 37)
    for d in outputs:
        assert d.shape == (1, 352, 352)
    assert elapsed < 60.0, f"forward took {elapsed:.1f}s"
    _report(1, "shape conformance")


def test_criterion_02_gradient_suite():
    block_results = check_block_gradients(seeds=range(5), tol=1e-4)
    for name, ok, detail in block_results:
        assert ok, f"{name}: {detail}"

    # end-to-end: one representative trainable tensor per module, with the
    # loss taken as the full training objective; frozen encoders are
    # parameter-free constants for this check, so a fixed pyramid suffices
    worst = 0.0
    prof = PROFILES["toy"]
    shapes = prof.pyramid_shapes()
    for seed in range(5):
        cfg = ModelConfig(profile="toy", variant="full", seed=seed)
        model = DSUNet(cfg)
        rng = np.random.default_rng(seed + 50)
        pyr = {k: Tensor(rng.standard_normal(shapes[k]).astype(np.float32))
               for k in ("s1", "s2", "s3", "s4", "v")}
        gt = (rng.random((prof.main_size,) * 2) > 0.5).astype(np.float32)
        trainable = model.trainable_parameters()
        for name, p in trainable.items():
            # the adapters' zero-initialized up projections would leave the
            # down projections without gradient; randomize them
            if ".up." in name and name.endswith("weight"):
                p.data = 0.1 * rng.standard_normal(p.data.shape).astype(np.float32)
        chosen = {}
        for name, p in trainable.items():
            chosen.setdefault(name.split(".")[0], p)
        cast_all(list(trainable.values()) + list(pyr.values()), np.float64)
        err = grad_check(
            lambda: total_loss(model.forward_pyramid(pyr), gt, cfg)[0],
            list(chosen.values()), rng=np.random.default_rng(seed), max_coords=2)
        worst = max(worst, err)
    assert worst < 1e-3, f"end-to-end worst rel err {worst:.2e}"
    _report(2, "gradient suite")


def test_criterion_03_wavelet_contract():
    for name, ok, detail in check_wavelets(seeds=range(5)):
        assert ok, f"{name}: {detail}"
    _report(3, "wavelet contract")


def test_criterion_04_metric_oracles():
    # self-comparison identities and 64-bit brute-force MAE/F oracles
    for name, ok, detail in check_metric_oracles(seeds=range(20)):
        assert ok, f"{name}: {detail}"

    # frozen hand-evaluated 4x4 fixtures
    # E: binary prediction C vs G; mean(C) = 0.25 so the adaptive threshold
    # 0.5 keeps C itself; the enhanced-alignment mean works out to the
    # committed value below
    C = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 dtype=np.float64)
    G = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 dtype=np.float64)
    assert abs(e_measure(C, G, policy="adaptive") - 0.8799999435733389) < 1e-10

    # S: graded prediction against a centered 2x2 object; foreground rows and
    # columns average to 1.5, so the centroid rounds to (2, 2) and all four
    # quadrants carry weight 4/16
    pred = np.array([[0.1, 0.2, 0.3, 0.1],
                     [0.2, 0.9, 0.8, 0.2],
                     [0.1, 0.7, 0.6, 0.3],
                     [0.0, 0.2, 0.1, 0.1]], dtype=np.float64)
    gt = np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]],
                  dtype=np.float64)
    assert abs(s_measure(pred, gt) - 0.8745171105203587) < 1e-10

    # SFF branch weights form a per-pixel partition of unity
    rng = np.random.default_rng(0)
    sff = SFF(8, init=seeded_init(rng))
    low = Tensor(rng.standard_normal((8, 6, 6)).astype(np.float32))
    high = Tensor(rng.standard_normal((8, 3, 3)).astype(np.float32))
    _, weights = sff.forward(low, high, return_weights=True)
    total = weights.data.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-6
    _report(4, "metric oracles")


def test_criterion_05_loss_algebra():
    # identical logits at all three levels: total = (0.25 + 0.5 + 1.0) * c,
    # summed in the same order the implementation uses
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 16, 16)).astype(np.float64))
    cfg = ModelConfig(profile="toy", seed=0)
    gt = (rng.random((16, 16)) > 0.5).astype(np.float32)
    total, row = total_loss((x, x, x), gt, cfg)
    assert row[2] == row[5] == row[8]  # level1, level2, level3
    c = np.float64(row[2])
    expected = c * np.float64(0.25) + c * np.float64(0.5) + c * np.float64(1.0)
    assert float(total.data) == float(expected)
    assert float(expected) == float(np.float64(1.75) * c)

    # perfectly saturated predictions drive the total under 1e-5
    gt2 = np.zeros((16, 16), dtype=np.float32)
    gt2[4:12, 4:12] = 1.0
    logits = Tensor(np.where(gt2 > 0.5, 60.0, -60.0).astype(np.float64)[None])
    sat_total, _ = total_loss((logits, logits, logits), gt2, cfg)
    assert float(sat_total.data) < 1e-5
    _report(5, "loss algebra")


def test_criterion_06_frozen_adapter_contract(tmp_path, capsys):
    run = reference_run(str(tmp_path / "c6"))
    model = DSUNet(run.model)
    frozen_before = {
        name: p.data.tobytes()
        for name, p in model.named_parameters().items()
        if name.startswith("encoder.")
    }
    assert frozen_before, "expected frozen backbone parameters"

    trainable = model.trainable_parameters()
    optimizer = AdamW(trainable, lr=run.lr, weight_decay=run.weight_decay)
    # optimizer state covers exactly the non-backbone parameters
    all_names = set(model.named_parameters())
    assert set(optimizer.params) == {n for n in all_names
                                     if not n.startswith("encoder.")}

    samples = [generate_sample(s, "sod", "toy") for s in range(4)]
    for step in range(100):
        sample = samples[step % len(samples)]
        optimizer.zero_grad()
        outputs = model(Tensor(sample.image_main), Tensor(sample.image_aux))
        loss, _ = total_loss(outputs, sample.gt, run.model)
        loss.backward()
        optimizer.step()

    for name, p in model.named_parameters().items():
        if name.startswith("encoder."):
            assert p.data.tobytes() == frozen_before[name], name

    # `dsu params` reports a trainable fraction strictly below one
    cfg_path = str(tmp_path / "cfg.txt")
    with open(cfg_path, "w") as f:
        f.write(render_config(run))
    assert cli_main(["params", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    frac_line = next(l for l in out.splitlines() if "trainable fraction" in l)
    fraction = float(frac_line.split(":")[1].split("(")[0])
    assert 0.0 < fraction < 1.0
    _report(6, "frozen/adapter contract")


def test_criterion_07_toy_training_run(ref_result):
    totals = [row[-1] for row in ref_result.epoch_rows]
    assert len(totals) <= 20
    assert totals[-1] <= 0.5 * totals[0], (
        f"first epoch {totals[0]:.4f}, final {totals[-1]:.4f}")

    from dsunet.harness import predict_sample

    trained = {"S": [], "Fadp": [], "Eadp": [], "MAE": []}
    constant = {"S": [], "Fadp": [], "Eadp": [], "MAE": []}
    for sample in ref_result.val_samples:
        pred = predict_sample(ref_result.model, sample)
        flat = np.full_like(pred, 0.5)
        gt = sample.gt.astype(np.float64)
        for store, p in ((trained, pred), (constant, flat)):
            store["S"].append(s_measure(p, gt))
            store["Fadp"].append(f_measure(p, gt, policy="adaptive"))
            store["Eadp"].append(e_measure(p, gt, policy="adaptive"))
            store["MAE"].append(mae(p, gt))

    t = {k: float(np.mean(v)) for k, v in trained.items()}
    c = {k: float(np.mean(v)) for k, v in constant.items()}
    assert t["MAE"] < 0.5 and t["MAE"] < c["MAE"]
    assert t["S"] > c["S"]
    assert t["Fadp"] > c["Fadp"]
    assert t["Eadp"] > c["Eadp"]
    _report(7, "toy training run")


def test_criterion_08_ablation_harness(ablation_tables):
    lines = [l for l in ablation_tables[0].strip().split("\n")
             if l and not set(l) <= {"-"}]
    header, *rows = lines
    assert len(rows) == 4
    variants = [r.split()[0] for r in rows]
    assert variants == ["A", "B", "C", "full"]
    for row in rows:
        values = row.split()[-4:]
        assert all(np.isfinite(float(v)) for v in values)
    _report(8, "ablation harness")


def test_criterion_09_determinism(ref_result, ref_repeat, ablation_tables,
                                  work_dir):
    # checkpoints from the repeated reference run are bit-identical
    repeat_result, first_ckpt = ref_repeat
    assert _read_bytes(first_ckpt) == _read_bytes(repeat_result.checkpoint_path)

    # exported masks and evaluation reports agree byte for byte
    val_dir = str(work_dir / "val_data")
    write_dataset(val_dir, ref_result.val_samples,
                  range(len(ref_result.val_samples)))
    mask_bytes = []
    csv_texts = []
    for tag, ckpt in (("a", first_ckpt), ("b", repeat_result.checkpoint_path)):
        out = str(work_dir / f"det_masks_{tag}")
        written = predict(ckpt, val_dir, out)
        mask_bytes.append({os.path.basename(p): _read_bytes(p) for p in written})
        report = evaluate_dataset(out, os.path.join(val_dir, "gt"))
        csv_texts.append(report_csv(report))
    assert mask_bytes[0] == mask_bytes[1]
    assert csv_texts[0] == csv_texts[1]

    # the repeated ablation sweep emits an identical table
    assert ablation_tables[0] == ablation_tables[1]
    _report(9, "determinism")


def test_criterion_10_mask_export(ref_result, work_dir, tmp_path):
    # exported bytes equal round(sigmoid(final logits) * 255)
    val_dir = str(work_dir / "val_data_c10")
    write_dataset(val_dir, ref_result.val_samples[:4], range(4))
    out = str(work_dir / "masks_c10")
    written = predict(ref_result.checkpoint_path, val_dir, out)
    assert len(written) == 4
    by_stem = {os.path.splitext(os.path.basename(p))[0]: p for p in written}
    # the oracle must see exactly what predict saw: the PGM-quantized images
    from dsunet.data import load_dataset
    from dsunet.harness import load_checkpoint

    model, _, _ = load_checkpoint(ref_result.checkpoint_path)
    for sample in load_dataset(val_dir):
        outputs = model(Tensor(sample.image_main), Tensor(sample.image_aux))
        prob = 1.0 / (1.0 + np.exp(-outputs[-1].data.astype(np.float64)))[0]
        want = np.rint(prob * 255.0).astype(np.uint8).tobytes()
        raw = _read_bytes(by_stem[sample.id])
        payload = raw.split(b"255\n", 1)[1]
        assert payload == want

    # PGM round trip is exact for binary masks
    binary = (np.random.default_rng(0).random((33, 17)) > 0.5).astype(np.float64)
    path = str(tmp_path / "binary.pgm")
    write_mask(path, binary)
    back = read_mask(path, binarize=True)
    np.testing.assert_array_equal(back, binary)
    _report(10, "mask export")
