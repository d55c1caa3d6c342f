"""Training, prediction, parameter accounting, and the ablation sweep."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .blocks import DSUNet
from .config import VARIANTS, RunConfig, parse_config_text, render_config
from .container import MAGIC_CHECKPOINT, read_container, write_container
from .data import (
    Sample,
    augment_flip,
    generate_dataset,
    load_dataset,
    read_image_planes,
    write_mask,
)
from .losses import ROW, total_loss
from .metrics import compute_report
from .nn import placeholder_init
from .optim import AdamW
from .tensor import Tensor, logistic

# seed offset separating validation sample streams from training streams
VAL_SEED_OFFSET = 100_000


class TrainingDiverged(RuntimeError):
    pass


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path, model, run_config, optimizer=None):
    tensors = {name: p.data for name, p in model.named_parameters().items()}
    if optimizer is not None:
        tensors.update(optimizer.state_tensors())
    config_text = render_config(run_config)
    tensors["__config__"] = np.frombuffer(
        config_text.encode("utf-8"), dtype=np.uint8).astype(np.float32)
    write_container(path, tensors, magic=MAGIC_CHECKPOINT)


def load_checkpoint(path):
    """Returns (model, run_config, raw tensor dict).

    The model is built from the config with placeholder storage and no random
    draw; each parameter is then the array that :func:`read_container`
    returned, not a copy: the raw dict shares them with the model, so writing
    into one changes the other.
    """
    tensors = read_container(path, magic=MAGIC_CHECKPOINT)
    config_text = bytes(tensors["__config__"].astype(np.uint8)).decode("utf-8")
    run = parse_config_text(config_text)
    model = DSUNet(run.model, init=placeholder_init)
    for name, p in model.named_parameters().items():
        if name not in tensors:
            raise KeyError(f"checkpoint is missing parameter {name!r}")
        if tensors[name].shape != p.data.shape:
            raise ValueError(f"checkpoint parameter {name!r} has shape "
                             f"{tensors[name].shape}, model expects {p.data.shape}")
        p.data = tensors[name]
    return model, run, tensors


# -- training -----------------------------------------------------------------


@dataclass
class TrainResult:
    model: DSUNet
    run: RunConfig
    epoch_rows: list            # per-epoch means of the loss rows (losses.ROW)
    checkpoint_path: str
    log_path: str
    train_samples: list
    val_samples: list


LOG_HEADER = ",".join(("epoch",) + ROW)


def load_or_generate(run):
    """(train, val) samples: the first ``n_train`` and next ``n_val`` of
    ``run.data_dir``, or generated from ``run.seed`` (training) and
    ``run.seed + VAL_SEED_OFFSET`` (validation)."""
    if run.data_dir:
        samples = load_dataset(run.data_dir, run.n_train + run.n_val)
        return samples[: run.n_train], samples[run.n_train :]
    train, _ = generate_dataset(run.n_train, run.mode, run.model.profile, run.seed)
    val, _ = generate_dataset(run.n_val, run.mode, run.model.profile,
                              run.seed + VAL_SEED_OFFSET)
    return train, val


def _train_step(model, sample, scale, where):
    """One sample's forward, finiteness check, loss and backward.

    Returns the loss row (``losses.ROW``).  Non-finite logits raise
    TrainingDiverged before the loss reads them.  The sample's graph is
    referenced only from here, so it is freed when this returns, before the
    next forward builds another.
    """
    outputs = model(Tensor(sample.image_main), Tensor(sample.image_aux))
    if not all(np.isfinite(d.data).all() for d in outputs):
        raise TrainingDiverged(f"non-finite logits at {where}")
    loss, row = total_loss(outputs, sample.gt, model.config)
    loss.backward(np.asarray(scale, dtype=loss.dtype))
    return row


def _check_samples(run, samples):
    """ValueError for an empty sample list, ShapeError for a sample whose
    images or mask the profile rejects."""
    if not samples:
        raise ValueError("no training samples: n_train is 0, the data_dir "
                         "manifest lists none, or the given sample list is empty")
    for i, s in enumerate(samples):
        run.model.resolved_profile.check(
            {"image_main": s.image_main, "image_aux": s.image_aux, "gt": s.gt},
            f"sample {i} ({s.id}): ")


def fit_samples(run: RunConfig, samples, progress=None):
    """Deterministic in-memory training loop over the given samples.

    Returns (model, optimizer, epoch_rows) and writes nothing.  Samples that
    :func:`_check_samples` rejects raise before the model is built.
    """
    _check_samples(run, samples)
    model = DSUNet(run.model)
    optimizer = AdamW(model.trainable_parameters(), lr=run.lr,
                      weight_decay=run.weight_decay)
    shuffle_rng = np.random.default_rng(run.seed + 1)
    augment_rng = np.random.default_rng(run.seed + 2)

    epoch_rows = []
    n = len(samples)
    for epoch in range(run.epochs):
        order = shuffle_rng.permutation(n)
        sums = np.zeros(len(ROW))
        for start in range(0, n, run.batch):
            batch_idx = order[start : start + run.batch]
            optimizer.zero_grad()
            scale = 1.0 / len(batch_idx)
            for i in batch_idx:
                sample = augment_flip(samples[i], augment_rng)
                sums += _train_step(model, sample, scale,
                                    f"epoch {epoch + 1}, step {start // run.batch + 1}")
            optimizer.step()
        means = sums / n
        epoch_rows.append(means)
        if progress:
            progress(epoch + 1, means[-1])
    return model, optimizer, epoch_rows


def _train_run(run, samples, progress=None):
    """Check the samples, make ``run.out_dir``, train, and write
    ``train_log.csv`` and ``model.dsut`` there; returns (model, epoch_rows,
    checkpoint path, log path).  A rejected dataset leaves no directory, and
    one that cannot be made fails before training."""
    _check_samples(run, samples)
    os.makedirs(run.out_dir, exist_ok=True)
    model, optimizer, epoch_rows = fit_samples(run, samples, progress)
    log_path = os.path.join(run.out_dir, "train_log.csv")
    with open(log_path, "w", encoding="utf-8") as f:
        f.write(LOG_HEADER + "\n")
        for epoch, means in enumerate(epoch_rows, start=1):
            f.write(f"{epoch}," + ",".join(f"{v:.8f}" for v in means) + "\n")

    ckpt_path = os.path.join(run.out_dir, "model.dsut")
    save_checkpoint(ckpt_path, model, run, optimizer)
    return model, epoch_rows, ckpt_path, log_path


def train(run: RunConfig, progress=None):
    """Train on ``run.data_dir``'s samples, or on samples generated from
    ``run.seed``; writes a CSV log and a final checkpoint."""
    train_samples, val_samples = load_or_generate(run)
    model, epoch_rows, ckpt_path, log_path = _train_run(run, train_samples, progress)
    return TrainResult(model, run, epoch_rows, ckpt_path, log_path,
                       train_samples, val_samples)


# -- prediction ----------------------------------------------------------------


def _probability_map(model, image_main, image_aux):
    """sigmoid of the final decoder output, as an H x W float64 array in [0, 1].

    The forward runs with ``requires_grad`` off on every parameter, so no op
    records a backward step and each intermediate map is freed as soon as the
    next op has used it.  The trainable parameters are switched back on
    afterwards, also when the forward raises.
    """
    params = model.trainable_parameters().values()
    for p in params:
        p.requires_grad = False
    try:
        d3 = model(Tensor(image_main), Tensor(image_aux))[-1]
    finally:
        for p in params:
            p.requires_grad = True
    return logistic(d3.data.astype(np.float64))[0]


def predict_sample(model, sample: Sample):
    """sigmoid of the final decoder output, as an H x W array in [0, 1]."""
    return _probability_map(model, sample.image_main, sample.image_aux)


def predict(ckpt_path, images_dir, out_dir):
    """Export masks for every id found under images_dir/images-main."""
    model, run, _ = load_checkpoint(ckpt_path)
    main_dir = os.path.join(images_dir, "images-main")
    aux_dir = os.path.join(images_dir, "images-aux")
    ids = sorted(f[: -len(".r.pgm")] for f in os.listdir(main_dir)
                 if f.endswith(".r.pgm"))
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for sample_id in ids:
        main = read_image_planes(main_dir, sample_id)
        aux = read_image_planes(aux_dir, sample_id)
        pred = _probability_map(model, main, aux)
        path = os.path.join(out_dir, f"{sample_id}.pgm")
        write_mask(path, pred)
        written.append(path)
    return written


# -- parameter accounting --------------------------------------------------


def format_parameter_report(model):
    total, trainable, fraction, by_module = model.parameter_counts()
    lines = [f"{'module':<16}{'total':>12}{'trainable':>12}"]
    for name, (t, tr) in sorted(by_module.items()):
        lines.append(f"{name:<16}{t:>12}{tr:>12}")
    lines.append(f"{'ALL':<16}{total:>12}{trainable:>12}")
    lines.append(f"trainable fraction: {fraction:.6f} ({100 * fraction:.4f}%)")
    return "\n".join(lines) + "\n"


# -- ablation sweep ----------------------------------------------------------


def ablate(base_run: RunConfig):
    """Train and evaluate every fusion variant on a shared dataset and seed.

    The dataset is loaded or generated once for the whole sweep.  Returns
    rows of (variant, means dict); the proposed configuration ("full") is
    produced last.
    """
    train_samples, val_samples = load_or_generate(base_run)
    rows = []
    for variant in VARIANTS:
        run = replace(base_run,
                      model=replace(base_run.model, variant=variant),
                      out_dir=os.path.join(base_run.out_dir, f"variant_{variant}"))
        model, _, _, _ = _train_run(run, train_samples)
        pairs = []
        for sample in val_samples:
            pred = _probability_map(model, sample.image_main, sample.image_aux)
            pairs.append((sample.id, pred, sample.gt.astype(np.float64)))
        report = compute_report(pairs, beta2=run.model.beta2_f)
        rows.append((variant, report.means))
    return rows


def format_ablation_table(rows):
    header = f"{'variant':<10}{'S':>9}{'F':>9}{'E':>9}{'MAE':>9}"
    lines = [header, "-" * len(header)]
    for variant, means in rows:
        label = f"{variant} (ours)" if variant == "full" else variant
        lines.append(f"{label:<10}{means['S']:>9.4f}{means['Fadp']:>9.4f}"
                     f"{means['Eadp']:>9.4f}{means['MAE']:>9.4f}")
    return "\n".join(lines) + "\n"
