"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `install` replaces the
public functions and methods of the dsunet modules with thin wrappers, so
no file of the package changes.  A span holds its name, start, end, the
index of the span that was open when it started (its parent), the sample
id current at its start, and optional counts.  Spans stay in memory until
`write_jsonl` is called at the end of the run.

With `enabled` false a wrapper costs one attribute test and a call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
import time
import weakref

# sample policies for a wrapper
INHERIT = "inherit"   # the span belongs to the sample current at its start
CLEAR = "clear"       # a call-level span: no sample


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []         # [name, t0, t1, parent, sample, counts]
        self._stack = []
        self.sample = None
        self._step = 0
        self._encode_seen = weakref.WeakKeyDictionary()
        self.encode_calls = 0
        self.encode_repeats = 0
        self._pred_stems = {}   # id(pred array) -> (array, stem)

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name, sample=INHERIT, counts=None, on_enter=None):
        """Wrap `fn` in a span.

        `name` may be a callable (args, kwargs) -> str.  `sample` is INHERIT,
        CLEAR, or a callable (args, kwargs) -> sample id that starts a new
        sample.  `counts` is a callable (args, kwargs, result) -> dict of
        numbers stored on the span.  `on_enter` runs before the span opens, in
        a `trace.hook` span of its own.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            if on_enter is not None:
                # the hook's own cost gets a span, so no layer's self time holds it
                start = time.perf_counter()
                on_enter(args, kwargs)
                tracer.spans.append(["trace.hook", start, time.perf_counter(), parent,
                                     tracer.sample, None])
            if sample is CLEAR:
                tracer.sample = None
            elif sample is not INHERIT:
                tracer.sample = sample(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            record = [label, time.perf_counter(), 0.0, parent, tracer.sample, None]
            tracer.spans.append(record)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                record[5] = counts(args, kwargs, result)
            return result

        return wrapper

    def next_step_sample(self, args, kwargs):
        self._step += 1
        return f"step{self._step}"

    def note_encode(self, args, kwargs):
        """Count DSUNet.encode calls whose inputs this model has seen before."""
        model, image_main, image_aux = args[0], args[1], args[2]
        digest = hashlib.blake2b(image_main.data.tobytes(), digest_size=16)
        digest.update(image_aux.data.tobytes())
        seen = self._encode_seen.setdefault(model, set())
        key = digest.digest()
        self.encode_calls += 1
        if key in seen:
            self.encode_repeats += 1
        seen.add(key)

    def register_pred(self, args, kwargs, result):
        """Remember which stem a prediction array read by read_mask came from."""
        stem = os.path.splitext(os.path.basename(args[0]))[0]
        self._pred_stems[id(result)] = (result, stem)

    def pred_sample(self, args, kwargs):
        entry = self._pred_stems.get(id(args[0]))
        return entry[1] if entry is not None else self.sample

    def forget_preds(self, args, kwargs):
        self._pred_stems.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _s, _c in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def write_jsonl(self, path, header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for i, (s, self_s) in enumerate(zip(self.spans, selfs)):
                f.write(json.dumps({
                    "id": i, "name": s[0], "start": s[1], "end": s[2],
                    "parent": s[3], "sample": s[4], "self": self_s,
                    "counts": s[5]}) + "\n")


# -- computed counts -------------------------------------------------------


def conv2d_counts(args, kwargs, result):
    """Flops and compulsory bytes of one conv2d forward, computed from shapes.

    Flops count a multiply and an add per weight tap per output element.
    Bytes count reading the input and weight and writing the output once,
    at the arrays' own element sizes; buffers the kernel builds are not
    counted.
    """
    x, weight, _bias, spec = args[:4]
    kh, kw = spec.kernel
    out = result.data
    macs = out.size * (spec.in_channels // spec.groups) * kh * kw
    nbytes = x.data.nbytes + weight.data.nbytes + out.nbytes
    return {"gflop": 2.0 * macs / 1e9, "mb": nbytes / 1e6}


def file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _policy_name(prefix, index):
    """Span name for f_measure / e_measure: `<prefix>adp` or `<prefix>mean`."""
    def name(args, kwargs):
        policy = args[index] if len(args) > index else kwargs.get("policy", "adaptive")
        return prefix + ("adp" if policy == "adaptive" else "mean")
    return name


# -- installation ----------------------------------------------------------


def _replace_everywhere(module, attr, wrapper):
    """Point every dsunet module that imported `module.attr` at `wrapper`."""
    original = getattr(module, attr)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dsunet" or mod_name.startswith("dsunet."):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap the public calls of every dsunet layer the workloads reach."""
    from dsunet import blocks, container, data, encoders, harness, metrics, optim, tensor

    w = tracer.wrap
    # harness: roots of the model workloads
    harness.train = w(harness.train, "harness.train", sample=CLEAR,
                      on_enter=tracer.forget_preds)
    harness.predict_sample = w(harness.predict_sample, "harness.predict_sample",
                               sample=lambda a, k: a[1].id)
    harness.load_checkpoint = w(harness.load_checkpoint, "harness.load_checkpoint",
                                sample=CLEAR)
    # data: the per-step flip starts a new training sample
    harness.augment_flip = w(harness.augment_flip, "data.augment_flip",
                             sample=tracer.next_step_sample)
    _replace_everywhere(data, "generate_sample",
                        w(data.generate_sample, "data.generate_sample", sample=CLEAR))
    _replace_everywhere(data, "read_pgm", w(data.read_pgm, "data.read_pgm",
                                            counts=file_mb))
    _replace_everywhere(data, "read_mask", w(
        data.read_mask, "data.read_mask",
        sample=lambda a, k: os.path.splitext(os.path.basename(a[0]))[0],
        counts=tracer.register_pred))
    # container: checkpoints only (feature files are not on these paths)
    harness.write_container = w(
        container.write_container, "container.checkpoint_write", sample=CLEAR,
        counts=file_mb)
    harness.read_container = w(
        container.read_container, "container.checkpoint_read", sample=CLEAR,
        counts=file_mb)
    # encoders
    blocks.DSUNet.encode = w(blocks.DSUNet.encode, "encoders.encode",
                             on_enter=tracer.note_encode)
    encoders.ToyHiera.__call__ = w(encoders.ToyHiera.__call__, "encoders.hiera")
    encoders.ToyViT.__call__ = w(encoders.ToyViT.__call__, "encoders.vit")
    # blocks
    blocks.DSUNet.forward_pyramid = w(blocks.DSUNet.forward_pyramid, "blocks.forward")
    for cls, name in ((blocks.Adapter, "blocks.adapter"),
                      (blocks.WaveletDownsample, "blocks.wtd"),
                      (blocks.CGA, "blocks.cga"), (blocks.RFB, "blocks.rfb"),
                      (blocks.SFF, "blocks.sff"), (blocks.DecodeHead, "blocks.head")):
        cls.__call__ = w(cls.__call__, name)
    # tensor
    _replace_everywhere(tensor, "conv2d", w(tensor.conv2d, "tensor.conv2d",
                                            counts=conv2d_counts))
    tensor.Tensor.backward = w(tensor.Tensor.backward, "tensor.backward")
    # losses, optim
    harness.total_loss = w(harness.total_loss, "losses.total_loss")
    optim.AdamW.step = w(optim.AdamW.step, "optim.step", sample=CLEAR)
    # metrics
    metrics.evaluate_dataset = w(metrics.evaluate_dataset, "metrics.evaluate_dataset",
                                 sample=CLEAR, on_enter=tracer.forget_preds)
    for attr, name in (("s_measure", "metrics.s"), ("mae", "metrics.mae"),
                       ("f_measure", _policy_name("metrics.f", 3)),
                       ("e_measure", _policy_name("metrics.e", 2))):
        setattr(metrics, attr, w(getattr(metrics, attr), name,
                                 sample=tracer.pred_sample))


# -- per-layer metrics -------------------------------------------------------

# time per unit of work (sample-step or image) spent in spans of this name
PER_UNIT_MS = {
    "encoders.encode_ms": "encoders.encode",
    "encoders.hiera_ms": "encoders.hiera",
    "encoders.vit_ms": "encoders.vit",
    "blocks.forward_ms": "blocks.forward",
    "blocks.adapter_ms": "blocks.adapter",
    "blocks.wtd_ms": "blocks.wtd",
    "blocks.cga_ms": "blocks.cga",
    "blocks.rfb_ms": "blocks.rfb",
    "blocks.sff_ms": "blocks.sff",
    "blocks.head_ms": "blocks.head",
    "losses.total_loss_ms": "losses.total_loss",
    "tensor.backward_ms": "tensor.backward",
    "tensor.conv2d_fwd_ms": "tensor.conv2d",
    "data.pgm_read_ms": "data.read_pgm",
    "metrics.s_ms": "metrics.s",
    "metrics.fadp_ms": "metrics.fadp",
    "metrics.fmean_ms": "metrics.fmean",
    "metrics.eadp_ms": "metrics.eadp",
    "metrics.emean_ms": "metrics.emean",
    "metrics.mae_ms": "metrics.mae",
}
# self time per unit of work of these spans
PER_UNIT_SELF_MS = {
    "harness.self_ms": ("harness.train", "harness.predict_sample"),
    "blocks.forward_self_ms": ("blocks.forward",),
}
# per unit of work: (span name, count key or None for the number of spans)
PER_UNIT_COUNT = {
    "tensor.conv2d_calls": ("tensor.conv2d", None),
    "tensor.conv2d_gflop": ("tensor.conv2d", "gflop"),
    "tensor.conv2d_mb": ("tensor.conv2d", "mb"),
    "data.pgm_read_mb": ("data.read_pgm", "mb"),
}
# median per call, over every span of the run (set-up included)
PER_CALL_MS = {
    "optim.step_ms": ("optim.step",),
    "container.checkpoint_write_ms": ("container.checkpoint_write",),
    "container.checkpoint_read_ms": ("container.checkpoint_read",),
    "data.generate_ms": ("data.generate_sample",),
}


UNITS = {
    "tensor.conv2d_calls": "count",
    "optim.steps": "count",
    "trace.spans_per_unit": "count",
    "tensor.conv2d_gflop": "GFLOP_computed",
    "tensor.conv2d_mb": "MB_computed",
    "data.pgm_read_mb": "MB",
    "container.checkpoint_mb": "MB",
    "encoders.repeat_input_share": "ratio",
    "trace.overhead_pct": "%",
}


def unit_of(metric):
    return UNITS.get(metric, "ms")


def _median(values):
    """statistics.median, or 0 for a layer the workload does not reach."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(tracer, first, units, untraced_s, traced_s):
    """Per-layer metrics of the traced window, which starts at span `first`.

    `units` is the work done in the traced window; `untraced_s` and
    `traced_s` are the wall times per unit of the untraced and traced
    windows.  A layer the workload does not reach reads 0.
    """
    window = tracer.spans[first:]
    selfs = tracer.self_times()[first:]
    per_unit = 1.0 / units
    out = {}
    for metric, name in PER_UNIT_MS.items():
        out[metric] = 1000.0 * per_unit * sum(s[2] - s[1] for s in window if s[0] == name)
    for metric, names in PER_UNIT_SELF_MS.items():
        out[metric] = 1000.0 * per_unit * sum(
            t for s, t in zip(window, selfs) if s[0] in names)
    for metric, (name, key) in PER_UNIT_COUNT.items():
        out[metric] = per_unit * sum(1 if key is None else s[5][key]
                                     for s in window if s[0] == name)
    for metric, names in PER_CALL_MS.items():
        out[metric] = 1000.0 * _median(s[2] - s[1] for s in tracer.spans if s[0] in names)
    out["container.checkpoint_mb"] = _median(
        s[5]["mb"] for s in tracer.spans if s[0].startswith("container.checkpoint"))
    trains = sum(1 for s in window if s[0] == "harness.train")
    steps = sum(1 for s in window if s[0] == "optim.step")
    out["optim.steps"] = steps / trains if trains else 0.0
    out["encoders.repeat_input_share"] = (
        tracer.encode_repeats / tracer.encode_calls if tracer.encode_calls else 0.0)
    out["trace.spans_per_unit"] = per_unit * len(window)
    out["trace.overhead_ms"] = 1000.0 * (traced_s - untraced_s)
    out["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return out


def self_time_table(tracer, first, units):
    """(span name, calls, total ms per unit, self ms per unit), slowest self first."""
    rows = {}
    for s, t in zip(tracer.spans[first:], tracer.self_times()[first:]):
        calls, total, self_ = rows.get(s[0], (0, 0.0, 0.0))
        rows[s[0]] = (calls + 1, total + s[2] - s[1], self_ + t)
    return sorted(((name, c, 1000.0 * tot / units, 1000.0 * st / units)
                   for name, (c, tot, st) in rows.items()), key=lambda r: -r[3])
