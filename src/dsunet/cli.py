"""Command-line driver: gen-data, train, predict, eval, ablate, params, verify."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .blocks import DSUNet
from .config import _require_integer, parse_config_file
from .data import generate_dataset, write_dataset
from .metrics import evaluate_dataset, report_csv, report_table
from .nn import placeholder_init
from .tensor import DsuError


def _cmd_gen_data(args):
    _require_integer("--n", args.n, 1)
    _require_integer("--seed", args.seed, 0)
    samples, seeds = generate_dataset(args.n, args.mode, args.profile, args.seed)
    write_dataset(args.out, samples, seeds)
    print(f"wrote {len(samples)} {args.mode} samples to {args.out}")
    return 0


def _cmd_train(args):
    run = parse_config_file(args.config)
    if args.out:
        run = replace(run, out_dir=args.out)

    def progress(epoch, mean_total):
        print(f"epoch {epoch}: mean total loss {mean_total:.6f}")

    result = harness.train(run, progress=progress)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    return 0


def _cmd_predict(args):
    written = harness.predict(args.ckpt, args.images, args.out)
    print(f"wrote {len(written)} masks to {args.out}")
    return 0


def _cmd_eval(args):
    report = evaluate_dataset(args.pred, args.gt)
    with open(args.report, "w", encoding="utf-8") as f:
        f.write(report_csv(report))
    print(report_table(report), end="")
    print(f"csv report: {args.report}")
    return 0 if report.ok() else 1


def _cmd_ablate(args):
    run = parse_config_file(args.config)
    if args.out_dir:
        run = replace(run, out_dir=args.out_dir)
    rows = harness.ablate(run)
    table = harness.format_ablation_table(rows)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(table)
    print(table, end="")
    return 0


def _cmd_params(args):
    run = parse_config_file(args.config)
    model = DSUNet(run.model, init=placeholder_init)
    print(harness.format_parameter_report(model), end="")
    return 0


def _cmd_verify(_args):
    from .verify import run_all

    results = run_all()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="dsu",
                                     description="dual-encoder segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("sod", "cod"), default="sod")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=("toy", "large"), default="toy")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="", help="override the output directory")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="export masks for a dataset directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("eval", help="evaluate predictions against ground truths")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate all fusion variants")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output table path")
    p.add_argument("--out-dir", default="", help="override the run directory")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("params", help="report parameter counts")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("verify", help="run gradient/wavelet/metric-oracle suites")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    """Run one command; a rejected input (DsuError, OSError) is one stderr line, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DsuError, OSError) as exc:
        message = " ".join(str(exc).splitlines())  # a path may hold a line break
        print(f"dsu {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
