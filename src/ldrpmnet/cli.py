"""Command-line entry point: data generation, training, evaluation,
complexity reports, gradient checking, and the four-way ablation.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Diagnostics go to
stderr; results go to stdout and the run directory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__, config as config_mod, dataset
from .complexity import count
from .gradcheck import SUITE_NAMES, standard_suite
from .model import (MODEL_PRESETS, ModelConfig, build_preset,
                    load_checkpoint, save_checkpoint)
from .train import (TrainConfig, ablate, ablation_csv, evaluate, trace_csv,
                    train)

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class CliError(RuntimeError):
    pass


def _check_out_dir(path: str, force: bool) -> None:
    """Fail before any work on a non-empty --out; the directory itself is
    made only right before the first file is written."""
    if os.path.exists(path) and os.listdir(path) and not force:
        raise CliError(f"output directory {path!r} is not empty (use --force)")


def _write_texts(out_dir: str, texts: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(text)


def _write_manifest(out_dir: str, command: str, resolved: dict, seed: int,
                    started: str, outputs: list) -> None:
    manifest = {
        "command": command,
        "config": resolved,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_configs(path: str | None, seed: int | None = None,
                  model: str | None = None) -> tuple[ModelConfig, TrainConfig]:
    """The config file's settings; a given --seed overrides its seed.

    With --model, the file may set (conv_kind, attn_kind) only to the
    default pair or to that preset's pair, because the preset decides them.
    """
    model_cfg, train_cfg = ((ModelConfig(), TrainConfig()) if path is None
                            else config_mod.load_config(path))
    if seed is not None:
        train_cfg.seed = seed
    kinds = (model_cfg.conv_kind, model_cfg.attn_kind)
    if model is not None and kinds not in (
            MODEL_PRESETS[model], (ModelConfig.conv_kind, ModelConfig.attn_kind)):
        raise CliError(
            f"config sets (conv_kind, attn_kind) = {kinds}, but --model "
            f"{model} is {MODEL_PRESETS[model]}")
    return model_cfg, train_cfg


def _load_dataset(path: str, model_cfg: ModelConfig) -> dataset.SampleSet:
    if model_cfg.num_classes != len(dataset.CLASS_IDS):
        raise CliError(
            f"num_classes = {model_cfg.num_classes}, but the dataset has "
            f"{len(dataset.CLASS_IDS)} classes")
    samples = dataset.load(path)
    if samples.input_length != model_cfg.input_length:
        raise CliError(
            f"dataset length {samples.input_length} != configured "
            f"input_length {model_cfg.input_length}")
    return samples


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    started = _now()
    _check_out_dir(args.out, args.force)
    print(f"generating {dataset.TOTAL_SAMPLES} samples "
          f"(seed {args.seed}, length {args.input_length})", file=sys.stderr)
    samples = dataset.generate(args.seed, args.input_length)
    samples = dataset.split(samples, args.seed)
    dataset.save(samples, args.out)
    outputs = sorted(os.listdir(args.out))
    _write_manifest(args.out, "gen-data",
                    {"input_length": args.input_length}, args.seed,
                    started, outputs)
    sizes = {p: len(samples.indices(p)) for p in ("train", "val", "test")}
    print(f"wrote {len(samples)} samples to {args.out} (splits {sizes})")
    return 0


def _cmd_train(args) -> int:
    started = _now()
    model_cfg, train_cfg = _load_configs(args.config, args.seed, args.model)
    _check_out_dir(args.out, args.force)
    samples = _load_dataset(args.data, model_cfg)
    net = build_preset(args.model, base=model_cfg, seed=train_cfg.seed)
    print(f"training {args.model} ({net.param_count()} params, "
          f"{train_cfg.epochs} epochs)", file=sys.stderr)
    net, trace = train(net, samples, train_cfg)
    metrics = evaluate(net, samples)
    paths = {
        "trace.csv": trace_csv(trace),
        "metrics.csv": metrics.to_csv(),
        "confusion.csv": metrics.confusion_csv(),
    }
    _write_texts(args.out, paths)
    save_checkpoint(net, os.path.join(args.out, "weights.bin"))
    _write_manifest(args.out, "train",
                    {"model": args.model,
                     "model_config": config_mod.model_config_to_text(net.config),
                     "train_config": vars(train_cfg)},
                    train_cfg.seed, started,
                    list(paths) + ["weights.bin"])
    print(f"test accuracy {metrics.accuracy:.4f}  "
          f"macro F1 {metrics.f1:.4f}  outputs in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    net = load_checkpoint(args.weights)
    samples = dataset.load(args.data)
    metrics = evaluate(net, samples)
    print(metrics.to_csv(), end="")
    print("confusion matrix (rows = true class):")
    print(metrics.confusion_csv(), end="")
    return 0


def _cmd_count(args) -> int:
    model_cfg, _ = _load_configs(args.config, model=args.model)
    net = build_preset(args.model, base=model_cfg, seed=0)
    report = count(net)
    print(report.to_text())
    pm, fm = report.totals_millions
    print(f"\n{args.model}: Params {pm:.2f} M, FLOPs {fm:.2f} M")
    return 0


def _cmd_gradcheck(args) -> int:
    results = standard_suite(seed=args.seed, only=args.op)
    worst_name = max(results, key=results.get)
    for name in sorted(results):
        status = "ok" if results[name] <= GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name:<20} max_rel_error {results[name]:.3e}  {status}")
    if results[worst_name] > GRADCHECK_TOLERANCE:
        print(f"worst: {worst_name} {results[worst_name]:.3e} exceeds "
              f"{GRADCHECK_TOLERANCE}", file=sys.stderr)
        return 2
    return 0


def _cmd_ablate(args) -> int:
    started = _now()
    model_cfg, train_cfg = _load_configs(args.config, args.seed)
    _check_out_dir(args.out, args.force)
    samples = _load_dataset(args.data, model_cfg)
    print("running four-way ablation (this trains four networks)",
          file=sys.stderr)
    results = ablate(samples, train_cfg, base=model_cfg)
    text = ablation_csv(results)
    _write_texts(args.out, {"ablation.csv": text})
    _write_manifest(args.out, "ablate",
                    {"model_config": config_mod.model_config_to_text(model_cfg),
                     "train_config": vars(train_cfg)},
                    train_cfg.seed, started, ["ablation.csv"])
    print(text, end="")
    return 0


# --------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="ldrpmnet",
                     description="Lightweight 1-D fault-diagnosis pipeline")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--input-length", type=int, default=8192,
                   help="samples per waveform")
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, choices=sorted(MODEL_PRESETS),
                   help="model variant")
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p.add_argument("--weights", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("count", help="parameter / FLOPs report")
    p.add_argument("--model", required=True, choices=sorted(MODEL_PRESETS))
    p.add_argument("--config", help="flat key = value configuration file")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--op", choices=SUITE_NAMES, metavar="NAME",
                   help="run a single named check, one of: "
                        + ", ".join(SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and compare all four variants")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--seed", type=int,
                   help="override the config seed, which draws the init and "
                        "shuffles of all four variants")
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    p.set_defaults(fn=_cmd_ablate)

    return parser


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "fn"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:    # e.g. a config or checkpoint naming huge widths
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
