"""Command line driver.

Subcommands: gen-synth, preprocess, train, eval, sweep, inspect-model.
Every flag can also be set through an environment variable named
HDEEG_<FLAG> (dashes as underscores, e.g. HDEEG_CLIP_LOW); explicit flags
win over the environment.  Exit codes: 0 success, 2 usage or
configuration error, 3 data validation error, 4 I/O error.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from .classifier import (
    PipelineParams,
    evaluate,
    incremental_sweep,
    run_trial,
)
from .common import Label
from .dataio import (
    DataValidationError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    write_csv,
    write_dataset,
)
from .memories import UntrainedMemoryError
from .model_io import ModelFormatError, load_model, save_model, snapshot_header
from .preprocess import (
    clip,
    compute_channel_stats,
    downsample_mean,
    drop_initial,
    preprocess_recording,
    quantize,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

ENV_PREFIX = "HDEEG_"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _env_value(flag: str):
    name = ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()
    return name, os.environ.get(name)


def _opt(parser, flag, *, type=str, default=None, help="", action=None, choices=None, required=False):
    env_name, raw = _env_value(flag)
    note = f" [env {env_name}]"
    if action == "store_true":
        if raw is not None:
            low = raw.strip().lower()
            if low in _TRUTHY:
                default = True
            elif low in _FALSY:
                default = False
            else:
                raise ValueError(f"{env_name}: expected a boolean, got {raw!r}")
        parser.add_argument(flag, action="store_true", default=bool(default), help=help + note)
        return
    if raw is not None:
        try:
            default = type(raw)
        except (TypeError, ValueError):
            raise ValueError(f"{env_name}: cannot parse {raw!r}") from None
        required = False
    parser.add_argument(
        flag, type=type, default=default, help=help + note,
        choices=choices, required=required,
    )


def _add_pipeline_options(parser):
    d = PipelineParams()
    _opt(parser, "--dimension", type=int, default=d.dimension, help="hypervector dimension")
    _opt(parser, "--levels", type=int, default=d.level_count, help="quantization level count")
    _opt(parser, "--ngram", type=int, default=d.ngram_size, help="window length in samples")
    _opt(parser, "--drop", type=int, default=d.drop_samples, help="initial samples to drop")
    _opt(parser, "--downsample", type=int, default=d.downsample_factor, help="block-average factor")
    _opt(parser, "--gate", type=float, default=d.gate_threshold, help="prototype bundling gate threshold")
    _opt(parser, "--clip-low", type=float, default=d.clip_low_pct, help="lower clip percentile")
    _opt(parser, "--clip-high", type=float, default=d.clip_high_pct, help="upper clip percentile")
    _opt(parser, "--seed", type=int, default=d.seed, help="root seed for all randomness")


def _params_from(args) -> PipelineParams:
    params = PipelineParams(
        dimension=args.dimension,
        level_count=args.levels,
        ngram_size=args.ngram,
        drop_samples=args.drop,
        downsample_factor=args.downsample,
        gate_threshold=args.gate,
        clip_low_pct=args.clip_low,
        clip_high_pct=args.clip_high,
        seed=args.seed,
    )
    params.validate()
    return params


def _counts(args):
    train_counts = {Label.ADHD: args.train_adhd, Label.CONTROL: args.train_control}
    test_counts = {Label.ADHD: args.test_adhd, Label.CONTROL: args.test_control}
    if args.train_adhd < 1 or args.train_control < 1:
        raise ValueError("training needs at least one patient of each class")
    if args.test_adhd < 0 or args.test_control < 0:
        raise ValueError("test counts must be nonnegative")
    return train_counts, test_counts


def _dump_json(path, tree) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")


def cmd_gen_synth(args) -> int:
    spec = SyntheticSpec(
        patients_per_class=args.patients,
        samples=args.samples,
        sample_rate_hz=args.rate,
        freq_adhd_hz=args.freq_adhd,
        freq_control_hz=args.freq_control,
        amplitude_uv=args.amplitude,
        noise_std_uv=args.noise_std,
        seed=args.seed,
    )
    manifest, recordings = generate_synthetic(spec)
    write_dataset(args.out, manifest, recordings)
    print(f"wrote {len(recordings)} patients to {args.out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    params = _params_from(args)
    manifest, recordings = load_dataset(args.manifest)
    for rec in recordings:
        params.check_length(rec, whole_windows=False)
    dropped = [drop_initial(rec, params.drop_samples) for rec in recordings]
    stats = compute_channel_stats(dropped, params.clip_low_pct, params.clip_high_pct)
    out = Path(args.out)
    for rec in dropped:
        conditioned = downsample_mean(clip(rec, stats), params.downsample_factor)
        levels = quantize(conditioned, stats, params.level_count).levels
        write_csv(out / "signals" / f"{rec.patient_id}.csv", manifest.channels, conditioned.samples)
        write_csv(out / "levels" / f"{rec.patient_id}.csv", manifest.channels, levels)
    _dump_json(
        out / "stats.json",
        {
            "params": params.to_dict(),
            "channel_stats": [s.to_dict() for s in stats],
            "patients": [p.id for p in manifest.patients],
        },
    )
    print(f"wrote conditioned signals and levels for {len(recordings)} patients to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    params = _params_from(args)
    train_counts, test_counts = _counts(args)
    manifest, recordings = load_dataset(args.manifest)
    model, report = run_trial(
        manifest,
        recordings,
        params,
        train_counts,
        test_counts,
        stats_scope=args.stats_scope,
    )
    save_model(model, args.out)
    line = f"trained on {len(model.train_ids)} patients, model written to {args.out}"
    if report is not None:
        line += f" (held-out accuracy {report.accuracy_pct:.1f}%)"
    print(line)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    manifest, recordings = load_dataset(args.manifest)
    if not model.test_ids:
        raise DataValidationError("model holds no held-out test patients to evaluate")
    by_id = {rec.patient_id: rec for rec in recordings}
    missing = [i for i in model.test_ids if i not in by_id]
    if missing:
        raise DataValidationError(f"dataset lacks the model's test patient(s) {missing}")
    for rec in recordings:
        model.params.check_length(rec)
    q_test = [
        preprocess_recording(
            by_id[i],
            model.channel_stats,
            drop_samples=model.params.drop_samples,
            downsample_factor=model.params.downsample_factor,
            level_count=model.params.level_count,
        )
        for i in model.test_ids
    ]
    report = evaluate(model, q_test)
    tree = {
        "dataset": manifest.name,
        "params": model.params.to_dict(),
        "test_ids": list(model.test_ids),
        "report": report.to_dict(),
    }
    _dump_json(args.report, tree)
    print(
        f"accuracy {report.accuracy_pct:.1f}% over {len(q_test)} patients; "
        f"report written to {args.report}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    params = _params_from(args)
    if args.runs < 1:
        raise ValueError("need at least one run")
    manifest, recordings = load_dataset(args.manifest)
    result = incremental_sweep(
        manifest,
        recordings,
        test_size=args.test_size,
        max_train=args.max_train,
        runs=args.runs,
        seed=args.seed,
        params=params,
        stratified=not args.uniform_test,
        stats_scope=args.stats_scope,
    )
    lines = ["k,mean_acc,std"]
    lines.extend(f"{row.k},{row.mean_acc!r},{row.std!r}" for row in result.rows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"swept k=1..{args.max_train} over {args.runs} runs; table written to {out}")
    return EXIT_OK


def cmd_inspect_model(args) -> int:
    import numpy as np

    model = load_model(args.model)
    tree = snapshot_header(model)
    del tree["format"], tree["arrays"]
    tree["prototype_norms"] = {
        str(label): float(np.linalg.norm(model.memory.prototype(label))) for label in Label
    }
    print(json.dumps(tree, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdeeg",
        description="Hyperdimensional computing classifier for two-class EEG datasets.",
        epilog=f"Any flag may be preset via {ENV_PREFIX}<FLAG> environment variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic two-class dataset")
    _opt(p, "--out", type=str, required=True, help="output dataset directory")
    _opt(p, "--patients", type=int, default=SyntheticSpec().patients_per_class, help="patients per class")
    _opt(p, "--samples", type=int, default=SyntheticSpec().samples, help="samples per recording")
    _opt(p, "--rate", type=float, default=SyntheticSpec().sample_rate_hz, help="sample rate in Hz")
    _opt(p, "--freq-adhd", type=float, default=SyntheticSpec().freq_adhd_hz, help="ADHD class frequency in Hz")
    _opt(p, "--freq-control", type=float, default=SyntheticSpec().freq_control_hz, help="control class frequency in Hz")
    _opt(p, "--amplitude", type=float, default=SyntheticSpec().amplitude_uv, help="sinusoid amplitude in microvolts")
    _opt(p, "--noise-std", type=float, default=SyntheticSpec().noise_std_uv, help="noise standard deviation in microvolts")
    _opt(p, "--seed", type=int, default=0, help="generator seed")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("preprocess", help="run the signal chain and emit plot-ready files")
    _opt(p, "--manifest", type=str, required=True, help="dataset directory or manifest path")
    _opt(p, "--out", type=str, required=True, help="output directory")
    _add_pipeline_options(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="split a dataset, train, and save the model")
    _opt(p, "--manifest", type=str, required=True, help="dataset directory or manifest path")
    _opt(p, "--out", type=str, required=True, help="model output path")
    _opt(p, "--train-adhd", type=int, default=27, help="ADHD patients in the training split")
    _opt(p, "--train-control", type=int, default=32, help="control patients in the training split")
    _opt(p, "--test-adhd", type=int, default=10, help="ADHD patients held out for testing")
    _opt(p, "--test-control", type=int, default=10, help="control patients held out for testing")
    _opt(p, "--stats-scope", type=str, default="train", choices=["train", "all"],
         help="recordings used for clip and quantization statistics")
    _add_pipeline_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on its held-out patients")
    _opt(p, "--manifest", type=str, required=True, help="dataset directory or manifest path")
    _opt(p, "--model", type=str, required=True, help="model snapshot path")
    _opt(p, "--report", type=str, required=True, help="JSON report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy as a function of training-set size")
    _opt(p, "--manifest", type=str, required=True, help="dataset directory or manifest path")
    _opt(p, "--out", type=str, required=True, help="CSV output path (k,mean_acc,std)")
    _opt(p, "--test-size", type=int, default=20, help="patients held out per run")
    _opt(p, "--max-train", type=int, default=59, help="largest training-set size")
    _opt(p, "--runs", type=int, default=10, help="independent runs to average")
    _opt(p, "--uniform-test", action="store_true", default=False,
         help="sample the test set uniformly instead of stratified")
    _opt(p, "--stats-scope", type=str, default="train", choices=["train", "all"],
         help="recordings used for clip and quantization statistics")
    _add_pipeline_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect-model", help="print a model snapshot summary as JSON")
    _opt(p, "--model", type=str, required=True, help="model snapshot path")
    p.set_defaults(func=cmd_inspect_model)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DataValidationError, ModelFormatError, UntrainedMemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
