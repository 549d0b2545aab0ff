"""Command line driver.

Subcommands: gen-synth, preprocess, train, eval, sweep, inspect-model.
Every flag can also be set through an environment variable named
HDEEG_<FLAG> (dashes as underscores, e.g. HDEEG_CLIP_LOW); explicit flags
win over the environment, also over a value the flag cannot take, which is
an error only for a subcommand that has the flag and only when the flag is
not given.  Exit codes: 0 success, 2 usage or configuration error, 3 data
validation error, 4 I/O error.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .classifier import (
    PipelineParams,
    evaluate,
    incremental_sweep,
    run_trial,
)
from .common import Label, map_forked
from .dataio import (
    DataValidationError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    write_csv,
    write_dataset,
)
from .memories import UntrainedMemoryError
from .model_io import ModelFormatError, load_model, save_model, snapshot_header
from .preprocess import (
    clip,
    downsample_mean,
    drop_initial,
    quantize,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

ENV_PREFIX = "HDEEG_"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _env_default(env_name, raw, *, type, choices, store_true):
    """The default an HDEEG_* value sets; ValueError if the flag cannot take it."""
    if store_true:
        low = raw.strip().lower()
        if low in _TRUTHY:
            return True
        if low in _FALSY:
            return False
        raise ValueError(f"{env_name}: expected a boolean, got {raw!r}")
    try:
        value = type(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{env_name}: cannot parse {raw!r}") from None
    # argparse checks choices on the command line only, not on defaults.
    if choices is not None and value not in choices:
        raise ValueError(f"{env_name}: expected one of {', '.join(choices)}, got {raw!r}")
    return value


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


def _opt(parser, flag, *, type=str, default=None, help="", action=None, choices=None, required=False):
    env_name = ENV_PREFIX + _dest(flag).upper()
    raw = os.environ.get(env_name)
    if raw is not None:
        required = False
        try:
            default = _env_default(
                env_name, raw, type=type, choices=choices, store_true=action == "store_true"
            )
        except ValueError as exc:
            # A bad value is only a default: the flag on the command line
            # replaces it, else main reports it once this subcommand is chosen.
            default = exc
    help += f" [env {env_name}]"
    if action == "store_true":
        parser.add_argument(flag, action="store_true", default=default, help=help)
    else:
        parser.add_argument(
            flag, type=type, default=default, help=help, choices=choices, required=required,
        )


# (flag, field, help): each flag takes its type and default from the field.
PIPELINE_FLAGS = (
    ("--dimension", "dimension", "hypervector dimension"),
    ("--levels", "level_count", "quantization level count"),
    ("--ngram", "ngram_size", "window length in samples"),
    ("--drop", "drop_samples", "initial samples to drop"),
    ("--downsample", "downsample_factor", "block-average factor"),
    ("--gate", "gate_threshold", "prototype bundling gate threshold"),
    ("--clip-low", "clip_low_pct", "lower clip percentile"),
    ("--clip-high", "clip_high_pct", "upper clip percentile"),
    ("--seed", "seed", "root seed for all randomness"),
)
SYNTHETIC_FLAGS = (
    ("--patients", "patients_per_class", "patients per class"),
    ("--samples", "samples", "samples per recording"),
    ("--rate", "sample_rate_hz", "sample rate in Hz"),
    ("--freq-adhd", "freq_adhd_hz", "ADHD class frequency in Hz"),
    ("--freq-control", "freq_control_hz", "control class frequency in Hz"),
    ("--amplitude", "amplitude_uv", "sinusoid amplitude in microvolts"),
    ("--noise-std", "noise_std_uv", "noise standard deviation in microvolts"),
    ("--seed", "seed", "generator seed"),
)


def _add_record_options(parser, record, table):
    by_name = {f.name: f for f in fields(record)}
    for flag, name, help in table:
        _opt(parser, flag, type=by_name[name].type, default=by_name[name].default, help=help)


def _record_from(args, record, table):
    return record(**{name: getattr(args, _dest(flag)) for flag, name, _ in table})


def _params_from(args) -> PipelineParams:
    return _record_from(args, PipelineParams, PIPELINE_FLAGS)


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
    Path(path).write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_gen_synth(args) -> int:
    manifest, recordings = generate_synthetic(_record_from(args, SyntheticSpec, SYNTHETIC_FLAGS))
    write_dataset(args.out, manifest, recordings)
    print(f"wrote {len(recordings)} patients to {args.out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    params = _params_from(args)
    manifest, recordings = load_dataset(args.manifest)
    for rec in recordings:
        params.check_length(rec, whole_windows=False)
    stats = params.channel_stats(recordings)
    # Every recording is conditioned before the first file is written, so
    # a block that overflows leaves no output behind.
    drop, factor = params.drop_samples, params.downsample_factor
    conditioned = [downsample_mean(clip(drop_initial(r, drop), stats), factor) for r in recordings]
    out = Path(args.out)

    def write(rec):
        levels = quantize(rec, stats, params.level_count).levels
        write_csv(out / "signals" / f"{rec.patient_id}.csv", manifest.channels, rec.samples)
        write_csv(out / "levels" / f"{rec.patient_id}.csv", manifest.channels, levels)

    map_forked(write, conditioned)
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
    """Score a model on its held-out patients; only their CSVs are parsed.

    The model is checked against the manifest before any CSV is read.  Every
    other manifest patient's CSV gets load_dataset's UTF-8, header and row
    count checks, so the length and equal-length rules still cover it; a
    non-numeric or non-finite value, a blank row or a row with the wrong
    number of values there goes unreported.
    """
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    if not model.test_ids:
        raise DataValidationError("model holds no held-out test patients to evaluate")
    # Encoder and stats look channels up by name, so only the set must match.
    if set(manifest.channels) != set(model.channels):
        raise DataValidationError(
            f"dataset channels {manifest.channels} differ from the model's {model.channels}"
        )
    known = {p.id for p in manifest.patients}
    missing = [i for i in model.test_ids if i not in known]
    if missing:
        raise DataValidationError(f"dataset lacks the model's test patient(s) {missing}")
    manifest, recordings = load_dataset(args.manifest, ids=model.test_ids)
    # load_dataset held every manifest patient to one row count, so the
    # length rule passes for all of them or first fails for the first.
    model.params.check_length(replace(recordings[0], patient_id=manifest.patients[0].id))
    by_id = {rec.patient_id: rec for rec in recordings}
    q_test = [model.params.preprocess(by_id[i], model.channel_stats) for i in model.test_ids]
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
        params=params,
        stratified=not args.uniform_test,
        stats_scope=args.stats_scope,
    )
    rows = np.array([(row.k, row.mean_acc, row.std) for row in result.rows], dtype=object)
    out = Path(args.out)
    write_csv(out, ("k", "mean_acc", "std"), rows)
    print(f"swept k=1..{args.max_train} over {args.runs} runs; table written to {out}")
    return EXIT_OK


def cmd_inspect_model(args) -> int:
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
    _add_record_options(p, SyntheticSpec, SYNTHETIC_FLAGS)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("preprocess", help="run the signal chain and emit plot-ready files")
    _opt(p, "--manifest", type=str, required=True, help="dataset directory or manifest path")
    _opt(p, "--out", type=str, required=True, help="output directory")
    _add_record_options(p, PipelineParams, PIPELINE_FLAGS)
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
    _add_record_options(p, PipelineParams, PIPELINE_FLAGS)
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
    _add_record_options(p, PipelineParams, PIPELINE_FLAGS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect-model", help="print a model snapshot summary as JSON")
    _opt(p, "--model", type=str, required=True, help="model snapshot path")
    p.set_defaults(func=cmd_inspect_model)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    # vars keeps the flags in the order they were added.
    bad = next((v for v in vars(args).values() if isinstance(v, ValueError)), None)
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_USAGE
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
