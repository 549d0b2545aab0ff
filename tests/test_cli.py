"""End-to-end command line flows, exit codes, and environment overrides."""

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hdeeg
from hdeeg import SyntheticSpec, classifier, cli, load_dataset, load_model, write_dataset
from hdeeg.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, _params_from, build_parser, main

SMALL = ["--dimension", "2000", "--levels", "50", "--drop", "256", "--seed", "9"]
COUNTS = [
    "--train-adhd", "2", "--train-control", "2",
    "--test-adhd", "2", "--test-control", "2",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    code = main(
        ["gen-synth", "--out", str(root), "--patients", "4", "--samples", "1792",
         "--seed", "21"]
    )
    assert code == EXIT_OK
    return root


@pytest.fixture(scope="module")
def model_path(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    code = main(["train", "--manifest", str(dataset_dir), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_OK
    return out


# ----------------------------------------------------------------- parsing


def test_help_lists_subcommands(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("gen-synth", "preprocess", "train", "eval", "sweep", "inspect-model"):
        assert name in out


def test_no_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_unknown_flag_is_usage_error(dataset_dir):
    assert main(["train", "--manifest", str(dataset_dir), "--bogus"]) == EXIT_USAGE


# --------------------------------------------------------------- gen-synth


def test_gen_synth_dataset_loads(dataset_dir):
    manifest, recordings = load_dataset(dataset_dir)
    assert len(recordings) == 8
    assert recordings[0].samples.shape == (1792, 2)
    assert manifest.channels == ("F4", "Cz")


def test_gen_synth_invalid_frequency_writes_nothing(tmp_path):
    out = tmp_path / "ds"
    code = main(
        ["gen-synth", "--out", str(out), "--patients", "2", "--freq-control", "99"]
    )
    assert code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_gen_synth_non_finite_rate_is_usage_error(tmp_path, rate):
    out = tmp_path / "ds"
    assert main(["gen-synth", "--out", str(out), "--patients", "2", "--rate", rate]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--amplitude", "nan"], ["--amplitude", "inf"], ["--noise-std", "nan"], ["--noise-std", "inf"],
     ["--amplitude", "1e308", "--noise-std", "1e308"]],
    ids=["nan_amplitude", "inf_amplitude", "nan_noise", "inf_noise", "overflow"],
)
def test_gen_synth_unusable_signal_is_usage_error(tmp_path, flags):
    out = tmp_path / "ds"
    assert main(["gen-synth", "--out", str(out), "--patients", "2", *flags]) == EXIT_USAGE
    assert not out.exists()


# -------------------------------------------------------------- preprocess


def test_preprocess_emits_signals_levels_stats(dataset_dir, tmp_path):
    out = tmp_path / "prep"
    code = main(["preprocess", "--manifest", str(dataset_dir), "--out", str(out), *SMALL])
    assert code == EXIT_OK
    stats = json.loads((out / "stats.json").read_text())
    assert [s["channel"] for s in stats["channel_stats"]] == ["F4", "Cz"]
    assert len(stats["patients"]) == 8
    sig_lines = (out / "signals" / "adhd-001.csv").read_text().splitlines()
    assert sig_lines[0] == "F4,Cz"
    assert len(sig_lines) == 1 + (1792 - 256) // 8
    lvl_lines = (out / "levels" / "control-004.csv").read_text().splitlines()
    assert len(lvl_lines) == 1 + 192
    values = [int(v) for line in lvl_lines[1:] for v in line.split(",")]
    assert all(0 <= v <= 49 for v in values)


def test_preprocess_rejects_traversing_patient_id(dataset_dir, tmp_path):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["patients"][0]["id"] = "../../escaped"
    manifest.write_text(json.dumps(doc))
    work = tmp_path / "trav"
    code = main(["preprocess", "--manifest", str(root), "--out", str(work / "out"), *SMALL])
    assert code == EXIT_DATA
    assert not work.exists()
    assert not (tmp_path / "escaped.csv").exists()


def test_train_rejects_patient_path_outside_the_dataset(dataset_dir, tmp_path, capsys):
    # A readable CSV beside the dataset: the manifest must not reach it.
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    shutil.copy(root / doc["patients"][0]["path"], tmp_path / "outside.csv")
    doc["patients"][0]["path"] = "../outside.csv"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(root), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_DATA
    assert "leaves the dataset root" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "train"])
@pytest.mark.parametrize("name", ["", " F4", "F4,Cz", "Cz\r\n"])
def test_channel_name_a_csv_header_cannot_hold_is_data_error(
    dataset_dir, tmp_path, capsys, command, name
):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["channels"][1] = name
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = COUNTS if command == "train" else []
    code = main([command, "--manifest", str(root), "--out", str(out), *extra, *SMALL])
    assert code == EXIT_DATA
    assert f"channel name {name!r} cannot be a CSV header field" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_not_utf8_is_data_error(dataset_dir, tmp_path, capsys):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b'"synthetic"', b'"synth\xffetic"'))
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(root), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_DATA
    assert "manifest.json: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_patient_csv_not_utf8_is_data_error(dataset_dir, tmp_path, capsys):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    patient = json.loads((root / "manifest.json").read_text())["patients"][2]
    csv = root / patient["path"]
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\n\xff", 1))
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(root), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{patient['id']}: " in err and "is not UTF-8 text" in err
    assert not out.exists()


# ------------------------------------------------------------ train / eval


def test_train_saves_model_and_prints_accuracy(model_path, capsys):
    model = load_model(model_path)
    assert model.params.dimension == 2000
    assert model.params.seed == 9
    assert len(model.train_ids) == 4 and len(model.test_ids) == 4


def test_train_rerun_is_byte_identical(dataset_dir, model_path, tmp_path):
    again = tmp_path / "again.bin"
    code = main(["train", "--manifest", str(dataset_dir), "--out", str(again), *COUNTS, *SMALL])
    assert code == EXIT_OK
    assert again.read_bytes() == model_path.read_bytes()


def test_train_creates_the_output_directory(dataset_dir, model_path, tmp_path):
    out = tmp_path / "new" / "dir" / "model.bin"
    code = main(["train", "--manifest", str(dataset_dir), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_OK
    assert load_model(out).train_ids == load_model(model_path).train_ids
    assert out.read_bytes() == model_path.read_bytes()


def test_train_zero_train_count_is_usage_error(dataset_dir, tmp_path):
    code = main(
        ["train", "--manifest", str(dataset_dir), "--out", str(tmp_path / "m.bin"),
         "--train-adhd", "0", "--train-control", "2", *SMALL]
    )
    assert code == EXIT_USAGE


def test_train_insufficient_patients_is_data_error(dataset_dir, tmp_path):
    code = main(
        ["train", "--manifest", str(dataset_dir), "--out", str(tmp_path / "m.bin"),
         "--train-adhd", "4", "--train-control", "4",
         "--test-adhd", "4", "--test-control", "4", *SMALL]
    )
    assert code == EXIT_DATA


def test_train_non_finite_gate_is_usage_error(dataset_dir, tmp_path, monkeypatch):
    out = tmp_path / "m.bin"
    argv = ["train", "--manifest", str(dataset_dir), "--out", str(out), *COUNTS, *SMALL]
    assert main([*argv, "--gate", "nan"]) == EXIT_USAGE
    monkeypatch.setenv("HDEEG_GATE", "inf")
    assert main(argv) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_train_non_finite_manifest_rate_is_data_error(dataset_dir, tmp_path, token):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = manifest.read_text().replace('"sample_rate_hz": 256.0', f'"sample_rate_hz": {token}')
    manifest.write_text(doc)
    code = main(["train", "--manifest", str(root), "--out", str(tmp_path / "m.bin"), *COUNTS, *SMALL])
    assert code == EXIT_DATA


def test_train_integer_manifest_rate_too_large_for_a_float_is_data_error(
    dataset_dir, tmp_path, capsys
):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = manifest.read_text().replace('"sample_rate_hz": 256.0', '"sample_rate_hz": 1' + "0" * 400)
    manifest.write_text(doc)
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(root), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_DATA
    assert "sample rate must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_two_patients_naming_one_file_is_data_error(dataset_dir, tmp_path, capsys):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    first, second = doc["patients"][:2]
    second["path"] = first["path"].replace("/", "/./")
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(root), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_DATA
    assert f"patients {first['id']} and {second['id']} name one file" in capsys.readouterr().err
    assert not out.exists()


def test_train_nul_byte_in_a_patient_path_is_data_error(dataset_dir, tmp_path, capsys):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    first = doc["patients"][0]
    first["path"] = first["path"].replace(".csv", "\0.csv")
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(root), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_DATA
    message = f"patient {first['id']} path {first['path']!r} holds a NUL byte"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["sweep", "--runs", "0"], "need at least one run"),
     (["train", "--test-adhd", "-1"], "test counts must be nonnegative")],
)
def test_bad_counts_are_usage_errors_before_the_manifest_is_read(tmp_path, capsys, argv, message):
    # The manifest does not exist: reading it would exit EXIT_IO instead.
    out = tmp_path / "out"
    code = main([argv[0], "--manifest", str(tmp_path / "missing"), "--out", str(out), *argv[1:]])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_manifest_is_io_error(tmp_path):
    code = main(
        ["train", "--manifest", str(tmp_path / "nowhere"),
         "--out", str(tmp_path / "m.bin"), *COUNTS, *SMALL]
    )
    assert code == EXIT_IO


def test_eval_report_matches_training_accuracy(dataset_dir, model_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(model_path),
         "--report", str(report_path)]
    )
    assert code == EXIT_OK
    assert "accuracy 100.0%" in capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert doc["report"]["accuracy_pct"] == 100.0
    assert len(doc["test_ids"]) == 4
    assert doc["params"]["dimension"] == 2000
    assert len(doc["report"]["patients"]) == 4


def test_eval_rerun_is_byte_identical(dataset_dir, model_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["eval", "--manifest", str(dataset_dir), "--model", str(model_path),
             "--report", str(path)]
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def write_with_channels(dataset_dir, root, channels, column_order):
    """Copy a dataset under new channel names, its columns taken in ``column_order``."""
    manifest, recordings = load_dataset(dataset_dir)
    write_dataset(
        root,
        replace(manifest, channels=channels),
        [replace(r, channels=channels, samples=r.samples[:, column_order]) for r in recordings],
    )
    return root


def test_eval_on_other_channels_is_data_error(dataset_dir, model_path, tmp_path, capsys):
    root = write_with_channels(dataset_dir, tmp_path / "ds", ("F4", "Pz"), [0, 1])
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(root), "--model", str(model_path), "--report", str(report)]
    )
    assert code == EXIT_DATA
    assert (
        "dataset channels ('F4', 'Pz') differ from the model's ('F4', 'Cz')"
        in capsys.readouterr().err
    )
    assert not report.exists()


def test_eval_binds_reordered_channels_by_name(dataset_dir, model_path, tmp_path):
    root = write_with_channels(dataset_dir, tmp_path / "ds", ("Cz", "F4"), [1, 0])
    reports = []
    for manifest in (dataset_dir, root):
        reports.append(tmp_path / f"{len(reports)}.json")
        code = main(
            ["eval", "--manifest", str(manifest), "--model", str(model_path),
             "--report", str(reports[-1])]
        )
        assert code == EXIT_OK
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_eval_without_held_out_patients_is_data_error(dataset_dir, tmp_path):
    model = tmp_path / "no-test.bin"
    code = main(
        ["train", "--manifest", str(dataset_dir), "--out", str(model),
         "--train-adhd", "2", "--train-control", "2",
         "--test-adhd", "0", "--test-control", "0", *SMALL]
    )
    assert code == EXIT_OK
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(model),
         "--report", str(tmp_path / "r.json")]
    )
    assert code == EXIT_DATA


def test_eval_checks_the_model_before_reading_any_csv(dataset_dir, tmp_path, capsys):
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    for csv in (root / "patients").iterdir():
        csv.unlink()
    model = tmp_path / "no-test.bin"
    code = main(
        ["train", "--manifest", str(dataset_dir), "--out", str(model),
         "--train-adhd", "2", "--train-control", "2",
         "--test-adhd", "0", "--test-control", "0", *SMALL]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    code = main(
        ["eval", "--manifest", str(root), "--model", str(model),
         "--report", str(tmp_path / "r.json")]
    )
    assert code == EXIT_DATA
    assert "model holds no held-out test patients to evaluate" in capsys.readouterr().err


def test_eval_on_manifest_without_a_test_patient_is_data_error(
    dataset_dir, model_path, tmp_path, capsys
):
    held_out = load_model(model_path).test_ids[1]
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["patients"] = [p for p in doc["patients"] if p["id"] != held_out]
    manifest.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(root), "--model", str(model_path), "--report", str(report)]
    )
    assert code == EXIT_DATA
    assert (
        f"dataset lacks the model's test patient(s) ['{held_out}']" in capsys.readouterr().err
    )
    assert not report.exists()


def test_eval_corrupt_model_is_data_error(dataset_dir, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a model at all")
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(bad),
         "--report", str(tmp_path / "r.json")]
    )
    assert code == EXIT_DATA


def test_eval_short_prototypes_is_data_error(dataset_dir, model_path, tmp_path, rewrite_snapshot):
    def edit(header, arrays):
        for name in ("prototype_adhd", "prototype_control"):
            arrays[name] = arrays[name][:-2]

    bad = tmp_path / "short.bin"
    rewrite_snapshot(model_path, bad, edit)
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(bad),
         "--report", str(tmp_path / "r.json")]
    )
    assert code == EXIT_DATA


def test_eval_float_ngram_size_is_data_error(dataset_dir, model_path, tmp_path, rewrite_snapshot):
    bad = tmp_path / "float_ngram.bin"
    rewrite_snapshot(model_path, bad, lambda header, arrays: header["params"].update(ngram_size=32.0))
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(bad),
         "--report", str(tmp_path / "r.json")]
    )
    assert code == EXIT_DATA


def test_non_finite_gate_snapshot_is_data_error(dataset_dir, model_path, tmp_path, rewrite_snapshot):
    bad = tmp_path / "nan_gate.bin"
    nan_gate = lambda header, arrays: header["params"].update(gate_threshold=float("nan"))
    rewrite_snapshot(model_path, bad, nan_gate)
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(bad),
         "--report", str(tmp_path / "r.json")]
    )
    assert code == EXIT_DATA
    assert main(["inspect-model", "--model", str(bad)]) == EXIT_DATA


def _zero_adhd_prototype(header, arrays):
    arrays["prototype_adhd"][:] = 0


def _huge_adhd_component(header, arrays):
    arrays["prototype_adhd"][0] = 2**53 + 1


UNSCORABLE_PROTOTYPES = {
    "all_zero_prototype": (_zero_adhd_prototype, "class ADHD cannot score"),
    "component_beyond_float64": (_huge_adhd_component, "beyond +-2**53"),
    "zero_bundle_count": (
        lambda header, arrays: header["bundle_counts"].update(CONTROL=0),
        "class CONTROL cannot score: bundle count 0",
    ),
}


@pytest.mark.parametrize(
    "edit, reason", UNSCORABLE_PROTOTYPES.values(), ids=UNSCORABLE_PROTOTYPES.keys()
)
def test_snapshot_prototype_that_cannot_score_is_data_error(
    dataset_dir, model_path, tmp_path, rewrite_snapshot, capsys, edit, reason
):
    bad = tmp_path / "prototype.bin"
    rewrite_snapshot(model_path, bad, edit)
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(bad), "--report", str(report)]
    )
    assert code == EXIT_DATA
    assert reason in capsys.readouterr().err
    assert not report.exists()
    assert main(["inspect-model", "--model", str(bad)]) == EXIT_DATA
    assert capsys.readouterr().out == ""


def _set_stats(**fields):
    return lambda header, arrays: header["channel_stats"][1].update(fields)


def _set_range(low, high):
    return _set_stats(clip_low=low, clip_high=high, quant_min=low, quant_max=high)


# Each channel's range is stored twice, as the clip and the quantization
# pair.  The stats are built from the clip pair, and the header check
# refuses a quantization pair that differs from it.
UNUSABLE_STATS = {
    "nan_clip_low": (_set_stats(clip_low=float("nan")), "channel Cz: non-finite"),
    "empty_quant_range": (
        _set_range(0.5, 0.5), "channel Cz: degenerate quantization range [0.5, 0.5]"
    ),
    "swapped_quant_range": (
        _set_range(1.0, -1.0), "channel Cz: degenerate quantization range [1.0, -1.0]"
    ),
    "reversed_clip_range": (
        _set_stats(clip_low=1.0, clip_high=-1.0),
        "channel Cz: degenerate quantization range [1.0, -1.0]",
    ),
    "quant_range_differs": (
        _set_stats(quant_min=-1.0, quant_max=1.0), "header is not the one save_model writes"
    ),
}


@pytest.mark.parametrize("edit, reason", UNUSABLE_STATS.values(), ids=UNUSABLE_STATS.keys())
def test_unusable_channel_stats_snapshot_is_data_error(
    dataset_dir, model_path, tmp_path, rewrite_snapshot, capsys, edit, reason
):
    bad = tmp_path / "stats.bin"
    rewrite_snapshot(model_path, bad, edit)
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(bad), "--report", str(report)]
    )
    assert code == EXIT_DATA
    assert reason in capsys.readouterr().err
    assert not report.exists()
    assert main(["inspect-model", "--model", str(bad)]) == EXIT_DATA
    assert capsys.readouterr().out == ""


@pytest.fixture(scope="module")
def constant_channel_dataset(dataset_dir, tmp_path_factory):
    """The module dataset with channel Cz held at 4.0 uV in every recording."""
    manifest, recordings = load_dataset(dataset_dir)
    flat = []
    for rec in recordings:
        samples = rec.samples.copy()
        samples[:, 1] = 4.0
        flat.append(replace(rec, samples=samples))
    root = tmp_path_factory.mktemp("constant")
    write_dataset(root, manifest, flat)
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["train", *COUNTS],
        ["sweep", "--test-size", "2", "--max-train", "3", "--runs", "1"],
        ["preprocess"],
    ],
    ids=lambda argv: argv[0],
)
def test_constant_channel_is_data_error(constant_channel_dataset, tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(
        [argv[0], "--manifest", str(constant_channel_dataset), "--out", str(out),
         *argv[1:], *SMALL]
    )
    assert code == EXIT_DATA
    assert "channel Cz: degenerate quantization range [4.0, 4.0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def near_limit_datasets(tmp_path_factory):
    """The module dataset's patients without noise, at amplitudes near the float64 limit."""
    roots = {}
    for amplitude in ("1e308", "5e307"):
        roots[amplitude] = tmp_path_factory.mktemp(f"amplitude-{amplitude}")
        code = main(
            ["gen-synth", "--out", str(roots[amplitude]), "--patients", "4", "--samples", "1792",
             "--seed", "21", "--amplitude", amplitude, "--noise-std", "0"]
        )
        assert code == EXIT_OK
    return roots


# 1e308: the clip range itself overflows; 5e307: only an 8-sample block sum does.
NEAR_LIMIT_ERRORS = {
    "1e308": "channel F4: quantization range [-1e+308, 1e+308] is wider than float64 holds",
    "5e307": "channel F4: the sum of 8-sample block 0 overflows float64",
}


@pytest.mark.parametrize("amplitude", NEAR_LIMIT_ERRORS)
@pytest.mark.parametrize(
    "argv",
    [
        ["train", *COUNTS],
        ["sweep", "--test-size", "2", "--max-train", "3", "--runs", "1"],
        ["preprocess"],
    ],
    ids=lambda argv: argv[0],
)
def test_conditioning_that_overflows_is_data_error(
    near_limit_datasets, tmp_path, capsys, argv, amplitude
):
    # pytest turns a RuntimeWarning into an error, so none may be raised.
    out = tmp_path / "out"
    code = main(
        [argv[0], "--manifest", str(near_limit_datasets[amplitude]), "--out", str(out),
         *argv[1:], *SMALL]
    )
    assert code == EXIT_DATA
    assert NEAR_LIMIT_ERRORS[amplitude] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("amplitude", NEAR_LIMIT_ERRORS)
def test_eval_clips_samples_near_float64_limit_to_the_model_range(
    near_limit_datasets, model_path, tmp_path, amplitude
):
    # The model's channel stats come from ordinary data, and clipping comes
    # before any arithmetic, so nothing overflows.
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(near_limit_datasets[amplitude]), "--model", str(model_path),
         "--report", str(report)]
    )
    assert code == EXIT_OK
    assert json.loads(report.read_text())["test_ids"] == list(load_model(model_path).test_ids)


SPLIT_EDITS = {
    "repeated_test_id": (
        lambda header, arrays: header.update(test_ids=[header["test_ids"][0]] * 3),
        "test_ids name patient(s)",
    ),
    "test_ids_from_training": (
        lambda header, arrays: header.update(test_ids=header["train_ids"][:2]),
        "in both train_ids and test_ids",
    ),
}


@pytest.mark.parametrize("edit, reason", SPLIT_EDITS.values(), ids=SPLIT_EDITS.keys())
def test_snapshot_split_ids_must_be_unique_and_disjoint(
    dataset_dir, model_path, tmp_path, rewrite_snapshot, capsys, edit, reason
):
    bad = tmp_path / "split.bin"
    rewrite_snapshot(model_path, bad, edit)
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(dataset_dir), "--model", str(bad), "--report", str(report)]
    )
    assert code == EXIT_DATA
    assert reason in capsys.readouterr().err
    assert not report.exists()
    assert main(["inspect-model", "--model", str(bad)]) == EXIT_DATA


# ------------------------------------------------------ length policy


@pytest.fixture(scope="module", params=[1300, 1800, 200])
def uneven_dataset(request, tmp_path_factory):
    """Recordings that do not split into whole windows at SMALL's params:
    1300 - 256 is not a multiple of 8, 1800 - 256 is one of 8 but not of
    8 * 32, and 200 is shorter than the drop."""
    root = tmp_path_factory.mktemp(f"uneven{request.param}")
    code = main(
        ["gen-synth", "--out", str(root), "--patients", "4",
         "--samples", str(request.param), "--seed", "21"]
    )
    assert code == EXIT_OK
    return root, request.param


def test_partial_windows_are_data_errors_before_encoding(
    uneven_dataset, model_path, tmp_path, monkeypatch, capsys
):
    root, samples = uneven_dataset

    def no_encoding(*args, **kwargs):
        raise AssertionError("encoded a recording before checking its length")

    monkeypatch.setattr(classifier, "encode_windows", no_encoding)
    commands = {
        "train": ["train", "--manifest", str(root), "--out", str(tmp_path / "m.bin"),
                  *COUNTS, *SMALL],
        "eval": ["eval", "--manifest", str(root), "--model", str(model_path),
                 "--report", str(tmp_path / "r.json")],
        "sweep": ["sweep", "--manifest", str(root), "--out", str(tmp_path / "s.csv"),
                  "--test-size", "2", "--max-train", "2", "--runs", "1", *SMALL],
    }
    for name, argv in commands.items():
        assert main(argv) == EXIT_DATA, name
        err = capsys.readouterr().err
        assert f"adhd-001: {samples} samples" in err, name
        assert "256 + k * 256 samples" in err, name
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def unscored_model(dataset_dir, tmp_path_factory):
    """A model of the module dataset whose held-out set leaves out adhd-001."""
    out = tmp_path_factory.mktemp("unscored") / "model.bin"
    code = main(
        ["train", "--manifest", str(dataset_dir), "--out", str(out), *COUNTS, *SMALL,
         "--seed", "8"]
    )
    assert code == EXIT_OK
    assert "adhd-001" not in load_model(out).test_ids
    return out


def test_eval_length_rule_covers_patients_it_does_not_score(
    uneven_dataset, unscored_model, tmp_path, monkeypatch, capsys
):
    root, samples = uneven_dataset

    def no_encoding(*args, **kwargs):
        raise AssertionError("encoded a recording before checking its length")

    monkeypatch.setattr(classifier, "encode_windows", no_encoding)
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(root), "--model", str(unscored_model), "--report", str(report)]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"adhd-001: {samples} samples" in err
    assert "256 + k * 256 samples" in err
    assert not report.exists()


def edit_training_csv(dataset_dir, model_path, root, edit):
    """Copy the dataset, passing one training patient's CSV bytes through ``edit``."""
    shutil.copytree(dataset_dir, root)
    pid = load_model(model_path).train_ids[0]
    csv = root / "patients" / f"{pid}.csv"
    csv.write_bytes(edit(csv.read_bytes()))
    return pid


def with_first_row(row):
    """An edit of CSV bytes that puts ``row`` in place of the first data row."""

    def edit(data):
        header, _, *rest = data.split(b"\n")
        return b"\n".join([header, row, *rest])

    return edit


UNSCORED_FILE_ERRORS = {
    "extra_row": (
        lambda data: data + b"1.0,2.0\n",
        ["recordings disagree on sample count: [1792, 1793]"],
    ),
    "wrong_header": (
        lambda data: data.replace(b"F4,Cz", b"F4,Pz", 1),
        ["{pid}: header ('F4', 'Pz') does not match manifest channels ('F4', 'Cz')"],
    ),
    "not_utf8": (with_first_row(b"1.0,2.\xff0"), ["{pid}: ", "is not UTF-8 text"]),
}


@pytest.mark.parametrize(
    "edit, messages", UNSCORED_FILE_ERRORS.values(), ids=UNSCORED_FILE_ERRORS.keys()
)
def test_eval_checks_files_of_patients_it_does_not_score(
    dataset_dir, model_path, tmp_path, capsys, edit, messages
):
    root = tmp_path / "ds"
    pid = edit_training_csv(dataset_dir, model_path, root, edit)
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--manifest", str(root), "--model", str(model_path), "--report", str(report)]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    for message in messages:
        assert message.format(pid=pid) in err
    assert not report.exists()


UNSCORED_VALUES = {"non_numeric": b"1.0,oops", "non_finite": b"nan,2.0", "blank_row": b""}


@pytest.mark.parametrize("row", UNSCORED_VALUES.values(), ids=UNSCORED_VALUES.keys())
def test_eval_leaves_values_of_patients_it_does_not_score_unparsed(
    dataset_dir, model_path, tmp_path, row
):
    # The policy: eval parses only the held-out patients' values, so a bad
    # value in a training patient's CSV is train's error, not eval's.
    root = tmp_path / "ds"
    edit_training_csv(dataset_dir, model_path, root, with_first_row(row))
    reports = []
    for manifest in (dataset_dir, root):
        reports.append(tmp_path / f"{len(reports)}.json")
        code = main(
            ["eval", "--manifest", str(manifest), "--model", str(model_path),
             "--report", str(reports[-1])]
        )
        assert code == EXIT_OK
    assert reports[0].read_bytes() == reports[1].read_bytes()
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(root), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_DATA
    assert not out.exists()


def test_preprocess_needs_whole_downsampling_blocks(uneven_dataset, tmp_path, capsys):
    root, samples = uneven_dataset
    out = tmp_path / "prep"
    code = main(["preprocess", "--manifest", str(root), "--out", str(out), *SMALL])
    if samples == 1800:
        assert code == EXIT_OK
        return
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"adhd-001: {samples} samples" in err
    assert "256 + k * 8 samples" in err
    assert not out.exists()


# ------------------------------------------------------------------- sweep


def test_sweep_writes_csv(dataset_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--manifest", str(dataset_dir), "--out", str(out),
        "--test-size", "2", "--max-train", "3", "--runs", "2", *SMALL,
    ]
    assert main(argv) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,mean_acc,std"
    assert len(lines) == 4
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == k
        float(fields[1]), float(fields[2])

    again = tmp_path / "sweep2.csv"
    assert main(argv[:4] + [str(again)] + argv[5:]) == EXIT_OK
    assert again.read_text() == out.read_text()


def test_sweep_table_admitting_every_window_is_pinned(dataset_dir, tmp_path):
    # At gate 2.0 every window is admitted, so the held-out patients are
    # re-scored after every training patient; criterion 7 pins the default gate.
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--manifest", str(dataset_dir), "--out", str(out),
        "--test-size", "2", "--max-train", "6", "--runs", "3", "--gate", "2.0", *SMALL,
    ]
    assert main(argv) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "07f45062159f2b33b60b2145323778bdfe63c63d0b4b1f1f8c4fddade2b5d037"


# At an odd test size the stratified and the uniform test sets differ.
ODD_SWEEP = ["--test-size", "3", "--max-train", "3", "--runs", "2", *SMALL]


@pytest.fixture(scope="module")
def stratified_and_uniform_tables(dataset_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("sweeps")
    tables = []
    for flag in ([], ["--uniform-test"]):
        out = root / f"sweep{len(flag)}.csv"
        assert main(["sweep", "--manifest", str(dataset_dir), "--out", str(out), *ODD_SWEEP, *flag]) == EXIT_OK
        tables.append(out.read_bytes())
    assert tables[0] != tables[1]
    return tables


@pytest.mark.parametrize(
    "value, uniform", [("1", True), ("yes", True), ("ON", True), ("0", False), ("off", False)]
)
def test_uniform_test_env_var_reads_booleans(
    dataset_dir, stratified_and_uniform_tables, tmp_path, monkeypatch, value, uniform
):
    monkeypatch.setenv("HDEEG_UNIFORM_TEST", value)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--manifest", str(dataset_dir), "--out", str(out), *ODD_SWEEP]) == EXIT_OK
    assert out.read_bytes() == stratified_and_uniform_tables[uniform]


# ----------------------------------------------------------- inspect-model


def test_inspect_model_prints_summary(model_path, capsys):
    assert main(["inspect-model", "--model", str(model_path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["seed"] == 9
    assert set(doc["bundle_counts"]) == {"ADHD", "CONTROL"}
    assert all(v >= 1 for v in doc["bundle_counts"].values())
    assert all(v > 0 for v in doc["prototype_norms"].values())
    assert doc["channels"] == ["F4", "Cz"]


def test_inspect_model_output_is_pinned(model_path, capsys):
    assert main(["inspect-model", "--model", str(model_path)]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "d3ecacd448c27ad6c8c73b3808c2f52a876d3d78fffd5046986ba5c0631a5132"


# ------------------------------------------------------------- environment


def test_env_var_sets_default(dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("HDEEG_SEED", "5")
    out = tmp_path / "env.bin"
    argv = ["train", "--manifest", str(dataset_dir), "--out", str(out), *COUNTS,
            "--dimension", "2000", "--levels", "50", "--drop", "256"]
    assert main(argv) == EXIT_OK
    assert load_model(out).params.seed == 5


def test_explicit_flag_beats_env(dataset_dir, model_path, tmp_path, monkeypatch):
    monkeypatch.setenv("HDEEG_SEED", "5")
    out = tmp_path / "flag.bin"
    code = main(["train", "--manifest", str(dataset_dir), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_OK
    assert out.read_bytes() == model_path.read_bytes()


def test_unparseable_env_var_is_usage_error(dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("HDEEG_DIMENSION", "not-a-number")
    code = main(
        ["train", "--manifest", str(dataset_dir), "--out", str(tmp_path / "m.bin"),
         *COUNTS]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_env_var_outside_choices_is_usage_error(tmp_path, monkeypatch, capsys, command):
    # The manifest does not exist: the value is refused before any file is read.
    monkeypatch.setenv("HDEEG_STATS_SCOPE", "bogus")
    code = main([command, "--manifest", str(tmp_path / "missing"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "HDEEG_STATS_SCOPE: expected one of train, all, got 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "variable, value, command",
    [
        ("HDEEG_STATS_SCOPE", "bogus", "inspect-model"),
        ("HDEEG_DIMENSION", "ten", "gen-synth"),
        ("HDEEG_UNIFORM_TEST", "maybe", "eval"),
    ],
)
def test_bad_env_var_leaves_subcommands_without_its_flag_alone(
    dataset_dir, model_path, tmp_path, monkeypatch, variable, value, command
):
    argv = {
        "inspect-model": ["--model", str(model_path)],
        "gen-synth": ["--out", str(tmp_path / "ds"), "--patients", "1", "--samples", "64"],
        "eval": ["--manifest", str(dataset_dir), "--model", str(model_path),
                 "--report", str(tmp_path / "r.json")],
    }[command]
    monkeypatch.setenv(variable, value)
    assert main([command, *argv]) == EXIT_OK


@pytest.mark.parametrize(
    "variable, value, argv",
    [
        ("HDEEG_DIMENSION", "ten", ["train", *COUNTS]),  # SMALL gives --dimension
        ("HDEEG_STATS_SCOPE", "bogus", ["train", *COUNTS, "--stats-scope", "all"]),
        ("HDEEG_UNIFORM_TEST", "maybe",
         ["sweep", "--test-size", "2", "--max-train", "2", "--runs", "1", "--uniform-test"]),
    ],
)
def test_explicit_flag_replaces_env_value_it_cannot_take(
    dataset_dir, tmp_path, monkeypatch, variable, value, argv
):
    monkeypatch.setenv(variable, value)
    out = tmp_path / "out"
    code = main([argv[0], "--manifest", str(dataset_dir), "--out", str(out), *argv[1:], *SMALL])
    assert code == EXIT_OK
    if argv[0] == "train":
        assert load_model(out).params.dimension == 2000


def test_bad_env_value_without_its_flag_is_still_usage_error(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("HDEEG_DIMENSION", "ten")
    monkeypatch.setenv("HDEEG_GATE", "wide")
    out = tmp_path / "m.bin"
    code = main(["train", "--manifest", str(dataset_dir), "--out", str(out), *COUNTS, *SMALL])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "HDEEG_GATE: cannot parse 'wide'" in err
    assert "HDEEG_DIMENSION" not in err
    assert not out.exists()


def test_every_gen_synth_flag_sets_its_field(tmp_path, monkeypatch):
    flags = [
        "--patients", "3", "--samples", "640", "--rate", "128.0", "--freq-adhd", "4.0",
        "--freq-control", "7.0", "--amplitude", "20.0", "--noise-std", "2.5", "--seed", "17",
    ]
    expected = SyntheticSpec(
        patients_per_class=3, samples=640, sample_rate_hz=128.0, freq_adhd_hz=4.0,
        freq_control_hz=7.0, amplitude_uv=20.0, noise_std_uv=2.5, seed=17,
    )
    default = SyntheticSpec()
    # channels has no flag.
    assert all(
        getattr(expected, f.name) != getattr(default, f.name)
        for f in fields(expected) if f.name != "channels"
    )
    specs = []

    def capture(spec):
        specs.append(spec)
        return hdeeg.generate_synthetic(spec)

    monkeypatch.setattr(cli, "generate_synthetic", capture)
    assert main(["gen-synth", "--out", str(tmp_path / "ds"), *flags]) == EXIT_OK
    assert specs == [expected]


def test_every_pipeline_flag_sets_its_field():
    flags = [
        "--dimension", "4000", "--levels", "64", "--ngram", "16", "--drop", "128",
        "--downsample", "4", "--gate", "0.25", "--clip-low", "1.0", "--clip-high", "98.0",
        "--seed", "17",
    ]
    expected = classifier.PipelineParams(
        dimension=4000, level_count=64, ngram_size=16, drop_samples=128, downsample_factor=4,
        gate_threshold=0.25, clip_low_pct=1.0, clip_high_pct=98.0, seed=17,
    )
    default = classifier.PipelineParams()
    assert all(getattr(expected, f.name) != getattr(default, f.name) for f in fields(expected))
    args = build_parser().parse_args(["train", "--manifest", "m", "--out", "o", *flags])
    assert _params_from(args) == expected


# -------------------------------------------------------------- entrypoints


def test_module_entrypoint():
    # Run beside the imported package, so the child imports the same hdeeg
    # whether or not PYTHONPATH names it.
    proc = subprocess.run(
        [sys.executable, "-m", "hdeeg.cli", "--help"], capture_output=True, text=True,
        cwd=Path(hdeeg.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert "gen-synth" in proc.stdout


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy < 2 imports numpy.random itself"
)
def test_cli_import_leaves_numpy_random_unloaded():
    # Commands that draw nothing (eval, preprocess, inspect-model) should
    # not pay for loading numpy.random, which numpy >= 2 loads lazily.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hdeeg.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, cwd=Path(hdeeg.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_statistics_unloaded():
    # statistics pulls in fractions and decimal; incremental_sweep takes
    # its means with math.fsum instead.
    code = "import sys, hdeeg.cli; print({'statistics', 'fractions', 'decimal'} & set(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=Path(hdeeg.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "set()"


def test_console_script():
    exe = shutil.which("hdeeg")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
