"""Pins of the gate's working regime: a set where it admits some windows, not all.

At gen-synth's default noise the gate admits a few percent of windows,
and at ``--gate 2.0`` it admits every one; the pins elsewhere cover
those two ends.  At ``--noise-std 18`` the default gate admits most
windows but not all, so ``offer``'s admissions inside a scoring block
and across block edges (20 windows a patient, more than two blocks)
decide the prototypes, and the sweep re-scores its held-out set after
almost every training patient.
"""

import hashlib
import json

import pytest

from hdeeg.cli import EXIT_OK, main

SMALL = ["--dimension", "2000", "--levels", "50", "--drop", "256", "--seed", "9"]
# 256 dropped samples, then 20 windows of 32 samples after 8:1 downsampling.
WINDOWS = 20
TRAIN = {"ADHD": 4, "CONTROL": 4}


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def noisy_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("noisy")
    assert main(
        ["gen-synth", "--out", str(root), "--patients", "6", "--samples", str(256 + 256 * WINDOWS),
         "--noise-std", "18", "--seed", "21"]
    ) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def noisy_model(noisy_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("noisy-model")
    model, report = out / "model.bin", out / "report.json"
    assert main(
        ["train", "--manifest", str(noisy_dataset), "--out", str(model),
         "--train-adhd", str(TRAIN["ADHD"]), "--train-control", str(TRAIN["CONTROL"]),
         "--test-adhd", "2", "--test-control", "2", *SMALL]
    ) == EXIT_OK
    assert main(
        ["eval", "--manifest", str(noisy_dataset), "--model", str(model), "--report", str(report)]
    ) == EXIT_OK
    return model, report


def test_noisy_gate_admits_a_fraction_well_inside_zero_and_one(noisy_model, capsys):
    model, _ = noisy_model
    assert main(["inspect-model", "--model", str(model)]) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)["bundle_counts"]
    offered = {label: n * WINDOWS for label, n in TRAIN.items()}
    fraction = sum(counts.values()) / sum(offered.values())
    assert 0.2 < fraction < 0.9
    assert counts == {"ADHD": 63, "CONTROL": 65}


def test_noisy_model_and_report_are_pinned(noisy_model):
    model, report = noisy_model
    assert _sha256(model.read_bytes()) == "b71572d1a6422f1a34d248a5d4417cbe512fd4111e56579ca3e1ee4d11971054"
    assert _sha256(report.read_bytes()) == "abaf31d982f85b7f58b4b244cf4e091a26a036832eb527c660097c698c2e7526"


# The two tables are equal: from k = 5 on every held-out patient's vote is
# clear at either gate.  They pin the single-class rule and the early
# votes; the model and report above pin the gate's own decisions.
@pytest.mark.parametrize(
    "gate, digest",
    [
        ("0.5", "e465b6ba03c906410ab62324e590bec63356764481512fbbe7e6a3cd8695d476"),
        ("2.0", "e465b6ba03c906410ab62324e590bec63356764481512fbbe7e6a3cd8695d476"),
    ],
)
def test_noisy_sweep_tables_are_pinned(noisy_dataset, tmp_path, gate, digest):
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--manifest", str(noisy_dataset), "--out", str(out),
         "--test-size", "4", "--max-train", "8", "--runs", "2", "--gate", gate, *SMALL]
    ) == EXIT_OK
    assert _sha256(out.read_bytes()) == digest
