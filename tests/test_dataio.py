"""Dataset round-trips, CSV validation, synthetic fixtures, splits."""

import collections
import decimal
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hdeeg
from hdeeg import dataio
from hdeeg import (
    DatasetManifest,
    DataValidationError,
    EegRecording,
    Label,
    PatientEntry,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    split,
    write_dataset,
)
from hdeeg.dataio import _block_rows, _repr_fields, write_csv


def tiny_manifest(n_per_class=2, channels=("F4", "Cz")):
    patients = []
    for prefix, label in (("a", Label.ADHD), ("c", Label.CONTROL)):
        for i in range(n_per_class):
            pid = f"{prefix}{i}"
            patients.append(PatientEntry(id=pid, label=label, path=f"patients/{pid}.csv"))
    return DatasetManifest(
        name="tiny", sample_rate_hz=256.0, channels=channels, patients=tuple(patients)
    )


def tiny_recordings(manifest, samples=16, seed=0):
    rng = np.random.default_rng(seed)
    return [
        EegRecording(
            patient_id=p.id,
            label=p.label,
            channels=manifest.channels,
            samples=rng.normal(0, 30, size=(samples, len(manifest.channels))),
            sample_rate_hz=manifest.sample_rate_hz,
        )
        for p in manifest.patients
    ]


# --------------------------------------------------------------- manifest


def test_manifest_validation():
    with pytest.raises(DataValidationError):
        DatasetManifest("x", 256.0, (), (PatientEntry("a", Label.ADHD, "a.csv"),))
    with pytest.raises(DataValidationError):
        DatasetManifest("x", 256.0, ("F4", "F4"), (PatientEntry("a", Label.ADHD, "a.csv"),))
    with pytest.raises(DataValidationError):
        DatasetManifest("x", 256.0, ("F4",), ())
    dup = (PatientEntry("a", Label.ADHD, "a.csv"), PatientEntry("a", Label.CONTROL, "b.csv"))
    with pytest.raises(DataValidationError):
        DatasetManifest("x", 256.0, ("F4",), dup)
    with pytest.raises(DataValidationError):
        DatasetManifest("x", 0.0, ("F4",), (PatientEntry("a", Label.ADHD, "a.csv"),))


BAD_CHANNEL_NAMES = ["", " F4", "F4 ", "F4,Cz", "F4\r", "Cz\n", "F\n4", "F\u20284", "\t"]


@pytest.mark.parametrize("name", BAD_CHANNEL_NAMES)
def test_manifest_rejects_channel_names_a_csv_header_cannot_hold(name):
    with pytest.raises(DataValidationError, match="cannot be a CSV header field"):
        tiny_manifest(channels=("Pz", name))


def test_channel_names_with_inner_spaces_or_non_ascii_round_trip(tmp_path):
    m = tiny_manifest(channels=("F 4", "C\u017c"))
    write_dataset(tmp_path, m, tiny_recordings(m))
    assert load_dataset(tmp_path)[0].channels == ("F 4", "C\u017c")
    header = (tmp_path / "patients/a0.csv").read_bytes().split(b"\n")[0]
    assert header == "F 4,C\u017c".encode("utf-8")


def test_text_is_utf8_whatever_the_locale(tmp_path):
    # Under the C locale with UTF-8 mode and locale coercion off, Python's
    # default text encoding is ASCII; dataset and preprocess writes and the
    # reads must still be UTF-8.
    script = (
        "import sys\n"
        "from hdeeg import SyntheticSpec, generate_synthetic, load_dataset, write_dataset\n"
        "from hdeeg.cli import main\n"
        "spec = SyntheticSpec(patients_per_class=1, samples=1792, channels=('F4', 'C\\u017c'))\n"
        "write_dataset(sys.argv[1], *generate_synthetic(spec))\n"
        "assert load_dataset(sys.argv[1])[0].channels == spec.channels\n"
        "sys.exit(main(['preprocess', '--manifest', sys.argv[1], '--out', sys.argv[2],\n"
        "               '--drop', '256', '--levels', '50']))\n"
    )
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "PYTHONPATH": str(Path(hdeeg.__file__).resolve().parents[1]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "ds"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header = "F4,C\u017c\n".encode("utf-8")
    assert (tmp_path / "ds/patients/adhd-001.csv").read_bytes().startswith(header)
    assert (tmp_path / "out/levels/adhd-001.csv").read_bytes().startswith(header)
    assert "C\\u017c" in (tmp_path / "ds/manifest.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
def test_manifest_rejects_non_finite_sample_rate(rate):
    with pytest.raises(DataValidationError, match="sample rate must be positive and finite"):
        DatasetManifest("x", rate, ("F4",), (PatientEntry("a", Label.ADHD, "a.csv"),))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", '"inf"'])
def test_load_manifest_rejects_non_finite_sample_rate(tmp_path, token):
    m = tiny_manifest()
    write_dataset(tmp_path, m, tiny_recordings(m))
    path = tmp_path / "manifest.json"
    doc = path.read_text().replace('"sample_rate_hz": 256.0', f'"sample_rate_hz": {token}')
    path.write_text(doc)
    with pytest.raises(DataValidationError, match="sample rate must be positive and finite"):
        load_manifest(tmp_path)


def test_manifest_lookups():
    m = tiny_manifest()
    assert m.ids_for(Label.ADHD) == ["a0", "a1"]
    assert m.ids_for(Label.CONTROL) == ["c0", "c1"]
    assert m.labels()["a1"] is Label.ADHD


def test_load_manifest_accepts_dir_or_file(tmp_path):
    m = tiny_manifest()
    write_dataset(tmp_path, m, tiny_recordings(m))
    assert load_manifest(tmp_path).name == "tiny"
    assert load_manifest(tmp_path / "manifest.json").channels == ("F4", "Cz")


def test_load_manifest_bad_json(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(DataValidationError, match="JSON"):
        load_manifest(tmp_path)


def test_load_manifest_missing_field(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"channels": ["F4"]}))
    with pytest.raises(DataValidationError):
        load_manifest(tmp_path)


def test_load_manifest_unknown_label(tmp_path):
    doc = {
        "sample_rate_hz": 256.0,
        "channels": ["F4"],
        "patients": [{"id": "a", "label": "MAYBE", "path": "a.csv"}],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError):
        load_manifest(tmp_path)


@pytest.mark.parametrize(
    "pid", ["", ".", "..", "../../escaped", "a/b", "/abs", "a\\b", "..\\up", "a\0b"]
)
def test_manifest_rejects_ids_that_are_not_file_names(pid):
    with pytest.raises(DataValidationError, match="not a plain file name"):
        DatasetManifest("x", 256.0, ("F4",), (PatientEntry(pid, Label.ADHD, "a.csv"),))


def test_manifest_accepts_dotted_ids():
    for pid in ("...", ".hidden", "a..b", "adhd-001.v2"):
        DatasetManifest("x", 256.0, ("F4",), (PatientEntry(pid, Label.ADHD, "a.csv"),))


def valid_manifest_doc():
    return {
        "sample_rate_hz": 256.0,
        "channels": ["F4", "Cz"],
        "patients": [{"id": "a", "label": "ADHD", "path": "a.csv"}],
    }


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("channels", "F4", "channels"),
        ("channels", [1, 2], "channel"),
        ("channels", ["F4", None], "channel"),
        ("patients", {"a": {}}, "patients"),
        ("id", None, "patient id"),
        ("id", 7, "patient id"),
        ("label", ["ADHD"], "patient label"),
        ("path", 3, "patient path"),
        ("sample_rate_hz", True, "sample_rate_hz"),
        ("sample_rate_hz", "256", "sample_rate_hz"),
        ("sample_rate_hz", [256], "sample_rate_hz"),
    ],
)
def test_load_manifest_rejects_wrong_json_types(tmp_path, key, value, field):
    doc = valid_manifest_doc()
    target = doc["patients"][0] if key in ("id", "label", "path") else doc
    target[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match=f": {field} must be a JSON "):
        load_manifest(tmp_path)


def test_load_manifest_accepts_integer_rate(tmp_path):
    doc = valid_manifest_doc()
    doc["sample_rate_hz"] = 256
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert load_manifest(tmp_path).sample_rate_hz == 256.0


@pytest.mark.parametrize("sign", [1, -1])
def test_manifest_rejects_an_integer_rate_too_large_for_a_float(tmp_path, sign):
    rate = sign * 10**400
    with pytest.raises(DataValidationError, match="sample rate must be positive and finite"):
        DatasetManifest("x", rate, ("F4",), (PatientEntry("a", Label.ADHD, "a.csv"),))
    doc = valid_manifest_doc()
    doc["sample_rate_hz"] = rate
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match="sample rate must be positive and finite"):
        load_manifest(tmp_path)


def test_load_manifest_rejects_an_integer_json_cannot_read(tmp_path):
    # More digits than int() converts by default (4,300): json.loads
    # raises a plain ValueError, not a JSONDecodeError.
    doc = json.dumps(valid_manifest_doc()).replace("256.0", "1" + "0" * 5000)
    (tmp_path / "manifest.json").write_text(doc)
    with pytest.raises(DataValidationError, match="not valid JSON"):
        load_manifest(tmp_path)


def test_load_manifest_rejects_traversing_id(tmp_path):
    doc = valid_manifest_doc()
    doc["patients"][0]["id"] = "../../escaped"
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match="not a plain file name"):
        load_manifest(tmp_path)


BAD_PATHS = ["", "../outside.csv", "patients/../../outside.csv", "/abs/a.csv", "..\\up.csv",
             "C:\\data\\a.csv", "\\\\server\\share\\a.csv", "..", ".", ".//."]


@pytest.mark.parametrize("path", BAD_PATHS)
def test_manifest_rejects_paths_outside_the_root(path):
    with pytest.raises(DataValidationError, match="leaves the dataset root"):
        DatasetManifest("x", 256.0, ("F4",), (PatientEntry("a", Label.ADHD, path),))


def test_manifest_accepts_nested_and_dotted_paths():
    for path in ("a.csv", "patients/a.csv", "./a.csv", "p/./q/a..csv", "...csv"):
        DatasetManifest("x", 256.0, ("F4",), (PatientEntry("a", Label.ADHD, path),))


# Each names the file "patients/a.csv" names, under Windows path rules.
SAME_FILE = ["patients/a.csv", "patients/./a.csv", "patients//a.csv", "patients\\a.csv",
             "./patients/a.csv", "Patients/A.CSV"]


@pytest.mark.parametrize("path", SAME_FILE)
def test_manifest_rejects_two_patients_naming_one_file(tmp_path, path):
    patients = (PatientEntry("a", Label.ADHD, "patients/a.csv"),
                PatientEntry("b", Label.CONTROL, "patients/b.csv"),
                PatientEntry("c", Label.CONTROL, path))
    message = f"patients a and c name one file: 'patients/a.csv' and {path!r}"
    with pytest.raises(DataValidationError, match=re.escape(message)):
        DatasetManifest("x", 256.0, ("F4",), patients)
    doc = valid_manifest_doc()
    doc["patients"] = [{"id": p.id, "label": str(p.label), "path": p.path} for p in patients]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match=re.escape(message)):
        load_manifest(tmp_path)


@pytest.mark.parametrize("path", ["patients/a\0.csv", "\0", "a.csv\0"])
def test_manifest_rejects_a_nul_byte_in_a_path(tmp_path, path):
    message = f"patient a path {path!r} holds a NUL byte"
    with pytest.raises(DataValidationError, match=re.escape(message)):
        DatasetManifest("x", 256.0, ("F4",), (PatientEntry("a", Label.ADHD, path),))
    doc = valid_manifest_doc()
    doc["patients"][0]["path"] = path
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match=re.escape(message)):
        load_manifest(tmp_path)


def test_write_dataset_never_gets_a_nul_byte_in_a_path(tmp_path):
    m = tiny_manifest()
    nul = replace(m.patients[0], path=m.patients[0].path.replace(".csv", "\0.csv"))
    with pytest.raises(DataValidationError, match="holds a NUL byte"):
        write_dataset(tmp_path / "ds", replace(m, patients=(nul, *m.patients[1:])),
                      tiny_recordings(m))
    assert not (tmp_path / "ds").exists()


def test_write_dataset_never_gets_two_patients_naming_one_file(tmp_path):
    # The manifest refuses them when it is built, so nothing is written
    # and neither patient's samples can overwrite the other's.
    m = tiny_manifest()
    shared = replace(m.patients[1], path=m.patients[0].path.replace("/", "/./"))
    with pytest.raises(DataValidationError, match="a0 and a1 name one file"):
        write_dataset(tmp_path / "ds", replace(m, patients=(m.patients[0], shared, *m.patients[2:])),
                      tiny_recordings(m))
    assert not (tmp_path / "ds").exists()


# Each names the manifest under Windows path rules.
MANIFEST_PATHS = ["manifest.json", "./manifest.json", "MANIFEST.JSON", ".\\Manifest.Json"]


@pytest.mark.parametrize("path", MANIFEST_PATHS)
def test_manifest_rejects_a_path_naming_the_manifest(tmp_path, path):
    message = f"patient a path {path!r} names the manifest 'manifest.json'"
    with pytest.raises(DataValidationError, match=re.escape(message)):
        DatasetManifest("x", 256.0, ("F4",), (PatientEntry("a", Label.ADHD, path),))
    doc = valid_manifest_doc()
    doc["patients"][0]["path"] = path
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match=re.escape(message)):
        load_manifest(tmp_path)


# (file, path through it): the second needs the first to be a directory.
THROUGH_A_FILE = [("p/a.csv", "p/a.csv/b.csv"), ("p/a.csv", "P\\A.CSV\\q\\b.csv"),
                  ("./p", "p/./a.csv"), ("a.csv", "A.csv/b.csv")]


@pytest.mark.parametrize("first_is_the_file", [True, False])
@pytest.mark.parametrize("file, through", THROUGH_A_FILE)
def test_manifest_rejects_a_file_another_path_needs_as_a_directory(
    tmp_path, file, through, first_is_the_file
):
    # Either order is refused, naming both patients.
    ids = ("a", "b") if first_is_the_file else ("b", "a")
    patients = sorted([PatientEntry(ids[0], Label.ADHD, file),
                       PatientEntry(ids[1], Label.CONTROL, through)], key=lambda p: p.id)
    message = (f"patient {ids[1]} path {through!r} would make a directory of the "
               f"patient {ids[0]} path {file!r}")
    with pytest.raises(DataValidationError, match=re.escape(message)):
        DatasetManifest("x", 256.0, ("F4",), tuple(patients))
    doc = valid_manifest_doc()
    doc["patients"] = [{"id": p.id, "label": str(p.label), "path": p.path} for p in patients]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match=re.escape(message)):
        load_manifest(tmp_path)


@pytest.mark.parametrize("path", ["manifest.json/a.csv", "Manifest.JSON\\p\\a.csv"])
def test_manifest_rejects_a_path_through_the_manifest(path):
    message = f"patient a path {path!r} would make a directory of the manifest 'manifest.json'"
    with pytest.raises(DataValidationError, match=re.escape(message)):
        DatasetManifest("x", 256.0, ("F4",), (PatientEntry("a", Label.ADHD, path),))


@pytest.mark.parametrize("path, message", [
    ("MANIFEST.JSON", "names the manifest"),
    ("patients/a0.csv/a1.csv", "would make a directory of the patient a0"),
])
def test_write_dataset_never_gets_a_path_that_collides_with_another_file(tmp_path, path, message):
    # The manifest refuses it when it is built, so nothing is written: not
    # a patient's samples over the manifest, nor half a dataset.
    m = tiny_manifest()
    moved = replace(m.patients[1], path=path)
    with pytest.raises(DataValidationError, match=message):
        write_dataset(tmp_path / "ds", replace(m, patients=(m.patients[0], moved, *m.patients[2:])),
                      tiny_recordings(m))
    assert not (tmp_path / "ds").exists()


@st.composite
def patient_path_sets(draw):
    """1-3 patient paths of 1-3 parts, joined by '/' or '\\', from parts
    that name the manifest, differ only in case or are '.'; half the sets
    add a path below the first one or below one of its directories."""
    part = st.tuples(st.sampled_from(["/", "\\"]), st.sampled_from([
        "manifest.json", "MANIFEST.JSON", ".", "p", "P", "a.csv", "A.CSV", "b", "q", "c.csv", "d.csv"]))
    paths = [draw(st.lists(part, min_size=1, max_size=3)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        below = paths[0][: draw(st.integers(1, len(paths[0])))]
        paths.append(below + draw(st.lists(part, min_size=1, max_size=2)))
    return ["".join(sep + name for sep, name in parts)[1:] for parts in paths]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(paths=patient_path_sets())
def test_every_manifest_accepted_writes_and_loads_back(tmp_path_factory, paths):
    patients = tuple(PatientEntry(f"p{i}", Label.ADHD, path) for i, path in enumerate(paths))
    try:
        manifest = DatasetManifest("x", 256.0, ("F4",), patients)
    except DataValidationError:
        return
    recordings = tiny_recordings(manifest, samples=2)
    root = tmp_path_factory.mktemp("accepted")
    write_dataset(root, manifest, recordings)
    loaded_manifest, loaded = load_dataset(root)
    assert loaded_manifest == manifest
    assert [(r.patient_id, r.samples.tobytes()) for r in loaded] == [
        (r.patient_id, r.samples.tobytes()) for r in recordings
    ]


@pytest.mark.parametrize("path", BAD_PATHS)
def test_load_manifest_rejects_paths_outside_the_root(tmp_path, path):
    doc = valid_manifest_doc()
    doc["patients"][0]["path"] = path
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match="leaves the dataset root"):
        load_manifest(tmp_path)


def test_load_dataset_reads_nothing_outside_the_root(tmp_path):
    m = tiny_manifest()
    write_dataset(tmp_path / "ds", m, tiny_recordings(m))
    # A valid CSV beside the dataset, named by the manifest through "..".
    (tmp_path / "outside.csv").write_bytes((tmp_path / "ds" / m.patients[0].path).read_bytes())
    doc = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    doc["patients"][0]["path"] = "../outside.csv"
    (tmp_path / "ds" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match="leaves the dataset root"):
        load_dataset(tmp_path / "ds")


def test_write_dataset_writes_nothing_outside_the_root(tmp_path):
    # write_dataset takes a DatasetManifest, and none can name such a path;
    # replace() re-runs the checks as well.
    m = tiny_manifest()
    escaping = PatientEntry("a0", Label.ADHD, "../outside.csv")
    with pytest.raises(DataValidationError, match="leaves the dataset root"):
        write_dataset(tmp_path / "ds", replace(m, patients=(escaping, *m.patients[1:])),
                      tiny_recordings(m))
    assert not (tmp_path / "ds").exists()
    assert not (tmp_path / "outside.csv").exists()


@pytest.mark.parametrize("name", [None, 7, ["tiny"], {"n": 1}])
def test_load_manifest_requires_a_string_name(tmp_path, name):
    doc = valid_manifest_doc()
    doc["name"] = name
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DataValidationError, match=": name must be a JSON string"):
        load_manifest(tmp_path)


def test_load_manifest_name_defaults_to_directory(tmp_path):
    doc = valid_manifest_doc()
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert load_manifest(tmp_path).name == tmp_path.name
    doc["name"] = "given"
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert load_manifest(tmp_path).name == "given"


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_manifest(tmp_path / "nowhere")


# ------------------------------------------------------------ round trip


def test_write_then_load_round_trips_exactly(tmp_path):
    m = tiny_manifest()
    recs = tiny_recordings(m)
    write_dataset(tmp_path, m, recs)
    loaded_manifest, loaded = load_dataset(tmp_path)
    assert loaded_manifest == m
    assert [r.patient_id for r in loaded] == [r.patient_id for r in recs]
    for a, b in zip(loaded, recs):
        assert a.label is b.label
        assert a.channels == b.channels
        assert a.sample_rate_hz == b.sample_rate_hz
        # repr serialization is lossless for float64
        assert np.array_equal(a.samples, b.samples)


def test_write_dataset_requires_all_recordings(tmp_path):
    m = tiny_manifest()
    with pytest.raises(DataValidationError, match="a1"):
        write_dataset(tmp_path, m, tiny_recordings(m)[:1])


def test_write_dataset_refuses_channels_out_of_manifest_order(tmp_path):
    m = tiny_manifest()
    recs = tiny_recordings(m)
    recs[1] = replace(recs[1], channels=("Cz", "F4"))
    with pytest.raises(DataValidationError, match=r"a1: recording channels \('Cz', 'F4'\)"):
        write_dataset(tmp_path / "ds", m, recs)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_write_dataset_refuses_non_finite_samples(tmp_path, value):
    m = tiny_manifest()
    recs = tiny_recordings(m)
    recs[2].samples[5, 1] = value
    with pytest.raises(DataValidationError, match="c0: non-finite value at sample 5, channel Cz"):
        write_dataset(tmp_path / "ds", m, recs)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("shape", [(3, 3), (3, 1), (3,), (3, 2, 1)])
def test_write_csv_needs_one_column_per_channel(tmp_path, shape):
    with pytest.raises(ValueError, match=r"values must be \(rows, 2\)"):
        write_csv(tmp_path / "x.csv", ("F4", "Cz"), np.zeros(shape))
    assert not (tmp_path / "x.csv").exists()


def oracle_csv_text(channels, values) -> str:
    """The text write_csv gave when it joined one repr per value, row by row."""
    lines = [",".join(channels)]
    lines.extend(",".join(map(repr, row.tolist())) for row in values)
    return "\n".join(lines) + "\n"


# Values where repr changes form: signed zero, subnormals, the switches to
# exponent notation below 1e-4 and from 1e16, and the float64 extremes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-05, 9.999e-05,
                0.0001, 1e16, 9999999999999998.0, -1e16, 1.7976931348623157e308, 0.1, -1.5]


def block_edges(n_ch):
    """Row counts at and across the edges of n_ch-wide CSV blocks."""
    block = _block_rows(n_ch)
    return [block - 1, block, block + 1, 2 * block + 1]


@st.composite
def csv_shapes(draw):
    """(rows, channels): 1-3 channels, and no rows, a few, or a count at
    or across their block edges."""
    n_ch = draw(st.integers(1, 3))
    return draw(st.sampled_from([0, 1, 2, *block_edges(n_ch)])), n_ch


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(pool=_EDGE_FLOATS, integers=False, shape=(_block_rows(2) + 1, 2), seed=0)
@example(pool=[0.0, 17.0, 249.0], integers=True, shape=(_block_rows(2) - 1, 2), seed=1)
@example(pool=[-0.0], integers=False, shape=(0, 1), seed=0)
@example(pool=None, integers=False, shape=(2 * _block_rows(3) + 1, 3), seed=2)
@example(pool=None, integers=False, shape=(_block_rows(19) - 1, 19), seed=3)
@example(pool=None, integers=False, shape=(_block_rows(19) + 1, 19), seed=4)
@example(pool=[0.0, 17.0, 249.0], integers=True, shape=(_block_rows(19) + 1, 19), seed=5)
@given(
    pool=st.one_of(
        st.none(),
        st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False)),
                 min_size=1, max_size=12),
    ),
    integers=st.booleans(),
    shape=csv_shapes(),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_matches_row_join_oracle(tmp_path_factory, pool, integers, shape, seed):
    # Values come from a small pool, or with pool=None each one on its own:
    # a random bit pattern or a normal(0, 30) sample, half and half.  int64
    # stands for quantized levels.
    rng = np.random.default_rng(seed)
    if pool is None:
        bits = rng.integers(-(2**63), 2**63, size=shape, dtype=np.int64).view(np.float64)
        values = np.where(rng.random(shape) < 0.5, bits, rng.normal(0, 30, shape))
    else:
        values = np.array(pool)[rng.integers(len(pool), size=shape)]
    if integers:
        values = np.clip(np.nan_to_num(values), -2.0**62, 2.0**62).astype(np.int64)
    channels = tuple(f"c{j}" for j in range(shape[1]))
    path = tmp_path_factory.getbasetemp() / "oracle" / "p.csv"
    write_csv(path, channels, values)
    assert path.read_bytes() == oracle_csv_text(channels, values).encode("utf-8")


def repr_sample() -> np.ndarray:
    """A fixed sample of over 200,000 floats, many where repr is hard."""
    rng = np.random.default_rng(20)
    bits = rng.integers(-(2**63), 2**63, size=65_000, dtype=np.int64).view(np.float64)
    eeg = rng.normal(0, 30, size=65_000)
    # 1-17 significant digits at decimal exponents -5..16.
    decimals = np.array([
        float(f"{m}e{e - k + 1}")
        for k in range(1, 18)
        for e in range(-5, 17)
        for m in rng.integers(10 ** (k - 1), 10**k, size=200)
    ])
    decimals[1::2] *= -1
    # Powers of ten and of two, each with its six neighbours on either side.
    centres = np.array([10.0**k for k in range(-8, 21)] + [2.0**k for k in range(-30, 60)])
    powers = (centres.view(np.int64) + np.arange(-6, 7)[:, None]).view(np.float64).ravel()
    top = np.finfo(np.float64).max
    special = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, top, -top]
    return np.concatenate([bits, eeg, decimals, powers, -powers, special])


def test_write_csv_matches_repr_on_hard_values(tmp_path):
    values = repr_sample()
    assert values.size >= 200_000
    values = values[: values.size // 2 * 2].reshape(-1, 2)
    write_csv(tmp_path / "p.csv", ("F4", "Cz"), values)
    assert (tmp_path / "p.csv").read_bytes() == oracle_csv_text(("F4", "Cz"), values).encode()


def test_write_csv_powers_of_two_need_no_case_of_their_own(tmp_path, monkeypatch):
    # The gap below a power of two is half the gap above it, and the digit
    # search uses the gap above.  Each power of two in [1e-4, 1e16) fills
    # 64 rows, so it is still numerous at every step and is not sent to
    # repr; only +-1.0, whose exponent estimate sits on a power of ten, is.
    powers = np.ldexp(1.0, np.arange(-13, 54))
    values = np.repeat(np.concatenate([powers, -powers]), 2 * 64).reshape(-1, 2)
    spliced = []

    def counted(values):
        spliced.append(len(values))
        return _repr_fields(values)

    monkeypatch.setattr("hdeeg.dataio._repr_fields", counted)
    write_csv(tmp_path / "p.csv", ("F4", "Cz"), values)
    assert (tmp_path / "p.csv").read_bytes() == oracle_csv_text(("F4", "Cz"), values).encode()
    assert sum(spliced) == 2 * 2 * 64


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_write_csv_survives_a_log10_one_ulp_off(tmp_path, monkeypatch, direction):
    # numpy's log10 need not be correctly rounded.  One ulp off at a power
    # of ten puts the decimal exponent one off, so the scale leaves its
    # table or the digits reach 10**17; such values must go to repr.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    powers = 10.0 ** np.arange(-4, 16)
    values = np.repeat(np.concatenate([powers, np.nextafter(powers, np.inf)]), 64).reshape(-1, 2)
    write_csv(tmp_path / "p.csv", ("F4", "Cz"), values)
    assert (tmp_path / "p.csv").read_bytes() == oracle_csv_text(("F4", "Cz"), values).encode()


def test_write_csv_formats_eeg_values_without_repr(tmp_path, monkeypatch):
    # A silent fall back to one repr per value would keep the bytes and
    # lose the speed; on generate_synthetic's values under 1% go to repr.
    spec = SyntheticSpec(patients_per_class=1, samples=7680, seed=3)
    manifest, recordings = generate_synthetic(spec)
    spliced = []

    def counted(values):
        spliced.append(len(values))
        return _repr_fields(values)

    monkeypatch.setattr("hdeeg.dataio._repr_fields", counted)
    write_dataset(tmp_path, manifest, recordings)
    total = sum(rec.samples.size for rec in recordings)
    assert total == 2 * 7680 * 2
    assert sum(spliced) <= total // 100


def test_write_csv_transient_memory_is_one_block(tmp_path):
    # A block holds about _CSV_BLOCK_VALUES values at any width, so the
    # peak stays one block's as a file grows longer or wider.  A whole
    # paper-scale file as one string, or one string per row, peaks near
    # 1.3 MiB; the bench writes its dataset in the measured process.
    def peak(rows, n_ch):
        values = np.random.default_rng(0).normal(0, 30, size=(rows, n_ch))
        channels = tuple(f"c{j}" for j in range(n_ch))
        write_csv(tmp_path / "p.csv", channels, values)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "p.csv", channels, values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    paper = peak(7680, 2)
    assert paper < 1024 * 1024
    assert abs(peak(4 * 7680, 2) - paper) < 32 * 1024
    assert peak(7680, 19) < 1024 * 1024


def test_write_csv_of_no_channels_writes_empty_rows(tmp_path):
    # No channels take the %r path: an empty header, then one empty line
    # per row, in blocks that must still hold a row.
    write_csv(tmp_path / "p.csv", (), np.empty((3, 0)))
    assert (tmp_path / "p.csv").read_bytes() == b"\n\n\n\n"


# ------------------------------------------------------------- csv errors


def write_patient_csv(tmp_path, text, pid="a0"):
    m = tiny_manifest()
    write_dataset(tmp_path, m, tiny_recordings(m))
    (tmp_path / f"patients/{pid}.csv").write_text(text)
    return tmp_path


def test_load_dataset_missing_csv(tmp_path):
    m = tiny_manifest()
    write_dataset(tmp_path, m, tiny_recordings(m))
    (tmp_path / "patients/a0.csv").unlink()
    with pytest.raises(OSError):
        load_dataset(tmp_path)


def test_load_dataset_header_mismatch(tmp_path):
    root = write_patient_csv(tmp_path, "F4,Pz\n1.0,2.0\n")
    with pytest.raises(DataValidationError, match="header"):
        load_dataset(root)


def test_load_dataset_short_row_names_channel(tmp_path):
    root = write_patient_csv(tmp_path, "F4,Cz\n1.0,2.0\n3.0\n")
    with pytest.raises(DataValidationError, match="Cz"):
        load_dataset(root)


def test_load_dataset_long_row(tmp_path):
    root = write_patient_csv(tmp_path, "F4,Cz\n1.0,2.0,3.0\n")
    with pytest.raises(DataValidationError, match="row 2"):
        load_dataset(root)


def test_load_dataset_non_numeric(tmp_path):
    root = write_patient_csv(tmp_path, "F4,Cz\n1.0,oops\n")
    with pytest.raises(DataValidationError, match="non-numeric"):
        load_dataset(root)


def test_load_dataset_non_finite_names_position(tmp_path):
    root = write_patient_csv(tmp_path, "F4,Cz\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(DataValidationError, match="sample 1, channel Cz"):
        load_dataset(root)


def test_load_dataset_empty_csv(tmp_path):
    root = write_patient_csv(tmp_path, "")
    with pytest.raises(DataValidationError, match="empty"):
        load_dataset(root)


def test_load_dataset_header_only(tmp_path):
    root = write_patient_csv(tmp_path, "F4,Cz\n")
    with pytest.raises(DataValidationError, match="no samples"):
        load_dataset(root)


def test_load_dataset_unequal_lengths(tmp_path):
    m = tiny_manifest()
    recs = tiny_recordings(m)
    write_dataset(tmp_path, m, recs)
    short = "F4,Cz\n" + "\n".join("1.0,2.0" for _ in range(3)) + "\n"
    (tmp_path / "patients/c1.csv").write_text(short)
    with pytest.raises(DataValidationError, match="sample count"):
        load_dataset(tmp_path)


# ------------------------------------------------- loading some patients


def test_load_dataset_ids_not_in_manifest(tmp_path):
    m = tiny_manifest()
    write_dataset(tmp_path, m, tiny_recordings(m))
    with pytest.raises(DataValidationError, match=r"manifest lacks patient\(s\) \['z9', 'x1'\]"):
        load_dataset(tmp_path, ids=["a0", "z9", "x1", "z9"])


@pytest.mark.usefixtures("one_cpu")
def test_load_dataset_ids_parse_only_those_patients(tmp_path, monkeypatch):
    m = tiny_manifest(n_per_class=3)
    write_dataset(tmp_path, m, tiny_recordings(m))
    full_manifest, full = load_dataset(tmp_path)
    # CRLF rows send a file to the row parser, so both readers are counted.
    for pid in ("a0", "c0"):
        csv = tmp_path / f"patients/{pid}.csv"
        csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
    parsed = []
    read_floats, loadtxt = dataio._read_floats, np.loadtxt

    def counting_read_floats(data, n_ch):
        samples = read_floats(data, n_ch)
        if samples is not None:
            parsed.append("fast")
        return samples

    def counting_loadtxt(*args, **kwargs):
        parsed.append("rows")
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(dataio, "_read_floats", counting_read_floats)
    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    ids = ["c2", "a1", "c0"]
    manifest, some = load_dataset(tmp_path, ids=ids)
    assert len(parsed) == len(ids)
    assert sorted(parsed) == ["fast", "fast", "rows"]
    assert manifest == full_manifest
    assert [r.patient_id for r in some] == ["a1", "c0", "c2"]
    by_id = {r.patient_id: r for r in full}
    for rec in some:
        assert rec.label is by_id[rec.patient_id].label
        assert np.array_equal(rec.samples, by_id[rec.patient_id].samples)


def test_load_dataset_reads_write_csv_files_without_the_row_parser(tmp_path, monkeypatch):
    # A paper-scale dataset as write_dataset leaves it, with no value below
    # 1e-4 (which repr writes with an exponent), takes the exact reader: a
    # silent fall back to np.loadtxt or the row scanner fails here.
    manifest, recordings = generate_synthetic(SyntheticSpec(patients_per_class=1, seed=3))
    write_dataset(tmp_path, manifest, recordings)

    def refuse(*args, **kwargs):
        raise AssertionError("a write_csv file went to the row parser")

    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(dataio, "_scan_rows", refuse)
    _, loaded = load_dataset(tmp_path)
    for rec, back in zip(recordings, loaded):
        assert back.samples.tobytes() == rec.samples.tobytes()


@pytest.mark.usefixtures("one_cpu")
def test_load_dataset_opens_each_patient_file_once(tmp_path, monkeypatch):
    # Exact-reader, exponent, CRLF and spaced-header files, parsed or only
    # checked: whichever path a file takes, it is read from disk once.
    m = tiny_manifest(n_per_class=3)
    recordings = tiny_recordings(m)
    recordings[1].samples[3, 0] = 2.5e-05
    write_dataset(tmp_path, m, recordings)
    crlf = tmp_path / "patients/a2.csv"
    crlf.write_bytes(crlf.read_bytes().replace(b"\n", b"\r\n"))
    spaced = tmp_path / "patients/c0.csv"
    spaced.write_bytes(b" F4 , Cz " + spaced.read_bytes()[len(b"F4,Cz") :])
    opened = collections.Counter()
    path_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened[self.name] += 1
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    for ids in (None, ["a1", "a2"], ["c0", "c2"]):
        opened.clear()
        _, loaded = load_dataset(tmp_path, ids=ids)
        assert len(loaded) == len(ids or m.patients)
        assert opened == {"manifest.json": 1, **{f"{p.id}.csv": 1 for p in m.patients}}


def test_load_dataset_holds_one_text_copy_of_a_declined_file(tmp_path):
    # A file the exact reader declines (CRLF rows) is decoded from the one
    # read and its bytes let go, so loading it peaks at its text and lines.
    manifest, recordings = generate_synthetic(SyntheticSpec(patients_per_class=1, seed=3))
    write_dataset(tmp_path, manifest, recordings)
    for p in manifest.patients:
        csv = tmp_path / p.path
        csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
    data = csv.read_bytes()
    load_dataset(tmp_path)
    tracemalloc.start()
    try:
        data.decode().splitlines()
        lines_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        load_dataset(tmp_path, ids=[p.id])
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert load_peak < lines_peak + len(data) // 2


# Every character str.splitlines splits on besides "\n".
_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_BAD_HEADER = "a0: header ('F4',) does not match manifest channels ('F4', 'Cz')"


@pytest.mark.parametrize(
    "text, match",
    [
        ("F4,Pz\n1.0,2.0\n", "a0: header"),
        ("", "a0: .* is empty"),
        ("F4,Cz\n", "a0: no samples"),
        ("F4,Cz\n1.0,2.0\n", "sample count: \\[1, 16\\]"),
        ("F4,Cz\n" + "1.0,2.0\n" * 15 + "\u2028\n", "sample count: \\[16, 17\\]"),
        *[
            ("F4,Cz\n" + "1.0,2.0\n" * 15 + f"1.0{c}2.0\n",
             "^" + re.escape("recordings disagree on sample count: [16, 17]") + "$")
            for c in _LINE_BREAKS
        ],
        *[
            (f"F4{c},Cz\n" + "1.0,2.0\n" * 16, "^" + re.escape(_BAD_HEADER) + "$")
            for c in _LINE_BREAKS
        ],
    ],
    ids=["header", "empty", "header_only", "short", "unicode_line_break"]
    + [f"body_{ord(c):x}" for c in _LINE_BREAKS]
    + [f"header_{ord(c):x}" for c in _LINE_BREAKS],
)
def test_load_dataset_ids_still_check_other_patients_files(tmp_path, text, match):
    root = write_patient_csv(tmp_path, text)
    with pytest.raises(DataValidationError, match=match):
        load_dataset(root, ids=["c1"])


def test_load_dataset_ids_check_other_patients_are_utf8(tmp_path):
    root = write_patient_csv(tmp_path, "")
    (root / "patients/a0.csv").write_bytes(b"F4,Cz\n1.0,\xff\n")
    with pytest.raises(DataValidationError, match="a0: .* is not UTF-8 text"):
        load_dataset(root, ids=["c1"])


@pytest.mark.parametrize("row", ["1.0,oops", "nan,2.0", "", "1.0", "1.0,2.0,3.0"])
def test_load_dataset_ids_leave_other_patients_values_unparsed(tmp_path, row):
    root = write_patient_csv(tmp_path, "F4,Cz\n" + "1.0,2.0\n" * 15 + row + "\n")
    _, (recording,) = load_dataset(root, ids=["c1"])
    assert recording.patient_id == "c1"
    with pytest.raises(DataValidationError, match="a0: "):
        load_dataset(root)


# ------------------------------------------------- csv reader vs oracle
# The row-by-row parser load_dataset used before it read whole files with
# numpy, kept verbatim as the reference: on any text the reader must give
# the same array bit for bit, or the same DataValidationError message.


def oracle_parse_patient_csv(path, patient, channels):
    text = path.read_text()
    lines = text.splitlines()
    if not lines:
        raise DataValidationError(f"{patient.id}: {path} is empty")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header != tuple(channels):
        raise DataValidationError(
            f"{patient.id}: header {header} does not match manifest channels {tuple(channels)}"
        )
    n_ch = len(channels)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_ch:
            short = list(channels[len(parts):]) if len(parts) < n_ch else []
            detail = f"; missing channel(s) {short}" if short else ""
            raise DataValidationError(
                f"{patient.id}: row {lineno} has {len(parts)} values, expected {n_ch}{detail}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise DataValidationError(
                f"{patient.id}: row {lineno} holds a non-numeric value"
            ) from None
    if not rows:
        raise DataValidationError(f"{patient.id}: no samples in {path}")
    samples = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        r, c = bad[0]
        raise DataValidationError(
            f"{patient.id}: non-finite value at sample {int(r)}, channel {channels[int(c)]}"
        )
    return samples


_DIGITS = st.text("0123456789", min_size=1, max_size=30)

_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(0, 2**64 - 1).map(lambda bits: repr(struct.unpack("<d", bits.to_bytes(8, "little"))[0])),
    st.builds(
        lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
        st.sampled_from(["", "+", "-"]),
        _DIGITS | st.just(""),
        st.just("") | _DIGITS.map(lambda d: "." + d) | st.just("."),
        st.just("")
        | st.builds(
            lambda e, sign, n: f"{e}{sign}{n}",
            st.sampled_from("eE"),
            st.sampled_from(["", "+", "-"]),
            st.integers(0, 330),
        ),
    ),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "+inf", "-Infinity", "1e400", "-1e-400"]),
)

_TOKENS = st.one_of(
    _NUMBERS,
    st.builds(lambda pad, x, tail: pad + x + tail, st.sampled_from([" ", "\t", "  "]), _NUMBERS,
              st.sampled_from(["", " ", "\t"])),
    st.sampled_from(["1_0", "1_000.5", "١٢", "３.5", "", " ", "oops", "#", "0x10",
                     "1.0.0", "--1", "e5", " 1.5 "]),
)

_ROWS = st.one_of(
    st.lists(_NUMBERS, min_size=2, max_size=2).map(",".join),
    st.lists(_TOKENS, min_size=2, max_size=2).map(",".join),
    st.lists(_TOKENS, min_size=0, max_size=4).map(",".join),
    st.sampled_from(["", " ", "\t", "# comment", "#1.0,2.0", "1.0,2.0 # note", "1.0,2.0,"]),
)

_SIGNS = st.sampled_from(["", "-"])
# Fields of only the bytes the exact reader takes: mostly [-]digits.digits,
# and some that break its layout rules.
_LAYOUT_FIELDS = st.one_of(
    st.builds(lambda sign, whole, frac: f"{sign}{whole}.{frac}", _SIGNS,
              st.text("0123456789", min_size=1, max_size=4), st.text("0123456789", min_size=1, max_size=4)),
    st.sampled_from([".", "-.", ".5", "5.", "-.25", "--1.0", "1-2.5", "1.0-", "-", "12", "1..2"]),
)


@st.composite
def layout_rows(draw):
    """Two fields a row in all, but cut into rows of 1 to 3 fields."""
    fields = draw(st.lists(_LAYOUT_FIELDS, min_size=2, max_size=40))
    del fields[len(fields) // 2 * 2 :]
    rows = []
    while fields:
        size = draw(st.sampled_from([1, 2, 2, 2, 3]))
        rows.append(",".join(fields[:size]))
        fields = fields[size:]
    return rows


@st.composite
def patient_csv_texts(draw):
    if draw(st.integers(0, 19)) == 0:
        return ""
    header = draw(st.sampled_from(["F4,Cz", " F4 , Cz ", "F4,Pz", "F4"]))
    rows = draw(st.lists(_ROWS, max_size=12))
    branch = draw(st.integers(0, 3))
    if branch >= 2:
        # Mostly valid files, so the reader's accept path is exercised too.
        rows = draw(st.lists(st.lists(_NUMBERS, min_size=2, max_size=2).map(",".join),
                             min_size=1, max_size=40))
        header = "F4,Cz"
    elif branch == 1:
        # Only bytes the exact reader takes, so it decides the file itself.
        return "\n".join(["F4,Cz", *draw(layout_rows())]) + "\n"
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    trailing = draw(st.sampled_from(["", ending]))
    return ending.join([header, *rows]) + trailing


# A warning raised in hdeeg's or numpy's code fails the example.  A test
# tool's own does not: on a failure, hypothesis' report hook imports a
# module that warns of a deprecated mypy_extensions name, and as an error
# that would hide the falsifying example behind an INTERNALERROR.
_WARNINGS_FAIL = pytest.mark.filterwarnings("error:::(hdeeg|numpy)")


@pytest.fixture(scope="module")
def one_patient_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("one-patient")
    patient = PatientEntry(id="p0", label=Label.ADHD, path="patients/p0.csv")
    manifest = DatasetManifest("one", 256.0, ("F4", "Cz"), (patient,))
    recording = EegRecording("p0", Label.ADHD, manifest.channels, np.zeros((1, 2)), 256.0)
    write_dataset(root, manifest, [recording])
    return root, patient, manifest.channels


@_WARNINGS_FAIL
@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=patient_csv_texts())
@example(text="F4,Cz\n--1.0,2.0\n")
@example(text="F4,Cz\n1-2.5,2.0\n")
@example(text="F4,Cz\n1.0\n2.0,3.0,4.0\n")
@example(text="F4,Cz\n" + "1.0,2.0\n" * _block_rows(2) + "1.0\n2.0,3.0,4.0\n")
@example(text="F4,Cz\n.,2.0\n")
@example(text="F4,Cz\n-.,2.0\n")
@example(text="F4,Cz\n1.0-,2.0\n")
@example(text="F4,Cz\n.5,5.\n-.25,1.0\n")
@example(text="F4,Cz\n1_000.5,١٢\n")  # float() syntax loadtxt refuses
def test_load_dataset_matches_row_parser_oracle(one_patient_dataset, text):
    root, patient, channels = one_patient_dataset
    csv_path = root / patient.path
    csv_path.write_text(text)
    try:
        expected = oracle_parse_patient_csv(csv_path, patient, channels)
    except DataValidationError as exc:
        with pytest.raises(DataValidationError) as info:
            load_dataset(root)
        assert str(info.value) == str(exc)
        return
    _, (recording,) = load_dataset(root)
    assert recording.samples.dtype == np.float64
    assert recording.samples.shape == expected.shape
    assert recording.samples.tobytes() == expected.tobytes()


# ------------------------------------------------ exact reader vs float()
# _read_floats must give float()'s value of every field bit for bit,
# whether it decides the rounding itself or hands the field to float().


def _midpoint_text(x):
    """The exact midpoint of x and the next double up, cut to 18 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    whole, _, frac = format(mid, "f").partition(".")
    return f"{whole}.{(frac + '0')[: max(18 - len(whole), 1)]}"


_FIXED_FIELDS = st.one_of(
    # repr writes these in fixed notation.
    st.builds(lambda sign, x: sign + repr(x), _SIGNS,
              st.floats(1e-4, 1e16, exclude_max=True)),
    st.builds(lambda sign, zeros, whole, frac: f"{sign}{zeros}{whole}.{frac}", _SIGNS,
              st.sampled_from(["", "0", "000"]), st.text("0123456789", min_size=1, max_size=11),
              st.text("0123456789", min_size=1, max_size=11)),
    st.sampled_from(["0.0", "-0.0", "0.000", "-00.0"]),
    # Ties and near-ties: exact where the midpoint has at most 18 digits.
    st.builds(lambda sign, x: sign + _midpoint_text(x), _SIGNS,
              st.floats(1e-4, 1e17, exclude_max=True) | st.floats(2.0**50, 1e17, exclude_max=True)),
)


def cycled_cells(n_ch, rows, fields):
    """(channels, cells): rows of n_ch cells that repeat ``fields``, row by row."""
    return n_ch, [fields[i % len(fields)] for i in range(rows * n_ch)]


@st.composite
def fixed_notation_files(draw):
    """cycled_cells of 1 or 3 channels, with one row or a count at or
    across their block edges, and a drawn list of fields."""
    n_ch = draw(st.sampled_from([1, 3]))
    rows = draw(st.sampled_from([1, *block_edges(n_ch)]))
    return cycled_cells(n_ch, rows, draw(st.lists(_FIXED_FIELDS, min_size=1, max_size=40)))


# For 19 channels, the 10-20 montage: a field list whose length is prime
# to 19, so each column takes every field.  It holds ties, 18 digits (the
# most the reader decides itself) and 21 (read by float()).
_MONTAGE_FIELDS = ["9007199254740993.0", "-18014398509481986.0", "4503599627370497.5",
                   "0.1", "-0.0", "12.3456789012345678", "-1234.56789012345678901",
                   "-54.32", "0.00012"]


@_WARNINGS_FAIL
@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fixed_notation_files())
@example(case=(1, ["9007199254740993.0", "-18014398509481986.0", "4503599627370497.5"]))
@example(case=cycled_cells(19, _block_rows(19) - 1, _MONTAGE_FIELDS))
@example(case=cycled_cells(19, _block_rows(19) + 1, _MONTAGE_FIELDS))
def test_read_floats_matches_float_bit_for_bit(case):
    n_ch, cells = case
    rows = [",".join(cells[i : i + n_ch]) for i in range(0, len(cells), n_ch)]
    header = ",".join(f"c{j}" for j in range(n_ch))
    got = dataio._read_floats(("\n".join([header, *rows]) + "\n").encode(), n_ch)
    assert got is not None
    expected = np.array([float(c) for c in cells]).reshape(-1, n_ch)
    assert got.tobytes() == expected.tobytes()


# --------------------------------------------------- the shared exact product
# The reader multiplies q in [0, 1e18] by 10**k, and the formatter |x| in
# [1e-4, 1e16) by 10**s; both take k from 0 to 20.


def _significant_bits(x):
    n = abs(Fraction(x)).numerator  # its denominator is a power of two
    return (n // (n & -n)).bit_length() if n else 0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cases=st.lists(st.tuples(st.floats(1e-4, 1e18) | st.just(0.0), st.integers(0, 20)),
                      min_size=1, max_size=16))
@example(cases=[(1e18, 20), (1e-4, 0), (0.0, 20), (math.nextafter(1e16, 0), 20), (0.1, 17)])
def test_split_and_times_pow10_are_exact(cases):
    x = np.array([xi for xi, _ in cases])
    k = np.array([ki for _, ki in cases])
    for xi, high, low in zip(x.tolist(), *(h.tolist() for h in dataio._split(x))):
        assert Fraction(high) + Fraction(low) == Fraction(xi)
        assert max(_significant_bits(high), _significant_bits(low)) <= 26
    for (xi, ki), high, low in zip(cases, *(h.tolist() for h in dataio._times_pow10(x, k))):
        assert high == xi * float(10**ki)
        assert Fraction(high) + Fraction(low) == Fraction(xi) * 10**ki


# -------------------------------------------------------------- synthetic


def test_generate_synthetic_shapes_and_ids():
    spec = SyntheticSpec(patients_per_class=3, samples=512, seed=4)
    manifest, recs = generate_synthetic(spec)
    assert [p.id for p in manifest.patients] == [
        "adhd-001", "adhd-002", "adhd-003",
        "control-001", "control-002", "control-003",
    ]
    assert all(r.samples.shape == (512, 2) for r in recs)
    labels = manifest.labels()
    assert labels["adhd-002"] is Label.ADHD
    assert labels["control-003"] is Label.CONTROL


def test_generate_synthetic_deterministic():
    spec = SyntheticSpec(patients_per_class=2, samples=256, seed=11)
    _, a = generate_synthetic(spec)
    _, b = generate_synthetic(spec)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.samples, rb.samples)


def test_generate_synthetic_patients_differ():
    spec = SyntheticSpec(patients_per_class=2, samples=256, seed=11)
    _, recs = generate_synthetic(spec)
    assert not np.array_equal(recs[0].samples, recs[1].samples)


def test_generate_synthetic_class_frequencies():
    # The dominant FFT bin of each noisy recording sits at its class
    # frequency: 6 Hz for ADHD, 12 Hz for control.
    spec = SyntheticSpec(patients_per_class=1, samples=2560, seed=2)
    _, recs = generate_synthetic(spec)
    freqs = np.fft.rfftfreq(2560, d=1.0 / 256.0)
    for rec, expected in zip(recs, (6.0, 12.0)):
        spectrum = np.abs(np.fft.rfft(rec.samples[:, 0]))
        spectrum[0] = 0.0
        assert freqs[int(np.argmax(spectrum))] == pytest.approx(expected)


def test_generate_synthetic_validates_frequency():
    with pytest.raises(ValueError, match="frequency"):
        generate_synthetic(SyntheticSpec(freq_control_hz=17.0))
    with pytest.raises(ValueError, match="frequency"):
        generate_synthetic(SyntheticSpec(freq_adhd_hz=0.0))
    # 16 Hz is exactly the post-downsample Nyquist and is allowed.
    generate_synthetic(SyntheticSpec(patients_per_class=1, samples=64, freq_control_hz=16.0))


def test_generate_synthetic_validates_counts():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(patients_per_class=0))
    with pytest.raises(ValueError, match="at least one sample"):
        generate_synthetic(SyntheticSpec(samples=0))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(noise_std_uv=-1.0))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(channels=("F4", "F4")))


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_generate_synthetic_rejects_non_finite_rate(rate):
    with pytest.raises(ValueError, match="sample rate must be positive and finite"):
        generate_synthetic(SyntheticSpec(sample_rate_hz=rate))


@pytest.mark.parametrize("field", ["amplitude_uv", "noise_std_uv"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_generate_synthetic_rejects_non_finite_amplitude_and_noise(field, value):
    with pytest.raises(ValueError, match="must be .*finite"):
        generate_synthetic(SyntheticSpec(patients_per_class=1, samples=64, **{field: value}))


def test_generate_synthetic_refuses_samples_that_overflow():
    # Finite parameters whose samples overflow float64; pytest turns an
    # overflow RuntimeWarning into an error, so none may be raised either.
    spec = SyntheticSpec(patients_per_class=1, samples=1536, amplitude_uv=1e308, noise_std_uv=1e308)
    with pytest.raises(ValueError, match="adhd-001: amplitude and noise std overflow"):
        generate_synthetic(spec)


def test_generate_synthetic_noise_free_is_pure_tone():
    spec = SyntheticSpec(patients_per_class=1, samples=256, noise_std_uv=0.0)
    _, recs = generate_synthetic(spec)
    t = np.arange(256) / 256.0
    expected = 50.0 * np.sin(2 * np.pi * 6.0 * t)
    assert np.allclose(recs[0].samples[:, 0], expected)


# ------------------------------------------------------------------ split


def test_split_counts_and_disjointness():
    m = tiny_manifest(n_per_class=5)
    train, test = split(
        m,
        {Label.ADHD: 3, Label.CONTROL: 2},
        {Label.ADHD: 1, Label.CONTROL: 2},
        seed=7,
    )
    assert len(train) == 5 and len(test) == 3
    assert not set(train) & set(test)
    labels = m.labels()
    assert sum(labels[i] is Label.ADHD for i in train) == 3
    assert sum(labels[i] is Label.ADHD for i in test) == 1


def test_split_deterministic_and_seed_sensitive():
    m = tiny_manifest(n_per_class=6)
    counts = ({Label.ADHD: 4, Label.CONTROL: 4}, {Label.ADHD: 2, Label.CONTROL: 2})
    a = split(m, *counts, seed=1)
    b = split(m, *counts, seed=1)
    assert a == b
    seen = {tuple(split(m, *counts, seed=s)[0]) for s in range(8)}
    assert len(seen) > 1


def test_split_mixes_classes_in_train_order():
    m = tiny_manifest(n_per_class=8)
    counts = ({Label.ADHD: 8, Label.CONTROL: 8}, {})
    labels = m.labels()
    orders = set()
    for s in range(6):
        train, _ = split(m, counts[0], counts[1], seed=s)
        orders.add(tuple(str(labels[i]) for i in train))
    # At least one seed interleaves rather than listing one class first.
    assert any("ADHD" in o[1:] and "CONTROL" in o[:-1] for o in orders)
    assert len(orders) > 1


def test_split_insufficient_patients():
    m = tiny_manifest(n_per_class=2)
    with pytest.raises(DataValidationError, match="ADHD"):
        split(m, {Label.ADHD: 2}, {Label.ADHD: 1}, seed=0)


def test_split_negative_count():
    m = tiny_manifest()
    with pytest.raises(ValueError, match="negative"):
        split(m, {Label.ADHD: -1}, {}, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    n_class=st.integers(min_value=1, max_value=8),
    n_train=st.integers(min_value=0, max_value=8),
    n_test=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_split_properties(n_class, n_train, n_test, seed):
    m = tiny_manifest(n_per_class=n_class)
    counts = (
        {Label.ADHD: n_train, Label.CONTROL: n_train},
        {Label.ADHD: n_test, Label.CONTROL: n_test},
    )
    if n_train + n_test > n_class:
        with pytest.raises(DataValidationError):
            split(m, *counts, seed=seed)
        return
    train, test = split(m, *counts, seed=seed)
    assert len(train) == 2 * n_train and len(test) == 2 * n_test
    assert len(set(train) | set(test)) == len(train) + len(test)
    labels = m.labels()
    for chosen, want in ((train, n_train), (test, n_test)):
        assert sum(labels[i] is Label.ADHD for i in chosen) == want
