"""Dataset round-trips, CSV validation, synthetic fixtures, splits."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@st.composite
def patient_csv_texts(draw):
    if draw(st.integers(0, 19)) == 0:
        return ""
    header = draw(st.sampled_from(["F4,Cz", " F4 , Cz ", "F4,Pz", "F4"]))
    rows = draw(st.lists(_ROWS, max_size=12))
    if draw(st.booleans()):
        # Mostly valid files, so the reader's accept path is exercised too.
        rows = draw(st.lists(st.lists(_NUMBERS, min_size=2, max_size=2).map(",".join),
                             min_size=1, max_size=40))
        header = "F4,Cz"
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    trailing = draw(st.sampled_from(["", ending]))
    return ending.join([header, *rows]) + trailing


@pytest.fixture(scope="module")
def one_patient_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("one-patient")
    patient = PatientEntry(id="p0", label=Label.ADHD, path="patients/p0.csv")
    manifest = DatasetManifest("one", 256.0, ("F4", "Cz"), (patient,))
    recording = EegRecording("p0", Label.ADHD, manifest.channels, np.zeros((1, 2)), 256.0)
    write_dataset(root, manifest, [recording])
    return root, patient, manifest.channels


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=patient_csv_texts())
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
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(noise_std_uv=-1.0))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(channels=("F4", "F4")))


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_generate_synthetic_rejects_non_finite_rate(rate):
    with pytest.raises(ValueError, match="sample rate must be positive and finite"):
        generate_synthetic(SyntheticSpec(sample_rate_hz=rate))


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
