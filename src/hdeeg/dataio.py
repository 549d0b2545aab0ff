"""Dataset layout, CSV reading and writing, synthetic fixtures, stratified splits.

A dataset is a directory with a ``manifest.json`` naming the channels and
patients, plus one CSV per patient::

    <root>/manifest.json
    <root>/patients/<id>.csv

The manifest holds ``name``, ``sample_rate_hz``, ``channels`` (ordered)
and ``patients`` (objects with ``id``, ``label``, ``path`` relative to the
root; a path that is empty, absolute or has a ``..`` part is rejected, so
reads and writes stay inside the root).  Patient CSVs start with a header
row of the channel names in manifest order followed by one row of decimal
microvolt values per sample; a channel name must be nonempty, hold no ','
or line break and have no surrounding whitespace.  Every file is UTF-8.
A value is any text Python's float() accepts; blank lines are rejected.
Floats are written with repr, so write-then-load round-trips exactly.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path, PureWindowsPath

import numpy as np

from .common import DataValidationError, Label, check_seed, derive_seed, make_rng
from .preprocess import EegRecording

__all__ = [
    "DataValidationError",
    "PatientEntry",
    "DatasetManifest",
    "SyntheticSpec",
    "load_manifest",
    "load_dataset",
    "write_dataset",
    "write_csv",
    "generate_synthetic",
    "split",
    "draw_split",
]

MANIFEST_NAME = "manifest.json"
# Rows formatted per write: enough to keep the per-call cost small, few
# enough that a block's text stays near 40 KB.
_CSV_BLOCK_ROWS = 1024
_JSON_TYPES = {str: "string", list: "list"}


@dataclass(frozen=True)
class PatientEntry:
    id: str
    label: Label
    path: str


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    sample_rate_hz: float
    channels: tuple
    patients: tuple

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "patients", tuple(self.patients))
        if not self.channels:
            raise DataValidationError("manifest lists no channels")
        for ch in self.channels:
            # Each name is a field of the patient CSVs' header row.
            if not isinstance(ch, str) or ch != ch.strip() or ch.splitlines() != [ch] or "," in ch:
                raise DataValidationError(
                    f"channel name {ch!r} cannot be a CSV header field: it must be nonempty, "
                    "hold no ',' or line break, and have no surrounding whitespace"
                )
        if len(set(self.channels)) != len(self.channels):
            raise DataValidationError(f"duplicate channels in manifest: {self.channels}")
        if not self.patients:
            raise DataValidationError("manifest lists no patients")
        ids = [p.id for p in self.patients]
        for pid in ids:
            # Commands name output files after patient ids.
            if not isinstance(pid, str) or pid in ("", ".", "..") or any(c in pid for c in "/\\\0"):
                raise DataValidationError(
                    f"patient id {pid!r} is not a plain file name: it must be nonempty, "
                    "not '.' or '..', and hold no '/', '\\' or NUL"
                )
        if len(set(ids)) != len(ids):
            raise DataValidationError("duplicate patient ids in manifest")
        for p in self.patients:
            # Reading and writing join the path to the dataset root.  Windows
            # rules split on both '/' and '\\' and see roots and drives.
            path = PureWindowsPath(p.path) if isinstance(p.path, str) and p.path else None
            if path is None or path.anchor or ".." in path.parts:
                raise DataValidationError(
                    f"patient {p.id} path {p.path!r} leaves the dataset root: it must be "
                    "nonempty, relative, and hold no '..' part"
                )
        if not 0 < self.sample_rate_hz < math.inf:
            raise DataValidationError(
                f"sample rate must be positive and finite, got {self.sample_rate_hz}"
            )

    def labels(self) -> dict:
        return {p.id: p.label for p in self.patients}

    def ids_for(self, label: Label):
        return [p.id for p in self.patients if p.label == label]


def _json_field(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` stands for, else ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest; ``path`` is the file or its directory."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"{path}: not valid JSON ({exc})") from exc
    try:
        patients = tuple(
            PatientEntry(
                id=_json_field(p["id"], str, "patient id"),
                label=Label(_json_field(p["label"], str, "patient label")),
                path=_json_field(p["path"], str, "patient path"),
            )
            for p in _json_field(raw["patients"], list, "patients")
        )
        rate = raw["sample_rate_hz"]
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise ValueError(
                "sample_rate_hz must be a JSON number: "
                f"sample rate must be positive and finite, got {rate!r}"
            )
        channels = _json_field(raw["channels"], list, "channels")
        return DatasetManifest(
            name=_json_field(raw["name"], str, "name") if "name" in raw else path.parent.name,
            sample_rate_hz=float(rate),
            channels=tuple(_json_field(c, str, "channel") for c in channels),
            patients=patients,
        )
    except (KeyError, TypeError) as exc:
        raise DataValidationError(f"{path}: missing or malformed field ({exc})") from exc
    except ValueError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc


def _data_rows(path: Path, patient: PatientEntry, channels) -> list:
    """The data rows of a patient CSV, after its UTF-8 and header checks."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{patient.id}: {path} is not UTF-8 text ({exc})") from exc
    if not lines:
        raise DataValidationError(f"{patient.id}: {path} is empty")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header != tuple(channels):
        raise DataValidationError(
            f"{patient.id}: header {header} does not match manifest channels {tuple(channels)}"
        )
    if len(lines) == 1:
        raise DataValidationError(f"{patient.id}: no samples in {path}")
    return lines[1:]


def _parse_rows(rows, patient: PatientEntry, channels) -> np.ndarray:
    samples = None
    if any(rows):  # all rows blank: loadtxt would only warn "no data"
        # numpy's C reader parses each field with the routine float() uses,
        # so the values are bit-identical where it accepts the text.  It
        # skips blank lines, hence the shape check; every file it refuses
        # or would read short goes to the row scanner, which alone words
        # the errors and also takes float() syntax the reader refuses.
        try:
            samples = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
    if samples is None or samples.shape != (len(rows), len(channels)):
        samples = _scan_rows(rows, patient, channels)
    _check_finite(patient.id, samples, channels)
    return samples


def _check_finite(patient_id: str, samples: np.ndarray, channels) -> None:
    """DataValidationError naming the first non-finite sample, if any."""
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        r, c = bad[0]
        raise DataValidationError(
            f"{patient_id}: non-finite value at sample {int(r)}, channel {channels[int(c)]}"
        )


def _scan_rows(rows, patient: PatientEntry, channels) -> np.ndarray:
    """Parse data rows one by one with float(); the first bad row raises."""
    n_ch = len(channels)
    values = []
    for lineno, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != n_ch:
            short = list(channels[len(parts):]) if len(parts) < n_ch else []
            detail = f"; missing channel(s) {short}" if short else ""
            raise DataValidationError(
                f"{patient.id}: row {lineno} has {len(parts)} values, expected {n_ch}{detail}"
            )
        try:
            values.append([float(p) for p in parts])
        except ValueError:
            raise DataValidationError(
                f"{patient.id}: row {lineno} holds a non-numeric value"
            ) from None
    return np.asarray(values, dtype=np.float64)


def load_dataset(path, ids=None):
    """Load a dataset directory.

    Returns (manifest, recordings); recordings keep manifest order and are
    validated for shape, finite values, and header consistency.

    With ``ids``, recordings come back only for those patients, and only
    their values are parsed; an id the manifest lacks is a
    DataValidationError.  Every other manifest patient's file is still read
    as UTF-8 text, its header checked and its data rows counted (the lines
    ``str.splitlines`` gives after the header, as the parser sees them), so
    bad bytes, a bad header and unequal lengths are errors as before.  A
    non-numeric or non-finite value, a blank row or a row with the wrong
    number of values there goes unreported.
    """
    path = Path(path)
    root = path if path.is_dir() else path.parent
    manifest = load_manifest(path)
    wanted = None
    if ids is not None:
        wanted = set(ids)
        known = {p.id for p in manifest.patients}
        unknown = [i for i in dict.fromkeys(ids) if i not in known]
        if unknown:
            raise DataValidationError(f"manifest lacks patient(s) {unknown}")
    recordings = []
    lengths = set()
    for patient in manifest.patients:
        rows = _data_rows(root / patient.path, patient, manifest.channels)
        lengths.add(len(rows))
        if wanted is None or patient.id in wanted:
            recordings.append(
                EegRecording(
                    patient_id=patient.id,
                    label=patient.label,
                    channels=manifest.channels,
                    samples=_parse_rows(rows, patient, manifest.channels),
                    sample_rate_hz=manifest.sample_rate_hz,
                )
            )
        del rows  # one file's lines in memory at a time, not two
    if len(lengths) > 1:
        raise DataValidationError(f"recordings disagree on sample count: {sorted(lengths)}")
    return manifest, recordings


def write_dataset(root, manifest: DatasetManifest, recordings) -> None:
    """Write a dataset directory in the load_dataset format (repr floats).

    Every recording is checked before anything is written: each manifest
    patient needs one, with the manifest's channels in its order and only
    finite samples, so whatever is written loads back as it was given.
    """
    root = Path(root)
    by_id = {rec.patient_id: rec for rec in recordings}
    missing = [p.id for p in manifest.patients if p.id not in by_id]
    if missing:
        raise DataValidationError(f"no recording supplied for manifest patient(s) {missing}")
    for patient in manifest.patients:
        rec = by_id[patient.id]
        if rec.channels != manifest.channels:
            raise DataValidationError(
                f"{patient.id}: recording channels {rec.channels} do not match "
                f"manifest channels {manifest.channels}"
            )
        _check_finite(patient.id, rec.samples, rec.channels)
    root.mkdir(parents=True, exist_ok=True)
    doc = {
        "name": manifest.name,
        "sample_rate_hz": float(manifest.sample_rate_hz),
        "channels": list(manifest.channels),
        "patients": [
            {"id": p.id, "label": str(p.label), "path": p.path} for p in manifest.patients
        ],
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for patient in manifest.patients:
        write_csv(root / patient.path, manifest.channels, by_id[patient.id].samples)


def write_csv(path, channels, values) -> None:
    """Header row of channel names, then one row of ``values`` per sample.

    ``values`` must be 2-D with one column per channel, else ValueError.
    Values are written with repr, so floats round-trip exactly and integer
    levels print as plain integers.  The file is streamed in blocks of
    ``_CSV_BLOCK_ROWS`` rows, each formatted by one ``%`` call, so the
    text in memory at once is one block's.  Parent directories are created.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != len(channels):
        raise ValueError(
            f"values must be (rows, {len(channels)}) for channels {tuple(channels)}, "
            f"got {values.shape}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%r"] * len(channels)) + "\n"
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(channels) + "\n")
        for start in range(0, len(values), _CSV_BLOCK_ROWS):
            block = values[start : start + _CSV_BLOCK_ROWS]
            f.write((row * len(block)) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a two-class sinusoid-plus-noise dataset.

    Class frequencies must stay below the Nyquist rate after the default
    8:1 downsampling, i.e. under sample_rate_hz / 16.  Every value is
    checked when the spec is built: a bad one raises ValueError.
    """

    patients_per_class: int = 10
    samples: int = 7680
    sample_rate_hz: float = 256.0
    channels: tuple = ("F4", "Cz")
    freq_adhd_hz: float = 6.0
    freq_control_hz: float = 12.0
    amplitude_uv: float = 50.0
    noise_std_uv: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.patients_per_class < 1:
            raise ValueError("need at least one patient per class")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError(f"sample rate must be positive and finite, got {self.sample_rate_hz}")
        if not self.channels or len(set(self.channels)) != len(self.channels):
            raise ValueError("channels must be a nonempty unique sequence")
        nyquist = self.sample_rate_hz / 16.0
        for name, freq in (("ADHD", self.freq_adhd_hz), ("control", self.freq_control_hz)):
            if not 0 < freq <= nyquist:
                raise ValueError(
                    f"{name} frequency {freq} Hz outside (0, {nyquist}] Hz "
                    "(post-downsample Nyquist at the default 8:1 factor)"
                )
        if not 0 < self.amplitude_uv < math.inf:
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude_uv}")
        if not 0 <= self.noise_std_uv < math.inf:
            raise ValueError(f"noise std must be nonnegative and finite, got {self.noise_std_uv}")
        check_seed(self.seed)


def generate_synthetic(spec: SyntheticSpec):
    """Deterministic synthetic dataset: class-specific sinusoids plus noise.

    Patient ids are adhd-001.. / control-001..; each patient gets an
    independent noise stream derived from the spec seed and its id, so the
    dataset is a pure function of the spec.  Returns (manifest, recordings).
    """
    t = np.arange(spec.samples, dtype=np.float64) / spec.sample_rate_hz
    # Fixed per-channel phase offsets keep the channels distinct without
    # touching the class-defining frequency.
    phases = np.array([ci * math.pi / 3.0 for ci in range(len(spec.channels))])
    entries = []
    recordings = []
    for label, freq in ((Label.ADHD, spec.freq_adhd_hz), (Label.CONTROL, spec.freq_control_hz)):
        prefix = "adhd" if label is Label.ADHD else "control"
        clean = spec.amplitude_uv * np.sin(
            2.0 * math.pi * freq * t[:, np.newaxis] + phases[np.newaxis, :]
        )
        for i in range(1, spec.patients_per_class + 1):
            pid = f"{prefix}-{i:03d}"
            rng = make_rng(derive_seed(spec.seed, f"synthetic:{pid}"))
            # The noise array becomes the samples; IEEE addition commutes.
            samples = rng.normal(0.0, spec.noise_std_uv, size=clean.shape)
            # Samples near the float64 limit can overflow to +-inf, which every
            # reader rejects: refuse them here, without an overflow warning.
            with np.errstate(over="ignore"):
                samples += clean
            if not np.isfinite(samples).all():
                raise ValueError(f"{pid}: amplitude and noise std overflow float64 samples")
            entries.append(PatientEntry(id=pid, label=label, path=f"patients/{pid}.csv"))
            recordings.append(
                EegRecording(
                    patient_id=pid,
                    label=label,
                    channels=spec.channels,
                    samples=samples,
                    sample_rate_hz=spec.sample_rate_hz,
                )
            )
    manifest = DatasetManifest(
        name="synthetic",
        sample_rate_hz=spec.sample_rate_hz,
        channels=spec.channels,
        patients=tuple(entries),
    )
    return manifest, recordings


def split(manifest: DatasetManifest, train_counts, test_counts, seed: int):
    """Stratified seeded split into disjoint train and test id lists.

    ``train_counts`` and ``test_counts`` map Label to a patient count.
    Fully determined by (manifest, counts, seed); see :func:`draw_split`.
    """
    return draw_split(manifest, train_counts, test_counts, make_rng(seed))


def draw_split(manifest: DatasetManifest, train_counts, test_counts, rng: np.random.Generator):
    """The draws of :func:`split`, taken from ``rng``.

    Per class (ADHD first, then CONTROL) the patient ids are shuffled and
    the first train_counts[label] go to train, the next test_counts[label]
    to test.  Both returned lists are then shuffled once more so training
    order mixes the classes.  An empty list draws nothing from ``rng``, so
    a caller may keep drawing from it after a test-only split.
    """
    for counts in (train_counts, test_counts):
        for label, count in counts.items():
            if count < 0:
                raise ValueError(f"negative count for {Label(label)}")
    train_ids, test_ids = [], []
    for label in (Label.ADHD, Label.CONTROL):
        ids = manifest.ids_for(label)
        n_train = int(train_counts.get(label, 0))
        n_test = int(test_counts.get(label, 0))
        if n_train + n_test > len(ids):
            raise DataValidationError(
                f"class {label}: train set needs {n_train} and test set needs {n_test}, "
                f"dataset has {len(ids)}"
            )
        order = rng.permutation(len(ids))
        picked = [ids[i] for i in order]
        train_ids.extend(picked[:n_train])
        test_ids.extend(picked[n_train : n_train + n_test])
    train_ids = [train_ids[i] for i in rng.permutation(len(train_ids))]
    test_ids = [test_ids[i] for i in rng.permutation(len(test_ids))]
    return train_ids, test_ids
