"""Dataset layout, CSV reading and writing, synthetic fixtures, stratified splits.

A dataset is a directory with a ``manifest.json`` naming the channels and
patients, plus one CSV per patient::

    <root>/manifest.json
    <root>/patients/<id>.csv

The manifest holds ``name``, ``sample_rate_hz``, ``channels`` (ordered)
and ``patients`` (objects with ``id``, ``label``, ``path`` relative to the
root; a path that is empty, absolute or has a ``..`` part is rejected, so
reads and writes stay inside the root, and so is one naming another
patient's file).  Patient CSVs start with a header
row of the channel names in manifest order followed by one row of decimal
microvolt values per sample; a channel name must be nonempty, hold no ','
or line break and have no surrounding whitespace.  Every file is UTF-8.
A value is any text Python's float() accepts; blank lines are rejected.
Written files hold the bytes of one repr per value, row by row, so
write-then-load round-trips exactly.  Float64 blocks get those bytes from
a numpy formatter that computes repr's shortest digits exactly for most
values and calls repr for the rest (see _format_floats), and files of that
shape are read back exactly in numpy (see _read_floats).  Each file is
read from disk once.
"""

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path, PureWindowsPath

import numpy as np

from .common import DataValidationError, Label, check_seed, derive_seed, make_rng, map_forked
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
# Values formatted per write or read, whatever the channel count: enough
# to keep each numpy call's fixed cost small, few enough that a block's
# temporaries stay near 1 MiB.
_CSV_BLOCK_VALUES = 8192
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
        paths = {}
        for p in self.patients:
            # Reading and writing join the path to the dataset root.  Windows
            # rules split on both '/' and '\\', see roots and drives, drop '.'
            # parts and repeated separators, and compare without case.
            path = PureWindowsPath(p.path) if isinstance(p.path, str) else None
            if path is None or not path.parts or path.anchor or ".." in path.parts:
                raise DataValidationError(
                    f"patient {p.id} path {p.path!r} leaves the dataset root: it must be "
                    "nonempty, relative, and hold no '..' part"
                )
            if "\0" in p.path:  # no file system takes it
                raise DataValidationError(f"patient {p.id} path {p.path!r} holds a NUL byte")
            other = paths.setdefault(path, p)
            if other is not p:
                raise DataValidationError(
                    f"patients {other.id} and {p.id} name one file: {other.path!r} and {p.path!r}"
                )
        # Compared as given, so an integer too large for a float is refused too.
        if not 0 < self.sample_rate_hz <= sys.float_info.max:
            raise DataValidationError(
                f"sample rate must be positive and finite, got {self.sample_rate_hz}"
            )
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

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
    except ValueError as exc:  # also an integer of more digits than int() reads
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
            sample_rate_hz=rate,
            channels=tuple(_json_field(c, str, "channel") for c in channels),
            patients=patients,
        )
    except (KeyError, TypeError) as exc:
        raise DataValidationError(f"{path}: missing or malformed field ({exc})") from exc
    except ValueError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc


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
    validated for shape, finite values, and header consistency.  Each
    value is float()'s, bit for bit, and each file is read from disk once
    (see :func:`_read_patient`); the files are spread over the usable
    CPUs (see :func:`~hdeeg.common.map_forked`).

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

    def read(patient):
        parse = wanted is None or patient.id in wanted
        return _read_patient(root / patient.path, patient, manifest.channels, parse)

    reads = map_forked(read, manifest.patients)
    recordings = [
        EegRecording(
            patient_id=patient.id,
            label=patient.label,
            channels=manifest.channels,
            samples=samples,
            sample_rate_hz=manifest.sample_rate_hz,
        )
        for patient, (_, samples) in zip(manifest.patients, reads)
        if samples is not None
    ]
    lengths = {rows for rows, _ in reads}
    if len(lengths) > 1:
        raise DataValidationError(f"recordings disagree on sample count: {sorted(lengths)}")
    return manifest, recordings


_BODY_BYTES = b"0123456789.-,\n"
_TO_DIGITS = bytes.maketrans(b"\n", b",")


def _read_patient(path: Path, patient: PatientEntry, channels, parse: bool):
    """(data rows, samples or None unless ``parse``) of a patient CSV, from one read.

    The exact header, then _BODY_BYTES ending in a newline: one row per
    newline, read by _read_floats.  Else, or if it declines, the text's
    lines after the header are the rows.
    """
    data, head = path.read_bytes(), (",".join(channels) + "\n").encode("utf-8")
    plain = data.translate(None, _BODY_BYTES) == head.translate(None, _BODY_BYTES)
    samples = None
    if plain and data.startswith(head) and data.endswith(b"\n") and len(data) > len(head):
        if not parse:
            return data.count(b"\n") - 1, None
        samples = _read_floats(data, len(channels))
    if samples is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataValidationError(f"{patient.id}: {path} is not UTF-8 text ({exc})") from exc
        del data  # so the peak is one text copy and its rows
        rows = text.splitlines()
        del text
        if not rows:
            raise DataValidationError(f"{patient.id}: {path} is empty")
        header = tuple(h.strip() for h in rows[0].split(","))
        if header != tuple(channels):
            raise DataValidationError(
                f"{patient.id}: header {header} does not match manifest channels {tuple(channels)}"
            )
        if len(rows) == 1:
            raise DataValidationError(f"{patient.id}: no samples in {path}")
        del rows[0]
        if not parse:
            return len(rows), None
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
    return len(samples), samples


def _block_rows(n_ch: int) -> int:
    """Rows per CSV block of n_ch columns: about _CSV_BLOCK_VALUES values,
    and at least one row (zero columns count as one)."""
    return max(1, _CSV_BLOCK_VALUES // max(n_ch, 1))


def _read_floats(data: bytes, n_ch: int):
    """The (rows, n_ch) values after a header line, as float() reads them.

    None unless each row holds n_ch fields of [-]digits.digits.  Reads
    blocks of about _CSV_BLOCK_VALUES values (see _block_rows); a field of
    digits m, k after the point, is m / 10**k, and float() reads the few it
    cannot decide exactly.
    """
    text = np.frombuffer(data, np.uint8)
    lines = np.flatnonzero(text == 10)  # the header's newline, then each row's
    out = np.empty((len(lines) - 1, n_ch))
    rows = _block_rows(n_ch)
    for r0 in range(0, len(out), rows):
        r1 = min(r0 + rows, len(out))
        lo = lines[r0] + 1
        block = text[lo : lines[r1] + 1]
        marks = np.flatnonzero(block < 48)  # every byte but the digits
        kind = block[marks]
        ends = marks[kind <= 44]  # ',' or '\n'
        dots = marks[kind == 46]
        n = (r1 - r0) * n_ch
        if len(ends) != n or len(dots) != n or (block[ends[n_ch - 1 :: n_ch]] != 10).any():
            return None
        starts = np.concatenate(([0], ends[:-1] + 1))
        neg = block[starts] == 45
        k = ends - dots - 1
        digits = dots - starts - neg
        if np.count_nonzero(neg) != len(marks) - 2 * n or min(digits.min(), k.min()) < 1:
            return None
        m = np.fromstring(data[lo : lines[r1]].translate(_TO_DIGITS, b".-"), np.int64, sep=",")
        slow = digits + k > 18
        m[slow] = k[slow] = 0
        p = _POW10[k]
        fm = m.astype(np.float64)
        q = fm / p
        qp, err = _times_pow10(q, k)
        # r = m - q * 10**k exactly, as (m - fl(m)) + (fl(m) - qp) - err,
        # with fl(m) - qp exact by Sterbenz.
        r = (m - fm.astype(np.int64)) + ((fm - qp) - err)
        # q lies within 1.5 gaps of m / 10**k.  In gaps times 10**k, q is
        # nearest while |r| < 1/2 and the next double toward the value while
        # |r| < 5/4, short of the midpoint beyond it.  float() reads fields of
        # over 18 digits and those with |r| within _BAND of either bound.
        # q >= 0, so that next double is one bit pattern on.
        step = (q.view(np.int64) + np.where(r < 0, -1, 1)).view(np.float64)
        r = np.abs(r) / np.abs((step - q) * p)
        slow |= (np.abs(r - 0.5) <= _BAND) | (r >= 1.25 - _BAND)
        np.copyto(q, step, where=r > 0.5)
        np.negative(q, out=q, where=neg)
        flat = out.reshape(-1)[r0 * n_ch :]
        flat[:n] = q
        for i in np.flatnonzero(slow).tolist():
            flat[i] = float(data[lo + starts[i] : lo + ends[i]])
    return out


def write_dataset(root, manifest: DatasetManifest, recordings) -> None:
    """Write a dataset directory in the load_dataset format (repr floats).

    Every recording is checked before anything is written: each manifest
    patient needs one, with the manifest's channels in its order and only
    finite samples, so whatever is written loads back as it was given.
    The patient files are spread over the usable CPUs (see
    :func:`~hdeeg.common.map_forked`).
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
    map_forked(
        lambda p: write_csv(root / p.path, manifest.channels, by_id[p.id].samples),
        manifest.patients,
    )


def write_csv(path, channels, values) -> None:
    """Header row of channel names, then one row of ``values`` per sample.

    ``values`` must be 2-D with one column per channel, else ValueError.
    The bytes equal one repr per value, row by row, so floats round-trip
    exactly and integer levels print as plain integers.  The file is
    streamed in blocks of whole rows holding about ``_CSV_BLOCK_VALUES``
    values (see :func:`_block_rows`), so the text in memory at once is one
    block's.  A float64 block is formatted by :func:`_format_floats`: it
    computes repr's shortest round-trip digits in numpy for values in
    [1e-4, 1e16), and calls repr for zeros, subnormals, values from 1e16,
    inf and nan and the few values whose digits it cannot decide exactly.
    Any other block is formatted by one ``%r`` format call.  Parent
    directories are created.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != len(channels):
        raise ValueError(
            f"values must be (rows, {len(channels)}) for channels {tuple(channels)}, "
            f"got {values.shape}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fmt = _format_floats if values.dtype == np.float64 and len(channels) else _format_repr
    with path.open("wb") as f:
        f.write((",".join(channels) + "\n").encode("utf-8"))
        rows = _block_rows(len(channels))
        for start in range(0, len(values), rows):
            f.write(fmt(values[start : start + rows]))


def _format_repr(block) -> bytes:
    """One ``%r`` per value, rows ended by newlines, encoded as UTF-8."""
    row = ",".join(["%r"] * block.shape[1]) + "\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode("utf-8")


# _format_floats writes what repr writes.  repr gives the shortest digits
# that read back to the value (the nearest such when there are two), in
# fixed notation for |x| in [1e-4, 1e16).  There the digits are computed
# exactly in float64 and int64: y = |x| * 10**s as an exact sum hi + lo by
# _times_pow10, then trailing digits dropped while a multiple of 10**m
# stays within h of y, h being half the gap to the neighbouring doubles at
# the same scale.  10**s for s <= 20 is an exact double.
_POW10 = np.array([float(10**k) for k in range(21)])


def _split(x):
    """Veltkamp's halves of float64 x: hi + lo == x exactly, each with at
    most 26 significant bits, so a product of two halves is exact."""
    hi = x * 134217729.0  # 2**27 + 1
    hi -= hi - x
    return hi, x - hi


def _times_pow10(x, k):
    """(hi, lo) with hi = fl(x * 10**k) and hi + lo == x * 10**k exactly,
    for x of 0 or magnitude in [1e-200, 1e200] and integers k in [0, 20]:
    Dekker's TwoProduct (T. J. Dekker, Numer. Math. 18, 1971).  Both the
    exact reader and the float formatter decide their digits from it."""
    p = _POW10[k]
    hi = x * p
    xh, xl = _split(x)
    ph, pl = _split(p)
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


# A gap this close to h, or to a tie between two candidates, is left to
# repr: the float sums behind it round by less than 1e-14.
_BAND = 1e-9
# Values still shortening after a step taken by fewer than this many are
# left to repr, which costs less than more steps.
_MIN_STEP = 64
# The text layout, _FIELD bytes per value: "-0.000" in columns 0-5 (sign,
# then "0." and up to three zeros for a value below 1), digit j of 17 at
# column 6 + 2j with a '.' after it, and the separator last.  Its two
# tables are built on first use, so commands that write no floats do not
# hold them.
_FIELD = 40


@functools.cache
def _group_table() -> np.ndarray:
    """8-byte layout words: k < 10**4 gives k's four digits, each followed
    by '.'; 10**4 + d gives "-0.000", digit d and '.'."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    table = np.full((10010, 8), ord("."), np.uint8)
    for j in range(4):
        table[:10000, 2 * j] = np.tile(np.repeat(digits, 10 ** (3 - j)), 10**j)
    table[10000:, :6] = np.frombuffer(b"-0.000", np.uint8)
    table[10000:, 6] = digits
    table.flags.writeable = False
    return table.view(np.uint64).ravel()


@functools.cache
def _keep_table() -> np.ndarray:
    """Row 36 s + 2 n + sign is 0xFF at the layout columns of the text of
    a value with scale s (its point after 17 - s digits), n significant
    digits and that sign, and 0 elsewhere."""
    keep = np.zeros((21, 18, 2, _FIELD), np.uint8)
    keep[..., -1] = 0xFF
    keep[:, :, 1, 0] = 0xFF
    for s in range(21):
        point = 17 - s
        for n in range(1, 18):
            row = keep[s, n]
            if point <= 0:  # "0.", -point zeros, the digits
                row[:, 1:3] = 0xFF
                row[:, 6 + point : 6] = 0xFF
                row[:, 6 : 6 + 2 * n : 2] = 0xFF
            elif point <= 16:  # the digits, at least one after the point
                row[:, 6 : 6 + 2 * max(n, point + 1) : 2] = 0xFF
                row[:, 5 + 2 * point] = 0xFF
    keep.flags.writeable = False
    return keep.reshape(-1, _FIELD)


def _shortest_digits(v: np.ndarray):
    """repr's digits of each value of a flat float64 array, where exact.

    Returns (c, n, s, ok).  Where ok, repr(v) shows the first n digits
    of the 17-digit integer c, and c * 10**-s is the number it shows
    (less its sign), so its point sits after 17 - s digits.  ok is False
    for the values left to repr: outside [1e-4, 1e16) or not finite; an
    exponent estimate that is off at a power of ten; a gap within _BAND
    of h or of a tie; a rounding up to 10**17; and the values still
    shortening after a step taken by fewer than _MIN_STEP values.  A
    power of two, whose gap to the double below is half the gap above,
    needs no case of its own: each one in [1e-4, 1e16) is exact in at
    most 16 digits, and no shorter decimal lies within h of it.
    """
    a = np.abs(v)
    ok = a >= 1e-4
    ok &= a < 1e16
    np.copyto(a, 1.0, where=~ok)  # a stand-in that every step below takes
    # With the decimal exponent right, y = a * 10**s lies in [1e16, 1e17);
    # the range check on c below finds where log10 rounded it off, which
    # can also put s at 21 or c at 10**17.
    s = np.minimum((16.0 - np.floor(np.log10(a))).astype(np.intp), 20)
    h = np.ldexp(_POW10[s], np.frexp(a)[1] - 54)
    hi, lo = _times_pow10(a, s)
    # y == c + lo with c the nearest integer (even at a tie, as repr) and
    # |lo| <= 1/2; hi >= 2**53 is an even integer.
    c = hi.astype(np.int64)
    frac = np.rint(lo, out=hi)
    lo -= frac
    c += frac.astype(np.int64)
    del hi, frac
    # c == 10**16 is also where y is just below 10**16, a digit short.
    ok &= c > 10**16
    ok &= c < 10**17
    # Step m keeps, of the values still shortening, those with a multiple
    # of 10**m within h of y; both neighbours can fit only at m = 1, and
    # the nearer is taken.  Each step works on the last step's keepers.
    n = np.full(len(v), 17, np.int8)
    cm, fm, hm, at = c, lo, h, None
    for m in range(1, 17):
        d = 10**m
        cand = cm // d
        cand *= d
        gap = cm - cand
        above = np.subtract(d, gap) - fm
        gap = gap + fm
        up = above < gap
        tie = np.abs(above - gap) < _BAND if m == 1 else None
        np.minimum(gap, above, out=gap)
        del above
        gap -= hm
        fits = gap <= 0
        np.abs(gap, out=gap)
        unsure = gap < _BAND
        del gap
        if tie is not None:
            unsure |= tie & fits
        if unsure.any():
            fits &= ~unsure
            ok[np.flatnonzero(unsure) if at is None else at[unsure]] = False
        cand += up * d
        kept = np.flatnonzero(fits)
        del up, fits, unsure, tie
        at = kept if at is None else at[kept]
        last = len(cm) < _MIN_STEP
        if not last:
            cm, fm, hm = cm[kept], fm[kept], hm[kept]
        c[at] = cand[kept]
        n[at] = 17 - m
        del cand, kept
        if last:
            ok[at] = False
            break
    ok &= c < 10**17
    return c, n, s, ok


def _repr_fields(values) -> np.ndarray:
    """repr of each value, NUL-padded to a layout row less its separator."""
    text = np.array([repr(x) for x in values.tolist()], dtype=f"S{_FIELD - 1}")
    return text.view(np.uint8).reshape(len(values), _FIELD - 1)


def _format_floats(block) -> bytes:
    """The CSV rows of a float64 (rows, channels) block: one repr per value.

    Each value's _keep_table row, ANDed with its 17 digits from
    _group_table, is its text with zero bytes in the unused layout
    columns.  A value that _shortest_digits leaves to repr gets repr's
    text in its row instead.  Deleting the zero bytes leaves the rows.
    """
    v = block.ravel()
    c, n, s, ok = _shortest_digits(v)
    row = np.multiply(s, 36, out=s)
    row += n * 2
    row += np.signbit(v)
    text = np.take(_keep_table(), row, axis=0)
    del n, s, row
    # One 8-byte word of every row at a time: the first digit, then four
    # groups of four.  A value left to repr may have c up to 10**18.
    words = text.view(np.uint64)
    groups = _group_table()
    high = c // 10**8
    c -= high * 10**8
    group = high // 10**8
    high -= group * 10**8
    group += 10**4
    words[:, 0] &= np.take(groups, group, mode="clip")
    np.floor_divide(high, 10**4, out=group)
    high -= group * 10**4
    words[:, 1] &= np.take(groups, group)
    words[:, 2] &= np.take(groups, high)
    np.floor_divide(c, 10**4, out=group)
    c -= group * 10**4
    words[:, 3] &= np.take(groups, group)
    words[:, 4] &= np.take(groups, c)
    del words, high, group, c
    text[:, -1] = ord(",")
    text[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    slow = np.flatnonzero(~ok)
    if len(slow):
        text[slow, :-1] = _repr_fields(v[slow])
    out = text.tobytes()
    del text
    return out.translate(None, b"\0")


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


def draw_split(manifest: DatasetManifest, train_counts, test_counts, rng: "np.random.Generator"):
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
