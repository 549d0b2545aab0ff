"""Per-file cost of the CSV writer and exact reader at several block sizes.

    PYTHONPATH=src python scripts/csv_block_timing.py [--repeats 21] [--seed 540]

Writes one bench-shaped patient file (7,680 samples of ``generate_synthetic``
data) with 2 and with 19 channels, in-process, through ``write_csv``, and
reads it back through ``_read_floats``.  Each is done with blocks of 1,024
rows and with blocks of 4,096, 8,192 and 16,384 values, by setting
``dataio._CSV_BLOCK_VALUES``; the sizes take turns within each repeat.
Every size must give the same bytes and values.  Prints one
JSON object: per channel count and block, the median and quartiles of the
milliseconds per file for each side, and each side's tracemalloc peak;
and under ``machine``, the Python and numpy versions, the platform and the
usable CPU count.
"""

import argparse
import json
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

from hdeeg import dataio
from hdeeg.dataio import SyntheticSpec, generate_synthetic, write_csv
from machine import machine

SAMPLES = 7680
BLOCK_VALUES = (4096, 8192, 16384)
OLD_ROWS = 1024


def exact_file(n_ch, seed, path):
    """(channels, values, bytes) of the first synthetic patient whose file
    the exact reader takes: a value below 1e-4 gets an exponent field."""
    channels = tuple(f"c{j}" for j in range(n_ch))
    _, recordings = generate_synthetic(
        SyntheticSpec(patients_per_class=4, samples=SAMPLES, channels=channels, seed=seed)
    )
    for rec in recordings:
        write_csv(path, channels, rec.samples)
        data = path.read_bytes()
        if dataio._read_floats(data, n_ch) is not None:
            return channels, rec.samples, data
    raise SystemExit(f"no {n_ch}-channel patient of seed {seed} takes the exact reader")


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quartiles(seconds):
    q1, median, q3 = statistics.quantiles([s * 1e3 for s in seconds], n=4)
    return {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3)}


def measure(n_ch, seed, repeats, path):
    channels, values, data = exact_file(n_ch, seed, path)
    expected = dataio._read_floats(data, n_ch).tobytes()
    blocks = {f"{OLD_ROWS} rows": OLD_ROWS * n_ch}
    blocks.update((f"{v} values", v) for v in BLOCK_VALUES)
    times = {name: {"write": [], "read": []} for name in blocks}
    peaks = {}
    names = list(blocks)
    for i in range(repeats):
        for name in names[i % len(names) :] + names[: i % len(names)]:
            dataio._CSV_BLOCK_VALUES = blocks[name]
            seconds, _ = timed(lambda: write_csv(path, channels, values))
            times[name]["write"].append(seconds)
            if path.read_bytes() != data:
                raise SystemExit(f"{n_ch} channels, {name}: the bytes differ")
            seconds, got = timed(lambda: dataio._read_floats(data, n_ch))
            times[name]["read"].append(seconds)
            if got.tobytes() != expected:
                raise SystemExit(f"{n_ch} channels, {name}: the values differ")
    for name, size in blocks.items():
        dataio._CSV_BLOCK_VALUES = size
        peaks[name] = {
            "write_peak_kib": round(peak(lambda: write_csv(path, channels, values)) / 1024, 1),
            "read_peak_kib": round(peak(lambda: dataio._read_floats(data, n_ch)) / 1024, 1),
        }
    return {
        "rows": len(values),
        "file_bytes": len(data),
        "blocks": {
            name: {
                "rows_per_block": size // n_ch,
                "write": quartiles(times[name]["write"]),
                "read": quartiles(times[name]["read"]),
                **peaks[name],
            }
            for name, size in blocks.items()
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--seed", type=int, default=540)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("quartiles need at least 2 repeats")
    default = dataio._CSV_BLOCK_VALUES
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            result = {
                f"{n_ch} channels": measure(n_ch, args.seed, args.repeats, path)
                for n_ch in (2, 19)
            }
    finally:
        dataio._CSV_BLOCK_VALUES = default
    result["default_block_values"] = default
    result["machine"] = machine()
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
