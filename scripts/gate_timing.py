"""Time the gate, AssociativeMemory.offer, over a bench-shaped training set.

    PYTHONPATH=src python scripts/gate_timing.py [--repeats 15] [--seed 1]

Builds the benchmark's dataset in-process: ``SyntheticSpec(patients_per_class=42)``
less the last 5 ADHD patients, so 79 patients of 28 windows each.  It
conditions every patient with the default ``PipelineParams`` and channel
stats pooled over all of them, and encodes each patient's windows once.
Each repeat then offers every patient, in manifest order, to a fresh
``AssociativeMemory`` at gate 0.5 and at gate 2.0, the gates taking turns.
Prints one JSON object: per gate, the median and quartiles of the
milliseconds per pass over all patients, the windows admitted per class,
one pass's tracemalloc peak, and a sha256 of the prototypes and their
norms, so that runs of two versions of the code can be set side by side;
and under ``machine``, the Python and numpy versions, the platform and the
usable CPU count.
"""

import argparse
import hashlib
import json
import statistics
import time
import tracemalloc

import numpy as np

from hdeeg.classifier import PipelineParams, build_memories
from hdeeg.common import Label
from hdeeg.dataio import SyntheticSpec, generate_synthetic
from hdeeg.encoder import encode_windows
from hdeeg.memories import AssociativeMemory
from machine import machine

GATES = (0.5, 2.0)
ADHD_DROPPED = 5


def encoded_patients(seed):
    """(windows, label) per patient of the bench-shaped set, in manifest order."""
    manifest, recordings = generate_synthetic(SyntheticSpec(patients_per_class=42, seed=seed))
    dropped = set(manifest.ids_for(Label.ADHD)[-ADHD_DROPPED:])
    recordings = [rec for rec in recordings if rec.patient_id not in dropped]
    params = PipelineParams()
    stats = params.channel_stats(recordings)
    im, cim = build_memories(params, recordings[0].channels)
    return [
        (encode_windows(params.preprocess(rec, stats), im, cim, params.ngram_size), rec.label)
        for rec in recordings
    ]


def gate_all(patients, gate):
    """(seconds, memory): every patient offered, in order, to a fresh memory."""
    am = AssociativeMemory(patients[0][0].shape[1], gate)
    start = time.perf_counter()
    for windows, label in patients:
        am.offer(windows, label)
    return time.perf_counter() - start, am


def peak(patients, gate):
    tracemalloc.start()
    try:
        gate_all(patients, gate)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def digest(am):
    """sha256 of the int64 prototypes, then of their float64 norms."""
    prototypes = np.array([am.prototype(label) for label in (Label.ADHD, Label.CONTROL)])
    norms = np.sqrt(np.einsum("ij,ij->i", prototypes, prototypes, dtype=np.float64))
    return hashlib.sha256(prototypes.tobytes() + norms.tobytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("quartiles need at least 2 repeats")
    patients = encoded_patients(args.seed)
    seconds = {gate: [] for gate in GATES}
    for i in range(args.repeats):
        for gate in GATES[i % 2 :] + GATES[: i % 2]:
            seconds[gate].append(gate_all(patients, gate)[0])
    result = {
        "patients": len(patients),
        "windows": sum(len(windows) for windows, _ in patients),
        "repeats": args.repeats,
    }
    for gate in GATES:
        am = gate_all(patients, gate)[1]
        q1, median, q3 = statistics.quantiles([s * 1e3 for s in seconds[gate]], n=4)
        result[f"gate {gate}"] = {
            "median_ms": round(median, 3),
            "q1_ms": round(q1, 3),
            "q3_ms": round(q3, 3),
            "admitted": {str(label): am.bundle_count(label) for label in (Label.ADHD, Label.CONTROL)},
            "peak_kib": round(peak(patients, gate) / 1024, 1),
            "sha256": digest(am),
        }
    result["machine"] = machine()
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
