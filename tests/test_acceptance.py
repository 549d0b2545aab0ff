"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``[acceptance] criterion N: PASS`` line per criterion.  Criterion 6 needs
a clinical dataset and is skipped unless HDEEG_CLINICAL_MANIFEST points
at its manifest.
"""

import functools
import hashlib
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import hdeeg.hv as hv
from hdeeg import (
    AssociativeMemory,
    ContinuousItemMemory,
    EegRecording,
    ItemMemory,
    Label,
    PipelineParams,
    QuantizedRecording,
    SyntheticSpec,
    UntrainedMemoryError,
    compute_channel_stats,
    derive_seed,
    drop_initial,
    encode_windows,
    generate_synthetic,
    load_dataset,
    preprocess_recording,
    run_trial,
    incremental_sweep,
)
from hdeeg.classifier import CIM_SEED_PURPOSE, build_memories
from hdeeg.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main

from test_encoder import oracle_window


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"\n[acceptance] criterion {number} ({label}): SKIPPED")
                raise
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({label}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({label}): PASS")
        return wrapper
    return decorate


@criterion(1, "algebraic core, 10000 randomized cases")
def test_criterion_1_algebraic_core():
    start = time.perf_counter()
    dim = 10000
    cases = 0

    # Bind is its own inverse: (a * b) * b recovers a.  2500 pairs,
    # checked as one matrix identity.
    a = hv.random_bipolar(101, 2500, dim)
    b = hv.random_bipolar(102, 2500, dim)
    assert np.array_equal((a * b) * b, a)
    cases += 2500

    # Permutation group laws: composition adds offsets and the full
    # rotation is the identity.
    x = hv.random_bipolar(103, 2500, dim)
    rng = np.random.default_rng(104)
    ks = rng.integers(-dim, dim, size=(2500, 2))
    for row, (k1, k2) in zip(x, ks):
        assert np.array_equal(
            hv.permute(hv.permute(row, int(k1)), int(k2)),
            hv.permute(row, int(k1 + k2)),
        )
        assert np.array_equal(hv.permute(row, dim), row)
    cases += 2500

    # Exact cosine / Hamming identity on bipolar pairs.
    c = hv.random_bipolar(105, 2500, dim)
    d = hv.random_bipolar(106, 2500, dim)
    for u, v in zip(c, d):
        h = hv.hamming_distance(u, v)
        assert abs(hv.cosine_similarity(u, v) - (1.0 - 2.0 * h / dim)) <= 1e-12
    cases += 2500

    # Quasi-orthogonality of independent pairs.
    e = hv.random_bipolar(107, 2500, dim)
    f = hv.random_bipolar(108, 2500, dim)
    big = sum(abs(hv.cosine_similarity(u, v)) >= 0.05 for u, v in zip(e, f))
    assert big / 2500 < 1e-3
    cases += 2500

    assert cases >= 10000
    assert time.perf_counter() - start < 10.0


@criterion(2, "level-memory distance schedule")
def test_criterion_2_level_memory_structure():
    pipeline_seed = derive_seed(PipelineParams().seed, CIM_SEED_PURPOSE)
    for seed in (0, pipeline_seed):
        cim = ContinuousItemMemory.build(250, seed, 10000)
        base = cim.level(0)
        distances = [hv.hamming_distance(base, cim.level(k)) for k in range(250)]
        assert distances[249] == 5000
        assert all(x <= y for x, y in zip(distances, distances[1:]))
        assert distances == [(k * 5000) // 249 for k in range(250)]
        adjacent = {
            hv.hamming_distance(cim.level(k), cim.level(k + 1)) for k in range(249)
        }
        assert adjacent == {20, 21}


@criterion(3, "encoder matches brute-force oracle")
def test_criterion_3_encoder_oracle():
    dim, levels, ngram = 16, 4, 3
    im = ItemMemory.build(["F4", "Cz"], seed=41, dimension=dim)
    cim = ContinuousItemMemory.build(levels, seed=42, dimension=dim)
    cim_rows = cim.vectors.tolist()
    chans = [im.vector(n).tolist() for n in ("F4", "Cz")]
    rng = np.random.default_rng(43)
    for _ in range(1000):
        rows = [rng.integers(0, levels, size=ngram) for _ in range(2)]
        rec = QuantizedRecording(
            patient_id="oracle",
            label=Label.ADHD,
            channels=("F4", "Cz"),
            levels=np.stack(rows, axis=1),
            level_count=levels,
        )
        got = encode_windows(rec, im, cim, ngram)
        assert got.shape == (1, dim)
        assert got[0].tolist() == oracle_window([r.tolist() for r in rows], chans, cim_rows)


@criterion(4, "pipeline shape reproduction")
def test_criterion_4_pipeline_shapes():
    params = PipelineParams()
    rng = np.random.default_rng(7)
    rec = EegRecording(
        patient_id="shape",
        label=Label.ADHD,
        channels=("F4", "Cz"),
        samples=rng.normal(0.0, 40.0, size=(7680, 2)),
        sample_rate_hz=256.0,
    )
    stats = compute_channel_stats(
        [drop_initial(rec, params.drop_samples)], params.clip_low_pct, params.clip_high_pct
    )
    q = preprocess_recording(
        rec,
        stats,
        drop_samples=params.drop_samples,
        downsample_factor=params.downsample_factor,
        level_count=params.level_count,
    )
    assert q.levels.shape == (896, 2)
    assert q.levels.min() >= 0 and q.levels.max() <= 249
    im, cim = build_memories(params, q.channels)
    encoded = encode_windows(q, im, cim, params.ngram_size)
    assert encoded.shape == (28, 10000)
    assert encoded.dtype == np.int8


@criterion(5, "synthetic end-to-end accuracy")
def test_criterion_5_synthetic_end_to_end():
    start = time.perf_counter()
    spec = replace(SyntheticSpec(), patients_per_class=20)
    manifest, recordings = generate_synthetic(spec)
    counts = {Label.ADHD: 10, Label.CONTROL: 10}
    accuracies = []
    for seed in range(10):
        params = PipelineParams(seed=seed)
        _, report = run_trial(manifest, recordings, params, counts, counts)
        accuracies.append(report.accuracy_pct)
    mean = sum(accuracies) / len(accuracies)
    elapsed = time.perf_counter() - start
    assert mean >= 95.0, f"mean accuracy {mean:.1f}% over seeds 0..9"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@criterion(6, "clinical dataset reproduction")
def test_criterion_6_clinical_reproduction():
    location = os.environ.get("HDEEG_CLINICAL_MANIFEST")
    if not location:
        pytest.skip("set HDEEG_CLINICAL_MANIFEST to a clinical dataset manifest to run")
    start = time.perf_counter()
    manifest, recordings = load_dataset(location)
    n_adhd = len(manifest.ids_for(Label.ADHD))
    n_control = len(manifest.ids_for(Label.CONTROL))
    test_counts = {Label.ADHD: 10, Label.CONTROL: 10}
    train_counts = {Label.ADHD: n_adhd - 10, Label.CONTROL: n_control - 10}
    accuracies = []
    for seed in range(10):
        params = PipelineParams(seed=seed)
        _, report = run_trial(manifest, recordings, params, train_counts, test_counts)
        accuracies.append(report.accuracy_pct)
    mean = sum(accuracies) / len(accuracies)
    assert mean >= 80.0, f"mean accuracy {mean:.1f}% over seeds 0..9"

    sweep = incremental_sweep(
        manifest,
        recordings,
        test_size=20,
        max_train=7,
        runs=10,
        params=replace(PipelineParams(), seed=0),
    )
    k7 = sweep.rows[6]
    assert k7.k == 7
    assert k7.mean_acc >= 70.0, f"k=7 mean accuracy {k7.mean_acc:.1f}%"
    assert time.perf_counter() - start < 300.0


@criterion(7, "byte-identical reruns through the CLI")
def test_criterion_7_cli_determinism(tmp_path):
    outputs = []
    trees = []
    for attempt in ("one", "two"):
        base = tmp_path / attempt
        data = base / "dataset"
        model = base / "model.bin"
        report = base / "report.json"
        sweep_csv = base / "sweep.csv"
        preprocessed = base / "preprocessed"
        small = ["--dimension", "2000", "--levels", "50", "--drop", "256", "--seed", "9"]
        assert main(
            ["gen-synth", "--out", str(data), "--patients", "4", "--samples", "1792",
             "--seed", "21"]
        ) == EXIT_OK
        assert main(
            ["preprocess", "--manifest", str(data), "--out", str(preprocessed), *small]
        ) == EXIT_OK
        assert main(
            ["train", "--manifest", str(data), "--out", str(model),
             "--train-adhd", "2", "--train-control", "2",
             "--test-adhd", "2", "--test-control", "2", *small]
        ) == EXIT_OK
        assert main(
            ["eval", "--manifest", str(data), "--model", str(model),
             "--report", str(report)]
        ) == EXIT_OK
        assert main(
            ["sweep", "--manifest", str(data), "--out", str(sweep_csv),
             "--test-size", "2", "--max-train", "3", "--runs", "2", *small]
        ) == EXIT_OK
        outputs.append(
            (
                (data / "manifest.json").read_bytes(),
                model.read_bytes(),
                report.read_bytes(),
                sweep_csv.read_bytes(),
            )
        )
        trees.append((_tree_digest(data / "patients"), _tree_digest(preprocessed)))
    assert outputs[0] == outputs[1]
    # Fixed digests, so a byte drift in the model, the eval report or the
    # sweep table between versions fails here, not only one between reruns.
    digests = [hashlib.sha256(blob).hexdigest() for blob in outputs[0][1:]]
    assert digests == [
        "2312f35d010c440f595216ad2e49c5e41781fb0ce1e6b0637e70f937afeda659",
        "81a590608dc6b3f7af9bfdc33ce3db6e7f601b919c2729c1d34f0f0b398f32bc",
        "3a78b1fb30fa68a0d39c50c2e873fb733b7898218715fa331bea0ca4d8a4007f",
    ]
    # The patient CSVs of gen-synth and the preprocess output tree.
    assert trees[0] == trees[1] == (
        "55f34e0c3b0df82779cd705ea608bba2239cf10f97cde2b04ba7352e1a325603",
        "6c36c1d27225aa5ddaf206d9aa31896ac71bddef68ec6c76e5a83cd6f3b49c16",
    )


def _tree_digest(root):
    """sha256 over every file under ``root``: relative path, then content digest."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


@criterion(8, "degenerate inputs and exit codes")
def test_criterion_8_error_handling(tmp_path):
    # Single-class training is rejected at the library level.
    from hdeeg import train

    spec = SyntheticSpec(patients_per_class=2, samples=1792, seed=3)
    manifest, recordings = generate_synthetic(spec)
    params = PipelineParams(dimension=2000, level_count=50, drop_samples=256)
    dropped = [drop_initial(r, params.drop_samples) for r in recordings]
    stats = compute_channel_stats(dropped, params.clip_low_pct, params.clip_high_pct)
    quantized = [
        preprocess_recording(
            r, stats,
            drop_samples=params.drop_samples,
            downsample_factor=params.downsample_factor,
            level_count=params.level_count,
        )
        for r in recordings
    ]
    adhd_only = [q for q in quantized if q.label is Label.ADHD]
    with pytest.raises(ValueError, match="both classes"):
        train(adhd_only, params, stats)

    # Scoring against an associative memory with an empty prototype is rejected.
    am = AssociativeMemory(dimension=100)
    probe = hv.random_bipolar(1, 1, 100)[0]
    am.offer(probe[np.newaxis], Label.ADHD)
    with pytest.raises(UntrainedMemoryError):
        am.similarities(probe[np.newaxis, :])

    # CLI exit codes: usage, data validation, and I/O failures.
    data = tmp_path / "ds"
    assert main(
        ["gen-synth", "--out", str(data), "--patients", "2", "--samples", "1792",
         "--seed", "3"]
    ) == EXIT_OK
    small = ["--dimension", "2000", "--levels", "50", "--drop", "256"]
    common = ["train", "--manifest", str(data), "--out", str(tmp_path / "m.bin")]

    assert main([*common, "--train-adhd", "0", "--train-control", "1", *small]) == EXIT_USAGE
    assert main([*common, "--gate", "not-a-float", *small]) == EXIT_USAGE
    assert main(
        [*common, "--train-adhd", "5", "--train-control", "5", *small]
    ) == EXIT_DATA
    assert main(
        ["train", "--manifest", str(tmp_path / "absent"),
         "--out", str(tmp_path / "m.bin"), "--train-adhd", "1", "--train-control", "1",
         *small]
    ) == EXIT_IO

    bad_model = tmp_path / "bad.bin"
    bad_model.write_bytes(b"garbage")
    assert main(
        ["eval", "--manifest", str(data), "--model", str(bad_model),
         "--report", str(tmp_path / "r.json")]
    ) == EXIT_DATA
