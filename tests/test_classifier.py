"""Training, voting, metrics, trials, and the training-size sweep."""

import json
import statistics
from dataclasses import fields, replace

import numpy as np
import pytest

from hdeeg import (
    DatasetManifest,
    DataValidationError,
    EegRecording,
    Label,
    PatientPrediction,
    PipelineParams,
    SyntheticSpec,
    clip,
    compute_channel_stats,
    downsample_mean,
    drop_initial,
    evaluate,
    classify_patient,
    generate_synthetic,
    derive_seed,
    encode_windows,
    hv,
    incremental_sweep,
    load_model,
    preprocess_recording,
    quantize,
    run_trial,
    save_model,
    split,
    summarize,
    train,
)
from hdeeg import classifier, memories
from hdeeg.classifier import _prediction
from hdeeg.memories import _SCORE_ROWS


def quantize_all(recordings, params, stats_pool=None):
    pool = recordings if stats_pool is None else stats_pool
    dropped = [drop_initial(r, params.drop_samples) for r in pool]
    stats = compute_channel_stats(dropped, params.clip_low_pct, params.clip_high_pct)
    quantized = [
        preprocess_recording(
            r,
            stats,
            drop_samples=params.drop_samples,
            downsample_factor=params.downsample_factor,
            level_count=params.level_count,
        )
        for r in recordings
    ]
    return stats, quantized


@pytest.fixture(scope="module")
def prepared(small_dataset, small_params):
    manifest, recordings = small_dataset
    stats, quantized = quantize_all(recordings, small_params)
    raw = {r.patient_id: r for r in recordings}
    return manifest, raw, stats, {q.patient_id: q for q in quantized}


def pick(by_id, *ids):
    return [by_id[i] for i in ids]


# ------------------------------------------------------------------ params


def test_params_validate_rejects_bad_values():
    bad = [
        {"dimension": 3},
        {"dimension": 0},
        {"level_count": 1},
        {"ngram_size": 0},
        {"drop_samples": -1},
        {"downsample_factor": 0},
        {"clip_low_pct": 60.0, "clip_high_pct": 40.0},
        {"clip_high_pct": 101.0},
        {"seed": -1},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            PipelineParams(**kwargs)
    PipelineParams()


def test_params_dict_round_trip():
    p = PipelineParams(
        dimension=4000, level_count=64, ngram_size=16, drop_samples=128, downsample_factor=4,
        gate_threshold=0.25, clip_low_pct=1.0, clip_high_pct=98.0, seed=17,
    )
    default = PipelineParams()
    assert all(getattr(p, f.name) != getattr(default, f.name) for f in fields(PipelineParams))
    assert PipelineParams.from_dict(p.to_dict()) == p


def test_params_to_dict_gives_plain_numbers_for_numpy_scalars():
    p = PipelineParams(
        dimension=np.int64(4000), level_count=np.int32(64), ngram_size=np.int16(16),
        drop_samples=np.uint32(128), downsample_factor=np.int8(4),
        gate_threshold=np.float32(0.25), clip_low_pct=np.float64(1.0),
        clip_high_pct=np.float16(98.0), seed=np.uint64(17),
    )
    doc = p.to_dict()
    assert [type(v) for v in doc.values()] == [int] * 5 + [float] * 3 + [int]
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        PipelineParams(4000, 64, 16, 128, 4, 0.25, 1.0, 98.0, 17).to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("gate", [float("nan"), float("inf"), float("-inf")])
def test_params_validate_rejects_non_finite_gate(gate):
    with pytest.raises(ValueError, match="gate threshold must be finite"):
        PipelineParams(gate_threshold=gate)


@pytest.mark.parametrize(
    "samples, whole_windows, fit",
    [
        (1792, True, None),  # 192 quantized samples: 6 windows of 32
        (256 + 256, True, None),
        (1300, True, 1280),
        (256, True, 512),  # nothing left after the drop
        (200, True, 512),
        (1800, True, 1792),  # whole 8-blocks, not whole windows
        (1800, False, None),
        (1300, False, 1296),
    ],
)
def test_check_length_policy(small_params, samples, whole_windows, fit):
    rec = EegRecording("p", Label.ADHD, ("F4",), np.zeros((samples, 1)), 256.0)
    if fit is None:
        small_params.check_length(rec, whole_windows=whole_windows)
        return
    with pytest.raises(DataValidationError, match=f"p: {samples} samples") as info:
        small_params.check_length(rec, whole_windows=whole_windows)
    block = 256 if whole_windows else 8
    assert f"256 + k * {block} samples" in str(info.value)
    assert str(info.value).endswith(f"; {fit} samples would fit")


def test_params_preprocess_matches_preprocess_recording(small_dataset):
    params = PipelineParams(drop_samples=256, downsample_factor=4, level_count=64)
    default = PipelineParams()
    assert all(
        getattr(params, name) != getattr(default, name)
        for name in ("drop_samples", "downsample_factor", "level_count")
    )
    _, recordings = small_dataset
    stats = compute_channel_stats([drop_initial(r, 256) for r in recordings], 0.5, 99.5)
    for rec in recordings:
        expected = preprocess_recording(
            rec, stats, drop_samples=256, downsample_factor=4, level_count=64
        )
        np.testing.assert_array_equal(params.preprocess(rec, stats).levels, expected.levels)


def test_params_channel_stats_pool_after_the_drop(small_dataset):
    params = PipelineParams(drop_samples=256, clip_low_pct=2.0, clip_high_pct=97.0)
    _, recordings = small_dataset
    expected = compute_channel_stats([drop_initial(r, 256) for r in recordings], 2.0, 97.0)
    assert params.channel_stats(iter(recordings)) == expected
    # A spike in the dropped samples would move the upper percentile if it were pooled.
    spiked = [replace(r, samples=np.r_[np.full((256, 2), 1e6), r.samples[256:]]) for r in recordings]
    assert compute_channel_stats(spiked, 2.0, 97.0) != expected
    assert params.channel_stats(spiked) == expected


def test_run_trial_rejects_partial_windows(small_params, small_counts):
    manifest, recordings = generate_synthetic(
        SyntheticSpec(patients_per_class=4, samples=1800, seed=21)
    )
    with pytest.raises(DataValidationError, match="adhd-001: 1800 samples"):
        run_trial(manifest, recordings, small_params, *small_counts)


# ------------------------------------------------------------------- train


def test_train_requires_both_classes(prepared, small_params):
    _, _, stats, q = prepared
    with pytest.raises(ValueError, match="both classes"):
        train(pick(q, "adhd-001", "adhd-002"), small_params, stats)
    with pytest.raises(ValueError, match="empty"):
        train([], small_params, stats)


def test_train_rejects_level_count_mismatch(prepared, small_params):
    _, _, stats, q = prepared
    recs = pick(q, "adhd-001", "control-001")
    bad = replace(small_params, level_count=10)
    with pytest.raises(ValueError, match="levels"):
        train(recs, bad, stats)


def test_train_rejects_channel_mismatch(prepared, small_params):
    _, _, stats, q = prepared
    a = q["adhd-001"]
    b = replace(q["control-001"], channels=("F4", "Pz"))
    with pytest.raises(ValueError, match="channels"):
        train([a, b], small_params, stats)


def test_train_is_deterministic(prepared, small_params):
    _, _, stats, q = prepared
    recs = pick(q, "adhd-001", "control-001", "adhd-002", "control-002")
    m1 = train(recs, small_params, stats)
    m2 = train(recs, small_params, stats)
    for label in Label:
        assert np.array_equal(m1.memory.prototype(label), m2.memory.prototype(label))
        assert m1.memory.bundle_count(label) == m2.memory.bundle_count(label)
    assert np.array_equal(m1.item_memory.vectors, m2.item_memory.vectors)
    assert np.array_equal(m1.level_memory.vectors, m2.level_memory.vectors)


def test_train_admitting_every_window_keeps_exact_sums(prepared, small_params, tmp_path):
    # A gate above 1 admits every window, so each prototype is the plain sum
    # of its class's encoded windows and every admission moves a norm; a
    # norm taken before the add, or not at all, breaks the cosines.
    _, _, stats, q = prepared
    params = replace(small_params, gate_threshold=2.0)
    recs = pick(q, "adhd-001", "control-001", "adhd-002", "control-002")
    model = train(recs, params, stats)
    encoded = [encode_windows(r, model.item_memory, model.level_memory, params.ngram_size) for r in recs]
    for label in Label:
        rows = np.concatenate([w for r, w in zip(recs, encoded) if r.label is label])
        assert model.memory.bundle_count(label) == len(rows)
        assert np.array_equal(model.memory.prototype(label), rows.sum(axis=0, dtype=np.int64))
    protos = [model.memory.prototype(label) for label in (Label.ADHD, Label.CONTROL)]
    for windows in encoded:
        expected = [[hv.cosine_similarity(w, p) for p in protos] for w in windows]
        assert model.memory.similarities(windows).tolist() == expected
    first, again = tmp_path / "first.bin", tmp_path / "again.bin"
    save_model(model, first)
    save_model(load_model(first), again)
    assert again.read_bytes() == first.read_bytes()


def test_train_keeps_bookkeeping(prepared, small_params):
    _, _, stats, q = prepared
    recs = pick(q, "adhd-001", "control-001")
    model = train(recs, small_params, stats, train_ids=("adhd-001", "control-001"))
    assert model.train_ids == ("adhd-001", "control-001")
    assert model.channels == ("F4", "Cz")
    assert model.channel_stats == tuple(stats)
    # Six 32-sample windows per training patient were offered per class;
    # the gate may reject some, but at least the first is always kept.
    for label in Label:
        assert 1 <= model.memory.bundle_count(label) <= 6


@pytest.mark.parametrize(
    "train_ids, test_ids, match",
    [
        (("adhd-001", "control-001", "adhd-001"), (), r"train_ids name .*\['adhd-001'\]"),
        (("adhd-001", "control-001"), ("adhd-002",) * 3, r"test_ids name .*\['adhd-002'\]"),
        (("adhd-001", "control-001"), ("control-001",), r"\['control-001'\] are in both"),
    ],
)
def test_train_rejects_repeated_or_overlapping_ids(
    prepared, small_params, train_ids, test_ids, match
):
    _, _, stats, q = prepared
    recs = pick(q, "adhd-001", "control-001")
    with pytest.raises(ValueError, match=match):
        train(recs, small_params, stats, train_ids=train_ids, test_ids=test_ids)


@pytest.mark.parametrize(
    "edit",
    [
        lambda stats: stats[::-1],
        lambda stats: (stats[0], replace(stats[1], channel="Pz")),
        lambda stats: stats[:1],
    ],
    ids=["reordered", "renamed", "missing"],
)
def test_channel_stats_must_name_the_model_channels(prepared, small_params, edit):
    # A snapshot of such a model would not load.
    _, _, stats, q = prepared
    recs = pick(q, "adhd-001", "control-001")
    bad = tuple(edit(tuple(stats)))
    with pytest.raises(ValueError, match=r"channel stats do not match channels \('F4', 'Cz'\)"):
        train(recs, small_params, bad)
    model = train(recs, small_params, stats)
    with pytest.raises(ValueError, match="channel stats do not match channels"):
        replace(model, channel_stats=bad)


# -------------------------------------------------------------- prediction


def test_patient_correct_needs_strict_majority():
    base = dict(patient_id="p", true_label=Label.ADHD, predicted_label=Label.ADHD)
    assert PatientPrediction(**base, correct_windows=15, total_windows=28).correct
    assert not PatientPrediction(**base, correct_windows=14, total_windows=28).correct
    assert not PatientPrediction(**base, correct_windows=0, total_windows=28).correct


# One window's (ADHD, CONTROL) similarities, voting for the named class.
VOTE = {Label.ADHD: [0.5, 0.25], Label.CONTROL: [0.25, 0.5], "tie": [0.5, 0.5]}


def sims(*votes):
    return np.array([VOTE[v] for v in votes], dtype=np.float64)


def test_majority_vote_and_tie_rule():
    adhd2 = sims(Label.ADHD, Label.ADHD, Label.CONTROL)
    p = _prediction("x", Label.ADHD, adhd2)
    assert p.predicted_label is Label.ADHD
    assert p.correct_windows == 2 and p.total_windows == 3 and p.correct

    even = sims(Label.ADHD, Label.CONTROL)
    p = _prediction("x", Label.ADHD, even)
    assert p.predicted_label is Label.CONTROL
    assert not p.correct

    # A window with equal similarities is a CONTROL vote.
    tied = sims(Label.ADHD, "tie", "tie")
    p = _prediction("x", Label.CONTROL, tied)
    assert p.predicted_label is Label.CONTROL
    assert p.correct_windows == 2 and p.total_windows == 3 and p.correct
    p = _prediction("x", Label.ADHD, sims(Label.ADHD, "tie"))
    assert p.predicted_label is Label.CONTROL
    assert p.correct_windows == 1 and not p.correct
    assert np.array_equal(p.similarities, sims(Label.ADHD, "tie"))
    assert not p.similarities.flags.writeable


def test_classify_patient_window_count(prepared, small_params):
    _, _, stats, q = prepared
    model = train(pick(q, "adhd-001", "control-001"), small_params, stats)
    pred = classify_patient(model, q["adhd-002"])
    assert pred.total_windows == 6
    assert len(pred.similarities) == 6
    assert pred.patient_id == "adhd-002"
    assert pred.similarities.shape == (6, 2)
    assert pred.similarities.dtype == np.float64
    assert not pred.similarities.flags.writeable


def test_classify_patient_binds_channels_by_name(prepared, small_params):
    # A recording whose columns come in another order than the model's
    # channels is encoded by channel name, so the votes do not change.
    _, _, stats, q = prepared
    model = train(pick(q, "adhd-001", "control-001"), small_params, stats)
    rec = q["control-002"]
    reversed_rec = replace(rec, channels=rec.channels[::-1], levels=rec.levels[:, ::-1].copy())
    assert reversed_rec.channels != model.channels
    a = classify_patient(model, rec)
    b = classify_patient(model, reversed_rec)
    assert a.predicted_label is b.predicted_label
    assert (a.correct_windows, a.total_windows) == (b.correct_windows, b.total_windows)
    assert np.array_equal(a.similarities, b.similarities)


def test_classify_patient_rejects_unknown_channel(prepared, small_params):
    _, _, stats, q = prepared
    model = train(pick(q, "adhd-001", "control-001"), small_params, stats)
    rec = q["control-002"]
    stranger = replace(rec, channels=(rec.channels[0], "Pz"))
    with pytest.raises(ValueError, match="Pz"):
        classify_patient(model, stranger)


# --------------------------------------------------------------- summarize


def make_pred(true, predicted, correct_windows, total=6, pid="p"):
    return PatientPrediction(
        patient_id=pid,
        true_label=true,
        predicted_label=predicted,
        correct_windows=correct_windows,
        total_windows=total,
    )


def test_summarize_frozen_confusion_and_metrics():
    preds = []
    preds += [make_pred(Label.ADHD, Label.ADHD, 6, pid=f"tp{i}") for i in range(9)]
    preds += [make_pred(Label.CONTROL, Label.ADHD, 2, pid="fp0")]
    preds += [make_pred(Label.CONTROL, Label.CONTROL, 6, pid=f"tn{i}") for i in range(10)]
    r = summarize(preds)
    assert (r.tp, r.fp, r.tn, r.fn) == (9, 1, 10, 0)
    assert r.precision == 0.9
    assert r.recall == 1.0
    assert r.f1 == pytest.approx(1.8 / 1.9)
    assert r.accuracy_pct == 95.0


def test_summarize_zero_denominators_are_none():
    only_control = [make_pred(Label.CONTROL, Label.CONTROL, 6)]
    r = summarize(only_control)
    assert r.precision is None and r.recall is None and r.f1 is None
    assert r.accuracy_pct == 100.0

    all_wrong = [
        make_pred(Label.ADHD, Label.CONTROL, 0, pid="a"),
        make_pred(Label.CONTROL, Label.ADHD, 0, pid="b"),
    ]
    r = summarize(all_wrong)
    assert r.precision == 0.0 and r.recall == 0.0 and r.f1 is None
    assert r.accuracy_pct == 0.0


def test_summarize_tie_breaks_confusion_accuracy_link():
    # A control patient with an even window split is predicted CONTROL
    # (counted tn) yet fails the strict-majority correctness rule.
    preds = [
        make_pred(Label.CONTROL, Label.CONTROL, 3, total=6, pid="tied"),
        make_pred(Label.ADHD, Label.ADHD, 6, pid="clean"),
    ]
    r = summarize(preds)
    assert (r.tp, r.tn, r.fp, r.fn) == (1, 1, 0, 0)
    assert r.accuracy_pct == 50.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_to_dict_is_json_friendly():
    import json

    r = summarize([make_pred(Label.ADHD, Label.ADHD, 6)])
    doc = json.loads(json.dumps(r.to_dict()))
    assert doc["confusion"] == {"tp": 1, "fp": 0, "tn": 0, "fn": 0}
    assert doc["patients"][0]["correct"] is True
    assert doc["recall"] == 1.0 and doc["precision"] == 1.0


# ---------------------------------------------------------------- evaluate


def test_evaluate_matches_manual_loop(prepared, small_params):
    _, _, stats, q = prepared
    model = train(pick(q, "adhd-001", "control-001"), small_params, stats)
    rest = pick(q, "adhd-002", "control-002", "adhd-003", "control-003")
    report = evaluate(model, rest)
    manual = summarize([classify_patient(model, r) for r in rest])
    assert report.to_dict() == manual.to_dict()


def test_evaluate_rejects_empty(prepared, small_params):
    _, _, stats, q = prepared
    model = train(pick(q, "adhd-001", "control-001"), small_params, stats)
    with pytest.raises(ValueError):
        evaluate(model, [])


# --------------------------------------------------------------- run_trial


def test_run_trial_separates_synthetic_classes(small_dataset, small_params, small_counts):
    manifest, recordings = small_dataset
    model, report = run_trial(manifest, recordings, small_params, *small_counts)
    assert report is not None
    assert report.accuracy_pct == 100.0
    assert len(model.train_ids) == 4 and len(model.test_ids) == 4
    assert not set(model.train_ids) & set(model.test_ids)


def test_run_trial_is_deterministic(small_dataset, small_params, small_counts):
    manifest, recordings = small_dataset
    m1, r1 = run_trial(manifest, recordings, small_params, *small_counts)
    m2, r2 = run_trial(manifest, recordings, small_params, *small_counts)
    assert m1.train_ids == m2.train_ids and m1.test_ids == m2.test_ids
    assert r1.to_dict() == r2.to_dict()
    for label in Label:
        assert np.array_equal(m1.memory.prototype(label), m2.memory.prototype(label))


def test_run_trial_split_depends_on_seed(small_dataset, small_params, small_counts):
    manifest, recordings = small_dataset
    splits = set()
    for s in range(4):
        model, _ = run_trial(
            manifest, recordings, replace(small_params, seed=s), *small_counts
        )
        splits.add(model.train_ids)
    assert len(splits) > 1


def test_run_trial_eval_replays_from_stored_state(small_dataset, small_params, small_counts):
    # The model carries its channel stats and test ids, so the held-out
    # evaluation can be reproduced from the model plus raw recordings.
    manifest, recordings = small_dataset
    model, report = run_trial(manifest, recordings, small_params, *small_counts)
    by_id = {r.patient_id: r for r in recordings}
    q_test = [
        preprocess_recording(
            by_id[i],
            model.channel_stats,
            drop_samples=small_params.drop_samples,
            downsample_factor=small_params.downsample_factor,
            level_count=small_params.level_count,
        )
        for i in model.test_ids
    ]
    assert evaluate(model, q_test).to_dict() == report.to_dict()


def test_run_trial_no_test_patients(small_dataset, small_params):
    manifest, recordings = small_dataset
    counts = {Label.ADHD: 2, Label.CONTROL: 2}
    model, report = run_trial(manifest, recordings, small_params, counts, {})
    assert report is None
    assert model.test_ids == ()


def test_run_trial_stats_scope_all(small_dataset, small_params, small_counts):
    manifest, recordings = small_dataset
    _, r_train = run_trial(manifest, recordings, small_params, *small_counts)
    _, r_all = run_trial(
        manifest, recordings, small_params, *small_counts, stats_scope="all"
    )
    assert r_train.accuracy_pct == 100.0 and r_all.accuracy_pct == 100.0
    with pytest.raises(ValueError, match="stats scope"):
        run_trial(manifest, recordings, small_params, *small_counts, stats_scope="test")


def test_run_trial_missing_recording(small_dataset, small_params, small_counts):
    manifest, recordings = small_dataset
    with pytest.raises(ValueError, match="missing"):
        run_trial(manifest, recordings[:-1], small_params, *small_counts)


def read_only(rec):
    samples = rec.samples.copy()
    samples.flags.writeable = False
    return replace(rec, samples=samples)


def test_pipeline_never_writes_samples(small_dataset, small_params, small_counts, tmp_path):
    # drop_initial returns a view of the caller's samples, so every later
    # step must build new arrays; a write into a read-only array raises.
    manifest, recordings = small_dataset
    frozen = [read_only(r) for r in recordings]
    outcomes = []
    for recs in (recordings, frozen):
        model, report = run_trial(manifest, recs, small_params, *small_counts)
        path = tmp_path / f"model{len(outcomes)}.bin"
        save_model(model, path)
        outcomes.append((path.read_bytes(), report.to_dict()))
    assert outcomes[0] == outcomes[1]

    p = small_params
    chains = []
    for recs in (recordings, frozen):
        dropped = [drop_initial(r, p.drop_samples) for r in recs]
        stats = compute_channel_stats(dropped, p.clip_low_pct, p.clip_high_pct)
        conditioned = [downsample_mean(clip(d, stats), p.downsample_factor) for d in dropped]
        chains.append((stats, [quantize(c, stats, p.level_count).levels for c in conditioned]))
    assert all(not d.samples.flags.writeable for d in dropped)
    assert chains[0][0] == chains[1][0]
    assert all(np.array_equal(a, b) for a, b in zip(chains[0][1], chains[1][1]))


# ------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def sweep_result(small_dataset, small_params):
    manifest, recordings = small_dataset
    return incremental_sweep(
        manifest,
        recordings,
        test_size=2,
        max_train=4,
        runs=3,
        params=replace(small_params, seed=5),
    )


def test_sweep_shapes(sweep_result, small_dataset):
    manifest, _ = small_dataset
    assert len(sweep_result.rows) == 4
    assert [row.k for row in sweep_result.rows] == [1, 2, 3, 4]
    assert len(sweep_result.runs) == 3
    labels = manifest.labels()
    for run in sweep_result.runs:
        assert len(run.test_ids) == 2
        assert len(run.train_order) == 4
        assert len(run.accuracies) == 4
        assert not set(run.test_ids) & set(run.train_order)
        # stratified test allocation: one patient per class
        assert sum(labels[i] is Label.ADHD for i in run.test_ids) == 1


def test_sweep_run_seeds_are_derived(sweep_result):
    for r, run in enumerate(sweep_result.runs):
        assert run.run_seed == derive_seed(5, f"sweep-run-{r}")


def test_sweep_run_seeds_derive_from_the_params_seed(small_dataset, small_params):
    # params.seed is the sweep's one root seed.
    params = replace(small_params, seed=11)
    result = incremental_sweep(*small_dataset, test_size=2, max_train=1, runs=3, params=params)
    assert [run.run_seed for run in result.runs] == [
        derive_seed(params.seed, f"sweep-run-{r}") for r in range(3)
    ]


def test_sweep_rows_aggregate_runs(sweep_result):
    for row in sweep_result.rows:
        samples = [run.accuracies[row.k - 1] for run in sweep_result.runs]
        assert row.mean_acc == statistics.fmean(samples)
        assert row.std == float(np.std(samples))


def test_sweep_accuracy_grows_on_separable_data(sweep_result):
    assert sweep_result.rows[-1].mean_acc >= sweep_result.rows[0].mean_acc
    assert sweep_result.rows[-1].mean_acc == 100.0


def test_sweep_final_point_matches_batch_training(sweep_result, prepared, small_params):
    # Training on the full prefix with the run seed reproduces the last
    # sweep point exactly: same memories, same statistics, same votes.
    _, raw, _, _ = prepared
    run = sweep_result.runs[0]
    params_r = replace(small_params, seed=run.run_seed)
    train_raw = pick(raw, *run.train_order)
    test_raw = pick(raw, *run.test_ids)
    stats, quantized = quantize_all([*train_raw, *test_raw], params_r, stats_pool=train_raw)
    model = train(quantized[: len(train_raw)], params_r, stats)
    report = evaluate(model, quantized[len(train_raw):])
    assert report.accuracy_pct == run.accuracies[-1]

    # 128 channels: window values leave int8's range, so the encoder
    # returns int16 sums and the sweep scores those.
    spec = SyntheticSpec(
        patients_per_class=3, samples=768, channels=tuple(f"c{i}" for i in range(128))
    )
    manifest, recordings = generate_synthetic(spec)
    wide = replace(small_params, dimension=256)
    run = incremental_sweep(
        manifest, recordings, test_size=2, max_train=4, runs=1, params=replace(wide, seed=5)
    ).runs[0]
    params_r = replace(wide, seed=run.run_seed)
    raw = {r.patient_id: r for r in recordings}
    train_raw = pick(raw, *run.train_order)
    test_raw = pick(raw, *run.test_ids)
    stats, quantized = quantize_all([*train_raw, *test_raw], params_r, stats_pool=train_raw)
    model = train(quantized[: len(train_raw)], params_r, stats)
    assert evaluate(model, quantized[len(train_raw):]).accuracy_pct == run.accuracies[-1]


def prefix_points(raw, run, params_r):
    """(accuracy, bundle counts) after training on each prefix of a sweep run.

    Statistics come from the run's whole training order, as the sweep
    computes them.  While the prefix holds one class the accuracy follows
    the single-class rule and the counts are None.
    """
    train_raw = pick(raw, *run.train_order)
    test_raw = pick(raw, *run.test_ids)
    stats, quantized = quantize_all([*train_raw, *test_raw], params_r, stats_pool=train_raw)
    q_test = quantized[len(train_raw):]
    points = []
    for k in range(1, len(train_raw) + 1):
        labels = {q.label for q in quantized[:k]}
        if len(labels) == 1:
            (only,) = labels
            acc = 100.0 * sum(q.label is only for q in q_test) / len(q_test)
            points.append((acc, None))
            continue
        model = train(quantized[:k], params_r, stats)
        counts = tuple(model.memory.bundle_count(label) for label in (Label.ADHD, Label.CONTROL))
        points.append((evaluate(model, q_test).accuracy_pct, counts))
    return points


SWEEP_GATES = [None, -1.0, 2.0]  # the params' own, admit none after the first, admit all


@pytest.mark.parametrize("gate", SWEEP_GATES)
def test_sweep_every_point_matches_training_on_the_prefix(small_dataset, small_params, gate):
    manifest, recordings = small_dataset
    params = small_params if gate is None else replace(small_params, gate_threshold=gate)
    result = incremental_sweep(
        manifest, recordings, test_size=2, max_train=6, runs=3, params=replace(params, seed=5)
    )
    raw = {r.patient_id: r for r in recordings}
    for run in result.runs:
        points = prefix_points(raw, run, replace(params, seed=run.run_seed))
        assert run.accuracies == tuple(acc for acc, _ in points)


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("gate", SWEEP_GATES)
def test_sweep_scores_only_after_the_memory_changed(
    small_dataset, small_params, gate, monkeypatch
):
    # The sweep keeps a step for each training patient that changed the
    # memory and casts every held-out row once per batch of steps.
    manifest, recordings = small_dataset
    params = small_params if gate is None else replace(small_params, gate_threshold=gate)
    raw = {r.patient_id: r for r in recordings}
    runs = []
    real_score_each_change, real_cast_blocks = classifier.score_each_change, memories._cast_blocks

    def recording_score_each_change(dimension, gate_threshold, offers, held_out, score):
        run = {"held_out": list(held_out), "cast": 0, "counts": []}
        runs.append(run)

        def recording_score(counts, sims):
            run["counts"].append(counts)
            return score(counts, sims)

        return real_score_each_change(dimension, gate_threshold, offers, held_out, recording_score)

    def counting_cast_blocks(vectors, rows):
        for start, block in real_cast_blocks(vectors, rows):
            if any(vectors is v for v in runs[-1]["held_out"]):
                runs[-1]["cast"] += len(block)
            yield start, block

    monkeypatch.setattr(classifier, "score_each_change", recording_score_each_change)
    monkeypatch.setattr(memories, "_cast_blocks", counting_cast_blocks)
    result = incremental_sweep(
        manifest, recordings, test_size=2, max_train=6, runs=3, params=replace(params, seed=5)
    )
    monkeypatch.undo()
    test_rows = len(result.runs[0].test_ids) * (192 // params.ngram_size)
    batch = _SCORE_ROWS // 2
    batches = 0
    for run, seen in zip(result.runs, runs):
        steps = len(seen["counts"])
        assert seen["cast"] == test_rows * -(-steps // batch)
        batches += -(-steps // batch)
        # No step repeats the bundle counts of the step before it.
        assert all(a != b for a, b in zip(seen["counts"], seen["counts"][1:]))
        # The steps that score both classes are the prefixes whose trained
        # model has new bundle counts.
        counts = [c for _, c in prefix_points(raw, run, replace(params, seed=run.run_seed))]
        changed = sum(1 for prev, cur in zip([None, *counts], counts) if cur is not None and cur != prev)
        assert sum(1 for c in seen["counts"] if all(c)) == changed
        assert seen["counts"][-1] == counts[-1]
    if gate == -1.0:
        # Each run's first patient and the first of the other class are its
        # only steps, so each run scores one batch.
        assert batches == 3


@pytest.mark.parametrize(
    "fault, message",
    [
        ("cancelled", "a class prototype cancelled to all zeros"),
        ("zero_held_out_row", "cosine similarity of an all-zero vector is undefined"),
    ],
)
def test_sweep_that_cannot_score_raises_the_scoring_error(
    small_dataset, small_params, monkeypatch, fault, message
):
    # At gate 2.0 an ADHD patient whose windows are v and -v leaves the
    # ADHD prototype all zeros; a held-out window of zeros has no cosine.
    # Either raises UndefinedSimilarityError at the first step that scores
    # both classes (or, for the cancelled prototype, at the next ADHD
    # offer), with the message a scoring call gives.
    manifest, recordings = small_dataset
    params = replace(small_params, gate_threshold=2.0)
    kwargs = dict(test_size=2, max_train=6, runs=1, params=replace(params, seed=5))
    held_out = {i for run in incremental_sweep(manifest, recordings, **kwargs).runs for i in run.test_ids}
    v = np.resize(np.array([2, -2, 0, 2], dtype=np.int8), params.dimension)
    u = np.roll(v, 1)

    def encode(rec, im, cim, ngram_size):
        if fault == "zero_held_out_row" and rec.patient_id in held_out:
            return np.stack([v, np.zeros_like(v)])
        if fault == "cancelled" and rec.label is Label.ADHD:
            return np.stack([v, -v])
        return np.stack([v if rec.label is Label.ADHD else u])

    monkeypatch.setattr(classifier, "encode_windows", encode)
    with pytest.raises(hv.UndefinedSimilarityError) as raised:
        incremental_sweep(manifest, recordings, **kwargs)
    assert str(raised.value) == message


def test_sweep_test_sets_follow_split_policy(sweep_result, small_dataset):
    manifest, _ = small_dataset
    counts = {Label.ADHD: 1, Label.CONTROL: 1}
    for run in sweep_result.runs:
        _, test_ids = split(manifest, {}, counts, derive_seed(run.run_seed, "split"))
        assert run.test_ids == tuple(test_ids)


def test_sweep_is_deterministic(small_dataset, small_params):
    manifest, recordings = small_dataset
    kwargs = dict(test_size=2, max_train=2, runs=2, params=replace(small_params, seed=8))
    a = incremental_sweep(manifest, recordings, **kwargs)
    b = incremental_sweep(manifest, recordings, **kwargs)
    assert a == b


def test_sweep_single_run_has_zero_std(small_dataset, small_params):
    manifest, recordings = small_dataset
    result = incremental_sweep(
        manifest, recordings, test_size=2, max_train=2, runs=1, params=replace(small_params, seed=3)
    )
    assert all(row.std == 0.0 for row in result.rows)


def test_sweep_unstratified(small_dataset, small_params):
    manifest, recordings = small_dataset
    result = incremental_sweep(
        manifest,
        recordings,
        test_size=3,
        max_train=2,
        runs=2,
        params=replace(small_params, seed=4),
        stratified=False,
    )
    for run in result.runs:
        assert len(run.test_ids) == 3


def test_sweep_argument_validation(small_dataset, small_params):
    manifest, recordings = small_dataset
    base = dict(test_size=2, max_train=2, runs=1, params=replace(small_params, seed=0))
    with pytest.raises(ValueError):
        incremental_sweep(manifest, recordings, **{**base, "runs": 0})
    with pytest.raises(ValueError):
        incremental_sweep(manifest, recordings, **{**base, "test_size": 0})
    with pytest.raises(DataValidationError):
        incremental_sweep(manifest, recordings, **{**base, "max_train": 7})
    with pytest.raises(ValueError, match="stats scope"):
        incremental_sweep(manifest, recordings, **{**base, "stats_scope": "half"})


def test_sweep_unbalanced_classes_reject_oversized_test(small_dataset, small_params):
    manifest, recordings = small_dataset
    keep = {"adhd-001", "control-001", "control-002", "control-003", "control-004"}
    sub_manifest = DatasetManifest(
        name=manifest.name,
        sample_rate_hz=manifest.sample_rate_hz,
        channels=manifest.channels,
        patients=tuple(p for p in manifest.patients if p.id in keep),
    )
    sub_recs = [r for r in recordings if r.patient_id in keep]
    with pytest.raises(DataValidationError, match="test set needs"):
        incremental_sweep(
            sub_manifest,
            sub_recs,
            test_size=4,
            max_train=1,
            runs=1,
            params=replace(small_params, seed=0),
        )
