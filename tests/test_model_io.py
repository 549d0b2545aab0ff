"""Model snapshot format: exact round-trips and corruption handling."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hdeeg import (
    Label,
    ModelFormatError,
    classify_patient,
    load_model,
    run_trial,
    save_model,
)
from hdeeg.model_io import MAGIC


@pytest.fixture(scope="module")
def trained(small_dataset, small_params, small_counts):
    manifest, recordings = small_dataset
    model, report = run_trial(manifest, recordings, small_params, *small_counts)
    return model, report, recordings


def test_round_trip_preserves_everything(trained, tmp_path):
    model, _, _ = trained
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.params == model.params
    assert loaded.channels == model.channels
    assert loaded.channel_stats == model.channel_stats
    assert loaded.train_ids == model.train_ids
    assert loaded.test_ids == model.test_ids
    assert np.array_equal(loaded.item_memory.vectors, model.item_memory.vectors)
    assert np.array_equal(loaded.level_memory.vectors, model.level_memory.vectors)
    for label in Label:
        assert np.array_equal(loaded.memory.prototype(label), model.memory.prototype(label))
        assert loaded.memory.bundle_count(label) == model.memory.bundle_count(label)
    assert loaded.item_memory.vectors.dtype == np.int8
    assert loaded.memory.prototype(Label.ADHD).dtype == np.int64


def test_round_trip_preserves_predictions(trained, tmp_path, small_params):
    # Classification through a reloaded model is bit-identical, window
    # similarities included.
    from hdeeg import compute_channel_stats, drop_initial, preprocess_recording

    model, report, recordings = trained
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    by_id = {r.patient_id: r for r in recordings}
    for pid in model.test_ids:
        q = preprocess_recording(
            by_id[pid],
            model.channel_stats,
            drop_samples=small_params.drop_samples,
            downsample_factor=small_params.downsample_factor,
            level_count=small_params.level_count,
        )
        original = classify_patient(model, q)
        reloaded = classify_patient(loaded, q)
        assert original == reloaded
        assert original.similarities.tobytes() == reloaded.similarities.tobytes()


def test_saving_twice_is_byte_identical(trained, tmp_path):
    model, _, _ = trained
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_save_load_save_is_byte_identical(trained, tmp_path):
    model, _, _ = trained
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, a)
    save_model(load_model(a), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def paper_scale_snapshot(small_dataset, small_params, small_counts, tmp_path_factory):
    """A model with paper-scale memories (D = 10,000, 250 levels), saved."""
    manifest, recordings = small_dataset
    params = replace(small_params, dimension=10_000, level_count=250)
    model, _ = run_trial(manifest, recordings, params, *small_counts)
    path = tmp_path_factory.mktemp("paper") / "model.bin"
    save_model(model, path)
    return model, path


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_model_peak_is_below_the_snapshot_size(paper_scale_snapshot, tmp_path):
    # The arrays are written from their own buffers; building the file as
    # one blob holds it two or three times over.
    model, path = paper_scale_snapshot
    peak = _traced_peak(lambda: save_model(model, tmp_path / "again.bin"))
    assert peak < path.stat().st_size
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_load_model_peak_is_below_two_and_a_half_snapshots(paper_scale_snapshot):
    # The file's bytes plus the memories' own copies of their arrays; a
    # copy of the payload on top of that reaches three times the size.
    _, path = paper_scale_snapshot
    peak = _traced_peak(lambda: load_model(path))
    assert peak < 2.5 * path.stat().st_size


def test_load_model_peak_is_below_one_and_a_half_snapshots(paper_scale_snapshot):
    # The level memory is packed from the payload row by row, so beside
    # the file's bytes the load holds about an eighth of the level matrix;
    # an int8 copy of that matrix alone takes 0.93 of the file.
    _, path = paper_scale_snapshot
    peak = _traced_peak(lambda: load_model(path))
    assert peak < 1.5 * path.stat().st_size


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"something else entirely\n")
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_rejects_truncated_file(trained, tmp_path):
    model, _, _ = trained
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(data[: len(data) - 100])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(clipped)


def test_rejects_trailing_garbage(trained, tmp_path):
    model, _, _ = trained
    path = tmp_path / "model.bin"
    save_model(model, path)
    padded = tmp_path / "padded.bin"
    padded.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(padded)


def test_rejects_header_without_newline(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"hdeeg-model-v1\n" + b"{" * 40)
    with pytest.raises(ModelFormatError, match="truncated header"):
        load_model(path)


def test_rejects_unparseable_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"hdeeg-model-v1\n" + b"{not json}\n")
    with pytest.raises(ModelFormatError, match="header"):
        load_model(path)


def test_rejects_deeply_nested_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(MAGIC + b"[" * 100_000 + b"\n")
    with pytest.raises(ModelFormatError, match="unreadable header"):
        load_model(path)


def test_rejects_missing_header_field(trained, tmp_path):
    import json

    model, _, _ = trained
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    magic_end = len(b"hdeeg-model-v1\n")
    newline = data.index(b"\n", magic_end)
    header = json.loads(data[magic_end:newline])
    del header["params"]
    rewritten = (
        data[:magic_end]
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + data[newline:]
    )
    path.write_bytes(rewritten)
    with pytest.raises(ModelFormatError, match="header field"):
        load_model(path)


def test_rejects_corrupted_shape(trained, tmp_path):
    import json

    model, _, _ = trained
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    magic_end = len(b"hdeeg-model-v1\n")
    newline = data.index(b"\n", magic_end)
    header = json.loads(data[magic_end:newline])
    header["params"]["dimension"] = header["params"]["dimension"] * 2
    rewritten = (
        data[:magic_end]
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + data[newline:]
    )
    path.write_bytes(rewritten)
    with pytest.raises(ModelFormatError):
        load_model(path)


def _saved(model, tmp_path):
    path = tmp_path / "model.bin"
    save_model(model, path)
    return path


def test_rejects_unsupported_format(trained, tmp_path, rewrite_snapshot):
    path = _saved(trained[0], tmp_path)
    same, bad = tmp_path / "same.bin", tmp_path / "bad.bin"
    rewrite_snapshot(path, same, lambda header, arrays: None)
    assert same.read_bytes() == path.read_bytes()
    rewrite_snapshot(path, bad, lambda header, arrays: header.update(format=99))
    with pytest.raises(ModelFormatError, match="format 99"):
        load_model(bad)


def test_rejects_params_that_fail_validation(trained, tmp_path, rewrite_snapshot):
    def edit(header, arrays):
        header["params"].update(clip_low_pct=99.9, clip_high_pct=1.0)

    bad = tmp_path / "bad.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), bad, edit)
    with pytest.raises(ModelFormatError, match="percentiles"):
        load_model(bad)


def test_rejects_short_prototypes(trained, tmp_path, rewrite_snapshot):
    def edit(header, arrays):
        for name in ("prototype_adhd", "prototype_control"):
            arrays[name] = arrays[name][:-2]

    bad = tmp_path / "bad.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), bad, edit)
    with pytest.raises(ModelFormatError, match="prototype_adhd shape"):
        load_model(bad)


@pytest.mark.parametrize("name", ["item_memory", "level_memory"])
def test_rejects_non_bipolar_memory(trained, tmp_path, rewrite_snapshot, name):
    def edit(header, arrays):
        arrays[name][0, 0] = 5

    bad = tmp_path / "bad.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), bad, edit)
    with pytest.raises(ModelFormatError, match=f"{name} is not bipolar"):
        load_model(bad)


def test_rejects_channel_stats_for_other_channels(trained, tmp_path, rewrite_snapshot):
    def edit(header, arrays):
        header["channel_stats"][0]["channel"] = "Pz"

    bad = tmp_path / "bad.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), bad, edit)
    with pytest.raises(ModelFormatError, match="channel stats"):
        load_model(bad)


def _negative_bundle_count(header, arrays):
    header["bundle_counts"]["ADHD"] = -1


def _duplicate_channels(header, arrays):
    header["channels"] = ["F4", "F4"]
    header["channel_stats"][1]["channel"] = "F4"


def _no_channels(header, arrays):
    header["channels"], header["channel_stats"] = [], []
    arrays["item_memory"] = arrays["item_memory"][:0]


def _adhd_component(value):
    def edit(header, arrays):
        arrays["prototype_adhd"][0] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_negative_bundle_count, "negative bundle count"),
        (_duplicate_channels, "duplicate channel"),
        (_no_channels, "channel names must be nonempty"),
        # Float64 would round these, so the file could not be saved back unchanged.
        *(
            pytest.param(_adhd_component(value), r"beyond \+-2\*\*53", id=f"prototype_component_{name}")
            for name, value in [("above", 2**53 + 1), ("below", -(2**53) - 1), ("int64_min", np.iinfo(np.int64).min)]
        ),
    ],
)
def test_rejects_inconsistent_memory_state(trained, tmp_path, rewrite_snapshot, edit, message):
    bad = tmp_path / "bad.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), bad, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(bad)


def _zero_prototype(name):
    def edit(header, arrays):
        arrays[name][:] = 0

    return edit


def _bundle_count(label, count):
    return lambda header, arrays: header["bundle_counts"].update({label: count})


def _untrained_control(header, arrays):
    header["bundle_counts"]["CONTROL"] = 0
    arrays["prototype_control"][:] = 0


UNSCORABLE_PROTOTYPES = {
    "all_zero_adhd": (_zero_prototype("prototype_adhd"), r"ADHD cannot score: bundle count [1-9]\d*, all-zero"),
    "all_zero_control": (
        _zero_prototype("prototype_control"),
        r"CONTROL cannot score: bundle count [1-9]\d*, all-zero",
    ),
    "zero_count_adhd": (_bundle_count("ADHD", 0), "ADHD cannot score: bundle count 0, nonzero"),
    "untrained_control": (_untrained_control, "CONTROL cannot score: bundle count 0, all-zero"),
}


@pytest.mark.parametrize(
    "edit, match", UNSCORABLE_PROTOTYPES.values(), ids=UNSCORABLE_PROTOTYPES.keys()
)
def test_rejects_prototype_that_cannot_score(trained, tmp_path, rewrite_snapshot, edit, match):
    bad = tmp_path / "bad.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), bad, edit)
    with pytest.raises(ModelFormatError, match=match):
        load_model(bad)


@pytest.mark.parametrize("value", [2**53, -(2**53)], ids=["max", "min"])
def test_prototype_component_at_float64_limit_round_trips(trained, tmp_path, rewrite_snapshot, value):
    edge, resaved = tmp_path / "edge.bin", tmp_path / "resaved.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), edge, _adhd_component(value))
    model = load_model(edge)
    assert model.memory.prototype(Label.ADHD)[0] == value
    save_model(model, resaved)
    assert resaved.read_bytes() == edge.read_bytes()


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.bin")


def _set_header(path, edit):
    """Rewrite the header line of the snapshot at ``path`` through ``edit``."""
    data = path.read_bytes()
    newline = data.index(b"\n", len(MAGIC))
    header = json.loads(data[len(MAGIC):newline])
    edit(header)
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + line + data[newline:])


def _set_param(name, value):
    return lambda header: header["params"].update({name: value})


PROBE_HEADERS = {
    "array_list_is_a_number": lambda header: header.update(arrays=5),
    "descriptor_without_name": lambda header: header["arrays"][0].pop("name"),
    "float_shape": lambda header: header["arrays"][0].update(shape=[2, 2000.0]),
    "float_ngram_size": _set_param("ngram_size", 32.0),
    "float_dimension": _set_param("dimension", 2000.0),
    "int_gate_threshold": _set_param("gate_threshold", 0),
    "string_train_ids": lambda header: header.update(train_ids="abc"),
    "fractional_bundle_count": lambda header: header["bundle_counts"].update(ADHD=1.5),
    "float_format": lambda header: header.update(format=1.0),
    "unknown_key": lambda header: header.update(comment="hand edited"),
    "infinite_bundle_count": lambda header: header["bundle_counts"].update(ADHD=float("inf")),
    "nan_ngram_size": _set_param("ngram_size", float("nan")),
}


@pytest.mark.parametrize("edit", PROBE_HEADERS.values(), ids=PROBE_HEADERS.keys())
def test_rejects_header_save_model_would_not_write(trained, tmp_path, edit):
    path = _saved(trained[0], tmp_path)
    _set_header(path, edit)
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda header: header.update(test_ids=header["test_ids"][:1] * 2), "test_ids name"),
        (lambda header: header["train_ids"].append(header["train_ids"][-1]), "train_ids name"),
        (lambda header: header["test_ids"].append(header["train_ids"][0]), "in both"),
    ],
)
def test_rejects_repeated_or_overlapping_split_ids(trained, tmp_path, edit, match):
    path = _saved(trained[0], tmp_path)
    _set_header(path, edit)
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


@pytest.mark.parametrize("gate", [float("nan"), float("inf")])
def test_rejects_non_finite_gate_threshold(trained, tmp_path, gate):
    path = _saved(trained[0], tmp_path)
    _set_header(path, _set_param("gate_threshold", gate))
    with pytest.raises(ModelFormatError, match="gate threshold must be finite"):
        load_model(path)


@pytest.mark.parametrize(
    "change, match",
    [
        ({"gate_threshold": float("nan")}, "gate threshold must be finite"),
        ({"ngram_size": 0}, "ngram size must be at least 1"),
        ({"clip_low_pct": 99.5, "clip_high_pct": 0.5}, "percentiles must satisfy"),
    ],
    ids=["nan_gate", "zero_ngram", "reversed_percentiles"],
)
def test_params_load_model_refuses_fail_at_replace(trained, change, match):
    # No model can hold such params, so save_model cannot write a snapshot
    # that load_model refuses for them.
    with pytest.raises(ValueError, match=match):
        replace(trained[0].params, **change)


@pytest.mark.parametrize(
    "change, match",
    [
        ({"dimension": 1000}, r"params say dimension 1000, the memories have \[2000, 2000, 2000\]"),
        ({"level_count": 60}, "params say 60 levels, the level memory has 50"),
        ({"gate_threshold": 0.3}, "params say gate threshold 0.3, the memory has 0.5"),
    ],
    ids=["dimension", "level_count", "gate_threshold"],
)
def test_model_params_must_agree_with_its_memories(trained, change, match):
    # Saved, such a model would be refused for a truncated array or
    # trailing bytes, or load with another gate.
    model = trained[0]
    with pytest.raises(ValueError, match=match):
        replace(model, params=replace(model.params, **change))


@pytest.fixture(scope="module")
def snapshot(trained, tmp_path_factory):
    """The fixture model's snapshot bytes and a directory to write variants in."""
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "model.bin"
    save_model(trained[0], path)
    return path.read_bytes(), workdir


_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789.-eE+"[]{},:'))


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_load_model_fails_closed_or_round_trips(snapshot, data):
    blob, workdir = snapshot
    header_end = blob.index(b"\n", len(MAGIC))
    region = data.draw(st.sampled_from(["header", "payload", "truncate"]))
    if region == "truncate":
        mutated = bytearray(blob[: data.draw(st.integers(0, len(blob) - 1))])
    else:
        lo, hi = (0, header_end + 1) if region == "header" else (header_end + 1, len(blob))
        mutated = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(lo, min(hi, len(mutated)) - 1))
            kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
            if kind == "delete":
                del mutated[pos]
            elif kind == "insert":
                mutated.insert(pos, data.draw(_BYTES))
            else:
                mutated[pos] = data.draw(_BYTES)
    path, resaved = workdir / "mutated.bin", workdir / "resaved.bin"
    path.write_bytes(mutated)
    try:
        model = load_model(path)
    except ModelFormatError:
        return
    save_model(model, resaved)
    assert resaved.read_bytes() == mutated
