"""Model snapshot format: exact round-trips and corruption handling."""

import numpy as np
import pytest

from hdeeg import (
    Label,
    ModelFormatError,
    classify_patient,
    load_model,
    run_trial,
    save_model,
)


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


@pytest.mark.parametrize(
    "edit, message",
    [(_negative_bundle_count, "negative bundle count"), (_duplicate_channels, "duplicate channel")],
)
def test_rejects_inconsistent_memory_state(trained, tmp_path, rewrite_snapshot, edit, message):
    bad = tmp_path / "bad.bin"
    rewrite_snapshot(_saved(trained[0], tmp_path), bad, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(bad)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.bin")
