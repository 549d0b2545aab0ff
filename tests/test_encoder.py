"""Spatio-temporal encoder against an independent scalar oracle."""

import numpy as np
import pytest

from hdeeg import (
    ContinuousItemMemory,
    ItemMemory,
    Label,
    QuantizedRecording,
    bind,
    cosine_similarity,
    encode_windows,
    hamming_distance,
    permute,
)

# ----------------------------------------------------------------- oracle
# Pure-Python re-derivation: sample t of n (1-based) contributes its level
# vector rotated right by n - t; rotations multiply component-wise, then
# the channel vector multiplies in, then channels sum.


def oracle_rotate(vec, k):
    n = len(vec)
    return [vec[(i - k) % n] for i in range(n)]


def oracle_temporal(levels, cim_rows):
    n = len(levels)
    dim = len(cim_rows[0])
    out = [1] * dim
    for t, level in enumerate(levels, start=1):
        rotated = oracle_rotate(list(cim_rows[level]), n - t)
        out = [a * b for a, b in zip(out, rotated)]
    return out


def oracle_window(level_rows, channel_vectors, cim_rows):
    dim = len(cim_rows[0])
    total = [0] * dim
    for levels, chan in zip(level_rows, channel_vectors):
        s = oracle_temporal(levels, cim_rows)
        bound = [a * b for a, b in zip(s, chan)]
        total = [a + b for a, b in zip(total, bound)]
    return total


def small_memories(dim=16, levels=4, seed=0):
    im = ItemMemory.build(["F4", "Cz"], seed=seed, dimension=dim)
    cim = ContinuousItemMemory.build(levels, seed=seed + 1, dimension=dim)
    return im, cim


def make_quantized(levels, channels=("F4", "Cz"), level_count=4, pid="p1"):
    return QuantizedRecording(
        patient_id=pid,
        label=Label.ADHD,
        channels=tuple(channels),
        levels=np.asarray(levels, dtype=np.int32),
        level_count=level_count,
    )




def temporal(levels, im, cim):
    """Temporal vector of one window, from a one-channel F4 recording.

    The channel binding is undone with the F4 item vector, which is its
    own inverse.
    """
    rec = make_quantized(
        np.asarray(levels).reshape(-1, 1), channels=("F4",), level_count=cim.level_count
    )
    out = encode_windows(rec, im, cim, len(levels))
    assert out.shape == (1, cim.dimension)
    return bind(out[0], im.vector("F4"))


# -------------------------------------------------------------- windowing


def test_segment_shapes_and_cover():
    # Row w encodes samples [w * n, (w + 1) * n) of every channel.
    im, cim = small_memories()
    data = np.arange(12).reshape(6, 2) % 4
    out = encode_windows(make_quantized(data), im, cim, 3)
    assert out.shape == (2, 16)
    chans = [im.vector(n).tolist() for n in ("F4", "Cz")]
    for w in range(2):
        rows = data[w * 3 : (w + 1) * 3].T.tolist()
        assert out[w].tolist() == oracle_window(rows, chans, cim.vectors.tolist())


def test_segment_requires_divisibility():
    im, cim = small_memories()
    rec = make_quantized(np.zeros((7, 2), dtype=int))
    with pytest.raises(ValueError, match="not divisible by ngram size 3"):
        encode_windows(rec, im, cim, 3)
    with pytest.raises(ValueError):
        encode_windows(rec, im, cim, 0)


# --------------------------------------------------------------- temporal


def test_encode_temporal_single_sample_is_level_vector():
    im, cim = small_memories()
    assert np.array_equal(temporal([2], im, cim), cim.level(2))


def test_encode_temporal_two_samples_expansion():
    # n = 2: rotate the older level vector once, bind with the newer.
    im, cim = small_memories()
    expected = bind(permute(cim.level(1), 1), cim.level(3))
    assert np.array_equal(temporal([1, 3], im, cim), expected)


def test_encode_temporal_matches_composition_of_ops():
    # General n: product of per-sample rotations built from the public ops.
    im, cim = small_memories(dim=64, levels=8, seed=5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        levels = rng.integers(0, 8, size=7)
        n = len(levels)
        expected = np.ones(64, dtype=np.int64)
        for t, level in enumerate(levels, start=1):
            expected = bind(expected, permute(cim.level(level), n - t))
        assert np.array_equal(temporal(levels, im, cim), expected)


def test_encode_temporal_is_bipolar():
    im, cim = small_memories()
    out = temporal([0, 1, 2, 3], im, cim)
    assert set(np.unique(out)) <= {-1, 1}


def test_encode_temporal_rejects_bad_levels():
    im, cim = small_memories(levels=4)
    for bad in ([0, 4], [-1]):
        with pytest.raises(ValueError, match="outside"):
            temporal(bad, im, cim)
    with pytest.raises(ValueError, match="ngram size"):
        temporal([], im, cim)
    floats = QuantizedRecording(
        patient_id="p1",
        label=Label.ADHD,
        channels=("F4",),
        levels=np.array([[0.5]]),
        level_count=4,
    )
    with pytest.raises(ValueError, match="integers"):
        encode_windows(floats, im, cim, 1)


def test_encode_temporal_order_sensitive():
    im = ItemMemory.build(["F4"], seed=0, dimension=10000)
    cim = ContinuousItemMemory.build(250, seed=1, dimension=10000)
    rng = np.random.default_rng(3)
    for _ in range(10):
        levels = rng.integers(0, 250, size=32)
        if np.array_equal(levels, levels[::-1]):
            continue
        fwd = temporal(levels, im, cim)
        rev = temporal(levels[::-1].copy(), im, cim)
        assert not np.array_equal(fwd, rev)
        assert abs(cosine_similarity(fwd, rev)) < 0.05


def test_encode_temporal_level_locality():
    # Replacing one sample's level moves the encoding by exactly the
    # Hamming distance between the two level vectors (binding with the
    # other factors is distance preserving).
    im, cim = small_memories(dim=512, levels=16, seed=9)
    rng = np.random.default_rng(5)
    levels = rng.integers(0, 16, size=6)
    bumped = levels.copy()
    bumped[3] = (bumped[3] + 1) % 16
    a = temporal(levels, im, cim)
    b = temporal(bumped, im, cim)
    assert hamming_distance(a, b) == hamming_distance(
        cim.level(int(levels[3])), cim.level(int(bumped[3]))
    )


# ---------------------------------------------------------------- channel


def test_encode_channel_binds_item_vector():
    im, cim = small_memories()
    rec = make_quantized([[0], [1]], channels=("F4",))
    out = encode_windows(rec, im, cim, 2)[0]
    s = oracle_temporal([0, 1], cim.vectors.tolist())
    assert out.tolist() == bind(np.array(s), im.vector("F4")).tolist()
    # Binding again with the channel vector recovers the temporal vector.
    assert bind(out, im.vector("F4")).tolist() == s


def test_encode_channel_unknown_name():
    im, cim = small_memories()
    rec = make_quantized([[0, 1]], channels=("F4", "Pz"))
    with pytest.raises(ValueError, match="Pz"):
        encode_windows(rec, im, cim, 1)


# ----------------------------------------------------------------- window


def test_encode_window_bundles_channels():
    im, cim = small_memories()
    rows = [[0, 1, 2], [3, 2, 1]]
    out = encode_windows(make_quantized(np.array(rows).T), im, cim, 3)
    expected = oracle_window(
        rows, [im.vector(n).tolist() for n in ("F4", "Cz")], cim.vectors.tolist()
    )
    assert out.tolist() == [expected]
    assert set(np.unique(out)) <= {-2, 0, 2}


def test_encode_window_channel_recoverable():
    im = ItemMemory.build(["F4", "Cz"], seed=2, dimension=10000)
    cim = ContinuousItemMemory.build(250, seed=3, dimension=10000)
    rng = np.random.default_rng(8)
    data = rng.integers(0, 250, size=(32, 2))
    rec = make_quantized(data, level_count=250)
    F = encode_windows(rec, im, cim, 32)[0]
    for ci, name in enumerate(("F4", "Cz")):
        s = oracle_temporal(data[:, ci].tolist(), cim.vectors.tolist())
        assert cosine_similarity(bind(F, im.vector(name)), np.array(s)) > 0.4


def test_encode_window_validation():
    # The level matrix must have one column per named channel.
    im, cim = small_memories()
    with pytest.raises(ValueError, match="levels must be"):
        encode_windows(make_quantized(np.zeros((3, 1), dtype=int)), im, cim, 3)
    with pytest.raises(ValueError, match="levels must be"):
        encode_windows(make_quantized(np.zeros(3, dtype=int)), im, cim, 3)
    with pytest.raises(ValueError, match="at least one channel"):
        encode_windows(make_quantized(np.zeros((3, 0), dtype=int), channels=()), im, cim, 3)


# ---------------------------------------------------------------- patient


def test_encode_patient_produces_window_records():
    im, cim = small_memories()
    rng = np.random.default_rng(11)
    rec = make_quantized(rng.integers(0, 4, size=(9, 2)))
    out = encode_windows(rec, im, cim, 3)
    assert out.shape == (3, 16)
    assert out.dtype == np.int64


def test_encode_patient_matches_windowwise_encoding():
    # Windows are encoded independently: row w equals the encoding of a
    # recording holding only window w.
    im, cim = small_memories()
    rng = np.random.default_rng(13)
    data = rng.integers(0, 4, size=(6, 2))
    out = encode_windows(make_quantized(data), im, cim, 3)
    for w in range(2):
        alone = encode_windows(make_quantized(data[w * 3 : (w + 1) * 3]), im, cim, 3)
        assert np.array_equal(out[w], alone[0])


def test_encode_patient_rejects_level_overflow():
    im, cim = small_memories(levels=4)
    rec = make_quantized(np.zeros((4, 2), dtype=int), level_count=8)
    with pytest.raises(ValueError, match="memory only 4"):
        encode_windows(rec, im, cim, 2)


def test_encoder_oracle_equivalence_small():
    # 200 random windows at dimension 16, levels 4, two channels.
    im, cim = small_memories(dim=16, levels=4, seed=7)
    rng = np.random.default_rng(17)
    cim_rows = cim.vectors.tolist()
    chans = [im.vector(n).tolist() for n in ("F4", "Cz")]
    for _ in range(200):
        level_rows = [rng.integers(0, 4, size=3), rng.integers(0, 4, size=3)]
        got = encode_windows(make_quantized(np.stack(level_rows, axis=1)), im, cim, 3)
        expected = oracle_window([r.tolist() for r in level_rows], chans, cim_rows)
        assert got.tolist() == [expected]
