"""Spatio-temporal encoder against an independent scalar oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from hdeeg.encoder import _LEVEL_BLOCK, _level_table

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
    assert out.dtype == np.int8


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


# ------------------------------------------------------- packed-bit kernel
# encode_windows XORs packed sign bits.  These cases reach every width and
# offset it handles: D not a multiple of 8 or 64 (padding bits), n below,
# at and across byte boundaries and beyond D (rotations that wrap more than
# once), several channels, every level dtype the indexing sees, and level
# counts on both sides of the table's level blocks.


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    dim=st.sampled_from([2, 10, 66, 1002]),
    ngram=st.sampled_from([1, 7, 8, 9, 33, 65]),
    level_count=st.integers(min_value=2, max_value=2 * _LEVEL_BLOCK + 1),
    channels=st.integers(min_value=1, max_value=3),
    windows=st.integers(min_value=1, max_value=3),
    dtype=st.sampled_from([np.uint8, np.int16, np.int64]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(dim=2, ngram=65, level_count=3, channels=2, windows=2, dtype=np.uint8, seed=0)
@example(dim=10, ngram=33, level_count=6, channels=3, windows=1, dtype=np.int16, seed=1)
@example(dim=1002, ngram=8, level_count=2, channels=1, windows=3, dtype=np.int64, seed=2)
@example(dim=66, ngram=9, level_count=_LEVEL_BLOCK - 1, channels=2, windows=2, dtype=np.uint8, seed=3)
@example(dim=10, ngram=65, level_count=_LEVEL_BLOCK, channels=1, windows=2, dtype=np.int16, seed=4)
@example(dim=1002, ngram=33, level_count=_LEVEL_BLOCK + 1, channels=2, windows=1, dtype=np.int64, seed=5)
@example(dim=66, ngram=7, level_count=2 * _LEVEL_BLOCK + 1, channels=3, windows=3, dtype=np.uint8, seed=6)
def test_packed_kernel_matches_scalar_oracle(
    dim, ngram, level_count, channels, windows, dtype, seed
):
    names = [f"ch{i}" for i in range(channels)]
    im = ItemMemory.build(names, seed=seed, dimension=dim)
    cim = ContinuousItemMemory.build(level_count, seed=seed + 1, dimension=dim)
    data = np.random.default_rng(seed).integers(0, level_count, size=(windows * ngram, channels))
    # Built directly: make_quantized would cast the levels to int32.
    rec = QuantizedRecording(
        patient_id="p1",
        label=Label.ADHD,
        channels=tuple(names),
        levels=data.astype(dtype),
        level_count=level_count,
    )
    got = encode_windows(rec, im, cim, ngram)
    assert got.dtype == np.min_scalar_type(-channels - 1) and got.shape == (windows, dim)
    chans = [im.vector(n).tolist() for n in names]
    cim_rows = cim.vectors.tolist()
    for w in range(windows):
        rows = data[w * ngram : (w + 1) * ngram].T.tolist()
        assert got[w].tolist() == oracle_window(rows, chans, cim_rows)


def test_packed_kernel_many_channels():
    # 130 channels sharing one item vector: in the window where they also
    # share their levels, every component sums to +-130, past int8.
    names = [f"ch{i}" for i in range(130)]
    shared = ItemMemory.build(["ch0"], seed=4, dimension=66).vectors
    im = ItemMemory(names, np.repeat(shared, 130, axis=0))
    cim = ContinuousItemMemory.build(3, seed=5, dimension=66)
    data = np.random.default_rng(6).integers(0, 3, size=(2 * 9, 130))
    data[9:] = data[9:, :1]
    got = encode_windows(make_quantized(data, channels=names, level_count=3), im, cim, 9)
    chans = [im.vector(n).tolist() for n in names]
    for w in range(2):
        rows = data[w * 9 : (w + 1) * 9].T.tolist()
        assert got[w].tolist() == oracle_window(rows, chans, cim.vectors.tolist())
    assert got.dtype == np.int16
    assert set(np.abs(got[1]).tolist()) == {130}


def test_packed_kernel_empty_recording():
    im, cim = small_memories()
    out = encode_windows(make_quantized(np.zeros((0, 2), dtype=int)), im, cim, 3)
    assert out.shape == (0, 16) and out.dtype == np.int8


def test_packed_kernel_rejects_mismatched_dimensions():
    im = ItemMemory.build(["F4", "Cz"], seed=0, dimension=32)
    _, cim = small_memories(dim=16)
    with pytest.raises(ValueError, match="dimension 32 != level memory dimension 16"):
        encode_windows(make_quantized(np.zeros((3, 2), dtype=int)), im, cim, 3)


def test_level_table_built_once_per_memory_and_ngram_size():
    im, cim = small_memories()
    rec = make_quantized(np.zeros((6, 2), dtype=int))
    encode_windows(rec, im, cim, 3)
    table = _level_table(cim, 3)
    encode_windows(rec, im, cim, 3)
    assert _level_table(cim, 3) is table
    assert _level_table(cim, 2) is not table
    twin = ContinuousItemMemory(cim.vectors)
    assert _level_table(twin, 3) is not table
    assert np.array_equal(_level_table(twin, 3), table)


def test_level_table_is_read_only():
    _, cim = small_memories()
    table = _level_table(cim, 3)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1


def test_level_table_size_at_paper_defaults():
    # 8 shifted copies x 250 levels x (31 // 8 + 157 words of 8 bytes).
    cim = ContinuousItemMemory.build(250, seed=0, dimension=10000)
    table = _level_table(cim, 32)
    assert table.shape == (8, 250, 3 + 1256)
    assert table.dtype == np.uint8
    assert table.nbytes == 2_518_000


def test_level_table_build_adds_under_one_mib_beyond_the_table():
    # Packing every level's extended rows at once holds two unpacked
    # copies of them, about 2.5 MB at paper scale, beside the table.
    cim = ContinuousItemMemory.build(250, seed=0, dimension=10000)
    # Warm up on a twin, so the traced build is not served from the cache.
    _level_table(ContinuousItemMemory(cim.vectors), 32)
    tracemalloc.start()
    try:
        table = _level_table(cim, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes < 1024 * 1024
