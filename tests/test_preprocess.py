"""Signal chain: drop, percentile clip, downsample, quantize."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdeeg import (
    ChannelStats,
    DataValidationError,
    EegRecording,
    Label,
    clip,
    compute_channel_stats,
    downsample_mean,
    drop_initial,
    preprocess_recording,
    quantize,
)


def make_rec(samples, channels=("F4",), pid="p1", rate=256.0, label=Label.ADHD):
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    return EegRecording(
        patient_id=pid, label=label, channels=channels, samples=arr, sample_rate_hz=rate
    )


# oracle: nearest-rank percentile on a sorted copy, 1-based rank
def naive_percentile(values, pct):
    ordered = sorted(values)
    rank = min(max(math.ceil(pct * len(ordered) / 100.0), 1), len(ordered))
    return ordered[rank - 1]


# ------------------------------------------------------------------- drop


def test_drop_initial():
    rec = make_rec([1.0, 2.0, 3.0, 4.0, 5.0])
    out = drop_initial(rec, 2)
    assert out.samples[:, 0].tolist() == [3.0, 4.0, 5.0]
    assert out.sample_rate_hz == rec.sample_rate_hz


def test_drop_initial_bounds():
    rec = make_rec([1.0, 2.0])
    with pytest.raises(ValueError):
        drop_initial(rec, 2)
    with pytest.raises(ValueError):
        drop_initial(rec, -1)
    assert np.array_equal(drop_initial(rec, 0).samples, rec.samples)


# ------------------------------------------------------------------ stats


def test_channel_stats_nearest_rank_example():
    # 101 integer values 0..100: the (1, 99) percentiles are 1 and 99.
    rec = make_rec(np.arange(101, dtype=float))
    (stats,) = compute_channel_stats([rec], 1.0, 99.0)
    assert stats.clip_low == 1.0
    assert stats.clip_high == 99.0
    # After clipping, the pool spans exactly the thresholds.
    assert stats.quant_min == 1.0
    assert stats.quant_max == 99.0


def test_channel_stats_extreme_percentiles_noop():
    rec = make_rec([5.0, -3.0, 12.0, 0.0])
    (stats,) = compute_channel_stats([rec], 0.0, 100.0)
    assert stats.clip_low == -3.0
    assert stats.clip_high == 12.0
    assert stats.quant_min == -3.0
    assert stats.quant_max == 12.0


def test_channel_stats_pools_across_recordings():
    a = make_rec(np.arange(0, 50, dtype=float), pid="a")
    b = make_rec(np.arange(50, 101, dtype=float), pid="b")
    (stats,) = compute_channel_stats([a, b], 1.0, 99.0)
    pooled = list(range(101))
    assert stats.clip_low == naive_percentile(pooled, 1.0)
    assert stats.clip_high == naive_percentile(pooled, 99.0)


def test_channel_stats_per_channel():
    rec = make_rec(
        np.column_stack([np.arange(10, dtype=float), np.arange(10, dtype=float) * 100]),
        channels=("F4", "Cz"),
    )
    f4, cz = compute_channel_stats([rec], 0.0, 100.0)
    assert f4.channel == "F4" and f4.quant_max == 9.0
    assert cz.channel == "Cz" and cz.quant_max == 900.0


def test_channel_stats_validation():
    rec = make_rec([1.0, 2.0])
    with pytest.raises(ValueError):
        compute_channel_stats([], 0.5, 99.5)
    with pytest.raises(ValueError):
        compute_channel_stats([rec], 50.0, 50.0)
    with pytest.raises(ValueError):
        compute_channel_stats([rec], -1.0, 99.0)
    other = make_rec([1.0, 2.0], channels=("Cz",), pid="p2")
    with pytest.raises(ValueError):
        compute_channel_stats([rec, other], 0.5, 99.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "values, match",
    [
        ((NAN, 5.0, -5.0, 5.0), "non-finite"),
        ((-5.0, INF, -5.0, 5.0), "non-finite"),
        ((-5.0, 5.0, -INF, 5.0), "non-finite"),
        ((-5.0, 5.0, -5.0, NAN), "non-finite"),
        ((5.0, -5.0, -5.0, 5.0), "clip range .* is reversed"),
        ((-5.0, 5.0, 2.0, 2.0), "degenerate quantization range"),
        ((-5.0, 5.0, 5.0, -5.0), "degenerate quantization range"),
    ],
)
def test_channel_stats_reject_unusable_values(values, match):
    with pytest.raises(DataValidationError, match=f"channel Cz: {match}"):
        ChannelStats("Cz", *values)


def test_channel_stats_allow_one_point_clip_range():
    # Only the quantization range must be wide; clipping to a point is legal.
    assert ChannelStats("Cz", 1.0, 1.0, -5.0, 5.0).clip_high == 1.0


def test_constant_channel_is_data_error():
    rec = make_rec(np.column_stack([np.arange(10.0), np.full(10, 4.0)]), channels=("F4", "Cz"))
    match = r"channel Cz: degenerate quantization range \[4.0, 4.0\]"
    with pytest.raises(DataValidationError, match=match):
        compute_channel_stats([rec])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        min_size=3,
        max_size=200,
    ),
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=51.0, max_value=100.0),
)
@example(values=[3.0, 3.0, 3.0], low=0.5, high=99.5)
def test_channel_stats_match_oracle(values, low, high):
    rec = make_rec(values)
    lo, hi = naive_percentile(values, low), naive_percentile(values, high)
    clipped = [min(max(v, lo), hi) for v in values]
    if min(clipped) == max(clipped):
        # A pool constant between the clip percentiles cannot be quantized.
        with pytest.raises(DataValidationError, match="channel F4: degenerate quantization range"):
            compute_channel_stats([rec], low, high)
        return
    (stats,) = compute_channel_stats([rec], low, high)
    assert stats.clip_low == lo
    assert stats.clip_high == hi
    assert stats.quant_min == min(clipped)
    assert stats.quant_max == max(clipped)


# ------------------------------------------------------------------- clip


def test_clip_applies_bounds():
    rec = make_rec([-10.0, 0.0, 10.0])
    stats = (ChannelStats("F4", -5.0, 5.0, -5.0, 5.0),)
    out = clip(rec, stats)
    assert out.samples[:, 0].tolist() == [-5.0, 0.0, 5.0]


def test_clip_missing_channel():
    rec = make_rec([1.0], channels=("F4",))
    stats = (ChannelStats("Cz", -5.0, 5.0, -5.0, 5.0),)
    with pytest.raises(ValueError, match="F4"):
        clip(rec, stats)


# ------------------------------------------------------------- downsample


def test_downsample_block_mean():
    rec = make_rec([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], rate=256.0)
    out = downsample_mean(rec, 8)
    assert out.samples[:, 0].tolist() == [4.5]
    assert out.sample_rate_hz == 32.0


def test_downsample_requires_divisibility():
    rec = make_rec([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        downsample_mean(rec, 2)
    with pytest.raises(ValueError):
        downsample_mean(rec, 0)


def test_downsample_identity_factor():
    rec = make_rec([1.0, 2.0, 3.0])
    out = downsample_mean(rec, 1)
    assert np.array_equal(out.samples, rec.samples)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)
def test_downsample_preserves_mean(factor, blocks, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 50, size=blocks * factor)
    rec = make_rec(data)
    out = downsample_mean(rec, factor)
    assert out.samples.shape == (blocks, 1)
    assert out.samples.mean() == pytest.approx(data.mean(), rel=1e-9, abs=1e-9)


# --------------------------------------------------------------- quantize


def quant_stats(lo, hi, channel="F4"):
    return (ChannelStats(channel, lo, hi, lo, hi),)


def test_quantize_midpoint():
    rec = make_rec([0.5])
    q = quantize(rec, quant_stats(0.0, 1.0), 250)
    assert q.levels[0, 0] == 125


def test_quantize_endpoints_and_clamp():
    rec = make_rec([0.0, 1.0, -5.0, 7.0])
    q = quantize(rec, quant_stats(0.0, 1.0), 250)
    assert q.levels[:, 0].tolist() == [0, 249, 0, 249]
    assert q.level_count == 250


def test_quantize_degenerate_range():
    rec = make_rec([1.0])
    with pytest.raises(ValueError):
        quantize(rec, quant_stats(3.0, 3.0), 250)
    with pytest.raises(ValueError):
        quantize(rec, quant_stats(0.0, 1.0), 1)


def test_quantize_scalar_oracle():
    lo, hi, levels = -4.0, 6.0, 17
    xs = np.linspace(-6.0, 8.0, 113)
    q = quantize(make_rec(xs), quant_stats(lo, hi), levels)
    for x, got in zip(xs, q.levels[:, 0]):
        expect = math.floor((x - lo) / (hi - lo) * levels)
        expect = min(max(expect, 0), levels - 1)
        assert got == expect


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=64,
    ),
    st.integers(min_value=2, max_value=300),
)
def test_quantize_monotone_and_in_range(values, levels):
    q = quantize(make_rec(values), quant_stats(-100.0, 100.0), levels)
    out = q.levels[:, 0]
    assert out.min() >= 0 and out.max() <= levels - 1
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(out[order]) >= 0)


# ------------------------------------------------------------ full chain


def test_full_chain_shapes():
    rng = np.random.default_rng(0)
    raw = rng.normal(0, 30, size=(7680, 2))
    rec = make_rec(raw, channels=("F4", "Cz"))
    dropped = drop_initial(rec, 512)
    assert dropped.samples.shape == (7168, 2)
    stats = compute_channel_stats([dropped], 0.5, 99.5)
    q = preprocess_recording(
        rec, stats, drop_samples=512, downsample_factor=8, level_count=250
    )
    assert q.levels.shape == (896, 2)
    assert q.levels.min() >= 0 and q.levels.max() <= 249
    assert q.channels == ("F4", "Cz")
    assert q.label is rec.label


def test_recording_validation():
    with pytest.raises(ValueError):
        EegRecording("p", Label.ADHD, ("F4", "Cz"), np.zeros((4, 1)), 256.0)
    with pytest.raises(ValueError):
        EegRecording("p", Label.ADHD, ("F4",), np.zeros((4, 1)), 0.0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_recording_rejects_non_finite_rate(rate):
    with pytest.raises(ValueError, match="sample rate must be positive and finite"):
        EegRecording("p", Label.ADHD, ("F4",), np.zeros((4, 1)), rate)
