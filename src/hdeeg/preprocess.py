"""Signal conditioning: sample drop, percentile clip, downsample, quantize.

The chain runs in that order. Each channel's range [low, high], its clip
thresholds and also its quantization range, is computed once over a pool
of recordings (normally the training split) and then applied to every
recording, so train and test data share one level scale.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .common import DataValidationError, Label

LEVEL_DTYPE = np.int32

__all__ = [
    "EegRecording",
    "QuantizedRecording",
    "ChannelStats",
    "drop_initial",
    "compute_channel_stats",
    "clip",
    "downsample_mean",
    "quantize",
    "preprocess_recording",
]


@dataclass(frozen=True, eq=False)
class EegRecording:
    """Continuous multichannel recording, one column per channel (microvolts)."""

    patient_id: str
    label: Label
    channels: tuple
    samples: np.ndarray  # (samples, channels) float64
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "label", Label(self.label))
        if samples.ndim != 2 or samples.shape[1] != len(self.channels):
            raise ValueError(
                f"{self.patient_id}: samples must be (n, {len(self.channels)}), got {samples.shape}"
            )
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError(
                f"{self.patient_id}: sample rate must be positive and finite, "
                f"got {self.sample_rate_hz}"
            )


@dataclass(frozen=True, eq=False)
class QuantizedRecording:
    """Recording reduced to per-sample level indices in [0, level_count)."""

    patient_id: str
    label: Label
    channels: tuple
    levels: np.ndarray  # (samples, channels) int
    level_count: int


@dataclass(frozen=True)
class ChannelStats:
    """One channel's range [low, high]: its clip thresholds and quantization range.

    Both values must be finite, with low < high, and high - low must be
    finite too; otherwise DataValidationError naming the channel.  So a
    channel that is constant over the statistics pool, whose range is one
    point, cannot be quantized and is a data error, and so is one whose
    range is wider than float64.

    to_dict writes the range twice, as the clip and the quantization pair,
    so snapshots and preprocess stats.json keep their bytes; from_dict
    reads the clip pair.
    """

    channel: str
    low: float
    high: float

    def __post_init__(self):
        values = (self.low, self.high)
        if not all(math.isfinite(v) for v in values):
            raise DataValidationError(f"channel {self.channel}: non-finite channel stats {values}")
        if self.high <= self.low:
            raise DataValidationError(
                f"channel {self.channel}: degenerate quantization range [{self.low}, {self.high}]"
            )
        if not math.isfinite(float(self.high) - float(self.low)):
            raise DataValidationError(
                f"channel {self.channel}: quantization range "
                f"[{self.low}, {self.high}] is wider than float64 holds"
            )

    def to_dict(self) -> dict:
        lo, hi = float(self.low), float(self.high)
        return dict(channel=str(self.channel), clip_low=lo, clip_high=hi, quant_min=lo, quant_max=hi)

    @classmethod
    def from_dict(cls, doc: dict) -> "ChannelStats":
        return cls(str(doc["channel"]), float(doc["clip_low"]), float(doc["clip_high"]))


def drop_initial(rec: EegRecording, drop_samples: int) -> EegRecording:
    """Remove the first ``drop_samples`` samples (transient suppression).

    The result's samples are a view of ``rec.samples``, not a copy: no
    step of the chain writes samples in place (clip, downsample_mean and
    compute_channel_stats each build new arrays).
    """
    n = rec.samples.shape[0]
    if not 0 <= drop_samples < n:
        raise ValueError(f"{rec.patient_id}: cannot drop {drop_samples} of {n} samples")
    return replace(rec, samples=rec.samples[drop_samples:])


def _nearest_rank(sorted_pool: np.ndarray, pct: float) -> float:
    # Nearest-rank percentile: value at rank ceil(pct/100 * n) (1-based),
    # clamped to the first element for pct = 0.
    n = sorted_pool.shape[0]
    rank = min(max(math.ceil(pct * n / 100.0), 1), n)
    return float(sorted_pool[rank - 1])


def compute_channel_stats(recordings, clip_low_pct: float = 0.5, clip_high_pct: float = 99.5):
    """Per-channel range [low, high] over a pool.

    Samples of all recordings are pooled per channel.  Clip thresholds are
    nearest-rank percentiles of the pool; the quantization range is the
    observed [min, max] of the pooled samples after clipping, which is the
    clip thresholds themselves: both are elements of the pool with low <=
    high, so clipping maps the pool's extremes onto them.  So one range
    serves both, and the result is a tuple of ChannelStats(channel, low,
    high) in channel order.
    """
    recordings = list(recordings)
    if not recordings:
        raise ValueError("need at least one recording to compute channel stats")
    if not 0.0 <= clip_low_pct < clip_high_pct <= 100.0:
        raise ValueError(
            f"percentiles must satisfy 0 <= low < high <= 100, got ({clip_low_pct}, {clip_high_pct})"
        )
    channels = recordings[0].channels
    for rec in recordings:
        if rec.channels != channels:
            raise ValueError(
                f"{rec.patient_id}: channels {rec.channels} differ from {channels}"
            )
    stats = []
    for ci, name in enumerate(channels):
        pool = np.concatenate([rec.samples[:, ci] for rec in recordings])
        pool.sort()
        lo = _nearest_rank(pool, clip_low_pct)
        hi = _nearest_rank(pool, clip_high_pct)
        stats.append(ChannelStats(name, lo, hi))
    return tuple(stats)


def _ranges(rec, stats):
    """The (1, channels) rows of low and high values in ``rec``'s channel order."""
    by_name = {s.channel: (s.low, s.high) for s in stats}
    missing = [c for c in rec.channels if c not in by_name]
    if missing:
        raise ValueError(f"{rec.patient_id}: no channel stats for {missing}")
    ranges = np.array([by_name[c] for c in rec.channels], dtype=np.float64).reshape(-1, 2)
    return ranges[np.newaxis, :, 0], ranges[np.newaxis, :, 1]


def clip(rec: EegRecording, stats) -> EegRecording:
    """Limit each channel to its [low, high] range."""
    lo, hi = _ranges(rec, stats)
    return replace(rec, samples=np.clip(rec.samples, lo, hi))


def downsample_mean(rec: EegRecording, factor: int) -> EegRecording:
    """Average non-overlapping blocks of ``factor`` consecutive samples.

    A block whose sum overflows float64 is a DataValidationError naming
    the patient and channel.
    """
    if factor < 1:
        raise ValueError(f"downsample factor must be at least 1, got {factor}")
    n, ch = rec.samples.shape
    if n % factor != 0:
        raise ValueError(f"{rec.patient_id}: {n} samples not divisible by factor {factor}")
    with np.errstate(over="ignore"):
        out = rec.samples.reshape(n // factor, factor, ch).mean(axis=1)
    if not np.isfinite(out).all():
        block, ci = np.argwhere(~np.isfinite(out))[0]
        raise DataValidationError(
            f"{rec.patient_id}: channel {rec.channels[ci]}: the sum of {factor}-sample "
            f"block {int(block)} overflows float64"
        )
    return replace(rec, samples=out, sample_rate_hz=rec.sample_rate_hz / factor)


def quantize(rec: EegRecording, stats, level_count: int) -> QuantizedRecording:
    """Map each sample to a level index via linear quantization.

    level = clamp(floor((x - low) / (high - low) * level_count),
    0, level_count - 1), per channel.
    """
    if level_count < 2:
        raise ValueError(f"need at least 2 levels, got {level_count}")
    lo, hi = _ranges(rec, stats)
    scaled = (rec.samples - lo) / (hi - lo) * level_count
    levels = np.clip(np.floor(scaled), 0, level_count - 1).astype(LEVEL_DTYPE)
    return QuantizedRecording(
        patient_id=rec.patient_id,
        label=rec.label,
        channels=rec.channels,
        levels=levels,
        level_count=int(level_count),
    )


def preprocess_recording(
    rec: EegRecording,
    stats,
    *,
    drop_samples: int,
    downsample_factor: int,
    level_count: int,
) -> QuantizedRecording:
    """Full chain: drop, clip, downsample, quantize.

    ``stats`` must come from compute_channel_stats over recordings that
    already had their initial samples dropped.
    """
    conditioned = downsample_mean(
        clip(drop_initial(rec, drop_samples), stats), downsample_factor
    )
    return quantize(conditioned, stats, level_count)
