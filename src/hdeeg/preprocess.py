"""Signal conditioning: sample drop, percentile clip, downsample, quantize.

The chain runs in that order. Clip thresholds and the quantization range
are channel statistics computed once over a pool of recordings (normally
the training split) and then applied to every recording, so train and
test data share one level scale.
"""

import math
from dataclasses import dataclass, fields, replace

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
    """Clip thresholds and quantization range for one channel.

    Every value must be finite, with clip_low <= clip_high and quant_min <
    quant_max, and quant_max - quant_min must be finite too; otherwise
    DataValidationError naming the channel.  So a channel that is constant
    over the statistics pool, whose range is one point, cannot be quantized
    and is a data error, and so is one whose range is wider than float64.
    """

    channel: str
    clip_low: float
    clip_high: float
    quant_min: float
    quant_max: float

    def __post_init__(self):
        values = (self.clip_low, self.clip_high, self.quant_min, self.quant_max)
        if not all(math.isfinite(v) for v in values):
            raise DataValidationError(f"channel {self.channel}: non-finite channel stats {values}")
        if self.clip_high < self.clip_low:
            raise DataValidationError(
                f"channel {self.channel}: clip range [{self.clip_low}, {self.clip_high}] is reversed"
            )
        if self.quant_max <= self.quant_min:
            raise DataValidationError(
                f"channel {self.channel}: degenerate quantization range "
                f"[{self.quant_min}, {self.quant_max}]"
            )
        if not math.isfinite(float(self.quant_max) - float(self.quant_min)):
            raise DataValidationError(
                f"channel {self.channel}: quantization range "
                f"[{self.quant_min}, {self.quant_max}] is wider than float64 holds"
            )

    def to_dict(self) -> dict:
        return {f.name: f.type(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ChannelStats":
        return cls(**{f.name: f.type(doc[f.name]) for f in fields(cls)})


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
    """Per-channel clip thresholds and quantization range over a pool.

    Samples of all recordings are pooled per channel.  Clip thresholds are
    nearest-rank percentiles of the pool; the quantization range is the
    observed [min, max] of the pooled samples after clipping, which is the
    clip thresholds themselves: both are elements of the pool with low <=
    high, so clipping maps the pool's extremes onto them.  Returns a tuple
    of ChannelStats in channel order.
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
        stats.append(
            ChannelStats(channel=name, clip_low=lo, clip_high=hi, quant_min=lo, quant_max=hi)
        )
    return tuple(stats)


def _stats_by_channel(rec, stats):
    by_name = {s.channel: s for s in stats}
    missing = [c for c in rec.channels if c not in by_name]
    if missing:
        raise ValueError(f"{rec.patient_id}: no channel stats for {missing}")
    return [by_name[c] for c in rec.channels]


def clip(rec: EegRecording, stats) -> EegRecording:
    """Limit each channel to its [clip_low, clip_high] band."""
    ordered = _stats_by_channel(rec, stats)
    lo = np.array([s.clip_low for s in ordered])
    hi = np.array([s.clip_high for s in ordered])
    return replace(rec, samples=np.clip(rec.samples, lo[np.newaxis, :], hi[np.newaxis, :]))


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

    level = clamp(floor((x - quant_min) / (quant_max - quant_min) * level_count),
    0, level_count - 1), per channel.
    """
    if level_count < 2:
        raise ValueError(f"need at least 2 levels, got {level_count}")
    ordered = _stats_by_channel(rec, stats)
    lo = np.array([s.quant_min for s in ordered])
    hi = np.array([s.quant_max for s in ordered])
    span = hi - lo
    scaled = (rec.samples - lo[np.newaxis, :]) / span[np.newaxis, :] * level_count
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
