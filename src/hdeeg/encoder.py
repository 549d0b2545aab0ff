"""Spatio-temporal encoding of quantized recordings into hypervectors.

Each channel is cut into non-overlapping n-sample windows.  A window is
encoded by binding its level vectors with position-dependent rotations
(the oldest sample rotated most, the newest not at all), the result is
bound with the channel's item vector, and the per-channel vectors of one
window index are bundled into a single integer vector for that window.
"""

import numpy as np

from . import hv
from .memories import ContinuousItemMemory, ItemMemory
from .preprocess import QuantizedRecording

__all__ = ["encode_windows"]


def encode_windows(
    rec: QuantizedRecording, im: ItemMemory, cim: ContinuousItemMemory, ngram_size: int
) -> np.ndarray:
    """Encode every window of a recording; row w of the result is window w.

    Returns a (windows, dimension) int64 matrix.  Channels are bound to
    their item vectors by name, so the column order of ``rec.levels``
    only has to match ``rec.channels``.  Sample t of n (1-based)
    contributes its level vector rotated right by n - t: the running
    product of a channel is rotated one step before each new factor,
    which gives the older factors one extra rotation per remaining step.
    """
    if ngram_size < 1:
        raise ValueError(f"ngram size must be at least 1, got {ngram_size}")
    if rec.level_count > cim.level_count:
        raise ValueError(
            f"{rec.patient_id}: recording has {rec.level_count} levels, "
            f"memory only {cim.level_count}"
        )
    levels = np.asarray(rec.levels)
    if levels.ndim != 2 or not rec.channels or levels.shape[1] != len(rec.channels):
        raise ValueError(
            f"{rec.patient_id}: levels must be (samples, {len(rec.channels)}) "
            f"with at least one channel, got {levels.shape}"
        )
    n_samples, n_channels = levels.shape
    if n_samples % ngram_size != 0:
        raise ValueError(
            f"{rec.patient_id}: {n_samples} samples not divisible by ngram size {ngram_size}"
        )
    if not np.issubdtype(levels.dtype, np.integer):
        raise ValueError(f"{rec.patient_id}: levels must be integers")
    if levels.size and (levels.min() < 0 or levels.max() >= cim.level_count):
        raise ValueError(
            f"{rec.patient_id}: levels outside [0, {cim.level_count}): "
            f"[{int(levels.min())}, {int(levels.max())}]"
        )
    windows = levels.reshape(n_samples // ngram_size, ngram_size, n_channels)
    out = np.zeros((windows.shape[0], cim.dimension), dtype=hv.ACCUMULATOR_DTYPE)
    for c, name in enumerate(rec.channels):
        channel_vector = im.vector(name)
        temporal = cim.vectors[windows[:, 0, c]]
        for t in range(1, ngram_size):
            temporal = np.roll(temporal, 1, axis=1) * cim.vectors[windows[:, t, c]]
        out += temporal * channel_vector
    return out
