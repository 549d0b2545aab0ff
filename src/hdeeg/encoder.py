"""Spatio-temporal encoding of quantized recordings into hypervectors.

Each channel is cut into non-overlapping n-sample windows.  A window is
encoded by binding its level vectors with position-dependent rotations
(the oldest sample rotated most, the newest not at all), the result is
bound with the channel's item vector, and the per-channel vectors of one
window index are bundled into a single integer vector for that window.

The kernel works on sign bits.  Writing a bipolar component x as the bit
b = (x < 0), a product of bipolar components is the parity (XOR) of their
bits, and a sum of C bipolar components is C - 2 * (bits set).  So each
channel's bound vector is an XOR of packed rows, and only the final sum
over channels is unpacked, into the narrowest signed type holding
[-C, C]; the associative memory takes those sums as they are.

Rotations become offsets.  With m = n - 1, extend each level vector v to
the row e[j] = v[(j - m) mod D]; rotating v right by m - s is then the D
bits of e that start at bit s.  Sample t (0-based) is rotated by m - t, so
it reads e from bit t: byte t // 8 of a copy of the packed row shifted
left by t % 8 bits.  The eight shifted copies of every level's packed
row, 8 x levels x (m // 8 + ceil(D / 64) * 8) bytes (about 2.4 MiB at
D = 10,000, 250 levels, n = 32), are built once per level memory and n.
"""

import numpy as np

from .memories import ContinuousItemMemory, ItemMemory
from .preprocess import QuantizedRecording

__all__ = ["encode_windows"]


def _row_bytes(dimension: int) -> int:
    """Packed width of one D-bit vector, padded to whole uint64 words."""
    return -(-dimension // 64) * 8


def _level_table(cim: ContinuousItemMemory, ngram_size: int) -> np.ndarray:
    """Read-only (8, levels, bytes) uint8 table; [r, k] is level k's packed
    extended row shifted left by r bits.  Cached on ``cim`` per n."""
    table = cim._packed_tables.get(ngram_size)
    if table is not None:
        return table
    d, m = cim.dimension, ngram_size - 1
    width = m // 8 + _row_bytes(d)
    # One spare byte per row feeds the last byte of each shifted copy.
    extended = (np.arange(8 * (width + 1)) - m) % d
    packed = np.packbits((cim.vectors < 0)[:, extended].reshape(-1))
    packed = packed.reshape(cim.level_count, width + 1)
    table = np.empty((8, cim.level_count, width), dtype=np.uint8)
    table[0] = packed[:, :-1]
    for r in range(1, 8):
        np.left_shift(packed[:, :-1], r, out=table[r])
        table[r] |= packed[:, 1:] >> (8 - r)
    table.flags.writeable = False
    cim._packed_tables[ngram_size] = table
    return table


def encode_windows(
    rec: QuantizedRecording, im: ItemMemory, cim: ContinuousItemMemory, ngram_size: int
) -> np.ndarray:
    """Encode every window of a recording; row w of the result is window w.

    Returns a (windows, dimension) matrix of window sums in [-C, C] for C
    channels, typed np.min_scalar_type(-C - 1): int8 up to 127 channels,
    int16 beyond.  Channels are bound to their item vectors by name, so
    the column order of ``rec.levels`` only has to match ``rec.channels``.
    Sample t of n (1-based) contributes its level vector rotated right by
    n - t: the running product of a channel is rotated one step before
    each new factor, which gives the older factors one extra rotation per
    remaining step.
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
    d = cim.dimension
    items = np.stack([im.vector(name) for name in rec.channels])
    if im.dimension != d:
        raise ValueError(f"item memory dimension {im.dimension} != level memory dimension {d}")
    windows = levels.reshape(n_samples // ngram_size, ngram_size, n_channels)
    table = _level_table(cim, ngram_size)
    width = _row_bytes(d)
    # bits[w, c] is the packed bound vector of channel c in window w.
    bits = np.zeros((windows.shape[0], n_channels, width), dtype=np.uint8)
    bits[:, :, : -(-d // 8)] = np.packbits(items < 0, axis=-1)
    acc = bits.view(np.uint64)
    for t in range(ngram_size):
        g, r = divmod(t, 8)
        acc ^= table[r, :, g : g + width][windows[:, t]].view(np.uint64)
    # C - 2 * (bits set) lies in [-C, C]; count in the narrowest signed type
    # holding that range (wrapping in between is exact).
    total = np.add.reduce(
        np.unpackbits(bits, axis=-1, count=d), axis=1, dtype=np.min_scalar_type(-n_channels - 1)
    )
    total *= -2
    total += n_channels
    return total
