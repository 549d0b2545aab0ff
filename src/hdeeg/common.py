"""Shared vocabulary: class labels, the data error, seeded randomness helpers.

Every random draw in the package flows through :func:`make_rng`, a PCG64
generator seeded with an unsigned 64-bit integer.  Independent streams for
different purposes (item memory, level memory, splits, synthetic noise) are
derived from one root seed with :func:`derive_seed`, so a single ``--seed``
reproduces an entire experiment bit for bit.

Annotations that name ``np.random`` are quoted: numpy 2 loads
``numpy.random`` on first use, so commands that draw nothing (eval,
preprocess, inspect-model) never load it.
"""

import hashlib
from enum import Enum

import numpy as np

MAX_SEED = 2**64


class DataValidationError(ValueError):
    """Dataset contents violate the format contract."""


class Label(str, Enum):
    """Diagnostic class of a recording. ADHD is the positive class."""

    ADHD = "ADHD"
    CONTROL = "CONTROL"

    def __str__(self) -> str:
        return self.value


def check_seed(seed: int) -> int:
    """Validate that ``seed`` is an unsigned 64-bit integer and return it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return int(seed)


def make_rng(seed: int) -> "np.random.Generator":
    """PCG64 generator for the given seed.

    PCG64 is the one generator used everywhere; values are drawn in
    C order (for a matrix of vectors: vector by vector, components in
    ascending index order), which pins down every random artifact for a
    given seed.
    """
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def derive_seed(root: int, purpose: str) -> int:
    """Derive an independent 64-bit seed for a named purpose.

    BLAKE2b keyed with the root seed (8 bytes little-endian), hashing the
    purpose string; the first 8 digest bytes, little-endian, become the
    derived seed.  Stable across platforms and Python versions.
    """
    key = check_seed(root).to_bytes(8, "little")
    digest = hashlib.blake2b(purpose.encode("utf-8"), key=key, digest_size=8)
    return int.from_bytes(digest.digest(), "little")
