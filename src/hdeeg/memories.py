"""Symbol, level, and class-prototype memories.

ItemMemory maps channel names to fixed random bipolar vectors, held as
int8.  ContinuousItemMemory maps quantization levels to bipolar vectors
whose pairwise distance grows with level distance (a cumulative flip
schedule); it holds them only as packed sign bits, np.packbits(v < 0),
one (levels, ceil(D / 8)) uint8 matrix (about 305 KiB at 250 levels and
D = 10,000, an eighth of the int8 matrix), and unpacks int8 rows only
when they are asked for.
AssociativeMemory keeps only an integer-sum prototype and a bundle count
per class.  It takes a patient's (W, D) window matrix whole: ``offer``
gates its rows in, ``similarities`` scores them as (W, 2) cosines (ADHD,
CONTROL), and ``score_each_change`` scores a sweep's held-out set after
each change.  Each casts a window to float64 once: ``offer`` one row at
a time, the scoring calls in blocks of at most 8 x D.
"""

import math

import numpy as np

from . import hv
from .common import Label, make_rng

__all__ = [
    "UntrainedMemoryError",
    "ItemMemory",
    "ContinuousItemMemory",
    "AssociativeMemory",
    "score_each_change",
]


class UntrainedMemoryError(RuntimeError):
    """Similarities were asked of an associative memory with an empty class prototype."""


# Row order of the prototypes and column order of similarities().
_LABELS = (Label.ADHD, Label.CONTROL)

# Levels packed or unpacked at a time: 16 x D bytes, 160 KB at D = 10,000.
_LEVEL_BLOCK = 16

# Rows cast to float64 per scoring block: 8 x D is 640 KB at D = 10,000,
# which fits in L2, so a call's temporary does not grow with W.
_SCORE_ROWS = 8


def _check_bipolar(vectors: np.ndarray, what: str) -> None:
    """ValueError unless every component of ``vectors`` is +1 or -1.

    Checked row by row, so no temporary of the whole matrix is made.  The
    encoder's XOR kernel is exact only on bipolar components.
    """
    for i, row in enumerate(vectors):
        if not hv.is_bipolar(row):
            raise ValueError(
                f"{what} is not bipolar: row {i} holds a component other than +1 or -1"
            )


class ItemMemory:
    """Immutable map from channel name to a random bipolar vector."""

    def __init__(self, channel_names, vectors: np.ndarray):
        names = tuple(str(n) for n in channel_names)
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[0] != len(names):
            raise ValueError("need one vector row per channel name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate channel names: {names}")
        if not names or any(not n for n in names):
            raise ValueError("channel names must be nonempty")
        _check_bipolar(vectors, "item_memory")
        self._names = names
        self._vectors = vectors.astype(hv.BIPOLAR_DTYPE, copy=True)
        self._vectors.flags.writeable = False

    @classmethod
    def build(cls, channel_names, seed: int, dimension: int) -> "ItemMemory":
        """Create one random bipolar vector per channel name.

        Rows are drawn in the order the names are given, so the mapping
        is fully determined by (names, seed, dimension).
        """
        names = tuple(channel_names)
        if not names:
            raise ValueError("at least one channel name is required")
        return cls(names, hv.random_bipolar(seed, len(names), dimension))

    @property
    def names(self) -> tuple:
        return self._names

    @property
    def dimension(self) -> int:
        return self._vectors.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (channels, dimension) matrix, row i for names[i]."""
        return self._vectors

    def vector(self, name: str) -> np.ndarray:
        """The stored vector for ``name``; identical array on every call."""
        try:
            row = self._names.index(name)
        except ValueError:
            raise ValueError(f"unknown channel {name!r}; have {self._names}") from None
        return self._vectors[row]

    def __contains__(self, name) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)


class ContinuousItemMemory:
    """Level codebook with distance proportional to level separation.

    Level 0 is a random bipolar vector.  A fixed random ordering of the
    component indices is drawn once; level k flips the sign of the first
    floor(k * (dimension/2) / (level_count-1)) indices of that ordering.
    Flip counts accumulate with k, so the Hamming distance from level 0
    grows linearly and the two extreme levels differ in exactly half the
    components (orthogonal endpoints).

    The levels are stored only as their packed sign bits; ``vectors``,
    ``rows`` and ``level`` unpack fresh read-only int8 copies.
    """

    def __init__(self, vectors: np.ndarray):
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[0] < 2:
            raise ValueError("need a (levels, dimension) matrix with at least 2 levels")
        _check_bipolar(vectors, "level_memory")
        # Row by row, so no whole-matrix copy or bool temporary is made.
        bits = np.empty((len(vectors), -(-vectors.shape[1] // 8)), dtype=np.uint8)
        for packed, row in zip(bits, vectors):
            packed[:] = np.packbits(row < 0)
        self._adopt(bits, vectors.shape[1])

    def _adopt(self, bits: np.ndarray, dimension: int) -> None:
        """Hold ``bits`` as the read-only packed sign bits of ``dimension``-wide levels."""
        self._bits, self._dimension = bits, dimension
        self._bits.flags.writeable = False

    @classmethod
    def build(cls, level_count: int, seed: int, dimension: int) -> "ContinuousItemMemory":
        """Set the levels' packed sign bits _LEVEL_BLOCK levels at a time:
        component j of level k is flipped when its place in the flip
        ordering is below level k's flip count."""
        if level_count < 2:
            raise ValueError(f"need at least 2 levels, got {level_count}")
        if dimension < 2 or dimension % 2 != 0:
            raise ValueError(f"dimension must be even and positive, got {dimension}")
        rng = make_rng(seed)
        negative = rng.integers(0, 2, size=dimension, dtype=hv.BIPOLAR_DTYPE) == 0
        place = np.empty(dimension, dtype=np.intp)
        place[rng.permutation(dimension)] = np.arange(dimension)
        flips = np.arange(level_count) * (dimension // 2) // (level_count - 1)
        bits = np.empty((level_count, -(-dimension // 8)), dtype=np.uint8)
        signs = np.empty((min(level_count, _LEVEL_BLOCK), dimension), dtype=bool)
        for k in range(0, level_count, _LEVEL_BLOCK):
            block = signs[: min(level_count - k, _LEVEL_BLOCK)]
            np.less(place, flips[k : k + len(block), np.newaxis], out=block)
            block ^= negative
            bits[k : k + len(block)] = np.packbits(block, axis=-1)
        memory = cls.__new__(cls)
        memory._adopt(bits, dimension)
        return memory

    @property
    def level_count(self) -> int:
        return self._bits.shape[0]

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def sign_bits(self) -> np.ndarray:
        """Read-only (level_count, ceil(dimension / 8)) uint8 matrix; row k is
        np.packbits(level k < 0), its padding bits zero."""
        return self._bits

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Read-only int8 (stop - start, dimension) copy of levels start..stop-1
        (clipped to the memory, like a slice), unpacked from the sign bits."""
        rows = np.unpackbits(self._bits[start:stop], axis=-1, count=self._dimension).view(np.int8)
        rows *= -2
        rows += 1
        rows.flags.writeable = False
        return rows

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (level_count, dimension) int8 matrix, row k for level k.

        Unpacked on every access: the memory keeps only the sign bits."""
        return self.rows(0, self.level_count)

    def level(self, k: int) -> np.ndarray:
        if not 0 <= k < self.level_count:
            raise ValueError(f"level index {k} out of range [0, {self.level_count})")
        return self.rows(k, k + 1)[0]


class AssociativeMemory:
    """Gated two-class prototype store.

    A prototype is the integer sum of the vectors bundled into it, held in
    float64 beside its bundle count; its norm is taken from it when needed.
    The first vector of a class is always accepted; afterwards a vector is
    bundled only when its cosine to its class prototype is below
    ``gate_threshold``, so near-duplicates do not pile up.  The other
    class's prototype is never touched by an ``offer``.
    """

    def __init__(self, dimension: int, gate_threshold: float = 0.5):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self.gate_threshold = float(gate_threshold)
        # One prototype row and one bundle count per class, in _LABELS order.
        self._prototypes = np.zeros((len(_LABELS), int(dimension)))
        self._counts = [0] * len(_LABELS)

    @classmethod
    def from_state(cls, prototype_adhd, prototype_control, counts, gate_threshold):
        """Rebuild a memory from serialized prototypes (components within +-2**53) and counts."""
        pa = np.asarray(prototype_adhd, dtype=hv.ACCUMULATOR_DTYPE)
        pc = np.asarray(prototype_control, dtype=hv.ACCUMULATOR_DTYPE)
        if pa.ndim != 1 or pa.shape != pc.shape:
            raise ValueError("prototypes must be equal-length 1-D vectors")
        if any((p > 2**53).any() or (p < -(2**53)).any() for p in (pa, pc)):
            raise ValueError("a prototype component lies beyond +-2**53, so float64 cannot hold it")
        am = cls(pa.shape[0], gate_threshold)
        am._prototypes[:] = (pa, pc)
        for row, label in enumerate(_LABELS):
            n = int(counts[label])
            if n < 0:
                raise ValueError(f"negative bundle count for {label}")
            am._counts[row] = n
        return am

    @property
    def dimension(self) -> int:
        return self._prototypes.shape[1]

    def prototype(self, label: Label) -> np.ndarray:
        """Read-only int64 copy of a class prototype; later offers do not change it."""
        copy = self._prototypes[_LABELS.index(Label(label))].astype(hv.ACCUMULATOR_DTYPE)
        copy.flags.writeable = False
        return copy

    def bundle_count(self, label: Label) -> int:
        return self._counts[_LABELS.index(Label(label))]

    def offer(self, vectors: np.ndarray, label: Label) -> int:
        """Gate each row of a (W, D) integer matrix, in order, into ``label``'s prototype.

        An empty prototype admits a row unconditionally; otherwise the row
        is bundled only when cosine(row, prototype so far) < gate_threshold.
        The matrix is checked before any row is bundled, so a rejected one
        leaves the memory as it was.  Returns how many rows were admitted.

        Each row is cast into one reused D-wide float64 buffer, and an
        admission adds its row's dot and square to the prototype's squared
        norm, a local like its norm.  Precondition: every component, squared
        norm and dot stays below 2**53 in magnitude, so the float64 sums are
        exact and each cosine is the one hv.cosine_similarity gives.
        """
        row = _LABELS.index(Label(label))
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.dimension:
            raise ValueError(f"expected shape (W, {self.dimension}), got {vectors.shape}")
        if not np.issubdtype(vectors.dtype, np.integer):
            raise ValueError("prototype updates take integer vectors")
        if not vectors.any(axis=1).all():
            raise ValueError("cannot accumulate an all-zero vector")
        proto = self._prototypes[row]
        square, before = float(proto @ proto), self._counts[row]
        norm = math.sqrt(square)
        qf = np.empty(self.dimension)
        for q in vectors:
            qf[...] = q
            # Python floats round each product, quotient and root as numpy does.
            dot, row_square = float(qf @ proto), float(qf @ qf)
            if self._counts[row]:
                if not norm:
                    raise hv.UndefinedSimilarityError("a class prototype cancelled to all zeros")
                if not dot / (math.sqrt(row_square) * norm) < self.gate_threshold:
                    continue
            proto += qf
            square += 2 * dot + row_square
            norm = math.sqrt(square)
            self._counts[row] += 1
        return self._counts[row] - before

    def similarities(self, vectors: np.ndarray) -> np.ndarray:
        """Cosines of each row of ``vectors`` to both prototypes, as (W, 2) float64.

        Column 0 is the ADHD prototype, column 1 the CONTROL one.  Requires
        both prototypes to be nonempty, else UntrainedMemoryError; an
        all-zero row raises UndefinedSimilarityError.  The rows are cast to
        float64 ``_SCORE_ROWS`` at a time into one reused buffer, so no call
        copies the whole matrix.  Encoded windows and prototypes are integer
        vectors whose dot products and squared norms stay below 2**53, so
        float64 sums them exactly in any order and each entry equals
        hv.cosine_similarity(q, p) bit for bit.
        """
        for label, count in zip(_LABELS, self._counts):
            if count == 0:
                raise UntrainedMemoryError(
                    f"prototype for {label} is empty; train on both classes before scoring"
                )
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.dimension:
            raise ValueError(f"expected shape (W, {self.dimension}), got {vectors.shape}")
        qn = np.empty(len(vectors))
        dots = np.empty((len(vectors), len(_LABELS)))
        for start, qf in _cast_blocks(vectors, _SCORE_ROWS):
            # From the block already cast, not by casting the rows again.
            qn[start : start + len(qf)] = np.sqrt(np.einsum("ij,ij->i", qf, qf))
            np.matmul(qf, self._prototypes.T, out=dots[start : start + len(qf)])
        pn = np.sqrt(np.einsum("ij,ij->i", self._prototypes, self._prototypes))
        _check_norms(qn, pn)
        return dots / (qn[:, np.newaxis] * pn)


def score_each_change(memory: AssociativeMemory, offers, held_out, score) -> list:
    """Offer each (vectors, label) of ``offers`` to an empty ``memory`` in
    order and return one score per offer.

    The first offer and each one that admitted rows (a step) get
    ``score(counts, sims)``, called in order, of the bundle counts and the
    held-out cosines ``similarities`` would give, or None while a
    prototype is empty; its errors are raised at the same step.  Any
    other offer left the memory as it was, so it repeats the score
    before it.  Each step keeps the prototype it changed as narrow
    integers; a batch of ``_SCORE_ROWS // 2`` steps casts each held-out
    window once, and a step's exact integer products with its prototype
    replace that prototype's column of the dots.
    """
    if any(memory._counts):
        raise ValueError("score_each_change needs an empty memory")
    held_out = [np.asarray(vectors) for vectors in held_out]
    for vectors in held_out:
        if vectors.ndim != 2 or vectors.shape[1] != memory.dimension:
            raise ValueError(f"expected shape (W, {memory.dimension}), got {vectors.shape}")
    norms = [np.sqrt(np.einsum("ij,ij->i", v, v, dtype=np.float64)) for v in held_out]
    # Each matrix's dots with both prototypes as of the last scored step.
    dots = [np.zeros((len(vectors), len(_LABELS))) for vectors in held_out]
    scores, steps, step_of_offer = [], [], []

    def score_steps():
        prototypes = np.array([proto for _, proto, _, _ in steps], dtype=np.float64)
        products = []
        for vectors in held_out:
            product = np.empty((len(vectors), len(steps)))
            for start, qf in _cast_blocks(vectors, _SCORE_ROWS - _SCORE_ROWS // 2):
                np.matmul(qf, prototypes.T, out=product[start : start + len(qf)])
            products.append(product)
        for step, (row, _, pn, counts) in enumerate(steps):
            for d, product in zip(dots, products):
                d[:, row] = product[:, step]
            sims = None
            if all(counts):
                sims = [d / (qn[:, np.newaxis] * pn) for d, qn in zip(dots, norms)]
            scores.append(score(counts, sims))
        steps.clear()

    for vectors, label in offers:
        row = _LABELS.index(Label(label))
        admitted = memory.offer(vectors, label)
        del vectors
        if admitted or not step_of_offer:
            proto = memory._prototypes[row]
            lo, hi = int(proto.min()), int(proto.max())  # -hi - 1 needs +hi's width
            proto = proto.astype(np.min_scalar_type(min(lo, -hi - 1)))
            pn = np.sqrt(np.einsum("ij,ij->i", memory._prototypes, memory._prototypes))
            counts = tuple(memory._counts)
            if all(counts):
                for qn in norms:
                    _check_norms(qn, pn)
            steps.append((row, proto, pn, counts))
            if len(steps) == _SCORE_ROWS // 2:
                score_steps()
        step_of_offer.append(len(scores) + len(steps) - 1)
    if steps:
        score_steps()
    return [scores[step] for step in step_of_offer]


def _cast_blocks(vectors: np.ndarray, rows: int):
    """Yield (start, block): ``vectors`` cast to float64 ``rows`` rows at a
    time into one reused buffer, so no whole float64 copy is made."""
    block = np.empty((min(len(vectors), rows), vectors.shape[1]))
    for start in range(0, len(vectors), rows):
        qf = block[: min(len(vectors) - start, rows)]
        qf[...] = vectors[start : start + len(qf)]
        yield start, qf


def _check_norms(window_norms: np.ndarray, prototype_norms: np.ndarray) -> None:
    """UndefinedSimilarityError for an all-zero window, then for a cancelled prototype."""
    if not window_norms.all():
        raise hv.UndefinedSimilarityError("cosine similarity of an all-zero vector is undefined")
    if not prototype_norms.all():
        raise hv.UndefinedSimilarityError("a class prototype cancelled to all zeros")
