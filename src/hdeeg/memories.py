"""Symbol, level, and class-prototype memories.

ItemMemory maps channel names to fixed random bipolar vectors.
ContinuousItemMemory maps quantization levels to bipolar vectors whose
pairwise distance grows with level distance (a cumulative flip schedule).
AssociativeMemory keeps one integer-sum prototype per class and takes
a patient's (W, D) window matrix whole: ``offer`` gates its rows in,
``similarities`` scores them as (W, 2) cosines (ADHD, CONTROL).  Both
score through ``_cosines``, which casts ``_SCORE_ROWS`` rows at a time
to float64, so a ``similarities`` call's temporary is 8 x D float64
whatever W is; ``offer`` scores one row per gate call.
"""

import numpy as np

from . import hv
from .common import Label, make_rng

__all__ = [
    "UntrainedMemoryError",
    "ItemMemory",
    "ContinuousItemMemory",
    "AssociativeMemory",
]


class UntrainedMemoryError(RuntimeError):
    """Similarities were asked of an associative memory with an empty class prototype."""


# Row order of the prototypes and column order of similarities().
_LABELS = (Label.ADHD, Label.CONTROL)

# Rows cast to float64 per scoring block: 8 x D is 640 KB at D = 10,000,
# which fits in L2, so a call's temporary does not grow with W.
_SCORE_ROWS = 8


def _bipolar_copy(vectors: np.ndarray, what: str) -> np.ndarray:
    """Read-only int8 copy of ``vectors``; ValueError unless every component is +1 or -1.

    Checked row by row, so no temporary of the whole matrix is made.  The
    encoder's XOR kernel is exact only on bipolar components.
    """
    for i, row in enumerate(vectors):
        if not hv.is_bipolar(row):
            raise ValueError(
                f"{what} is not bipolar: row {i} holds a component other than +1 or -1"
            )
    copy = vectors.astype(hv.BIPOLAR_DTYPE, copy=True)
    copy.flags.writeable = False
    return copy


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
        self._names = names
        self._vectors = _bipolar_copy(vectors, "item_memory")

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
    """

    def __init__(self, vectors: np.ndarray):
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[0] < 2:
            raise ValueError("need a (levels, dimension) matrix with at least 2 levels")
        self._vectors = _bipolar_copy(vectors, "level_memory")
        # Packed level tables of encoder._level_table, keyed by ngram size.
        self._packed_tables: dict = {}

    @classmethod
    def build(cls, level_count: int, seed: int, dimension: int) -> "ContinuousItemMemory":
        if level_count < 2:
            raise ValueError(f"need at least 2 levels, got {level_count}")
        if dimension < 2 or dimension % 2 != 0:
            raise ValueError(f"dimension must be even and positive, got {dimension}")
        rng = make_rng(seed)
        base = rng.integers(0, 2, size=dimension, dtype=hv.BIPOLAR_DTYPE) * 2 - 1
        flip_order = rng.permutation(dimension)
        levels = np.repeat(base[np.newaxis, :], level_count, axis=0)
        half = dimension // 2
        for k in range(1, level_count):
            flips = (k * half) // (level_count - 1)
            levels[k, flip_order[:flips]] *= -1
        return cls(levels)

    @property
    def level_count(self) -> int:
        return self._vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self._vectors.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (level_count, dimension) matrix, row k for level k."""
        return self._vectors

    def level(self, k: int) -> np.ndarray:
        if not 0 <= k < self.level_count:
            raise ValueError(f"level index {k} out of range [0, {self.level_count})")
        return self._vectors[k]


class AssociativeMemory:
    """Gated two-class prototype store.

    A prototype is the integer sum of the vectors bundled into it, held in
    float64 beside its norm.  The first vector of a class is always
    accepted; afterwards a vector is bundled only when its cosine to its
    class prototype is below ``gate_threshold``, so near-duplicates do not
    pile up.  The other class's prototype is never touched by an ``offer``.
    """

    def __init__(self, dimension: int, gate_threshold: float = 0.5):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self._dimension = int(dimension)
        self.gate_threshold = float(gate_threshold)
        # One prototype row and its norm per class, in _LABELS order.
        self._prototypes = np.zeros((len(_LABELS), self._dimension))
        self._norms = np.zeros(len(_LABELS))
        self._counts = {Label.ADHD: 0, Label.CONTROL: 0}

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
        am._norms[:] = np.sqrt(np.einsum("ij,ij->i", am._prototypes, am._prototypes))
        for label in _LABELS:
            n = int(counts[label])
            if n < 0:
                raise ValueError(f"negative bundle count for {label}")
            am._counts[label] = n
        return am

    @property
    def dimension(self) -> int:
        return self._dimension

    def prototype(self, label: Label) -> np.ndarray:
        """Read-only int64 copy of a class prototype; later offers do not change it."""
        copy = self._prototypes[_LABELS.index(Label(label))].astype(hv.ACCUMULATOR_DTYPE)
        copy.flags.writeable = False
        return copy

    def bundle_count(self, label: Label) -> int:
        return self._counts[Label(label)]

    def offer(self, vectors: np.ndarray, label: Label) -> int:
        """Gate each row of a (W, D) integer matrix, in order, into ``label``'s prototype.

        An empty prototype admits a row unconditionally; otherwise the row
        is bundled only when cosine(row, prototype so far) < gate_threshold.
        The matrix is checked before any row is bundled, so a rejected one
        leaves the memory as it was.  Returns how many rows were admitted.
        Precondition: prototype components, squared norms and dot products
        stay below 2**53 in magnitude, so the float64 sums are exact.
        """
        label = Label(label)
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self._dimension:
            raise ValueError(f"expected shape (W, {self._dimension}), got {vectors.shape}")
        if not np.issubdtype(vectors.dtype, np.integer):
            raise ValueError("prototype updates take integer vectors")
        if not vectors.any(axis=1).all():
            raise ValueError("cannot accumulate an all-zero vector")
        row = _LABELS.index(label)
        own = slice(row, row + 1)
        before = self._counts[label]
        for vec in vectors:
            if self._counts[label] == 0 or self._cosines(vec[np.newaxis], own)[0, 0] < self.gate_threshold:
                self._prototypes[row] += vec
                self._norms[row] = np.sqrt(self._prototypes[row] @ self._prototypes[row])
                self._counts[label] += 1
        return self._counts[label] - before

    def similarities(self, vectors: np.ndarray) -> np.ndarray:
        """Cosines of each row of ``vectors`` to both prototypes, as (W, 2) float64.

        Column 0 is the ADHD prototype, column 1 the CONTROL one.  Requires
        both prototypes to be nonempty, else UntrainedMemoryError; an
        all-zero row raises UndefinedSimilarityError.
        """
        return self._similarities(vectors, None)

    def _similarities(self, vectors: np.ndarray, norms) -> np.ndarray:
        """similarities(), given the rows' ``_window_norms`` when they are known already."""
        for label in _LABELS:
            if self._counts[label] == 0:
                raise UntrainedMemoryError(
                    f"prototype for {label} is empty; train on both classes before scoring"
                )
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self._dimension:
            raise ValueError(f"expected shape (W, {self._dimension}), got {vectors.shape}")
        return self._cosines(vectors, slice(None), norms)

    @staticmethod
    def _window_norms(vectors: np.ndarray) -> np.ndarray:
        """Euclidean norm, in float64, of each row of a (W, D) matrix of integer values.

        These are the norms ``_similarities`` and ``_cosines`` take.  einsum
        casts integer rows to float64 through its own small buffer, so no
        whole float64 copy is made; the squared norms are integers below
        2**53, so they are exact.
        """
        return np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))

    def _cosines(self, vectors: np.ndarray, rows: slice, norms=None) -> np.ndarray:
        """(q . p) / (|q| |p|) for each row q of ``vectors`` and each prototype p in ``rows``.

        The rows are cast to float64 ``_SCORE_ROWS`` at a time into one
        reused buffer, so no call copies the whole matrix.  ``norms`` are
        the rows' ``_window_norms``, taken from each cast block unless
        given.  Encoded windows and prototypes are integer vectors whose
        dot products and squared norms stay below 2**53, so float64 sums
        them exactly in any order and each entry equals
        hv.cosine_similarity(q, p) bit for bit.
        """
        pf, pn = self._prototypes[rows], self._norms[rows]
        n = len(vectors)
        qn = np.empty(n) if norms is None else norms
        dots = np.empty((n, len(pn)))
        block = np.empty((min(n, _SCORE_ROWS), self._dimension))
        for start in range(0, n, _SCORE_ROWS):
            stop = min(start + _SCORE_ROWS, n)
            qf = block[: stop - start]
            qf[...] = vectors[start:stop]
            if norms is None:
                # From the block already cast: having einsum cast the
                # integer rows again made a one-row gate call 1.6 times as slow.
                qn[start:stop] = self._window_norms(qf)
            np.matmul(qf, pf.T, out=dots[start:stop])
        if not qn.all():
            raise hv.UndefinedSimilarityError("cosine similarity of an all-zero vector is undefined")
        if not pn.all():
            raise hv.UndefinedSimilarityError("a class prototype cancelled to all zeros")
        return dots / (qn[:, np.newaxis] * pn)
