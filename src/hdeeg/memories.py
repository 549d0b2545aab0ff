"""Symbol, level, and class-prototype memories.

ItemMemory maps channel names to fixed random bipolar vectors.
ContinuousItemMemory maps quantization levels to bipolar vectors whose
pairwise distance grows with level distance (a cumulative flip schedule).
AssociativeMemory keeps one integer prototype accumulator per class and
answers nearest-class queries by cosine similarity.
"""

import math
from typing import NamedTuple

import numpy as np

from . import hv
from .common import Label, make_rng

__all__ = [
    "UntrainedMemoryError",
    "QueryResult",
    "ItemMemory",
    "ContinuousItemMemory",
    "AssociativeMemory",
]


class UntrainedMemoryError(RuntimeError):
    """A query hit an associative memory with an empty class prototype."""


class QueryResult(NamedTuple):
    """Outcome of a nearest-class query."""

    label: Label
    similarity_adhd: float
    similarity_control: float


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

    Prototypes are int64 accumulators starting at zero.  The first vector
    of a class is always accepted; afterwards a vector is bundled into its
    class prototype only when its cosine similarity to that prototype is
    below ``gate_threshold``, so near-duplicates do not pile up.  The other
    class's prototype is never touched by an update.
    """

    def __init__(self, dimension: int, gate_threshold: float = 0.5):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self._dimension = int(dimension)
        self.gate_threshold = float(gate_threshold)
        self._prototypes = {
            Label.ADHD: np.zeros(self._dimension, dtype=hv.ACCUMULATOR_DTYPE),
            Label.CONTROL: np.zeros(self._dimension, dtype=hv.ACCUMULATOR_DTYPE),
        }
        self._counts = {Label.ADHD: 0, Label.CONTROL: 0}
        self._norms: dict = {}

    @classmethod
    def from_state(cls, prototype_adhd, prototype_control, counts, gate_threshold):
        """Rebuild a memory from serialized prototypes and bundle counts."""
        pa = np.asarray(prototype_adhd, dtype=hv.ACCUMULATOR_DTYPE)
        pc = np.asarray(prototype_control, dtype=hv.ACCUMULATOR_DTYPE)
        if pa.ndim != 1 or pa.shape != pc.shape:
            raise ValueError("prototypes must be equal-length 1-D vectors")
        am = cls(pa.shape[0], gate_threshold)
        am._prototypes[Label.ADHD][:] = pa
        am._prototypes[Label.CONTROL][:] = pc
        for label in (Label.ADHD, Label.CONTROL):
            n = int(counts[label])
            if n < 0:
                raise ValueError(f"negative bundle count for {label}")
            am._counts[label] = n
        return am

    @property
    def dimension(self) -> int:
        return self._dimension

    def prototype(self, label: Label) -> np.ndarray:
        """Read-only view of a class prototype accumulator."""
        view = self._prototypes[Label(label)].view()
        view.flags.writeable = False
        return view

    def bundle_count(self, label: Label) -> int:
        return self._counts[Label(label)]

    def update(self, vector: np.ndarray, label: Label) -> "AssociativeMemory":
        """Accumulate ``vector`` into the prototype for ``label`` if gated in.

        An empty prototype accepts unconditionally; otherwise the vector
        is bundled only when cosine(vector, prototype) < gate_threshold.
        Returns self either way.
        """
        label = Label(label)
        vec = np.asarray(vector)
        if vec.shape != (self._dimension,):
            raise ValueError(f"expected shape ({self._dimension},), got {vec.shape}")
        if not np.issubdtype(vec.dtype, np.integer):
            raise ValueError("prototype updates take integer vectors")
        if not vec.any():
            raise ValueError("cannot accumulate an all-zero vector")
        if self._counts[label] == 0:
            accept = True
        else:
            qf = vec.astype(np.float64)
            accept = self._similarity(qf, math.sqrt(qf @ qf), label) < self.gate_threshold
        if accept:
            self._prototypes[label] += vec
            self._counts[label] += 1
            self._norms.pop(label, None)
        return self

    def _similarity(self, qf: np.ndarray, qn: float, label: Label) -> float:
        """(q . p) / (|q| |p|) for float64 ``qf`` of norm ``qn``; p's cast and norm are cached."""
        cached = self._norms.get(label)
        if cached is None:
            pf = self._prototypes[label].astype(np.float64)
            cached = (pf, math.sqrt(pf @ pf))
            self._norms[label] = cached
        pf, pn = cached
        if pn == 0.0:
            raise hv.UndefinedSimilarityError("a class prototype cancelled to all zeros")
        return float((qf @ pf) / (qn * pn))

    def query(self, vector: np.ndarray) -> QueryResult:
        """Nearest class by cosine similarity; strict ties go to CONTROL.

        Requires both prototypes to be nonempty, else UntrainedMemoryError.
        """
        for label in (Label.ADHD, Label.CONTROL):
            if self._counts[label] == 0:
                raise UntrainedMemoryError(
                    f"prototype for {label} is empty; train on both classes before querying"
                )
        qf = np.asarray(vector, dtype=np.float64)
        if qf.shape != (self._dimension,):
            raise ValueError(f"expected shape ({self._dimension},), got {qf.shape}")
        qn = math.sqrt(qf @ qf)
        if qn == 0.0:
            raise hv.UndefinedSimilarityError("cosine similarity of an all-zero vector is undefined")
        sim_a = self._similarity(qf, qn, Label.ADHD)
        sim_c = self._similarity(qf, qn, Label.CONTROL)
        label = Label.ADHD if sim_a > sim_c else Label.CONTROL
        return QueryResult(label, sim_a, sim_c)
