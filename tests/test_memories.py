"""Item memory, level memory, and the gated associative memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdeeg import (
    AssociativeMemory,
    ContinuousItemMemory,
    ItemMemory,
    Label,
    UndefinedSimilarityError,
    UntrainedMemoryError,
    cosine_similarity,
    hamming_distance,
)
from hdeeg.common import make_rng
from hdeeg.memories import _LEVEL_BLOCK, _SCORE_ROWS, score_each_change

# -------------------------------------------------------------- ItemMemory


def test_item_memory_lookup_stable():
    im = ItemMemory.build(["F4", "Cz"], seed=5, dimension=256)
    assert len(im) == 2
    assert im.dimension == 256
    first = im.vector("F4")
    again = im.vector("F4")
    assert np.array_equal(first, again)
    assert first.base is im.vectors or first is im.vectors[0]


def test_item_memory_entries_quasi_orthogonal():
    for seed in (0, 1, 2):
        im = ItemMemory.build(["F4", "Cz"], seed=seed, dimension=10000)
        assert abs(cosine_similarity(im.vector("F4"), im.vector("Cz"))) < 0.05


def test_item_memory_deterministic():
    a = ItemMemory.build(["F4", "Cz"], seed=12, dimension=512)
    b = ItemMemory.build(["F4", "Cz"], seed=12, dimension=512)
    assert np.array_equal(a.vectors, b.vectors)


def test_item_memory_rejects_bad_names():
    with pytest.raises(ValueError):
        ItemMemory.build(["F4", "F4"], seed=0, dimension=64)
    with pytest.raises(ValueError):
        ItemMemory.build([], seed=0, dimension=64)
    with pytest.raises(ValueError):
        ItemMemory.build(["F4", ""], seed=0, dimension=64)
    with pytest.raises(ValueError, match="one vector row per channel name"):
        ItemMemory(["F4", "Cz"], np.ones((1, 64), dtype=np.int8))


def test_item_memory_unknown_channel():
    im = ItemMemory.build(["F4"], seed=0, dimension=64)
    with pytest.raises(ValueError, match="unknown channel"):
        im.vector("Pz")
    assert "F4" in im and "Pz" not in im


def test_item_memory_immutable():
    im = ItemMemory.build(["F4"], seed=0, dimension=64)
    with pytest.raises(ValueError):
        im.vectors[0, 0] = 5


@pytest.mark.parametrize("bad", [0, 2, -3, 257])
def test_memories_reject_non_bipolar_components(bad):
    # The encoder XORs sign bits, which is exact only on +1/-1 components.
    # 257 would wrap to 1 in an int8 copy, so the check reads the input.
    vectors = np.ones((3, 16), dtype=np.int64)
    vectors[2, 5] = bad
    with pytest.raises(ValueError, match="item_memory is not bipolar: row 2"):
        ItemMemory(["F4", "Cz", "Pz"], vectors)
    with pytest.raises(ValueError, match="level_memory is not bipolar: row 2"):
        ContinuousItemMemory(vectors)


def test_memories_accept_bipolar_rows_of_any_integer_dtype():
    vectors = np.array([[1, -1, 1, -1], [-1, -1, 1, 1]])
    for dtype in (np.int8, np.int16, np.int64):
        assert ItemMemory(["F4", "Cz"], vectors.astype(dtype)).vectors.dtype == np.int8
        assert np.array_equal(ContinuousItemMemory(vectors.astype(dtype)).vectors, vectors)
    with pytest.raises(ValueError, match="not bipolar"):
        ContinuousItemMemory(vectors.astype(np.float64))


# ---------------------------------------------------- ContinuousItemMemory


def test_cim_minimal_case():
    # Two levels at dimension 4: the far level flips exactly half.
    cim = ContinuousItemMemory.build(2, seed=0, dimension=4)
    assert hamming_distance(cim.level(0), cim.level(1)) == 2


def test_cim_full_scale_structure():
    cim = ContinuousItemMemory.build(250, seed=3, dimension=10000)
    l0 = cim.level(0)
    # Cumulative flip schedule measured by independent Hamming counts:
    # distance from level 0 is exactly floor(k * 5000 / 249).
    assert hamming_distance(l0, cim.level(1)) == 20
    assert hamming_distance(l0, cim.level(249)) == 5000
    assert cosine_similarity(l0, cim.level(249)) == 0.0
    previous = 0
    for k in range(1, 250):
        d = hamming_distance(l0, cim.level(k))
        assert d == (k * 5000) // 249
        assert d >= previous
        previous = d


def test_cim_adjacent_levels_close():
    cim = ContinuousItemMemory.build(250, seed=3, dimension=10000)
    steps = {
        hamming_distance(cim.level(k), cim.level(k + 1)) for k in range(249)
    }
    assert steps == {20, 21}


def test_cim_deterministic():
    a = ContinuousItemMemory.build(16, seed=8, dimension=128)
    b = ContinuousItemMemory.build(16, seed=8, dimension=128)
    assert np.array_equal(a.vectors, b.vectors)
    c = ContinuousItemMemory.build(16, seed=9, dimension=128)
    assert not np.array_equal(a.vectors, c.vectors)


def test_cim_rejects_bad_args():
    with pytest.raises(ValueError):
        ContinuousItemMemory.build(1, seed=0, dimension=64)
    with pytest.raises(ValueError):
        ContinuousItemMemory.build(4, seed=0, dimension=63)
    with pytest.raises(ValueError):
        ContinuousItemMemory.build(4, seed=0, dimension=0)
    with pytest.raises(ValueError, match="at least 2 levels"):
        ContinuousItemMemory(np.ones((1, 64), dtype=np.int8))


def test_cim_level_out_of_range():
    cim = ContinuousItemMemory.build(4, seed=0, dimension=64)
    with pytest.raises(ValueError):
        cim.level(4)
    with pytest.raises(ValueError):
        cim.level(-1)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**32),
)
def test_cim_schedule_invariants(level_count, half_dim, seed):
    dimension = 2 * half_dim
    cim = ContinuousItemMemory.build(level_count, seed=seed, dimension=dimension)
    l0 = cim.level(0)
    assert hamming_distance(l0, cim.level(level_count - 1)) == half_dim
    step_bound = -(-half_dim // (level_count - 1))  # ceil
    previous = 0
    for k in range(1, level_count):
        d = hamming_distance(l0, cim.level(k))
        assert d >= previous
        assert hamming_distance(cim.level(k - 1), cim.level(k)) <= step_bound
        previous = d


@pytest.mark.parametrize("dimension", [66, 1002])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
def test_cim_unpacks_the_matrix_it_was_built_from(dimension, dtype):
    # 66 and 1002 are not multiples of 8, so the last packed byte holds
    # padding bits that must not show.
    matrix = np.random.default_rng(dimension).choice(np.array([-1, 1], dtype=dtype), (19, dimension))
    cim = ContinuousItemMemory(matrix)
    assert cim.sign_bits.shape == (19, -(-dimension // 8))
    assert cim.sign_bits.dtype == np.uint8
    assert np.array_equal(cim.sign_bits, np.packbits(matrix < 0, axis=1))
    assert cim.vectors.dtype == np.int8
    assert np.array_equal(cim.vectors, matrix)
    for k in range(19):
        assert cim.level(k).dtype == np.int8
        assert np.array_equal(cim.level(k), matrix[k])
    assert np.array_equal(cim.rows(16, 99), matrix[16:])


def test_cim_unpacks_a_built_memory_exactly():
    cim = ContinuousItemMemory.build(40, seed=2, dimension=1002)
    assert np.array_equal(ContinuousItemMemory(cim.vectors).sign_bits, cim.sign_bits)
    assert np.array_equal(np.stack([cim.level(k) for k in range(40)]), cim.vectors)


def _matrix_built_levels(level_count, seed, dimension):
    """The level memory as it was built before it went straight to packed
    bits: the whole (levels, D) int8 matrix, one level's flips at a time."""
    rng = make_rng(seed)
    base = rng.integers(0, 2, size=dimension, dtype=np.int8) * 2 - 1
    flip_order = rng.permutation(dimension)
    levels = np.repeat(base[np.newaxis, :], level_count, axis=0)
    half = dimension // 2
    for k in range(1, level_count):
        levels[k, flip_order[: (k * half) // (level_count - 1)]] *= -1
    return levels


@pytest.mark.parametrize(
    "level_count, dimension",
    [(2, 2), (_LEVEL_BLOCK - 1, 66), (_LEVEL_BLOCK, 10), (_LEVEL_BLOCK + 1, 1002), (50, 2000), (250, 10_000)],
)
def test_cim_build_sets_the_bits_of_the_matrix_built_levels(level_count, dimension):
    for seed in (0, 9, 2**32 - 1):
        levels = _matrix_built_levels(level_count, seed, dimension)
        cim = ContinuousItemMemory.build(level_count, seed=seed, dimension=dimension)
        assert cim.sign_bits.tobytes() == np.packbits(levels < 0, axis=1).tobytes()
        assert not cim.sign_bits.flags.writeable


def test_cim_build_peaks_under_one_mib_beyond_its_result():
    # The whole int8 matrix alone would be 2.5 MB at this scale.
    ContinuousItemMemory.build(250, seed=0, dimension=10_000)
    tracemalloc.start()
    try:
        cim = ContinuousItemMemory.build(250, seed=0, dimension=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - cim.sign_bits.nbytes < 1024 * 1024


def test_cim_arrays_are_read_only():
    cim = ContinuousItemMemory.build(4, seed=0, dimension=66)
    for arr in (cim.vectors, cim.level(1), cim.rows(0, 2), cim.sign_bits):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_cim_keeps_under_one_mib_at_paper_scale():
    # 250 levels at D = 10,000 as int8 take 2.5 MB; packed, 312.5 KB.
    tracemalloc.start()
    try:
        cim = ContinuousItemMemory.build(250, seed=0, dimension=10000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1024 * 1024
    assert cim.sign_bits.nbytes == 312_500


# ------------------------------------------------------- AssociativeMemory


def _fill(am, vec, label):
    return am.offer(np.asarray(vec, dtype=np.int64)[np.newaxis], label)


# The tests named for an update keep their names so the suite's ids do not
# change; each now updates a prototype through a one-row offer() call.


def test_am_first_update_unconditional():
    am = AssociativeMemory(4)
    f = np.array([1, -1, 1, 1], dtype=np.int64)
    am.offer(f[np.newaxis], Label.ADHD)
    assert np.array_equal(am.prototype(Label.ADHD), f)
    assert am.bundle_count(Label.ADHD) == 1
    assert am.bundle_count(Label.CONTROL) == 0


def test_am_gate_rejects_similar():
    am = AssociativeMemory(4)
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    _fill(am, [1, 1, 1, 1], Label.ADHD)  # cosine 1.0 >= 0.5: rejected
    assert am.prototype(Label.ADHD).tolist() == [1, 1, 1, 1]
    assert am.bundle_count(Label.ADHD) == 1


def test_am_gate_accepts_dissimilar():
    am = AssociativeMemory(4)
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    _fill(am, [1, -1, 1, -1], Label.ADHD)  # cosine 0.0 < 0.5: bundled
    assert am.prototype(Label.ADHD).tolist() == [2, 0, 2, 0]
    assert am.bundle_count(Label.ADHD) == 2


def test_am_gate_threshold_configurable():
    am = AssociativeMemory(4, gate_threshold=-0.1)
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    _fill(am, [1, -1, 1, -1], Label.ADHD)  # cosine 0.0 >= -0.1: rejected
    assert am.bundle_count(Label.ADHD) == 1


def test_am_update_never_touches_other_class():
    am = AssociativeMemory(4)
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    _fill(am, [-1, -1, -1, -1], Label.CONTROL)
    _fill(am, [1, -1, -1, 1], Label.ADHD)
    assert am.prototype(Label.CONTROL).tolist() == [-1, -1, -1, -1]


def test_am_update_order_matters():
    # The gate sees whatever accumulated so far, so the same multiset of
    # vectors can land differently depending on order.
    a = [1, 1, 1, 1]
    b = [1, 1, 1, -1]  # cosine(a, b) = 0.5, gated out after a
    first = AssociativeMemory(4)
    _fill(first, a, Label.ADHD)
    _fill(first, b, Label.ADHD)
    second = AssociativeMemory(4)
    _fill(second, b, Label.ADHD)
    _fill(second, a, Label.ADHD)
    assert first.prototype(Label.ADHD).tolist() == a
    assert second.prototype(Label.ADHD).tolist() == b


def test_am_update_rejects_bad_vectors():
    am = AssociativeMemory(4)
    with pytest.raises(ValueError):
        am.offer(np.zeros((1, 4), dtype=np.int64), Label.ADHD)
    with pytest.raises(ValueError):
        am.offer(np.ones((1, 5), dtype=np.int64), Label.ADHD)
    with pytest.raises(ValueError):
        am.offer(np.ones((1, 4), dtype=np.float64), Label.ADHD)


def test_am_rejects_a_bad_dimension_or_unequal_prototypes():
    with pytest.raises(ValueError, match="dimension must be at least 1, got 0"):
        AssociativeMemory(0)
    with pytest.raises(ValueError, match="equal-length 1-D"):
        AssociativeMemory.from_state([1, 0], [0, 1, 0], {Label.ADHD: 1, Label.CONTROL: 1}, 0.5)


def test_am_offer_returns_admitted_count():
    am = AssociativeMemory(4)
    assert am.offer(np.ones((1, 4), dtype=np.int64), Label.CONTROL) == 1
    # The first row is admitted, its duplicate gated out (cosine 1.0), and
    # the orthogonal row bundled (cosine 0.0).
    rows = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1]], dtype=np.int8)
    assert am.offer(rows, Label.ADHD) == 2
    assert am.offer(rows[:2], Label.CONTROL) == 0
    assert am.offer(np.empty((0, 4), dtype=np.int8), Label.ADHD) == 0
    assert (am.bundle_count(Label.ADHD), am.bundle_count(Label.CONTROL)) == (2, 1)


_BAD_MATRICES = {
    "zero_row_after_valid_rows": (
        np.array([[1, 1, -1, 1], [1, -1, 1, -1], [0, 0, 0, 0]]),
        "all-zero",
    ),
    "float_dtype": (np.array([[1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0]]), "integer"),
    "wrong_width": (np.ones((2, 5), dtype=np.int64), "expected shape"),
    "one_dimensional": (np.array([1, -1, -1, 1]), "expected shape"),
}


@pytest.mark.parametrize("label", [Label.ADHD, Label.CONTROL])
@pytest.mark.parametrize("bad, match", _BAD_MATRICES.values(), ids=_BAD_MATRICES.keys())
def test_am_offer_rejected_matrix_leaves_memory_unchanged(label, bad, match):
    am = AssociativeMemory(4, gate_threshold=2.0)  # admits every valid row
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    _fill(am, [-1, 1, -1, 1], Label.CONTROL)
    labels = (Label.ADHD, Label.CONTROL)
    before = [(am.prototype(lab).copy(), am.bundle_count(lab)) for lab in labels]
    with pytest.raises(ValueError, match=match):
        am.offer(bad, label)
    for lab, (proto, count) in zip(labels, before):
        assert np.array_equal(am.prototype(lab), proto)
        assert am.bundle_count(lab) == count
    # The memory still gates as before: a valid row after the rejection is admitted.
    assert am.offer(np.array([[1, 1, -1, -1]]), label) == 1


# The test_am_query_* tests keep their names; the memory now answers them
# through similarities(), one (W, 2) array of ADHD and CONTROL cosines.


def adhd_votes(sims):
    """Per-window nearest class: ADHD only when strictly more similar."""
    return [Label.ADHD if a > c else Label.CONTROL for a, c in sims]


def test_am_query_requires_both_prototypes():
    am = AssociativeMemory(4)
    q = np.ones((1, 4), dtype=np.int64)
    with pytest.raises(UntrainedMemoryError):
        am.similarities(q)
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    with pytest.raises(UntrainedMemoryError):
        am.similarities(q)
    _fill(am, [-1, 1, -1, 1], Label.CONTROL)
    assert adhd_votes(am.similarities(q)) == [Label.ADHD]


def test_am_query_nearest_class_and_tie():
    am = AssociativeMemory.from_state(
        [1, 1, 1, 1], [1, -1, 1, -1], {Label.ADHD: 1, Label.CONTROL: 1}, 0.5
    )
    sims = am.similarities(np.array([[1, 1, 1, 1]], dtype=np.int64))
    assert sims.shape == (1, 2) and sims.dtype == np.float64
    assert adhd_votes(sims) == [Label.ADHD]
    assert sims[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sims[0, 1] == pytest.approx(0.0, abs=1e-12)
    # Equal similarities go to CONTROL (strict comparison).
    tie = AssociativeMemory.from_state(
        [1, 1, 1, 1], [1, 1, 1, 1], {Label.ADHD: 1, Label.CONTROL: 1}, 0.5
    )
    sims = tie.similarities(np.array([[1, -1, 1, 1]], dtype=np.int64))
    assert sims[0, 0] == sims[0, 1]
    assert adhd_votes(sims) == [Label.CONTROL]


def test_am_query_matches_cosine_similarity_exactly():
    rng = np.random.default_rng(0)
    pa = rng.integers(-5, 6, size=64)
    pc = rng.integers(-5, 6, size=64)
    am = AssociativeMemory.from_state(pa, pc, {Label.ADHD: 3, Label.CONTROL: 2}, 0.5)
    q = rng.integers(-3, 4, size=64)
    while not q.any():
        q = rng.integers(-3, 4, size=64)
    sims = am.similarities(q[np.newaxis, :])
    assert sims[0, 0] == cosine_similarity(q, pa)
    assert sims[0, 1] == cosine_similarity(q, pc)


def test_am_query_argmax_scale_invariant():
    rng = np.random.default_rng(7)
    pa = rng.integers(-4, 5, size=128)
    pc = rng.integers(-4, 5, size=128)
    base = AssociativeMemory.from_state(pa, pc, {Label.ADHD: 1, Label.CONTROL: 1}, 0.5)
    scaled = AssociativeMemory.from_state(pa * 7, pc * 3, {Label.ADHD: 1, Label.CONTROL: 1}, 0.5)
    queries = []
    for _ in range(50):
        q = rng.integers(-2, 3, size=128)
        if not q.any():
            continue
        queries.append(q)
    queries = np.array(queries)
    assert adhd_votes(base.similarities(queries)) == adhd_votes(scaled.similarities(queries))


def test_am_query_zero_vector_errors():
    am = AssociativeMemory.from_state(
        [1, 0, 0, 0], [0, 1, 0, 0], {Label.ADHD: 1, Label.CONTROL: 1}, 0.5
    )
    with pytest.raises(UndefinedSimilarityError):
        am.similarities(np.zeros((1, 4), dtype=np.int64))
    # One all-zero row among scorable ones still makes the whole call fail.
    with pytest.raises(UndefinedSimilarityError):
        am.similarities(np.array([[1, 0, 0, 0], [0, 0, 0, 0]], dtype=np.int64))


def test_am_similarities_shapes():
    am = AssociativeMemory.from_state(
        [1, 0, 0, 0], [0, 1, 0, 0], {Label.ADHD: 1, Label.CONTROL: 1}, 0.5
    )
    assert am.similarities(np.empty((0, 4), dtype=np.int8)).shape == (0, 2)
    sims = am.similarities(np.array([[1, 0, 0, 0], [0, 2, 0, 0], [1, 1, 0, 0]], dtype=np.int8))
    assert sims.tolist() == [[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]]
    for bad in (np.ones(4), np.ones((2, 5)), np.ones((1, 2, 4))):
        with pytest.raises(ValueError, match="expected shape"):
            am.similarities(bad)


def test_am_cancelled_prototype_errors():
    am = AssociativeMemory(4)
    _fill(am, [1, 1, -1, -1], Label.ADHD)
    _fill(am, [-1, -1, 1, 1], Label.ADHD)  # cosine -1 < 0.5: cancels to zero
    _fill(am, [1, 1, 1, 1], Label.CONTROL)
    with pytest.raises(UndefinedSimilarityError):
        am.similarities(np.ones((1, 4), dtype=np.int64))


def test_am_gate_on_cancelled_prototype_errors():
    am = AssociativeMemory(4)
    _fill(am, [1, 1, -1, -1], Label.ADHD)
    _fill(am, [-1, -1, 1, 1], Label.ADHD)
    with pytest.raises(UndefinedSimilarityError, match="cancelled"):
        _fill(am, [1, 1, 1, 1], Label.ADHD)


def test_am_prototype_view_read_only():
    am = AssociativeMemory(4)
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    with pytest.raises(ValueError):
        am.prototype(Label.ADHD)[0] = 9


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8))
def test_am_gate_idempotent_on_duplicates(vec):
    am = AssociativeMemory(8)
    _fill(am, vec, Label.ADHD)
    before = am.prototype(Label.ADHD).copy()
    for _ in range(3):
        _fill(am, vec, Label.ADHD)
    assert np.array_equal(am.prototype(Label.ADHD), before)
    assert am.bundle_count(Label.ADHD) == 1


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_am_similarities_and_gate_match_cosine_similarity(data):
    # Offers of 1-6 rows and scoring calls interleave, so a float prototype
    # cached before an admission and not refreshed after it would show here,
    # as would a gate that scored a matrix's rows against the prototype as
    # it stood at the start of the call.
    dim = data.draw(st.integers(min_value=1, max_value=12), label="dim")
    gate = data.draw(st.sampled_from([-0.5, 0.0, 0.3, 0.5, 0.9, 2.0]), label="gate")
    dtype = data.draw(st.sampled_from([np.int8, np.int64]), label="dtype")
    row = st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim).filter(any)
    am = AssociativeMemory(dim, gate)
    steps = data.draw(
        st.lists(st.sampled_from([Label.ADHD, Label.CONTROL, "score"]), max_size=25),
        label="steps",
    )
    for step in steps:
        if step == "score":
            q = np.array(data.draw(st.lists(row, min_size=1, max_size=5)), dtype=dtype)
            if 0 in (am.bundle_count(Label.ADHD), am.bundle_count(Label.CONTROL)):
                with pytest.raises(UntrainedMemoryError):
                    am.similarities(q)
                continue
            pa, pc = am.prototype(Label.ADHD), am.prototype(Label.CONTROL)
            if not (pa.any() and pc.any()):
                with pytest.raises(UndefinedSimilarityError, match="cancelled"):
                    am.similarities(q)
                continue
            sims = am.similarities(q)
            assert sims.shape == (len(q), 2) and sims.dtype == np.float64
            for qi, (sim_a, sim_c) in zip(q, sims):
                assert sim_a.hex() == cosine_similarity(qi, pa).hex()
                assert sim_c.hex() == cosine_similarity(qi, pc).hex()
            continue
        label, other = step, Label.CONTROL if step is Label.ADHD else Label.ADHD
        vs = np.array(data.draw(st.lists(row, min_size=1, max_size=6)), dtype=dtype)
        before, other_before = am.prototype(label).copy(), am.prototype(other).copy()
        count = am.bundle_count(label)
        # Row-by-row oracle: each row meets the prototype the rows before it left.
        proto, mask = before.copy(), []
        for v in vs:
            try:
                admit = count + sum(mask) == 0 or cosine_similarity(v, proto) < gate
            except UndefinedSimilarityError:
                with pytest.raises(UndefinedSimilarityError, match="cancelled"):
                    am.offer(vs, label)
                break
            mask.append(admit)
            proto = proto + v if admit else proto
        else:
            assert am.offer(vs, label) == am.bundle_count(label) - count == sum(mask)
        # A cancelled prototype stops the call at the row it cannot score;
        # the rows before that one stay bundled.
        admitted_rows = vs[: len(mask)][np.array(mask, dtype=bool)]
        assert am.bundle_count(label) == count + len(admitted_rows)
        assert np.array_equal(am.prototype(label), before + admitted_rows.sum(axis=0, dtype=np.int64))
        assert np.array_equal(am.prototype(other), other_before)


# Row counts at the edges of the scoring blocks: none, one, a block short
# by one, exactly one block, one row into the next, and a partial third.
BLOCK_EDGES = [0, 1, _SCORE_ROWS - 1, _SCORE_ROWS, _SCORE_ROWS + 1, 2 * _SCORE_ROWS + 1]
# Component bounds that keep every dot and squared norm of 16 components below 2**53.
ROW_BOUNDS = {np.int8: 127, np.int16: 2**15 - 1, np.int64: 2**20}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    w=st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(min_value=0, max_value=4 * _SCORE_ROWS)),
    dtype=st.sampled_from(list(ROW_BOUNDS)),
    dim=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(w=0, dtype=np.int8, dim=3, seed=0)
@example(w=1, dtype=np.int16, dim=5, seed=1)
@example(w=_SCORE_ROWS - 1, dtype=np.int64, dim=7, seed=2)
@example(w=_SCORE_ROWS, dtype=np.int8, dim=16, seed=3)
@example(w=_SCORE_ROWS + 1, dtype=np.int16, dim=9, seed=4)
@example(w=2 * _SCORE_ROWS + 1, dtype=np.int64, dim=12, seed=5)
def test_am_similarities_in_blocks_match_cosine_similarity_bit_for_bit(w, dtype, dim, seed):
    rng = np.random.default_rng(seed)
    bound = ROW_BOUNDS[dtype]
    q = rng.integers(-bound, bound + 1, size=(w, dim)).astype(dtype)
    q[~q.any(axis=1)] = 1
    pa, pc = (rng.integers(-(2**20), 2**20 + 1, size=dim) for _ in range(2))
    pa[0] = pc[0] = 2**20  # never all zero
    am = AssociativeMemory.from_state(pa, pc, {Label.ADHD: 1, Label.CONTROL: 1}, 0.5)
    sims = am.similarities(q)
    assert sims.shape == (w, 2) and sims.dtype == np.float64
    for qi, (sim_a, sim_c) in zip(q, sims):
        assert sim_a.hex() == cosine_similarity(qi, pa).hex()
        assert sim_c.hex() == cosine_similarity(qi, pc).hex()


def _gate_row_by_row(rows, proto, count, gate):
    """Row-by-row gate oracle: (admitted mask, prototype, count, row that raised or None)."""
    mask = []
    for i, row in enumerate(rows):
        try:
            admit = count == 0 or cosine_similarity(row, proto) < gate
        except UndefinedSimilarityError:
            return mask, proto, count, i
        mask.append(admit)
        if admit:
            proto, count = proto + row, count + 1
    return mask, proto, count, None


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    w=st.one_of(
        st.sampled_from([*BLOCK_EDGES, 3 * _SCORE_ROWS, 3 * _SCORE_ROWS + 1]),
        st.integers(min_value=0, max_value=3 * _SCORE_ROWS + 1),
    ),
    gate=st.sampled_from([-0.5, 0.3, 0.5, 2.0]),
    dtype=st.sampled_from([np.int8, np.int16, np.int64]),
    dim=st.integers(min_value=1, max_value=12),
    trained=st.booleans(),
    cancel_at=st.one_of(st.none(), st.integers(min_value=0, max_value=3 * _SCORE_ROWS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(w=3 * _SCORE_ROWS + 1, gate=2.0, dtype=np.int8, dim=5, trained=False, cancel_at=_SCORE_ROWS + 2, seed=1)
@example(w=2 * _SCORE_ROWS + 1, gate=0.3, dtype=np.int16, dim=9, trained=True, cancel_at=_SCORE_ROWS - 1, seed=2)
@example(w=_SCORE_ROWS + 1, gate=-0.5, dtype=np.int64, dim=12, trained=True, cancel_at=None, seed=3)
def test_am_offer_across_block_edges_matches_the_row_by_row_gate(
    w, gate, dtype, dim, trained, cancel_at, seed
):
    # offer gates one cast row at a time and keeps the prototype's squared
    # norm as a running sum; the oracle recomputes every cosine from the
    # integer rows.  The widths straddle the scoring blocks' edges.  A row
    # set to minus the prototype so far is admitted at every gate here
    # (cosine -1) and cancels it, so the next row raises.
    rng = np.random.default_rng(seed)
    label = Label.CONTROL
    start = rng.integers(-3, 4, size=dim) | 1 if trained else np.zeros(dim, dtype=np.int64)
    rows = (rng.integers(-3, 4, size=(w, dim)) | 1).astype(dtype)
    if cancel_at is not None and 0 < cancel_at < w:
        _, proto, _, raised = _gate_row_by_row(rows[:cancel_at], start, int(trained), gate)
        if raised is None and proto.any():
            rows[cancel_at] = -proto
    mask, proto, count, raised = _gate_row_by_row(rows, start, int(trained), gate)

    def fresh():
        if trained:
            return AssociativeMemory.from_state(np.ones(dim), start, {Label.ADHD: 1, label: 1}, gate)
        return AssociativeMemory(dim, gate)

    am = fresh()
    if raised is None:
        assert am.offer(rows, label) == sum(mask)
    else:
        with pytest.raises(UndefinedSimilarityError, match="cancelled"):
            am.offer(rows, label)
    assert np.array_equal(am.prototype(label), proto)
    assert am.bundle_count(label) == count
    # Each prefix, offered whole to a fresh memory, admits what the oracle
    # admitted up to it, and the first prefix that raises ends at the raising row.
    admitted = 0
    for k in range(1, w + 1):
        if raised is not None and k > raised:
            with pytest.raises(UndefinedSimilarityError, match="cancelled"):
                fresh().offer(rows[:k], label)
            break
        now = fresh().offer(rows[:k], label)
        assert now - admitted == mask[k - 1]
        admitted = now


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_score_each_change_matches_similarities_after_every_step(data):
    # Up to 24 offers, so up to six batches of steps: each step's cosines
    # must equal similarities() on a memory given the same offers, also
    # after the running dots crossed batch edges.  Held-out rows may be
    # all zeros and prototypes may cancel; either error must come at the
    # step where similarities() would raise it, with its message.
    dim = data.draw(st.integers(min_value=1, max_value=8), label="dim")
    gate = data.draw(st.sampled_from([-0.5, 0.3, 0.5, 2.0]), label="gate")
    dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int64]), label="dtype")
    values = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
    offers = [
        (np.array(rows, dtype=dtype), label)
        for rows, label in data.draw(
            st.lists(
                st.tuples(st.lists(values.filter(any), min_size=1, max_size=5), st.sampled_from(list(Label))),
                max_size=3 * _SCORE_ROWS,
            ),
            label="offers",
        )
    ]
    held_out = [
        np.array(rows, dtype=dtype).reshape(-1, dim)
        for rows in data.draw(st.lists(st.lists(values, max_size=4), min_size=1, max_size=3), label="held_out")
    ]

    def result(counts, sims):
        return counts, None if sims is None else [s.tobytes() for s in sims]

    oracle, results, steps, error = AssociativeMemory(dim, gate), [], [], None
    for vectors, label in offers:
        try:
            if not oracle.offer(vectors, label):
                # A fresh memory's first offer always admits, so results[-1] exists.
                results.append(results[-1])
                continue
            counts = (oracle.bundle_count(Label.ADHD), oracle.bundle_count(Label.CONTROL))
            sims = [oracle.similarities(h) for h in held_out] if all(counts) else None
        except UndefinedSimilarityError as raised:
            error = str(raised)
            break
        steps.append(result(counts, sims))
        results.append(steps[-1])

    scored = []
    record = lambda counts, sims: scored.append(result(counts, sims)) or scored[-1]
    if error is None:
        assert score_each_change(AssociativeMemory(dim, gate), offers, held_out, record) == results
        assert len(scored) == len(steps)
    else:
        with pytest.raises(UndefinedSimilarityError) as raised:
            score_each_change(AssociativeMemory(dim, gate), offers, held_out, record)
        assert str(raised.value) == error
    # score is called once per step, in order, and for no other offer.
    assert scored == steps[: len(scored)]


def test_score_each_change_scores_the_first_offer_even_when_it_admits_nothing():
    # An offer that admits nothing repeats the score before it; the first
    # one has none before it, so it is scored.
    dim, scored = 4, []
    record = lambda counts, sims: scored.append(counts) or len(scored)
    offers = [(np.zeros((0, dim), dtype=np.int8), Label.ADHD), (np.ones((1, dim), dtype=np.int8), Label.ADHD)]
    assert score_each_change(AssociativeMemory(dim), offers, [np.ones((1, dim))], record) == [1, 2]
    assert scored == [(0, 0), (1, 0)]


def test_score_each_change_needs_an_empty_memory():
    # Its running dots start at zero, which only an empty memory's are.
    am = AssociativeMemory.from_state([1, 0], [0, 1], {Label.ADHD: 1, Label.CONTROL: 0}, 0.5)
    with pytest.raises(ValueError, match="empty memory"):
        score_each_change(am, [], [np.ones((1, 2))], lambda counts, sims: None)


def test_score_each_change_refuses_held_out_windows_of_another_width():
    with pytest.raises(ValueError, match=r"expected shape \(W, 4\), got \(1, 5\)"):
        score_each_change(AssociativeMemory(4), [], [np.ones((1, 5))], lambda counts, sims: None)


@pytest.mark.parametrize("w", [1, _SCORE_ROWS + 1, 2 * _SCORE_ROWS + 1, 2 * _SCORE_ROWS + 3])
@pytest.mark.parametrize("cancelled", [False, True])
def test_am_zero_row_in_last_block_is_the_all_zero_error(w, cancelled):
    # The all-zero check comes before the cancelled-prototype one, also
    # when the zero row sits in the last, partial block.
    pc = [0, 0, 0, 0] if cancelled else [0, 1, 0, 0]
    am = AssociativeMemory.from_state([1, 0, 0, 0], pc, {Label.ADHD: 1, Label.CONTROL: 1}, 0.5)
    q = np.ones((w, 4), dtype=np.int8)
    q[-1] = 0
    with pytest.raises(UndefinedSimilarityError, match="all-zero vector"):
        am.similarities(q)


def _scoring_peaks(w):
    """Traced peaks beyond the result of similarities and offer on a (w, 10,000) int8 matrix."""
    rng = np.random.default_rng(w)
    vectors = (rng.integers(0, 2, size=(w, 10_000), dtype=np.int8) * 2 - 1).astype(np.int8)
    am = AssociativeMemory(10_000)
    am.offer(vectors[:1], Label.ADHD)
    am.offer(-vectors[1:2], Label.CONTROL)
    peaks = []
    for call in (lambda: am.similarities(vectors), lambda: am.offer(vectors, Label.ADHD)):
        tracemalloc.start()
        try:
            result = call()
            peaks.append(tracemalloc.get_traced_memory()[1] - np.asarray(result).nbytes)
        finally:
            tracemalloc.stop()
    return peaks


def test_am_scoring_peak_stays_one_block_whatever_w():
    # A float64 copy of a patient's 28 windows is 2.24 MB and grows with W;
    # the scoring block is 8 x D float64, 640 KB, whatever W is, and offer
    # casts one D-wide row, 80 KB.
    at_28 = _scoring_peaks(28)
    at_280 = _scoring_peaks(280)
    assert max(at_28) < 1024 * 1024
    assert at_28[1] < 128 * 1024 and at_280[1] < 128 * 1024
    for small, large in zip(at_28, at_280):
        # Only the (W,) norms and (W, 2) dots grow, by 24 bytes a row.
        assert large - small < 64 * 1024
