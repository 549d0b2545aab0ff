"""Item memory, level memory, and the gated associative memory."""

import numpy as np
import pytest
from hypothesis import given, settings
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


# ------------------------------------------------------- AssociativeMemory


def _fill(am, vec, label):
    return am.update(np.asarray(vec, dtype=np.int64), label)


def test_am_first_update_unconditional():
    am = AssociativeMemory(4)
    f = np.array([1, -1, 1, 1], dtype=np.int64)
    am.update(f, Label.ADHD)
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
        am.update(np.zeros(4, dtype=np.int64), Label.ADHD)
    with pytest.raises(ValueError):
        am.update(np.ones(5, dtype=np.int64), Label.ADHD)
    with pytest.raises(ValueError):
        am.update(np.ones(4, dtype=np.float64), Label.ADHD)


def test_am_update_returns_self():
    am = AssociativeMemory(4)
    assert am.update(np.ones(4, dtype=np.int64), Label.CONTROL) is am


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
        am.update(np.ones(4, dtype=np.int64), Label.ADHD)


def test_am_prototype_view_read_only():
    am = AssociativeMemory(4)
    _fill(am, [1, 1, 1, 1], Label.ADHD)
    with pytest.raises(ValueError):
        am.prototype(Label.ADHD)[0] = 9


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8))
def test_am_gate_idempotent_on_duplicates(vec):
    am = AssociativeMemory(8)
    am.update(np.array(vec, dtype=np.int64), Label.ADHD)
    before = am.prototype(Label.ADHD).copy()
    for _ in range(3):
        am.update(np.array(vec, dtype=np.int64), Label.ADHD)
    assert np.array_equal(am.prototype(Label.ADHD), before)
    assert am.bundle_count(Label.ADHD) == 1


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_am_similarities_and_gate_match_cosine_similarity(data):
    # Updates and scoring calls interleave, so a float prototype cached
    # before an admission and not refreshed after it would show here.
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
        label = step
        v = np.array(data.draw(row), dtype=dtype)
        before = am.prototype(label).copy()
        count = am.bundle_count(label)
        if count == 0:
            admit = True
        else:
            try:
                admit = cosine_similarity(v, before) < gate
            except UndefinedSimilarityError:
                with pytest.raises(UndefinedSimilarityError, match="cancelled"):
                    am.update(v, label)
                continue
        am.update(v, label)
        assert am.bundle_count(label) == count + admit
        assert np.array_equal(am.prototype(label), before + v if admit else before)
