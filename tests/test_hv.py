"""Bipolar hypervector algebra against naive scalar oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdeeg import (
    UndefinedSimilarityError,
    bind,
    bundle,
    cosine_similarity,
    hamming_distance,
    is_bipolar,
    permute,
    random_bipolar,
)

# ---------------------------------------------------------------- oracles


def naive_bind(a, b):
    return [x * y for x, y in zip(a, b)]


def naive_bundle(vectors):
    return [sum(col) for col in zip(*vectors)]


def naive_permute(a, k):
    n = len(a)
    return [a[(i - k) % n] for i in range(n)]


def naive_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def naive_hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


bipolar_pairs = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
    )
)

int_vector_lists = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n),
        min_size=1,
        max_size=6,
    )
)

# ----------------------------------------------------------- random_bipolar


def test_random_bipolar_shape_and_values():
    v = random_bipolar(7, 2, 10000)
    assert v.shape == (2, 10000)
    assert v.dtype == np.int8
    assert set(np.unique(v)) == {-1, 1}


def test_random_bipolar_deterministic():
    assert np.array_equal(random_bipolar(3, 4, 128), random_bipolar(3, 4, 128))
    assert not np.array_equal(random_bipolar(3, 1, 128), random_bipolar(4, 1, 128))


def test_random_bipolar_quasi_orthogonal_across_seeds():
    # cosine of independent bipolar pairs has std 1/sqrt(D) = 0.01 at
    # D = 10000; 0.05 is five sigma. Checked over seeds 0..999.
    for seed in range(1000):
        v = random_bipolar(seed, 2, 10000)
        assert abs(cosine_similarity(v[0], v[1])) < 0.05


def test_random_bipolar_rejects_bad_args():
    with pytest.raises(ValueError):
        random_bipolar(0, 0, 16)
    with pytest.raises(ValueError):
        random_bipolar(0, 1, 0)
    with pytest.raises(ValueError):
        random_bipolar(-1, 1, 16)
    with pytest.raises(ValueError):
        random_bipolar(2**64, 1, 16)
    with pytest.raises(ValueError, match="seed must be an integer, got float"):
        random_bipolar(1.0, 1, 16)


# ----------------------------------------------------------------- bind


def test_bind_self_inverse():
    v = random_bipolar(0, 2, 10000)
    assert np.array_equal(bind(v[0], v[0]), np.ones(10000, dtype=np.int8))
    assert np.array_equal(bind(bind(v[0], v[1]), v[1]), v[0])


def test_bind_commutative_associative():
    a, b, c = random_bipolar(1, 3, 512)
    assert np.array_equal(bind(a, b), bind(b, a))
    assert np.array_equal(bind(bind(a, b), c), bind(a, bind(b, c)))


def test_bind_dimension_mismatch():
    with pytest.raises(ValueError):
        bind(np.ones(4, dtype=np.int8), np.ones(5, dtype=np.int8))


def test_bind_preserves_pairwise_distance():
    a, b, c = random_bipolar(5, 3, 4096)
    assert hamming_distance(a, b) == hamming_distance(bind(a, c), bind(b, c))


@given(bipolar_pairs)
def test_bind_matches_oracle(pair):
    a, b = pair
    assert bind(np.array(a), np.array(b)).tolist() == naive_bind(a, b)


# ----------------------------------------------------------------- bundle


def test_bundle_single_vector_is_identity():
    v = random_bipolar(2, 1, 64)[0]
    assert np.array_equal(bundle([v]), v)


def test_bundle_integer_sum_no_threshold():
    a = np.array([1, 1, -1], dtype=np.int8)
    b = np.array([1, -1, -1], dtype=np.int8)
    c = np.array([1, 1, 1], dtype=np.int8)
    out = bundle([a, b, c])
    assert out.tolist() == [3, 1, -1]
    assert np.issubdtype(out.dtype, np.integer)


def test_bundle_similar_to_inputs():
    for seed in range(200):
        v = random_bipolar(seed, 2, 10000)
        assert cosine_similarity(bundle([v[0], v[1]]), v[0]) > 0.5


def test_bundle_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        bundle([])
    with pytest.raises(ValueError):
        bundle([np.ones(3, dtype=np.int8), np.ones(4, dtype=np.int8)])


@given(int_vector_lists)
def test_bundle_matches_oracle(vectors):
    got = bundle([np.array(v) for v in vectors])
    assert got.tolist() == naive_bundle(vectors)


# ----------------------------------------------------------------- permute


def test_permute_single_step():
    assert permute(np.array([1, 2, 3, 4]), 1).tolist() == [4, 1, 2, 3]


def test_permute_group_laws():
    v = random_bipolar(9, 1, 10000)[0]
    assert np.array_equal(permute(v, 0), v)
    assert np.array_equal(permute(v, 10000), v)
    assert np.array_equal(permute(permute(v, 3), 5), permute(v, 8))
    assert np.array_equal(permute(permute(v, 7), -7), v)


def test_permute_preserves_hamming():
    a, b = random_bipolar(11, 2, 4096)
    assert hamming_distance(a, b) == hamming_distance(permute(a, 13), permute(b, 13))


@given(
    st.integers(min_value=1, max_value=64).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            st.integers(min_value=-200, max_value=200),
        )
    )
)
def test_permute_matches_oracle(case):
    a, k = case
    assert permute(np.array(a), k).tolist() == naive_permute(a, k)


# ------------------------------------------------------------- similarity


def test_cosine_orthogonal_exact_zero():
    a = np.array([1, 1, -1, -1], dtype=np.int8)
    b = np.array([1, -1, 1, -1], dtype=np.int8)
    assert cosine_similarity(a, b) == 0.0


def test_cosine_self_and_negation():
    v = random_bipolar(4, 1, 1000)[0]
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_zero_vector_errors():
    v = np.ones(8, dtype=np.int8)
    with pytest.raises(UndefinedSimilarityError):
        cosine_similarity(v, np.zeros(8, dtype=np.int64))
    with pytest.raises(UndefinedSimilarityError):
        cosine_similarity(np.zeros(8, dtype=np.int64), v)


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(3), np.ones(4))


@given(bipolar_pairs)
def test_cosine_matches_oracle(pair):
    a, b = pair
    got = cosine_similarity(np.array(a), np.array(b))
    assert got == pytest.approx(naive_cosine(a, b), abs=1e-12)


# ---------------------------------------------------------------- hamming


def test_hamming_example():
    a = np.array([1, 1, -1, -1], dtype=np.int8)
    b = np.array([1, -1, -1, 1], dtype=np.int8)
    assert hamming_distance(a, b) == 2
    assert hamming_distance(a, a) == 0


def test_hamming_requires_bipolar():
    with pytest.raises(ValueError):
        hamming_distance(np.array([1, 0, -1]), np.array([1, 1, -1]))
    with pytest.raises(ValueError):
        hamming_distance(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        hamming_distance(np.array([1, -1]), np.array([1, -1, 1]))


def test_hamming_cosine_identity():
    # For bipolar vectors cosine = 1 - 2 * hamming / D.
    for seed in range(50):
        a, b = random_bipolar(seed, 2, 10000)
        h = hamming_distance(a, b)
        assert cosine_similarity(a, b) == pytest.approx(1.0 - 2.0 * h / 10000, abs=1e-12)


@given(bipolar_pairs)
def test_hamming_matches_oracle(pair):
    a, b = pair
    assert hamming_distance(np.array(a), np.array(b)) == naive_hamming(a, b)


def test_is_bipolar():
    assert is_bipolar(np.array([1, -1, 1], dtype=np.int8))
    assert not is_bipolar(np.array([1, 0, -1]))
    assert not is_bipolar(np.array([1.0, -1.0]))
