import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossview.errors import ValidationError
from crossview.neighbors import nearest_k, planar_block

from oracles import brute_nearest_keys


def key_matrix(n_rows, n_cols, small_ints, seed):
    rng = np.random.default_rng(seed)
    if small_ints:  # many exact ties at every cut, signed zeros among them
        return rng.integers(0, 3, (n_rows, n_cols)) * rng.choice([-1.0, 1.0], (n_rows, n_cols))
    return rng.standard_normal((n_rows, n_cols))


def run_kernel(matrix, K):
    calls = []

    def keys(start, stop):
        calls.append((start, stop))
        return matrix[start:stop].copy()

    return nearest_k(keys, len(matrix), K), calls


def assert_matches_oracle(matrix, K, expected=None):
    (indices, nearest), _ = run_kernel(matrix, K)
    idx, keys = expected or brute_nearest_keys(matrix.tolist(), K)
    assert indices.tolist() == [row[:K] for row in idx]
    want = np.array([row[:K] for row in keys], dtype=np.float64).reshape(len(matrix), K)
    assert nearest.tobytes() == want.tobytes()


@st.composite
def shapes(draw):
    n_cols = draw(st.integers(2, 60))
    return draw(st.integers(1, 600)), n_cols, draw(st.integers(1, n_cols - 1))


class TestNearestK:
    @settings(max_examples=30)
    @given(shape=shapes(), small_ints=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(shape=(600, 40, 39), small_ints=True, seed=1)  # rows > cols, three blocks
    @example(shape=(300, 420, 7), small_ints=True, seed=2)  # rows < cols, two blocks
    def test_matches_full_stable_sort(self, shape, small_ints, seed):
        n_rows, n_cols, K = shape
        assert_matches_oracle(key_matrix(n_rows, n_cols, small_ints, seed), K)

    @pytest.mark.parametrize("n_rows, n_cols", [(270, 12), (260, 275)])
    def test_every_k_with_ties_across_blocks(self, n_rows, n_cols):
        matrix = key_matrix(n_rows, n_cols, True, n_rows)
        expected = brute_nearest_keys(matrix.tolist(), n_cols - 1)
        for K in range(1, n_cols):
            assert_matches_oracle(matrix, K, expected)

    def test_zero_k_scores_no_block(self):
        (indices, nearest), calls = run_kernel(np.zeros((300, 5)), 0)
        assert indices.shape == nearest.shape == (300, 0)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_key_names_row(self, bad):
        matrix = key_matrix(300, 20, False, 0)
        matrix[261, 4] = bad
        with pytest.raises(ValidationError, match=r"row 261: key .* at column 4 is not finite"):
            run_kernel(matrix, 3)


def test_planar_block_bit_identical_to_3d_form():
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e4, 1e150):
        a = rng.uniform(-scale, scale, (37, 2))
        b = rng.uniform(-scale, scale, (53, 2))
        diff = a[:, None, :] - b[None, :, :]
        assert planar_block(a, b).tobytes() == np.sqrt((diff * diff).sum(axis=2)).tobytes()
