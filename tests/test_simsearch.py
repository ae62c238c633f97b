import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossview import neighbors, simsearch
from crossview.datasets import EmbeddingTable
from crossview.errors import ValidationError
from crossview.neighbors import nearest_k
from crossview.simsearch import (
    NeighborPool,
    Pools,
    cosine_matrix,
    l2_normalize,
    similarity_blocks,
    visual_topk,
)

from oracles import brute_nearest_keys


def table(rows, ids=None):
    rows = np.asarray(rows, dtype=np.float32)
    if ids is None:
        ids = tuple(str(i) for i in range(rows.shape[0]))
    return EmbeddingTable(rows, tuple(ids))


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return table(x / np.linalg.norm(x, axis=1, keepdims=True))


def pools(indices, scores, kind):
    return Pools(np.array(indices), np.array(scores, dtype=np.float64), kind)


class TestPools:
    def test_rejects_anchor_in_pool(self):
        with pytest.raises(ValidationError, match="anchor 2 contains the anchor itself"):
            pools([[1, 2], [0, 2], [0, 2]], [[0.9, 0.8]] * 3, "visual")

    def test_rejects_wrong_ordering(self):
        with pytest.raises(ValidationError, match="visual pool for anchor 1: similarities"):
            pools([[1, 2], [0, 2], [0, 1]], [[0.9, 0.8], [0.5, 0.9], [0.9, 0.8]], "visual")
        with pytest.raises(ValidationError, match="geographic pool for anchor 2: distances"):
            pools([[1, 2], [0, 2], [0, 1]], [[1.0, 5.0], [1.0, 2.0], [5.0, 1.0]], "geographic")

    @pytest.mark.parametrize("kind, wrong_step", [("visual", np.greater),
                                                  ("geographic", np.less)])
    def test_order_check_is_the_sign_of_each_difference(self, kind, wrong_step):
        # ties, signed zeros, infinities and NaN: a neighbour comparison must
        # reject exactly the rows whose np.diff holds a step of the wrong sign
        values = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan]
        for row in itertools.product(values, repeat=3):
            with np.errstate(invalid="ignore"):
                wrong = wrong_step(np.diff(row), 0).any()
            args = ([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], [row] * 4, kind)
            if wrong:
                with pytest.raises(ValidationError, match=f"{kind} pool for anchor 0"):
                    pools(*args)
            else:
                pools(*args)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match=r"\(3, 2\) and scores \(3, 1\)"):
            pools([[1, 2], [0, 2], [0, 1]], [[0.5], [0.5], [0.5]], "visual")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown pool kind 'semantic'"):
            pools([[1], [0]], [[0.5], [0.5]], "semantic")

    def test_rows_are_plain_records(self):
        p = pools([[1, 2], [2, 0], [0, 1]], [[0.5, 0.25], [0.75, 0.5], [1.0, 0.0]], "visual")
        assert len(p) == 3
        assert p[1] == NeighborPool(1, (2, 0), (0.75, 0.5), "visual")
        assert p[-1].anchor_index == 2
        assert all(type(i) is int for row in p for i in row.neighbor_indices)
        assert [len(row) for row in p] == [2, 2, 2]
        assert str(p[0].neighbor_indices) == "(1, 2)"
        with pytest.raises(ValueError):
            p.indices[0, 0] = 0  # checked once, so frozen


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize(table([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_idempotent_on_unit_rows(self):
        rng = np.random.default_rng(0)
        t = unit_rows(rng, 5, 7)
        out = l2_normalize(t)
        np.testing.assert_allclose(out.data, t.data, atol=1e-7)

    def test_zero_row_reports_index(self):
        t = table([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="row 1"):
            l2_normalize(t)

    def test_stack_of_views_matches_each_view_in_place(self):
        # the trainer normalises a (2, rows, d) stack of views into itself
        X = np.random.default_rng(3).standard_normal((2, 17, 6))
        expected_norms = np.linalg.norm(X, axis=-1)
        expected = np.stack([view / np.linalg.norm(view, axis=1)[:, None] for view in X])
        U, norms = simsearch.unit_rows(X, out=X)
        assert U is X
        assert U.tobytes() == expected.tobytes()
        assert norms.tobytes() == expected_norms.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_row_spoilt_after_construction_named_without_warning(self, value):
        # the norms are checked before the divide, so an inf row never makes inf / inf
        t = table([[1.0, 0.0], [3.0, 4.0], [0.0, 1.0]], ids=("a", "b", "c"))
        t.data[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=r"^embedding row 'b' \(index 1\) holds a NaN or inf value$"):
                l2_normalize(t)

    @given(st.integers(0, 2**32 - 1))
    def test_rows_become_unit(self, seed):
        rng = np.random.default_rng(seed)
        t = table(rng.uniform(-5, 5, size=(4, 6)) + 0.1)
        norms = np.linalg.norm(l2_normalize(t).data.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)


class TestCosineMatrix:
    def test_identical_unit_vectors(self):
        t = table([[1.0, 0.0]])
        assert cosine_matrix(t, t)[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        q = table([[1.0, 0.0]])
        r = table([[0.0, 1.0]])
        assert cosine_matrix(q, r)[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_analytic_cosine(self):
        q = table([[1.0, 0.0]])
        r = l2_normalize(table([[1.0, 1.0]]))
        assert cosine_matrix(q, r)[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-7)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="dim"):
            cosine_matrix(table([[1.0, 0.0]]), table([[1.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_reference_rows_tie(self, seed):
        # one gemm may round a repeated row's dot products differently per
        # column; as one similarity block the copies score alike
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((14, 35))
        r[12] = r[9]
        q, r = l2_normalize(table(rng.standard_normal((3, 35)))), l2_normalize(table(r))
        sims = cosine_matrix(q, r)
        assert sims[:, 12].tobytes() == sims[:, 9].tobytes()
        block = similarity_blocks(q.data.astype(np.float64), r.data.astype(np.float64))
        assert sims.tobytes() == block(np.arange(3)).tobytes()

    def test_self_similarity_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(5)
        t = unit_rows(rng, 20, 8)
        sims = cosine_matrix(t, t)
        np.testing.assert_allclose(sims, sims.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-6)


class TestVisualTopk:
    def test_self_positive_excluded(self):
        rng = np.random.default_rng(1)
        t = unit_rows(rng, 6, 4)
        pools = visual_topk(t, t, K=1)
        for i, pool in enumerate(pools):
            assert pool.neighbor_indices[0] != i

    def test_full_sort_matches_oracle(self):
        rng = np.random.default_rng(2)
        q = unit_rows(rng, 9, 5)
        r = unit_rows(rng, 9, 5)
        sims = q.data.astype(np.float64) @ r.data.astype(np.float64).T
        pools = visual_topk(q, r, K=8)
        for i, pool in enumerate(pools):
            expected = sorted(
                (j for j in range(9) if j != i),
                key=lambda j: (-sims[i, j], j),
            )
            assert list(pool.neighbor_indices) == expected
            assert list(pool.scores) == sorted(pool.scores, reverse=True)

    def test_duplicate_rows_tie_by_lower_index(self):
        q = table([[1.0, 0.0]])
        r = table([[0.0, 1.0], [0.6, 0.8], [0.6, 0.8], [1.0, 0.0]])
        pools = visual_topk(q, r, K=3)
        assert pools[0].neighbor_indices == (3, 1, 2)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(3)
        t = unit_rows(rng, 4, 3)
        with pytest.raises(ValidationError):
            visual_topk(t, t, K=4)
        with pytest.raises(ValidationError):
            visual_topk(t, t, K=0)

    def test_identical_reference_rows_tie_in_every_block(self):
        # reference 1000 copies reference 0, and every query lies near both:
        # a gemm may round the last column apart from the others, but the
        # copies must tie, so 0 comes first in every pool holding both
        rng = np.random.default_rng(0)
        r = rng.standard_normal((1001, 32)).astype(np.float32)
        r[1000] = r[0]
        q = r[0] + 0.1 * rng.standard_normal((1001, 32))
        pools = visual_topk(table(q), table(r), K=8)
        both = [(row.neighbor_indices, row.scores) for row in pools
                if {0, 1000} <= set(row.neighbor_indices)]
        assert len(both) == 999
        for indices, scores in both:
            first, copy = indices.index(0), indices.index(1000)
            assert first < copy and scores[first] == scores[copy]

    def test_blocked_equals_single_pass(self, monkeypatch):
        # more queries than one block of 256 rows
        monkeypatch.setattr(neighbors, "block_rows", lambda width: 256)
        rng = np.random.default_rng(4)
        q = unit_rows(rng, 300, 6)
        r = unit_rows(rng, 40, 6)
        pools = visual_topk(q, r, K=5)
        sims = q.data.astype(np.float64) @ r.data.astype(np.float64).T
        for i, pool in enumerate(pools):
            candidates = [j for j in range(40) if j != i]
            expected = sorted(candidates, key=lambda j: (-sims[i, j], j))[:5]
            assert list(pool.neighbor_indices) == expected


    @pytest.mark.parametrize("budget, rows", [(8, 1), (8 * 50 * 7, 7), (1 << 60, 40)])
    def test_integer_rows_equal_the_oracle_under_every_budget(self, monkeypatch, budget, rows):
        # integer-valued rows (no zero entry, so no signed zero) score exactly
        # in any layout or gemm path; references 30 and 45 copy reference 3
        rng = np.random.default_rng(29)
        q = rng.choice([-2.0, -1.0, 1.0, 2.0], (40, 6))
        r = rng.choice([-2.0, -1.0, 1.0, 2.0], (50, 6))
        r[30] = r[45] = r[3]
        heights = []
        blocks = simsearch.similarity_blocks

        def recording(q64, r64):
            scores = blocks(q64, r64)
            return lambda part: heights.append(len(part)) or scores(part)

        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
        monkeypatch.setattr(simsearch, "similarity_blocks", recording)
        pools = visual_topk(table(q), table(r), K=12)
        assert max(heights) == rows
        sims = (q @ r.T).tolist()
        indices, keys = brute_nearest_keys([[-x for x in row] for row in sims], 12)
        assert pools.indices.tolist() == indices
        assert pools.scores.tobytes() == (-np.array(keys)).tobytes()

    @pytest.mark.parametrize("K", [12, 40])  # a grouped and a narrow row (16K > 300)
    @pytest.mark.parametrize("budget", [8, 8 * 300 * 37, 1 << 60])
    def test_equals_smallest_of_negated_similarities(self, monkeypatch, budget, K):
        # the same bytes as the K smallest of -(q.r), negated back: small
        # integer rows and a zero query row give ties and signed zeros, and
        # references 41, 42 and 250 repeat reference 7
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
        rng = np.random.default_rng(31)
        q = np.concatenate([rng.integers(-2, 3, (140, 6)), rng.standard_normal((140, 6))])
        q[3] = 0.0
        r = np.concatenate([rng.integers(-2, 3, (150, 6)), rng.standard_normal((150, 6))])
        r[[41, 42, 250]] = r[7]
        q, r = table(q), table(r)
        scores = similarity_blocks(q.data.astype(np.float64), r.data.astype(np.float64))

        def negated(part):
            block = scores(part)
            return np.negative(block, out=block)

        indices, keys = nearest_k(negated, np.arange(280), 300, K)
        pools = visual_topk(q, r, K)
        assert pools.indices.tobytes() == indices.tobytes()
        assert pools.scores.tobytes() == np.negative(keys).tobytes()


class TestSimilarityBlocks:
    def unique_calls(self, monkeypatch, r64):
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        q64 = np.random.default_rng(7).standard_normal((5, r64.shape[1]))
        block = similarity_blocks(q64, r64)(np.arange(5))
        return len(calls), block, q64 @ r64.T

    def test_distinct_first_values_skip_the_row_search(self, monkeypatch):
        r64 = np.random.default_rng(8).standard_normal((50, 6))
        calls, block, plain = self.unique_calls(monkeypatch, r64)
        assert calls == 0
        assert block.tobytes() == plain.tobytes()

    def test_signed_zero_first_values_still_searched(self, monkeypatch):
        # -0.0 == 0.0, so the first values alone cannot tell these rows apart
        r64 = np.random.default_rng(8).standard_normal((50, 6))
        r64[3, 0], r64[40, 0] = 0.0, -0.0
        r64[40, 1:] = r64[3, 1:]
        calls, block, plain = self.unique_calls(monkeypatch, r64)
        assert calls == 1
        assert block.tobytes() == plain.tobytes()  # the rows' bytes differ: nothing copied

    def test_rows_sharing_only_a_first_value_still_searched(self, monkeypatch):
        r64 = np.random.default_rng(8).standard_normal((50, 6))
        r64[20, 0] = r64[9, 0]
        calls, block, plain = self.unique_calls(monkeypatch, r64)
        assert calls == 1
        assert block.tobytes() == plain.tobytes()

    def test_repeated_row_copies_the_first_copy_column(self, monkeypatch):
        r64 = np.random.default_rng(8).standard_normal((50, 6))
        r64[31] = r64[4]
        calls, block, _ = self.unique_calls(monkeypatch, r64)
        assert calls == 1
        assert block[:, 31].tobytes() == block[:, 4].tobytes()
