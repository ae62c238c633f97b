import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from crossview import datasets, evaluation, neighbors
from crossview.datasets import Coordinate, EmbeddingTable, SampleRecord, SynthConfig, generate_synthetic
from crossview.errors import ValidationError
from crossview.evaluation import (
    RECALL_KS,
    _positive_ranks,
    average_precision,
    evaluate,
    hit_rate,
    link_arrays,
    recall_at_k,
    recall_at_percent,
    resolve_links,
    retrieval_report,
)
from crossview.simsearch import cosine_matrix, l2_normalize

from oracles import (
    brute_average_precision,
    brute_hit_rate,
    brute_recall_at_k,
    brute_recall_at_percent,
    count_rank,
    rank_references,
)

RANK_BLOCK = 32  # (query, positive) pairs per rank block in the block-edge tests


@pytest.fixture
def rank_blocks(monkeypatch):
    monkeypatch.setattr(evaluation, "block_rows", lambda width: RANK_BLOCK)


def sim_with_positive_at_rank(rank, n_r):
    """One query whose true positive (index 0) lands at the given rank."""
    scores = np.zeros(n_r)
    scores[0] = 1.0 - 0.1 * (rank - 1)
    for pos, j in enumerate(range(1, n_r)):
        scores[j] = 1.0 - 0.1 * pos if pos < rank - 1 else -0.1 * pos
    return np.array([scores])


class TestRecallAtK:
    def test_identity_similarity(self):
        sim = np.eye(4)
        positives = [{i} for i in range(4)]
        assert recall_at_k(sim, positives, 1) == 1.0

    def test_hand_ranked_fixture(self):
        # positives rank 1st, 3rd, 7th for the three queries
        sims = np.vstack(
            [
                sim_with_positive_at_rank(1, 10),
                sim_with_positive_at_rank(3, 10),
                sim_with_positive_at_rank(7, 10),
            ]
        )
        positives = [{0}, {0}, {0}]
        assert recall_at_k(sims, positives, 1) == pytest.approx(1 / 3)
        assert recall_at_k(sims, positives, 5) == pytest.approx(2 / 3)
        assert recall_at_k(sims, positives, 10) == 1.0

    def test_k_equals_gallery_size(self):
        rng = np.random.default_rng(0)
        sim = rng.standard_normal((5, 8))
        positives = [{int(rng.integers(8))} for _ in range(5)]
        assert recall_at_k(sim, positives, 8) == 1.0

    def test_empty_positive_set_rejected(self):
        with pytest.raises(ValidationError, match="empty positive"):
            recall_at_k(np.eye(2), [{0}, set()], 1)

    def test_no_queries_rejected(self):
        with pytest.raises(ValidationError, match="0 queries"):
            recall_at_k(np.zeros((0, 3)), [], 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            recall_at_k(np.eye(2), [{0}, {1}], 3)


class TestRecallAtPercent:
    @pytest.mark.parametrize("n_r,expected_k", [(100, 1), (250, 3), (8884, 89)])
    def test_ceiling_arithmetic(self, n_r, expected_k):
        # positive placed exactly at rank expected_k: included by ceil cut-off
        scores = np.zeros((1, n_r))
        scores[0, :expected_k] = np.linspace(1.0, 0.5, expected_k)
        positive = {expected_k - 1}
        assert recall_at_percent(scores, [positive], 1.0) == 1.0
        # one rank later it must miss
        if expected_k < n_r:
            scores2 = np.zeros((1, n_r))
            scores2[0, : expected_k + 1] = np.linspace(1.0, 0.5, expected_k + 1)
            assert recall_at_percent(scores2, [{expected_k}], 1.0) == 0.0

    def test_pct_range_checked(self):
        with pytest.raises(ValidationError):
            recall_at_percent(np.eye(2), [{0}, {1}], 0.0)


class TestHitRate:
    def test_semi_positive_masked_out(self):
        # ranking: [semi, GT, other] -> R@1 misses, hit rate hits
        sim = np.array([[0.5, 0.9, 0.1]])
        positives = [{0}]
        semis = [{1}]
        assert recall_at_k(sim, positives, 1) == 0.0
        assert hit_rate(sim, positives, semis) == 1.0

    def test_no_semis_equals_r1(self):
        rng = np.random.default_rng(1)
        sim = rng.standard_normal((20, 15))
        positives = [{int(rng.integers(15))} for _ in range(20)]
        semis = [set() for _ in range(20)]
        assert hit_rate(sim, positives, semis) == recall_at_k(sim, positives, 1)

    def test_all_distractors_masked(self):
        sim = np.array([[0.1, 0.9, 0.8]])
        assert hit_rate(sim, [{0}], [{1, 2}]) == 1.0

    def test_positive_in_semis_rejected(self):
        with pytest.raises(ValidationError, match="semi"):
            hit_rate(np.eye(2), [{0}, {1}], [{0}, set()])

    @pytest.mark.parametrize("semi", [-1, 5])
    def test_semi_positive_outside_gallery_rejected(self, semi):
        with pytest.raises(ValidationError, match="semi-positive index outside the gallery"):
            hit_rate(np.array([[0.1, 0.9]]), [{0}], [{semi}])

    def test_first_bad_query_named(self):
        # query 0 has an out-of-gallery semi-positive, query 1 no positive
        with pytest.raises(ValidationError,
                           match="^query 0 has a semi-positive index outside the gallery$"):
            hit_rate(np.eye(2, 3), [{0}, set()], [{7}, set()])


class TestAveragePrecision:
    def test_single_positive_at_rank_one(self):
        assert average_precision([3, 1, 2], {3}) == 1.0

    def test_positives_at_ranks_one_and_three(self):
        assert average_precision([5, 9, 7, 1], {5, 7}) == pytest.approx(5 / 6)

    def test_positives_at_ranks_two_and_four(self):
        assert average_precision([9, 5, 8, 7], {5, 7}) == pytest.approx(0.5)

    def test_empty_positives_rejected(self):
        with pytest.raises(ValidationError):
            average_precision([1, 2], set())

    def test_missing_positive_contributes_zero(self):
        assert average_precision([1, 2], {1, 99}) == pytest.approx(0.5)

    def test_reference_ranked_twice_rejected(self):
        # [5, 5, 5] used to score 3.0, each copy counted as one more positive found
        with pytest.raises(ValidationError, match="^reference 5 is ranked twice: 1 and 2$"):
            average_precision([5, 5, 5], {5})
        with pytest.raises(ValidationError, match="^reference 2 is ranked twice: 2 and 4$"):
            average_precision([1, 2, 3, 2, 1], {1})


class TestNonFiniteSimilarity:
    # a NaN used to rank below everything and above nothing, so these scored 1.0
    SIM = [[np.nan, .5, .2], [.1, np.nan, .3]]

    @pytest.mark.parametrize("metric", [
        lambda sim: recall_at_k(sim, [{0}, {1}], 1),
        lambda sim: recall_at_percent(sim, [{0}, {1}]),
        lambda sim: hit_rate(sim, [{0}, {1}], [set(), set()]),
    ], ids=["recall_at_k", "recall_at_percent", "hit_rate"])
    def test_first_non_finite_entry_named(self, metric):
        with pytest.raises(ValidationError,
                           match=r"^similarity of query 0 to reference 0 is nan, not finite$"):
            metric(self.SIM)
        sim = np.eye(2, 3)
        sim[1, 2] = -np.inf
        with pytest.raises(ValidationError, match="query 1 to reference 2 is -inf"):
            metric(sim)


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self, rank_blocks):
        # odd cases use small-integer embeddings: their raw dot products are
        # integer-valued and duplicate rows tie exactly; the last case holds
        # more (query, positive) pairs than one rank block
        rng = np.random.default_rng(42)
        sizes = [(int(rng.integers(2, 40)), int(rng.integers(2, 40))) for _ in range(25)]
        sizes.append((RANK_BLOCK + 60, 30))
        for case, (n_q, n_r) in enumerate(sizes):
            if case % 2:
                xq, xr = rng.integers(1, 4, (n_q, 3)), rng.integers(1, 4, (n_r, 3))
            else:
                xq, xr = rng.standard_normal((n_q, 4)), rng.standard_normal((n_r, 4))
            sim = (xq @ xr.T).astype(np.float64)
            positives, semis = [], []
            for i in range(n_q):
                pool = [int(j) for j in rng.permutation(n_r)]
                n_pos = int(rng.integers(1, min(3, n_r) + 1))
                positives.append(set(pool[:n_pos]))
                semis.append(set(pool[n_pos : n_pos + int(rng.integers(0, 4))]))
            sim_list = sim.tolist()
            for k in (1, min(5, n_r), n_r):
                assert recall_at_k(sim, positives, k) == brute_recall_at_k(sim_list, positives, k)
            assert recall_at_percent(sim, positives, 1.0) == brute_recall_at_percent(
                sim_list, positives, 1.0
            )
            assert hit_rate(sim, positives, semis) == brute_hit_rate(sim_list, positives, semis)
            for i in range(n_q):
                ranking = rank_references(sim_list[i])
                assert average_precision(ranking, positives[i]) == brute_average_precision(
                    ranking, positives[i]
                )

            # the same instance through evaluate, which scores cosines
            q = EmbeddingTable(xq.astype(np.float32), tuple(f"q{i}" for i in range(n_q)))
            r = EmbeddingTable(xr.astype(np.float32), tuple(f"r{j}" for j in range(n_r)))
            records = [
                SampleRecord(id=f"q{i}", class_id=f"q{i}",
                             coord=Coordinate(0, 0, "planar"),
                             positives=tuple(f"r{j}" for j in sorted(positives[i])),
                             semi_positives=tuple(f"r{j}" for j in sorted(semis[i])))
                for i in range(n_q)
            ]
            report = evaluate(q, r, records)
            cos = cosine_matrix(l2_normalize(q), l2_normalize(r)).tolist()
            for k in RECALL_KS:
                assert report.recall_at[k] == brute_recall_at_k(cos, positives, min(k, n_r))
            assert report.recall_at_1pct == brute_recall_at_percent(cos, positives, 1.0)
            if any(semis):
                assert report.hit_rate == brute_hit_rate(cos, positives, semis)
            aps = [brute_average_precision(rank_references(row), p)
                   for row, p in zip(cos, positives)]
            assert report.mean_ap == float(np.mean(aps))
        assert sum(len(p) for p in positives) > RANK_BLOCK

    def test_two_positives_straddle_a_rank_block_edge(self, rank_blocks):
        # queries 0..RANK_BLOCK-2 hold one positive each, query RANK_BLOCK-1
        # two, so its pairs sit at positions RANK_BLOCK-1 and RANK_BLOCK, the
        # last of one scored block and the first of the next; small-integer
        # scores tie often
        rng = np.random.default_rng(11)
        n_q, n_r, edge = RANK_BLOCK, 40, RANK_BLOCK - 1
        sim = rng.integers(0, 6, (n_q, n_r)).astype(np.float64)
        positives = [{int(rng.integers(n_r))} for _ in range(edge)]
        positives.append({int(j) for j in rng.choice(n_r, 2, replace=False)})
        blocks = []

        def scores(q):
            blocks.append(q.tolist())
            return sim[q]

        best, _, pair_ranks, starts = _positive_ranks(
            scores, n_q, n_r, *link_arrays(positives, [set()] * n_q, n_q, n_r)
        )
        assert [len(b) for b in blocks] == [RANK_BLOCK, 1]
        assert blocks[0][-1] == blocks[1][0] == edge and starts[edge] == edge
        row = sim[edge].tolist()
        for k in range(1, n_r + 1):
            assert float(best[edge] <= k) == brute_recall_at_k([row], positives[edge:], k)
        ranking = rank_references(row)
        assert sorted(pair_ranks[edge:].tolist()) == sorted(ranking.index(j) + 1
                                                             for j in positives[edge])

    def test_report_of_float64_rows_matches_brute_force(self, rank_blocks):
        # the trainer's path: float64 unit rows, links resolved by row id
        rng = np.random.default_rng(7)
        n_q, n_r = RANK_BLOCK + 40, 50
        q, r = rng.standard_normal((n_q, 5)), rng.standard_normal((n_r, 5))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        ref_ids = tuple(f"r{j}" for j in range(n_r))
        records, positives, semis = [], [], []
        for i in range(n_q):
            rows = [int(j) for j in rng.permutation(n_r)[:4]]
            pool = [ref_ids[j] for j in rows]
            records.append(SampleRecord(id=f"q{i}", class_id=f"q{i}",
                                        coord=Coordinate(0, 0, "planar"),
                                        positives=tuple(pool[:1 + i % 2]),
                                        semi_positives=tuple(pool[2:])))
            positives.append(set(rows[:1 + i % 2]))
            semis.append(set(rows[2:]))
        links = resolve_links(records, ref_ids)
        for resolved, expected in zip(links, link_arrays(positives, semis, n_q, n_r)):
            np.testing.assert_array_equal(resolved, expected)
        report = retrieval_report(q, r, *links)
        sim = (q @ r.T).tolist()
        for k in RECALL_KS:
            assert report.recall_at[k] == brute_recall_at_k(sim, positives, k)
        assert report.recall_at_1pct == brute_recall_at_percent(sim, positives, 1.0)
        assert report.hit_rate == brute_hit_rate(sim, positives, semis)
        aps = [brute_average_precision(rank_references(row), p) for row, p in zip(sim, positives)]
        assert report.mean_ap == float(np.mean(aps))
        assert (report.n_queries, report.n_references) == (n_q, n_r)

    @given(n_q=st.integers(1, 2 * RANK_BLOCK + 1), n_r=st.integers(1, 12),
           top=st.integers(0, 3), max_pos=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(n_q=RANK_BLOCK, n_r=9, top=2, max_pos=1, seed=1)  # exactly one full block
    @example(n_q=RANK_BLOCK + 1, n_r=9, top=2, max_pos=1, seed=2)  # one pair past it
    @example(n_q=RANK_BLOCK - 1, n_r=9, top=1, max_pos=3, seed=3)  # multi-positive edge
    @example(n_q=2 * RANK_BLOCK + 1, n_r=12, top=0, max_pos=3, seed=4)  # every score tied
    def test_tie_heavy_ranks_match_brute_force(self, n_q, n_r, top, max_pos, seed):
        # scores in 0..top tie exactly and often, on both sides of a
        # positive's index; every other semi-positive copies the score of
        # one of the query's positives
        rng = np.random.default_rng(seed)
        sim = rng.integers(0, top + 1, (n_q, n_r)).astype(np.float64)
        positives, semis = [], []
        for i in range(n_q):
            order = [int(j) for j in rng.permutation(n_r)]
            n_pos = int(rng.integers(1, min(max_pos, n_r) + 1))
            semi = order[n_pos:n_pos + int(rng.integers(0, 4))]
            for j in semi[::2]:
                sim[i, j] = sim[i, order[int(rng.integers(n_pos))]]
            positives.append(set(order[:n_pos]))
            semis.append(set(semi))
        blocks = []

        def scores(q):
            blocks.append(len(q))
            return sim[q]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "block_rows", lambda width: RANK_BLOCK)
            best, best_masked, pair_ranks, starts = _positive_ranks(
                scores, n_q, n_r, *link_arrays(positives, semis, n_q, n_r))
        n_pairs = sum(map(len, positives))
        assert sum(blocks) == n_pairs and max(blocks) <= RANK_BLOCK
        assert len(blocks) == -(-n_pairs // RANK_BLOCK)
        for i, row in enumerate(sim.tolist()):
            pos, semi = positives[i], semis[i]
            ranking = rank_references(row)
            mine = sorted(pair_ranks[starts[i]:starts[i] + len(pos)].tolist())
            assert mine == sorted(ranking.index(j) + 1 for j in pos)
            unmasked = [j for j in ranking if j not in semi]
            assert best_masked[i] == min(unmasked.index(j) + 1 for j in pos)
            for k in range(1, n_r + 1):
                assert float(best[i] <= k) == brute_recall_at_k([row], [pos], k)
            assert float(best_masked[i] == 1) == brute_hit_rate([row], [pos], [semi])

    @staticmethod
    def unit_rows(rng, n, dim):
        x = rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def test_single_positive_ap_is_the_per_query_mean(self, rank_blocks):
        # one positive per query and 30 distractors: mean AP is the mean of
        # 1 / rank, with the same bits
        rng = np.random.default_rng(17)
        n_q, n_r = RANK_BLOCK + 7, RANK_BLOCK + 37
        q, r = self.unit_rows(rng, n_q, 3), self.unit_rows(rng, n_r, 3)
        positives = [{int(j)} for j in rng.permutation(n_r)[:n_q]]
        links = link_arrays(positives, [set()] * n_q, n_q, n_r)
        report = retrieval_report(q, r, *links)
        _, _, pair_ranks, _ = _positive_ranks(lambda rows: q[rows] @ r.T, n_q, n_r, *links)
        assert report.mean_ap == float(np.mean(1.0 / pair_ranks))
        sim = (q @ r.T).tolist()
        brute = [brute_average_precision(rank_references(row), p) for row, p in zip(sim, positives)]
        assert report.mean_ap == float(np.mean(brute))

    def test_one_two_positive_query_ap_matches_brute_force(self, rank_blocks):
        rng = np.random.default_rng(19)
        n_q, n_r = RANK_BLOCK + 7, RANK_BLOCK + 37
        q, r = self.unit_rows(rng, n_q, 3), self.unit_rows(rng, n_r, 3)
        order = [int(j) for j in rng.permutation(n_r)]
        positives = [{j} for j in order[:n_q]]
        positives[5].add(order[n_q])
        report = retrieval_report(q, r, *link_arrays(positives, [set()] * n_q, n_q, n_r))
        sim = (q @ r.T).tolist()
        brute = [brute_average_precision(rank_references(row), p) for row, p in zip(sim, positives)]
        assert report.mean_ap == float(np.mean(brute))

    @pytest.mark.parametrize("seed", range(4))
    def test_up_to_five_positives_with_distractors_match_brute_force(self, rank_blocks, seed):
        # 1..5 positives per query over several rank blocks; about a third of
        # the gallery is no query's positive
        rng = np.random.default_rng(seed)
        n_q, n_r = 2 * RANK_BLOCK + 5, 3 * RANK_BLOCK
        q, r = self.unit_rows(rng, n_q, 4), self.unit_rows(rng, n_r, 4)
        positives = [{int(j) for j in rng.choice(2 * RANK_BLOCK, int(rng.integers(1, 6)),
                                                 replace=False)} for _ in range(n_q)]
        assert max(map(len, positives)) == 5
        report = retrieval_report(q, r, *link_arrays(positives, [set()] * n_q, n_q, n_r))
        sim = (q @ r.T).tolist()
        brute = [brute_average_precision(rank_references(row), p) for row, p in zip(sim, positives)]
        assert report.mean_ap == float(np.mean(brute))

    def test_rank_transform_invariance(self):
        rng = np.random.default_rng(7)
        sim = rng.standard_normal((10, 12))
        positives = [{int(rng.integers(12))} for _ in range(10)]
        transformed = np.exp(2.0 * sim)  # strictly increasing
        for k in (1, 5, 12):
            assert recall_at_k(sim, positives, k) == recall_at_k(transformed, positives, k)


# byte budgets for 1-row rank blocks, blocks of 7 pairs over 50 references
# and one block of every pair
BUDGETS = {8: 1, 8 * 50 * 7: 7, 1 << 60: None}


def ranks_of(sim, positives, semis, pairs_per_block):
    """_positive_ranks over the rows of sim in blocks of pairs_per_block pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "block_rows", lambda width: pairs_per_block)
        return _positive_ranks(lambda q: sim[q], *sim.shape,
                               *link_arrays(positives, semis, *sim.shape))


class TestRankBlocks:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_report_bytes_equal_under_every_budget(self, monkeypatch, budget):
        # integer-valued rows (no zero entry, so no signed zero) score exactly
        # in any layout or gemm path, so every budget gives the oracle's
        # report; references 30 and 45 copy reference 3
        rng = np.random.default_rng(23)
        n_q, n_r = 40, 50
        q = rng.choice([-2.0, -1.0, 1.0, 2.0], (n_q, 6))
        r = rng.choice([-2.0, -1.0, 1.0, 2.0], (n_r, 6))
        r[30] = r[45] = r[3]
        positives = [{int(j) for j in rng.choice(n_r, 1 + i % 3, replace=False)}
                     for i in range(n_q)]
        semis = [{int(j) for j in rng.choice(n_r, 3, replace=False)} - pos for pos in positives]
        positives[0], semis[0] = {45}, {3}  # the copies tie: 3 goes ahead of 45
        links = link_arrays(positives, semis, n_q, n_r)
        heights = []
        blocks = evaluation.similarity_blocks

        def recording(q64, r64):
            scores = blocks(q64, r64)
            return lambda part: heights.append(len(part)) or scores(part)

        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
        monkeypatch.setattr(evaluation, "similarity_blocks", recording)
        report = retrieval_report(q, r, *links)
        assert max(heights) == (BUDGETS[budget] or len(links[0]))
        sim = (q @ r.T).tolist()
        assert report.recall_at == {k: brute_recall_at_k(sim, positives, k) for k in RECALL_KS}
        assert report.recall_at_1pct == brute_recall_at_percent(sim, positives, 1.0)
        assert report.hit_rate == brute_hit_rate(sim, positives, semis)
        aps = [brute_average_precision(rank_references(row), p) for row, p in zip(sim, positives)]
        assert report.mean_ap == float(np.mean(aps))

    @pytest.mark.parametrize("column", [1, 6])
    def test_one_row_with_a_second_tie(self, column):
        # a block of four rows with distinct scores but for row 2, whose
        # positive (column 4) ties column 1 or column 6: only a tie at a
        # lower column ranks ahead of it
        sim = np.array([np.roll(np.arange(8.0), k) for k in range(4)])
        sim[2, column] = sim[2, 4]  # 2.0, four references above it either way
        _, _, pair_ranks, _ = ranks_of(sim, [{4}] * 4, [set()] * 4, 4)
        assert pair_ranks.tolist() == [rank_references(row).index(4) + 1 for row in sim.tolist()]
        assert pair_ranks.tolist() == [4, 5, 6 if column == 1 else 5, 7]

    @pytest.mark.parametrize("semi, masked", [(1, 3), (6, 4)])
    def test_semi_positive_tied_with_its_positive(self, semi, masked):
        # the semi-positive scores what the positive (column 4) scores: one
        # at a lower column went ahead of it and is masked, one at a higher
        # column never was
        sim = np.array([[0.0, 5.0, 9.0, 8.0, 5.0, 1.0, 5.0, 2.0]])
        _, best_masked, pair_ranks, _ = ranks_of(sim, [{4}], [{semi}], 1)
        assert pair_ranks.tolist() == [rank_references(sim[0].tolist()).index(4) + 1] == [4]
        unmasked = [j for j in rank_references(sim[0].tolist()) if j != semi]
        assert best_masked.tolist() == [unmasked.index(4) + 1] == [masked]

    def test_nan_positive_score_hides_no_tie(self):
        # row 0's positive scores NaN, which nothing beats or ties: rank 1, as
        # every comparison is false. It adds no tie to the block's count, so
        # row 1's second tie (column 0, below its positive) must still count
        sim = np.array([[1.0, np.nan, 3.0], [2.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
        best, best_masked, pair_ranks, _ = ranks_of(sim, [{1}, {2}, {0}], [{2}, set(), set()], 3)
        assert pair_ranks.tolist() == [1, 2, 3]
        assert best_masked.tolist() == [1, 2, 3]


def oracle_ranks(sim, positives, semis):
    """(best rank, best masked rank) per query and every pair's rank, by count_rank."""
    rows = sim.tolist()
    pairs = [[count_rank(rows[i], c) for c in sorted(pos)] for i, pos in enumerate(positives)]
    masked = [min(count_rank(rows[i], c, semis[i]) for c in pos) for i, pos in enumerate(positives)]
    return [min(p) for p in pairs], masked, [r for p in pairs for r in p]


def assert_oracle_ranks(sim, positives, semis):
    """_positive_ranks of sim gives the oracle's ranks in 1-pair blocks, in
    blocks of 3 pairs and in one block of every pair."""
    expected = oracle_ranks(sim, positives, semis)
    for pairs_per_block in (1, 3, sum(map(len, positives))):
        best, best_masked, pair_ranks, _ = ranks_of(sim, positives, semis, pairs_per_block)
        assert (best.tolist(), best_masked.tolist(), pair_ranks.tolist()) == expected


class TestBitCount:
    """The higher scores are counted as packed bits, eight references a byte."""

    @pytest.mark.parametrize("n_r", [*range(1, 18), 5003])
    def test_widths_off_a_byte_boundary(self, n_r):
        # few distinct integer scores: ties on most rows, some at the last
        # columns, whose bits fill the padded last byte
        rng = np.random.default_rng(n_r)
        n_q = 7
        sim = rng.integers(-3, 4, (n_q, n_r)).astype(np.float64)
        positives = [{int(j) for j in rng.choice(n_r, min(n_r, 1 + i % 2), replace=False)}
                     for i in range(n_q)]
        positives[0] = {n_r - 1}
        semis = [{int(j) for j in rng.choice(n_r, min(n_r, 3), replace=False)} - pos
                 for pos in positives]
        assert_oracle_ranks(sim, positives, semis)
        _, _, pairs = oracle_ranks(sim, positives, semis)
        rows = sim.tolist()
        assert pairs == [rank_references(rows[i]).index(c) + 1
                         for i, pos in enumerate(positives) for c in sorted(pos)]

    @pytest.mark.parametrize("n_r", [8, 13, 5003])
    def test_every_reference_above_the_positive(self, n_r):
        # row 1's positive scores lowest: every other reference ranks ahead
        sim = np.random.default_rng(n_r).standard_normal((3, n_r))
        sim[1, 4] = sim[1].min() - 1.0
        assert_oracle_ranks(sim, [{0}, {4}, {n_r - 1}], [{1}, set(), set()])
        assert ranks_of(sim, [{0}, {4}, {n_r - 1}], [set()] * 3, 1)[2][1] == n_r

    def test_ties_at_a_lower_and_a_higher_column(self):
        # row 0's positive (column 5) ties column 2 and column 9: only column
        # 2 ranks ahead; row 1 ties only at higher columns, row 2 only lower
        sim = np.tile(np.arange(11.0), (3, 1))
        sim[0, [2, 9]] = sim[0, 5]
        sim[1, [7, 10]] = sim[1, 5]
        sim[2, [0, 1]] = sim[2, 5]
        assert_oracle_ranks(sim, [{5}] * 3, [{2}, {7}, {9}])
        assert ranks_of(sim, [{5}] * 3, [set()] * 3, 3)[2].tolist() == [6, 4, 8]

    def test_nan_positive_score(self):
        # a NaN positive is above and tied with nothing, so it ranks first;
        # a NaN elsewhere counts ahead of no positive
        sim = np.random.default_rng(8).integers(0, 3, (4, 12)).astype(np.float64)
        sim[1, 6] = np.nan
        sim[2, 3] = np.nan
        assert_oracle_ranks(sim, [{1, 9}, {6}, {0}, {11}], [{2}, {0, 1}, {3}, set()])
        assert ranks_of(sim, [{1, 9}, {6}, {0}, {11}], [set()] * 4, 5)[2][2] == 1

    @pytest.mark.parametrize("pairs_per_block", [1, 3, 1 << 30])
    def test_repeated_gallery_rows(self, monkeypatch, pairs_per_block):
        # integer-valued rows score exactly in any gemm, and references 5,
        # 11 and 12 copy reference 2: the copies tie, lower index first
        rng = np.random.default_rng(31)
        q = rng.choice([-2.0, -1.0, 1.0, 2.0], (9, 4))
        r = rng.choice([-2.0, -1.0, 1.0, 2.0], (13, 4))
        r[[5, 11, 12]] = r[2]
        positives = [{12}, {2}, {5, 11}, *({int(j)} for j in rng.choice(13, 6))]
        semis = [{2, 5}, {11}, {12}, *[set()] * 6]
        links = link_arrays(positives, semis, 9, 13)
        monkeypatch.setattr(evaluation, "block_rows", lambda width: pairs_per_block)
        best, best_masked, pair_ranks, _ = _positive_ranks(
            evaluation.similarity_blocks(q, r), 9, 13, *links)
        expected = oracle_ranks(q @ r.T, positives, semis)
        assert (best.tolist(), best_masked.tolist(), pair_ranks.tolist()) == expected


class TestEvaluate:
    def identity_setup(self, n=12, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, dim)).astype(np.float32)
        ids = tuple(f"p{i}" for i in range(n))
        table = EmbeddingTable(x, ids)
        records = [
            SampleRecord(id=ids[i], class_id=ids[i],
                         coord=Coordinate(0, 0, "planar"), positives=(ids[i],))
            for i in range(n)
        ]
        return table, records

    def test_identity_pairing_all_metrics_one(self):
        table, records = self.identity_setup()
        report = evaluate(table, table, records)
        assert report.recall_at == {1: 1.0, 5: 1.0, 10: 1.0}
        assert report.recall_at_1pct == 1.0
        assert report.hit_rate is None  # no semi-positives anywhere
        assert report.mean_ap is None  # 1:1 task, no distractors
        assert report.n_queries == report.n_references == 12

    def test_semi_positives_trigger_hit_rate(self):
        records, q, r = generate_synthetic(SynthConfig(n_pairs=20, seed=3))
        report = evaluate(q, r, records)
        assert report.hit_rate is not None
        assert report.hit_rate >= report.recall_at[1]

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            records, q, r = generate_synthetic(
                SynthConfig(n_pairs=30, noise_sigma=1.5, seed=seed)
            )
            report = evaluate(q, r, records)
            assert report.recall_at[1] <= report.recall_at[5] <= report.recall_at[10]

    def test_chance_level_on_random_embeddings(self):
        # R@1 should land near 1/n_r for unrelated embeddings
        n, trials = 200, 5
        rates = []
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            ids = tuple(f"p{i}" for i in range(n))
            q = EmbeddingTable(rng.standard_normal((n, 8)).astype(np.float32), ids)
            r = EmbeddingTable(rng.standard_normal((n, 8)).astype(np.float32), ids)
            records = [
                SampleRecord(id=ids[i], class_id=ids[i],
                             coord=Coordinate(0, 0, "planar"), positives=(ids[i],))
                for i in range(n)
            ]
            rates.append(evaluate(q, r, records).recall_at[1])
        mean = sum(rates) / trials
        p = 1 / n
        sigma = math.sqrt(p * (1 - p) / (n * trials))
        assert abs(mean - p) <= 3 * sigma

    def test_mean_ap_with_distractors(self):
        table, records = self.identity_setup(n=10)
        # gallery twice the size: 10 extra distractor references
        rng = np.random.default_rng(5)
        extra = rng.standard_normal((10, 6)).astype(np.float32)
        gallery = EmbeddingTable(
            np.vstack([table.data, extra]),
            table.row_ids + tuple(f"d{i}" for i in range(10)),
        )
        report = evaluate(table, gallery, records)
        assert report.mean_ap is not None
        assert 0.0 < report.mean_ap <= 1.0

    @pytest.mark.parametrize("pairs", [1, 32, 64])
    def test_identical_references_tie_toward_the_lower_index(self, monkeypatch, pairs):
        # reference 1000 copies reference 0 and is every query's positive. A
        # gemm may round its last column apart from the others, but the two
        # copies must tie, so the positive ranks after reference 0
        monkeypatch.setattr(evaluation, "block_rows", lambda width: pairs)
        rng = np.random.default_rng(2)
        r = rng.standard_normal((1001, 32)).astype(np.float32)
        r[1000] = r[0]
        q = r[0] + 0.5 * rng.standard_normal((64, 32)).astype(np.float32)
        refs = EmbeddingTable(r, tuple(f"r{j}" for j in range(1001)))
        queries = EmbeddingTable(q, tuple(f"q{i}" for i in range(64)))
        records = [SampleRecord(id=f"q{i}", class_id=f"q{i}",
                                coord=Coordinate(0, 0, "planar"), positives=("r1000",))
                   for i in range(64)]
        report = evaluate(queries, refs, records)
        assert report.recall_at == {1: 0.0, 5: 1.0, 10: 1.0}
        assert report.mean_ap == 0.5

    def test_never_holds_the_full_matrix(self):
        # one positive per query and 500 distractors; the scores are held one
        # rank block at a time, far below the n_q x n_r float64 matrix
        n_q, n_r, dim = 2000, 2500, 4
        rng = np.random.default_rng(3)
        q = EmbeddingTable(rng.standard_normal((n_q, dim)).astype(np.float32),
                           tuple(f"q{i}" for i in range(n_q)))
        r = EmbeddingTable(rng.standard_normal((n_r, dim)).astype(np.float32),
                           tuple(f"r{j}" for j in range(n_r)))
        records = [
            SampleRecord(id=f"q{i}", class_id=f"q{i}",
                         coord=Coordinate(0, 0, "planar"), positives=(f"r{i}",))
            for i in range(n_q)
        ]
        tracemalloc.start()
        try:
            report = evaluate(q, r, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.mean_ap is not None  # distractors: every metric ran
        assert peak < n_q * n_r * 8 / 4

    def test_smaller_blocks_bound_the_peak(self):
        # the same 2000 x 2500 task: the peak follows one block of score rows
        # (block_rows(n_r) x n_r float64) and the query and link bookkeeping;
        # the bound is four blocks of 32 pairs
        n_q, n_r, dim = 2000, 2500, 4
        rng = np.random.default_rng(3)
        q = EmbeddingTable(rng.standard_normal((n_q, dim)).astype(np.float32),
                           tuple(f"q{i}" for i in range(n_q)))
        r = EmbeddingTable(rng.standard_normal((n_r, dim)).astype(np.float32),
                           tuple(f"r{j}" for j in range(n_r)))
        records = [
            SampleRecord(id=f"q{i}", class_id=f"q{i}",
                         coord=Coordinate(0, 0, "planar"), positives=(f"r{i}",))
            for i in range(n_q)
        ]
        tracemalloc.start()
        try:
            evaluate(q, r, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 32 * n_r * 8

    @pytest.mark.parametrize("n_q, n_r, dim, semis, repeats", [
        (4000, 5000, 6, 3, False), (500, 3000, 16, 0, False), (10000, 10000, 4, 3, False),
        (2000, 2000, 64, 3, True), (200, 1000, 256, 3, True), (10000, 10000, 2, 10, False)])
    def test_score_estimate_bounds_the_traced_peak(self, n_q, n_r, dim, semis, repeats):
        # the float32 tables count, as eval reads them before it scores; a
        # gallery whose rows repeat in pairs takes np.unique's copies; each
        # semi-positive is one more link
        records, q, r = generate_synthetic(SynthConfig(n_pairs=n_r, latent_dim=4, view_dim=dim,
                                                       n_semi_positives=semis))
        q = EmbeddingTable(q.data[:n_q], q.row_ids[:n_q])
        if repeats:
            r = EmbeddingTable(np.repeat(r.data[::2], 2, axis=0), r.row_ids)
        n_links = sum(map(len, resolve_links(records[:n_q], r.row_ids)))
        assert n_links == n_q * (1 + semis)
        evaluate(q, r, records[:n_q])
        tracemalloc.start()
        try:
            evaluate(q, r, records[:n_q])
            peak = tracemalloc.get_traced_memory()[1] + 4 * (n_q + n_r) * dim
        finally:
            tracemalloc.stop()
        assert peak <= evaluation.score_bytes(n_q, n_r, dim, n_links) <= 3 * peak

    def test_over_budget_links_refused_before_scoring(self, monkeypatch):
        # the manifest's link count decides: one byte under the estimate of
        # 20 queries with a positive and three semi-positives each refuses
        records, q, r = generate_synthetic(SynthConfig(n_pairs=20, latent_dim=4, view_dim=6))
        need = evaluation.score_bytes(20, 20, 6, 80)
        monkeypatch.setattr(datasets, "HEAP_BUDGET_BYTES", need)
        assert evaluate(q, r, records) is not None
        monkeypatch.setattr(datasets, "HEAP_BUDGET_BYTES", need - 1)
        monkeypatch.setattr(evaluation, "similarity_blocks", None)  # scoring would raise
        with pytest.raises(ValidationError, match=rf"^evaluate of 20 queries with 80 links "
                           rf"against 20 references of dim 6 needs about {need:,} bytes, over "
                           rf"the budget of {need - 1:,} bytes$"):
            evaluate(q, r, records)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("which", ["query", "reference"])
    def test_row_spoilt_after_construction_named(self, value, which):
        # a table's data is a writable array: a row set to NaN or inf after
        # the table checked it, or zeroed, still stops evaluate, by name
        table, records = self.identity_setup()
        gallery = EmbeddingTable(table.data.copy(), table.row_ids)
        spoilt = table if which == "query" else gallery
        spoilt.data[4, 1 if value else slice(None)] = value
        message = (r"^embedding row 'p4' \(index 4\) holds a NaN or inf value$" if value
                   else r"^zero-norm row 4 cannot be normalised$")
        with warnings.catch_warnings():  # the norms are checked before any divide
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                evaluate(table, gallery, records)

    def test_query_row_named_before_a_reference_row(self):
        # both tables go wrong: the queries are checked first, each for a
        # zero row before a NaN one
        table, records = self.identity_setup()
        gallery = EmbeddingTable(table.data.copy(), table.row_ids)
        table.data[7, 0], table.data[9] = np.nan, 0.0
        gallery.data[2] = 0.0
        with pytest.raises(ValidationError, match=r"^zero-norm row 9 "):
            evaluate(table, gallery, records)
        table.data[9] = 1.0
        with pytest.raises(ValidationError, match=r"^embedding row 'p7' "):
            evaluate(table, gallery, records)
        table.data[7, 0] = 1.0
        with pytest.raises(ValidationError, match=r"^zero-norm row 2 "):
            evaluate(table, gallery, records)

    def test_dim_mismatch_named(self):
        rng = np.random.default_rng(4)
        q = EmbeddingTable(rng.standard_normal((3, 4)).astype(np.float32), ("a", "b", "c"))
        r = EmbeddingTable(rng.standard_normal((3, 5)).astype(np.float32), ("a", "b", "c"))
        records = [SampleRecord(id=i, class_id=i, coord=Coordinate(0, 0, "planar"),
                                positives=(i,)) for i in q.row_ids]
        with pytest.raises(ValidationError, match="dim mismatch: queries 4 vs references 5"):
            evaluate(q, r, records)

    def test_misaligned_rows_rejected(self):
        table, records = self.identity_setup()
        with pytest.raises(ValidationError, match="align"):
            evaluate(table, table, list(reversed(records)))

    def test_repeated_links_count_once(self):
        # record i lists its positives and semi-positives twice over: the
        # report (recall, hit rate, multi-positive AP) is the one of listing
        # each once
        rng = np.random.default_rng(12)
        n_q, n_r = 20, 30
        q = EmbeddingTable(rng.standard_normal((n_q, 4)).astype(np.float32),
                           tuple(f"q{i}" for i in range(n_q)))
        r = EmbeddingTable(rng.standard_normal((n_r, 4)).astype(np.float32),
                           tuple(f"r{j}" for j in range(n_r)))
        once, twice = [], []
        for i in range(n_q):
            refs = [f"r{j}" for j in rng.permutation(n_r)[:5]]
            pos, semi = tuple(refs[:1 + i % 2]), tuple(refs[2:])
            for records, reps in ((once, 1), (twice, 2)):
                records.append(SampleRecord(id=f"q{i}", class_id=f"q{i}",
                                            coord=Coordinate(0, 0, "planar"),
                                            positives=pos * reps,
                                            semi_positives=semi[:1] * reps + semi[1:]))
        for a, b in zip(resolve_links(once, r.row_ids), resolve_links(twice, r.row_ids)):
            np.testing.assert_array_equal(a, b)
        report = evaluate(q, r, once)
        assert report.hit_rate is not None and report.mean_ap is not None
        assert evaluate(q, r, twice).to_json() == report.to_json()

    def test_absent_positive_named_before_an_earlier_absent_semi_positive(self):
        ids = ("r0", "r1")
        records = [
            SampleRecord(id="q0", class_id="q0", coord=Coordinate(0, 0, "planar"),
                         positives=("r0",), semi_positives=("gone-semi",)),
            SampleRecord(id="q1", class_id="q1", coord=Coordinate(0, 0, "planar"),
                         positives=("r1", "gone-pos")),
        ]
        with pytest.raises(ValidationError,
                           match="^record 'q1' references 'gone-pos', absent from the gallery$"):
            resolve_links(records, ids)

    def test_positive_missing_from_gallery_rejected(self):
        table, records = self.identity_setup(n=4)
        gallery = EmbeddingTable(table.data[:3], table.row_ids[:3])
        with pytest.raises(ValidationError, match="absent from the gallery"):
            evaluate(table, gallery, records)
