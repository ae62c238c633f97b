import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from crossview import evaluation
from crossview.datasets import Coordinate, EmbeddingTable, SampleRecord, SynthConfig, generate_synthetic
from crossview.errors import ValidationError
from crossview.evaluation import (
    RANK_BLOCK,
    RECALL_KS,
    _average_precision,
    _positive_ranks,
    average_precision,
    evaluate,
    hit_rate,
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
    rank_references,
)


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


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self):
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
                SampleRecord(id=f"q{i}", pair_index=i, class_id=f"q{i}",
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

    def test_two_positives_straddle_a_rank_block_edge(self):
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
            scores, n_q, n_r, positives, [set()] * n_q
        )
        assert [len(b) for b in blocks] == [RANK_BLOCK, 1]
        assert blocks[0][-1] == blocks[1][0] == edge and starts[edge] == edge
        row = sim[edge].tolist()
        for k in range(1, n_r + 1):
            assert float(best[edge] <= k) == brute_recall_at_k([row], positives[edge:], k)
        ap = _average_precision(sorted(pair_ranks[edge:].tolist()), 2)
        assert ap == brute_average_precision(rank_references(row), positives[edge])

    def test_report_of_float64_rows_matches_brute_force(self):
        # the trainer's path: float64 unit rows, links resolved by row id
        rng = np.random.default_rng(7)
        n_q, n_r = RANK_BLOCK + 40, 50
        q, r = rng.standard_normal((n_q, 5)), rng.standard_normal((n_r, 5))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        ref_ids = tuple(f"r{j}" for j in range(n_r))
        records = []
        for i in range(n_q):
            pool = [ref_ids[j] for j in rng.permutation(n_r)[:4]]
            records.append(SampleRecord(id=f"q{i}", pair_index=i, class_id=f"q{i}",
                                        coord=Coordinate(0, 0, "planar"),
                                        positives=tuple(pool[:1 + i % 2]),
                                        semi_positives=tuple(pool[2:])))
        positives, semis = resolve_links(records, ref_ids)
        report = retrieval_report(q, r, positives, semis)
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

        best, best_masked, pair_ranks, starts = _positive_ranks(
            scores, n_q, n_r, positives, semis)
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
            assert _average_precision(mine, len(pos)) == brute_average_precision(ranking, pos)

    @staticmethod
    def unit_rows(rng, n, dim):
        x = rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def test_single_positive_ap_is_the_per_query_mean(self, monkeypatch):
        # one positive per query and 30 distractors: mean AP comes from the
        # pair ranks directly, with the bits of the per-query loop
        rng = np.random.default_rng(17)
        n_q, n_r = RANK_BLOCK + 7, RANK_BLOCK + 37
        q, r = self.unit_rows(rng, n_q, 3), self.unit_rows(rng, n_r, 3)
        positives = [{int(j)} for j in rng.permutation(n_r)[:n_q]]
        semis = [set()] * n_q
        calls = []
        monkeypatch.setattr(evaluation, "_average_precision",
                            lambda *a: calls.append(a) or _average_precision(*a))
        report = retrieval_report(q, r, positives, semis)
        assert calls == []
        _, _, pair_ranks, _ = _positive_ranks(lambda rows: q[rows] @ r.T, n_q, n_r,
                                              positives, semis)
        per_query = [_average_precision([rank], 1) for rank in pair_ranks.tolist()]
        assert report.mean_ap == float(np.mean(per_query))
        sim = (q @ r.T).tolist()
        brute = [brute_average_precision(rank_references(row), p) for row, p in zip(sim, positives)]
        assert report.mean_ap == float(np.mean(brute))

    def test_one_two_positive_query_takes_the_general_ap_path(self, monkeypatch):
        rng = np.random.default_rng(19)
        n_q, n_r = RANK_BLOCK + 7, RANK_BLOCK + 37
        q, r = self.unit_rows(rng, n_q, 3), self.unit_rows(rng, n_r, 3)
        order = [int(j) for j in rng.permutation(n_r)]
        positives = [{j} for j in order[:n_q]]
        positives[5].add(order[n_q])
        calls = []
        monkeypatch.setattr(evaluation, "_average_precision",
                            lambda *a: calls.append(a) or _average_precision(*a))
        report = retrieval_report(q, r, positives, [set()] * n_q)
        assert len(calls) == n_q
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


class TestEvaluate:
    def identity_setup(self, n=12, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, dim)).astype(np.float32)
        ids = tuple(f"p{i}" for i in range(n))
        table = EmbeddingTable(x, ids)
        records = [
            SampleRecord(id=ids[i], pair_index=i, class_id=ids[i],
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
                SampleRecord(id=ids[i], pair_index=i, class_id=ids[i],
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
            SampleRecord(id=f"q{i}", pair_index=i, class_id=f"q{i}",
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
        # (RANK_BLOCK x n_r float64) and the query and link bookkeeping,
        # about 3.3 blocks at RANK_BLOCK = 32
        n_q, n_r, dim = 2000, 2500, 4
        rng = np.random.default_rng(3)
        q = EmbeddingTable(rng.standard_normal((n_q, dim)).astype(np.float32),
                           tuple(f"q{i}" for i in range(n_q)))
        r = EmbeddingTable(rng.standard_normal((n_r, dim)).astype(np.float32),
                           tuple(f"r{j}" for j in range(n_r)))
        records = [
            SampleRecord(id=f"q{i}", pair_index=i, class_id=f"q{i}",
                         coord=Coordinate(0, 0, "planar"), positives=(f"r{i}",))
            for i in range(n_q)
        ]
        tracemalloc.start()
        try:
            evaluate(q, r, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * RANK_BLOCK * n_r * 8

    def test_dim_mismatch_named(self):
        rng = np.random.default_rng(4)
        q = EmbeddingTable(rng.standard_normal((3, 4)).astype(np.float32), ("a", "b", "c"))
        r = EmbeddingTable(rng.standard_normal((3, 5)).astype(np.float32), ("a", "b", "c"))
        records = [SampleRecord(id=i, pair_index=n, class_id=i, coord=Coordinate(0, 0, "planar"),
                                positives=(i,)) for n, i in enumerate(q.row_ids)]
        with pytest.raises(ValidationError, match="dim mismatch: queries 4 vs references 5"):
            evaluate(q, r, records)

    def test_misaligned_rows_rejected(self):
        table, records = self.identity_setup()
        with pytest.raises(ValidationError, match="align"):
            evaluate(table, table, list(reversed(records)))

    def test_positive_missing_from_gallery_rejected(self):
        table, records = self.identity_setup(n=4)
        gallery = EmbeddingTable(table.data[:3], table.row_ids[:3])
        with pytest.raises(ValidationError, match="absent from the gallery"):
            evaluate(table, gallery, records)
