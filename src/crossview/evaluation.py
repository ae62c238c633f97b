"""Retrieval metrics: Recall@k, Recall@1%, semi-positive-masked hit rate, AP.

All metrics are rank-based (invariant under any strictly increasing
transform of the similarity scores) and break ranking ties toward the
lower reference index so results reproduce across implementations.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .datasets import EmbeddingTable, SampleRecord, require_aligned
from .errors import ValidationError
# cosine_matrix stays importable here: the bench tracer binds evaluation.cosine_matrix
from .simsearch import cosine_matrix, l2_normalize  # noqa: F401

RECALL_KS = (1, 5, 10)


@dataclass(frozen=True)
class RetrievalReport:
    recall_at: dict[int, float]
    recall_at_1pct: float
    hit_rate: float | None
    mean_ap: float | None
    n_queries: int
    n_references: int

    def to_json(self) -> str:
        obj = {
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "recall_at_1pct": self.recall_at_1pct,
            "hit_rate": self.hit_rate,
            "mean_ap": self.mean_ap,
            "n_queries": self.n_queries,
            "n_references": self.n_references,
        }
        return json.dumps(obj, sort_keys=True)


RANK_BLOCK = 32  # (query, positive) pairs per block: 1.28 MB of scores at n_r = 5000, in L2


def _positive_ranks(
    scores: Callable[[np.ndarray], np.ndarray], n_q: int, n_r: int,
    positives: list[set[int]], semi_positives: list[set[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank of each query's positives under descending similarity.

    ``scores(q)`` returns the float64 similarity rows (len(q), n_r) of the
    queries q of one block of at most RANK_BLOCK (query, positive) pairs,
    so no n_q x n_r matrix need exist. A rank is 1 + the references scored
    strictly higher + those tied with the positive at a lower index. Each
    row is counted in two passes (scores above, scores equal to the
    positive's); only a row with another exact tie is searched for the
    ties at a lower index. The masked rank subtracts the query's
    semi-positives that the same rule puts ahead of the positive.
    Returns each query's best rank and best masked rank, every pair's rank
    and the first pair of each query.
    """
    for name, sets in (("positive", positives), ("semi-positive", semi_positives)):
        if not n_q or len(sets) != n_q:
            raise ValidationError(f"{len(sets)} {name} sets for {n_q} queries")
    pairs, semis = [], []  # (query, positive), (pair, semi-positive)
    for i, (pos, semi) in enumerate(zip(positives, semi_positives)):
        if not pos:
            raise ValidationError(f"query {i} has an empty positive set")
        for name, refs in (("positive", pos), ("semi-positive", semi)):
            if any(j < 0 or j >= n_r for j in refs):
                raise ValidationError(f"query {i} has a {name} index outside the gallery")
        if clash := pos & semi:
            raise ValidationError(f"query {i}: positives {sorted(clash)} are also semi-positives")
        semis += [(len(pairs) + m, j) for m in range(len(pos)) for j in semi]
        pairs += [(i, j) for j in sorted(pos)]
    pairs, semis = np.array(pairs), np.array(semis, dtype=np.intp).reshape(-1, 2)
    ranks = np.empty((len(pairs), 2), dtype=np.int64)  # plain, masked
    for a in range(0, len(pairs), RANK_BLOCK):
        q, c = pairs[a:a + RANK_BLOCK].T
        rows = scores(q)
        s = rows[np.arange(len(q)), c][:, None]
        # int32 sums take half the time of count_nonzero's intp ones; n_r < 2**31
        rank = (rows > s).sum(axis=1, dtype=np.int32) + 1
        for i in np.flatnonzero((rows == s).sum(axis=1, dtype=np.int32) > 1):
            rank[i] += np.count_nonzero(rows[i, :c[i]] == s[i])
        lo, hi = np.searchsorted(semis[:, 0], [a, a + len(q)])
        p, j = semis[lo:hi, 0] - a, semis[lo:hi, 1]
        v, sp = rows[p, j], s[p, 0]
        ahead = (v > sp) | ((v == sp) & (j < c[p]))
        del rows  # freed before the next block is scored
        ranks[a:a + len(q), 0] = rank
        ranks[a:a + len(q), 1] = rank - np.bincount(p[ahead], minlength=len(q))
    starts = np.flatnonzero(np.diff(pairs[:, 0], prepend=-1))
    best = np.minimum.reduceat(ranks, starts)
    return best[:, 0], best[:, 1], ranks[:, 0], starts


def _matrix_ranks(
    sim: np.ndarray, positives: list[set[int]], semi_positives: list[set[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_positive_ranks over the rows of a given (n_q, n_r) similarity matrix."""
    sim = np.asarray(sim, dtype=np.float64)
    return _positive_ranks(lambda q: sim[q], *sim.shape, positives, semi_positives)


def _recall(best_ranks: np.ndarray, k: int) -> float:
    return int(np.count_nonzero(best_ranks <= k)) / len(best_ranks)


def recall_at_k(sim: np.ndarray, positives: list[set[int]], k: int) -> float:
    """Fraction of queries whose top-k ranked references contain a positive."""
    n_r = np.shape(sim)[1]
    if not 1 <= k <= n_r:
        raise ValidationError(f"k={k} outside [1, {n_r}]")
    return _recall(_matrix_ranks(sim, positives, [set()] * len(positives))[0], k)


def _percent_k(pct: float, n_r: int) -> int:
    return math.ceil(pct / 100.0 * n_r)


def recall_at_percent(sim: np.ndarray, positives: list[set[int]], pct: float = 1.0) -> float:
    """recall_at_k with k = ceil(pct/100 * gallery size)."""
    if not 0.0 < pct <= 100.0:
        raise ValidationError(f"pct={pct} outside (0, 100]")
    return recall_at_k(sim, positives, _percent_k(pct, np.shape(sim)[1]))


def hit_rate(
    sim: np.ndarray, positives: list[set[int]], semi_positives: list[set[int]]
) -> float:
    """R@1 after removing each query's semi-positives from its gallery."""
    return _recall(_matrix_ranks(sim, positives, semi_positives)[1], 1)


def _average_precision(ranks: list[int], n_positives: int) -> float:
    # ranks ascending; positives missing from them contribute zero
    total = 0.0
    for found, rank in enumerate(ranks, start=1):
        total += found / rank
    return total / n_positives


def average_precision(ranking: list[int], positives: set[int]) -> float:
    """Un-interpolated AP of one ranked reference list.

    Mean over positives of precision at each positive's rank; positives
    missing from the ranking contribute zero.
    """
    if not positives:
        raise ValidationError("positives must be non-empty")
    ranks = [rank for rank, ref in enumerate(ranking, start=1) if ref in positives]
    return _average_precision(ranks, len(positives))


def resolve_links(
    manifest: list[SampleRecord], ref_ids: tuple[str, ...]
) -> tuple[list[set[int]], list[set[int]]]:
    """Each record's positives and semi-positives as row indices of ref_ids."""
    ref_row = {rid: j for j, rid in enumerate(ref_ids)}

    def resolve(ids: tuple[str, ...], record_id: str) -> set[int]:
        out = set()
        for rid in ids:
            if rid not in ref_row:
                raise ValidationError(
                    f"record {record_id!r} references {rid!r}, absent from the gallery"
                )
            out.add(ref_row[rid])
        return out

    return ([resolve(r.positives, r.id) for r in manifest],
            [resolve(r.semi_positives, r.id) for r in manifest])


def retrieval_report(
    q64: np.ndarray, r64: np.ndarray, positives: list[set[int]], semi_positives: list[set[int]]
) -> RetrievalReport:
    """Every metric of float64 unit query rows against float64 unit
    reference rows, from one rank pass over blocks of score rows.

    hit_rate is set only when some query has semi-positives, mean AP only
    when some query has multiple positives or the gallery holds
    distractor references.
    """
    n_q, n_r = len(q64), len(r64)
    best, best_masked, pair_ranks, starts = _positive_ranks(
        lambda rows: q64[rows] @ r64.T, n_q, n_r, positives, semi_positives
    )
    recall = {k: _recall(best, min(k, n_r)) for k in RECALL_KS}
    hit = _recall(best_masked, 1) if any(s for s in semi_positives) else None
    mean_ap = None
    if any(len(p) > 1 for p in positives) or len(set().union(*positives)) < n_r:
        if len(pair_ranks) == n_q:  # one positive each: its AP is 1 / rank, the same bits
            mean_ap = float(np.mean(1.0 / pair_ranks))
        else:
            per_query = np.split(pair_ranks, starts[1:])
            aps = [_average_precision(sorted(r.tolist()), len(p))
                   for r, p in zip(per_query, positives)]
            mean_ap = float(np.mean(aps))
    return RetrievalReport(recall_at=recall, recall_at_1pct=_recall(best, _percent_k(1.0, n_r)),
                           hit_rate=hit, mean_ap=mean_ap, n_queries=n_q, n_references=n_r)


def evaluate(
    queries: EmbeddingTable, references: EmbeddingTable, manifest: list[SampleRecord]
) -> RetrievalReport:
    """Full metric suite for a query table against a reference gallery.

    Query rows align with manifest records; positives/semi-positives are
    resolved through the reference table's row ids. Both tables are
    L2-normalised, then scored by retrieval_report.
    """
    require_aligned("query", queries.row_ids, manifest)
    positives, semis = resolve_links(manifest, references.row_ids)
    q, r = l2_normalize(queries), l2_normalize(references)
    if q.dim != r.dim:
        raise ValidationError(f"dim mismatch: queries {q.dim} vs references {r.dim}")
    return retrieval_report(q.data.astype(np.float64), r.data.astype(np.float64), positives, semis)
