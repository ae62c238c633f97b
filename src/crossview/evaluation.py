"""Retrieval metrics: Recall@k, Recall@1%, the semi-positive-masked hit rate
and AP, all from one rank count per (query, positive) pair."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import chain, repeat

import numpy as np

from .datasets import (EmbeddingTable, SampleRecord, json_line, require_aligned, require_heap,
                       require_links)
from .errors import ValidationError, first_repeat
from .neighbors import BLOCK_BYTES, block_rows, small_buffer
# cosine_matrix stays importable here: the bench tracer binds evaluation.cosine_matrix
from .simsearch import cosine_matrix, similarity_blocks, unit32  # noqa: F401

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
        recall_at = {str(k): v for k, v in self.recall_at.items()}
        return json_line({**asdict(self), "recall_at": recall_at})


@small_buffer
def _positive_ranks(scores: Callable[[np.ndarray], np.ndarray], n_q: int, n_r: int,
                    positives: np.ndarray, semi_positives: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each query's best rank and best masked rank, every pair's rank and each
    query's first pair, for link arrays (``_link_rows``) that give each of
    n_q >= 1 queries a positive.

    ``scores(q)`` returns the float64 rows (len(q), n_r) of one block of at
    most ``block_rows(n_r)`` pairs, so no n_q x n_r matrix is held. A rank is
    1 + the references scored higher + those tied with the positive at a
    lower index; the masked rank leaves out the query's semi-positives. Each
    row ties its own positive once, so only a block with more ties than rows,
    or a NaN positive score, is searched for ties row by row.
    """
    # each (query, positive) pair takes its query's run of semi_positives
    n_semi = np.bincount(semi_positives[:, 0], minlength=n_q)[positives[:, 0]]
    semi_pair = np.repeat(np.arange(len(positives)), n_semi)
    run = np.searchsorted(semi_positives[:, 0], positives[:, 0]) - np.cumsum(n_semi) + n_semi
    semi_ref = semi_positives[np.arange(len(semi_pair)) + run[semi_pair], 1]
    ranks = np.empty((len(positives), 2), dtype=np.int64)  # plain, masked
    pos_score, semi_score = np.empty(len(positives)), np.empty(len(semi_pair))
    step = block_rows(n_r)
    firsts = range(0, len(positives), step)
    runs = np.searchsorted(semi_pair, [*firsts, len(positives)]).tolist()  # each block's semis
    for a, lo, hi in zip(firsts, runs, runs[1:]):
        q, c = positives[a:a + step].T
        rows = scores(q)
        s = rows[np.arange(len(q)), c][:, None]
        # count the higher scores as packed bits: the int32 sums read n_r / 8 bytes a row
        rank = np.bitwise_count(np.packbits(rows > s, axis=1)).sum(axis=1, dtype=np.int32) + 1
        tie = rows == s
        if np.count_nonzero(tie) != len(q) or np.isnan(s).any():
            for i in np.flatnonzero(tie.sum(axis=1, dtype=np.int32) > 1):
                rank[i] += np.count_nonzero(tie[i, :c[i]])
        semi_score[lo:hi] = rows[semi_pair[lo:hi] - a, semi_ref[lo:hi]]
        del rows, tie  # freed before the next block is scored
        ranks[a:a + len(q), 0] = rank
        pos_score[a:a + len(q)] = s[:, 0]
    sp = pos_score[semi_pair]
    ahead = (semi_score > sp) | ((semi_score == sp) & (semi_ref < positives[semi_pair, 1]))
    ranks[:, 1] = ranks[:, 0] - np.bincount(semi_pair[ahead], minlength=len(positives))
    starts = np.flatnonzero(np.diff(positives[:, 0], prepend=-1))
    best = np.minimum.reduceat(ranks, starts)
    return best[:, 0], best[:, 1], ranks[:, 0], starts


def _link_rows(counts: np.ndarray | list[int], rows: np.ndarray | list[int],
               n_r: int) -> np.ndarray:
    """Sorted (query, reference row) rows, each once: query i takes the next counts[i] rows."""
    key = np.repeat(np.arange(len(counts)), counts) * (n_r + 1) + np.asarray(rows, np.int64)
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]  # faster than np.unique here
    return np.stack(np.divmod(key, n_r + 1), axis=1)


def link_arrays(positives: list[set[int]], semi_positives: list[set[int]], n_q: int,
                n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query index sets, checked, as link arrays; errors name the first bad query."""
    for name, sets in (("positive", positives), ("semi-positive", semi_positives)):
        if not n_q or len(sets) != n_q:
            raise ValidationError(f"{len(sets)} {name} sets for {n_q} queries")
    for i, (pos, semi) in enumerate(zip(positives, semi_positives)):
        require_links(f"query {i}", pos, semi)
        for name, refs in (("positive", pos), ("semi-positive", semi)):
            if any(j < 0 or j >= n_r for j in refs):
                raise ValidationError(f"query {i} has a {name} index outside the gallery")
    return tuple(_link_rows(list(map(len, sets)), list(chain.from_iterable(sets)), n_r)
                 for sets in (positives, semi_positives))


def _matrix_ranks(sim: np.ndarray, positives: list[set[int]],
                  semi_positives: list[set[int]]) -> tuple[np.ndarray, ...]:
    """_positive_ranks over the rows of a given (n_q, n_r) similarity matrix;
    a NaN or inf entry raises, naming the first."""
    sim = np.asarray(sim, dtype=np.float64)
    links = link_arrays(positives, semi_positives, *sim.shape)
    if not np.isfinite(sim).all():
        q, r = np.argwhere(~np.isfinite(sim))[0]
        raise ValidationError(f"similarity of query {q} to reference {r} is {sim[q, r]}, "
                              "not finite")
    return _positive_ranks(lambda q: sim[q], *sim.shape, *links)


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


def _ap_totals(ranks: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per query, found / rank over its positives' ranks, ascending in the run
    of ``ranks`` from its ``starts`` entry, added one at a time from left to
    right: Python's sum() compensates from 3.12 on, which changes the bits."""
    counts = np.diff(starts, append=len(ranks))
    total = np.zeros(len(starts))
    for found in range(1, counts.max() + 1):
        q = np.flatnonzero(counts >= found)
        total[q] += found / ranks[starts[q] + found - 1]
    return total


def average_precision(ranking: list[int], positives: set[int]) -> float:
    """Un-interpolated AP of one ranked list: the mean over positives of the
    precision at each one's rank, 0 for one not ranked. A reference ranked
    twice raises."""
    require_links("the ranked query", positives)
    repeat = first_repeat(ranking)
    if repeat:
        i, j = repeat
        raise ValidationError(f"reference {ranking[j]!r} is ranked twice: {i + 1} and {j + 1}")
    ranks = [rank for rank, ref in enumerate(ranking, start=1) if ref in positives]
    total = _ap_totals(np.array(ranks, dtype=np.int64), np.zeros(1, dtype=np.intp))[0]
    return float(total / len(positives))


def resolve_links(manifest: list[SampleRecord],
                  ref_ids: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The records' positives and semi-positives as ``_link_rows`` of ref_ids."""
    ref_row = dict(zip(ref_ids, range(len(ref_ids))))
    links = []
    for ids in ([r.positives for r in manifest], [r.semi_positives for r in manifest]):
        counts = np.fromiter(map(len, ids), np.int64, len(ids))
        rows = np.fromiter(map(ref_row.get, chain.from_iterable(ids), repeat(-1)), np.int64,
                           int(counts.sum()))
        if rows.size and rows.min() < 0:  # name the first absent id
            r, rid = next((r, x) for r, i in zip(manifest, ids) for x in i if x not in ref_row)
            raise ValidationError(f"record {r.id!r} references {rid!r}, absent from the gallery")
        links.append(_link_rows(counts, rows, len(ref_ids)))
    return links[0], links[1]


def retrieval_report(q64: np.ndarray, r64: np.ndarray, positives: np.ndarray,
                     semi_positives: np.ndarray) -> RetrievalReport:
    """Every metric of float64 unit query and reference rows and link arrays
    (``resolve_links``, ``link_arrays``), from one rank pass. hit_rate is set
    only when some query has semi-positives, mean AP only when some query
    has several positives or some reference is no query's positive."""
    n_q, n_r = len(q64), len(r64)
    best, best_masked, pair_ranks, starts = _positive_ranks(similarity_blocks(q64, r64), n_q, n_r,
                                                            positives, semi_positives)
    recall = {k: _recall(best, min(k, n_r)) for k in RECALL_KS}
    hit = _recall(best_masked, 1) if len(semi_positives) else None
    mean_ap = None
    if len(positives) > n_q or not np.bincount(positives[:, 1], minlength=n_r).all():
        ranks = np.sort(positives[:, 0] * (n_r + 1) + pair_ranks) % (n_r + 1)
        counts = np.diff(starts, append=len(positives))
        mean_ap = float(np.mean(_ap_totals(ranks, starts) / counts))
    return RetrievalReport(recall_at=recall, recall_at_1pct=_recall(best, _percent_k(1.0, n_r)),
                           hit_rate=hit, mean_ap=mean_ap, n_queries=n_q, n_references=n_r)


def score_bytes(n_q: int, n_r: int, dim: int, n_links: int) -> int:
    """An upper estimate of evaluate's peak heap in bytes, the float32 tables
    included, for n_links links in all: 16 bytes per query value, 48 per
    reference value (its unit, gallery and np.unique copies), 64 per link, 64
    per query and 96 per reference for ranks and the id map, and two
    BLOCK_BYTES of scores."""
    return 8 * dim * (2 * n_q + 6 * n_r) + 64 * n_links + 64 * n_q + 96 * n_r + 2 * BLOCK_BYTES


def evaluate(
    queries: EmbeddingTable, references: EmbeddingTable, manifest: list[SampleRecord]
) -> RetrievalReport:
    """Every metric of a query table against a reference gallery. Query rows
    align with the manifest's records, whose links resolve through the
    references' row ids; ``score_bytes`` is checked before either table is
    copied. Both are rounded as ``l2_normalize`` rounds them, queries first."""
    if not manifest:
        raise ValidationError("the manifest holds no queries")
    require_aligned("query", queries.row_ids, manifest)
    positives, semis = resolve_links(manifest, references.row_ids)
    n_q, n_r, dim = len(manifest), references.count, max(queries.dim, references.dim)
    n_links = len(positives) + len(semis)
    require_heap(score_bytes(n_q, n_r, dim, n_links),
                 f"evaluate of {n_q} queries with {n_links} links against {n_r} references "
                 f"of dim {dim}")
    q64, r64 = (unit32(table).astype(np.float64) for table in (queries, references))
    return retrieval_report(q64, r64, positives, semis)
