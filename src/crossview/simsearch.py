"""Embedding normalisation, cosine similarity, and top-K visual neighbour search.

Feeds the dynamic similarity sampling phase: after an inference pass over
the training set, every query gets a pool of its most similar references
to mine hard negatives from. All similarity math runs in float64 so
orderings (and therefore batch plans) are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import EmbeddingTable
from .errors import ValidationError
from .neighbors import nearest_k


@dataclass(frozen=True)
class NeighborPool:
    """Ordered candidate hard negatives for one anchor.

    Scores are similarities (descending) for kind='visual' and distances
    (ascending) for kind='geographic'. The anchor's own paired candidate
    never appears.
    """

    anchor_index: int
    neighbor_indices: tuple[int, ...]
    scores: tuple[float, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("geographic", "visual"):
            raise ValidationError(f"unknown pool kind {self.kind!r}")
        if len(self.neighbor_indices) != len(self.scores):
            raise ValidationError("neighbor_indices and scores must have equal length")
        if self.anchor_index in self.neighbor_indices:
            raise ValidationError(
                f"pool for anchor {self.anchor_index} contains the anchor itself"
            )
        s = np.asarray(self.scores)
        if s.size > 1:
            diffs = np.diff(s)
            if self.kind == "geographic" and np.any(diffs < 0):
                raise ValidationError("geographic pool distances must be non-decreasing")
            if self.kind == "visual" and np.any(diffs > 0):
                raise ValidationError("visual pool similarities must be non-increasing")

    def __len__(self) -> int:
        return len(self.neighbor_indices)


def l2_normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every row to unit L2 norm. Raises on a zero-norm row."""
    data = table.data.astype(np.float64)
    norms = np.linalg.norm(data, axis=1)
    bad = np.flatnonzero(norms <= 1e-35)
    if bad.size:
        raise ValidationError(f"zero-norm row {int(bad[0])} cannot be normalised")
    normalized = data / norms[:, None]
    return EmbeddingTable(normalized.astype(np.float32), table.row_ids)


def cosine_matrix(queries: EmbeddingTable, references: EmbeddingTable) -> np.ndarray:
    """Pairwise dot products (n_q, n_r) in float64; rows must be unit-normalised."""
    if queries.dim != references.dim:
        raise ValidationError(
            f"dim mismatch: queries {queries.dim} vs references {references.dim}"
        )
    return queries.data.astype(np.float64) @ references.data.astype(np.float64).T


def visual_topk(
    queries: EmbeddingTable, references: EmbeddingTable, K: int
) -> list[NeighborPool]:
    """Per query, the K most similar references excluding its own positive.

    Query i's positive is reference i (row-aligned tables); ties break
    toward the lower reference index. Blocked evaluation, identical to a
    single pass.
    """
    n_r = references.count
    if K < 1:
        raise ValidationError("K must be >= 1")
    if K > n_r - 1:
        raise ValidationError(f"K={K} exceeds reference count - 1 = {n_r - 1}")
    q64 = queries.data.astype(np.float64)
    r64 = references.data.astype(np.float64)
    indices, neg_sims = nearest_k(
        lambda start, stop: -(q64[start:stop] @ r64.T), queries.count, K
    )
    return pools_from_arrays(indices, -neg_sims, "visual")


def pools_from_arrays(indices: np.ndarray, scores: np.ndarray, kind: str) -> list[NeighborPool]:
    """One NeighborPool per row of the (n, K) index and score arrays; row i is anchor i."""
    return [
        NeighborPool(anchor_index=i, neighbor_indices=tuple(idx), scores=tuple(row), kind=kind)
        for i, (idx, row) in enumerate(zip(indices.tolist(), scores.tolist()))
    ]
