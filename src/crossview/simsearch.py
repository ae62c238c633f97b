"""Embedding normalisation, cosine similarity, and top-K visual neighbour search.

Feeds the dynamic similarity sampling phase: after an inference pass over
the training set, every query gets a pool of its most similar references
to mine hard negatives from. All similarity math runs in float64 so
orderings (and therefore batch plans) are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import EmbeddingTable, require_finite_rows
from .errors import ValidationError
from .neighbors import nearest_k


@dataclass(frozen=True)
class NeighborPool:
    """One anchor's row of a ``Pools``, as plain Python values.

    Scores are similarities (descending) for kind='visual' and distances
    (ascending) for kind='geographic'. Built by ``Pools`` indexing and
    checked there, so the record itself checks nothing.
    """

    anchor_index: int
    neighbor_indices: tuple[int, ...]
    scores: tuple[float, ...]
    kind: str

    def __len__(self) -> int:
        return len(self.neighbor_indices)


@dataclass(frozen=True, eq=False)
class Pools:
    """Ordered candidate hard negatives for every anchor, one row per anchor.

    ``indices`` (n, K) holds candidate indices and ``scores`` (n, K) their
    float64 scores; row i belongs to anchor i and never holds i itself.
    Every invariant is checked once, over the whole arrays, and both arrays
    are made read-only so the check stays true. ``pools[i]`` reads anchor
    i's row as a ``NeighborPool``.
    """

    indices: np.ndarray
    scores: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("geographic", "visual"):
            raise ValidationError(f"unknown pool kind {self.kind!r}")
        if self.indices.ndim != 2 or self.indices.shape != self.scores.shape:
            raise ValidationError(f"pool indices {self.indices.shape} and scores "
                                  f"{self.scores.shape} must be (anchors, K) of equal shape")
        own = np.flatnonzero((self.indices == np.arange(len(self))[:, None]).any(axis=1))
        if own.size:
            raise ValidationError(f"pool for anchor {own[0]} contains the anchor itself")
        before, after = self.scores[:, :-1], self.scores[:, 1:]
        if self.kind == "geographic":
            bad, order = (after < before).any(axis=1), "distances must be non-decreasing"
        else:
            bad, order = (after > before).any(axis=1), "similarities must be non-increasing"
        rows = np.flatnonzero(bad)
        if rows.size:
            raise ValidationError(f"{self.kind} pool for anchor {rows[0]}: {order}")
        self.indices.setflags(write=False)
        self.scores.setflags(write=False)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __getitem__(self, anchor: int) -> NeighborPool:
        anchor = range(len(self))[anchor]
        return NeighborPool(anchor, tuple(self.indices[anchor].tolist()),
                            tuple(self.scores[anchor].tolist()), self.kind)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """The L2 norms of X's rows along its last axis. Raises on a zero-norm
    row, counted across any leading axes; a NaN norm passes."""
    norms = np.sqrt(np.add.reduce(X * X, axis=-1))  # np.linalg.norm's own formula for real X
    # a NaN norm lands here too; the scan decides
    if norms.size and not np.minimum.reduce(norms, axis=None) > 1e-35:
        bad = np.flatnonzero(norms <= 1e-35)
        if bad.size:
            raise ValidationError(f"zero-norm row {int(bad[0])} cannot be normalised")
    return norms


def unit_rows(X: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(X with every row, along its last axis, scaled to unit L2 norm; the
    row norms). ``out`` may be X itself. Raises on a zero-norm row, counted
    across any leading axes."""
    norms = _row_norms(X)
    return np.divide(X, norms[..., None], out=out), norms


def unit32(table: EmbeddingTable) -> np.ndarray:
    """The table's rows scaled to unit L2 norm in float64, then rounded to
    float32: the one rounding of ``l2_normalize`` and ``evaluate``. Raises
    on a zero-norm row, then names the first row holding a NaN or inf, both
    before dividing: such a row's norm is not finite, while a finite float32
    row's float64 norm cannot overflow."""
    unit = table.data.astype(np.float64)
    norms = _row_norms(unit)
    require_finite_rows(np.isfinite(norms), table.row_ids)
    return np.divide(unit, norms[:, None], out=unit).astype(np.float32)


def l2_normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every row to unit L2 norm in float64, rounded to float32
    (``unit32``). Raises on a zero-norm row, then on a NaN or inf one."""
    return EmbeddingTable(unit32(table), table.row_ids)


def similarity_blocks(q64: np.ndarray, r64: np.ndarray):
    """Scorer of the float64 similarity blocks ``q64[part] @ r64.T``.

    The gallery is copied once per call into a C-contiguous (dim, n_r)
    array, so each block's gemm reads it row-major, not through a
    transposed view: about half the gemm time at 5000 6-d references. A
    gemm's bits may depend on the layout and on the block's height, so the
    scores are deterministic for a given N and block budget, not always
    equal to those of another layout or a single full-matrix pass.

    A gemm may round the same dot product differently in different columns,
    so identical reference rows need not score alike. When some reference
    row repeats an earlier one, each block copies the first copy's column
    onto the later copies, so they tie and the tie goes to the lower index.
    Rows whose first values all differ (strictly increasing once sorted,
    so no NaN and no 0.0 beside -0.0) cannot repeat, and skip the search.
    Raises unless both hold rows of one width.
    """
    if q64.shape[1] != r64.shape[1]:
        raise ValidationError(f"dim mismatch: queries {q64.shape[1]} vs references {r64.shape[1]}")
    r64 = np.ascontiguousarray(r64)
    rT = np.ascontiguousarray(r64.T)
    later = np.empty(0, dtype=np.intp)
    lead = np.sort(r64[:, 0])
    if not (lead[1:] > lead[:-1]).all():
        row_bytes = r64.view(np.dtype((np.void, r64.dtype.itemsize * r64.shape[1])))[:, 0]
        _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
        first = first[inverse]
        later = np.flatnonzero(first != np.arange(len(r64)))

    def scores(part: np.ndarray) -> np.ndarray:
        block = q64[part] @ rT
        if later.size:
            block[:, later] = block[:, first[later]]
        return block

    return scores


def cosine_matrix(queries: EmbeddingTable, references: EmbeddingTable) -> np.ndarray:
    """Pairwise dot products (n_q, n_r) in float64, as one similarity block;
    rows must be unit-normalised."""
    return similarity_blocks(queries.data.astype(np.float64),
                             references.data.astype(np.float64))(np.arange(queries.count))


def visual_topk(
    queries: EmbeddingTable, references: EmbeddingTable, K: int
) -> Pools:
    """Per query, the K most similar references excluding its own positive.

    Query i's positive is reference i (row-aligned tables); ties break
    toward the lower reference index, identical reference rows included.
    Queries are scored in blocks of ``neighbors.block_rows`` rows by
    ``similarity_blocks``, against one row-major copy of the gallery. A
    gemm's bits may depend on the block's shape and the gallery's layout,
    so the output is deterministic for a given N and block budget, not
    always equal to one full-matrix pass.

    Both tables' rows are checked finite once, here, naming the first row
    that is not: ``nearest_k`` checks no key, and a finite float32 row
    gives finite float64 dot products, since |q.r| <= d * (3.4e38)^2.
    """
    n_r = references.count
    if K < 1:
        raise ValidationError("K must be >= 1")
    if K > n_r - 1:
        raise ValidationError(f"K={K} exceeds reference count - 1 = {n_r - 1}")
    for table in (queries, references):  # the data may have been written since construction
        require_finite_rows(np.isfinite(table.data).all(axis=1), table.row_ids)
    scores = similarity_blocks(queries.data.astype(np.float64),
                               references.data.astype(np.float64))
    return Pools(*nearest_k(scores, np.arange(queries.count), n_r, K, largest=True), "visual")
