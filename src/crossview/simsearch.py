"""Unit rows, similarity blocks and the neighbour pools of DSS sampling,
scored in float64."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import EmbeddingTable, require_same_width, unshared
from .errors import ValidationError
from .neighbors import nearest_k, require_pool_size


@dataclass(frozen=True)
class NeighborPool:
    """One anchor's row of a ``Pools`` as plain Python values, checked there:
    distances (ascending) for 'geographic', similarities (descending) for 'visual'."""

    anchor_index: int
    neighbor_indices: tuple[int, ...]
    scores: tuple[float, ...]
    kind: str

    def __len__(self) -> int:
        return len(self.neighbor_indices)


@dataclass(frozen=True, eq=False)
class Pools:
    """Every anchor's ordered candidates: ``indices`` and float64 ``scores``,
    both (n, K), row i anchor i's: integers >= 0, never i. Checked once, then
    read-only (``datasets.unshared``); ``pools[i]`` is row i as a ``NeighborPool``."""

    indices: np.ndarray
    scores: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "indices", unshared(self.indices))
        object.__setattr__(self, "scores", unshared(self.scores))
        if self.kind not in ("geographic", "visual"):
            raise ValidationError(f"unknown pool kind {self.kind!r}")
        if self.indices.ndim != 2 or self.indices.shape != self.scores.shape:
            raise ValidationError(f"pool indices {self.indices.shape} and scores "
                                  f"{self.scores.shape} must be (anchors, K) of equal shape")
        if self.indices.size and not np.issubdtype(self.indices.dtype, np.integer):
            raise ValidationError(f"pool for anchor 0 holds {self.indices.dtype}, not integers")
        self.require_entries(self.indices >= 0, "below 0")
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

    def require_entries(self, ok: np.ndarray, fault: str) -> None:
        """Raise naming the first anchor holding an index where the (n, K) mask ok is False."""
        rows = np.flatnonzero(~ok.all(axis=1))
        if rows.size:
            bad = self.indices[rows[0]][~ok[rows[0]]][0]
            raise ValidationError(f"pool for anchor {rows[0]} holds index {bad}, {fault}")

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __getitem__(self, anchor: int) -> NeighborPool:
        anchor = range(len(self))[anchor]
        return NeighborPool(anchor, tuple(self.indices[anchor].tolist()),
                            tuple(self.scores[anchor].tolist()), self.kind)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """The L2 norms of X's rows along its last axis; a zero-norm row raises,
    counted across any leading axes."""
    norms = np.sqrt(np.add.reduce(X * X, axis=-1))  # np.linalg.norm's own formula for real X
    # a NaN norm lands here too; the scan decides
    if norms.size and not np.minimum.reduce(norms, axis=None) > 1e-35:
        bad = np.flatnonzero(norms <= 1e-35)
        if bad.size:
            raise ValidationError(f"zero-norm row {int(bad[0])} cannot be normalised")
    return norms


def unit_rows(X: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(X's rows along its last axis scaled to unit L2 norm, the norms);
    ``out`` may be X itself."""
    norms = _row_norms(X)
    return np.divide(X, norms[..., None], out=out), norms


def unit32(table: EmbeddingTable) -> np.ndarray:
    """The table's rows scaled to unit L2 norm in float64, then rounded to
    float32: the one rounding of ``l2_normalize`` and ``evaluate``."""
    unit = table.data.astype(np.float64)
    return np.divide(unit, _row_norms(unit)[:, None], out=unit).astype(np.float32)


def l2_normalize(table: EmbeddingTable) -> EmbeddingTable:
    """``unit32`` of the table, as a new table."""
    return EmbeddingTable(unit32(table), table.row_ids)


def similarity_blocks(q64: np.ndarray, r64: np.ndarray):
    """Scorer of the float64 blocks ``q64[part] @ r64.T``, against one
    row-major (dim, n_r) copy of the gallery.

    A gemm's bits depend on the layout and the block's height, so scores are
    deterministic for a given N and block budget, not equal to one full-matrix
    pass. A gemm may round identical reference rows differently, so each block
    copies a repeated row's first column onto its later copies: they tie.
    """
    require_same_width("queries", q64.shape[1], "references", r64.shape[1])
    r64 = np.ascontiguousarray(r64)
    rT = np.ascontiguousarray(r64.T)
    later = np.empty(0, dtype=np.intp)
    lead = np.sort(r64[:, 0])  # strictly increasing: no row repeats (NaN and -0.0 fail it)
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
    """Per query i, the K most similar references other than reference i, in
    ``nearest_k``'s order. Finite float32 rows (``EmbeddingTable``) give
    finite float64 keys, since |q.r| <= d * (3.4e38)^2."""
    n_r = references.count
    require_pool_size("K", K, n_r)
    scores = similarity_blocks(queries.data.astype(np.float64),
                               references.data.astype(np.float64))
    return Pools(*nearest_k(scores, np.arange(queries.count), n_r, K, largest=True), "visual")
