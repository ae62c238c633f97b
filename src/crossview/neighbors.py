"""Exact K-nearest search: one kernel for every neighbour list in the package.

GPS pools (geographic distances), DSS pools (negated similarities) and the
synthetic generator's semi-positives (planar distances) all reduce to the
same question: per row, the K columns with the smallest keys, the row's
own column excluded, ties toward the lower column index. Rows are scored
in blocks so memory stays O(block x columns).

Each block is reduced by exact partial selection rather than a full sort,
so a block costs about linear time per row; a row with many ties at its
K-th key keeps every tie, and its cost falls back to a sort's.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError

_BLOCK = 256


def planar_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances (m, n) between the rows of a (m, 2) and b (n, 2)."""
    dx = a[:, 0:1] - b[:, 0]
    dy = a[:, 1:2] - b[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def nearest_k(
    keys: Callable[[int, int], np.ndarray], n_rows: int, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the K columns with the smallest keys, ascending.

    ``keys(start, stop)`` returns the float key block (stop - start, n_cols)
    of rows [start, stop); smaller means nearer, and K < n_cols. Column i
    never appears in row i's list (where i < n_cols). Returns the (n_rows, K)
    column indices and their keys. A non-finite key raises ValidationError
    naming its row.

    Per block: ``np.partition`` finds each row's K-th smallest key, every
    entry <= it survives (all ties at the cut among them), one
    ``np.lexsort`` orders the survivors by (row, key, column) and the first K
    per row are kept, which equals the first K of a full stable sort.
    """
    indices = np.empty((n_rows, K), dtype=np.intp)
    nearest = np.empty((n_rows, K), dtype=np.float64)
    if K == 0:
        return indices, nearest
    first_k = np.arange(K)
    for start in range(0, n_rows, _BLOCK):
        stop = min(start + _BLOCK, n_rows)
        block = keys(start, stop)
        finite = np.isfinite(block)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValidationError(f"row {start + row}: key {float(block[row, col])!r} "
                                  f"at column {col} is not finite")
        own = np.arange(start, min(stop, block.shape[1]))
        block[own - start, own] = np.inf
        kth = np.partition(block, K - 1, axis=1)[:, K - 1:K]
        flat = np.flatnonzero(block <= kth)
        rows, cols = np.divmod(flat, block.shape[1])
        vals = block.take(flat)
        order = np.lexsort((cols, vals, rows))
        counts = np.bincount(rows, minlength=stop - start)
        take = order[(np.cumsum(counts) - counts)[:, None] + first_k]
        indices[start:stop] = cols[take]
        nearest[start:stop] = vals[take]
    return indices, nearest
