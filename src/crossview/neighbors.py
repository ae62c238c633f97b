"""Exact K-nearest search: one kernel for every neighbour list in the package.

GPS pools (geographic distances), DSS pools (negated similarities) and the
synthetic generator's semi-positives (planar distances) all reduce to the
same question: per row, the K columns with the smallest keys, the row's
own column excluded, ties toward the lower column index. Rows are scored
in blocks so memory stays O(block x columns).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_BLOCK = 256


def planar_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances (m, n) between the rows of a (m, 2) and b (n, 2)."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def nearest_k(
    keys: Callable[[int, int], np.ndarray], n_rows: int, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the K columns with the smallest keys, ascending.

    ``keys(start, stop)`` returns the float key block (stop - start, n_cols)
    of rows [start, stop); smaller means nearer. Column i never appears in
    row i's list (where i < n_cols). Returns the (n_rows, K) column indices
    and their keys.
    """
    indices = np.empty((n_rows, K), dtype=np.intp)
    nearest = np.empty((n_rows, K), dtype=np.float64)
    for start in range(0, n_rows, _BLOCK):
        stop = min(start + _BLOCK, n_rows)
        block = keys(start, stop)
        own = np.arange(start, min(stop, block.shape[1]))
        block[own - start, own] = np.inf
        order = np.argsort(block, axis=1, kind="stable")[:, :K]
        indices[start:stop] = order
        nearest[start:stop] = np.take_along_axis(block, order, axis=1)
    return indices, nearest
