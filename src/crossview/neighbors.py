"""Exact K-nearest search: one selection step behind every neighbour list.

GPS pools (geographic distances), DSS pools (similarities) and the
synthetic generator's semi-positives (planar distances) all reduce to the
same question: per row, the K columns with the smallest keys (or, for
similarities, the largest), the row's own column excluded, ties toward the
lower column index. Two producers feed candidate key blocks to one
selection step (``_survivors``, then ``_first_k``):

- ``nearest_k`` scores every column of the rows it is given, in blocks of
  rows so memory stays within the block budget. wgs84 pools and visual
  (DSS) pools use it over all rows: the grid's planar bound does not hold
  for great-circle distances, and a visual key's bits depend on the gemm
  that scored its block, so re-scoring a subset would not reproduce them.
  Visual pools take the largest keys (``largest=True``), so no block is
  negated: only each row's survivors are, before ``_first_k``.
- ``planar_nearest_k`` buckets the candidates into a uniform grid and
  scores only the 3x3 cells around each anchor. The anchors of one cell
  share that square, so each block gathers it once per cell, as a window
  that every anchor of the cell reads by row. A row is kept only when no
  column outside those cells can reach its K-th key; every other row is
  redone by ``nearest_k``. Planar GPS pools and semi-positives use it, so
  their cost grows about linearly in N on spread-out points instead of as
  N^2.

Both kernels need every key finite and check none of them: each caller
guarantees it from inputs it has validated, in O(n) or O(n*d) rather than
once per key (``simsearch.visual_topk``, ``geo.geo_topk``,
``datasets.generate_synthetic``).

Every streamed block, here and in ``evaluation``, holds at most
``BLOCK_BYTES`` of float64 keys: ``block_rows(width)`` rows of a given
width, at least one.

Selection is exact without sorting whole rows, and on wide rows without
partitioning them either. ``_survivors`` bounds each row's K-th key from
above by the K-th smallest of 4K column-group minima (one pass over the
block, then a partition of 4K values per row; a row narrower than 16K is
partitioned whole instead) and keeps every key at or below that cut-off:
a superset of the row's K smallest, ties at the K-th key included, about
1.15K keys per row on unstructured keys. For the largest keys it takes
group maxima and keeps every key at or above the cut-off. ``_first_k``
orders the survivors by (key, column) and keeps K per row: one unstable
(SIMD) sort of the keys, and a (key, column) sort again only for the rows
where two of the first K + 1 sorted keys compare equal. ``nearest_k`` runs
it once per batch of blocks, so one-row blocks do not pay it row by row.
A row with many ties at its K-th key keeps every tie, and its cost falls
back to a sort's.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

BLOCK_BYTES = 640 * 1024


def block_rows(width):
    """Rows of ``width`` float64 keys that fit in BLOCK_BYTES, at least 1;
    element-wise over an array of widths."""
    return np.maximum(1, BLOCK_BYTES // (8 * width))


def planar_keys(ax, ay, bx, by) -> np.ndarray:
    """Euclidean distances between points (ax, ay) and (bx, by), element-wise
    under broadcasting: the one planar formula, so a distance has the same
    bits whether it is scored in a dense block or gathered from grid cells."""
    dx = ax - bx
    dy = ay - by
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _survivors(block: np.ndarray, K: int, largest: bool = False) -> np.ndarray:
    """Flat indices of the entries of a key block (rows, width) that can be
    among their row's K smallest (1 <= K <= width), ascending: every entry
    <= its row's cut-off. With ``largest``, the same for the K largest:
    every entry >= its row's cut-off.

    Column j falls in group j mod G of G = 4K groups (the last width mod G
    columns in none). The K smallest group minima are K distinct entries,
    so the K-th smallest of them bounds the row's K-th key from above and
    serves as the cut-off. Groups of fewer than 4 columns bound it loosely,
    and partitioning such a narrow row costs no more than the group minima,
    so there the cut-off is the row's K-th key itself. The largest keys
    mirror this through group maxima.
    """
    n_rows, width = block.shape
    groups = 4 * K
    depth = width // groups
    if depth >= 4:
        grouped = block[:, :groups * depth].reshape(n_rows, depth, groups)
        block_or_ends = grouped.max(axis=1) if largest else grouped.min(axis=1)
    else:
        block_or_ends = block
    at = block_or_ends.shape[1] - K if largest else K - 1
    cut = np.partition(block_or_ends, at, axis=1)[:, at:at + 1]
    return np.flatnonzero(block >= cut if largest else block <= cut)


def _first_k(row: np.ndarray, col: np.ndarray, key: np.ndarray, n_rows: int, K: int):
    """Per row r < n_rows, the K smallest of its survivors by (key, column),
    in that order. Survivor i is (row[i], col[i], key[i]); ``row`` is
    non-decreasing and holds every r at least K times. Returns (indices,
    keys), each (n_rows, K).

    The survivors are packed left into one row each, padded with (+inf,
    largest index), and one unstable ``np.argsort`` along the rows orders
    the keys. Where a row's first K + 1 sorted keys all differ, its first K
    keys and their order are unique, so they are the first K by (key,
    column). Any other row (a tie, -0.0 beside +0.0, or +inf padding among
    them) is ordered again by ``np.lexsort`` on (key, column). Either way
    the first K per row equal the first K of a full stable sort of all
    keys when the survivors include every key <= the row's K-th.
    """
    counts = np.bincount(row, minlength=n_rows)
    slot = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    keys = np.full((n_rows, counts.max()), np.inf)
    keys[row, slot] = key
    cols = np.full(keys.shape, np.iinfo(np.intp).max)
    cols[row, slot] = col
    first = np.argsort(keys, axis=1)[:, :K + 1]
    head = np.take_along_axis(keys, first, 1)
    tied = np.flatnonzero((head[:, 1:] == head[:, :-1]).any(axis=1))
    first[tied] = np.lexsort((cols[tied], keys[tied]), axis=1)[:, :K + 1]
    first = first[:, :K]
    return np.take_along_axis(cols, first, 1), np.take_along_axis(keys, first, 1)


def nearest_k(
    keys: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, n_cols: int, K: int,
    largest: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row in ``rows``, the K columns with the smallest keys, ascending;
    with ``largest``, the K columns with the largest keys, descending.

    ``keys(part)`` returns the float key block (len(part), n_cols) of the
    rows ``part``, a slice of ``rows``, which may be written to; every key
    must be finite, and K < n_cols. Column ``part[i]`` never appears in row
    i's list (where ``part[i]`` < n_cols). Ties go to the lower column.
    Returns the (len(rows), K) column indices and their keys, bit for bit.

    The largest keys are the smallest of the negated keys: only each row's
    survivors are negated, before ``_first_k``, and the K kept are negated
    back, so the keys keep their bits; -0.0 and +0.0 compare equal either way.
    """
    indices = np.empty((len(rows), K), dtype=np.intp)
    nearest = np.empty((len(rows), K), dtype=np.float64)
    if K == 0:
        return indices, nearest
    step = block_rows(n_cols)
    slots = BLOCK_BYTES // 128  # bound on rows x widest row packed by one ordering step
    held, first, widest = [], 0, 0  # survivors of rows[first:start], most in one row

    def order(stop):
        row, col, key = map(np.concatenate, zip(*held))
        indices[first:stop], nearest[first:stop] = _first_k(row, col, key, stop - first, K)

    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        block = keys(part)
        own = np.flatnonzero(part < n_cols)
        block[own, part[own]] = -np.inf if largest else np.inf
        flat = _survivors(block, K, largest)
        row, col = np.divmod(flat, n_cols)
        most = np.bincount(row).max()
        # order the held rows first when packing this block with them would
        # pass the bound; a block alone is packed whatever its width
        if held and (start + len(part) - first) * max(widest, most) > slots:
            order(start)
            held, first, widest = [], start, 0
        key = block.take(flat)
        held.append((row + (start - first), col, np.negative(key, out=key) if largest else key))
        widest = max(widest, most)
    if held:
        order(len(rows))
    return indices, np.negative(nearest, out=nearest) if largest else nearest


def planar_nearest_k(
    anchors: np.ndarray, candidates: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """``nearest_k`` over the planar distances from anchors (m, 2) to
    candidates (n, 2), byte for byte, without scoring every pair.

    Needs 0 <= K < n and every pairwise distance finite (callers bound the
    coordinate span). The grid spans the candidates' bounding box with cell
    side h = sqrt(area * (K + 1) / n), about K + 1 candidates per cell, but
    at least the longer side / n so a thin box keeps O(n) cells; a box of
    zero area is one cell. Anchors are taken in order of square size, then
    cell. Per block of anchors, the candidates in the 3x3 cells around each
    cell that holds an anchor are gathered once into a window, padded at
    x = +inf; each anchor's row reads its cell's window, ``planar_keys``
    scores it (the padding scores +inf), the anchor's own candidate is set
    to +inf, and ``_survivors`` and ``_first_k`` pick from the block. A
    row is accepted when its K-th key lies below the anchor's distance to
    the outside of its 3x3 square (a side on the grid edge counts as
    infinitely far) by more than the rounding slack: then every column
    holding a key <= the K-th is among the gathered ones, so the selection
    equals the dense one. The other rows go to one ``nearest_k`` call over
    every candidate.
    """
    m, n = len(anchors), len(candidates)
    indices = np.empty((m, K), dtype=np.intp)
    nearest = np.empty((m, K), dtype=np.float64)
    if K == 0:
        return indices, nearest
    lo = candidates.min(axis=0)
    width, height = (candidates.max(axis=0) - lo).tolist()
    h = max(math.sqrt(width * height / n * (K + 1)), max(width, height) / n)
    if width * height > 0.0 and math.isfinite(h):
        nx, ny = int(width / h) + 1, int(height / h) + 1
    else:
        h, nx, ny = 1.0, 1, 1

    def cell_of(points):
        return np.clip(np.floor((points - lo) / h), 0, (nx - 1, ny - 1)).astype(np.intp)

    cell = cell_of(candidates) @ np.array([1, nx])
    order = np.argsort(cell, kind="stable")
    starts = np.searchsorted(cell[order], np.arange(nx * ny + 1))
    sx, sy = candidates[order, 0], candidates[order, 1]

    # each anchor's 3x3 square is three runs of the cell-sorted candidates, one per cell row
    ac = cell_of(anchors)
    x_lo = np.maximum(ac[:, 0:1] - 1, 0)
    x_hi = np.minimum(ac[:, 0:1] + 1, nx - 1)
    cell_row = ac[:, 1:2] + np.arange(-1, 2)
    inside = (cell_row >= 0) & (cell_row < ny)
    cell_row = cell_row.clip(0, ny - 1) * nx
    run_lo = starts[cell_row + x_lo]
    run_len = np.where(inside, starts[cell_row + x_hi + 1] - run_lo, 0)
    run_end = np.cumsum(run_len, axis=1)
    shift = run_lo - run_end + run_len  # slot j of run r reads candidate j + shift[r]
    # each anchor's distance to the outside of its square; inf where a side is on the grid edge
    gap = np.minimum(np.where(ac >= 2, anchors - (lo + (ac - 1) * h), np.inf),
                     np.where(ac + 2 < (nx, ny), (lo + (ac + 2) * h) - anchors, np.inf)).min(axis=1)
    # A column outside the square has a cell index beyond a side at lo + k*h
    # (0 < k < nx, so |k*h| <= width <= 2C for C the largest coordinate
    # magnitude). floor((x - lo) / h) rounds twice, so such a column lies
    # within 2.01u*|k*h| of the side; forming the side and the anchor's gap
    # to it rounds by at most 5uC; the computed key of a pair at most
    # 2*sqrt(2)*C apart is at least (1 - 3u) times the true distance, and
    # squares that fall into subnormals lose at most 1e-161 absolute. The
    # sum is below 18uC = 9*eps*C + 1e-161, whatever h is: an absolute slack
    # scaled to the coordinates, since a relative one cannot cover rounding
    # at 1e12 m when h is 1 m. Four times that margin is used.
    mag = max(np.abs(candidates).max(), np.abs(anchors).max())
    bound = gap - (36.0 * np.finfo(np.float64).eps * mag + math.sqrt(np.finfo(np.float64).tiny))

    # the slot of each anchor's own candidate in its square, -1 where it lies outside
    at = np.empty(n, dtype=np.intp)
    at[order] = np.arange(n)  # candidate c is at position at[c] of the cell order
    own = np.full(m, -1)
    p = at[:m, None]
    hit = (p >= run_lo[:n]) & (p < run_lo[:n] + run_len[:n])
    own[np.flatnonzero(hit.any(axis=1))] = (p - shift[:n])[hit]

    # anchors in order of square size, then cell, so a crowded square widens
    # only its own block and the anchors of one cell share a window
    size, acell = run_end[:, 2], ac @ np.array([1, nx])
    by_size = np.lexsort((acell, size))
    width = np.maximum(size[by_size], K)  # non-decreasing
    redo, start = [], 0
    while start < m:
        # a block is as wide as its last row: end it before rows x width passes the budget
        ahead = width[start:start + block_rows(width[start])]
        stop = start + np.count_nonzero(np.arange(1, len(ahead) + 1) <= block_rows(ahead))
        rows = by_size[start:stop]
        # one window per cell: its square's candidates in slots, the padding at x = +inf
        new_cell = np.diff(acell[rows], prepend=-1) != 0
        cidx = np.cumsum(new_cell) - 1
        heads = rows[new_cell]
        end, sh = run_end[heads], shift[heads]
        slot = np.arange(width[stop - 1])
        pos = slot + sh[:, 0:1]
        pos += (slot >= end[:, 0:1]) * (sh[:, 1:2] - sh[:, 0:1])
        pos += (slot >= end[:, 1:2]) * (sh[:, 2:3] - sh[:, 1:2])
        wx, wy, wcols = (a.take(pos, mode="clip") for a in (sx, sy, order))
        wx[slot >= end[:, 2:]] = np.inf
        block = planar_keys(anchors[rows, 0:1], anchors[rows, 1:2],
                            wx.take(cidx, axis=0), wy.take(cidx, axis=0))
        mine = np.flatnonzero(own[rows] >= 0)
        block[mine, own[rows[mine]]] = np.inf
        flat = _survivors(block, K)
        row, col = np.divmod(flat, len(slot))
        indices[rows], nearest[rows] = _first_k(row, wcols[cidx[row], col],
                                                block.take(flat), len(rows), K)
        del block  # freed before the next block is gathered
        redo.append(rows[~(nearest[rows, K - 1] < bound[rows])])
        start = stop
    redo = np.concatenate(redo)
    indices[redo], nearest[redo] = nearest_k(
        lambda part: planar_keys(anchors[part, 0:1], anchors[part, 1:2],
                                 candidates[:, 0], candidates[:, 1]), redo, n, K)
    return indices, nearest
