"""Exact K-nearest search: one selection step (``_survivors``, ``_first_k``)
behind every neighbour list, fed by dense row blocks (``nearest_k``) or by a
planar grid (``planar_nearest_k``).

Both kernels need finite keys and scan none: callers check their inputs once
(``datasets.EmbeddingTable``, ``geo.geo_topk``, ``datasets.SynthConfig``).
Every streamed block, here and in ``evaluation``, holds at most BLOCK_BYTES of
float64 keys.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import ValidationError

BLOCK_BYTES = 640 * 1024
UFUNC_BUFSIZE = 512  # elements, for the block kernels; numpy's default is 8192


def small_buffer(kernel):
    """``kernel`` run under a ufunc buffer of UFUNC_BUFSIZE elements, callbacks
    included. Comparing a block with a per-row column (``block >= cut``,
    ``rows > s``), numpy first copies the column into its buffer whenever a
    row holds at most half the buffer; here rows wider than 256 skip that.
    The outputs are the same bytes under any buffer: the kernels hold no float
    sum, only element-wise ops, max/min and integer or boolean counts, and
    their gemm runs in BLAS. ``np.errstate`` restores the caller's buffer on
    return or raise (numpy >= 2.0). A new thread starts at numpy's default
    buffer, so a worker thread running part of a kernel must enter this itself.
    ``__wrapped__`` is the kernel under the caller's buffer."""

    @functools.wraps(kernel)
    def run(*args, **kwargs):
        with np.errstate():
            np.setbufsize(UFUNC_BUFSIZE)
            return kernel(*args, **kwargs)

    return run


def require_pool_size(name: str, K: int, n: int) -> None:
    """The pool-size bound: a pool of ``name`` = K of n candidates holds at
    least one and never the anchor's own, 1 <= K <= n - 1."""
    if not 1 <= K <= n - 1:
        raise ValidationError(f"{name}={K} must be in [1, {n - 1}] for {n} candidates")


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
    """Flat indices, ascending, of the entries of a key block (rows, width)
    that can be among their row's K smallest (1 <= K <= width): every entry
    <= its row's cut-off (with ``largest``, the mirror image). The cut-off is
    the K-th smallest of G = 4K column-group minima (column j in group j mod
    G, the last width mod G columns in none): K distinct entries, so it bounds
    the row's K-th key from above. With groups under 4 columns wide it is the
    row's K-th key itself."""
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
    """(indices, keys), each (n_rows, K): per row r < n_rows, its K smallest
    survivors by (key, column). Survivor i is (row[i], col[i], key[i]), and
    ``row`` is non-decreasing and holds each r at least K times. One unstable
    argsort orders the keys; a row where two of the first K + 1 sorted keys
    compare equal (a tie, -0.0 beside 0.0, padding) is ordered again by (key,
    column). So when the survivors hold every key <= the row's K-th, the result
    is the first K of a stable sort of the whole row."""
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


@small_buffer
def nearest_k(
    keys: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, n_cols: int, K: int,
    largest: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row in ``rows``, the K columns with the smallest keys, ascending
    (with ``largest``, the largest, descending), ties toward the lower column;
    column ``part[i]`` is never in row i's list. Returns the (len(rows), K)
    columns and their keys, bit for bit.

    ``keys(part)`` returns the writable key block (len(part), n_cols) of a
    slice of ``rows``; K < n_cols. With ``largest`` only the survivors are
    negated, and the kept keys negated back, so a visual score keeps the bits
    of q.r: scoring -q instead gives (-q).r, whose signed zeros differ from
    -(q.r). A visual key's bits depend on the gemm block that scored it, so
    no subset of a row can be re-scored to the same bits.
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


@small_buffer
def planar_nearest_k(
    anchors: np.ndarray, candidates: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """``nearest_k`` over the planar distances from anchors (m, 2) to
    candidates (n, 2), byte for byte, scoring only the 3x3 grid cells around
    each anchor (cells of about K + 1 candidates); needs 0 <= K < n. A row is
    kept only when its K-th key lies below the anchor's distance to the
    outside of its square by more than the rounding slack; every other row is
    redone by ``nearest_k``.
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
