import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossview import evaluation, neighbors
from crossview.datasets import Coordinate, EmbeddingTable, SampleRecord
from crossview.errors import ValidationError
from crossview.evaluation import link_arrays
from crossview.geo import MEAN_EARTH_RADIUS_M, _check_planar_span, _haversine_block, geo_topk
from crossview.neighbors import nearest_k, planar_keys, planar_nearest_k
from crossview.sampler import SamplerConfig, build_geo_pools, build_sim_pools
from crossview.simsearch import l2_normalize, similarity_blocks, visual_topk

from oracles import brute_nearest_keys


def key_matrix(n_rows, n_cols, small_ints, seed):
    rng = np.random.default_rng(seed)
    if small_ints:  # many exact ties at every cut, signed zeros among them
        return rng.integers(0, 3, (n_rows, n_cols)) * rng.choice([-1.0, 1.0], (n_rows, n_cols))
    return rng.standard_normal((n_rows, n_cols))


def run_kernel(matrix, K, largest=False):
    calls = []

    def keys(part):
        calls.append(part.tolist())
        return matrix[part]

    return nearest_k(keys, np.arange(len(matrix)), matrix.shape[1], K, largest), calls


def assert_matches_oracle(matrix, K, expected=None, largest=False):
    (indices, nearest), _ = run_kernel(matrix, K, largest)
    idx, keys = expected or brute_nearest_keys(matrix.tolist(), K, largest)
    assert indices.tolist() == [row[:K] for row in idx]
    want = np.array([row[:K] for row in keys], dtype=np.float64).reshape(len(matrix), K)
    assert nearest.tobytes() == want.tobytes()


@st.composite
def shapes(draw):
    n_cols = draw(st.integers(2, 60))
    return draw(st.integers(1, 600)), n_cols, draw(st.integers(1, n_cols - 1))


def blocks_of(rows):
    return lambda width: rows


# byte budgets for 1-row blocks, blocks of a few dozen rows and a single block
BUDGETS = [8, 8 * 640 * 37, 1 << 60]


class TestNearestK:
    @settings(max_examples=30)
    @given(shape=shapes(), small_ints=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(shape=(600, 40, 39), small_ints=True, seed=1)  # rows > cols, three blocks
    @example(shape=(300, 420, 7), small_ints=True, seed=2)  # rows < cols, two blocks
    def test_matches_full_stable_sort(self, shape, small_ints, seed):
        n_rows, n_cols, K = shape
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "block_rows", blocks_of(256))
            assert_matches_oracle(key_matrix(n_rows, n_cols, small_ints, seed), K)

    @pytest.mark.parametrize("n_rows, n_cols", [(270, 12), (260, 275)])
    def test_every_k_with_ties_across_blocks(self, monkeypatch, n_rows, n_cols):
        monkeypatch.setattr(neighbors, "block_rows", blocks_of(256))
        matrix = key_matrix(n_rows, n_cols, True, n_rows)
        expected = brute_nearest_keys(matrix.tolist(), n_cols - 1)
        for K in range(1, n_cols):
            assert_matches_oracle(matrix, K, expected)

    def test_zero_k_scores_no_block(self):
        (indices, nearest), calls = run_kernel(np.zeros((300, 5)), 0)
        assert indices.shape == nearest.shape == (300, 0)
        assert calls == []

    def test_rows_name_their_own_column(self, monkeypatch):
        # a subset of rows, out of order: row part[i] skips column part[i]
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", 8 * 30 * 4)
        matrix = key_matrix(50, 30, True, 3)
        rows = np.array([41, 7, 29, 3, 30, 12, 0, 45, 18])
        calls = []
        got = nearest_k(lambda part: calls.append(part.tolist()) or matrix[part], rows, 30, 5)
        assert calls == [[41, 7, 29, 3], [30, 12, 0, 45], [18]]
        for i, row in enumerate(rows.tolist()):
            keys = matrix[row].copy()
            if row < 30:
                keys[row] = np.inf
            order = np.lexsort((np.arange(30), keys))[:5]
            assert got[0][i].tolist() == order.tolist()
            assert got[1][i].tobytes() == keys[order].tobytes()


def sampler_config(K):
    cfg = SamplerConfig(pool_size=2, picks_per_anchor=2)
    object.__setattr__(cfg, "pool_size", K)  # past the config's own pool_size >= 2
    return cfg


def pool_builders(n):
    """Each pool builder over n candidates, as (the size's name, build(K))."""
    planar = [Coordinate(float(i), float(i * i % 7), "planar") for i in range(n)]
    wgs84 = [Coordinate(float(i), float(-i), "wgs84") for i in range(n)]
    records = [SampleRecord(f"p{i}", f"p{i}", c, (f"p{i}",)) for i, c in enumerate(planar)]
    table = l2_normalize(EmbeddingTable(np.random.default_rng(0).standard_normal((n, 4)),
                                        tuple(r.id for r in records)))
    return {
        "geo_topk planar": ("K", lambda K: geo_topk(planar, planar, K)),
        "geo_topk wgs84": ("K", lambda K: geo_topk(wgs84, wgs84, K)),
        "visual_topk": ("K", lambda K: visual_topk(table, table, K)),
        "build_geo_pools": ("sampler.pool_size",
                            lambda K: build_geo_pools(records, sampler_config(K))),
        "build_sim_pools": ("sampler.pool_size",
                            lambda K: build_sim_pools(table, table, sampler_config(K))),
    }


@pytest.mark.parametrize("builder", pool_builders(6))
def test_pool_size_bound(builder):
    # one bound, 1 <= K <= n - 1, and one message for every pool builder
    name, build = pool_builders(6)[builder]
    assert build(5).indices.shape == (6, 5)
    for K in (0, 6):
        with pytest.raises(ValidationError,
                           match=rf"^{re.escape(name)}={K} must be in \[1, 5\] for 6 candidates$"):
            build(K)


@st.composite
def bounded_cases(draw):
    # widths up to 300 let one ordering step span several blocks; K up to
    # n_cols - 1 takes in widths below 16K, where groups of 4K would hold
    # fewer than 4 columns and the cut-off is the K-th key itself
    n_cols = draw(st.integers(2, 300))
    K = draw(st.one_of(st.integers(1, min(4, n_cols - 1)), st.integers(1, n_cols - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "ascending", "descending"]))
    # one-row blocks with a flush after each, 3- and 16-row blocks, one block
    budget = draw(st.sampled_from([8, 8 * 3 * n_cols, 8 * 16 * n_cols, 1 << 60]))
    return draw(st.integers(1, 400)), n_cols, K, kind, budget


def bounded_matrix(n_rows, n_cols, kind, seed):
    if kind == "ties":
        return key_matrix(n_rows, n_cols, True, seed)
    matrix = key_matrix(n_rows, n_cols, False, seed)
    if kind == "normal":
        return matrix
    matrix.sort(axis=1)  # the smallest keys crowd the low (or high) columns
    return matrix if kind == "ascending" else matrix[:, ::-1].copy()


def spy_first_k(monkeypatch):
    calls = []  # rows per ordering step
    first_k = neighbors._first_k
    monkeypatch.setattr(neighbors, "_first_k", lambda row, col, key, n_rows, K: (
        calls.append(n_rows) or first_k(row, col, key, n_rows, K)))
    return calls


class TestBoundedSelection:
    @settings(max_examples=60, deadline=None)
    @given(case=bounded_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(300, 8, 7, "ties", 8), seed=0)  # the K-th key as cut-off, one-row blocks
    @example(case=(400, 300, 1, "normal", 8 * 3 * 300), seed=1)  # steps span blocks
    @example(case=(200, 256, 32, "ascending", 1 << 60), seed=2)
    def test_matches_full_stable_sort_under_any_budget(self, case, seed):
        n_rows, n_cols, K, kind, budget = case
        matrix = bounded_matrix(n_rows, n_cols, kind, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "BLOCK_BYTES", budget)
            calls = spy_first_k(mp)
            assert_matches_oracle(matrix, K)
        assert sum(calls) == n_rows  # every row ordered exactly once

    @settings(max_examples=60, deadline=None)
    @given(case=bounded_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(300, 8, 7, "ties", 8), seed=0)  # the K-th key as cut-off, one-row blocks
    @example(case=(400, 300, 3, "ties", 8 * 3 * 300), seed=1)  # group maxima, ties, +-0.0
    @example(case=(200, 256, 32, "descending", 1 << 60), seed=2)  # the largest keys crowd left
    def test_largest_matches_full_stable_sort_under_any_budget(self, case, seed):
        # by (-key, column): ties and -0.0 beside +0.0 go to the lower column,
        # and each key keeps its bits although the survivors were negated
        n_rows, n_cols, K, kind, budget = case
        matrix = bounded_matrix(n_rows, n_cols, kind, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "BLOCK_BYTES", budget)
            calls = spy_first_k(mp)
            assert_matches_oracle(matrix, K, largest=True)
        assert sum(calls) == n_rows

    def test_one_ordering_step_spans_blocks_and_flushes_mid_run(self, monkeypatch):
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", 8 * 2 * 256)  # 2-row blocks
        calls = spy_first_k(monkeypatch)
        matrix = key_matrix(100, 256, False, 4)
        assert_matches_oracle(matrix, 1)
        assert len(calls) > 1 and max(calls) > 2

    def test_tied_rows_flush_before_they_widen_the_packing(self, monkeypatch):
        # rows 2 and 3 tie at every column, so each keeps all 256 keys: rows
        # 0-1 are ordered before that block joins, and rows 2-3 by themselves
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", 8 * 2 * 256)  # 2-row blocks
        calls = spy_first_k(monkeypatch)
        matrix = key_matrix(100, 256, False, 5)
        matrix[2:4] = 0.5
        assert_matches_oracle(matrix, 3)
        assert calls[:2] == [2, 2] and sum(calls) == 100


def full_sort_first_k(row, col, key, n_rows, K):
    """Per row, the first K survivors of a full (key, column) sort, and
    whether the row's first K + 1 keys (its +inf padding included) tie."""
    width = np.bincount(row, minlength=n_rows).max()
    indices, nearest, tied = [], [], []
    for r in range(n_rows):
        pairs = sorted(zip(key[row == r].tolist(), col[row == r].tolist()))
        head = [k for k, _ in pairs][:K + 1] + [math.inf] * (min(K + 1, width) - len(pairs))
        indices.append([c for _, c in pairs[:K]])
        nearest.append([k for k, _ in pairs[:K]])
        tied.append(len(set(head)) < len(head))
    return indices, nearest, tied


@st.composite
def survivor_sets(draw):
    # per row K to K + 6 survivors, so the shorter rows are padded and some
    # hold exactly K; keys are small integers of either sign (ties, -0.0
    # beside +0.0) or +inf, more or fewer distinct ones per case
    K = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(K, K + 6), min_size=1, max_size=12))
    spread = draw(st.sampled_from([1, 3, 50, 10**6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = np.repeat(np.arange(len(counts)), counts)
    col = np.concatenate([rng.permutation(3 * c)[:c] for c in counts])
    key = rng.integers(0, spread + 1, len(row)) * rng.choice([-1.0, 1.0], len(row))
    key[rng.random(len(row)) < 0.05] = np.inf
    return row, col, key, len(counts), K


def test_first_k_matches_full_sort(monkeypatch):
    repaired = []  # rows handed to the (key, column) sort, per call
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys, axis=-1: (
        repaired.append(len(keys[0])) or lexsort(keys, axis=axis)))
    fast = []  # rows ordered by the one unstable sort alone, per case

    @settings(max_examples=200, deadline=None)
    @given(case=survivor_sets())
    @example(case=(np.zeros(3, np.intp), np.arange(3), np.array([2.0, -0.0, 0.0]), 1, 3))
    @example(case=(np.array([0, 0, 1, 1, 1]), np.array([4, 1, 0, 2, 3]),
                   np.array([5.0, 7.0, 1.0, 2.0, 3.0]), 2, 2))
    def check(case):
        row, col, key, n_rows, K = case
        indices, nearest, tied = full_sort_first_k(row, col, key, n_rows, K)
        got_indices, got_nearest = neighbors._first_k(row, col, key, n_rows, K)
        assert got_indices.tolist() == indices
        assert got_nearest.tobytes() == np.array(nearest, dtype=np.float64).tobytes()
        assert repaired[-1] == sum(tied)
        fast.append(n_rows - sum(tied))

    check()
    assert sum(fast) > 0 and sum(repaired) > 0  # both paths ran


def test_visual_peak_follows_the_block_budget():
    # one score block, its cut-off mask and a few packed survivors live at
    # once, beside the two (n, K) outputs
    rng = np.random.default_rng(6)
    n, K = 3000, 32
    q, r = (EmbeddingTable(rng.standard_normal((n, 6)).astype(np.float32),
                           tuple(map(str, range(n)))) for _ in range(2))
    tracemalloc.start()
    try:
        visual_topk(q, r, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * K * 8 + 3 * neighbors.BLOCK_BYTES


def test_planar_block_bit_identical_to_3d_form():
    # the dense block and the grid's element-wise re-score are one formula
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e4, 1e150):
        a = rng.uniform(-scale, scale, (37, 2))
        b = rng.uniform(-scale, scale, (53, 2))
        diff = a[:, None, :] - b[None, :, :]
        block = planar_keys(a[:, 0:1], a[:, 1:2], b[:, 0], b[:, 1])
        assert block.tobytes() == np.sqrt((diff * diff).sum(axis=2)).tobytes()
        cols = rng.integers(0, 53, (37, 29))
        gathered = planar_keys(a[:, 0:1], a[:, 1:2], b[cols, 0], b[cols, 1])
        assert gathered.tobytes() == np.take_along_axis(block, cols, axis=1).tobytes()


def planar_oracle(anchors, candidates, K):
    diff = anchors[:, None, :] - candidates[None, :, :]
    return brute_nearest_keys(np.sqrt((diff * diff).sum(axis=2)).tolist(), K)


def dense_planar(anchors, candidates, K):
    def keys(part):
        a = anchors[part]
        return planar_keys(a[:, 0:1], a[:, 1:2], candidates[:, 0], candidates[:, 1])

    return nearest_k(keys, np.arange(len(anchors)), len(candidates), K)


def planar_layout(n_rows, n_cols, lattice, seed):
    rng = np.random.default_rng(seed)
    if lattice:  # small integers: mass ties, coincident points
        draw = lambda n, spill: rng.integers(-2 * spill, 4 + 2 * spill, (n, 2)).astype(float)
    else:
        draw = lambda n, spill: rng.uniform(-1e3 - 500 * spill, 1e3 + 500 * spill, (n, 2))
    candidates = draw(n_cols, 0)
    # the first anchors stand on their own candidate; extra ones spill past the box
    return np.concatenate([candidates[:n_rows], draw(max(0, n_rows - n_cols), 1)]), candidates


class TestPlanarNearestK:
    @settings(max_examples=30)
    @given(shape=shapes(), lattice=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(shape=(600, 40, 5), lattice=True, seed=1)  # more anchors than candidates, three blocks
    @example(shape=(300, 420, 7), lattice=True, seed=2)  # fewer anchors than candidates
    @example(shape=(257, 257, 3), lattice=False, seed=3)  # one row past the block
    def test_matches_full_stable_sort(self, shape, lattice, seed):
        n_rows, n_cols, K = shape
        anchors, candidates = planar_layout(n_rows, n_cols, lattice, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "block_rows", blocks_of(256))
            indices, nearest = planar_nearest_k(anchors, candidates, K)
        idx, keys = planar_oracle(anchors, candidates, K)
        assert indices.tolist() == idx
        assert nearest.tobytes() == np.array(keys, dtype=np.float64).reshape(-1, K).tobytes()


@pytest.mark.parametrize("block", [blocks_of(256), None], ids=["256-row blocks", "default"])
@pytest.mark.parametrize("layout", ["reversed", "reversed lattice", "more anchors"])
def test_own_column_outside_the_square(monkeypatch, layout, block):
    # reversed, anchor i stands on candidate n - 1 - i, so its own column i
    # mostly lies outside its 3x3 square while a candidate at distance 0 is
    # inside; anchors i >= n (more anchors than candidates) have no own column
    if layout == "more anchors":
        anchors, candidates = planar_layout(900, 600, True, 7)
    else:
        _, candidates = planar_layout(1, 700, layout == "reversed lattice", 8)
        anchors = candidates[::-1].copy()
    if block is not None:
        monkeypatch.setattr(neighbors, "block_rows", block)
    K = 8
    indices, nearest = planar_nearest_k(anchors, candidates, K)
    idx, keys = planar_oracle(anchors, candidates, K)
    assert indices.tolist() == idx
    assert nearest.tobytes() == np.array(keys, dtype=np.float64).tobytes()
    own = np.arange(min(len(anchors), len(candidates)))
    distance = np.hypot(*(anchors[own] - candidates[own]).T)
    assert (distance <= nearest[own, -1]).any()  # some own column would have been picked


def _layout(name, rng):
    if name == "all equal":
        return np.full((300, 2), 7.25)
    if name == "collinear":  # zero-area bounding box
        return np.stack([rng.uniform(0, 1e3, 300), np.full(300, 5.0)], axis=1)
    if name == "half in a 10 m cluster":
        return np.concatenate([rng.uniform(0, 1e4, (300, 2)), 5e3 + rng.uniform(0, 10, (300, 2))])
    if name == "large offset":
        return 1e12 + rng.uniform(0, 1e3, (600, 2))
    points = rng.uniform(0, 9.48e153, (300, 2))  # span at the planar overflow limit
    points[:2] = [[0.0, 0.0], [9.48e153, 9.48e153]]
    return points


@pytest.mark.parametrize("name, Ks, branch", [
    ("all equal", (1, 3, 32, 299), "one cell"),
    ("collinear", (1, 3, 32, 299), "one cell"),
    ("half in a 10 m cluster", (1, 3, 32), "dense rows"),
    ("large offset", (1, 3, 32), None),
    ("span limit", (1, 32, 299), None),
])
def test_planar_grid_byte_identical_to_dense(monkeypatch, name, Ks, branch):
    points = _layout(name, np.random.default_rng(9))
    _check_planar_span(points, points)
    want = {K: dense_planar(points, points, K) for K in Ks}
    redone = []  # rows the grid search hands to the dense scan, per call
    nearest_k = neighbors.nearest_k
    monkeypatch.setattr(neighbors, "nearest_k", lambda keys, rows, n_cols, K: (
        redone.append(len(rows)) or nearest_k(keys, rows, n_cols, K)))
    gathered = []  # shape of each block of candidate coordinates scored
    score = neighbors.planar_keys
    monkeypatch.setattr(neighbors, "planar_keys", lambda ax, ay, bx, by: (
        gathered.append(np.shape(bx)) or score(ax, ay, bx, by)))
    for K in Ks:
        indices, nearest = planar_nearest_k(points, points, K)
        assert indices.tobytes() == want[K][0].tobytes()
        assert nearest.tobytes() == want[K][1].tobytes()
    if branch == "one cell":  # every block gathers every candidate, no row is redone
        assert all(shape[-1] == len(points) for shape in gathered)
        assert len(redone) == len(Ks) and sum(redone) == 0
    if branch == "dense rows":
        assert sum(redone) > 0


def wgs84_layout(rng):
    # near a pole, across the antimeridian, repeated points: exact ties
    lat = np.concatenate([rng.uniform(-89.9, 89.9, 200), rng.uniform(88, 90, 60)])
    lon = np.concatenate([rng.uniform(-180, 180, 200), rng.uniform(179, 180, 60)])
    lat[200:220], lon[200:220] = lat[220:240], lon[220:240]
    return [Coordinate(a, b, "wgs84") for a, b in zip(lat, lon)]


@pytest.mark.parametrize("name", ["half in a 10 m cluster", "large offset", "all equal"])
def test_element_wise_keys_ignore_the_block_budget(monkeypatch, name):
    # planar and haversine keys are element-wise, so the grid (redo rows
    # included) and the wgs84 scan give the same bytes under any budget
    rng = np.random.default_rng(9)
    points, coords = _layout(name, rng), wgs84_layout(rng)
    runs, redone = [], []
    nearest_k = neighbors.nearest_k
    monkeypatch.setattr(neighbors, "nearest_k", lambda keys, rows, n_cols, K: (
        redone.append(len(rows)) or nearest_k(keys, rows, n_cols, K)))
    for budget in BUDGETS:
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
        run = []
        for K in (1, 3, 32):
            run += [a.tobytes() for a in planar_nearest_k(points, points, K)]
            pools = geo_topk(coords, coords, K)
            run += [pools.indices.tobytes(), pools.scores.tobytes()]
        runs.append(run)
    assert runs[0] == runs[1] == runs[2]
    if name == "half in a 10 m cluster":
        assert sum(redone) > 0  # the grid redid some rows


def test_planar_peak_follows_the_block_budget():
    # half the points sit in one 10 m cluster, so each of their 3x3 squares
    # gathers about n/2 candidates. A block holds at most BLOCK_BYTES of
    # keys; about four block-sized arrays (the coordinates each row reads
    # from its cell's window and their differences) live at once, beside
    # the per-cell windows and the per-point bookkeeping.
    rng = np.random.default_rng(9)
    n = 3000
    points = np.concatenate([rng.uniform(0, 1e4, (n // 2, 2)),
                             5e3 + rng.uniform(0, 10, (n // 2, 2))])
    tracemalloc.start()
    try:
        planar_nearest_k(points, points, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * neighbors.BLOCK_BYTES


# -- the block kernels' scoped ufunc buffer ----------------------------------

KERNELS = ("nearest_k", "planar_nearest_k", "_positive_ranks")


def kernel_call(monkeypatch, name, hook):
    """(kernel, args) of a small call to the named kernel whose key or score
    callback (``planar_keys`` for the grid) calls hook() before it scores."""
    rng = np.random.default_rng(5)
    if name == "nearest_k":
        matrix = rng.standard_normal((20, 30))
        return neighbors.nearest_k, (lambda part: hook() or matrix[part], np.arange(20), 30, 4)
    if name == "planar_nearest_k":
        score = neighbors.planar_keys
        monkeypatch.setattr(neighbors, "planar_keys", lambda *a: hook() or score(*a))
        points = rng.uniform(0, 1e3, (60, 2))
        return neighbors.planar_nearest_k, (points, points, 4)
    sim = rng.integers(0, 3, (20, 30)).astype(np.float64)
    links = link_arrays([{i} for i in range(20)], [{i + 1} for i in range(20)], 20, 30)
    return evaluation._positive_ranks, (lambda q: hook() or sim[q], 20, 30, *links)


def default_buffer(kernel, *args):
    """kernel's body under the caller's ufunc buffer, the grid's dense redo included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "nearest_k", neighbors.nearest_k.__wrapped__)
        return kernel.__wrapped__(*args)


def assert_same_bytes(got, want):
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("name", KERNELS)
def test_kernel_keeps_the_callers_numpy_state(monkeypatch, name, raises):
    def hook():
        if raises:
            raise KeyError("from the callback")

    kernel, args = kernel_call(monkeypatch, name, hook)

    def call_keeps_state():
        state = np.getbufsize(), np.geterr()
        if raises:
            with pytest.raises(KeyError, match="from the callback"):
                kernel(*args)
        else:
            kernel(*args)
        assert (np.getbufsize(), np.geterr()) == state

    with np.errstate(over="raise", under="warn"):  # a caller's own state
        np.setbufsize(4096)
        call_keeps_state()
    call_keeps_state()  # numpy's default state, the one every thread starts in


@pytest.mark.parametrize("name", KERNELS)
def test_callback_runs_under_the_small_buffer(monkeypatch, name):
    seen = []
    kernel, args = kernel_call(monkeypatch, name, lambda: seen.append(np.getbufsize()))
    kernel(*args)
    assert seen and set(seen) == {neighbors.UFUNC_BUFSIZE}
    seen.clear()
    default_buffer(kernel, *args)
    assert seen and set(seen) == {np.getbufsize()} != {neighbors.UFUNC_BUFSIZE}


# 1-row blocks and the default budget
BUFFER_BUDGETS = pytest.mark.parametrize("budget", [8, None], ids=["1-row", "default budget"])


@BUFFER_BUDGETS
@pytest.mark.parametrize("n_cols", [300, 5000])  # rows narrower and wider than 4,096 keys
@pytest.mark.parametrize("largest", [False, True])
@pytest.mark.parametrize("kind", ["haversine", "similarity", "small ints"])
def test_nearest_k_bytes_as_under_the_default_buffer(monkeypatch, kind, largest, n_cols,
                                                     budget):
    if budget is not None:
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
    rng = np.random.default_rng(n_cols)
    n_rows = 40
    if kind == "haversine":
        lat, lon = rng.uniform(-89.9, 89.9, n_cols), rng.uniform(-180, 180, n_cols)
        points = np.stack([lat, lon], axis=1)
        keys = lambda part: _haversine_block(points[part], points, MEAN_EARTH_RADIUS_M)
    elif kind == "similarity":  # repeated reference rows tie
        q, r = rng.standard_normal((n_rows, 6)), rng.standard_normal((n_cols, 6))
        r[1::7] = r[0]
        keys = similarity_blocks(q, r)
    else:
        matrix = key_matrix(n_rows, n_cols, True, n_cols)
        keys = lambda part: matrix[part]
    args = (keys, np.arange(n_rows), n_cols, 5, largest)
    assert_same_bytes(neighbors.nearest_k(*args), default_buffer(neighbors.nearest_k, *args))


@pytest.mark.parametrize("layout, K, budget", [
    ("uniform", 8, 8),
    ("uniform", 8, None),
    ("lattice", 3, 8),
    ("half in a 4,500-point cluster", 3, None),  # windows wider than 4,096 keys
])
def test_planar_nearest_k_bytes_as_under_the_default_buffer(monkeypatch, layout, K, budget):
    if budget is not None:
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
    rng = np.random.default_rng(13)
    if layout == "uniform":
        points = rng.uniform(0, 1e3, (600, 2))
    elif layout == "lattice":  # mass ties, coincident points
        points = rng.integers(0, 8, (600, 2)).astype(float)
    else:
        points = np.concatenate([rng.uniform(0, 1e4, (4500, 2)),
                                 5e3 + rng.uniform(0, 10, (4500, 2))])
    widths = []
    score = neighbors.planar_keys
    monkeypatch.setattr(neighbors, "planar_keys", lambda ax, ay, bx, by: (
        widths.append(np.shape(bx)[-1]) or score(ax, ay, bx, by)))
    got = neighbors.planar_nearest_k(points, points, K)
    assert_same_bytes(got, default_buffer(neighbors.planar_nearest_k, points, points, K))
    if layout.startswith("half"):
        assert max(widths) > 4096


@BUFFER_BUDGETS
@pytest.mark.parametrize("n_r", [300, 5000])  # rows narrower and wider than 4,096 scores
def test_positive_ranks_bytes_as_under_the_default_buffer(monkeypatch, n_r, budget):
    # even rows hold small integers that tie often, odd rows unique scores;
    # query 1's first positive scores NaN
    if budget is not None:
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
    rng = np.random.default_rng(n_r)
    n_q = 30
    sim = rng.standard_normal((n_q, n_r))
    sim[::2] = rng.integers(0, 4, (len(sim[::2]), n_r))
    positives = [{int(j) for j in rng.choice(n_r, 1 + i % 3, replace=False)} for i in range(n_q)]
    semis = [{int(j) for j in rng.choice(n_r, 3)} - positives[i] for i in range(n_q)]
    sim[1, min(positives[1])] = np.nan
    args = (lambda q: sim[q], n_q, n_r, *link_arrays(positives, semis, n_q, n_r))
    assert_same_bytes(evaluation._positive_ranks(*args),
                      default_buffer(evaluation._positive_ranks, *args))
