import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossview import neighbors
from crossview.datasets import Coordinate
from crossview.errors import ValidationError
from crossview.geo import GeoConfig, MEAN_EARTH_RADIUS_M, geo_topk, haversine_distance, planar_distance

from oracles import brute_nearest, law_of_cosines_distance

R = MEAN_EARTH_RADIUS_M

wgs = lambda lat, lon: Coordinate(lat, lon, "wgs84")
pla = lambda x, y: Coordinate(x, y, "planar")

lat_st = st.floats(-89.0, 89.0)
lon_st = st.floats(-180.0, 180.0)


class TestHaversine:
    def test_identical_points(self):
        assert haversine_distance(wgs(12.5, -33.0), wgs(12.5, -33.0)) == 0.0

    def test_one_degree_on_equator(self):
        d = haversine_distance(wgs(0.0, 0.0), wgs(0.0, 1.0))
        assert d == pytest.approx(math.pi * R / 180.0, rel=1e-12)

    def test_half_circumference(self):
        d = haversine_distance(wgs(0.0, 0.0), wgs(0.0, 180.0))
        assert d == pytest.approx(math.pi * R, rel=1e-12)

    def test_mixed_crs_rejected(self):
        with pytest.raises(ValidationError):
            haversine_distance(wgs(0, 0), pla(0, 0))

    def test_custom_radius(self):
        cfg = GeoConfig(earth_radius_m=1.0)
        d = haversine_distance(wgs(0.0, 0.0), wgs(0.0, 180.0), cfg)
        assert d == pytest.approx(math.pi, rel=1e-12)

    def test_radius_whose_largest_distance_overflows_rejected(self):
        # 2 * R * asin(1) = pi * R must stay finite
        assert GeoConfig(earth_radius_m=5e307).earth_radius_m == 5e307
        with pytest.raises(ValidationError, match="geo.earth_radius_m=6e\\+307"):
            GeoConfig(earth_radius_m=6e307)

    def test_against_law_of_cosines(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            lat1, lat2 = rng.uniform(-89, 89, 2)
            lon1, lon2 = rng.uniform(-180, 180, 2)
            expected = law_of_cosines_distance(lat1, lon1, lat2, lon2, R)
            if not 1e-3 < expected / R < math.pi - 1e-3:
                continue
            got = haversine_distance(wgs(lat1, lon1), wgs(lat2, lon2))
            assert got == pytest.approx(expected, rel=1e-9)

    @given(lat1=lat_st, lon1=lon_st, lat2=lat_st, lon2=lon_st)
    def test_symmetric_nonnegative_bounded(self, lat1, lon1, lat2, lon2):
        p, q = wgs(lat1, lon1), wgs(lat2, lon2)
        d = haversine_distance(p, q)
        assert d == haversine_distance(q, p)
        assert 0.0 <= d <= math.pi * R * (1 + 1e-12)

    @given(lat=lat_st, lon=lon_st)
    def test_self_distance_zero(self, lat, lon):
        assert haversine_distance(wgs(lat, lon), wgs(lat, lon)) == 0.0


class TestPlanar:
    def test_identical_points(self):
        assert planar_distance(pla(3.0, 4.0), pla(3.0, 4.0)) == 0.0

    def test_pythagorean_triple(self):
        assert planar_distance(pla(0, 0), pla(3, 4)) == 5.0

    def test_matches_recomputation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c, d = rng.uniform(-1e4, 1e4, 4)
            expected = math.sqrt((a - c) ** 2 + (b - d) ** 2)
            assert planar_distance(pla(a, b), pla(c, d)) == pytest.approx(expected, rel=1e-12)

    def test_mixed_crs_rejected(self):
        with pytest.raises(ValidationError):
            planar_distance(pla(0, 0), wgs(0, 0))

    def test_overflowing_distance_rejected(self):
        # hypot(2e200, 0) is finite, but the squared distance the pools sum is not
        with pytest.raises(ValidationError, match="planar distance overflows float64"):
            planar_distance(pla(-1e200, 0), pla(1e200, 0))

    @given(x1=st.floats(-1e6, 1e6), y1=st.floats(-1e6, 1e6),
           x2=st.floats(-1e6, 1e6), y2=st.floats(-1e6, 1e6))
    def test_symmetric(self, x1, y1, x2, y2):
        assert planar_distance(pla(x1, y1), pla(x2, y2)) == planar_distance(pla(x2, y2), pla(x1, y1))


class TestGeoTopk:
    def test_empty_anchor_list_rejected(self):
        with pytest.raises(ValidationError, match="^empty coordinate list$"):
            geo_topk([], [pla(0, 0), pla(1, 0)], K=1)

    @pytest.mark.parametrize("K", [0, -1])
    def test_pool_size_below_one_rejected(self, K):
        coords = [pla(0, 0), pla(1, 0)]
        with pytest.raises(ValidationError, match="^K must be >= 1$"):
            geo_topk(coords, coords, K=K)

    def test_three_collinear_points(self):
        coords = [pla(0, 0), pla(1, 0), pla(3, 0)]
        pools = geo_topk(coords, coords, K=1)
        assert pools[0].neighbor_indices == (1,)
        assert pools[1].neighbor_indices == (0,)
        assert pools[2].neighbor_indices == (1,)

    def test_full_ordering_matches_brute_force(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 100, size=(12, 2))
        coords = [pla(x, y) for x, y in pts]
        pools = geo_topk(coords, coords, K=11)
        dist = lambda p, q: math.hypot(p[0] - q[0], p[1] - q[1])
        expected = brute_nearest([tuple(p) for p in pts], dist, 11)
        for pool, exp in zip(pools, expected):
            assert list(pool.neighbor_indices) == exp
            assert list(pool.scores) == sorted(pool.scores)

    def test_wgs84_matches_brute_force(self):
        rng = np.random.default_rng(22)
        coords = [wgs(lat, lon) for lat, lon in
                  zip(rng.uniform(-60, 60, 10), rng.uniform(-170, 170, 10))]
        pools = geo_topk(coords, coords, K=9)
        expected = brute_nearest(coords, haversine_distance, 9)
        for pool, exp in zip(pools, expected):
            assert list(pool.neighbor_indices) == exp

    def test_integer_grid_across_blocks_matches_brute_force(self, monkeypatch):
        # 306 points span two row blocks; a grid makes many exact distance ties
        monkeypatch.setattr(neighbors, "block_rows", lambda width: 256)
        rng = np.random.default_rng(24)
        grid = [(x, y) for x in range(18) for y in range(17)]
        coords = [pla(*grid[i]) for i in rng.permutation(len(grid))]
        pools = geo_topk(coords, coords, K=12)
        expected = brute_nearest(coords, planar_distance, 12)
        for i, (pool, exp) in enumerate(zip(pools, expected)):
            assert list(pool.neighbor_indices) == exp
            assert list(pool.scores) == [planar_distance(coords[i], coords[j]) for j in exp]

    @pytest.mark.parametrize("crs", ["wgs84", "planar"])
    def test_pool_scores_are_the_public_distance_bit_for_bit(self, crs):
        rng = np.random.default_rng(25)
        distance = {"wgs84": haversine_distance, "planar": planar_distance}[crs]
        coords = [Coordinate(a, b, crs)
                  for a, b in zip(rng.uniform(-89, 89, 400), rng.uniform(-180, 180, 400))]
        pools = geo_topk(coords, coords, K=8)
        assert pools.scores.tolist() == [[distance(coords[i], coords[j]) for j in row]
                                         for i, row in enumerate(pools.indices)]

    def test_equidistant_tie_lower_index_first(self):
        anchors = [pla(0, 0), pla(10, 10), pla(20, 0)]
        pools = geo_topk(anchors, anchors, K=2)
        # anchor 1 is equidistant from 0 and 2
        assert pools[1].neighbor_indices == (0, 2)

    def test_never_returns_own_candidate(self):
        rng = np.random.default_rng(23)
        coords = [pla(x, y) for x, y in rng.uniform(0, 10, size=(20, 2))]
        for pool in geo_topk(coords, coords, K=19):
            assert pool.anchor_index not in pool.neighbor_indices

    def test_k_too_large(self):
        coords = [pla(0, 0), pla(1, 1)]
        with pytest.raises(ValidationError, match="K=2"):
            geo_topk(coords, coords, K=2)

    def test_mixed_crs_rejected(self):
        with pytest.raises(ValidationError):
            geo_topk([pla(0, 0), pla(1, 1)], [wgs(0, 0), wgs(1, 1)], K=1)

    def test_mixed_crs_in_one_list_names_the_first_odd_coordinate(self):
        coords = [wgs(0, 0), wgs(1, 1), pla(2, 2), wgs(3, 3), pla(4, 4)]
        with pytest.raises(ValidationError, match="^coordinates mix CRS: coordinate 2 is "
                                                  "'planar', coordinate 0 is 'wgs84'$"):
            geo_topk(coords, coords, K=1)

    def test_anchor_list_independent_of_candidates(self):
        # exclusion applies only where anchor position indexes a candidate
        anchors = [pla(0, 0), pla(9, 9), pla(5, 5)]
        candidates = [pla(0, 1), pla(9, 8)]
        pools = geo_topk(anchors, candidates, K=1)
        assert pools[0].neighbor_indices == (1,)  # own index 0 excluded
        assert pools[1].neighbor_indices == (0,)  # own index 1 excluded
        assert pools[2].neighbor_indices == (1,)  # index 2 beyond candidates
