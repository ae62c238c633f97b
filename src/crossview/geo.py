"""Haversine and planar distances, and geographic (GPS) neighbour pools."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Coordinate
from .errors import ValidationError, check_settings, setting
from .neighbors import nearest_k, planar_keys, planar_nearest_k, require_pool_size
from .simsearch import Pools

MEAN_EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True)
class GeoConfig:
    SECTION = "geo"

    earth_radius_m: float = setting(MEAN_EARTH_RADIUS_M, gt=0)

    def __post_init__(self):
        check_settings(self)
        if not math.isfinite(2.0 * self.earth_radius_m * math.asin(1.0)):  # as _haversine_block
            raise ValidationError(f"geo.earth_radius_m={self.earth_radius_m!r}: the largest "
                                  "haversine distance 2*R*asin(1) overflows float64")


def haversine_distance(p: Coordinate, q: Coordinate, cfg: GeoConfig = GeoConfig()) -> float:
    """Great-circle distance in metres between two wgs84 coordinates, as wgs84 pools score it."""
    if p.crs != "wgs84" or q.crs != "wgs84":
        raise ValidationError(f"haversine needs wgs84 coordinates, got {p.crs!r}/{q.crs!r}")
    a = np.array([[p.a, p.b], [q.a, q.b]])
    return float(_haversine_block(a[:1], a[1:], cfg.earth_radius_m)[0, 0])


def planar_distance(p: Coordinate, q: Coordinate) -> float:
    """Euclidean distance in metres between two planar coordinates, as planar pools score it."""
    if p.crs != "planar" or q.crs != "planar":
        raise ValidationError(f"planar distance needs planar coordinates, got {p.crs!r}/{q.crs!r}")
    a = np.array([[p.a, p.b], [q.a, q.b]])
    _check_planar_span(a[:1], a[1:])
    return float(planar_keys(a[:1, 0], a[:1, 1], a[1:, 0], a[1:, 1])[0])


def _coord_array(coords: list[Coordinate]) -> tuple[np.ndarray, str]:
    if not coords:
        raise ValidationError("empty coordinate list")
    crs = coords[0].crs
    odd = next((i for i, c in enumerate(coords) if c.crs != crs), None)
    if odd is not None:
        raise ValidationError(f"coordinates mix CRS: coordinate {odd} is "
                              f"{coords[odd].crs!r}, coordinate 0 is {crs!r}")
    return np.array([(c.a, c.b) for c in coords], dtype=np.float64), crs


def _haversine_block(a: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    lat1 = np.radians(a[:, 0])[:, None]
    lat2 = np.radians(b[:, 0])[None, :]
    dlat = lat2 - lat1
    dlon = np.radians(b[:, 1])[None, :] - np.radians(a[:, 1])[:, None]
    h = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return 2.0 * radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def _check_planar_span(a: np.ndarray, c: np.ndarray) -> None:
    # planar_keys squares and sums the axis differences; bound the largest pair once
    lo = np.minimum(a.min(axis=0), c.min(axis=0)).tolist()
    hi = np.maximum(a.max(axis=0), c.max(axis=0)).tolist()
    dx, dy = hi[0] - lo[0], hi[1] - lo[1]
    if not math.isfinite(dx * dx + dy * dy):
        raise ValidationError(f"planar coordinates span {dx!r} m in x and {dy!r} m in y: "
                              "the planar distance overflows float64")


def geo_topk(
    anchors: list[Coordinate],
    candidates: list[Coordinate],
    K: int,
    cfg: GeoConfig = GeoConfig(),
) -> Pools:
    """For each anchor i, its K geographically nearest candidates other than
    candidate i, in ``nearest_k``'s order. Planar pools search the grid;
    wgs84 pools score every pair, since a lat/lon cell bound would have to
    cover the poles and the antimeridian. Keys are finite without a scan:
    ``Coordinate`` checks each axis, ``GeoConfig`` bounds the radius, and
    ``_check_planar_span`` the planar distances."""
    a, crs_a = _coord_array(anchors)
    c, crs_c = (a, crs_a) if candidates is anchors else _coord_array(candidates)
    if crs_a != crs_c:
        raise ValidationError(f"anchors are {crs_a!r} but candidates are {crs_c!r}")
    require_pool_size("K", K, len(c))

    if crs_a == "wgs84":
        keys = lambda part: _haversine_block(a[part], c, cfg.earth_radius_m)
        return Pools(*nearest_k(keys, np.arange(len(a)), len(c), K), "geographic")
    _check_planar_span(a, c)
    return Pools(*planar_nearest_k(a, c, K), "geographic")
