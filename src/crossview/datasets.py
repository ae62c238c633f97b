"""Dataset manifests, EMB1 embedding files, JSON text and the synthetic
two-view generator. Every JSON text is read and written here alone
(``read_json``, ``json_line``, ``write_json``)."""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_setting, check_settings, first_repeat, setting
from .neighbors import planar_nearest_k

EMB1_MAGIC = b"EMB1"
_HEADER = struct.Struct("<II")
# the most heap any one estimate may plan to use: see require_heap
HEAP_BUDGET_BYTES = 4 * 1024**3


# each crs -> its two manifest keys in (a, b) order, declared as settings
CRS_KEYS = {
    "wgs84": {"lat": setting(0.0, ge=-90.0, le=90.0), "lon": setting(0.0, ge=-180.0, le=180.0)},
    "planar": {"x": setting(0.0), "y": setting(0.0)},
}


# each crs -> every key its manifest lines may hold
_LINE_KEYS = {crs: {"id", "class_id", "crs", *keys, "positives", "semi_positives"}
              for crs, keys in CRS_KEYS.items()}


def _crs_keys(crs) -> dict:
    """CRS_KEYS[crs]; a ValidationError naming crs when it is not a key there."""
    if type(crs) is not str or crs not in CRS_KEYS:
        raise ValidationError(f"crs={crs!r} must be one of {tuple(CRS_KEYS)}")
    return CRS_KEYS[crs]


@dataclass(frozen=True)
class Coordinate:
    """wgs84 latitude/longitude in degrees or planar x/y in metres, each
    checked as its manifest key (``CRS_KEYS``), then stored as a float."""

    a: float
    b: float
    crs: str = "wgs84"

    def __post_init__(self):
        (key_a, rule_a), (key_b, rule_b) = _crs_keys(self.crs).items()
        check_setting(key_a, rule_a, self.a)
        check_setting(key_b, rule_b, self.b)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True)
class SampleRecord:
    """One query/reference pair; ``positives`` and ``semi_positives`` are the
    ids of records whose reference matches this query fully or partly."""

    id: str
    class_id: str
    coord: Coordinate
    positives: tuple[str, ...]
    semi_positives: tuple[str, ...] = ()

    def __post_init__(self):
        require_links(f"record {self.id!r}", self.positives, self.semi_positives)


def require_links(culprit: str, positives, semi_positives=()) -> None:
    """The link rules of one query: its positives are non-empty, and no id is
    both a positive and a semi-positive. Errors start ``<culprit>:``."""
    if not positives:
        raise ValidationError(f"{culprit}: positives must be non-empty")
    if clash := set(positives) & set(semi_positives):
        raise ValidationError(f"{culprit}: positives {sorted(clash)} are also semi-positives")


def require_same_width(query: str, d_q: int, reference: str, d_r: int) -> None:
    """The width rule: query and reference rows share one width. The message
    names both sides, tables or files, with their widths."""
    if d_q != d_r:
        raise ValidationError(f"dim mismatch: {query} {d_q} vs {reference} {d_r}")


def unshared(array: np.ndarray) -> np.ndarray:
    """``array`` when nothing else can write its memory, else a copy: kept when
    it owns its data, or when its base chain ends in ``bytes`` or in a
    read-only array that owns its data."""
    end = array
    while isinstance(end.base, np.ndarray):
        end = end.base
    frozen_end = isinstance(end.base, bytes) or (end.base is None and not end.flags.writeable)
    return array if array.base is None or frozen_end else array.copy()


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Row-major float32 embeddings, one row per unique sample id. Each row is
    checked finite here, once, and the array (the caller's, when ``unshared``
    keeps it) is then read-only, so no reader needs to scan it again."""

    data: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        if self.data.ndim != 2 or not self.data.shape[1]:
            raise ValidationError(f"embedding data must be 2-D, width >= 1, got {self.data.shape}")
        object.__setattr__(self, "data",
                           unshared(np.ascontiguousarray(self.data, dtype=np.float32)))
        if len(self.row_ids) != self.data.shape[0]:
            raise ValidationError(f"{len(self.row_ids)} row ids for {self.data.shape[0]} rows")
        if len(set(self.row_ids)) != len(self.row_ids):
            i, j = first_repeat(self.row_ids)
            raise ValidationError(f"row ids must be unique: {self.row_ids[j]!r} is row {i} "
                                  f"and row {j}")
        bad = np.flatnonzero(~np.isfinite(self.data).all(axis=1))
        if bad.size:
            raise ValidationError(f"embedding row {self.row_ids[bad[0]]!r} (index {bad[0]}) "
                                  "holds a NaN or inf value")
        self.data.setflags(write=False)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        return (
            self.row_ids == other.row_ids
            and self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )


@dataclass(frozen=True)
class SynthConfig:
    """Settings of ``generate_synthetic``. Pairs in one cell of the
    region_grid x region_grid map share a latent centre, and region_within
    sets their own spread (1: independent latents), so nearby pairs look alike."""

    SECTION = "synth"

    n_pairs: int = setting(2000, ge=2)
    latent_dim: int = setting(32, ge=1)
    view_dim: int = setting(64, ge=1)
    # draws of numpy's standard normal stay below 14 in magnitude and the latent
    # term below 1e7, so every view value stays far below float32's 3.4e38
    noise_sigma: float = setting(0.25, ge=0, le=1e30)
    # planar_keys sums two squared axis differences of up to the extent: 2 * extent^2 stays finite
    map_extent_m: float = setting(10_000.0, gt=0, le=math.sqrt(sys.float_info.max) / 2)
    n_semi_positives: int = setting(3, ge=0, lt="n_pairs")
    region_grid: int = setting(16, ge=1)
    region_within: float = setting(0.5, gt=0, le=1)
    seed: int = setting(0, ge=0)

    __post_init__ = check_settings


def require_heap(need: int, culprit: str) -> None:
    """The one budget check: raise ``<culprit> needs about N bytes, over the
    budget of 4,294,967,296 bytes`` when the estimate need is over
    HEAP_BUDGET_BYTES. Callers name the setting, pair count or file at fault."""
    if need > HEAP_BUDGET_BYTES:
        raise ValidationError(f"{culprit} needs about {need:,} bytes, over the budget of "
                              f"{HEAP_BUDGET_BYTES:,} bytes")


def synth_bytes(cfg: SynthConfig) -> int:
    """An upper estimate of generate_synthetic's peak heap, in bytes: 4 MiB of
    search blocks, the float64 region centres, and per pair 1 KB plus 16
    bytes per latent and 32 per view component."""
    centres = 8 * cfg.region_grid**2 * cfg.latent_dim
    return (4 << 20) + centres + cfg.n_pairs * (1024 + 16 * cfg.latent_dim + 32 * cfg.view_dim)


def read_text(path: str | Path, raw: bytes | None = None) -> str:
    """The file (or ``raw``, its bytes) decoded as UTF-8, each \\r\\n or \\r
    read as \\n; a byte that is not UTF-8 raises ``<path>:N: not UTF-8 text``."""
    raw = Path(path).read_bytes() if raw is None else raw
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not UTF-8 text (byte "
                              f"0x{raw[exc.start]:02x}: {exc.reason})") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of one JSON object's (key, value) pairs; ValueError names a repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        _, j = first_repeat(key for key, _ in pairs)
        raise ValueError(f"repeated key {pairs[j][0]!r}")
    return obj


# built once: json.loads(text, object_pairs_hook=...) builds a decoder per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def read_json(text: str):
    """One JSON text as ``json.loads`` reads it, except that a repeated key in
    an object, or nesting too deep, raises ValueError."""
    if text.startswith("\ufeff"):  # json.loads checks this, JSONDecoder.decode does not
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def json_line(obj) -> str:
    """``obj`` as one line of JSON with sorted keys, without the newline."""
    return _LINE_ENCODER.encode(obj)


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` to path as UTF-8 JSON: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_lines(path: str | Path, parse: callable,
               raw: bytes | None = None) -> list[tuple[int, object]]:
    """``(N, parse(line))`` per non-blank line N of ``read_text(path, raw)``,
    split at \\n alone and stripped; an error of ``parse`` reads ``<path>:N: ...``."""
    lines = read_text(path, raw).split("\n")
    parsed = []
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if line:
                parsed.append((lineno, parse(line)))
    except KeyError as exc:
        raise ValidationError(f"{path}:{lineno}: missing key {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return parsed


def _record_from_json(obj) -> SampleRecord:
    """The record of one manifest line, its JSON values unconverted; an
    unknown key is checked last, and the first in line order is named."""
    if type(obj) is not dict:
        raise ValidationError("expected a JSON object")
    for key in ("id", "class_id"):
        if type(obj[key]) is not str:
            raise ValidationError(f"{key}={obj[key]!r} must be a JSON string")
    crs = obj.get("crs", "wgs84")
    key_a, key_b = _crs_keys(crs)
    links = {"positives": obj["positives"], "semi_positives": obj.get("semi_positives", [])}
    for key, ids in links.items():
        if type(ids) is not list:  # a JSON string would read as one id per character
            raise ValidationError(f"{key} must be a JSON list, got {ids!r}")
        for ref in ids:
            if type(ref) is not str:
                raise ValidationError(f"{key} entry {ref!r} must be a JSON string")
    record = SampleRecord(
        id=obj["id"],
        class_id=obj["class_id"],
        coord=Coordinate(obj[key_a], obj[key_b], crs),
        positives=tuple(links["positives"]),
        semi_positives=tuple(links["semi_positives"]),
    )
    if not obj.keys() <= _LINE_KEYS[crs]:
        raise ValidationError(f"unknown key {next(k for k in obj if k not in _LINE_KEYS[crs])!r}")
    return record


def load_manifest(path: str | Path, raw: bytes | None = None) -> list[SampleRecord]:
    """Record i of the JSON-lines manifest is its i-th non-blank line. A bad
    line, a duplicate id, a second crs or a link to no record raises
    ``<path>:N: ...``."""
    lines = read_lines(path, lambda line: _record_from_json(read_json(line)), raw)
    seen: set[str] = set()
    for lineno, record in lines:
        if record.id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate id {record.id!r}")
        seen.add(record.id)
        first_lineno, first = lines[0]
        if record.coord.crs != first.coord.crs:
            raise ValidationError(f"{path}:{lineno}: crs {record.coord.crs!r} differs from "
                                  f"line {first_lineno}'s {first.coord.crs!r}")
    for lineno, record in lines:
        for ref in (*record.positives, *record.semi_positives):
            if ref not in seen:
                raise ValidationError(f"{path}:{lineno}: record {record.id!r} "
                                      f"references unknown id {ref!r}")
    return [record for _, record in lines]


def record_to_json(record: SampleRecord) -> dict:
    """Canonical JSON object for one manifest line."""
    coord = record.coord
    return {"id": record.id, "class_id": record.class_id,
            **dict(zip(CRS_KEYS[coord.crs], (coord.a, coord.b))), "crs": coord.crs,
            "positives": list(record.positives), "semi_positives": list(record.semi_positives)}


def require_aligned(what: str, row_ids: tuple[str, ...], records: list[SampleRecord]) -> None:
    """Raise unless row i of the ``what`` table carries record i's id; the
    message names the first row that does not."""
    if len(row_ids) != len(records):
        raise ValidationError(f"{len(row_ids)} {what} rows for {len(records)} manifest records")
    for i, (row_id, record) in enumerate(zip(row_ids, records)):
        if row_id != record.id:
            raise ValidationError(
                f"{what} row {i} ({row_id!r}) does not align with record {record.id!r}"
            )


def manifest_text(records: list[SampleRecord]) -> str:
    """The manifest of records as write_manifest writes it: one JSON line each."""
    return "".join(json_line(record_to_json(record)) + "\n" for record in records)


def write_manifest(records: list[SampleRecord], path: str | Path) -> None:
    Path(path).write_bytes(manifest_text(records).encode("utf-8"))


def emb1_bytes(table: EmbeddingTable) -> bytes:
    """The EMB1 file of table, without its sidecar: magic ``EMB1``, count and
    dim as u32le, then the rows as little-endian float32."""
    payload = np.ascontiguousarray(table.data, dtype="<f4")  # the table's own array
    return b"".join((EMB1_MAGIC, _HEADER.pack(table.count, table.dim), payload))


def write_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write ``table`` in EMB1 format plus the ``<path>.ids`` sidecar, one id
    per line; a row id holding a line boundary is refused before writing."""
    bad = [i for i, rid in enumerate(table.row_ids) if (rid + "\n").splitlines() != [rid]]
    if bad:
        raise ValidationError(f"row id {table.row_ids[bad[0]]!r} (index {bad[0]}) holds a "
                              f"line boundary and cannot be stored in the ids sidecar")
    path = Path(path)
    path.write_bytes(emb1_bytes(table))
    sidecar = path.with_name(path.name + ".ids")
    sidecar.write_text("".join(f"{rid}\n" for rid in table.row_ids), encoding="utf-8")


def _emb1_header(path: Path, raw: bytes) -> tuple[int, int]:
    """(count, dim) of the EMB1 file at path whose bytes start with raw."""
    if raw[:4] != EMB1_MAGIC:
        raise ValidationError(f"{path}: bad magic, not an EMB1 file")
    if len(raw) < 4 + _HEADER.size:
        raise ValidationError(f"{path}: truncated header")
    count, dim = _HEADER.unpack_from(raw, 4)
    if not dim:
        raise ValidationError(f"{path}: header width dim=0, embeddings need dim >= 1")
    return count, dim


def emb1_shape(path: str | Path) -> tuple[int, int]:
    """(count, dim) of an EMB1 file, from its 12-byte header alone."""
    path = Path(path)
    with path.open("rb") as fh:
        return _emb1_header(path, fh.read(4 + _HEADER.size))


def read_embeddings(path: str | Path, raw: bytes | None = None) -> EmbeddingTable:
    """Inverse of write_embeddings (from ``raw``, the file's bytes, when given);
    a missing sidecar raises the OSError of reading it. The table keeps a
    view of the bytes, not a copy."""
    path = Path(path)
    raw = path.read_bytes() if raw is None else raw
    count, dim = _emb1_header(path, raw)
    expected = count * dim * 4
    actual = len(raw) - 4 - _HEADER.size
    if actual != expected:
        raise ValidationError(
            f"{path}: payload size mismatch, expected {expected} bytes for "
            f"{count}x{dim} float32, found {actual}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=4 + _HEADER.size).reshape(count, dim)
    sidecar = path.with_name(path.name + ".ids")
    row_ids = tuple(read_text(sidecar).splitlines())
    if len(row_ids) != count:
        raise ValidationError(f"{sidecar}: {len(row_ids)} ids for {count} rows")
    try:
        return EmbeddingTable(data=data, row_ids=row_ids)
    except ValidationError as exc:  # a NaN row or a duplicate id: name the file
        raise ValidationError(f"{path}: {exc}") from None


def generate_synthetic(
    cfg: SynthConfig,
) -> tuple[list[SampleRecord], EmbeddingTable, EmbeddingTable]:
    """A synthetic two-view dataset, a pure function of cfg.

    Pair i's query view is A_q @ z_i plus noise and its reference view
    A_r @ z_i plus independent noise, for fixed random maps A_q, A_r and a
    latent z_i of unit variance. Coordinates are uniform in the planar map
    square; semi-positives are each record's nearest other references.
    """
    n, d_latent, d_view = cfg.n_pairs, cfg.latent_dim, cfg.view_dim
    require_heap(synth_bytes(cfg), f"synth.n_pairs={n} (latent_dim={d_latent}, "
                 f"view_dim={d_view}, region_grid={cfg.region_grid})")
    rng = np.random.default_rng(cfg.seed)

    coords = rng.uniform(0.0, cfg.map_extent_m, size=(n, 2))
    g = cfg.region_grid
    cell = np.minimum((coords / cfg.map_extent_m * g).astype(int), g - 1)
    region = cell[:, 0] * g + cell[:, 1]
    centers = rng.standard_normal((g * g, d_latent))
    w = cfg.region_within
    latents = math.sqrt(1.0 - w * w) * centers[region] + w * rng.standard_normal((n, d_latent))
    # 1/sqrt(latent_dim) keeps per-component feature variance at 1
    map_q = rng.standard_normal((d_latent, d_view)) / math.sqrt(d_latent)
    map_r = rng.standard_normal((d_latent, d_view)) / math.sqrt(d_latent)
    query = latents @ map_q + cfg.noise_sigma * rng.standard_normal((n, d_view))
    reference = latents @ map_r + cfg.noise_sigma * rng.standard_normal((n, d_view))

    ids = [f"p{i:06d}" for i in range(n)]
    semi_sets = planar_nearest_k(coords, coords, cfg.n_semi_positives)[0].tolist()
    records = [
        SampleRecord(
            id=ids[i],
            class_id=ids[i],
            coord=Coordinate(float(coords[i, 0]), float(coords[i, 1]), "planar"),
            positives=(ids[i],),
            semi_positives=tuple(ids[j] for j in semi_sets[i]),
        )
        for i in range(n)
    ]
    query_table = EmbeddingTable(query.astype(np.float32), tuple(ids))
    reference_table = EmbeddingTable(reference.astype(np.float32), tuple(ids))
    return records, query_table, reference_table

