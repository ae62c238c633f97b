"""Dataset manifests, EMB1 embedding file IO, JSON text, and the synthetic
two-view generator.

A manifest is a JSON-lines file with one query/reference pair per line.
Every JSON text crossview reads or writes goes through ``read_json``,
``json_line`` and ``write_json`` here; a key may appear once per object.
Embedding tables travel as EMB1 binary files: a 4-byte magic ``EMB1``,
count and dim as little-endian u32, then count*dim float32 values in
row-major order, plus a ``<path>.ids`` sidecar holding one sample id per
line in row order.
"""

from __future__ import annotations

import json
import math
import struct
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
    """A location: wgs84 latitude/longitude in degrees, or planar x/y in metres.

    Each axis is checked as its manifest key (``CRS_KEYS``), then stored as a float.
    """

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
    """One query/reference training pair.

    ``positives`` and ``semi_positives`` hold ids of other records whose
    reference view matches (exactly, or only partially for semi-positives)
    this record's query.
    """

    id: str
    class_id: str
    coord: Coordinate
    positives: tuple[str, ...]
    semi_positives: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.positives:
            raise ValidationError(f"record {self.id!r}: positives must be non-empty")
        overlap = set(self.positives) & set(self.semi_positives)
        if overlap:
            raise ValidationError(
                f"record {self.id!r}: semi_positives overlap positives: {sorted(overlap)}"
            )


def require_finite_rows(finite: np.ndarray, row_ids: tuple[str, ...]) -> None:
    """Raise naming the first embedding row whose flag in ``finite`` is False."""
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValidationError(f"embedding row {row_ids[row]!r} (index {row}) holds a NaN or "
                              "inf value")


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Dense row-major float32 matrix of embeddings, one row per sample id."""

    data: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        if self.data.ndim != 2 or not self.data.shape[1]:
            raise ValidationError(f"embedding data must be 2-D, width >= 1, got {self.data.shape}")
        if self.data.dtype != np.float32:
            object.__setattr__(self, "data", self.data.astype(np.float32))
        if not self.data.flags["C_CONTIGUOUS"]:
            object.__setattr__(self, "data", np.ascontiguousarray(self.data))
        if len(self.row_ids) != self.data.shape[0]:
            raise ValidationError(
                f"{len(self.row_ids)} row ids for {self.data.shape[0]} rows"
            )
        if len(set(self.row_ids)) != len(self.row_ids):
            i, j = first_repeat(self.row_ids)
            raise ValidationError(f"row ids must be unique: {self.row_ids[j]!r} is row {i} "
                                  f"and row {j}")
        require_finite_rows(np.isfinite(self.data).all(axis=1), self.row_ids)

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
    """Parameters of the synthetic two-view dataset generator.

    Latents carry spatial structure: the map square is divided into a
    region_grid x region_grid grid, pairs falling in the same cell share
    a latent cluster center, and region_within in (0, 1] sets the
    within-region spread (1 recovers fully independent latents). Nearby
    locations thereby look alike, the premise hard-negative sampling
    relies on.
    """

    SECTION = "synth"

    n_pairs: int = setting(2000, ge=2)
    latent_dim: int = setting(32, ge=1)
    view_dim: int = setting(64, ge=1)
    noise_sigma: float = setting(0.25, ge=0)
    map_extent_m: float = setting(10_000.0, gt=0)
    n_semi_positives: int = setting(3, ge=0)
    region_grid: int = setting(16, ge=1)
    region_within: float = setting(0.5, gt=0, le=1)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self)
        if not math.isfinite(2.0 * self.map_extent_m * self.map_extent_m):  # as planar_keys
            raise ValidationError(f"synth.map_extent_m={self.map_extent_m!r}: the largest "
                                  "squared planar distance 2*extent^2 overflows float64")


def require_heap(need: int, culprit: str) -> None:
    """The one budget check: raise ``<culprit> needs about N bytes, over the
    budget of 4,294,967,296 bytes`` when the estimate need is over
    HEAP_BUDGET_BYTES. Callers name the setting, pair count or file at fault."""
    if need > HEAP_BUDGET_BYTES:
        raise ValidationError(f"{culprit} needs about {need:,} bytes, over the budget of "
                              f"{HEAP_BUDGET_BYTES:,} bytes")


def synth_bytes(cfg: SynthConfig) -> int:
    """An upper estimate of generate_synthetic's peak heap for cfg, in bytes:
    4 MiB for the semi-positive search's blocks, the region_grid**2 float64
    latent centres, then per pair 1 KB for its record, id and grid slot, 16
    bytes per latent component and 32 per view component for the float64
    draws and the float32 tables. tracemalloc peaks from 50 to 20,000 pairs
    lie 1.4 to 40 times below it."""
    centres = 8 * cfg.region_grid**2 * cfg.latent_dim
    return (4 << 20) + centres + cfg.n_pairs * (1024 + 16 * cfg.latent_dim + 32 * cfg.view_dim)


def read_text(path: str | Path, raw: bytes | None = None) -> str:
    """The file as ``Path.read_text(encoding="utf-8")`` reads it, each \\r\\n
    or \\r read as \\n; a byte that is not UTF-8 raises ValidationError
    starting ``<path>:N:`` for the line N that holds it. ``raw``, when
    given, is the file's bytes, already read by the caller."""
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
    """The value of one JSON text, as ``json.loads`` reads it, except that a key
    given twice in one object raises ValueError ``repeated key 'k'``; input nested
    too deep raises ValueError, not RecursionError."""
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
    split at \\n alone and stripped; a KeyError or ValueError from ``parse``
    raises ValidationError ``<path>:N: ...``."""
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
    """The record of one manifest line. JSON values pass through unchanged:
    ids must be JSON strings, and coordinates JSON numbers under the keys
    that ``CRS_KEYS`` gives the line's crs. A key outside ``_LINE_KEYS``
    is checked for last, and the first in line order is named."""
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
    """Read a JSON-lines manifest through ``read_lines`` (from ``raw``, the
    file's bytes, when given): record i is the i-th non-blank line. A
    malformed line N, a duplicate id, a crs other than the first record's,
    or a link to an id no record has raises ValidationError starting
    ``<path>:N:``."""
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
    """The EMB1 file of table as write_embeddings writes it, without the sidecar."""
    payload = np.ascontiguousarray(table.data, dtype="<f4")  # the table's own array
    return b"".join((EMB1_MAGIC, _HEADER.pack(table.count, table.dim), payload))


def write_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write ``table`` in EMB1 format plus the ``<path>.ids`` sidecar.

    Rejects, before writing anything, a row id that would not read back as
    one line of the sidecar (one holding a line boundary such as "\\r").
    """
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
    """(count, dim) of an EMB1 file, from its 12-byte header alone: the
    payload is neither read nor checked."""
    path = Path(path)
    with path.open("rb") as fh:
        return _emb1_header(path, fh.read(4 + _HEADER.size))


def read_embeddings(path: str | Path, raw: bytes | None = None) -> EmbeddingTable:
    """Inverse of write_embeddings, from ``raw``, the EMB1 file's bytes, when
    given; the ``<path>.ids`` sidecar is required, and a missing one raises
    the OSError of reading it."""
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
        return EmbeddingTable(data=data.copy(), row_ids=row_ids)
    except ValidationError as exc:  # a NaN row or a duplicate id: name the file
        raise ValidationError(f"{path}: {exc}") from None


def generate_synthetic(
    cfg: SynthConfig,
) -> tuple[list[SampleRecord], EmbeddingTable, EmbeddingTable]:
    """Generate a synthetic two-view dataset.

    Each pair shares a latent vector z; the query view is A_q @ z plus
    isotropic noise and the reference view A_r @ z plus independent noise,
    with A_q, A_r fixed random linear maps.
    Coordinates are uniform in a map_extent_m square (planar CRS); the
    latent of each pair mixes its map region's cluster center with an
    individual component (see SynthConfig), keeping unit variance. Each
    record's semi_positives are its n_semi_positives geographically
    nearest other references, found by the exact planar grid search
    ``neighbors.planar_nearest_k`` (the same lists a dense scan of all
    pairs gives, at about linear cost in n_pairs), whose distances are
    finite, as it requires, because ``SynthConfig`` bounds map_extent_m.
    Pure function of cfg: the same config yields bit-identical outputs.
    """
    if cfg.n_semi_positives >= cfg.n_pairs:
        raise ValidationError(
            f"n_semi_positives={cfg.n_semi_positives} must be < n_pairs={cfg.n_pairs}"
        )
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

