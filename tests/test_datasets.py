import ast
import io
import json
import math
import re
import struct
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossview import datasets
from crossview.datasets import (
    CRS_KEYS,
    Coordinate,
    EmbeddingTable,
    SampleRecord,
    SynthConfig,
    emb1_bytes,
    generate_synthetic,
    load_manifest,
    manifest_text,
    read_embeddings,
    record_to_json,
    write_embeddings,
    write_manifest,
)
from crossview.errors import ValidationError
from crossview.simsearch import l2_normalize, visual_topk
from crossview.trainer import encode, init_params

from oracles import brute_nearest


def make_table(data, ids=None):
    data = np.asarray(data, dtype=np.float32)
    if ids is None:
        ids = tuple(str(i) for i in range(data.shape[0]))
    return EmbeddingTable(data, tuple(ids))


def at(path, line: int) -> str:
    """The regex of the ``<path>:N: `` prefix that starts an error in line N of a file."""
    return f"^{re.escape(str(path))}:{line}: "


def manifest_line(**fields):
    """One planar manifest line from JSON text per key; a key given None is left out."""
    base = {"id": '"a"', "class_id": '"a"', "x": "0", "y": "0", "crs": '"planar"',
            "positives": '["a"]'}
    base.update(fields)
    return "{" + ", ".join(f'"{k}": {v}' for k, v in base.items() if v is not None) + "}\n"


class TestCoordinate:
    def test_wgs84_range_checked(self):
        Coordinate(45.0, 120.0, "wgs84")
        with pytest.raises(ValidationError):
            Coordinate(95.0, 0.0, "wgs84")
        with pytest.raises(ValidationError):
            Coordinate(0.0, 181.0, "wgs84")

    def test_planar_unbounded(self):
        Coordinate(1e9, -1e9, "planar")

    @pytest.mark.parametrize("a, b", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
    def test_planar_rejects_non_finite(self, a, b):
        with pytest.raises(ValidationError, match=r"^[xy]=-?(nan|inf) must be finite$"):
            Coordinate(a, b, "planar")

    def test_wgs84_rejects_nan(self):
        with pytest.raises(ValidationError, match="lat=nan must be finite"):
            Coordinate(float("nan"), 0.0, "wgs84")

    def test_unknown_crs(self):
        with pytest.raises(ValidationError):
            Coordinate(0.0, 0.0, "utm")


class TestSampleRecord:
    def test_positives_required(self):
        with pytest.raises(ValidationError):
            SampleRecord("a", "c", Coordinate(0, 0, "planar"), positives=())

    def test_semi_positives_disjoint(self):
        with pytest.raises(ValidationError,
                           match=r"^record 'a': positives \['a'\] are also semi-positives$"):
            SampleRecord(
                "a", "c", Coordinate(0, 0, "planar"),
                positives=("a",), semi_positives=("a", "b"),
            )


JSON_VALUE = st.one_of(
    st.sampled_from(["a", "wgs84", "planar", ["a"], []]),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.floats(),  # NaN and +-inf too, which json writes as NaN and Infinity
    st.integers(-10**400, 10**400),
    st.lists(st.one_of(st.text(max_size=2), st.integers(), st.none(), st.booleans()),
             max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def fuzzed_lines(draw):
    """One in four a drawn JSON value, else a valid manifest object of the
    drawn crs in which up to four keys, or an unknown key, take a drawn
    JSON value or are left out."""
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON_VALUE)
    crs = draw(st.sampled_from(sorted(CRS_KEYS)))
    obj = {"id": "a", "class_id": "c", "crs": crs, **dict(zip(CRS_KEYS[crs], (45.0, -120))),
           "positives": ["a"], "semi_positives": []}
    for key in draw(st.sets(st.sampled_from([*sorted(obj), "semipositives"]), max_size=4)):
        value = draw(st.one_of(st.just(KeyError), JSON_VALUE))
        if value is KeyError:
            obj.pop(key, None)
        else:
            obj[key] = value
    return obj


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert load_manifest(path) == []

    def test_two_lines_indexed_in_order(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "class_id": "a", "lat": 0, "lon": 0, "crs": "wgs84", "positives": ["a"]}\n'
            '{"id": "b", "class_id": "b", "lat": 1, "lon": 2, "crs": "wgs84", "positives": ["a"]}\n'
        )
        records = load_manifest(path)
        assert [r.id for r in records] == ["a", "b"]
        assert records[1].coord == Coordinate(1.0, 2.0, "wgs84")

    def test_mixed_crs_names_the_first_line_that_differs(self, tmp_path):
        # one crs per file; the first non-blank line sets it
        path = tmp_path / "m.jsonl"
        path.write_text(
            "\n" + manifest_line(id='"a"', positives='["a"]')
            + manifest_line(id='"b"', positives='["a"]')
            + manifest_line(id='"c"', x=None, y=None, lat="1", lon="2", crs='"wgs84"')
            + manifest_line(id='"d"', x=None, y=None, lat="1", lon="2", crs='"wgs84"')
        )
        with pytest.raises(ValidationError,
                           match=at(path, 4) + "crs 'wgs84' differs from line 2's 'planar'$"):
            load_manifest(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "class_id": "a", "x": 0, "y": 0, "crs": "planar", "positives": ["a"]}\n'
            "not json\n"
        )
        with pytest.raises(ValidationError, match=at(path, 2) + "Expecting value"):
            load_manifest(path)

    def test_duplicate_id_named(self, tmp_path):
        line = '{"id": "dup", "class_id": "c", "x": 0, "y": 0, "crs": "planar", "positives": ["dup"]}\n'
        path = tmp_path / "m.jsonl"
        path.write_text(line + line)
        with pytest.raises(ValidationError, match=at(path, 2) + "duplicate id 'dup'$"):
            load_manifest(path)

    def test_unknown_positive_reference(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "class_id": "a", "x": 0, "y": 0, "crs": "planar", "positives": ["ghost"]}\n'
        )
        with pytest.raises(ValidationError,
                           match=at(path, 1) + "record 'a' references unknown id 'ghost'$"):
            load_manifest(path)

    @pytest.mark.parametrize("key", ["positives", "semi_positives"])
    @pytest.mark.parametrize("value", ['"a"', '"ab"', '{"a": 1}', "null", "3"])
    def test_id_list_that_is_not_a_list_named(self, tmp_path, key, value):
        # a JSON string would otherwise read as one id per character
        links = {"positives": '["a"]', "semi_positives": "[]", key: value}
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "class_id": "a", "x": 0, "y": 0, "crs": "planar", '
            + ", ".join(f'"{k}": {v}' for k, v in links.items()) + "}\n"
            '{"id": "b", "class_id": "b", "x": 0, "y": 0, "crs": "planar", "positives": ["b"]}\n'
        )
        with pytest.raises(ValidationError, match=at(path, 1) + f"{key} must be a JSON list"):
            load_manifest(path)

    @pytest.mark.parametrize("line", ["[1]", "3", '"s"', "null"])
    def test_line_that_is_not_an_object_named(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_text(manifest_line() + line + "\n")
        with pytest.raises(ValidationError, match=at(path, 2) + "expected a JSON object$"):
            load_manifest(path)

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(manifest_line().encode() + b"\xff\xfe{}\n")
        with pytest.raises(ValidationError, match=at(path, 2) + r"not UTF-8 text "
                                                  r"\(byte 0xff: invalid start byte\)$"):
            load_manifest(path)

    @pytest.mark.parametrize("fields, key", [
        # the last x used to win: this line loaded as x = 5.0
        ('"x": 1, "y": 0, "x": 5, "positives": ["a"]', "x"),
        # the empty list used to win and hide the overlap with positives
        ('"x": 0, "y": 0, "positives": ["a"], "semi_positives": ["a"], "semi_positives": []',
         "semi_positives"),
    ], ids=["x", "semi_positives"])
    def test_repeated_key_named(self, tmp_path, fields, key):
        path = tmp_path / "m.jsonl"
        path.write_text(manifest_line(id='"b"', class_id='"b"', positives='["b"]')
                        + '{"id": "a", "class_id": "a", "crs": "planar", ' + fields + "}\n")
        with pytest.raises(ValidationError, match=at(path, 2) + f"repeated key '{key}'$"):
            load_manifest(path)

    def test_leading_bom_named(self, tmp_path):
        # json.loads rejects a BOM; the manifest reader keeps that rule
        path = tmp_path / "m.jsonl"
        path.write_text("\ufeff" + manifest_line(), encoding="utf-8")
        with pytest.raises(ValidationError, match=at(path, 1) + "Unexpected UTF-8 BOM"):
            load_manifest(path)

    def test_line_nested_too_deep_named(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(ValidationError, match=at(path, 1) + "maximum recursion depth"):
            load_manifest(path)

    @pytest.mark.parametrize("fields, message", [
        # "planr" used to be read as wgs84 and fail as the bare 'lat'
        ({"crs": '"planr"'}, "crs='planr' must be one of ('wgs84', 'planar')"),
        ({"crs": "null"}, "crs=None must be one of ('wgs84', 'planar')"),
        ({"crs": '["planar"]'}, "crs=['planar'] must be one of ('wgs84', 'planar')"),
        ({"y": None}, "missing key 'y'"),
        ({"crs": '"wgs84"', "x": None, "y": None, "lat": "1"}, "missing key 'lon'"),
        ({"id": '["a"]'}, "id=['a'] must be a JSON string"),
        ({"id": "1"}, "id=1 must be a JSON string"),
        ({"class_id": "true"}, "class_id=True must be a JSON string"),
        ({"class_id": "null"}, "class_id=None must be a JSON string"),
        ({"positives": '[["a"]]'}, "positives entry ['a'] must be a JSON string"),
        ({"semi_positives": "[1]"}, "semi_positives entry 1 must be a JSON string"),
        ({"x": "true"}, "x=True must be a float or an int"),
        ({"y": '"0"'}, "y='0' must be a float or an int"),
        ({"x": "1" + "0" * 400}, "x=1" + "0" * 400 + " must be finite"),
        ({"y": "-1" + "0" * 400}, "y=-1" + "0" * 400 + " must be finite"),
        ({"y": "NaN"}, "y=nan must be finite"),
        ({"x": "-Infinity"}, "x=-inf must be finite"),
        ({"crs": '"wgs84"', "x": None, "y": None, "lat": "95", "lon": "0"},
         "lat=95 must be <= 90.0"),
        ({"crs": None, "x": None, "y": None, "lat": "0", "lon": "-180.5"},
         "lon=-180.5 must be >= -180.0"),
        # unknown keys used to be dropped: a misspelt semi_positives read as none
        ({"semipositives": '["a"]'}, "unknown key 'semipositives'"),
        ({"lat": "95"}, "unknown key 'lat'"),
        ({"crs": '"wgs84"', "lat": "0", "lon": "0"}, "unknown key 'x'"),
        # checked last: an earlier fault in the line is named first
        ({"semipositives": "[]", "x": "true"}, "x=True must be a float or an int"),
    ], ids=lambda v: v[:40] if isinstance(v, str) else None)
    def test_bad_field_named(self, tmp_path, fields, message):
        # ids used to pass through str() and coordinates through float():
        # ["a"] loaded as the id "['a']", true as x = 1.0, and 10**400
        # ended in a bare OverflowError
        path = tmp_path / "m.jsonl"
        path.write_text(manifest_line(**fields))
        with pytest.raises(ValidationError, match=at(path, 1) + f"{re.escape(message)}$"):
            load_manifest(path)

    @settings(max_examples=300, deadline=None)
    @given(line=fuzzed_lines())
    def test_any_line_loads_typed_or_fails_validation(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
        path.write_text(json.dumps(line) + "\n")
        try:
            records = load_manifest(path)
        except ValidationError as exc:
            assert str(exc).startswith(f"{path}:1: "), exc
            return
        assert set(line) <= {"id", "class_id", "crs", *CRS_KEYS[line.get("crs", "wgs84")],
                             "positives", "semi_positives"}
        for r in records:
            assert all(type(s) is str for s in (r.id, r.class_id, *r.positives,
                                                 *r.semi_positives))
            assert type(r.coord.a) is float and type(r.coord.b) is float
            assert math.isfinite(r.coord.a) and math.isfinite(r.coord.b)

    def test_write_read_round_trip(self, tmp_path):
        records, _, _ = generate_synthetic(SynthConfig(n_pairs=6, seed=3))
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        assert load_manifest(path) == records

    def test_written_lines_are_sorted_key_json_dumps(self, tmp_path):
        records = generate_synthetic(SynthConfig(n_pairs=6, seed=3))[0] + [
            SampleRecord("Zürich 東", "é", Coordinate(47.37, 8.54, "wgs84"), ("p000000",),
                         ("p000001", " ")),
            SampleRecord(" ", "c", Coordinate(-0.0, 1e-300, "planar"), ("Zürich 東",)),
        ]
        assert any(r.semi_positives for r in records[:6])
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        assert path.read_bytes() == "".join(
            json.dumps(record_to_json(r), sort_keys=True) + "\n" for r in records).encode()
        assert path.read_bytes() == manifest_text(records).encode()


class TestEmbeddingTable:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        data = np.ones((5, 3), dtype=np.float32)
        data[3, 1] = bad
        data[4, 0] = bad
        with pytest.raises(ValidationError, match=r"row 'r3' \(index 3\)"):
            make_table(data, ids=[f"r{i}" for i in range(5)])

    def test_float32_overflow_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="index 0"):
            EmbeddingTable(np.array([[1e39]]), ("a",))

    def test_repeated_id_named_with_both_rows(self):
        with pytest.raises(ValidationError,
                           match="^row ids must be unique: 'b' is row 1 and row 3$"):
            make_table(np.ones((5, 2), dtype=np.float32), ids="abcbb")

    @pytest.mark.parametrize("ids", ["ab", "abcd"])
    def test_row_id_count_must_match_rows(self, ids):
        with pytest.raises(ValidationError, match=f"^{len(ids)} row ids for 3 rows$"):
            make_table(np.ones((3, 2), dtype=np.float32), ids=ids)

    def test_ids_stored_as_a_tuple(self):
        data = np.ones((2, 3), dtype=np.float32)
        table = EmbeddingTable(data, ["a", "b"])
        assert table.row_ids == ("a", "b") and table == EmbeddingTable(data, ("a", "b"))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_zero_width_rejected(self, rows):
        with pytest.raises(ValidationError, match=rf"width >= 1, got \({rows}, 0\)"):
            make_table(np.zeros((rows, 0), dtype=np.float32))


IDS = tuple("abcde")


def emb1_file(rows, path):
    """Path of an EMB1 file, and its sidecar, holding rows as given, NaN and
    inf included."""
    data = np.asarray(rows, dtype="<f4")
    path.write_bytes(b"EMB1" + struct.pack("<II", *data.shape) + data.tobytes())
    path.with_name(path.name + ".ids").write_text("".join(f"{rid}\n" for rid in IDS))
    return path


def encoded(rows):
    params = init_params(np.random.default_rng(0), rows.shape[1], 8, 4)
    return encode(params, rows, "query", IDS)


# every way the library builds a table from five 3-wide float64 rows with
# ids IDS: (the table, the file the rows were read from or None)
TABLE_PATHS = {
    "float32": lambda rows, tmp: (EmbeddingTable(rows.astype(np.float32), IDS), None),
    "float64": lambda rows, tmp: (EmbeddingTable(rows, IDS), None),
    "non-contiguous": lambda rows, tmp: (
        EmbeddingTable(np.asfortranarray(rows, dtype=np.float32), IDS), None),
    # the bench's eval split: the first rows of a larger array
    "row slice": lambda rows, tmp: (
        EmbeddingTable(np.vstack([rows, np.ones((2, 3))]).astype(np.float32)[:5], IDS), None),
    "read_embeddings": lambda rows, tmp: (read_embeddings(emb1_file(rows, tmp / "t.emb")),
                                          tmp / "t.emb"),
    "read_embeddings raw": lambda rows, tmp: (
        read_embeddings(tmp / "t.emb", emb1_file(rows, tmp / "t.emb").read_bytes()),
        tmp / "t.emb"),
    "encode": lambda rows, tmp: (encoded(rows), None),
    "l2_normalize": lambda rows, tmp: (l2_normalize(EmbeddingTable(rows, IDS)), None),
}


class TestTablesChecked:
    """Each table is checked finite once, when built, and its array is
    read-only from then on, so no reader scans it again."""

    @pytest.mark.parametrize("path", TABLE_PATHS)
    def test_table_refuses_writes(self, tmp_path, path):
        table, _ = TABLE_PATHS[path](np.arange(1.0, 16.0).reshape(5, 3), tmp_path)
        with pytest.raises(ValueError, match="read-only"):
            table.data[0, 0] = 1.0
        if path == "row slice":  # a slice of a table, as the bench's eval split takes it
            part = EmbeddingTable(table.data[:3], table.row_ids[:3])
            with pytest.raises(ValueError, match="read-only"):
                part.data[2, 2] = 1.0

    def test_synthetic_tables_refuse_writes(self):
        _, queries, references = generate_synthetic(SynthConfig(n_pairs=20))
        for table in (queries, references):
            with pytest.raises(ValueError, match="read-only"):
                table.data[3] = 0.0

    def test_kept_float32_array_becomes_read_only(self):
        # a C-contiguous float32 array is the table's own, not a copy
        data = np.ones((5, 3), dtype=np.float32)
        assert EmbeddingTable(data, IDS).data is data
        assert not data.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("path", TABLE_PATHS)
    def test_non_finite_row_refused_on_every_path(self, tmp_path, path, bad):
        rows = np.ones((5, 3))
        # the encoder's output row is NaN for any of them; an inf input would
        # make inf - inf inside it, and numpy warn
        rows[2, 1] = np.nan if path == "encode" else bad
        message = r"embedding row 'c' \(index 2\) holds a NaN or inf value$"
        with pytest.raises(ValidationError) as raised:
            TABLE_PATHS[path](rows, tmp_path)
        file = tmp_path / "t.emb" if path.startswith("read_embeddings") else None
        assert re.match(f"^{re.escape(f'{file}: ') if file else ''}{message}", str(raised.value))

    def test_view_of_a_writable_array_is_copied(self):
        # a later write to the caller's array must not reach the checked rows
        x = np.ones((7, 3), np.float32)
        t = EmbeddingTable(x[:5], IDS)
        x[0, 0] = np.nan
        assert t.data[0].tolist() == [1.0, 1.0, 1.0]
        pools = visual_topk(t, t, 2)
        assert pools.indices.max() < 5 and np.isfinite(pools.scores).all()

    def test_views_of_frozen_memory_are_kept(self, tmp_path):
        # slices of a file's bytes or of another table's array are not copied
        for table in (read_embeddings(emb1_file(np.ones((5, 3)), tmp_path / "t.emb")),
                      generate_synthetic(SynthConfig(n_pairs=5, n_semi_positives=1))[1]):
            part = EmbeddingTable(table.data[:3], table.row_ids[:3])
            assert np.shares_memory(part.data, table.data)

    def test_synthetic_overflow_named(self):
        # the bound keeps every float32 view value finite: noise at the bound
        # draws without a warning, and a larger one is refused by the setting
        generate_synthetic(SynthConfig(n_pairs=20, noise_sigma=1e30))
        with pytest.raises(ValidationError,
                           match=r"^synth\.noise_sigma=1e\+300 must be <= 1e\+30$"):
            SynthConfig(n_pairs=20, noise_sigma=1e300)


class TestEmb1:
    def test_minimal_table_layout(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embeddings(make_table([[0.5]]), path)
        raw = path.read_bytes()
        assert len(raw) == 16  # 4 magic + 4 count + 4 dim + one float32
        assert raw[:4] == b"EMB1"
        assert struct.unpack("<II", raw[4:12]) == (1, 1)
        assert struct.unpack("<f", raw[12:]) == (0.5,)
        assert raw == emb1_bytes(make_table([[0.5]]))

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embeddings(make_table(np.zeros((0, 3), dtype=np.float32)), path)
        assert len(path.read_bytes()) == 12
        table = read_embeddings(path)
        assert table.count == 0 and table.dim == 3

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        table = make_table(rng.standard_normal((8, 4)).astype(np.float32))
        path = tmp_path / "t.emb"
        write_embeddings(table, path)
        assert read_embeddings(path) == table

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValidationError, match="bad magic"):
            read_embeddings(path)

    def test_zero_width_header_rejected(self, tmp_path):
        # 7 rows of width 0 fit an empty payload; the header is refused
        # before the ids sidecar, absent here, is read
        path = tmp_path / "t.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 7, 0))
        with pytest.raises(ValidationError, match="dim=0"):
            read_embeddings(path)

    def test_truncated_payload_reports_counts(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embeddings(make_table(np.ones((2, 3), dtype=np.float32)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])  # one float short
        with pytest.raises(ValidationError, match="expected 24 bytes.*found 20"):
            read_embeddings(path)

    def test_sidecar_byte_that_is_not_utf8_named(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embeddings(make_table(np.ones((2, 2), dtype=np.float32)), path)
        (tmp_path / "t.emb.ids").write_bytes(b"a\r\n\xff\n")
        with pytest.raises(ValidationError, match=at(f"{path}.ids", 2) + "not UTF-8"):
            read_embeddings(path)

    def test_nan_row_names_the_file(self, tmp_path):
        # query and reference tables share ids, so the row alone does not
        # say which file is bad
        path = tmp_path / "t.emb"
        write_embeddings(make_table(np.ones((4, 2), dtype=np.float32), ids="abcd"), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 12 + 4 * (2 * 3 + 1), float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: embedding row 'd' (index 3) holds a NaN or inf value")):
            read_embeddings(path)

    def test_duplicate_id_names_the_file(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embeddings(make_table(np.ones((2, 2), dtype=np.float32), ids="ab"), path)
        (tmp_path / "t.emb.ids").write_text("a\na\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: row ids must be unique"):
            read_embeddings(path)

    def test_missing_sidecar_is_an_io_error_naming_it(self, tmp_path):
        # the reader never numbers the rows itself
        path = tmp_path / "t.emb"
        write_embeddings(make_table(np.ones((2, 2), dtype=np.float32), ids="ab"), path)
        (tmp_path / "t.emb.ids").unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(f"{path}.ids")):
            read_embeddings(path)

    def test_ids_sidecar(self, tmp_path):
        table = make_table(np.ones((2, 2), dtype=np.float32), ids=("x", "y"))
        path = tmp_path / "t.emb"
        write_embeddings(table, path)
        assert (tmp_path / "t.emb.ids").read_text().splitlines() == ["x", "y"]
        assert read_embeddings(path).row_ids == ("x", "y")

    @pytest.mark.parametrize("bad", ["a\r", "a\u2028b", "a\nb", "\x85"])
    def test_id_with_line_boundary_rejected_before_writing(self, tmp_path, bad):
        # str.splitlines on read back would turn "a\r" into "a" and split
        # "a\u2028b" into two ids
        table = make_table(np.ones((2, 2), dtype=np.float32), ids=("x", bad))
        path = tmp_path / "t.emb"
        with pytest.raises(ValidationError, match="index 1"):
            write_embeddings(table, path)
        assert not path.exists() and not (tmp_path / "t.emb.ids").exists()

    @given(
        rows=st.integers(0, 20),
        cols=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_is_identity(self, rows, cols, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** float(rng.integers(-3, 4))
        table = make_table((rng.standard_normal((rows, cols)) * scale).astype(np.float32))
        path = tmp_path_factory.mktemp("emb") / "t.emb"
        write_embeddings(table, path)
        assert read_embeddings(path) == table


class TestGenerateSynthetic:
    def test_extent_whose_squared_distance_overflows_rejected(self):
        # planar_keys sums two squared axis differences of up to extent^2
        assert SynthConfig(map_extent_m=9e153).map_extent_m == 9e153
        with pytest.raises(ValidationError, match="synth.map_extent_m=1e\\+154"):
            SynthConfig(map_extent_m=1e154)

    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(n_pairs=12, seed=99)
        r1, q1, t1 = generate_synthetic(cfg)
        r2, q2, t2 = generate_synthetic(cfg)
        assert r1 == r2 and q1 == q2 and t1 == t2

    def test_semi_positives_match_brute_force(self):
        cfg = SynthConfig(n_pairs=10, n_semi_positives=3, seed=5)
        records, _, _ = generate_synthetic(cfg)
        points = [(r.coord.a, r.coord.b) for r in records]
        dist = lambda p, q: ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5
        expected = brute_nearest(points, dist, 3)
        for i, record in enumerate(records):
            assert record.semi_positives == tuple(records[j].id for j in expected[i])

    def test_semi_positives_match_brute_force_across_blocks(self):
        cfg = SynthConfig(n_pairs=300, latent_dim=2, view_dim=2, n_semi_positives=5, seed=6)
        records, _, _ = generate_synthetic(cfg)
        points = [(r.coord.a, r.coord.b) for r in records]
        dist = lambda p, q: ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5
        expected = brute_nearest(points, dist, 5)
        for i, record in enumerate(records):
            assert record.semi_positives == tuple(records[j].id for j in expected[i])

    def test_zero_semi_positives_gives_empty_tuples(self):
        cfg = SynthConfig(n_pairs=300, latent_dim=2, view_dim=2, n_semi_positives=0, seed=6)
        records, _, _ = generate_synthetic(cfg)
        assert all(r.semi_positives == () for r in records)

    def test_semi_positives_exclude_positive(self):
        records, _, _ = generate_synthetic(SynthConfig(n_pairs=30, seed=1))
        for record in records:
            assert len(record.semi_positives) == 3
            assert record.id not in record.semi_positives

    def test_too_many_semi_positives(self):
        with pytest.raises(ValidationError,
                           match=r"^synth\.n_semi_positives=3 must be < synth\.n_pairs=3$"):
            SynthConfig(n_pairs=3, n_semi_positives=3)

    @pytest.mark.parametrize("n, grid", [(10**12, 16), (100, 10**5)])
    def test_over_budget_refused_from_the_estimate(self, n, grid):
        # refused before anything is drawn: 10**12 pairs, or 10**10 region centres
        cfg = SynthConfig(n_pairs=n, region_grid=grid)
        assert datasets.synth_bytes(cfg) > datasets.HEAP_BUDGET_BYTES
        with pytest.raises(ValidationError, match=rf"^synth\.n_pairs={n} \(latent_dim=32, "
                           rf"view_dim=64, region_grid={grid}\) needs about [\d,]+ bytes, over "
                           r"the budget of 4,294,967,296 bytes$"):
            generate_synthetic(cfg)

    @pytest.mark.parametrize("n, latent, view", [(2000, 32, 64), (3000, 4, 8), (2000, 64, 200)])
    def test_estimate_bounds_the_traced_peak(self, n, latent, view):
        cfg = SynthConfig(n_pairs=n, latent_dim=latent, view_dim=view)
        tracemalloc.start()
        try:
            generate_synthetic(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= datasets.synth_bytes(cfg) <= 3 * peak

    def test_coordinates_planar_in_extent(self):
        cfg = SynthConfig(n_pairs=50, map_extent_m=123.0, seed=8)
        records, _, _ = generate_synthetic(cfg)
        for r in records:
            assert r.coord.crs == "planar"
            assert 0.0 <= r.coord.a <= 123.0 and 0.0 <= r.coord.b <= 123.0



def test_only_datasets_imports_json():
    # JSON text is one module's format: every other module reads and writes
    # it through datasets.read_json, json_line and write_json
    importers = set()
    for module in Path(datasets.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.add(module.stem)
    assert importers == {"datasets"}


# a timing figure: a number with a time unit, or a ratio such as 0.64x
TIMING = re.compile(r"\b\d+(?:[.,]\d+)*\s?(?:ns|us|\u00b5s|\u03bcs|ms|s)\b|\b\d+(?:\.\d+)?x\b")


def test_docs_state_contracts_not_measurements():
    # README stays short, a Layout entry says what its module owns and
    # promises in at most six lines, and no timing figure sits in the Layout
    # or in a library docstring or comment: measurements live in CHANGES.md
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert len(readme.splitlines()) <= 300
    layout = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    entries = []
    for line in layout.strip("\n").splitlines():
        if line.startswith("   "):
            entries[-1].append(line)
        else:
            entries.append([line])
    assert [entry[0] for entry in entries if len(entry) > 6] == []
    texts = [layout]
    for module in Path(datasets.__file__).parent.glob("*.py"):
        source = module.read_text(encoding="utf-8")
        texts += [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        texts += [token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
                  if token.type == tokenize.COMMENT]
    assert [match.group() for text in texts for match in TIMING.finditer(text)] == []


def test_only_datasets_scans_table_rows():
    # EmbeddingTable checks its rows finite once and makes them read-only:
    # no other module calls np.isfinite on a table's .data
    scanners = set()
    for module in Path(datasets.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "isfinite"
                    and any(getattr(sub, "attr", None) == "data"
                            for arg in node.args for sub in ast.walk(arg))):
                scanners.add(module.stem)
    assert scanners == {"datasets"}


def test_only_neighbors_states_the_pool_size_bound():
    # neighbors.require_pool_size is the one statement of 1 <= K <= n - 1:
    # no other module compares K or a pool_size with 1 or with n - 1
    def is_pool_size(node):
        return getattr(node, "id", None) == "K" or getattr(node, "attr", None) == "pool_size"

    def is_one_or_n_minus_one(node):
        return (isinstance(node, ast.Constant) and node.value == 1) or (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and getattr(node.right, "value", None) == 1)

    bounders = set()
    for module in Path(datasets.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(is_pool_size, sides)) and any(map(is_one_or_n_minus_one, sides)):
                    bounders.add(module.stem)
    assert bounders == {"neighbors"}


def test_only_datasets_names_the_heap_budget():
    # every other module holds its estimate to the budget through
    # datasets.require_heap
    namers = set()
    for module in Path(datasets.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if "HEAP_BUDGET_BYTES" in (getattr(node, "id", None), getattr(node, "attr", None),
                                       getattr(node, "name", None)):
                namers.add(module.stem)
    assert namers == {"datasets"}
