"""Bad input from outside: every case exits 1 or 2 with a message, never a traceback.

The CLI table runs ``python -m crossview`` in a fresh process per case, so
an exception that escapes ``cli.main`` shows as a traceback on stderr; each
case's message starts with the path of the bad file, as ``<path>:N:`` when
one line is at fault. The fuzz feeds drawn bytes to the file readers that
the CLI does not reach (``read_plan``, ``load_params``) and to
``read_embeddings``, and checks that every ValidationError starts with the
path of the file it read.
"""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crossview.cli import main
from crossview.datasets import read_embeddings
from crossview.errors import ValidationError
from crossview.sampler import read_plan
from crossview.trainer import init_params, load_params, save_params

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("bad-input") / "data"
    assert main(["gen-synth", "--set", "synth.n_pairs=20", "--set", "synth.latent_dim=4",
                 "--set", "synth.view_dim=6", "--out", str(data)]) == 0
    return data


def _nan_row(path: Path, row: int) -> None:
    raw = bytearray(path.read_bytes())
    dim = struct.unpack_from("<II", raw, 4)[1]
    struct.pack_into("<f", raw, 12 + 4 * row * dim, float("nan"))
    path.write_bytes(bytes(raw))


def _first_line(path: Path, text: bytes) -> None:
    path.write_bytes(text + b"\n" + path.read_bytes().split(b"\n", 1)[1])


def _wgs84_line(path: Path, index: int) -> None:
    # line index of a planar manifest, moved to wgs84 with the same id and links
    lines = path.read_bytes().split(b"\n")
    obj = json.loads(lines[index])
    obj.update(crs="wgs84", lat=obj.pop("y") / 1e3, lon=obj.pop("x") / 1e3)
    lines[index] = json.dumps(obj).encode()
    path.write_bytes(b"\n".join(lines))


EVAL = ["eval", "--query", "{data}/query.emb", "--ref", "{data}/reference.emb",
        "--manifest", "{data}/manifest.jsonl"]


def _plan(strategy: str) -> list[str]:
    # plan reads both tables and the manifest whatever the strategy
    return ["plan", "--set", f"sampler.strategy={strategy}", "--set", "sampler.pool_size=8",
            "--set", "sampler.picks_per_anchor=4", "--epoch", "0",
            "--manifest", "{data}/manifest.jsonl",
            "--embeddings", "{data}/query.emb", "{data}/reference.emb",
            "--out", "{data}/plan.jsonl"]

# case -> (file to spoil, how, the command after "crossview", how stderr starts)
CASES = {
    "manifest-not-utf8": ("manifest.jsonl", lambda p: _first_line(p, b"\xff\xfe{}"), EVAL,
                          "{data}/manifest.jsonl:1: not UTF-8"),
    "manifest-nested-too-deep": ("manifest.jsonl",
                                 lambda p: _first_line(p, b"[" * 100_000 + b"]" * 100_000),
                                 EVAL, "{data}/manifest.jsonl:1: maximum recursion depth"),
    "manifest-repeated-key": ("manifest.jsonl", lambda p: p.write_bytes(
        p.read_bytes().replace(b'"id": "p000001"', b'"id": "p000001", "id": "p000001"')), EVAL,
        "{data}/manifest.jsonl:2: repeated key 'id'"),
    "manifest-unknown-reference": ("manifest.jsonl", lambda p: p.write_bytes(
        p.read_bytes().replace(b'"positives": ["p000002"]', b'"positives": ["ghost"]')), EVAL,
        "{data}/manifest.jsonl:3: record 'p000002' references unknown id 'ghost'"),
    "manifest-mixed-crs": ("manifest.jsonl", lambda p: _wgs84_line(p, 2), EVAL,
                           "{data}/manifest.jsonl:3: crs 'wgs84' differs from line 1's "
                           "'planar'"),
    "ids-not-utf8": ("query.emb.ids", lambda p: p.write_bytes(b"\xff"), EVAL,
                     "{data}/query.emb.ids:1: not UTF-8"),
    "ids-duplicate": ("reference.emb.ids",
                      lambda p: p.write_bytes(p.read_bytes().replace(b"p000001", b"p000000")),
                      EVAL, "{data}/reference.emb: row ids must be unique"),
    "reference-nan-row": ("reference.emb", lambda p: _nan_row(p, 3), EVAL,
                          "{data}/reference.emb: embedding row 'p000003' (index 3) holds a NaN"),
    "plan-reference-not-emb1": ("reference.emb", lambda p: p.write_text("not a table\n"),
                                _plan("random"), "{data}/reference.emb: bad magic, not an EMB1"),
    "plan-query-nan-row": ("query.emb", lambda p: _nan_row(p, 5), _plan("gps"),
                           "{data}/query.emb: embedding row 'p000005' (index 5) holds a NaN"),
    "train-config-not-utf8": ("bad.cfg", lambda p: p.write_bytes(b"train.epochs=\xff3\n"),
                              ["train", "--config", "{data}/bad.cfg", "--data", "{data}",
                               "--out", "{data}/out"], "{data}/bad.cfg:1: not UTF-8"),
    "gen-synth-config-not-utf8": ("bad.cfg", lambda p: p.write_bytes(b"\n# \xe9t\xe9\n"),
                                  ["gen-synth", "--config", "{data}/bad.cfg", "--out",
                                   "{data}/out"], "{data}/bad.cfg:2: not UTF-8"),
    "train-config-breaks-a-rule": (
        "bad.cfg", lambda p: p.write_bytes(b"train.warmup_epochs=5\ntrain.epochs=5\n"),
        ["train", "--config", "{data}/bad.cfg", "--data", "{data}", "--out", "{data}/out"],
        "{data}/bad.cfg:2: train.warmup_epochs=5 must be < train.epochs=5"),
}


def _run_spoiled(dataset, tmp_path, name, spoil, argv):
    """(the spoiled copy of dataset, ``python -m crossview argv`` run over it)"""
    data = tmp_path / "data"
    data.mkdir()
    for f in dataset.iterdir():
        (data / f.name).write_bytes(f.read_bytes())
    spoil(data / name)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "crossview",
                           *(arg.format(data=data) for arg in argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return data, proc


@pytest.mark.parametrize("case", CASES)
def test_cli_bad_input_exits_without_traceback(dataset, tmp_path, case):
    name, spoil, argv, named = CASES[case]
    data, proc = _run_spoiled(dataset, tmp_path, name, spoil, argv)
    assert proc.returncode in (1, 2), proc.stderr
    assert proc.stderr.startswith(f"error: {named.format(data=data)}"), proc.stderr


@pytest.mark.parametrize("argv", [EVAL, _plan("random")], ids=["eval", "plan"])
def test_missing_ids_sidecar_is_an_io_error_naming_it(dataset, tmp_path, argv):
    # the reader never numbers the rows itself
    data, proc = _run_spoiled(dataset, tmp_path, "reference.emb.ids", Path.unlink, argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("io error: "), proc.stderr
    assert f"'{data}/reference.emb.ids'" in proc.stderr, proc.stderr


def _emb1(count: int, dim: int, payload: bytes) -> bytes:
    return b"EMB1" + struct.pack("<II", count, dim) + payload


def _sized_emb1(shape: tuple[int, int]):
    count, dim = shape
    return st.binary(min_size=4 * count * dim, max_size=4 * count * dim).map(
        lambda payload: _emb1(count, dim, payload))


# an EMB1 file: drawn bytes; a header of small or absurd sizes over a drawn
# payload; or a header whose payload fits it
EMB1_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(_emb1, st.integers(0, 4) | st.integers(0, 2**32 - 1),
              st.integers(0, 4) | st.integers(0, 2**32 - 1), st.binary(max_size=64)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(_sized_emb1),
)
SIDECAR = st.none() | st.binary(max_size=24) | st.lists(
    st.sampled_from([b"a", b"b", "é".encode(), b"", b"\xff", b"a\r"]), max_size=4).map(b"\n".join)

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _returns_or_fails_cleanly(read, path, named):
    """read(path), or None when it raises OSError or a ValidationError whose
    message starts with a match of the regex ``named``."""
    try:
        return read(path)
    except OSError:
        return None
    except ValidationError as exc:
        assert re.match(named, str(exc)), exc
        return None


@FUZZ
@given(raw=EMB1_BYTES, ids=SIDECAR)
def test_read_embeddings_of_drawn_bytes(tmp_path, raw, ids):
    path = tmp_path / "t.emb"
    path.write_bytes(raw)
    sidecar = tmp_path / "t.emb.ids"
    sidecar.unlink(missing_ok=True)
    if ids is not None:
        sidecar.write_bytes(ids)
    table = _returns_or_fails_cleanly(read_embeddings, path,
                                      rf"{re.escape(str(path))}(\.ids)?(:\d+)?: ")
    if table is not None:
        assert np.isfinite(table.data).all() and len(set(table.row_ids)) == table.count


@FUZZ
@given(raw=st.binary(max_size=80) | st.lists(
    st.sampled_from([b"[0, 1]", b"[", b"]", b"[2]", b"\xff", b"\r", b"\n", b"[true]"]),
    max_size=12).map(b"".join))
def test_read_plan_of_drawn_bytes(tmp_path, raw):
    path = tmp_path / "plan.jsonl"
    path.write_bytes(raw)
    plan = _returns_or_fails_cleanly(read_plan, path, rf"{re.escape(str(path))}:\d+: ")
    if plan is not None:
        assert all(type(i) is int for batch in plan.batches for i in batch)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)
HEADER = {"d_in": 2, "d_hidden": 3, "d_out": 2, "shared_weights": True, "logit_scale": 0.5}


@FUZZ
@given(header=st.binary(max_size=60) | st.fixed_dictionaries(
    {}, optional={key: st.integers(-1, 3) | JSON_VALUES for key in HEADER}).map(
        lambda drawn: json.dumps({**HEADER, **drawn}).encode()), theta=st.none() | EMB1_BYTES)
def test_load_params_of_drawn_bytes(tmp_path, header, theta):
    # theta None keeps the saved theta.emb, which fits the header HEADER
    save_params(init_params(np.random.default_rng(0), 2, 3, 2), tmp_path)
    (tmp_path / "header.json").write_bytes(header)
    if theta is not None:
        (tmp_path / "theta.emb").write_bytes(theta)
    params = _returns_or_fails_cleanly(
        load_params, tmp_path,
        rf"{re.escape(str(tmp_path))}/(header\.json|theta\.emb(\.ids)?)(:\d+)?: ")
    if params is not None:
        assert np.isfinite(params.theta).all()
