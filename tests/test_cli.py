import argparse
import csv
import json
import re
import shlex
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossview import cli
from crossview.cli import build_parser, main
from crossview.config import parse_config
from crossview.datasets import EmbeddingTable, load_manifest, read_embeddings, write_embeddings
from crossview.datasets import generate_synthetic
from crossview.sampler import read_plan, write_plan
from crossview.trainer import AXES, LOSS_KINDS, gradcheck, train

README = Path(__file__).resolve().parent.parent / "README.md"

TINY_SYNTH = [
    "--set", "synth.n_pairs=50",
    "--set", "synth.latent_dim=4",
    "--set", "synth.view_dim=8",
    "--set", "synth.seed=7",
]
TINY_TRAIN = [
    "--set", "train.epochs=2",
    "--set", "train.warmup_epochs=1",
    "--set", "train.hidden_dim=16",
    "--set", "train.embed_dim=4",
    "--set", "sampler.batch_size=8",
    "--set", "sampler.pool_size=6",
    "--set", "sampler.picks_per_anchor=4",
    "--set", "sampler.gps_epochs=1",
    "--set", "sampler.refresh_every=1",
]


def gen_dataset(tmp_path):
    data = tmp_path / "data"
    rc = main(["gen-synth", *TINY_SYNTH, "--out", str(data)])
    assert rc == 0
    return data


class TestGenSynth:
    def test_writes_dataset_files(self, tmp_path):
        data = gen_dataset(tmp_path)
        records = load_manifest(data / "manifest.jsonl")
        assert len(records) == 50
        assert read_embeddings(data / "query.emb").count == 50
        assert read_embeddings(data / "reference.emb").count == 50

    def test_deterministic_bytes(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            assert main(["gen-synth", *TINY_SYNTH, "--out", str(d)]) == 0
        for name in ("manifest.jsonl", "query.emb", "reference.emb"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


    def test_over_budget_pair_count_fails_before_drawing(self, tmp_path, capsys):
        # the estimate refuses 10**12 pairs before any array is drawn
        rc = main(["gen-synth", "--set", "synth.n_pairs=1000000000000",
                   "--out", str(tmp_path / "data")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: synth.n_pairs=1000000000000 ")
        assert "over the budget of 4,294,967,296 bytes" in err
        assert not (tmp_path / "data").exists()

    def test_map_extent_too_large_named(self, tmp_path, capsys):
        rc = main(["gen-synth", *TINY_SYNTH, "--set", "synth.map_extent_m=1e308",
                   "--out", str(tmp_path / "data")])
        assert rc == 1
        assert "synth.map_extent_m=1e+308" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        (["synth.n_pairs=3", "synth.n_semi_positives=3"], "override 2 "
         "('synth.n_semi_positives=3'): synth.n_semi_positives=3 must be < synth.n_pairs=3"),
        (["synth.noise_sigma=1e300"], "override 1 ('synth.noise_sigma=1e300'): bad value "
         "for 'synth.noise_sigma': synth.noise_sigma=1e+300 must be <= 1e+30"),
    ], ids=["semi-positives", "noise"])
    def test_data_rule_names_the_override(self, tmp_path, capsys, overrides, message):
        # refused before anything is drawn, so no numpy warning either
        sets = [arg for override in overrides for arg in ("--set", override)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["gen-synth", *sets, "--out", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("line, message", [
        ("train.beta2=1.0", "train.beta2=1.0 must be < 1"),
        ("train.hidden_dim=0", "train.hidden_dim=0 must be >= 1"),
        ("sampler.batch_size=0", "sampler.batch_size=0 must be >= 1"),
    ])
    def test_out_of_range_setting_names_key_and_value(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{line}\n")
        rc = main(["gen-synth", *TINY_SYNTH, "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert f"c.cfg:1: bad value for '{line.partition('=')[0]}': {message}" in \
            capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestPlan:
    def test_dss_plan_from_embeddings(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "plan.jsonl"
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=dss",
            "--embeddings", str(data / "query.emb"), str(data / "reference.emb"),
            "--manifest", str(data / "manifest.jsonl"),
            "--epoch", "0", "--out", str(out),
        ])
        assert rc == 0
        plan = read_plan(out)
        flat = sorted(i for b in plan.batches for i in b)
        assert flat == list(range(50))

    def test_gps_plan_needs_manifest(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "plan.jsonl"
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=gps",
            "--embeddings", str(data / "query.emb"), str(data / "reference.emb"),
            "--epoch", "0", "--out", str(out),
        ])
        assert rc == 1  # validation error: no coordinates

    @pytest.mark.parametrize("strategy, with_manifest, message", [
        ("dss", True, "DSS planning needs --embeddings Q.emb R.emb"),
        ("random", False, "random planning needs --manifest or --embeddings"),
    ], ids=["dss", "random"])
    def test_plan_without_the_inputs_its_strategy_needs(self, tmp_path, capsys, strategy,
                                                        with_manifest, message):
        data = gen_dataset(tmp_path)
        given = ["--manifest", str(data / "manifest.jsonl")] if with_manifest else []
        rc = main(["plan", *TINY_TRAIN, "--set", f"sampler.strategy={strategy}", *given,
                   "--epoch", "0", "--out", str(tmp_path / "plan.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "plan.jsonl").exists()

    def test_gps_plan_with_manifest(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "plan.jsonl"
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=gps",
            "--manifest", str(data / "manifest.jsonl"),
            "--epoch", "0", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()

    def test_nan_planar_coordinate_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        bad = json.loads(lines[3])
        bad["x"] = float("nan")
        lines[3] = json.dumps(bad)
        manifest.write_text("\n".join(lines) + "\n")
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=gps",
            "--manifest", str(manifest),
            "--epoch", "0", "--out", str(tmp_path / "plan.jsonl"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:4: x=nan must be finite")

    def test_mixed_crs_manifest_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        bad = json.loads(lines[4])
        bad.update(crs="wgs84", lat=bad.pop("y") / 1e3, lon=bad.pop("x") / 1e3)
        lines[4] = json.dumps(bad)
        manifest.write_text("\n".join(lines) + "\n")
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=gps",
            "--manifest", str(manifest),
            "--epoch", "0", "--out", str(tmp_path / "plan.jsonl"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:5: crs 'wgs84' differs from line 1's 'planar'")

    def test_overflowing_planar_distance_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        bad = json.loads(lines[0])
        bad["x"] = 1e200
        lines[0] = json.dumps(bad)
        manifest.write_text("\n".join(lines) + "\n")
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=gps",
            "--manifest", str(manifest),
            "--epoch", "0", "--out", str(tmp_path / "plan.jsonl"),
        ])
        assert rc == 1
        assert "planar distance overflows float64" in capsys.readouterr().err

    def test_earth_radius_too_large_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        manifest = data / "manifest.jsonl"
        lines = []
        for line in manifest.read_text().splitlines():
            obj = json.loads(line)
            obj.update(crs="wgs84", lat=obj.pop("y") / 1e4, lon=obj.pop("x") / 1e4)
            lines.append(json.dumps(obj))
        manifest.write_text("\n".join(lines) + "\n")
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "geo.earth_radius_m=1e308",
            "--set", "sampler.strategy=gps",
            "--manifest", str(manifest),
            "--epoch", "0", "--out", str(tmp_path / "plan.jsonl"),
        ])
        assert rc == 1
        assert "geo.earth_radius_m=1e+308" in capsys.readouterr().err


    @pytest.mark.parametrize("with_manifest", [False, True], ids=["ids", "manifest"])
    def test_dss_misaligned_reference_ids_named(self, tmp_path, capsys, with_manifest):
        data = gen_dataset(tmp_path)
        ref = read_embeddings(data / "reference.emb")
        rolled = tmp_path / "ref_rolled.emb"
        write_embeddings(EmbeddingTable(np.roll(ref.data, 1, axis=0),
                                        ref.row_ids[-1:] + ref.row_ids[:-1]), rolled)
        manifest = ["--manifest", str(data / "manifest.jsonl")] if with_manifest else []
        out = tmp_path / "plan.jsonl"
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=dss",
            "--embeddings", str(data / "query.emb"), str(rolled), *manifest,
            "--epoch", "0", "--out", str(out),
        ])
        assert rc == 1
        assert "reference row 0 ('p000049') does not align with record 'p000000'" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("inputs", ["manifest", "embeddings"])
    def test_random_plan_from_either_input_covers_every_pair(self, tmp_path, inputs):
        data = gen_dataset(tmp_path)
        given = {"manifest": ["--manifest", str(data / "manifest.jsonl")],
                 "embeddings": ["--embeddings", str(data / "query.emb"),
                                str(data / "reference.emb")]}[inputs]
        out = tmp_path / "plan.jsonl"
        rc = main(["plan", *TINY_TRAIN, "--set", "sampler.strategy=random", *given,
                   "--epoch", "0", "--out", str(out)])
        assert rc == 0
        assert sorted(i for b in read_plan(out).batches for i in b) == list(range(50))

    @pytest.mark.parametrize("strategy", ["random", "gps"])
    @pytest.mark.parametrize("spoil", ["junk", "misaligned"])
    def test_every_table_given_is_read_and_aligned(self, tmp_path, capsys, strategy, spoil):
        # random and gps planning draw on no table, yet a bad one is named
        data = gen_dataset(tmp_path)
        bad = tmp_path / "bad.emb"
        if spoil == "junk":
            bad.write_text("not a table\n")
            message = f"error: {bad}: bad magic, not an EMB1 file\n"
        else:
            ref = read_embeddings(data / "reference.emb")
            write_embeddings(EmbeddingTable(ref.data[1:], ref.row_ids[1:]), bad)
            message = "error: 49 reference rows for 50 manifest records\n"
        out = tmp_path / "plan.jsonl"
        capsys.readouterr()
        rc = main(["plan", *TINY_TRAIN, "--set", f"sampler.strategy={strategy}",
                   "--manifest", str(data / "manifest.jsonl"),
                   "--embeddings", str(data / "query.emb"), str(bad),
                   "--epoch", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("with_manifest", [False, True], ids=["ids", "manifest"])
    def test_dss_dim_mismatch_named(self, tmp_path, capsys, with_manifest):
        # used to end in numpy's matmul traceback
        data = gen_dataset(tmp_path)
        for name, dim in (("query.emb", 4), ("reference.emb", 5)):
            table = read_embeddings(data / name)
            write_embeddings(EmbeddingTable(table.data[:, :dim], table.row_ids), data / name)
        manifest = ["--manifest", str(data / "manifest.jsonl")] if with_manifest else []
        out = tmp_path / "plan.jsonl"
        rc = main([
            "plan", *TINY_TRAIN,
            "--set", "sampler.strategy=dss",
            "--embeddings", str(data / "query.emb"), str(data / "reference.emb"), *manifest,
            "--epoch", "0", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: dim mismatch: {data / 'query.emb'} 4 vs "
                                           f"{data / 'reference.emb'} 5\n")
        assert not out.exists()

class TestTrain:
    def test_dim_mismatch_named(self, tmp_path, capsys):
        # the widths are read from both headers, so the files are named
        data = gen_dataset(tmp_path)
        for name, dim in (("query.emb", 4), ("reference.emb", 5)):
            table = read_embeddings(data / name)
            write_embeddings(EmbeddingTable(table.data[:, :dim], table.row_ids), data / name)
        out = tmp_path / "run"
        rc = main(["train", *TINY_TRAIN, "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: dim mismatch: {data / 'query.emb'} 4 vs "
                                           f"{data / 'reference.emb'} 5\n")
        assert not out.exists()

    def test_writes_artifacts(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", *TINY_TRAIN, "--data", str(data), "--out", str(out)])
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert (out / run["history"]).exists()
        assert len(run["plans"]) == 2
        for name in run["plans"]:
            assert (out / name).exists()
        header = json.loads((out / run["params"] / "header.json").read_text())
        assert header["shared_weights"] is True
        history = [json.loads(l) for l in (out / run["history"]).read_text().splitlines()]
        assert [h["epoch"] for h in history] == [0, 1]

    def test_identical_runs_byte_identical(self, tmp_path):
        data = gen_dataset(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", *TINY_TRAIN, "--data", str(data), "--out", str(out)]) == 0
            outs.append(out)
        run1 = json.loads((outs[0] / "run.json").read_text())
        run2 = json.loads((outs[1] / "run.json").read_text())
        assert run1 == run2
        assert (outs[0] / run1["history"]).read_bytes() == (outs[1] / run2["history"]).read_bytes()
        for p1, p2 in zip(run1["plans"], run2["plans"]):
            assert (outs[0] / p1).read_bytes() == (outs[1] / p2).read_bytes()

    def test_plan_files_are_write_plan_bytes(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "run"
        assert main(["train", *TINY_TRAIN, "--data", str(data), "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        bundle = parse_config(None, TINY_TRAIN[1::2])
        result = train(load_manifest(data / "manifest.jsonl"), read_embeddings(data / "query.emb"),
                       read_embeddings(data / "reference.emb"), bundle.train, bundle.geo)
        assert len(run["plans"]) == len(result.plans)
        for name, plan in zip(run["plans"], result.plans):
            write_plan(plan, tmp_path / "expected.jsonl")
            assert (out / name).read_bytes() == (tmp_path / "expected.jsonl").read_bytes()

    # run.json of the tiny recipe, recorded when train still read its inputs
    # a second time to hash them; reading each once must keep every byte
    RUN_JSON = (b'{\n  "dataset_hash": "4ce42b13f9e0",\n  "final": {\n    "epoch": 1,\n'
                b'    "loss": 6.692045230349553,\n    "lr": 0.0,\n    "r1": 0.4\n  },\n'
                b'  "history": "history-7d406673.jsonl",\n  "params": "params-fc820408",\n'
                b'  "plans": [\n    "plan-e000-b16f5ca5.jsonl",\n'
                b'    "plan-e001-bc7ac101.jsonl"\n  ]\n}\n')

    def test_reads_each_input_once(self, tmp_path, monkeypatch):
        data = gen_dataset(tmp_path)
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda path: reads.append(path.name) or read_bytes(path))
        out = tmp_path / "run"
        assert main(["train", *TINY_TRAIN, "--data", str(data), "--out", str(out)]) == 0
        assert sorted(reads) == ["manifest.jsonl", "query.emb", "query.emb.ids",
                                 "reference.emb", "reference.emb.ids"]
        assert (out / "run.json").read_bytes() == self.RUN_JSON

    def test_crlf_manifest_hashes_its_own_bytes(self, tmp_path):
        # the hash is of the bytes on disk, not of the text the reader makes of them
        data = gen_dataset(tmp_path)
        manifest = data / "manifest.jsonl"
        manifest.write_bytes(manifest.read_bytes().replace(b"\n", b"\r\n"))
        out = tmp_path / "run"
        assert main(["train", *TINY_TRAIN, "--data", str(data), "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["dataset_hash"] == "e0092a752166"

    def test_non_finite_setting_rejected_before_training(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", *TINY_TRAIN, "--set", "train.loss_kind=triplet",
                   "--set", "loss.triplet_margin=nan", "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert "loss.triplet_margin" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_hidden_width_named_before_training(self, tmp_path, monkeypatch, capsys):
        data = gen_dataset(tmp_path)
        monkeypatch.setattr("crossview.trainer.init_params", None)  # must not start
        out = tmp_path / "run"
        rc = main(["train", *TINY_TRAIN, "--set", "train.hidden_dim=100000000",
                   "--data", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sampler.batch_size=8 (8 rows per step) with "
                              "train.hidden_dim=100000000, ")
        assert "over the budget of 4,294,967,296 bytes" in err
        assert not out.exists()

    def test_over_budget_dss_refresh_named_before_training(self, tmp_path, monkeypatch, capsys):
        # 30,000 pairs at train.hidden_dim=20000: one step (387 MB) fits, each
        # DSS refresh's encode of the 27,000 training pairs (12.1 GiB) does not
        data = tmp_path / "data"
        assert main(["gen-synth", "--set", "synth.n_pairs=30000", "--set", "synth.latent_dim=4",
                     "--set", "synth.n_semi_positives=0", "--out", str(data)]) == 0
        monkeypatch.setattr("crossview.trainer.init_params", None)  # must not start
        out = tmp_path / "run"
        rc = main(["train", "--set", "train.hidden_dim=20000", "--set", "sampler.strategy=dss",
                   "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert re.fullmatch(r"error: 30000 pairs with train\.hidden_dim=20000: a DSS refresh's "
                            r"encode of 27000 training pairs needs about [\d,]+ bytes, over the "
                            r"budget of 4,294,967,296 bytes\n", capsys.readouterr().err)
        assert not out.exists()

    def test_logit_scale_above_max_rejected_before_training(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", *TINY_TRAIN, "--set", "loss.logit_scale=800",
                   "--set", "sampler.strategy=random", "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert "loss.logit_scale=800.0 exceeds" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_table_shorter_than_its_header_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        (data / "query.emb").write_bytes(b"EMB1\x32\x00\x00")  # 7 of 12 header bytes
        rc = main(["eval", "--query", str(data / "query.emb"), "--ref",
                   str(data / "reference.emb"), "--manifest", str(data / "manifest.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {data / 'query.emb'}: truncated header\n"

    def test_report_written(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "report.json"
        rc = main([
            "eval",
            "--query", str(data / "query.emb"),
            "--ref", str(data / "reference.emb"),
            "--manifest", str(data / "manifest.jsonl"),
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report["recall_at"]) == {"1", "5", "10"}
        assert report["n_queries"] == 50


    def test_zero_width_table_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        (data / "query.emb").write_bytes(b"EMB1" + struct.pack("<II", 50, 0))
        rc = main([
            "eval",
            "--query", str(data / "query.emb"),
            "--ref", str(data / "reference.emb"),
            "--manifest", str(data / "manifest.jsonl"),
        ])
        assert rc == 1
        assert "dim=0" in capsys.readouterr().err

    def test_empty_manifest_named(self, tmp_path, capsys):
        empty = EmbeddingTable(np.zeros((0, 4), dtype=np.float32), ())
        for name in ("query.emb", "reference.emb"):
            write_embeddings(empty, tmp_path / name)
        (tmp_path / "manifest.jsonl").write_text("")
        rc = main([
            "eval",
            "--query", str(tmp_path / "query.emb"),
            "--ref", str(tmp_path / "reference.emb"),
            "--manifest", str(tmp_path / "manifest.jsonl"),
        ])
        assert rc == 1
        assert "the manifest holds no queries" in capsys.readouterr().err

    def test_nan_query_row_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        path = data / "query.emb"
        raw = bytearray(path.read_bytes())
        dim = struct.unpack_from("<II", raw, 4)[1]
        struct.pack_into("<f", raw, 12 + 4 * (3 * dim + 2), float("nan"))
        path.write_bytes(bytes(raw))
        rc = main([
            "eval",
            "--query", str(path),
            "--ref", str(data / "reference.emb"),
            "--manifest", str(data / "manifest.jsonl"),
            "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 1
        assert "'p000003' (index 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        pytest.param([1], "expected a JSON object", id="array"),
        pytest.param({"crs": "planr"}, "crs='planr' must be one of", id="crs"),
        pytest.param({"id": ["p000001"]}, "id=['p000001'] must be a JSON string", id="id"),
        pytest.param({"class_id": True}, "class_id=True must be a JSON string", id="class_id"),
        pytest.param({"x": True}, "x=True must be a float or an int", id="x-bool"),
        pytest.param({"x": 10**400}, "x=1" + "0" * 400 + " must be finite", id="x-huge"),
    ])
    def test_malformed_manifest_line_named(self, tmp_path, capsys, change, message):
        data = gen_dataset(tmp_path)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), **change} if type(change) is dict else change)
        manifest.write_text("\n".join(lines) + "\n")
        rc = main([
            "eval",
            "--query", str(data / "query.emb"),
            "--ref", str(data / "reference.emb"),
            "--manifest", str(manifest),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}:2: {message}")

    def test_dim_mismatch_named(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        for name, dim in (("query.emb", 4), ("reference.emb", 5)):
            table = read_embeddings(data / name)
            write_embeddings(EmbeddingTable(table.data[:, :dim], table.row_ids), data / name)
        rc = main([
            "eval",
            "--query", str(data / "query.emb"),
            "--ref", str(data / "reference.emb"),
            "--manifest", str(data / "manifest.jsonl"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: dim mismatch: {data / 'query.emb'} 4 vs "
                                           f"{data / 'reference.emb'} 5\n")


@pytest.mark.parametrize("command", ["eval", "plan", "train"])
@pytest.mark.parametrize("huge", ["query.emb", "reference.emb"])
def test_over_budget_table_named_from_its_header(tmp_path, monkeypatch, capsys, command, huge):
    # a header alone that claims 10**9 rows of dim 2 (no payload): refused
    # from its 12 bytes, on the budget and not the payload size, before any
    # table is read
    data = gen_dataset(tmp_path)
    (data / huge).write_bytes(b"EMB1" + struct.pack("<II", 10**9, 2))
    monkeypatch.setattr(cli, "read_embeddings", None)  # must not start
    tables = [str(data / "query.emb"), str(data / "reference.emb")]
    argv = {"eval": ["eval", "--query", tables[0], "--ref", tables[1],
                     "--manifest", str(data / "manifest.jsonl")],
            "plan": ["plan", "--set", "sampler.strategy=random", "--embeddings", *tables,
                     "--epoch", "0", "--out", str(tmp_path / "plan.jsonl")],
            "train": ["train", "--data", str(data), "--out", str(tmp_path / "run")]}[command]
    assert main(argv) == 1
    assert re.fullmatch(rf"error: {re.escape(str(data / huge))}: scoring 1000000000 rows of dim 2 "
                        r"needs about [\d,]+ bytes, over the budget of 4,294,967,296 bytes\n",
                        capsys.readouterr().err)


class TestGradcheck:
    def test_passes_at_default_tolerance(self, tmp_path):
        rc = main([
            "gradcheck",
            "--set", "synth.view_dim=8",
            "--set", "train.hidden_dim=16",
            "--set", "train.embed_dim=4",
            "--n", "4", "--inits", "2",
        ])
        assert rc == 0

    @pytest.mark.parametrize("shared", ["true", "false"])
    def test_report_names_every_tensor(self, capsys, shared):
        rc = main([
            "gradcheck",
            "--set", "synth.view_dim=4",
            "--set", "train.hidden_dim=6",
            "--set", "train.embed_dim=3",
            "--set", f"train.shared_weights={shared}",
            "--n", "3",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        keys = ["logit_scale", "max", "q.W1", "q.W2", "q.b1", "q.b2"]
        if shared == "false":
            keys += ["r.W1", "r.W2", "r.b1", "r.b2"]
        assert list(report) == keys
        assert report["max"] == max(v for k, v in report.items() if k != "max") <= 1e-6

    def test_fails_below_the_rounding_error(self, capsys):
        rc = main(["gradcheck", "--set", "synth.view_dim=4", "--set", "train.hidden_dim=6",
                   "--set", "train.embed_dim=3", "--n", "3", "--tol", "1e-300"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("gradient check FAILED: ")

    def test_train_seed_seeds_each_init(self, capsys):
        # init i draws from train.seed + i
        widths = ["--set", "synth.view_dim=4", "--set", "train.hidden_dim=6",
                  "--set", "train.embed_dim=3"]
        reports = []
        for seed in (0, 7):
            assert main(["gradcheck", *widths, "--set", f"train.seed={seed}", "--n", "3",
                         "--inits", "2"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] != reports[1]
        cfg = parse_config(None, widths[1::2]).train
        worst = [gradcheck(cfg, n=3, d_in=4, seed=seed) for seed in (7, 8)]
        assert reports[1] == {key: max(r[key] for r in worst) for key in worst[0]}

    def test_over_budget_pair_count_named_before_drawing(self, monkeypatch, capsys):
        monkeypatch.setattr("crossview.trainer.init_params", None)  # must not start
        assert main(["gradcheck", "--n", "20000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gradcheck n=20000 (20000 rows per step) with ")
        assert "over the budget of 4,294,967,296 bytes" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
    def test_tolerance_that_cannot_fail_rejected(self, monkeypatch, capsys, tol):
        # worst > nan and worst > inf are never true: such a check always passes
        monkeypatch.setattr("crossview.cli.gradcheck", None)  # must not start
        assert main(["gradcheck", f"--tol={tol}"]) == 1
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol, message", [
        pytest.param(tol, message, id=tol) for tol, message in [
            ("-1e-6", "--tol=-1e-06 must be > 0"),
            ("-1E+3", "--tol=-1000.0 must be > 0"),
            ("-.5e-2", "--tol=-0.005 must be > 0"),
            ("-2.", "--tol=-2.0 must be > 0"),
            ("-inf", "--tol=-inf must be finite"),
            ("-nan", "--tol=nan must be finite"),
        ]])
    def test_negative_tolerance_as_its_own_argument_reaches_the_range_check(
            self, monkeypatch, capsys, tol, message):
        # argparse alone takes "-1e-6" for an unknown option and exits 2
        monkeypatch.setattr("crossview.cli.gradcheck", None)
        assert main(["gradcheck", "--tol", tol]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err


class TestAblate:
    def test_four_rows_shared_dataset(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["ablate", *TINY_SYNTH, *TINY_TRAIN, "--seeds", "1", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["strategy"] for r in rows] == ["random", "gps", "dss", "gps_then_dss"]
        assert len({r["dataset_hash"] for r in rows}) == 1
        detail = json.loads(out.with_suffix(".json").read_text())
        assert len(detail["runs"]) == 4

    def test_dataset_hash_is_trains(self, tmp_path):
        # both hash the files gen-synth writes: manifest, query and reference
        data, run = gen_dataset(tmp_path), tmp_path / "run"
        assert main(["train", *TINY_TRAIN, "--data", str(data), "--out", str(run)]) == 0
        trained = json.loads((run / "run.json").read_text())["dataset_hash"]
        out = tmp_path / "table.csv"
        assert main(["ablate", "--axis", "loss", *TINY_SYNTH, *TINY_TRAIN, "--seeds", "1",
                     "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            assert {row["dataset_hash"] for row in csv.DictReader(fh)} == {trained}
        assert json.loads(out.with_suffix(".json").read_text())["dataset_hash"] == trained

    def test_missing_out_directory_created(self, tmp_path):
        out = tmp_path / "results" / "desk" / "table.csv"
        rc = main(["ablate", *TINY_SYNTH, *TINY_TRAIN, "--seeds", "1", "--out", str(out)])
        assert rc == 0
        assert out.exists() and out.with_suffix(".json").exists()

    def test_loss_axis_reports_every_kind(self, tmp_path, capsys):
        # one stdout line, CSV row and JSON run per loss kind, in order
        out = tmp_path / "loss.csv"
        rc = main(["ablate", "--axis", "loss", *TINY_SYNTH, *TINY_TRAIN,
                   "--seeds", "1", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        for kind in LOSS_KINDS:
            assert kind in stdout
        with out.open(newline="") as fh:
            assert [row["loss"] for row in csv.DictReader(fh)] == list(LOSS_KINDS)
        runs = json.loads(out.with_suffix(".json").read_text())["runs"]
        assert [run["loss"] for run in runs] == list(LOSS_KINDS)

    def test_loss_axis_keeps_config_fields(self, tmp_path):
        # fields the axis does not vary reach train() as the config set them,
        # and each run's R@1 is its last epoch's; 200 pairs hold out 20, enough
        # for dropping any one kept field to move some loss's R@1
        base = [*TINY_SYNTH, "--set", "synth.n_pairs=200", *TINY_TRAIN]
        kept = ["train.shared_weights=false", "train.weight_decay=5.0", "sampler.strategy=gps"]
        out = tmp_path / "loss.csv"
        rc = main(["ablate", "--axis", "loss", *base, *(a for f in kept for a in ("--set", f)),
                   "--seeds", "1", "--out", str(out)])
        assert rc == 0
        runs = json.loads(out.with_suffix(".json").read_text())["runs"]
        assert [run["loss"] for run in runs] == list(LOSS_KINDS)

        def finals(fields):
            bundle = parse_config(None, [*base[1::2], *fields])
            data = generate_synthetic(bundle.synth)
            return [train(*data, replace(bundle.train, loss_kind=kind), bundle.geo)
                    .history[-1]["r1"] for kind in LOSS_KINDS]

        want = finals(kept)
        assert [run["r_at_1"] for run in runs] == want
        for field in kept:  # a run that dropped this field would show
            assert finals([f for f in kept if f != field]) != want

    @pytest.mark.parametrize("axis", AXES)
    def test_each_run_labelled_by_its_value_and_seed_offset(self, tmp_path, axis):
        # each JSON run reports the training of the config its labels name:
        # the axis value, at train.seed and sampler.seed shifted by its seed;
        # 200 pairs hold out 20, enough for the seed offset to move R@1
        overrides = [*TINY_SYNTH, "--set", "synth.n_pairs=200", *TINY_TRAIN]
        out = tmp_path / "table.csv"
        assert main(["ablate", "--axis", axis, *overrides, "--seeds", "2",
                     "--out", str(out)]) == 0
        runs = json.loads(out.with_suffix(".json").read_text())["runs"]
        assert [(run[axis], run["seed"]) for run in runs] == [
            (value, seed) for value in AXES[axis] for seed in (0, 1)]
        bundle = parse_config(None, overrides[1::2])
        data = generate_synthetic(bundle.synth)
        finals = {}
        for run in runs:
            base, s = bundle.train, run["seed"]
            cfg = replace(base, seed=base.seed + s,
                          sampler=replace(base.sampler, seed=base.sampler.seed + s))
            cfg = (replace(cfg, loss_kind=run[axis]) if axis == "loss"
                   else replace(cfg, sampler=replace(cfg.sampler, strategy=run[axis])))
            finals[run[axis], s] = train(*data, cfg, bundle.geo).history[-1]["r1"]
            assert run["r_at_1"] == finals[run[axis], s]
        # a swapped seed label would show: the offset moves some value's R@1
        assert any(finals[value, 0] != finals[value, 1] for value in AXES[axis])

    def test_no_semi_positives_prints_na(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = main(["ablate", *TINY_SYNTH, *TINY_TRAIN, "--set", "synth.n_semi_positives=0",
                   "--seeds", "1", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.count("hit_rate=n/a") == 4
        with out.open(newline="") as fh:
            assert [row["hit_rate"] for row in csv.DictReader(fh)] == [""] * 4


def test_readme_commands_parse():
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.startswith("crossview ")]
    assert len(commands) >= 7
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sampler.warp_drive=on\n")
        rc = main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 1

    def test_io_error_is_two(self, tmp_path):
        rc = main([
            "eval",
            "--query", str(tmp_path / "missing.emb"),
            "--ref", str(tmp_path / "missing.emb"),
            "--manifest", str(tmp_path / "missing.jsonl"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command, strategy, pairs", [
        ("plan", "gps", 20),    # geo pools over the manifest's records
        ("plan", "dss", 20),    # visual pools over the reference rows
        ("train", "gps", 18),   # geo pools over the training pairs
    ])
    def test_pool_size_above_the_pairs_named(self, tmp_path, capsys, command, strategy, pairs):
        data = tmp_path / "data"
        rc = main(["gen-synth", *TINY_SYNTH, "--set", "synth.n_pairs=20", "--out", str(data)])
        assert rc == 0
        inputs = {"train": ["--data", str(data), "--out", str(tmp_path / "run")],
                  "plan": ["--epoch", "0", "--out", str(tmp_path / "plan.jsonl"),
                           "--manifest", str(data / "manifest.jsonl"), "--embeddings",
                           str(data / "query.emb"), str(data / "reference.emb")]}
        capsys.readouterr()
        rc = main([command, "--set", f"sampler.strategy={strategy}", *inputs[command]])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: sampler.pool_size=128 must be in "
                                           f"[1, {pairs - 1}] for {pairs} candidates\n")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["ablate", "--seeds", "0", "--out", "unused.csv"],
                     "--seeds=0 must be >= 1", id="argv0---seeds"),
        pytest.param(["gradcheck", "--inits", "0"], "--inits=0 must be >= 1", id="argv1---inits"),
        pytest.param(["gradcheck", "--n", "1"], "--n=1 must be >= 2", id="argv2---n"),
    ])
    def test_count_below_minimum_named(self, monkeypatch, capsys, argv, message):
        for work in ("generate_synthetic", "gradcheck"):  # must not start
            monkeypatch.setattr(f"crossview.cli.{work}", None)
        assert main(argv) == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(cli._OPTIONS))
    def test_nearest_value_outside_each_option_range_named(self, monkeypatch, capsys, name):
        f = cli._OPTIONS[name]
        (rule, bound), = f.metadata.items()
        value = type(f.default)(bound - 1 if rule == "ge" else bound)
        command = {"epoch": ["plan", "--out", "unused.jsonl"],
                   "seeds": ["ablate", "--out", "unused.csv"]}.get(name, ["gradcheck"])
        for body in ("cmd_plan", "cmd_gradcheck", "cmd_ablate"):  # must not start
            monkeypatch.setattr(cli, body, None)
        assert main([*command, f"--{name}={value}"]) == 1
        assert f"error: --{name}={value!r} must be {'>=' if rule == 'ge' else '>'} {bound}\n" \
            in capsys.readouterr().err

    def test_every_numeric_option_is_declared(self):
        # an int or float option outside _OPTIONS would skip the range check in main
        sub, = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        numeric = {(a.option_strings[0], a.type, a.default)
                   for p in sub.choices.values() for a in p._actions if a.type in (int, float)}
        assert numeric == {(f"--{name}", type(f.default), f.default)
                           for name, f in cli._OPTIONS.items()}

    @pytest.mark.parametrize("command, key", [
        (["gen-synth", "--set", "synth.seed=-1"], "synth.seed"),
        (["plan", "--set", "sampler.seed=-2", "--epoch", "0"], "sampler.seed"),
        (["train", "--set", "train.seed=-1"], "train.seed"),
        (["plan", "--epoch", "-1"], "--epoch"),
        (["gradcheck", "--set", "train.seed=-1"], "train.seed"),
    ])
    def test_negative_seed_or_epoch_named(self, tmp_path, capsys, command, key):
        data = gen_dataset(tmp_path)
        paths = {"gen-synth": ["--out", str(tmp_path / "d")],
                 "plan": ["--manifest", str(data / "manifest.jsonl"),
                          "--out", str(tmp_path / "plan.jsonl")],
                 "train": ["--data", str(data), "--out", str(tmp_path / "run")],
                 "gradcheck": []}[command[0]]
        capsys.readouterr()
        assert main([*command, *paths]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, prefix", [
        (["ablate", "--seed", "3", "--out", "unused.csv"], "--seed"),  # not --seeds
        (["gradcheck", "--init", "2"], "--init"),  # not --inits
        (["gradcheck", "--seed", "3"], "--seed"),  # train.seed seeds gradcheck
    ])
    def test_option_prefix_rejected(self, monkeypatch, capsys, argv, prefix):
        for work in ("generate_synthetic", "gradcheck"):  # must not start
            monkeypatch.setattr(f"crossview.cli.{work}", None)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err
