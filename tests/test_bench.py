"""The benchmark wraps and checks library functions by name; a refactor that
drops or renames one, or changes what it returns, breaks ``bench/run.py``.
Catch it here."""

import ast
import hashlib
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

import oracles
from crossview import datasets, evaluation, sampler, trainer
from crossview.datasets import Coordinate, EmbeddingTable, SynthConfig, generate_synthetic
from crossview.geo import geo_topk
from crossview.simsearch import l2_normalize, visual_topk

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracer = load_bench("tracer")
    bindings = [b for group in tracer.LAYERS.values() for b in group]
    bindings += list(tracer.MARKERS.values())
    missing = [
        f"{mod}.{attr}" for mod, attr in bindings
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, f"bench/tracer.py wraps names the library no longer has: {missing}"


LIBRARY_MODULES = ("config", "datasets", "evaluation", "sampler", "simsearch", "trainer")


def test_bench_reads_only_library_names_that_exist():
    # harness.py and gate.py call the library as module.name, e.g. sampler.plan_epoch
    used = set()
    for name in ("harness", "gate"):
        for node in ast.walk(ast.parse((BENCH / f"{name}.py").read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in LIBRARY_MODULES):
                used.add((node.value.id, node.attr))
    assert len(used) >= 18  # a walk that finds nothing would pass vacuously
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(importlib.import_module(f"crossview.{mod}"), attr))
    assert not missing, f"bench/ reads names the library no longer has: {missing}"


def test_gate_digests_accept_a_train_result():
    gate = load_bench("gate")
    records, queries, references = generate_synthetic(SynthConfig(n_pairs=40, view_dim=6, seed=2))
    cfg = trainer.TrainConfig(epochs=2, hidden_dim=5, embed_dim=3, sampler=sampler.SamplerConfig(
        batch_size=8, pool_size=4, picks_per_anchor=2, strategy="gps_then_dss", gps_epochs=1))
    result = trainer.train(records, queries, references, cfg)
    for digest in (gate.digest_params(result), gate.digest_history(result.history),
                   gate.digest_plans(result.plans)):
        assert isinstance(digest, str) and len(digest) == 16


def test_gate_accepts_pools():
    gate = load_bench("gate")
    records, queries, references = generate_synthetic(SynthConfig(n_pairs=300, seed=4))
    coords = [r.coord for r in records]
    queries, references = l2_normalize(queries), l2_normalize(references)
    rng = np.random.default_rng(0)
    gate.check_pools("geo.topk", (coords, coords, 16), geo_topk(coords, coords, 16), rng)
    gate.check_pools("simsearch.topk", (queries, references, 16),
                     visual_topk(queries, references, 16), rng)


def test_gate_passes_the_library_call_path(tmp_path):
    # the gate's checks on what the library itself hands them, as the harness
    # calls it: a manifest read back from disk, pools built by the sampler
    # under the top-K wrappers, both epochs' plans, and a report of the first
    # 80% of the queries
    gate, tracer = load_bench("gate"), load_bench("tracer")
    generated = generate_synthetic(SynthConfig(n_pairs=300, seed=4))
    records, queries, references = generated
    datasets.write_manifest(records, tmp_path / "manifest.jsonl")
    datasets.write_embeddings(queries, tmp_path / "query.emb")
    datasets.write_embeddings(references, tmp_path / "reference.emb")
    loaded = (datasets.load_manifest(tmp_path / "manifest.jsonl"),
              datasets.read_embeddings(tmp_path / "query.emb"),
              datasets.read_embeddings(tmp_path / "reference.emb"))
    gate.check_roundtrip(generated, loaded)
    records, queries, references = loaded
    gate.check_nearest_row_matches_oracle([r.coord for r in records])

    cfg = sampler.SamplerConfig(batch_size=16, pool_size=16, picks_per_anchor=8,
                                strategy="gps_then_dss", gps_epochs=1)
    rng = np.random.default_rng(0)
    recorder, watch = tracer.Recorder("untraced"), gate.PoolWatch(check_rows=True, rng=rng)
    recorder.on_topk = watch.observe
    with recorder.installed():
        pools = [sampler.build_geo_pools(records, cfg),
                 sampler.build_sim_pools(l2_normalize(queries), l2_normalize(references), cfg)]
    assert watch.error is None
    assert watch.digest() != gate.PoolWatch(check_rows=False, rng=None).digest()  # it saw pools
    plans = [sampler.plan_epoch(records, p, cfg, epoch, sampler.plan_rng(cfg, epoch))
             for epoch, p in enumerate(pools)]
    gate.check_plans(plans, records, cfg, (0, 1))

    n_q = math.ceil(0.8 * len(records))
    held = (EmbeddingTable(queries.data[:n_q], queries.row_ids[:n_q]), references, records[:n_q])
    gate.check_report(evaluation.evaluate(*held), *held)
    gate.check_against_oracles(*held, rng)


def _digest_of(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _oracle_lines(keys, k, kind, score):
    indices, nearest = oracles.brute_nearest_keys(keys, k)
    return [f"{i} {kind} {tuple(row)} {[score(key).hex() for key in row_keys]}"
            for i, (row, row_keys) in enumerate(zip(indices, nearest))]


def test_pool_digest_reads_plain_python_values():
    # the recorded train.pools / mine.pools digests hash this text; a numpy
    # repr of a row ("[1 2 3]", "np.int64(1)") would change every one of them
    gate = load_bench("gate")
    n, k = 300, 16
    rng = np.random.default_rng(11)
    xy = rng.integers(0, 40, size=(n, 2)).tolist()  # integer grid: exact distance ties
    coords = [Coordinate(float(x), float(y), "planar") for x, y in xy]
    dist = [[math.sqrt((xa - xb) * (xa - xb) + (ya - yb) * (ya - yb)) for xb, yb in xy]
            for xa, ya in xy]
    watch = gate.PoolWatch(check_rows=False, rng=None)
    watch.observe("geo.topk", (coords, coords, k), geo_topk(coords, coords, k))
    assert watch.digest() == _digest_of(_oracle_lines(dist, k, "geographic", float))

    # entries in {-2, -1, 1, 2}: every dot product is an exact integer in any order
    q = rng.choice([-2, -1, 1, 2], size=(n, 6)).tolist()
    r = rng.choice([-2, -1, 1, 2], size=(n, 6)).tolist()
    neg_sims = [[-float(sum(a * b for a, b in zip(qi, rj))) for rj in r] for qi in q]
    ids = tuple(str(i) for i in range(n))
    queries = EmbeddingTable(np.array(q, dtype=np.float32), ids)
    references = EmbeddingTable(np.array(r, dtype=np.float32), ids)
    watch = gate.PoolWatch(check_rows=False, rng=None)
    watch.observe("simsearch.topk", (queries, references, k), visual_topk(queries, references, k))
    assert watch.digest() == _digest_of(_oracle_lines(neg_sims, k, "visual", lambda x: -x))


def test_traced_plan_counts_picks():
    # the "picks" marker reads pool.anchor_index from pick_from_pool's first argument
    tracer = load_bench("tracer")
    records, _, _ = generate_synthetic(SynthConfig(n_pairs=300, seed=4))
    cfg = sampler.SamplerConfig(batch_size=16, pool_size=16, picks_per_anchor=8, strategy="gps")
    recorder = tracer.Recorder("trace")
    with recorder.installed():
        pools = sampler.build_geo_pools(records, cfg)
        sampler.plan_epoch(records, pools, cfg, 0, sampler.plan_rng(cfg, 0))
    assert recorder.counters["sampler.plan_calls"] == 1
    assert recorder.counters["sampler.picks_offered"] > 0


def test_traced_train_counts_one_step_per_batch():
    # the step markers (lr_at, clamp_logit_scale) and the info_nce span must
    # each fire once per planned batch
    tracer = load_bench("tracer")
    records, queries, references = generate_synthetic(SynthConfig(n_pairs=40, view_dim=6, seed=2))
    cfg = trainer.TrainConfig(epochs=3, hidden_dim=5, embed_dim=3, sampler=sampler.SamplerConfig(
        batch_size=8, pool_size=4, picks_per_anchor=2, strategy="gps_then_dss", gps_epochs=1))
    recorder = tracer.Recorder("trace")
    with recorder.installed():
        result = trainer.train(records, queries, references, cfg)
    batches = sum(len(plan.batches) for plan in result.plans)
    assert batches > 0
    assert len(recorder.step_ms) == recorder.counters["losses.info_nce_calls"] == batches
