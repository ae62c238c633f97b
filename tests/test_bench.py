"""The benchmark wraps and checks library functions by name; a refactor that
drops or renames one, or changes what it returns, breaks ``bench/run.py``.
Catch it here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from crossview.datasets import SynthConfig, generate_synthetic
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


def test_gate_accepts_pools():
    gate = load_bench("gate")
    records, queries, references = generate_synthetic(SynthConfig(n_pairs=300, seed=4))
    coords = [r.coord for r in records]
    queries, references = l2_normalize(queries), l2_normalize(references)
    rng = np.random.default_rng(0)
    gate.check_pools("geo.topk", (coords, coords, 16), geo_topk(coords, coords, 16), rng)
    gate.check_pools("simsearch.topk", (queries, references, 16),
                     visual_topk(queries, references, 16), rng)
