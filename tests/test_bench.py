"""The benchmark tracer wraps library functions by name; a refactor that
drops or renames one breaks ``bench/run.py --trace 1``. Catch it here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracer = load_tracer()
    bindings = [b for group in tracer.LAYERS.values() for b in group]
    bindings += list(tracer.MARKERS.values())
    missing = [
        f"{mod}.{attr}" for mod, attr in bindings
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, f"bench/tracer.py wraps names the library no longer has: {missing}"
