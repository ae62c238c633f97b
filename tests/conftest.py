import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None, suppress_health_check=(HealthCheck.too_slow,)
)
settings.load_profile("default")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python():
    """``fresh_python(code)`` runs ``python -c code`` in a new interpreter
    that imports crossview from this checkout's ``src``; a non-zero exit
    fails the test."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return lambda code: subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.fixture(autouse=True)
def numpy_state_kept():
    """Fails a test that leaves numpy's ufunc buffer size or error state
    changed, then restores both, so no kernel passes its scoped buffer
    (``neighbors.small_buffer``) on to its callers unseen."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    if after != before:
        np.setbufsize(before[0])
        np.seterr(**before[1])
        pytest.fail(f"numpy (buffer size, error state) left at {after}, was {before}")
