"""Benchmark of the crossview library: set-up, train, plan and eval, timed.

Run from the repository root:

    python3 bench/run.py --workload train-dss --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the details (environment, sample counts, failures).
Spans of a traced run go to ``.bench_out/``. Exit code 0 when every
output passed the correctness gate, 1 when one did not, 2 when the run
was refused (missing sources, more BLAS threads than CPUs). See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# the keys of harness.WORKLOADS, known here before numpy is imported
WORKLOAD_NAMES = ("train-dss", "train-random", "retrieve-5k")
BLAS_THREADS = 1  # the benchmark is one single-threaded process
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure this long after set-up (at least one iteration)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="corrupt each phase's first output; the gate must count failures")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's digests and counters in bench/digests.json "
                        "(only at seed 0 and only when every check passed)")
    return p.parse_args(argv)


def refuse(message: str) -> int:
    print(f"bench: refused: {message}", file=sys.stderr)
    return 2


def openblas_info() -> dict:
    """Name, core and live thread count of the OpenBLAS that numpy loaded."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "core": None, "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if threads is not None:
                corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                corename.restype = ctypes.c_char_p
                info.update(core=corename().decode(), threads=int(threads()))
                return info
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    needed = [ROOT / "src" / "crossview", ROOT / "configs" / "ablate.cfg",
              ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        return refuse(f"run from a crossview checkout; missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    start = time.perf_counter()
    import crossview  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - start

    blas = openblas_info()
    blas["pinned"] = BLAS_THREADS
    if blas["threads"] is not None and blas["threads"] > nproc:
        return refuse(f"BLAS reports {blas['threads']} threads, nproc is {nproc}")

    import harness

    result, detail = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s,
        harness.environment(blas), ROOT, BENCH_DIR,
        self_test=args.self_test, record=args.record_digests)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
