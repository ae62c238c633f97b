"""Workloads, timed phases and result assembly for ``bench/run.py``.

Every workload runs the same pipeline through the public library calls the
CLI uses: set-up (``gen-synth`` plus an EMB1/manifest write and read-back),
``train``, ``plan`` (mining pools and planning over the whole set with the
trained encoder's embeddings) and ``eval`` (the first 80% of pairs as
queries against every reference, so the rest are distractors). Workloads
differ in size and sampling strategy; see README.md beside this file.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import gate
from crossview import config, datasets, evaluation, sampler, simsearch, trainer
from crossview.datasets import EmbeddingTable
from tracer import Recorder, wrapper_cost

SETUP_REPEATS = 3  # set-ups per run; setup_s reports their median
MIN_PHASE_S = 1.0  # a cheaper phase is repeated within an iteration until this much time
PHASES = ("setup", "train", "mine", "eval")
QUERY_SHARE = 0.8
DIGEST_SEED = 0

# Timings are scaled to a reference host speed: each sample is multiplied by
# CAL_REF_S / (mean of the host_seconds() readings just before and just after
# it). On a shared machine the speed of one core drifts by tens of percent
# within minutes; the ratio cancels most of that drift. CAL_REF_S is
# host_seconds() on the idle baseline host (README), so there a scaled time
# reads as wall seconds.
CAL_REF_S = 0.0220
CAL_EVERY_S = 0.25  # short samples share one pair of readings until this much time
_CAL = np.random.default_rng(20230321)
_CAL_SORT = _CAL.standard_normal((96, 2000))
_CAL_A, _CAL_B = _CAL.standard_normal((17, 64)), _CAL.standard_normal((64, 64))


def host_seconds() -> float:
    """Median of three timings of a fixed mix of interpreter, small-matrix
    and sorting work: the host's current speed, independent of crossview."""
    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(45000):
            acc += i % 7
        np.argsort(_CAL_SORT, axis=1, kind="stable")
        for _ in range(900):
            np.tanh(_CAL_A @ _CAL_B).sum()
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(3))


@dataclass(frozen=True)
class Workload:
    pairs: int
    epochs: int
    train_strategy: str
    mine_strategy: str


# Why each workload exists: README.md beside this file and BENCHMARK.json.
WORKLOADS = {
    "train-dss": Workload(2000, 28, "gps_then_dss", "gps_then_dss"),
    "train-random": Workload(2000, 28, "random", "random"),
    "retrieve-5k": Workload(5000, 2, "random", "gps_then_dss"),
}


# -- phases -----------------------------------------------------------------


@dataclass
class Data:
    records: list
    queries: EmbeddingTable
    references: EmbeddingTable


def setup(bundle, workdir: Path, rec: Recorder) -> tuple[Data, tuple]:
    with rec.span("datasets.generate"):
        generated = datasets.generate_synthetic(bundle.synth)
    with rec.span("datasets.io"):
        records, queries, references = generated
        datasets.write_manifest(records, workdir / "manifest.jsonl")
        datasets.write_embeddings(queries, workdir / "query.emb")
        datasets.write_embeddings(references, workdir / "reference.emb")
        loaded = (datasets.load_manifest(workdir / "manifest.jsonl"),
                  datasets.read_embeddings(workdir / "query.emb"),
                  datasets.read_embeddings(workdir / "reference.emb"))
    return Data(*loaded), (generated, loaded)


def train(bundle, data: Data):
    return trainer.train(data.records, data.queries, data.references, bundle.train, bundle.geo)


def embed(result, data: Data) -> tuple[EmbeddingTable, EmbeddingTable]:
    """The trained encoder's embeddings of every pair (untimed glue)."""
    ids = data.queries.row_ids
    return (trainer.encode(result.params, data.queries.data, "query", ids),
            trainer.encode(result.params, data.references.data, "reference", ids))


def mine_epochs(scfg) -> tuple[int, ...]:
    return (0, scfg.gps_epochs) if scfg.strategy == "gps_then_dss" else (0, 1)


def mine(records, q_emb, r_emb, scfg, geo_cfg):
    """The work behind ``crossview plan`` for the first epoch of each phase."""
    plans = []
    for epoch in mine_epochs(scfg):
        strategy = sampler.resolve_strategy(scfg, epoch)
        if strategy == "gps":
            pools = sampler.build_geo_pools(records, scfg, geo_cfg)
        elif strategy == "dss":
            pools = sampler.build_sim_pools(
                simsearch.l2_normalize(q_emb), simsearch.l2_normalize(r_emb), scfg)
        else:
            pools = None
        plans.append(sampler.plan_epoch(records, pools, scfg, epoch,
                                        sampler.plan_rng(scfg, epoch)))
    return plans


def eval_inputs(q_emb, r_emb, records):
    n_q = math.ceil(QUERY_SHARE * len(records))
    return EmbeddingTable(q_emb.data[:n_q], q_emb.row_ids[:n_q]), r_emb, records[:n_q]


def run_eval(queries, references, records):
    return evaluation.evaluate(queries, references, records)


# -- the run ------------------------------------------------------------------


def sample_key(phase: str, rec: Recorder) -> str:
    """``train_s`` for untraced samples, ``trace.train_s`` or ``memory.train_s``
    for samples taken under the other recorders."""
    return f"{phase}_s" if rec.mode == "untraced" else f"{rec.mode}.{phase}_s"


class Run:
    """Times phases, gates their outputs and counts attempts and failures."""

    def __init__(self, name: str, seed: int, self_test: bool, root: Path):
        self.name, self.wl, self.seed = name, WORKLOADS[name], seed
        self.self_test = self_test
        overrides = [f"synth.n_pairs={self.wl.pairs}", f"synth.seed={seed}",
                     f"train.epochs={self.wl.epochs}",
                     f"sampler.strategy={self.wl.train_strategy}"]
        self.bundle = config.parse_config(root / "configs" / "ablate.cfg", overrides)
        self.mine_cfg = replace(self.bundle.sampler, strategy=self.wl.mine_strategy)
        self.rng = np.random.default_rng([seed, 7])
        self.min_phase_s = MIN_PHASE_S
        self.samples: dict[str, list[float]] = {}  # scaled to the reference host
        self.wall: dict[str, list[float]] = {}  # wall seconds
        self.cal: list[float] = []  # every host_seconds() reading
        self._pending: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed: set[int] = set()  # ids of the operations that failed
        self.failures: list[str] = []
        self.raised = False
        self.digests: dict[str, str] = {}
        self.gated: set[str] = set()  # phases whose first output was gated

    def fail(self, message: str) -> None:
        """Count the latest operation as failed."""
        self.failures.append(message)
        self.failed.add(self.attempted)

    def timed(self, phase: str, rec: Recorder, fn):
        """Run fn once inside ``rec``'s wrappers; None if it raised. The time
        the gate spends on top-K results during the call is not counted."""
        self.attempted += 1
        key = sample_key(phase, rec)
        try:
            with rec.installed(), rec.span(f"phase.{phase}"):
                start = rec.now()
                out = fn()
                elapsed = rec.now() - start
        except Exception as exc:  # any raise is a failed operation
            self.fail(f"{phase}: raised {type(exc).__name__}: {exc}")
            self.raised = True
            return None
        self.wall.setdefault(key, []).append(elapsed)
        self._pending.append((key, elapsed))
        return out

    def flush(self) -> None:
        """Scale the samples taken since the last reading by the mean of that
        reading and a new one."""
        if not self._pending:
            return
        before = self.cal[-1]
        self.cal.append(host_seconds())
        factor = CAL_REF_S / ((before + self.cal[-1]) / 2.0)
        for key, elapsed in self._pending:
            self.samples.setdefault(key, []).append(elapsed * factor)
        self._pending = []

    def check(self, phase: str, fn, *args) -> bool:
        try:
            fn(*args)
        except gate.GateError as exc:
            self.fail(f"{phase}: {exc}")
            return False
        return True

    def first_or_same(self, key: str, digest: str) -> None:
        """Later outputs of a phase must repeat the first one exactly."""
        if self.digests.setdefault(key, digest) != digest:
            self.fail(f"{key}: output differs from the first run of this phase")

    def corrupt(self, obj):
        """Self-test: damage an output so that the gate must reject it."""
        if not self.self_test:
            return obj
        if isinstance(obj, list):  # plans: move one pair into a second batch
            plan = obj[0]
            batches = list(plan.batches)
            batches[1] = batches[1] + (batches[0][0],)
            return [replace(plan, batches=tuple(batches))] + obj[1:]
        if isinstance(obj, evaluation.RetrievalReport):
            recall = dict(obj.recall_at)
            recall[1] += 1.0 / obj.n_queries
            return replace(obj, recall_at=recall)
        return replace(obj, plans=self.corrupt(obj.plans))  # a TrainResult

    # -- phases with their gates ----------------------------------------------

    def do_setup(self, workdir: Path, rec: Recorder) -> Data | None:
        self.cal.append(host_seconds())
        out = self.timed("setup", rec, lambda: setup(self.bundle, workdir, rec))
        self.flush()
        if out is None:
            return None
        data, (generated, loaded) = out
        if self.check("setup", gate.check_roundtrip, generated, loaded):
            coords = [r.coord for r in data.records]
            self.check("setup", gate.check_nearest_row_matches_oracle, coords)
        return data

    def phase(self, phase: str, rec: Recorder, fn, check, digests):
        """Time ``fn`` until min_phase_s is spent (once at least). The run's
        first output of the phase and its top-K results are gated by
        ``check``; every output must repeat that output's ``digests`` exactly.
        Returns the first output of this call."""
        first, spent = None, 0.0
        while first is None or spent < self.min_phase_s:
            if not self._pending:  # a fresh reading right before the next sample
                self.cal.append(host_seconds())
            gated = phase in self.gated
            watch = gate.PoolWatch(check_rows=not gated, rng=self.rng)
            rec.on_topk = watch.observe
            out = self.timed(phase, rec, fn)
            rec.on_topk = None
            if out is None:
                break
            spent += self.wall[sample_key(phase, rec)][-1]
            if not gated:
                self.flush()  # before the gate's own work
                self.gated.add(phase)
                check(self.corrupt(out), watch)
            elif sum(elapsed for _, elapsed in self._pending) >= CAL_EVERY_S:
                self.flush()
            if first is None:
                first = out
            for key, digest in digests(out, watch).items():
                self.first_or_same(key, digest)
        self.flush()
        return first

    def do_train(self, data: Data, rec: Recorder):
        n_train = len(data.records) - max(1, len(data.records) // 10)

        def check(result, watch):
            ok = self.check("train", gate.check_plans, result.plans, data.records[:n_train],
                            self.bundle.sampler, range(self.wl.epochs))
            ok = ok and self.check("train", gate.require, watch.error is None, watch.error)
            ok and self.check("train", gate.require,
                              all(math.isfinite(h["loss"]) for h in result.history),
                              "non-finite loss in the history")

        def digests(result, watch):
            return {"train.history": gate.digest_history(result.history),
                    "train.plans": gate.digest_plans(result.plans),
                    "train.params": gate.digest_params(result),
                    "train.pools": watch.digest()}

        return self.phase("train", rec, lambda: train(self.bundle, data), check, digests)

    def do_mine(self, data: Data, q_emb, r_emb, rec: Recorder) -> None:
        def check(plans, watch):
            if self.check("mine", gate.check_plans, plans, data.records, self.mine_cfg,
                          mine_epochs(self.mine_cfg)):
                self.check("mine", gate.require, watch.error is None, watch.error)

        def digests(plans, watch):
            return {"mine.plans": gate.digest_plans(plans), "mine.pools": watch.digest()}

        self.phase("mine", rec, lambda: mine(data.records, q_emb, r_emb, self.mine_cfg,
                                             self.bundle.geo), check, digests)

    def do_eval(self, data: Data, q_emb, r_emb, rec: Recorder) -> None:
        inputs = eval_inputs(q_emb, r_emb, data.records)

        def check(report, _):
            if self.check("eval", gate.check_report, report, *inputs):
                self.check("eval", gate.check_against_oracles, *inputs, self.rng)

        self.phase("eval", rec, lambda: run_eval(*inputs), check,
                   lambda report, _: {"eval.report": gate.digest_report(report)})

    def iteration(self, data: Data, *recs: Recorder) -> bool:
        """train -> embed -> mine -> eval, each phase under every recorder in
        turn; False if a phase raised."""
        results = [self.do_train(data, rec) for rec in recs]
        if None in results:
            return False
        q_emb, r_emb = embed(results[0], data)
        for rec in recs:
            self.do_mine(data, q_emb, r_emb, rec)
        for rec in recs:
            self.do_eval(data, q_emb, r_emb, rec)
        return not self.raised


# -- reporting ----------------------------------------------------------------


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 10:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    if p < 50:
        return None
    return p, float(np.percentile(values, p))


def summarize(samples: dict[str, list[float]]) -> dict:
    out = {}
    for key, values in samples.items():
        entry = {"median": statistics.median(values), "n": len(values)}
        hp = high_percentile(values)
        if hp:
            entry[f"p{hp[0]}"] = hp[1]
        out[key] = entry
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_recorded(bench_dir: Path) -> dict:
    path = bench_dir / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def compare_recorded(run: Run, kind: str, observed: dict, fingerprint: dict,
                     recorded: dict) -> str:
    """Compare digests or counters with those recorded at DIGEST_SEED."""
    if run.seed != DIGEST_SEED:
        return f"not checked: seed {run.seed} is not the recorded seed {DIGEST_SEED}"
    if recorded.get("fingerprint") != fingerprint:
        return "not checked: recorded on another platform"
    expected = recorded.get(kind, {}).get(run.name)
    if expected is None:
        return "not checked: nothing recorded for this workload"
    run.attempted += 1  # the comparison counts as one more checked operation
    if expected != observed:
        diff = sorted(k for k in set(expected) | set(observed)
                      if expected.get(k) != observed.get(k))
        run.fail(f"recorded {kind} differ: {diff}")
        return "differ: " + ", ".join(diff)
    return "equal"


def untraced(run: Run, seconds: float, workdir: Path) -> tuple[dict, float | None]:
    """A first set-up and pass with one call per phase, then the other
    set-ups, then iterations until they have taken ``seconds`` (one at
    least). Returns the sample medians and the peak RSS in MB, read after
    the first pass, before any repeat."""
    rec = Recorder("untraced")
    data = run.do_setup(workdir, rec)
    if data is None:
        return {}, None
    run.min_phase_s = 0.0
    ok = run.iteration(data, rec)
    rss = peak_rss_mb()
    run.min_phase_s = MIN_PHASE_S
    for _ in range(SETUP_REPEATS - 1):
        ok = ok and run.do_setup(workdir, rec) is not None
    start = time.perf_counter()
    while ok:
        ok = run.iteration(data, rec)
        if time.perf_counter() - start >= seconds:
            break
    return {k: statistics.median(v) for k, v in run.samples.items()}, rss


def traced(run: Run, workdir: Path, out_dir: Path) -> tuple[dict, dict]:
    """A warm-up set-up and iteration, which also takes the tracemalloc peaks;
    then every phase once untraced and once traced, back to back."""
    run.min_phase_s = 0.0  # one call per phase
    memory, plain, rec = Recorder("memory"), Recorder("untraced"), Recorder("trace")
    data = run.do_setup(workdir, memory)
    if data is None or not run.iteration(data, memory):
        return {}, {}
    if run.do_setup(workdir, plain) is None or run.do_setup(workdir, rec) is None:
        return {}, {}
    if not run.iteration(data, plain, rec):
        return {}, {}
    rec.write_spans(out_dir / f"spans-{run.name}-seed{run.seed}.jsonl")

    self_s = rec.self_times()
    total = rec.totals()
    c = rec.counters
    steps = rec.step_ms
    glue = sum(v for k, v in self_s.items() if k.startswith("phase."))
    wrapped_calls = len(rec.spans) + rec.marker_calls
    overhead_s = wrapped_calls * wrapper_cost()
    untraced_s = sum(run.wall[f"{phase}_s"][0] for phase in PHASES)
    mb = 1.0 / (1024.0 * 1024.0)
    metrics = {
        "datasets.generate_s": (self_s["datasets.generate"], "s"),
        "datasets.io_s": (self_s["datasets.io"], "s"),
        "geo.topk_s": (total["geo.topk"], "s"),
        "geo.topk_calls": (c["geo.topk_calls"], "count"),
        "geo.pairs_scored": (c["geo.pairs_scored"], "count"),
        "geo.topk_peak_mb": (memory.peak_bytes["geo.topk"] * mb, "MB"),
        "simsearch.topk_s": (total["simsearch.topk"], "s"),
        "simsearch.topk_calls": (c["simsearch.topk_calls"], "count"),
        "simsearch.pairs_scored": (c["simsearch.pairs_scored"], "count"),
        "simsearch.topk_peak_mb": (memory.peak_bytes["simsearch.topk"] * mb, "MB"),
        "simsearch.cosine_s": (total["simsearch.cosine"], "s"),
        "sampler.plan_s": (total["sampler.plan"], "s"),
        "sampler.plan_calls": (c["sampler.plan_calls"], "count"),
        "sampler.pool_fill_ratio": (
            c["sampler.picks_placed"] / c["sampler.picks_offered"]
            if c["sampler.picks_offered"] else 0.0, "ratio"),
        "trainer.steps": (len(steps), "count"),
        "trainer.step_ms_p50": (float(np.percentile(steps, 50)) if steps else 0.0, "ms"),
        "trainer.step_ms_p99": (float(np.percentile(steps, 99)) if steps else 0.0, "ms"),
        "trainer.adamw_s": (total["trainer.adamw"], "s"),
        "trainer.encode_s": (total["trainer.encode"], "s"),
        "trainer.self_s": (self_s["trainer.train"], "s"),
        "losses.info_nce_s": (total["losses.info_nce"], "s"),
        "losses.info_nce_calls": (c["losses.info_nce_calls"], "count"),
        "evaluation.evaluate_s": (total["evaluation.evaluate"], "s"),
        "evaluation.self_s": (self_s["evaluation.evaluate"], "s"),
        "evaluation.recall_s": (total["evaluation.recall"], "s"),
        "evaluation.hit_rate_s": (total["evaluation.hit_rate"], "s"),
        "evaluation.ap_s": (total["evaluation.ap"], "s"),
        "evaluation.evaluate_peak_mb": (memory.peak_bytes["evaluation.evaluate"] * mb, "MB"),
        "trace.glue_s": (glue, "s"),
        **{f"trace.{phase}_s": (total[f"phase.{phase}"], "s") for phase in PHASES},
        "trace.untraced_s": (untraced_s, "s"),
        "trace.wrapped_calls": (wrapped_calls, "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    # the self times of all spans add up to the traced phases; compare them
    # with the untraced calls made just before, raw and host-scaled
    self_sum = sum(self_s.values())
    gap = {phase: total[f"phase.{phase}"] - run.wall[f"{phase}_s"][0] for phase in PHASES}
    scaled_gap = sum(run.samples[f"trace.{phase}_s"][0] - run.samples[f"{phase}_s"][0]
                     for phase in PHASES)
    criterion = {
        "self_times_s": self_sum, "untraced_s": untraced_s, "overhead_s": overhead_s,
        "gap_s": self_sum - untraced_s, "gap_by_phase_s": gap, "scaled_gap_s": scaled_gap,
        "within_overhead": abs(self_sum - untraced_s) <= overhead_s,
    }
    counters = {k: metrics[k][0] for k in metrics
                if k.endswith(("_calls", "_scored", ".steps", "_ratio"))}
    detail = {"counters": counters, "step_samples": len(steps), "criterion": criterion}
    return metrics, detail


def environment(blas: dict) -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_features": sorted(k for k, v in features.items() if v),
    }


def fingerprint(env: dict) -> dict:
    """What must match for recorded digests to apply: same libraries and kernels."""
    keep = ("python", "numpy", "scipy", "cpu_features")
    return {**{k: env[k] for k in keep},
            "blas_core": env["blas"]["core"], "blas_threads": env["blas"]["threads"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 env: dict, root: Path, bench_dir: Path, self_test: bool = False,
                 record: bool = False) -> tuple[dict, dict]:
    """Returns (final result line, detail line)."""
    run = Run(name, seed, self_test, root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if trace:
            layer, detail = traced(run, Path(tmp), out_dir)
        else:
            medians, rss = untraced(run, seconds, Path(tmp))
            detail = {"samples": summarize(run.samples), "wall_samples": summarize(run.wall),
                      "host_seconds": summarize({"readings": run.cal})}
    detail.update(workload=name, seed=seed, trace=int(trace), environment=env)

    recorded = load_recorded(bench_dir)
    fp = fingerprint(env)
    observed = {"digests": run.digests}
    if trace and layer:
        observed["counters"] = detail["counters"]
    for kind, values in observed.items():
        detail[f"recorded_{kind}"] = compare_recorded(run, kind, values, fp, recorded)
    if record and not run.failures and seed == DIGEST_SEED:
        recorded["fingerprint"] = fp
        for kind, values in observed.items():
            recorded.setdefault(kind, {})[name] = values
        (bench_dir / "digests.json").write_text(
            json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    failed = len(run.failed)
    attempted = max(run.attempted, 1)
    detail["error_rate"] = failed / attempted
    detail["failures"] = run.failures
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        if "setup_s" in medians:  # the import ran before the first reading
            medians["setup_s"] += import_s * CAL_REF_S / run.cal[0]
        metrics = {key: {"value": medians.get(key), "unit": "s"}
                   for key in ("setup_s", "train_s", "mine_s", "eval_s")}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        detail["import_s"] = import_s
    result = {"correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail
