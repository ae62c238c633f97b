"""Spans, counters and per-layer peak memory recorded around library calls.

A ``Recorder`` replaces functions on the module where their callers look
them up (``crossview.trainer.build_sim_pools`` style), so the library
itself is unchanged. Three kinds of wrapper exist:

- layer wrappers record a span (name, start, end, parent) per call;
- top-K wrappers hand each top-K result to ``on_topk`` as it returns, so
  the correctness gate checks and digests the pools the program really
  built without keeping them;
- memory wrappers run the call under ``tracemalloc`` and keep its peak.

Every wrapper hands top-K results to ``on_topk``. The time ``on_topk``
takes is gate work, so ``now()`` leaves it out: spans, step times and the
phase timings of ``harness.Run`` are all read from ``now()``.

Markers (``lr_at``, ``clamp_logit_scale``, ``pick_from_pool``) record no
span; they time training steps and count the picks offered to the
planner. Spans stay in memory until ``write_spans`` is called.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# span name -> the (module, attribute) bindings that callers look up
LAYERS = {
    "geo.topk": (("crossview.sampler", "geo_topk"),),
    "simsearch.topk": (("crossview.sampler", "visual_topk"),),
    "simsearch.cosine": (("crossview.evaluation", "cosine_matrix"),),
    "sampler.plan": (("crossview.sampler", "plan_epoch"), ("crossview.trainer", "plan_epoch")),
    "trainer.train": (("crossview.trainer", "train"),),
    "trainer.encode": (("crossview.trainer", "encode"),),
    "trainer.adamw": (("crossview.trainer", "adamw_step"),),
    "losses.info_nce": (("crossview.trainer", "info_nce"),),
    "evaluation.evaluate": (("crossview.evaluation", "evaluate"),),
    "evaluation.recall": (("crossview.evaluation", "recall_at_k"),),
    "evaluation.hit_rate": (("crossview.evaluation", "hit_rate"),),
    "evaluation.ap": (("crossview.evaluation", "average_precision"),),
}
TOPK_LAYERS = ("geo.topk", "simsearch.topk")
MEMORY_LAYERS = ("geo.topk", "simsearch.topk", "evaluation.evaluate")
MARKERS = {
    "step_start": ("crossview.trainer", "lr_at"),
    "step_end": ("crossview.trainer", "clamp_logit_scale"),
    "picks": ("crossview.sampler", "pick_from_pool"),
}


def _bind(binding: tuple[str, str], make) -> tuple:
    """(module object, attribute, original, wrapper made from the original)."""
    mod = importlib.import_module(binding[0])
    original = getattr(mod, binding[1])
    return mod, binding[1], original, make(original)


class Recorder:
    """Collects what the installed wrappers observe.

    ``mode`` is one of ``"untraced"`` (top-K results only, for the gate),
    ``"trace"`` (spans, counters and markers) or ``"memory"`` (tracemalloc
    peaks of MEMORY_LAYERS).
    """

    def __init__(self, mode: str):
        if mode not in ("untraced", "trace", "memory"):
            raise ValueError(f"unknown recorder mode {mode!r}")
        self.mode = mode
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.step_ms: list[float] = []
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.on_topk = None  # called with (layer name, args, pools)
        self.paused_s = 0.0  # time spent in on_topk, left out of now()
        self._step_start = 0.0
        self.marker_calls = 0
        self._picks: dict[int, list[int]] = {}

    def now(self) -> float:
        """``perf_counter()`` without the time spent in ``on_topk``."""
        return time.perf_counter() - self.paused_s

    def _observe(self, name: str, args: tuple, pools) -> None:
        if self.on_topk is None:
            return
        start = time.perf_counter()
        try:
            self.on_topk(name, args, pools)
        finally:
            self.paused_s += time.perf_counter() - start

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (phases, setup steps)."""
        if self.mode != "trace":
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.now()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _layer_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name == "sampler.plan":
                self._picks = {}
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, result)
            return result

        return wrapper

    def _topk_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        return wrapper

    def _memory_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            if name in TOPK_LAYERS:
                self._observe(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "geo.topk":
            c["geo.topk_calls"] += 1
            c["geo.pairs_scored"] += len(args[0]) * len(args[1])
            self._observe(name, args, result)
        elif name == "simsearch.topk":
            c["simsearch.topk_calls"] += 1
            c["simsearch.pairs_scored"] += args[0].count * args[1].count
            self._observe(name, args, result)
        elif name == "sampler.plan":
            c["sampler.plan_calls"] += 1
            for batch in result.batches:
                picks = self._picks.get(batch[0])
                if picks:
                    c["sampler.picks_offered"] += len(picks)
                    c["sampler.picks_placed"] += len(set(batch[1:]).intersection(picks))
        elif name == "losses.info_nce":
            c["losses.info_nce_calls"] += 1

    def _marker(self, kind: str, fn):
        if kind == "step_start":
            def wrapper(*args, **kwargs):
                self.marker_calls += 1
                self._step_start = self.now()
                return fn(*args, **kwargs)
        elif kind == "step_end":
            def wrapper(*args, **kwargs):
                self.marker_calls += 1
                result = fn(*args, **kwargs)
                self.step_ms.append((self.now() - self._step_start) * 1e3)
                return result
        else:
            def wrapper(pool, *args, **kwargs):
                self.marker_calls += 1
                picks = fn(pool, *args, **kwargs)
                self._picks[pool.anchor_index] = picks
                return picks
        return wrapper

    @contextmanager
    def installed(self):
        """Patch the wrappers this mode needs; restore the originals on exit."""
        if self.mode == "trace":
            patches = [_bind(b, lambda fn, n=name: self._layer_wrapper(n, fn))
                       for name, bindings in LAYERS.items() for b in bindings]
            patches += [_bind(b, lambda fn, k=kind: self._marker(k, fn))
                        for kind, b in MARKERS.items()]
        else:
            make = self._memory_wrapper if self.mode == "memory" else self._topk_wrapper
            names = MEMORY_LAYERS if self.mode == "memory" else TOPK_LAYERS
            patches = [_bind(b, lambda fn, n=name: make(n, fn))
                       for name in names for b in LAYERS[name]]
        try:
            for mod, attr, _, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original, _ in patches:
                setattr(mod, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a layer wrapper adds to one call, measured around a no-op."""
    def noop():
        return None

    wrapped = Recorder("trace")._layer_wrapper("calibration", noop)

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    diffs = sorted(loop(wrapped) - loop(noop) for _ in range(repeats))
    return max(diffs[len(diffs) // 2] / calls, 0.0)
