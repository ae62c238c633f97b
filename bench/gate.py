"""Correctness gate: every output a timed operation produces is checked here.

- plans pass ``sampler.validate_plan``;
- sampled pool rows equal a brute-force rank with ties toward the lower
  index (geographic rows by ``oracles.brute_nearest``'s rule, visual rows
  by ``oracles.rank_references``);
- an evaluation report equals the ranks recomputed by counting, for every
  query, and ``oracles.brute_*`` on a query subsample;
- at the recorded seed and platform, output digests equal the recorded
  ones.

A check raises ``GateError``; the caller counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import oracles
from crossview import evaluation, sampler
from crossview.datasets import EmbeddingTable
from crossview.errors import ValidationError

POOL_ROWS = 6  # sampled rows checked per pool build
ORACLE_QUERIES = 12  # queries per report checked against oracles.brute_*
RANK_CHUNK = 512  # query rows per block when recomputing ranks


class GateError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


# -- digests -----------------------------------------------------------------


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def digest_plans(plans) -> str:
    return _sha(f"{p.epoch} {p.strategy_used} {json.dumps(p.batches)}" for p in plans)


def _pool_line(p) -> str:
    return f"{p.anchor_index} {p.kind} {p.neighbor_indices} {[float(s).hex() for s in p.scores]}"


def digest_history(history) -> str:
    return _sha(json.dumps(h, sort_keys=True) for h in history)


def digest_params(result) -> str:
    p = result.params
    arrays = (p.W1, p.b1, p.W2, p.b2)
    return _sha([*(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays),
                 float(result.loss_config.logit_scale).hex()])


def digest_report(report) -> str:
    return _sha([report.to_json()])


# -- setup ---------------------------------------------------------------------


def check_roundtrip(generated, loaded) -> None:
    (g_rec, g_q, g_r), (l_rec, l_q, l_r) = generated, loaded
    require(g_rec == l_rec, "manifest read-back differs from the generated records")
    require(g_q == l_q and g_r == l_r, "EMB1 read-back differs from the generated tables")


# -- plans and pools -------------------------------------------------------------


def check_plans(plans, records, cfg, expected_epochs) -> None:
    require([p.epoch for p in plans] == list(expected_epochs),
            f"plans cover epochs {[p.epoch for p in plans]}, expected {list(expected_epochs)}")
    for plan in plans:
        require(plan.strategy_used == sampler.resolve_strategy(cfg, plan.epoch),
                f"epoch {plan.epoch} planned with {plan.strategy_used!r}")
        try:
            sampler.validate_plan(plan, records, cfg)
        except ValidationError as exc:
            raise GateError(f"epoch {plan.epoch} plan invalid: {exc}") from exc


def nearest_row(i: int, n: int, key, k: int) -> list[int]:
    """Row i of ``oracles.brute_nearest``: the k smallest key(j), j != i, ties by j."""
    return sorted((j for j in range(n) if j != i), key=lambda j: (key(j), j))[:k]


def _planar(p, q) -> float:
    return math.hypot(p.a - q.a, p.b - q.b)


def check_nearest_row_matches_oracle(coords, k: int = 3, n: int = 40) -> None:
    """``nearest_row`` must agree with ``oracles.brute_nearest`` itself."""
    pts = coords[:n]
    expected = oracles.brute_nearest(pts, _planar, k)
    got = [nearest_row(i, len(pts), lambda j, i=i: _planar(pts[i], pts[j]), k)
           for i in range(len(pts))]
    require(got == expected, "per-row nearest rank disagrees with oracles.brute_nearest")


class PoolWatch:
    """Checks and digests each top-K result of one phase call as it returns.

    Only the digest and the first failure are kept, never the pools, so the
    program frees its old pools as it would without the benchmark. Sampled
    rows are checked when ``check_rows`` is set; the digest equals ``_sha``
    over every pool of the call, in order.
    """

    def __init__(self, check_rows: bool, rng):
        self.check_rows, self.rng = check_rows, rng
        self.error: str | None = None
        self._sha = hashlib.sha256()

    def observe(self, name, args, pools) -> None:
        if self.check_rows and self.error is None:
            try:
                check_pools(name, args, pools, self.rng)
            except GateError as exc:
                self.error = str(exc)
        for p in pools:
            self._sha.update(_pool_line(p).encode())
            self._sha.update(b"\n")

    def digest(self) -> str:
        return self._sha.hexdigest()[:16]


def check_pools(name, args, pools, rng) -> None:
    """Shape, exclusions and sampled rows of one top-K result."""
    anchors, candidates, k = args[0], args[1], args[2]
    n_a = len(anchors) if name == "geo.topk" else anchors.count
    n_c = len(candidates) if name == "geo.topk" else candidates.count
    require(len(pools) == n_a, f"{name}: {len(pools)} pools for {n_a} anchors")
    require(all(len(p) == k for p in pools), f"{name}: pool size differs from K={k}")
    require(all(p.anchor_index == i for i, p in enumerate(pools)),
            f"{name}: pools out of anchor order")
    if name == "geo.topk":
        require(anchors[0].crs == "planar", "gate checks planar coordinates only")
    else:
        r64 = candidates.data.astype(np.float64)
    for i in rng.choice(n_a, size=min(POOL_ROWS, n_a), replace=False).tolist():
        if name == "geo.topk":
            a = anchors[i]
            expected = nearest_row(i, n_c, lambda j: _planar(a, candidates[j]), k)
        else:
            row = (r64 @ anchors.data[i].astype(np.float64)).tolist()
            if i < n_c:
                row[i] = -math.inf
            expected = oracles.rank_references(row)[:k]
        got = list(pools[i].neighbor_indices)
        require(got == expected, f"{name}: pool row {i} differs from the brute-force rank")


# -- evaluation -------------------------------------------------------------------


def _unit_rows(table: EmbeddingTable) -> np.ndarray:
    # the documented contract: normalise in float64, store float32, score in float64
    data = table.data.astype(np.float64)
    data = data / np.linalg.norm(data, axis=1)[:, None]
    return data.astype(np.float32).astype(np.float64)


def _positive_rows(queries, references, records):
    ref_row = {rid: j for j, rid in enumerate(references.row_ids)}
    positives, semis = [], []
    for r in records:
        require(len(r.positives) == 1, f"record {r.id!r}: gate handles one positive per query")
        positives.append(ref_row[r.positives[0]])
        semis.append([ref_row[s] for s in r.semi_positives])
    return np.array(positives), semis


def check_report(report, queries, references, records) -> None:
    """Every field of ``report`` from the positive's rank, counted per query."""
    q, r = _unit_rows(queries), _unit_rows(references)
    pos, semis = _positive_rows(queries, references, records)
    n_q, n_r = q.shape[0], r.shape[0]
    cols = np.arange(n_r)
    rank = np.empty(n_q, dtype=np.int64)
    hit = np.empty(n_q, dtype=bool)
    for start in range(0, n_q, RANK_CHUNK):
        sim = q[start:start + RANK_CHUNK] @ r.T
        rows = np.arange(sim.shape[0])
        p = pos[start:start + sim.shape[0]]
        s_pos = sim[rows, p][:, None]
        ahead = (sim > s_pos) | ((sim == s_pos) & (cols[None, :] < p[:, None]))
        rank[start:start + sim.shape[0]] = ahead.sum(axis=1) + 1
        for row in rows:
            ahead[row, semis[start + row]] = False
        hit[start:start + sim.shape[0]] = ~ahead.any(axis=1)
    expected_recall = {k: float(np.count_nonzero(rank <= min(k, n_r))) / n_q
                       for k in evaluation.RECALL_KS}
    require(report.recall_at == expected_recall,
            f"recall {report.recall_at} != counted {expected_recall}")
    k1 = math.ceil(0.01 * n_r)
    require(report.recall_at_1pct == float(np.count_nonzero(rank <= k1)) / n_q,
            "R@1% differs from the counted ranks")
    has_semis = any(semis)
    expected_hit = float(np.count_nonzero(hit)) / n_q if has_semis else None
    require(report.hit_rate == expected_hit, f"hit rate {report.hit_rate} != {expected_hit}")
    if n_r > n_q:  # distractors in the gallery: AP is reported
        expected_ap = float(np.mean(1.0 / rank))
        require(report.mean_ap is not None
                and math.isclose(report.mean_ap, expected_ap, rel_tol=1e-12),
                f"mean AP {report.mean_ap} != {expected_ap}")
    else:
        require(report.mean_ap is None, "mean AP reported without distractors")
    require((report.n_queries, report.n_references) == (n_q, n_r), "report sizes differ")


def check_against_oracles(queries, references, records, rng) -> None:
    """``evaluate`` on a query subsample equals the brute-force oracles."""
    idx = sorted(rng.choice(len(records), size=min(ORACLE_QUERIES, len(records)),
                            replace=False).tolist())
    sub_q = EmbeddingTable(queries.data[idx], tuple(queries.row_ids[i] for i in idx))
    sub_rec = [records[i] for i in idx]
    report = evaluation.evaluate(sub_q, references, sub_rec)
    sim = (_unit_rows(sub_q) @ _unit_rows(references).T).tolist()
    pos, semis = _positive_rows(sub_q, references, sub_rec)
    positives = [{int(p)} for p in pos]
    n_r = references.count
    for k in evaluation.RECALL_KS:
        require(report.recall_at[k] == oracles.brute_recall_at_k(sim, positives, min(k, n_r)),
                f"R@{k} on the subsample differs from oracles.brute_recall_at_k")
    require(report.recall_at_1pct == oracles.brute_recall_at_percent(sim, positives, 1.0),
            "R@1% on the subsample differs from oracles.brute_recall_at_percent")
    if any(semis):
        require(report.hit_rate == oracles.brute_hit_rate(sim, positives, [set(s) for s in semis]),
                "hit rate on the subsample differs from oracles.brute_hit_rate")
    if report.mean_ap is not None:
        aps = [oracles.brute_average_precision(oracles.rank_references(row), p)
               for row, p in zip(sim, positives)]
        require(math.isclose(report.mean_ap, sum(aps) / len(aps), rel_tol=1e-12),
                "mean AP on the subsample differs from oracles.brute_average_precision")
