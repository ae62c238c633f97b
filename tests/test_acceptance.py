"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its own summary line. The sampling (c5)
and loss-comparison (c6) experiments take their runs from
``trainer.ablation_configs`` over the tuned recipe in configs/ablate.cfg and
share memoised trainings: training is a pure function of the TrainConfig
(c8), so c6's InfoNCE/dss runs, equal to c5's dss runs, train only once.
"""

import functools
import json
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossview.cli import main
from crossview.config import parse_config
from crossview.datasets import Coordinate, SynthConfig, generate_synthetic
from crossview.evaluation import average_precision, hit_rate, recall_at_k, recall_at_percent
from crossview.geo import MEAN_EARTH_RADIUS_M, haversine_distance
from crossview.losses import LossConfig, info_nce
from crossview.sampler import SamplerConfig, build_geo_pools, build_sim_pools, plan_epoch, plan_rng, validate_plan
from crossview.simsearch import l2_normalize
from crossview.trainer import TrainConfig, ablation_configs, gradcheck, holdout_size, train

from oracles import (
    brute_average_precision,
    brute_hit_rate,
    brute_recall_at_k,
    brute_recall_at_percent,
    law_of_cosines_distance,
    rank_references,
)

ABLATE_CFG = Path(__file__).resolve().parent.parent / "configs" / "ablate.cfg"


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_c1_gradient_correctness():
    """20 random inits, shared and separate encoders, eps in {0, 0.1}."""
    start = time.monotonic()
    worst = 0.0
    cases = [(shared, eps) for shared in (True, False) for eps in (0.0, 0.1)]
    for seed in range(20):
        shared, eps = cases[seed % len(cases)]
        cfg = TrainConfig(
            epochs=1, warmup_epochs=0, hidden_dim=32, embed_dim=8, shared_weights=shared,
            loss=LossConfig(label_smoothing=eps),
        )
        rep = gradcheck(cfg, n=8, d_in=16, seed=seed)
        worst = max(worst, rep["max"])
    elapsed = time.monotonic() - start
    report(
        "1 gradient correctness",
        worst <= 1e-6 and elapsed < 60.0,
        f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


def test_c2_loss_closed_forms():
    """Uniform logits give ln N; identity similarity gives ln(1+e^-1)."""
    worst = 0.0
    for n in (2, 8, 128):
        for eps in (0.0, 0.1):
            q = np.tile([[1.0, 0.0]], (n, 1))
            r = np.tile([[0.0, 1.0]], (n, 1))
            loss = info_nce(q, r, LossConfig(label_smoothing=eps)).loss
            worst = max(worst, abs(loss - math.log(n)))

    cfg = LossConfig(label_smoothing=0.0, logit_scale=0.0)
    expected = math.log(1 + math.exp(-1))
    for direction in ("query_to_ref", "ref_to_query", "symmetric"):
        loss = info_nce(np.eye(2), np.eye(2),
                        LossConfig(label_smoothing=0.0, logit_scale=0.0,
                                   direction=direction)).loss
        worst = max(worst, abs(loss - expected))

    rng = np.random.default_rng(0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q, r = unit_rows(rng, 6, 5), unit_rows(rng, 6, 5)
        l_qr = info_nce(q, r, LossConfig(direction="query_to_ref")).loss
        l_rq = info_nce(q, r, LossConfig(direction="ref_to_query")).loss
        l_sym = info_nce(q, r, LossConfig(direction="symmetric")).loss
        worst = max(worst, abs(l_sym - 0.5 * (l_qr + l_rq)))

    report("2 loss closed forms", worst <= 1e-12, f"(max deviation {worst:.2e})")


def test_c3_plan_validity():
    """100 seeds x 4 strategies at N=1000, B=128, K=128, k=64."""
    start = time.monotonic()
    synth = SynthConfig(n_pairs=1000, seed=0)
    records, queries, references = generate_synthetic(synth)
    base = SamplerConfig(batch_size=128, pool_size=128, picks_per_anchor=64)
    geo_pools = build_geo_pools(records, base)
    sim_pools = build_sim_pools(l2_normalize(queries), l2_normalize(references), base)

    half = base.picks_per_anchor // 2
    checked = 0
    for seed in range(100):
        for strategy in ("random", "gps", "dss", "gps_then_dss"):
            cfg = replace(base, strategy=strategy, seed=seed)
            epochs = (0, cfg.gps_epochs) if strategy == "gps_then_dss" else (0,)
            for epoch in epochs:
                effective = {"random": None, "gps": geo_pools, "dss": sim_pools,
                             "gps_then_dss": geo_pools if epoch < cfg.gps_epochs else sim_pools}
                pools = effective[strategy]
                plan = plan_epoch(records, pools, cfg, epoch, plan_rng(cfg, epoch))
                validate_plan(plan, records, cfg)
                if pools is not None:
                    first = plan.batches[0]
                    nearest = set(pools[first[0]].neighbor_indices[:half])
                    assert len(nearest & set(first[1:])) >= half, (
                        f"first batch carries under {half} of the anchor's nearest pool"
                    )
                checked += 1
    elapsed = time.monotonic() - start
    report("3 plan validity", elapsed < 60.0, f"({checked} plans, {elapsed:.1f}s)")


def test_c4_metric_oracle_equivalence():
    """200 random instances against the brute-force reimplementation, exact."""
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n_q = int(rng.integers(2, 301))
        n_r = int(rng.integers(2, 301))
        sim = rng.standard_normal((n_q, n_r))
        if rng.random() < 0.3:  # exercise the tie-break rule
            sim = np.round(sim * 4) / 4
        sim_list = sim.tolist()
        positives = [{int(rng.integers(n_r))} for _ in range(n_q)]
        semis = []
        for i in range(n_q):
            pool = [j for j in range(n_r) if j not in positives[i]]
            take = int(rng.integers(0, min(3, len(pool)) + 1))
            semis.append(set(pool[:take]))
        for k in (1, 5, 10):
            k_eff = min(k, n_r)
            assert recall_at_k(sim, positives, k_eff) == brute_recall_at_k(
                sim_list, positives, k_eff
            )
        assert recall_at_percent(sim, positives, 1.0) == brute_recall_at_percent(
            sim_list, positives, 1.0
        )
        assert hit_rate(sim, positives, semis) == brute_hit_rate(sim_list, positives, semis)
        for i in range(0, n_q, max(1, n_q // 10)):
            ranking = rank_references(sim_list[i])
            assert average_precision(ranking, positives[i]) == brute_average_precision(
                ranking, positives[i]
            )

    # hand-checked fixtures
    def rank_fixture(rank, n_r=10):
        scores = np.zeros(n_r)
        scores[0] = 1.0 - 0.1 * (rank - 1)
        for pos, j in enumerate(range(1, n_r)):
            scores[j] = 1.0 - 0.1 * pos if pos < rank - 1 else -0.1 * pos
        return scores

    sims = np.vstack([rank_fixture(1), rank_fixture(3), rank_fixture(7)])
    positives = [{0}, {0}, {0}]
    ok = (
        recall_at_k(sims, positives, 1) == pytest.approx(1 / 3)
        and recall_at_k(sims, positives, 5) == pytest.approx(2 / 3)
        and average_precision([5, 9, 7, 1], {5, 7}) == pytest.approx(5 / 6)
    )
    report("4 metric oracle equivalence", ok, "(200 instances, fixtures exact)")


DESK = parse_config(ABLATE_CFG)


@functools.cache
def _desk_data():
    return generate_synthetic(DESK.synth)


@functools.cache
def _final_r1(cfg: TrainConfig) -> float:
    """Held-out R@1 after the last epoch of one desk-recipe training."""
    return train(*_desk_data(), cfg, DESK.geo).history[-1]["r1"]


def _median_r1(grid):
    """Each grid value's median held-out R@1 over its seed offsets."""
    return {value: statistics.median(map(_final_r1, configs)) for value, configs in grid.items()}


def test_c5_sampling_ablation():
    """Median held-out R@1 over 5 seeds: GPS+DSS > Random, DSS >= Random."""
    start = time.monotonic()
    synth = DESK.synth
    assert synth.n_pairs == 2000 and synth.latent_dim == 32 and synth.view_dim == 64
    medians = _median_r1(ablation_configs(DESK.train, "strategy", 5))
    elapsed = time.monotonic() - start

    ordering = " <= ".join(
        f"{s}={medians[s]:.3f}"
        for s in sorted(medians, key=medians.get)
    )
    ok = (
        0.3 <= medians["random"] <= 0.7
        and medians["gps_then_dss"] > medians["random"]
        and medians["dss"] >= medians["random"]
        and elapsed < 600.0
    )
    report("5 sampling ablation", ok, f"({ordering}; {elapsed:.0f}s)")


def test_c6_triplet_collapse():
    """Plain triplet <= 5x chance while symmetric InfoNCE > 10x chance.

    The chance level is 1/n_holdout_references.
    """
    start = time.monotonic()
    chance = 1.0 / holdout_size(DESK.synth.n_pairs)
    dss = replace(DESK.train, sampler=replace(DESK.sampler, strategy="dss"))
    grid = ablation_configs(dss, "loss", 5)
    medians = _median_r1({kind: grid[kind] for kind in ("infonce", "triplet")})
    elapsed = time.monotonic() - start
    ok = (
        medians["triplet"] <= 5 * chance
        and medians["infonce"] > 10 * chance
        and elapsed < 600.0
    )
    report(
        "6 triplet collapse",
        ok,
        f"(triplet={medians['triplet']:.3f} vs bound {5 * chance:.3f}, "
        f"infonce={medians['infonce']:.3f} vs bound {10 * chance:.3f}; {elapsed:.0f}s)",
    )


def test_c7_geodesy():
    """Haversine vs spherical law of cosines, 1e-9 relative."""
    R = MEAN_EARTH_RADIUS_M
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        lat1, lat2 = rng.uniform(-89.0, 89.0, 2)
        lon1, lon2 = rng.uniform(-180.0, 180.0, 2)
        expected = law_of_cosines_distance(lat1, lon1, lat2, lon2, R)
        angle = expected / R
        if not 1e-3 < angle < math.pi - 1e-3:  # non-antipodal, non-coincident
            continue
        got = haversine_distance(
            Coordinate(lat1, lon1, "wgs84"), Coordinate(lat2, lon2, "wgs84")
        )
        worst = max(worst, abs(got - expected) / expected)
        checked += 1

    one_degree = haversine_distance(Coordinate(0, 0, "wgs84"), Coordinate(0, 1, "wgs84"))
    half_circle = haversine_distance(Coordinate(0, 0, "wgs84"), Coordinate(0, 180, "wgs84"))
    worst = max(worst, abs(one_degree - math.pi * R / 180) / (math.pi * R / 180))
    worst = max(worst, abs(half_circle - math.pi * R) / (math.pi * R))
    report("7 geodesy", worst <= 1e-9, f"(max rel err {worst:.2e})")


def test_c8_determinism(tmp_path):
    """Two train runs with one config: byte-identical plans, equal losses."""
    data = tmp_path / "data"
    args = [
        "--set", "synth.n_pairs=300", "--set", "synth.seed=5",
        "--set", "train.epochs=3", "--set", "train.warmup_epochs=1",
        "--set", "train.hidden_dim=32", "--set", "train.embed_dim=8",
        "--set", "sampler.batch_size=32", "--set", "sampler.pool_size=16",
        "--set", "sampler.picks_per_anchor=8", "--set", "sampler.gps_epochs=1",
        "--set", "sampler.refresh_every=1",
    ]
    assert main(["gen-synth", *args, "--out", str(data)]) == 0
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["train", *args, "--data", str(data), "--out", str(out)]) == 0
        outs.append(out)

    run1 = json.loads((outs[0] / "run.json").read_text())
    run2 = json.loads((outs[1] / "run.json").read_text())
    plans_identical = all(
        (outs[0] / p1).read_bytes() == (outs[1] / p2).read_bytes()
        for p1, p2 in zip(run1["plans"], run2["plans"])
    )
    h1 = [json.loads(l) for l in (outs[0] / run1["history"]).read_text().splitlines()]
    h2 = [json.loads(l) for l in (outs[1] / run2["history"]).read_text().splitlines()]
    losses_close = all(abs(a["loss"] - b["loss"]) <= 1e-9 for a, b in zip(h1, h2))
    report(
        "8 determinism",
        plans_identical and losses_close and run1 == run2,
        f"({len(run1['plans'])} plans byte-identical, losses within 1e-9)",
    )
