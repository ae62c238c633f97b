import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossview import geo, sampler
from crossview.datasets import (
    Coordinate,
    EmbeddingTable,
    SampleRecord,
    SynthConfig,
    generate_synthetic,
)
from crossview.errors import ValidationError
from crossview.sampler import (
    BatchPlan,
    SamplerConfig,
    build_geo_pools,
    build_sim_pools,
    pick_from_pool,
    pool_bytes,
    plan_epoch,
    plan_rng,
    read_plan,
    resolve_strategy,
    should_refresh,
    validate_plan,
    write_plan,
)
from crossview.simsearch import NeighborPool, Pools, l2_normalize

from oracles import rescan_plan


def records_at(points, class_ids=None):
    n = len(points)
    class_ids = class_ids or [f"c{i}" for i in range(n)]
    return [
        SampleRecord(
            id=f"p{i}", class_id=class_ids[i],
            coord=Coordinate(float(x), float(y), "planar"), positives=(f"p{i}",),
        )
        for i, (x, y) in enumerate(points)
    ]


def visual_pool(anchor, indices):
    scores = tuple(1.0 - 0.01 * i for i in range(len(indices)))
    return NeighborPool(anchor, tuple(indices), scores, "visual")


class TestSamplerConfig:
    def test_defaults_match_training_recipe(self):
        cfg = SamplerConfig()
        assert (cfg.batch_size, cfg.pool_size, cfg.picks_per_anchor, cfg.refresh_every) == (
            128, 128, 64, 4,
        )

    def test_odd_picks_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            SamplerConfig(picks_per_anchor=3)

    def test_picks_cannot_exceed_pool(self):
        with pytest.raises(ValidationError, match="^sampler.picks_per_anchor=32 must be <= "
                                                  "sampler.pool_size=16$"):
            SamplerConfig(pool_size=16, picks_per_anchor=32)
        with pytest.raises(ValidationError, match="^sampler.picks_per_anchor=2 must be <= "
                                                  "sampler.pool_size=1$"):
            SamplerConfig(pool_size=1, picks_per_anchor=2)

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            SamplerConfig(strategy="psychic")


class TestBuildPools:
    def test_geo_pools_hand_grid(self):
        records = records_at([(0, 0), (1, 0), (0, 1), (5, 5)])
        cfg = SamplerConfig(pool_size=2, picks_per_anchor=2)
        pools = build_geo_pools(records, cfg)
        assert pools[0].neighbor_indices == (1, 2)  # both at distance 1
        assert pools[3].neighbor_indices == (1, 2)  # ties by index
        assert pools[0].kind == "geographic"

    def test_geo_pools_full_ordering(self):
        rng = np.random.default_rng(0)
        records = records_at(rng.uniform(0, 50, size=(9, 2)))
        cfg = SamplerConfig(pool_size=8, picks_per_anchor=2)
        pools = build_geo_pools(records, cfg)
        coords = np.array([(r.coord.a, r.coord.b) for r in records])
        for i, pool in enumerate(pools):
            d = np.hypot(*(coords - coords[i]).T)
            expected = sorted((j for j in range(9) if j != i), key=lambda j: (d[j], j))
            assert list(pool.neighbor_indices) == expected

    def test_geo_pools_deterministic(self):
        records = records_at(np.random.default_rng(1).uniform(0, 9, size=(6, 2)))
        cfg = SamplerConfig(pool_size=4, picks_per_anchor=2)
        a, b = build_geo_pools(records, cfg), build_geo_pools(records, cfg)
        assert a.kind == b.kind == "geographic"
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.scores.tobytes() == b.scores.tobytes()

    @pytest.mark.parametrize("crs", ["planar", "wgs84"])
    def test_geo_pools_convert_the_coordinates_once(self, monkeypatch, crs):
        # the records' coordinates are both anchors and candidates: one
        # conversion, and the pools of two conversions of equal lists
        rng = np.random.default_rng(6)
        points = rng.uniform(-60, 60, size=(40, 2))
        records = [SampleRecord(id=f"p{i}", class_id=f"p{i}", coord=Coordinate(x, y, crs),
                                positives=(f"p{i}",)) for i, (x, y) in enumerate(points.tolist())]
        cfg = SamplerConfig(pool_size=8, picks_per_anchor=2)
        sizes, convert = [], geo._coord_array
        monkeypatch.setattr(geo, "_coord_array", lambda coords: sizes.append(len(coords))
                            or convert(coords))
        pools = build_geo_pools(records, cfg)
        assert sizes == [40]
        coords = [r.coord for r in records]
        apart = geo.geo_topk(coords, list(coords), cfg.pool_size)
        assert sizes == [40, 40, 40]
        assert pools.indices.tobytes() == apart.indices.tobytes()
        assert pools.scores.tobytes() == apart.scores.tobytes()

    def test_sim_pools_delegate_to_visual_topk(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        t = l2_normalize(EmbeddingTable(x, tuple(f"p{i}" for i in range(6))))
        cfg = SamplerConfig(pool_size=3, picks_per_anchor=2)
        pools = build_sim_pools(t, t, cfg)
        assert len(pools) == 6
        for i, pool in enumerate(pools):
            assert pool.kind == "visual"
            assert len(pool) == 3
            assert i not in pool.neighbor_indices


class TestPoolBudget:
    @pytest.mark.parametrize("n, K, dim", [(3000, 128, 6), (10000, 32, 16), (20000, 16, 8)])
    def test_estimate_bounds_traced_builds(self, n, K, dim):
        # a planar-grid GPS build over the records' coordinates, and a visual
        # build over unit tables
        records, q, r = generate_synthetic(SynthConfig(n_pairs=n, latent_dim=4, view_dim=dim,
                                                       n_semi_positives=0))
        q, r = l2_normalize(q), l2_normalize(r)
        cfg = SamplerConfig(pool_size=K, picks_per_anchor=2)
        for build, width in ((lambda: build_geo_pools(records, cfg), 2),
                             (lambda: build_sim_pools(q, r, cfg), dim)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= pool_bytes(n, K, width) <= 3 * peak

    def test_over_budget_pool_named_before_any_search(self):
        # 10**8 pools of 128: 200 GB of indices and scores, refused from the
        # estimate alone
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"^sampler\.pool_size=128 over 100000000 "
                               r"pairs needs about [\d,]+ bytes, over the budget of "
                               r"4,294,967,296 bytes$"):
                sampler._require_pool_fits(SamplerConfig(), 10**8, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestPickFromPool:
    def test_nearest_half_plus_one_random(self):
        pool = visual_pool(9, (10, 11, 12, 13))
        cfg = SamplerConfig(pool_size=4, picks_per_anchor=2)
        for seed in range(20):
            picks = pick_from_pool(pool, cfg, np.random.default_rng(seed))
            assert picks[0] == 10
            assert picks[1] in {11, 12, 13}

    def test_k_equals_pool_returns_whole_pool(self):
        pool = visual_pool(9, (4, 7, 2, 8))
        cfg = SamplerConfig(pool_size=4, picks_per_anchor=4)
        for seed in range(10):
            assert pick_from_pool(pool, cfg, np.random.default_rng(seed)) == [4, 7, 2, 8]

    def test_random_half_uniform_frequency(self):
        pool = visual_pool(9, (10, 11, 12, 13))
        cfg = SamplerConfig(pool_size=4, picks_per_anchor=2)
        rng = np.random.default_rng(123)
        counts = Counter(pick_from_pool(pool, cfg, rng)[1] for _ in range(10_000))
        for idx in (11, 12, 13):
            assert abs(counts[idx] / 10_000 - 1 / 3) < 0.02

    def test_pool_shorter_than_k(self):
        pool = visual_pool(9, (10, 11))
        cfg = SamplerConfig(pool_size=4, picks_per_anchor=4)
        with pytest.raises(ValidationError, match="pool"):
            pick_from_pool(pool, cfg, np.random.default_rng(0))

    def test_advances_rng_deterministically(self):
        pool = visual_pool(0, tuple(range(1, 9)))
        cfg = SamplerConfig(pool_size=8, picks_per_anchor=4)
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        assert pick_from_pool(pool, cfg, a) == pick_from_pool(pool, cfg, b)
        # same generator keeps moving
        assert pick_from_pool(pool, cfg, a) == pick_from_pool(pool, cfg, b)


class TestPlanEpoch:
    def test_random_strategy_is_seeded_permutation(self):
        records = records_at([(i, 0) for i in range(4)])
        cfg = SamplerConfig(batch_size=2, pool_size=2, picks_per_anchor=2, strategy="random")
        plan = plan_epoch(records, None, cfg, epoch=0, rng_state=np.random.default_rng(3))
        assert len(plan.batches) == 2
        flat = [i for batch in plan.batches for i in batch]
        assert sorted(flat) == [0, 1, 2, 3]
        expected = [int(i) for i in np.random.default_rng(3).permutation(4)]
        assert flat == expected

    def test_first_batch_is_anchor_plus_picks(self):
        rng = np.random.default_rng(10)
        records = records_at(rng.uniform(0, 100, size=(12, 2)))
        cfg = SamplerConfig(batch_size=5, pool_size=8, picks_per_anchor=4, strategy="gps")
        pools = build_geo_pools(records, cfg)
        plan = plan_epoch(records, pools, cfg, epoch=0, rng_state=np.random.default_rng(9))
        # replay the planner's stream: permutation first, then the picks
        replay = np.random.default_rng(9)
        order = replay.permutation(12)
        anchor = int(order[0])
        picks = pick_from_pool(pools[anchor], cfg, replay)
        assert list(plan.batches[0]) == [anchor] + picks

    def test_class_uniqueness_enforced(self):
        records = records_at(
            [(0, 0), (1, 0), (2, 0), (3, 0)], class_ids=["c1", "c1", "c2", "c3"]
        )
        cfg = SamplerConfig(batch_size=3, pool_size=2, picks_per_anchor=2, strategy="random")
        for seed in range(30):
            plan = plan_epoch(records, None, cfg, 0, np.random.default_rng(seed))
            for batch in plan.batches:
                classes = [records[i].class_id for i in batch]
                assert len(set(classes)) == len(classes)
            validate_plan(plan, records, cfg)

    def test_class_larger_than_the_batch_count_plans_more_batches(self):
        # c9 has three pairs, ceil(4 / 2) = 2: each c9 pair opens its own batch
        records = records_at(
            [(0, 0), (1, 0), (2, 0), (3, 0)], class_ids=["c9", "c9", "c9", "c2"]
        )
        cfg = SamplerConfig(batch_size=2, pool_size=2, picks_per_anchor=2, strategy="random")
        for seed in range(10):
            plan = plan_epoch(records, None, cfg, 0, np.random.default_rng(seed))
            assert len(plan.batches) >= 3
            validate_plan(plan, records, cfg)

    def test_exact_cover_many_seeds(self):
        rng = np.random.default_rng(0)
        records = records_at(rng.uniform(0, 100, size=(50, 2)))
        cfg = SamplerConfig(batch_size=8, pool_size=12, picks_per_anchor=6, strategy="gps")
        pools = build_geo_pools(records, cfg)
        for seed in range(25):
            plan = plan_epoch(records, pools, cfg, 0, np.random.default_rng(seed))
            validate_plan(plan, records, cfg)

    @pytest.mark.parametrize("batches, entry", [(((0, 7), (1, 2)), 7), (((-1, 2), (0, 1)), -1)])
    def test_entry_outside_records_named(self, batches, entry):
        # 7 used to end in a bare IndexError, -1 in "duplicate class in batch (-1, 2)"
        records = records_at([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(ValidationError,
                           match=rf"^batch entry {entry} outside \[0, 3\) in batch "):
            validate_plan(BatchPlan(0, batches, "random"), records, SamplerConfig(batch_size=2))

    def test_oversized_batch_named(self):
        records = records_at([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(ValidationError, match="^batch of 3 exceeds batch_size 2$"):
            validate_plan(BatchPlan(0, ((0, 1, 2),), "random"), records, SamplerConfig(batch_size=2))

    def test_repeated_class_named(self):
        records = records_at([(0, 0), (1, 0), (2, 0)], class_ids=["c0", "c1", "c0"])
        with pytest.raises(ValidationError, match=r"^duplicate class in batch \(0, 2\)$"):
            validate_plan(BatchPlan(0, ((0, 2), (1,)), "random"), records,
                          SamplerConfig(batch_size=2))

    def test_zero_records_rejected(self):
        cfg = SamplerConfig(strategy="random")
        with pytest.raises(ValidationError, match="^cannot plan an epoch over zero records$"):
            plan_epoch([], None, cfg, 0, plan_rng(cfg, 0))

    def test_pools_of_other_records_rejected(self):
        records = records_at([(x, 0) for x in range(5)])
        cfg = SamplerConfig(batch_size=2, pool_size=2, picks_per_anchor=2, strategy="gps")
        pools = build_geo_pools(records, cfg)
        with pytest.raises(ValidationError, match="^5 pools for 4 records$"):
            plan_epoch(records[:4], pools, cfg, 0, plan_rng(cfg, 0))

    def test_empty_batch_named(self, tmp_path):
        # read_plan and validate_plan both used to accept an empty batch
        path = tmp_path / "plan.jsonl"
        path.write_text("[0, 1]\n[]\n")
        with pytest.raises(ValidationError, match="^batch 1 is empty$"):
            validate_plan(read_plan(path), records_at([(0, 0), (1, 0)]), SamplerConfig(batch_size=2))

    @pytest.mark.parametrize("batches, fault", [
        (((0, 1), (2, 0), (3,)), "pair 0 is in batch 0 and batch 1"),
        (((0, 1), (3,), (1, 2)), "pair 1 is in batch 0 and batch 2"),
        (((0, 3), (3, 1), (0, 2)), "pair 3 is in batch 0 and batch 1"),  # the first repeat met
        (((0,), (3, 1)), "pair 2 is in no batch"),
        (((3,), (1,)), "pair 0 is in no batch"),
    ])
    def test_cover_fault_names_a_pair(self, batches, fault):
        records = records_at([(0, 0), (1, 0), (2, 0), (3, 0)])
        with pytest.raises(ValidationError,
                           match=f"^plan does not cover every pair exactly once: {fault}$"):
            validate_plan(BatchPlan(0, batches, "random"), records, SamplerConfig(batch_size=2))

    def test_identical_inputs_identical_plan(self):
        rng = np.random.default_rng(4)
        records = records_at(rng.uniform(0, 10, size=(20, 2)))
        cfg = SamplerConfig(batch_size=6, pool_size=8, picks_per_anchor=4, strategy="gps", seed=42)
        pools = build_geo_pools(records, cfg)
        p1 = plan_epoch(records, pools, cfg, 3, plan_rng(cfg, 3))
        p2 = plan_epoch(records, pools, cfg, 3, plan_rng(cfg, 3))
        assert p1 == p2

    @pytest.mark.parametrize("strategy", ["random", "gps", "dss"])
    def test_shared_classes_match_full_rescan(self, strategy):
        # 300 pairs in 30 classes of 10: top-ups skip many same-class entries
        rng = np.random.default_rng(6)
        records = records_at(rng.uniform(0, 100, size=(300, 2)),
                             class_ids=[f"c{i % 30}" for i in range(300)])
        cfg = SamplerConfig(batch_size=17, pool_size=32, picks_per_anchor=16, strategy=strategy)
        ids = tuple(r.id for r in records)
        table = l2_normalize(EmbeddingTable(rng.standard_normal((300, 6)), ids))
        pools = {"random": None, "gps": build_geo_pools(records, cfg),
                 "dss": build_sim_pools(table, table, cfg)}[strategy]
        indices = None if pools is None else [p.neighbor_indices for p in pools]
        for seed in range(5):
            plan = plan_epoch(records, pools, cfg, 0, np.random.default_rng(seed))
            expected = rescan_plan([r.class_id for r in records], indices, 17, 16,
                                   np.random.default_rng(seed))
            assert list(plan.batches) == expected

    @given(data=st.data(), strategy=st.sampled_from(["random", "gps", "dss"]),
           classes=st.sampled_from(["distinct", "shared", "one class too many"]))
    def test_drawn_shapes_match_full_rescan(self, data, strategy, classes):
        # every plan equals the oracle's, and the rng stream matches too: one
        # pick per batch under pools, drawn even when the anchor fills the batch
        n = data.draw(st.integers(2 if strategy == "random" else 3, 120), label="n")
        size = data.draw(st.integers(1, n + 1), label="batch_size")
        if classes == "distinct":
            class_ids = [f"c{i}" for i in range(n)]
        elif classes == "shared":
            class_ids = [f"c{i % max(1, n // 3)}" for i in range(n)]
        else:  # more pairs of class "big" than there are batches of full size
            big = min(n, -(-n // size) + 1)
            class_ids = ["big"] * big + [f"c{i}" for i in range(big, n)]
        picks = 2 * data.draw(st.integers(1, (n - 1) // 2), label="picks/2") if n > 2 else 2
        pool_size = data.draw(st.just(picks) | st.integers(picks, max(picks, n - 1)), label="K")
        cfg = SamplerConfig(batch_size=size, pool_size=pool_size, picks_per_anchor=picks,
                            strategy=strategy)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
        records = records_at(rng.uniform(0, 100, size=(n, 2)), class_ids=class_ids)
        ids = tuple(r.id for r in records)
        table = l2_normalize(EmbeddingTable(rng.standard_normal((n, 4)), ids))
        pools = {"random": lambda: None, "gps": lambda: build_geo_pools(records, cfg),
                 "dss": lambda: build_sim_pools(table, table, cfg)}[strategy]()
        indices = None if pools is None else [p.neighbor_indices for p in pools]
        calls = []

        def spy(pool, *args):
            calls.append(pool.anchor_index)
            return pick(pool, *args)

        pick = sampler.pick_from_pool
        for seed in data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
                              label="seeds"):
            calls.clear()
            sampler.pick_from_pool = spy
            try:
                plan = plan_epoch(records, pools, cfg, 0, np.random.default_rng(seed))
            finally:
                sampler.pick_from_pool = pick
            expected = rescan_plan(class_ids, indices, size, picks, np.random.default_rng(seed))
            assert list(plan.batches) == expected
            assert plan.strategy_used == strategy
            assert calls == ([] if pools is None else [batch[0] for batch in expected])

    def test_pool_kind_must_match_strategy(self):
        records = records_at([(0, 0), (1, 0), (2, 0)])
        cfg = SamplerConfig(batch_size=2, pool_size=2, picks_per_anchor=2, strategy="dss")
        geo_pools = build_geo_pools(records, cfg)
        with pytest.raises(ValidationError, match="visual"):
            plan_epoch(records, geo_pools, cfg, 0, np.random.default_rng(0))

    def test_pools_narrower_than_picks_rejected_before_planning(self):
        records = records_at([(i, 0) for i in range(6)])
        pools = build_geo_pools(records, SamplerConfig(pool_size=2, picks_per_anchor=2))
        cfg = SamplerConfig(batch_size=3, pool_size=4, picks_per_anchor=4, strategy="gps")
        with pytest.raises(ValidationError, match="2 entries per anchor, need picks_per_anchor=4"):
            plan_epoch(records, pools, cfg, 0, np.random.default_rng(0))

    def test_pools_required_unless_random(self):
        records = records_at([(0, 0), (1, 0), (2, 0)])
        cfg = SamplerConfig(batch_size=2, pool_size=2, picks_per_anchor=2, strategy="gps")
        with pytest.raises(ValidationError, match="requires pools"):
            plan_epoch(records, None, cfg, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("bad, first, message", [
        ([-1, -2], 0, "holds index -1, below 0"),
        ([-1, -2], 3, "holds index -1, below 0"),
        ([7, 9], 0, "holds index 7, outside the 6 records"),
        ([7, 9], 3, "holds index 7, outside the 6 records"),
        ([1.5, 2.25], 0, "holds float64, not integers"),
    ])
    def test_pool_entries_that_are_not_record_indices_rejected(self, bad, first, message):
        # [-1, -2] used to plan ((3, -1, -2), (2, 0, 1)), leaving pairs 4 and 5 in
        # no batch; [7, 9] ended in a bare IndexError, [1.5, 2.25] in a TypeError
        records = records_at([(i, 0) for i in range(6)])
        rows = [[(i + 1) % 6, (i + 2) % 6] if i < first else bad for i in range(6)]
        cfg = SamplerConfig(batch_size=3, pool_size=2, picks_per_anchor=2, strategy="gps")
        with pytest.raises(ValidationError, match=f"^pool for anchor {first} {re.escape(message)}$"):
            pools = Pools(np.array(rows), np.zeros((6, 2)), "geographic")
            plan_epoch(records, pools, cfg, 0, plan_rng(cfg, 0))


class TestStrategySchedule:
    def test_gps_then_dss_switches(self):
        cfg = SamplerConfig(strategy="gps_then_dss", gps_epochs=4)
        assert resolve_strategy(cfg, 0) == "gps"
        assert resolve_strategy(cfg, 3) == "gps"
        assert resolve_strategy(cfg, 4) == "dss"

    def test_refresh_cadence(self):
        cfg = SamplerConfig(strategy="gps_then_dss", gps_epochs=4, refresh_every=4)
        assert [e for e in range(14) if should_refresh(e, cfg)] == [4, 8, 12]
        assert not should_refresh(5, cfg)

    def test_random_never_refreshes(self):
        cfg = SamplerConfig(strategy="random")
        assert not any(should_refresh(e, cfg) for e in range(20))

    def test_negative_epoch_rejected(self):
        # plan_rng used to raise numpy's bare "expected non-negative integer",
        # and plan_epoch to plan epoch -1
        cfg = SamplerConfig(strategy="random")
        for use in (lambda: should_refresh(-1, cfg), lambda: plan_rng(cfg, -1),
                    lambda: plan_epoch(records_at([(0, 0)]), None, cfg, -1, plan_rng(cfg, 0))):
            with pytest.raises(ValidationError, match="^epoch=-1 must be >= 0$"):
                use()

    def test_pure_dss_refreshes_from_epoch_zero(self):
        cfg = SamplerConfig(strategy="dss", refresh_every=4)
        assert [e for e in range(10) if should_refresh(e, cfg)] == [0, 4, 8]


class TestPlanSerialization:
    def test_round_trip(self, tmp_path):
        plan = BatchPlan(epoch=2, batches=((0, 3, 1), (2, 4)), strategy_used="dss")
        path = tmp_path / "plan.jsonl"
        write_plan(plan, path)
        assert path.read_text() == "[0, 3, 1]\n[2, 4]\n"
        back = read_plan(path, epoch=2, strategy_used="dss")
        assert back == plan

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        for bad in ("not a batch", "[0.9, 2]", '[true, "3"]', '"12"'):
            path.write_text(f"[0, 1]\n{bad}\n")
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: "):
                read_plan(path)

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(b"[0, 1]\r[2, \xe9]\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: not UTF-8"):
            read_plan(path)

    def test_line_nested_too_deep_named(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        path.write_text("[0]\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}:2: maximum recursion depth"):
            read_plan(path)
