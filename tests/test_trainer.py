import json
import math
import re
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crossview.datasets import EmbeddingTable, SynthConfig, generate_synthetic, write_embeddings
from crossview import datasets, trainer
from crossview.errors import ValidationError
from crossview.losses import LossConfig, soft_margin_triplet_loss, triplet_loss
from crossview.sampler import SamplerConfig, build_geo_pools, build_sim_pools, plan_epoch
from crossview.trainer import (
    AXES,
    LOSS_KINDS,
    EncoderParams,
    TrainConfig,
    ablation_configs,
    adamw_init,
    adamw_step,
    encode,
    gradcheck,
    holdout_size,
    init_params,
    load_params,
    lr_at,
    save_params,
    train,
)

from oracles import LegacyStep, scalar_adamw

TINY_SAMPLER = SamplerConfig(
    batch_size=16, pool_size=8, picks_per_anchor=4, strategy="random", seed=0
)


def tiny_config(**kw):
    defaults = dict(
        epochs=2, warmup_epochs=1, lr_max=0.003, hidden_dim=64, embed_dim=8,
        sampler=TINY_SAMPLER, seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestEncoderParams:
    def test_shared_forbids_reference_set(self):
        rng = np.random.default_rng(0)
        p = init_params(rng, 4, 8, 3, shared_weights=False)
        with pytest.raises(ValidationError, match="theta must be"):
            EncoderParams(p.theta, 4, 8, 3, shared_weights=True)

    @pytest.mark.parametrize("shared", [True, False])
    def test_non_finite_entry_names_its_tensor(self, shared):
        params = init_params(np.random.default_rng(0), 4, 8, 3, shared)
        name = "q.b2" if shared else "r.b1"
        theta = params.theta.copy()
        theta[params.layout[name][0].start + 1] = np.nan
        with pytest.raises(ValidationError, match=f"^non-finite entries in parameter '{name}'$"):
            EncoderParams(theta, 4, 8, 3, shared)

    def test_separate_requires_reference_set(self):
        rng = np.random.default_rng(0)
        p = init_params(rng, 4, 8, 3)
        with pytest.raises(ValidationError, match="theta must be"):
            EncoderParams(p.theta, 4, 8, 3, shared_weights=False)

    def test_parameter_count_halves_when_shared(self):
        rng = np.random.default_rng(0)
        shared = init_params(rng, 4, 8, 3, shared_weights=True)
        separate = init_params(rng, 4, 8, 3, shared_weights=False)
        count = lambda *arrs: sum(a.size for a in arrs)
        n_shared = count(*shared.query)
        n_separate = count(*separate.query, *separate.reference)
        assert n_separate == 2 * n_shared
        # theta holds the encoders plus the one logit scale
        assert separate.theta.size - 1 == 2 * (shared.theta.size - 1)

    @pytest.mark.parametrize("shared", [True, False])
    def test_tensors_are_views_into_theta(self, shared):
        rng = np.random.default_rng(5)
        p = init_params(rng, 3, 4, 2, shared_weights=shared, logit_scale=1.5)
        encoders = [p.query] if shared else [p.query, p.reference]
        assert (p.reference is p.query) == shared
        assert (p.stacked is p.query) == shared
        assert all(a is b for a, b in zip((p.W1, p.b1, p.W2, p.b2), p.query, strict=True))
        for w in encoders:
            assert [t.shape for t in w] == [(3, 4), (4,), (4, 2), (2,)]
        np.testing.assert_array_equal(
            np.concatenate([t.ravel() for w in encoders for t in w] + [[1.5]]), p.theta
        )
        if not shared:  # each query tensor and its reference twin as one view
            assert [t.shape for t in p.stacked] == [(2, 3, 4), (2, 1, 4), (2, 4, 2), (2, 1, 2)]
            for stack, q, r in zip(p.stacked, p.query, p.reference, strict=True):
                np.testing.assert_array_equal(stack.reshape(2, *q.shape), np.stack((q, r)))
        assert all(np.shares_memory(t, p.theta) for t in p.stacked)
        p.theta[:] = 0.25  # an in-place change of theta moves both encoders and the stacks
        for w in (p.query, p.reference, p.stacked):
            assert all(np.all(t == 0.25) for t in w)
        assert p.logit_scale == 0.25

    @pytest.mark.parametrize("shared", [True, False])
    def test_init_draw_order(self, shared):
        # Glorot-normal matrices from one generator, the reference encoder
        # first; biases zero, the logit scale last
        d_in, d_h, d_out = 5, 7, 3
        p = init_params(np.random.default_rng(9), d_in, d_h, d_out, shared, logit_scale=1.5)
        rng = np.random.default_rng(9)
        order = [p.query] if shared else [p.reference, p.query]
        for W1, _, W2, _ in order:
            for W, (m, n) in ((W1, (d_in, d_h)), (W2, (d_h, d_out))):
                expected = rng.standard_normal((m, n)) * math.sqrt(2.0 / (m + n))
                np.testing.assert_array_equal(W, expected)
        for _, b1, _, b2 in order:
            assert not b1.any() and not b2.any()
        assert p.logit_scale == 1.5


class TestEncode:
    def test_zero_params_rejected(self):
        zeros = EncoderParams(np.zeros(3 * 4 + 4 + 4 * 2 + 2 + 1), 3, 4, 2)
        with pytest.raises(ValidationError, match="zero-norm"):
            encode(zeros, np.ones((2, 3)))

    def test_identity_weights_give_normalised_gelu(self):
        d = 4
        params = init_params(np.random.default_rng(0), d, d, d)
        params.W1[...] = np.eye(d)
        params.W2[...] = np.eye(d)
        x = np.array([[0.5, -0.25, 1.0, -1.5]])
        out = encode(params, x)
        # independent scalar gelu via math.erf
        g = [0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in x[0]]
        norm = math.sqrt(sum(v * v for v in g))
        np.testing.assert_allclose(out.data[0], [v / norm for v in g], atol=1e-6)

    def test_shared_weights_views_agree(self):
        rng = np.random.default_rng(1)
        params = init_params(rng, 5, 8, 4)
        x = rng.standard_normal((3, 5))
        q = encode(params, x, "query")
        r = encode(params, x, "reference")
        np.testing.assert_array_equal(q.data, r.data)

    def test_separate_weights_views_differ(self):
        rng = np.random.default_rng(2)
        params = init_params(rng, 5, 8, 4, shared_weights=False)
        x = rng.standard_normal((3, 5))
        assert not np.allclose(encode(params, x, "query").data,
                               encode(params, x, "reference").data)

    def test_inputs_not_2d_named(self):
        params = init_params(np.random.default_rng(4), 3, 4, 2)
        with pytest.raises(ValidationError, match=r"^inputs must be 2-D, got shape \(3,\)$"):
            encode(params, np.ones(3))

    def test_unknown_view_named(self):
        params = init_params(np.random.default_rng(4), 3, 4, 2)
        with pytest.raises(ValidationError,
                           match="^view must be 'query' or 'reference', got 'aerial'$"):
            encode(params, np.ones((2, 3)), "aerial")

    @pytest.mark.parametrize("view", ["query", "reference"])
    def test_input_width_named(self, view):
        params = init_params(np.random.default_rng(4), 6, 10, 5, shared_weights=False)
        with pytest.raises(ValidationError, match="input dim 7 does not match encoder d_in 6"):
            encode(params, np.ones((3, 7)), view)

    def test_row_ids_list_or_tuple_give_equal_tables(self):
        params = init_params(np.random.default_rng(5), 4, 6, 3)
        x = np.random.default_rng(6).standard_normal((2, 4))
        assert encode(params, x, row_ids=["a", "b"]) == encode(params, x, row_ids=("a", "b"))

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(3)
        params = init_params(rng, 6, 10, 5)
        out = encode(params, rng.standard_normal((7, 6)))
        np.testing.assert_allclose(
            np.linalg.norm(out.data.astype(np.float64), axis=1), 1.0, atol=1e-5
        )


class TestLrSchedule:
    def test_step_zero_is_zero(self):
        assert lr_at(0, 10, tiny_config(epochs=4)) == 0.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValidationError, match="^step must be >= 0$"):
            lr_at(-1, 10, tiny_config(epochs=4))

    def test_end_of_warmup_is_lr_max(self):
        cfg = tiny_config(epochs=4)
        assert lr_at(10, 10, cfg) == cfg.lr_max

    def test_final_step_is_zero(self):
        cfg = tiny_config(epochs=4)
        assert abs(lr_at(39, 10, cfg)) < 1e-12

    def test_continuous_at_warmup_boundary(self):
        cfg = tiny_config(epochs=4)
        left = lr_at(9, 10, cfg) + cfg.lr_max / 10
        right = lr_at(10, 10, cfg)
        assert abs(left - right) < 1e-12
        assert right == cfg.lr_max

    def test_single_step_without_warmup_is_lr_max(self):
        cfg = tiny_config(epochs=1, warmup_epochs=0)
        assert lr_at(0, 1, cfg) == cfg.lr_max

    def test_monotone_decay_after_warmup(self):
        cfg = tiny_config(epochs=5)
        values = [lr_at(s, 10, cfg) for s in range(10, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def unit_params(value):
    """A 1-1-1 encoder: theta = [W1, b1, W2, b2, logit_scale], all ``value``."""
    return EncoderParams(np.full(5, value), 1, 1, 1)


class TestAdamW:
    def test_zero_gradient_zero_decay_keeps_params(self):
        cfg = tiny_config(weight_decay=0.0)
        params = init_params(np.random.default_rng(0), 2, 3, 2)
        before = params.theta.copy()
        adamw_step(params, np.zeros_like(before), adamw_init(params), lr=0.1, cfg=cfg)
        np.testing.assert_array_equal(params.theta, before)

    def test_unit_gradient_scalar_recursion(self):
        cfg = tiny_config(beta1=0.0, beta2=0.0, weight_decay=0.01)
        params = unit_params(2.0)
        lr = 0.1
        adamw_step(params, np.ones(5), adamw_init(params), lr, cfg)
        undecayed = 2.0 - lr / (1.0 + cfg.eps)
        decayed = undecayed - lr * 0.01 * 2.0
        expected = [decayed, undecayed, decayed, undecayed, undecayed]
        np.testing.assert_allclose(params.theta, expected, rtol=1e-15)

    def test_hundred_steps_match_scalar_oracle(self):
        cfg = tiny_config(weight_decay=0.02)
        rng = np.random.default_rng(8)
        grads = rng.standard_normal(100)
        params = unit_params(0.7)
        state = adamw_init(params)
        for g in grads:
            adamw_step(params, np.full(5, g), state, 0.01, cfg)
        expected = scalar_adamw(0.7, grads.tolist(), 0.01, cfg.beta1, cfg.beta2,
                                cfg.eps, 0.02)
        assert float(params.W1[0, 0]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shared", [True, False])
    def test_each_entry_matches_scalar_oracle(self, shared):
        # weights decay, biases and the logit scale do not
        cfg = tiny_config(weight_decay=0.05)
        rng = np.random.default_rng(9)
        params = init_params(rng, 2, 3, 2, shared_weights=shared)
        start = params.theta.copy()
        grads = rng.standard_normal((30, start.size))
        state = adamw_init(params)
        for g in grads:
            adamw_step(params, g, state, 0.01, cfg)
        for i in range(start.size):
            name = params.name_at(i)
            wd = 0.05 if name.endswith((".W1", ".W2")) else 0.0
            expected = scalar_adamw(start[i], grads[:, i].tolist(), 0.01, cfg.beta1,
                                    cfg.beta2, cfg.eps, wd)
            assert params.theta[i] == pytest.approx(expected, abs=1e-12), name

    def test_decay_skipped_for_non_decay_keys(self):
        cfg = tiny_config(weight_decay=0.5)
        params = unit_params(10.0)
        adamw_step(params, np.zeros(5), adamw_init(params), 0.1, cfg)
        assert params.b1[0] == params.b2[0] == params.logit_scale == 10.0
        assert params.W1[0, 0] == params.W2[0, 0] < 10.0

    def test_non_finite_gradient_rejected(self):
        cfg = tiny_config()
        params = init_params(np.random.default_rng(0), 2, 3, 2)
        before = params.theta.copy()
        grad = np.zeros_like(before)
        grad[params.layout["q.W2"][0].start + 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite gradient for parameter 'q.W2'"):
            adamw_step(params, grad, adamw_init(params), 0.1, cfg)
        np.testing.assert_array_equal(params.theta, before)

    def test_non_finite_gradient_leaves_state_unchanged(self):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        params = init_params(rng, 2, 3, 2, shared_weights=False)
        state = adamw_init(params)
        adamw_step(params, rng.standard_normal(params.theta.size), state, 0.1, cfg)
        before = [params.theta.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step]
        grad = rng.standard_normal(params.theta.size)
        grad[params.layout["r.b1"][0].start] = np.nan
        with pytest.raises(ValidationError, match="non-finite gradient for parameter 'r.b1'"):
            adamw_step(params, grad, state, 0.1, cfg)
        after = [params.theta.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step]
        assert after == before

    def test_moments_updated_in_place(self):
        cfg = tiny_config()
        rng = np.random.default_rng(4)
        params = init_params(rng, 2, 3, 2)
        state = adamw_init(params)
        m, v = state.m, state.v
        adamw_step(params, rng.standard_normal(params.theta.size), state, 0.1, cfg)
        assert state.m is m and state.v is v
        assert np.all(m != 0) and np.all(v > 0)


class TestGradcheck:
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_random_init_passes(self, shared, eps):
        cfg = tiny_config(hidden_dim=12, embed_dim=5, shared_weights=shared,
                          loss=LossConfig(label_smoothing=eps))
        report = gradcheck(cfg, n=6, d_in=8, seed=1)
        assert report["max"] <= 1e-6

    @pytest.mark.parametrize("n", [1, 0])
    def test_single_pair_rejected(self, n):
        # one pair has no in-batch negative, so both gradients vanish and a
        # report would pass a check never made
        cfg = tiny_config(hidden_dim=8, embed_dim=4, loss=LossConfig(label_smoothing=0.0))
        with pytest.raises(ValidationError, match=f"n={n}"):
            gradcheck(cfg, n=n, d_in=6, seed=2)

    def test_corrupted_gradient_detected(self, monkeypatch):
        cfg = tiny_config(hidden_dim=12, embed_dim=5)
        objective = trainer._batch_objective

        def corrupted(params, *args):
            loss, grad = objective(params, *args)
            grad[params.layout["q.W1"][0]] *= 1.05
            return loss, grad

        monkeypatch.setattr(trainer, "_batch_objective", corrupted)
        report = gradcheck(cfg, n=6, d_in=8, seed=3)
        assert report["max"] > 1e-2


def scattered_objective(params, X2, loss_kind, margin):
    """The triplet objectives with each anchor's negative gathered through an
    index array and its gradient scattered back by np.add.at."""
    U, cache = trainer._forward(params.stacked, X2)
    Q, R = U
    neg = np.roll(np.arange(len(Q)), -1)
    if loss_kind == "triplet":
        out = triplet_loss(Q, R, R[neg], margin=margin)
    else:
        out = soft_margin_triplet_loss(Q, R, R[neg])
    dR = out.grad_references.copy()
    np.add.at(dR, neg, out.grad_negatives)
    per_view = np.empty((2, (params.theta.size - 1) // (1 if params.shared_weights else 2)))
    trainer._backward(params.stacked, cache, np.array((out.grad_queries, dR)),
                      trainer._view_pairs(per_view, params.layout))
    encoders = per_view[0] + per_view[1] if params.shared_weights else per_view.ravel()
    return out.loss, np.append(encoders, 0.0)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("loss_kind", LOSS_KINDS[1:])
@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_triplet_negatives_roll_as_they_scattered(shared, loss_kind, n):
    # the rolled negatives' gradient, added one row down, has the bits of
    # np.add.at over the index array, also where two references are equal
    loss_cfg = LossConfig()
    for seed in range(3):
        params = init_params(np.random.default_rng([n, seed]), 6, 8, 4, shared)
        X2 = np.random.default_rng([n, seed, 1]).standard_normal((2, n, 6))
        X2[1, -1] = X2[1, 0]  # a repeated reference row
        loss, grad = trainer._batch_objective(params, X2, loss_cfg, loss_kind)
        expected_loss, expected = scattered_objective(params, X2, loss_kind,
                                                      loss_cfg.triplet_margin)
        assert loss == expected_loss
        assert grad.tobytes() == expected.tobytes()


class TestStepBudget:
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_estimate_bounds_a_measured_step(self, shared, loss_kind):
        # tracemalloc sees numpy's buffers: the peak of one step, traced after
        # a first step has imported what the forward pass needs
        cfg = tiny_config(hidden_dim=48, embed_dim=6, loss_kind=loss_kind, shared_weights=shared)
        params = init_params(np.random.default_rng(0), 10, 48, 6, shared)
        state = adamw_init(params)
        X2 = np.random.default_rng(1).standard_normal((2, 300, 10)).astype(np.float32)

        def step():
            _, grad = trainer._batch_objective(params, X2.astype(np.float64), cfg.loss,
                                               loss_kind)
            adamw_step(params, grad, state, 1e-3, cfg)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= trainer.step_bytes(10, cfg, 300)

    def test_logit_buffers_count_for_infonce_alone(self):
        # 27,000 rows: about 41 GB of InfoNCE logits, a few hundred MB for triplets
        cfg = TrainConfig()
        assert trainer.step_bytes(64, cfg, 27_000) > datasets.HEAP_BUDGET_BYTES
        for kind in LOSS_KINDS[1:]:
            assert trainer.step_bytes(64, replace(cfg, loss_kind=kind), 27_000) < 1 << 30

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("hidden, embed, d_in", [(48, 6, 10), (8, 32, 64), (1, 1, 1)])
    def test_pass_estimate_bounds_traced_passes(self, shared, hidden, embed, d_in):
        # a DSS refresh's encode of one view, and the held-out pass over a
        # stack of both views, each of 3000 rows in all
        cfg = tiny_config(hidden_dim=hidden, embed_dim=embed, shared_weights=shared)
        params = init_params(np.random.default_rng(0), d_in, hidden, embed, shared)
        X2 = np.random.default_rng(1).standard_normal((2, 1500, d_in)).astype(np.float32)
        encode(params, X2[0])  # imports what the forward pass needs
        for run in (lambda: encode(params, X2.reshape(3000, d_in), "reference"),
                    lambda: trainer._forward(params.stacked, X2.astype(np.float64))):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= trainer.pass_bytes(d_in, cfg, 3000)

    @staticmethod
    def pairs(n):
        return generate_synthetic(SynthConfig(n_pairs=n, latent_dim=4, view_dim=64,
                                              n_semi_positives=0))

    def test_over_budget_held_out_pass_named_before_training(self, monkeypatch):
        # 30,000 random pairs: one step at train.hidden_dim=30000 fits, the
        # held-out pass over 2 x 3000 rows (4.03 GiB) does not
        monkeypatch.setattr(trainer, "init_params", None)  # must not start
        cfg = TrainConfig(hidden_dim=30_000, sampler=SamplerConfig(strategy="random"))
        assert trainer.step_bytes(64, cfg, 128) < datasets.HEAP_BUDGET_BYTES
        with pytest.raises(ValidationError, match=r"^30000 pairs with train\.hidden_dim=30000: "
                           r"the held-out pass over 3000 pairs' two views needs about "
                           r"[\d,]+ bytes, over the budget of 4,294,967,296 bytes$"):
            train(*self.pairs(30_000), cfg)

    @pytest.mark.parametrize("strategy, gps_epochs, refused", [
        ("dss", 0, True), ("gps_then_dss", 39, True), ("gps_then_dss", 40, False),
        ("gps", 0, False), ("random", 0, False)])
    def test_dss_refresh_counted_when_dss_runs(self, monkeypatch, strategy, gps_epochs, refused):
        # 27,000 training pairs at train.hidden_dim=20000: each refresh's
        # encode (12.1 GiB) is over the budget, the held-out pass (2.7 GiB) is not
        class Started(Exception):
            pass

        def init_params(*args):
            raise Started  # every check passed

        monkeypatch.setattr(trainer, "init_params", init_params)
        cfg = TrainConfig(hidden_dim=20_000, sampler=SamplerConfig(
            strategy=strategy, gps_epochs=gps_epochs))
        if not refused:
            with pytest.raises(Started):
                train(*self.pairs(30_000), cfg)
            return
        with pytest.raises(ValidationError, match=r"^30000 pairs with train\.hidden_dim=20000: "
                           r"a DSS refresh's encode of 27000 training pairs needs about "
                           r"[\d,]+ bytes, over the budget of 4,294,967,296 bytes$"):
            train(*self.pairs(30_000), cfg)

    def test_dss_refresh_encodes_under_the_tables_ids(self, monkeypatch):
        # each refresh names its rows by the training pairs' own ids
        records, q, r = separable_data(n=40)
        seen = []

        def spy(params, inputs, view="query", row_ids=None):
            seen.append((view, row_ids))
            return encode(params, inputs, view, row_ids)

        monkeypatch.setattr(trainer, "encode", spy)
        cfg = tiny_config(epochs=3, sampler=SamplerConfig(
            batch_size=8, pool_size=4, picks_per_anchor=2, strategy="dss", refresh_every=2))
        train(records, q, r, cfg)
        ids = q.row_ids[:36]
        assert seen == [("query", ids), ("reference", ids)] * 2


def separable_data(n=60, noise=0.0, seed=1, view_dim=8):
    # region_within=1 gives independent latents: separability depends only
    # on the noise level
    cfg = SynthConfig(n_pairs=n, latent_dim=4, view_dim=view_dim, noise_sigma=noise,
                      map_extent_m=100.0, region_within=1.0, seed=seed)
    return generate_synthetic(cfg)


class TestTrain:
    def test_single_epoch_smoke(self):
        records, q, r = separable_data()
        cfg = tiny_config(epochs=1, warmup_epochs=0)
        result = train(records, q, r, cfg)
        assert len(result.history) == 1
        assert math.isfinite(result.history[0]["loss"])

    def test_separable_data_reaches_perfect_recall(self):
        records, q, r = separable_data(noise=0.0)
        cfg = tiny_config(epochs=20)
        result = train(records, q, r, cfg)
        assert result.history[-1]["r1"] == 1.0

    def test_same_seed_identical_history(self):
        records, q, r = separable_data(noise=0.3)
        cfg = tiny_config(epochs=3)
        a = train(records, q, r, cfg)
        b = train(records, q, r, cfg)
        assert a.history == b.history
        assert a.plans == b.plans

    def test_loss_decreases_in_median_over_seeds(self):
        records, q, r = separable_data(noise=0.2)
        first, later = [], []
        for seed in range(5):
            cfg = tiny_config(epochs=5, seed=seed,
                              sampler=SamplerConfig(batch_size=16, pool_size=8,
                                                    picks_per_anchor=4,
                                                    strategy="random", seed=seed))
            history = train(records, q, r, cfg).history
            first.append(history[0]["loss"])
            later.append(history[-1]["loss"])
            assert all(math.isfinite(h["loss"]) for h in history)
        assert statistics.median(later) < statistics.median(first)

    def test_gps_then_dss_full_pipeline(self):
        records, q, r = separable_data(n=80, noise=0.2)
        cfg = tiny_config(
            epochs=6,
            sampler=SamplerConfig(batch_size=16, pool_size=8, picks_per_anchor=4,
                                  gps_epochs=2, refresh_every=2,
                                  strategy="gps_then_dss", seed=0),
        )
        result = train(records, q, r, cfg)
        assert [p.strategy_used for p in result.plans] == ["gps"] * 2 + ["dss"] * 4

    @pytest.mark.parametrize("n_classes", [10, 20])
    def test_schedule_runs_in_each_plan_length(self, monkeypatch, n_classes):
        # shared classes stretch epochs past ceil(54 / 16) = 4 batches: 10
        # classes hold up to 6 of the 54 training pairs each, 20 classes vary
        # the plans' lengths; the schedule follows each epoch's own plan
        records, q, r = separable_data(noise=0.3)
        records = [replace(rec, class_id=f"c{i % n_classes}") for i, rec in enumerate(records)]
        lrs = []
        adamw_step = trainer.adamw_step

        def recording(params, grad, state, lr, cfg):
            lrs.append(lr)
            return adamw_step(params, grad, state, lr, cfg)

        monkeypatch.setattr(trainer, "adamw_step", recording)
        cfg = tiny_config(epochs=4)
        result = train(records, q, r, cfg)
        lengths = [len(plan.batches) for plan in result.plans]
        assert max(lengths) > 4 and len(lrs) == sum(lengths)
        assert lrs[sum(lengths[:cfg.warmup_epochs])] == cfg.lr_max
        assert lrs[-1] == result.history[-1]["lr"] == 0.0
        assert lrs[0] == 0.0 and all(lr > 0.0 for lr in lrs[1:-1])

    @pytest.mark.parametrize("loss_kind", ["triplet", "soft_margin_triplet"])
    def test_triplet_losses_skip_lone_pairs(self, monkeypatch, loss_kind):
        # 22 training pairs in batches of 3 leave a lone pair, which has no
        # in-batch negative: it takes no step, adds no loss and sets no lr
        records, q, r = separable_data(n=24, noise=0.2)
        losses, lrs = [], []
        objective, adamw_step = trainer._batch_objective, trainer.adamw_step

        def objective_spy(*args):
            loss, grad = objective(*args)
            losses.append(loss)
            return loss, grad

        def step_spy(params, grad, state, lr, cfg):
            lrs.append(lr)
            return adamw_step(params, grad, state, lr, cfg)

        monkeypatch.setattr(trainer, "_batch_objective", objective_spy)
        monkeypatch.setattr(trainer, "adamw_step", step_spy)
        cfg = tiny_config(epochs=3, loss_kind=loss_kind,
                          sampler=replace(TINY_SAMPLER, batch_size=3))
        result = train(records, q, r, cfg)
        start = 0  # the epoch's first step
        for plan, record in zip(result.plans, result.history, strict=True):
            stepped = [i for i, batch in enumerate(plan.batches) if len(batch) > 1]
            assert len(stepped) < len(plan.batches)  # the plan holds a lone pair
            end = start + len(stepped)
            offset = plan.epoch * len(plan.batches)
            assert lrs[start:end] == [lr_at(offset + i, len(plan.batches), cfg) for i in stepped]
            assert record["loss"] == float(np.mean(losses[start:end]))
            assert record["lr"] == lrs[end - 1]
            start = end
        assert len(losses) == len(lrs) == start

    def test_triplet_loss_kind_runs(self):
        records, q, r = separable_data(noise=0.2)
        cfg = tiny_config(epochs=2, loss_kind="triplet")
        result = train(records, q, r, cfg)
        assert all(math.isfinite(h["loss"]) for h in result.history)

    def test_separate_encoder_runs(self):
        records, q, r = separable_data(noise=0.2)
        cfg = tiny_config(epochs=2, shared_weights=False)
        result = train(records, q, r, cfg)
        assert not result.params.shared_weights
        assert result.params.reference is not result.params.query

    def test_two_pairs_leave_one_for_training(self):
        records, q, r = generate_synthetic(SynthConfig(n_pairs=2, latent_dim=2, view_dim=4,
                                                       n_semi_positives=0))
        with pytest.raises(ValidationError, match="^2 pairs leave only 1 for training$"):
            train(records, q, r, tiny_config())

    def test_feature_alignment_checked(self):
        records, q, r = separable_data()
        cfg = tiny_config()
        with pytest.raises(ValidationError, match=rf"{len(q.row_ids)} query feature rows for "
                                                  rf"{len(records) - 1} manifest records"):
            train(records[:-1], q, r, cfg)

    def test_feature_widths_named(self):
        records, q, r = separable_data()
        narrow = EmbeddingTable(r.data[:, :-1], r.row_ids)
        with pytest.raises(ValidationError, match="must share a dimension: "
                                                  f"query {q.dim}, reference {q.dim - 1}$"):
            train(records, q, narrow, tiny_config())

    def test_holdout_record_without_holdout_positive_rejected(self):
        records, q, r = separable_data()
        records[-1] = replace(records[-1], positives=(records[0].id,), semi_positives=())
        with pytest.raises(ValidationError, match=f"{records[-1].id}.*no positives inside"):
            train(records, q, r, tiny_config(epochs=1, warmup_epochs=0))

    def test_logit_scale_clamped(self):
        records, q, r = separable_data(noise=0.2)
        cfg = tiny_config(epochs=2, loss=LossConfig(logit_scale=4.6))
        result = train(records, q, r, cfg)
        assert result.loss_config.logit_scale <= result.loss_config.logit_scale_max
        assert result.params.logit_scale == result.loss_config.logit_scale

    @pytest.mark.parametrize("n_semi", [0, 3])
    def test_holdout_report_is_the_last_epoch(self, n_semi):
        # 20 held-out pairs: with 3 semi-positives each, some stay in the slice
        cfg = SynthConfig(n_pairs=200, latent_dim=4, view_dim=8, noise_sigma=0.3,
                          map_extent_m=100.0, n_semi_positives=n_semi, seed=1)
        records, q, r = generate_synthetic(cfg)
        result = train(records, q, r, tiny_config(epochs=3))
        report = result.holdout
        assert report.recall_at[1] == result.history[-1]["r1"]
        assert report.n_queries == report.n_references == holdout_size(len(records))
        held_out = records[len(records) - holdout_size(len(records)):]
        held_ids = {rec.id for rec in held_out}
        keeps_semis = any(set(rec.semi_positives) & held_ids for rec in held_out)
        assert keeps_semis == (n_semi > 0)
        assert (report.hit_rate is not None) == keeps_semis

    @pytest.mark.parametrize("strategy, gps_epochs, expected", [
        ("random", 2, []),
        ("gps", 2, [("geo", 0)]),
        ("dss", 2, [("sim", 0), ("sim", 2), ("sim", 4)]),
        ("gps_then_dss", 0, [("sim", 0), ("sim", 2), ("sim", 4)]),
        ("gps_then_dss", 2, [("geo", 0), ("sim", 2), ("sim", 4)]),
        ("gps_then_dss", 6, [("geo", 0)]),
    ])
    def test_pool_builds_follow_the_schedule(self, monkeypatch, strategy, gps_epochs, expected):
        # every pool build as (kind, epoch), over 6 epochs with refresh_every=2
        builds, planned = [], []
        monkeypatch.setattr(trainer, "build_geo_pools",
                            lambda *a: builds.append(("geo", len(planned))) or build_geo_pools(*a))
        monkeypatch.setattr(trainer, "build_sim_pools",
                            lambda *a: builds.append(("sim", len(planned))) or build_sim_pools(*a))
        monkeypatch.setattr(trainer, "plan_epoch", lambda *a: planned.append(a) or plan_epoch(*a))
        records, q, r = separable_data(n=80, noise=0.2)
        cfg = tiny_config(epochs=6, sampler=SamplerConfig(
            batch_size=16, pool_size=8, picks_per_anchor=4, gps_epochs=gps_epochs,
            refresh_every=2, strategy=strategy, seed=0))
        train(records, q, r, cfg)
        assert builds == expected
        assert len(planned) == 6


@pytest.mark.parametrize("axis", ["strategy", "loss"])
def test_ablation_configs(axis):
    base = tiny_config(seed=3, sampler=replace(TINY_SAMPLER, seed=7), loss_kind="triplet")
    grid = ablation_configs(base, axis, 2)

    def fields_of(cfg):
        return {**{f"train.{k}": v for k, v in vars(cfg).items() if k != "sampler"},
                **{f"sampler.{k}": v for k, v in vars(cfg.sampler).items()}}

    field = {"strategy": "sampler.strategy", "loss": "train.loss_kind"}[axis]
    assert list(grid) == list(AXES[axis])
    for value, configs in grid.items():  # list index s is seed offset s
        assert [fields_of(c)[field] for c in configs] == [value, value]
        assert [(c.seed, c.sampler.seed) for c in configs] == [(3, 7), (4, 8)]
        for cfg in configs:  # only the axis field and the two seeds move
            moved = {k for k, v in fields_of(base).items() if fields_of(cfg)[k] != v}
            assert moved <= {field, "train.seed", "sampler.seed"}
    with pytest.raises(ValidationError, match="axis"):
        ablation_configs(base, "lr_max", 2)
    with pytest.raises(ValidationError, match="seeds"):
        ablation_configs(base, axis, 0)


# (pairs, d_in, epochs, settings): small widths and batches of 4; and the
# desk recipe's widths and batches of 17 (configs/ablate.cfg), over 90
# training pairs, so each epoch ends in a batch of 5
LEGACY_SHAPES = {
    "tiny": (60, 8, 15, dict(hidden_dim=12, embed_dim=5, sampler=replace(TINY_SAMPLER,
                                                                         batch_size=4))),
    "desk": (100, 64, 34, dict(hidden_dim=64, embed_dim=6, lr_max=0.002,
                               sampler=replace(TINY_SAMPLER, batch_size=17))),
}


@pytest.mark.parametrize("eps, shared, shapes", [
    *(pytest.param(eps, shared, "tiny", id=f"{eps}-{shared}")
      for shared in (True, False) for eps in (0.0, 0.1)),
    *(pytest.param(0.1, shared, "desk", id=f"desk-{shared}") for shared in (True, False)),
])
def test_train_matches_legacy_step_bit_for_bit(shared, eps, shapes):
    # the optimised step must reproduce the plain numpy step's every bit
    n, d_in, epochs, settings = LEGACY_SHAPES[shapes]
    records, q, r = separable_data(n=n, noise=0.3, seed=5, view_dim=d_in)
    cfg = tiny_config(epochs=epochs, shared_weights=shared, weight_decay=0.05,
                      loss=LossConfig(label_smoothing=eps), **settings)
    result = train(records, q, r, cfg)

    n_train = len(records) - holdout_size(len(records))
    Xq, Xr = q.data.astype(np.float64)[:n_train], r.data.astype(np.float64)[:n_train]
    start = init_params(np.random.default_rng([cfg.seed, 0]), q.dim, cfg.hidden_dim,
                        cfg.embed_dim, shared, cfg.loss.logit_scale)
    legacy = LegacyStep(start.theta, q.dim, cfg.hidden_dim, cfg.embed_dim, shared,
                        cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
    step = 0
    for plan, record in zip(result.plans, result.history, strict=True):
        losses = []
        steps = len(plan.batches)  # each plan's own length sets the schedule
        for i, batch in enumerate(plan.batches):
            idx = list(batch)
            losses.append(legacy.step(Xq[idx], Xr[idx], lr_at(plan.epoch * steps + i, steps, cfg),
                                      eps, cfg.loss.logit_scale_max))
        step += steps
        assert float(np.mean(losses)) == record["loss"]
    assert step >= 200
    assert result.params.theta.tobytes() == legacy.theta.tobytes()


def test_one_stacked_forward_pass_per_step_and_epoch(monkeypatch):
    # each step encodes both views of its batch in one call, and so does
    # each epoch's held-out pass
    records, q, r = separable_data()
    shapes = []
    forward = trainer._forward

    def counted(w, X):
        shapes.append(X.shape)
        return forward(w, X)

    monkeypatch.setattr(trainer, "_forward", counted)
    cfg = tiny_config(epochs=3)
    result = train(records, q, r, cfg)
    steps = sum(len(plan.batches) for plan in result.plans)
    assert len(shapes) == steps + cfg.epochs
    assert all(len(shape) == 3 and shape[0] == 2 for shape in shapes)


class TestParamsIO:
    @pytest.mark.parametrize("shared", [True, False])
    def test_round_trip(self, tmp_path, shared):
        rng = np.random.default_rng(4)
        params = init_params(rng, 5, 8, 4, shared_weights=shared, logit_scale=1.25)
        save_params(params, tmp_path / "params")
        loaded = load_params(tmp_path / "params")
        assert loaded.logit_scale == 1.25
        assert loaded.shared_weights == shared
        # float32 storage bounds the round-trip error
        np.testing.assert_allclose(loaded.theta, params.theta, atol=1e-6)
        np.testing.assert_allclose(loaded.W1, params.W1, atol=1e-6)
        np.testing.assert_allclose(loaded.b2, params.b2, atol=1e-6)
        for got, want in zip(loaded.reference, params.reference, strict=True):
            np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("shared", [True, False])
    def test_directory_holds_theta_bit_for_bit(self, tmp_path, shared):
        params = init_params(np.random.default_rng(6), 5, 8, 4, shared, logit_scale=1.3)
        save_params(params, tmp_path / "params")
        assert sorted(f.name for f in (tmp_path / "params").iterdir()) == [
            "header.json", "theta.emb", "theta.emb.ids"]
        loaded = load_params(tmp_path / "params")
        expected = np.append(params.theta[:-1].astype(np.float32).astype(np.float64), 1.3)
        assert loaded.theta.tobytes() == expected.tobytes()
        assert (loaded.d_in, loaded.d_hidden, loaded.d_out) == (5, 8, 4)

    def test_header_without_key_named(self, tmp_path):
        save_params(init_params(np.random.default_rng(0), 5, 8, 4), tmp_path)
        header = json.loads((tmp_path / "header.json").read_text())
        del header["d_in"]
        (tmp_path / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValidationError, match="d_in"):
            load_params(tmp_path)

    def test_header_with_unknown_key_named(self, tmp_path):
        # a misspelt key used to be dropped, so "shared_weight": false loaded shared weights
        save_params(init_params(np.random.default_rng(0), 5, 8, 4), tmp_path)
        header = json.loads((tmp_path / "header.json").read_text())
        (tmp_path / "header.json").write_text(json.dumps({**header, "shared_weight": False}))
        with pytest.raises(ValidationError,
                           match=rf"^{re.escape(str(tmp_path))}/header\.json: "
                                 r"unknown key 'shared_weight'$"):
            load_params(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("d_in", "5"), ("d_in", 5.0), ("d_hidden", True), ("d_out", 0),
        ("shared_weights", "false"), ("shared_weights", 1),
        ("logit_scale", None), ("logit_scale", "1.5"), ("logit_scale", float("nan")),
        ("logit_scale", False), pytest.param("logit_scale", 10**400, id="logit_scale-10**400"),
    ])
    def test_header_value_of_wrong_type_named(self, tmp_path, key, value):
        save_params(init_params(np.random.default_rng(0), 5, 8, 4), tmp_path)
        header = json.loads((tmp_path / "header.json").read_text())
        header[key] = value
        (tmp_path / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValidationError, match=rf"header\.json: {key}=.* must be"):
            load_params(tmp_path)

    def test_truncated_header_rejected(self, tmp_path):
        save_params(init_params(np.random.default_rng(0), 5, 8, 4), tmp_path)
        text = (tmp_path / "header.json").read_text()
        (tmp_path / "header.json").write_text(text[: len(text) // 2])
        with pytest.raises(ValidationError, match=r"header\.json: not valid JSON"):
            load_params(tmp_path)

    @pytest.mark.parametrize("text, named", [
        (b"{\"d_in\": \"\xff\"}", ":1: not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, ": not valid JSON"),
    ], ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_header_named(self, tmp_path, text, named):
        save_params(init_params(np.random.default_rng(0), 5, 8, 4), tmp_path)
        (tmp_path / "header.json").write_bytes(text)
        with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / 'header.json'}{named}")):
            load_params(tmp_path)

    def test_repeated_key_named(self, tmp_path):
        # the last d_in used to win, so this header loaded as d_in = 5
        save_params(init_params(np.random.default_rng(0), 5, 8, 4), tmp_path)
        path = tmp_path / "header.json"
        path.write_text(path.read_text().replace('"d_in": 5,', '"d_in": 6,\n  "d_in": 5,'))
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: .*repeated key 'd_in'"):
            load_params(tmp_path)

    def test_header_not_an_object_rejected(self, tmp_path):
        save_params(init_params(np.random.default_rng(0), 5, 8, 4), tmp_path)
        (tmp_path / "header.json").write_text("[5, 8, 4]")
        with pytest.raises(ValidationError, match=r"header\.json: expected a JSON object"):
            load_params(tmp_path)

    def test_theta_of_wrong_width_rejected(self, tmp_path):
        params = init_params(np.random.default_rng(0), 5, 8, 4)
        save_params(params, tmp_path)
        short = EmbeddingTable(params.theta[None, :-2], ("theta",))  # one weight short
        write_embeddings(short, tmp_path / "theta.emb")
        with pytest.raises(ValidationError, match="theta must be"):
            load_params(tmp_path)

    def test_theta_of_several_rows_rejected(self, tmp_path):
        # 26 weights plus the logit scale: a 13 x 2 theta.emb holds 26 values,
        # the right count, but save_params always writes one row
        params = init_params(np.random.default_rng(0), 3, 4, 2)
        save_params(params, tmp_path)
        rows = EmbeddingTable(params.theta[:-1].reshape(13, 2), tuple(map(str, range(13))))
        write_embeddings(rows, tmp_path / "theta.emb")
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"{tmp_path / 'theta.emb'}: theta must be one row, got 13")):
            load_params(tmp_path)
