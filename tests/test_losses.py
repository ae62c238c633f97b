import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossview import losses
from crossview.errors import ValidationError
from crossview.losses import (
    LossConfig,
    clamp_logit_scale,
    info_nce,
    soft_margin_triplet_loss,
    triplet_loss,
)
from oracles import legacy_info_nce


def unit(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def fd_check(loss_fn, arrays, analytic, step=1e-5, tol=1e-6):
    """Max relative error of analytic grads vs central differences."""
    worst = 0.0
    for a_idx, x in enumerate(arrays):
        numeric = np.zeros_like(x)
        for i in range(x.size):
            orig = x.flat[i]
            x.flat[i] = orig + step
            up = loss_fn()
            x.flat[i] = orig - step
            down = loss_fn()
            x.flat[i] = orig
            numeric.flat[i] = (up - down) / (2 * step)
        a = analytic[a_idx]
        denom = max(np.abs(a).max(), np.abs(numeric).max(), 1e-10)
        worst = max(worst, float(np.abs(a - numeric).max() / denom))
    assert worst <= tol, f"finite-difference mismatch: {worst:.3e}"


class TestInfoNce:
    def test_single_pair_zero_loss_and_grads(self):
        q = np.array([[1.0, 0.0]])
        r = np.array([[0.0, 1.0]])
        out = info_nce(q, r, LossConfig(label_smoothing=0.0))
        assert out.loss == 0.0
        np.testing.assert_array_equal(out.grad_queries, 0.0)
        np.testing.assert_array_equal(out.grad_references, 0.0)
        assert out.grad_logit_scale == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_uniform_logits_give_ln_n(self, eps):
        q = np.tile([[1.0, 0.0]], (2, 1))
        r = np.tile([[0.0, 1.0]], (2, 1))
        out = info_nce(q, r, LossConfig(label_smoothing=eps))
        assert out.loss == pytest.approx(math.log(2), abs=1e-12)

    def test_identity_similarity_closed_form(self):
        cfg = LossConfig(label_smoothing=0.0, logit_scale=0.0)
        out = info_nce(np.eye(2), np.eye(2), cfg)
        assert out.loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

    def test_logit_scale_argument_overrides_config(self):
        rng = np.random.default_rng(1)
        q, r = unit(rng, 5, 3), unit(rng, 5, 3)
        given_arg = info_nce(q, r, LossConfig(), logit_scale=1.7)
        from_cfg = info_nce(q, r, LossConfig(logit_scale=1.7))
        assert given_arg.loss == from_cfg.loss
        assert given_arg.grad_logit_scale == from_cfg.grad_logit_scale
        np.testing.assert_array_equal(given_arg.grad_queries, from_cfg.grad_queries)
        np.testing.assert_array_equal(given_arg.grad_references, from_cfg.grad_references)

    def test_symmetric_is_mean_of_directions(self):
        rng = np.random.default_rng(0)
        q, r = unit(rng, 6, 4), unit(rng, 6, 4)
        l_qr = info_nce(q, r, LossConfig(direction="query_to_ref")).loss
        l_rq = info_nce(q, r, LossConfig(direction="ref_to_query")).loss
        l_sym = info_nce(q, r, LossConfig(direction="symmetric")).loss
        assert l_sym == 0.5 * (l_qr + l_rq)

    @given(st.integers(0, 10_000))
    def test_symmetric_invariant_under_joint_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        q, r = unit(rng, n, 3), unit(rng, n, 3)
        perm = rng.permutation(n)
        cfg = LossConfig()
        assert info_nce(q[perm], r[perm], cfg).loss == pytest.approx(
            info_nce(q, r, cfg).loss, abs=1e-12
        )

    @staticmethod
    def embed_similarity(sim):
        """Unit-row Q, R with Q @ R.T == sim (needs column norms < 1)."""
        n = sim.shape[0]
        q = np.hstack([np.eye(n), np.zeros((n, 1))])
        pad = np.sqrt(1.0 - (sim**2).sum(axis=0))
        r = np.hstack([sim.T, pad[:, None]])
        return q, r

    def test_loss_decreases_with_diagonal_similarity(self):
        # raise the diagonal, hold every off-diagonal entry fixed
        rng = np.random.default_rng(7)
        sim = rng.uniform(-0.2, 0.2, size=(8, 8))
        np.fill_diagonal(sim, 0.3)
        raised = sim.copy()
        np.fill_diagonal(raised, 0.5)
        cfg = LossConfig(label_smoothing=0.1, logit_scale=0.0)
        q0, r0 = self.embed_similarity(sim)
        q1, r1 = self.embed_similarity(raised)
        np.testing.assert_allclose(q0 @ r0.T, sim, atol=1e-12)
        assert info_nce(q1, r1, cfg).loss < info_nce(q0, r0, cfg).loss

    @pytest.mark.parametrize("direction", ["query_to_ref", "ref_to_query", "symmetric"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_gradients_match_finite_differences(self, direction, eps):
        rng = np.random.default_rng(42)
        q, r = unit(rng, 5, 4), unit(rng, 5, 4)
        cfg = LossConfig(label_smoothing=eps, direction=direction, logit_scale=1.3)
        out = info_nce(q, r, cfg)
        fd_check(lambda: info_nce(q, r, cfg).loss, [q, r], [out.grad_queries, out.grad_references])
        # logit scale gradient
        step = 1e-5
        up = info_nce(q, r, LossConfig(label_smoothing=eps, direction=direction,
                                       logit_scale=1.3 + step)).loss
        down = info_nce(q, r, LossConfig(label_smoothing=eps, direction=direction,
                                         logit_scale=1.3 - step)).loss
        numeric = (up - down) / (2 * step)
        assert out.grad_logit_scale == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            info_nce(np.ones((2, 3)), np.ones((3, 3)), LossConfig())

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(ValidationError):
            info_nce(bad, np.ones((1, 2)), LossConfig())

    # the batches are scanned only after a non-finite loss; numpy may warn
    # about the inf arithmetic on the way there
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("direction", ["symmetric", "query_to_ref", "ref_to_query"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["queries", "references"])
    def test_non_finite_entry_named(self, direction, eps, value, side):
        rng = np.random.default_rng(5)
        cfg = LossConfig(label_smoothing=eps, direction=direction)
        n, d = 4, 3
        for i in range(n):
            for k in range(d):
                for zero_column in (False, True):
                    q, r = unit(rng, n, d), unit(rng, n, d)
                    bad, other = (q, r) if side == "queries" else (r, q)
                    bad[i, k] = value
                    if zero_column:  # the entry meets only zeros: inf * 0 = NaN
                        other[:, k] = 0.0
                    with pytest.raises(ValidationError,
                                       match=f"^{side} contains non-finite values$"):
                        info_nce(q, r, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_queries_named_before_references(self):
        q, r = np.ones((2, 2)), np.ones((2, 2))
        q[1, 0], r[0, 1] = np.inf, np.nan
        with pytest.raises(ValidationError, match="^queries contains non-finite values$"):
            info_nce(q, r, LossConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_of_finite_batches_is_returned(self):
        # a loss that overflows from finite inputs is no input fault
        q = np.full((2, 2), 1e200)
        out = info_nce(q, -q, LossConfig())
        assert not math.isfinite(out.loss)

    @pytest.mark.parametrize("direction", ["symmetric", "query_to_ref", "ref_to_query"])
    def test_interleaved_batches_match_a_fresh_target(self, direction):
        # the cached target of one (n, smoothing) must not leak into another
        rng = np.random.default_rng(12)
        for n, eps in [(5, 0.1), (3, 0.0), (5, 0.0), (3, 0.1), (1, 0.2), (5, 0.1), (3, 0.0)]:
            q, r = unit(rng, n, 4), unit(rng, n, 4)
            out = info_nce(q, r, LossConfig(label_smoothing=eps, direction=direction),
                           logit_scale=1.7)
            loss, dq, dr, dscale = legacy_info_nce(q, r, eps, 1.7, direction)
            assert (out.loss, out.grad_logit_scale) == (loss, dscale)
            assert out.grad_queries.tobytes() == dq.tobytes()
            assert out.grad_references.tobytes() == dr.tobytes()

    @pytest.mark.parametrize("direction", ["symmetric", "query_to_ref", "ref_to_query"])
    @pytest.mark.parametrize("n", [17, 40, 128])
    def test_wide_batches_match_the_plain_expressions(self, direction, n):
        # the in-place temporaries keep the memory order of the plain
        # expressions, which decides the order of each row sum and gemm
        rng = np.random.default_rng(n)
        for eps, dim in itertools.product((0.0, 0.1), (3, 6, 10)):
            q, r = unit(rng, n, dim), unit(rng, n, dim)
            out = info_nce(q, r, LossConfig(label_smoothing=eps, direction=direction),
                           logit_scale=2.3)
            loss, dq, dr, dscale = legacy_info_nce(q, r, eps, 2.3, direction)
            assert (out.loss, out.grad_logit_scale) == (loss, dscale)
            assert out.grad_queries.tobytes() == dq.tobytes()
            assert out.grad_references.tobytes() == dr.tobytes()

    def test_cached_target_is_read_only(self):
        target = losses._smoothed_target(4, 0.1)
        assert target is losses._smoothed_target(4, 0.1)
        assert not target.flags.writeable
        with pytest.raises(ValueError):
            target[0, 0] = 1.0


class TestShapesRefused:
    @pytest.mark.parametrize("loss, name", [
        (lambda x, y: info_nce(x, y, LossConfig()), "queries"),
        (lambda x, y: triplet_loss(x, y, y), "anchor"),
    ], ids=["info_nce", "triplet"])
    def test_batch_not_2d_named(self, loss, name):
        with pytest.raises(ValidationError, match=rf"^{name} must be 2-D, got shape \(3,\)$"):
            loss(np.ones(3), np.ones((2, 3)))

    def test_empty_info_nce_batch_rejected(self):
        with pytest.raises(ValidationError, match="^batch must contain at least one pair$"):
            info_nce(np.ones((0, 3)), np.ones((0, 3)), LossConfig())

    @pytest.mark.parametrize("loss", [triplet_loss, soft_margin_triplet_loss])
    def test_triplet_shape_mismatch_names_all_three(self, loss):
        a, p, n = np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 3))
        with pytest.raises(ValidationError, match=r"^shape mismatch: anchor \(2, 3\), "
                                                  r"positive \(2, 3\), negative \(3, 3\)$"):
            loss(a, p, n)


class TestTripletLoss:
    def test_satisfied_margin_zero_loss(self):
        a = np.array([[1.0, 0.0]])
        n = np.array([[0.0, 1.0]])  # d(a,n)^2 = 2 >= margin
        out = triplet_loss(a, a.copy(), n, margin=0.3)
        assert out.loss == 0.0
        np.testing.assert_array_equal(out.grad_queries, 0.0)

    def test_degenerate_triple_gives_margin(self):
        a = np.array([[0.6, 0.8]])
        out = triplet_loss(a, a.copy(), a.copy(), margin=0.3)
        assert out.loss == pytest.approx(0.3, abs=1e-15)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(1)
        a, p, n = (unit(rng, 7, 5) for _ in range(3))
        out = triplet_loss(a, p, n, margin=0.3)
        expected = np.mean(
            [
                max(0.0, float(((a[i] - p[i]) ** 2).sum() - ((a[i] - n[i]) ** 2).sum() + 0.3))
                for i in range(7)
            ]
        )
        assert out.loss == pytest.approx(expected, rel=1e-12)

    def test_non_finite_rejected(self):
        import numpy as np
        bad = np.array([[np.inf, 0.0]])
        ok = np.ones((1, 2))
        with pytest.raises(ValidationError):
            triplet_loss(bad, ok, ok)
        with pytest.raises(ValidationError):
            soft_margin_triplet_loss(ok, bad, ok)

    def test_gradients_match_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(2)
        a, p, n = (unit(rng, 6, 4) for _ in range(3))
        out = triplet_loss(a, p, n, margin=0.3)
        arg = ((a - p) ** 2).sum(1) - ((a - n) ** 2).sum(1) + 0.3
        assert np.abs(arg).min() > 1e-3  # away from the hinge kink
        fd_check(
            lambda: triplet_loss(a, p, n, margin=0.3).loss,
            [a, p, n],
            [out.grad_queries, out.grad_references, out.grad_negatives],
        )


class TestSoftMarginTriplet:
    def test_equal_distances_give_ln2(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = soft_margin_triplet_loss(a, p, p.copy())
        assert out.loss == pytest.approx(math.log(2), abs=1e-12)

    def test_large_negative_argument(self):
        # d(a,p)^2 - d(a,n)^2 = -20 evaluated without underflow surprises
        a = np.array([[0.0]])
        p = np.array([[0.0]])
        n = np.array([[math.sqrt(20.0)]])
        out = soft_margin_triplet_loss(a, p, n)
        assert out.loss == pytest.approx(math.log1p(math.exp(-20)), rel=1e-9)
        assert out.loss == pytest.approx(2.061153622438558e-09, rel=1e-6)

    def test_large_positive_argument_no_overflow(self):
        a = np.array([[0.0]])
        p = np.array([[40.0]])
        n = np.array([[0.0]])
        out = soft_margin_triplet_loss(a, p, n)
        assert out.loss == pytest.approx(1600.0, rel=1e-12)
        assert np.isfinite(out.grad_queries).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        a, p, n = (unit(rng, 6, 4) for _ in range(3))
        out = soft_margin_triplet_loss(a, p, n)
        fd_check(
            lambda: soft_margin_triplet_loss(a, p, n).loss,
            [a, p, n],
            [out.grad_queries, out.grad_references, out.grad_negatives],
        )

    @staticmethod
    def weights(s, t):
        """Each row's gradient weight at x = s^2 - (0.25 + t^2), the x it is
        computed at, and the loss: with anchor 0, positive (s, 0) and negative
        (-0.5, t), N * grad_negatives[:, 0] = w * 2 * 0.5 is w exactly for a
        power-of-two row count N."""
        zeros = np.zeros_like(s)
        a = np.zeros((len(s), 2))
        p = np.stack([s, zeros], axis=1)
        n = np.stack([np.full_like(s, -0.5), t], axis=1)
        out = soft_margin_triplet_loss(a, p, n)
        return out.grad_negatives[:, 0] * len(s), s * s - (0.25 + t * t), out.loss

    @pytest.mark.parametrize("bound, ulps", [(4.0, 4), (8.0, 6)])
    def test_weight_is_scipy_expit_within_ulps(self, bound, ulps):
        from scipy.special import expit

        x = np.random.default_rng(int(bound)).uniform(-bound, bound, 2**16)
        shifted = x + 0.25
        s, t = np.sqrt(np.maximum(shifted, 0.0)), np.sqrt(np.maximum(-shifted, 0.0))
        w, x, _ = self.weights(s, t)
        expected = expit(x)
        assert (np.abs(w - expected) / np.spacing(expected)).max() <= ulps

    def test_weight_exact_at_zero_and_infinities(self):
        # squares of 1e200 overflow to x = +-inf; nothing else raises a flag
        s, t = np.array([0.5, 1e200, 0.0, 0.5]), np.array([0.0, 0.0, 1e200, 0.0])
        with np.errstate(all="raise", over="ignore"):
            w, x, loss = self.weights(s, t)
        assert x.tolist() == [0.0, math.inf, -math.inf, 0.0]
        assert w.tolist() == [0.5, 1.0, 0.0, 0.5]
        assert loss == math.inf


class TestClampLogitScale:
    def test_below_max_unchanged(self):
        assert clamp_logit_scale(0.0, math.log(100.0)) == 0.0

    def test_clamp_active(self):
        assert clamp_logit_scale(10.0, math.log(100.0)) == math.log(100.0)

    def test_idempotent(self):
        once = clamp_logit_scale(7.5, math.log(100.0))
        assert clamp_logit_scale(once, math.log(100.0)) == once


class TestLossConfig:
    def test_smoothing_range(self):
        with pytest.raises(ValidationError):
            LossConfig(label_smoothing=1.0)
        with pytest.raises(ValidationError):
            LossConfig(label_smoothing=-0.1)

    def test_direction_checked(self):
        with pytest.raises(ValidationError):
            LossConfig(direction="sideways")

    def test_logit_scale_above_max_rejected(self):
        with pytest.raises(ValidationError, match="loss.logit_scale=10.0 exceeds"):
            LossConfig(logit_scale=10.0)
        assert LossConfig(logit_scale=math.log(100.0)).logit_scale == math.log(100.0)

    def test_logit_scale_max_whose_exp_overflows_rejected(self):
        with pytest.raises(ValidationError, match="loss.logit_scale_max=800.0"):
            LossConfig(logit_scale_max=800.0)
        assert LossConfig(logit_scale_max=700.0).logit_scale_max == 700.0

    def test_default_temperature(self):
        assert math.exp(LossConfig().logit_scale) == pytest.approx(1 / 0.07)
