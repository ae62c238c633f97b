"""Contrastive losses with exact analytic gradients.

InfoNCE is a label-smoothed softmax cross-entropy over the logits
exp(logit_scale) * Q @ R^T of row-aligned unit batches: query to reference
along rows, reference to query along columns, the symmetric mode their mean,
and target[i, j] = (1 - eps) * [i == j] + eps / N. The triplet baselines use
squared Euclidean distances.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_settings, setting

DIRECTIONS = ("query_to_ref", "ref_to_query", "symmetric")


@dataclass(frozen=True)
class LossConfig:
    """Batch-softmax loss settings. ``logit_scale`` = log(1/tau) starts the
    learnable temperature (tau = 0.07), clamped at ``logit_scale_max``."""

    SECTION = "loss"

    label_smoothing: float = setting(0.1, ge=0, lt=1)
    # at most the log of the largest float, so exp(logit_scale_max) does not overflow
    logit_scale_max: float = setting(math.log(100.0), le=math.log(sys.float_info.max))
    logit_scale: float = setting(math.log(1.0 / 0.07), le="logit_scale_max")
    direction: str = setting("symmetric", choices=DIRECTIONS)
    triplet_margin: float = 0.3

    __post_init__ = check_settings


@dataclass(frozen=True)
class LossOutput:
    """Loss value plus exact gradients w.r.t. every input; for the triplet
    losses the anchor's, positive's and negative's (None for info_nce)."""

    loss: float
    grad_queries: np.ndarray
    grad_references: np.ndarray
    grad_negatives: np.ndarray | None = None
    grad_logit_scale: float = 0.0


def _as_batch(name: str, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {x.shape}")
    return x


def _require_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} contains non-finite values")
    return x


@functools.lru_cache(maxsize=64)
def _smoothed_target(n: int, eps: float) -> np.ndarray:
    """The n x n label-smoothed target, built once per (n, eps) and read-only."""
    target = np.full((n, n), eps / n)
    np.fill_diagonal(target, 1.0 - eps + eps / n)
    target.flags.writeable = False
    return target


def info_nce(
    queries: np.ndarray, references: np.ndarray, cfg: LossConfig, *, logit_scale: float | None = None
) -> LossOutput:
    """Smoothed batch softmax cross-entropy for cfg.direction, row i of
    ``references`` the positive of row i of ``queries``, with its gradients
    w.r.t. both batches and the logit scale (``logit_scale`` overrides cfg's).
    The symmetric loss is exactly the mean of the two directions. The batches
    are scanned for non-finite entries only when the loss is non-finite,
    which any such entry makes it in every direction."""
    q = _as_batch("queries", queries)
    r = _as_batch("references", references)
    if q.shape != r.shape:
        raise ValidationError(f"shape mismatch: queries {q.shape} vs references {r.shape}")
    n = q.shape[0]
    if n < 1:
        raise ValidationError("batch must contain at least one pair")

    scale = math.exp(cfg.logit_scale if logit_scale is None else logit_scale)
    target = _smoothed_target(n, cfg.label_smoothing)
    # lg[d] holds direction d's softmax rows: [0] the logits, query to
    # reference, and [1] their transpose, reference to query, copied
    # row-major. Both directions run each elementwise step in one call;
    # every sum adds in the order of the plain per-direction expression
    # m + log(sum(exp(lg - m))), whose lg - m is column-major for [1], so
    # [1]'s rows are summed down the columns of a buffer holding its
    # transpose (target is symmetric, so it serves both directions)
    lg = np.empty((2, n, n))
    logits = np.matmul(q, r.T, out=lg[0])
    logits *= scale
    lg[1] = logits.T
    m = np.empty((2, n))
    np.maximum.reduce(logits, axis=1, out=m[0])
    np.maximum.reduce(logits, axis=0, out=m[1])
    shifted = np.empty((2, n, n))
    np.subtract(logits, m[0, :, None], out=shifted[0])
    np.subtract(logits, m[1], out=shifted[1])  # [1]'s lg - m, transposed
    np.exp(shifted, out=shifted)
    lse = np.empty((2, n))
    np.add.reduce(shifted[0], axis=1, out=lse[0])
    np.add.reduce(shifted[1], axis=0, out=lse[1])
    np.log(lse, out=lse)
    lse += m
    probs = np.multiply(target, lg)
    picked = np.add.reduce(probs, axis=2)
    np.subtract(lse, picked, out=picked)
    loss_qr, loss_rq = (np.add.reduce(picked, axis=1) / n).tolist()  # the means, bit for bit
    np.subtract(lg, lse[:, :, None], out=probs)
    np.exp(probs, out=probs)
    probs -= target
    probs /= n
    g_qr, g_rq = probs[0], probs[1].T

    if cfg.direction == "query_to_ref":
        loss, grad_logits = loss_qr, g_qr
    elif cfg.direction == "ref_to_query":
        loss, grad_logits = loss_rq, g_rq
    else:
        loss = 0.5 * (loss_qr + loss_rq)
        grad_logits = np.add(g_qr, g_rq, out=g_qr)
        grad_logits *= 0.5

    if not math.isfinite(loss):
        _require_finite("queries", q)
        _require_finite("references", r)
    grad_logit_scale = float(np.add.reduce(np.multiply(grad_logits, logits), axis=None))
    grad_logits *= scale
    return LossOutput(
        loss=loss,
        grad_queries=grad_logits @ r,
        grad_references=grad_logits.T @ q,
        grad_logit_scale=grad_logit_scale,
    )


def _pair_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a - b
    return (d * d).sum(axis=1)


def _triplet(anchor, positive, negative, score) -> LossOutput:
    """The body both triplet losses share. ``score(x)`` maps each row's
    x = d(a,p)^2 - d(a,n)^2 to the loss value and the per-row weight of
    the gradients."""
    a = _require_finite("anchor", _as_batch("anchor", anchor))
    p = _require_finite("positive", _as_batch("positive", positive))
    ng = _require_finite("negative", _as_batch("negative", negative))
    if not (a.shape == p.shape == ng.shape):
        raise ValidationError(
            f"shape mismatch: anchor {a.shape}, positive {p.shape}, negative {ng.shape}"
        )
    n = a.shape[0]
    loss, weight = score(_pair_sq_dists(a, p) - _pair_sq_dists(a, ng))
    w = weight[:, None]
    grad_a = w * 2.0 * (ng - p) / n
    grad_p = w * (-2.0) * (a - p) / n
    grad_n = w * 2.0 * (a - ng) / n
    return LossOutput(loss=loss, grad_queries=grad_a, grad_references=grad_p, grad_negatives=grad_n)


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = LossConfig.triplet_margin,
) -> LossOutput:
    """Mean over rows of max(0, d(a,p)^2 - d(a,n)^2 + margin); 0 at the kink."""

    def hinge(x):
        arg = x + margin
        return float(np.mean(np.maximum(arg, 0.0))), (arg > 0).astype(np.float64)

    return _triplet(anchor, positive, negative, hinge)


def soft_margin_triplet_loss(
    anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray
) -> LossOutput:
    """Mean over rows of ln(1 + exp(d(a,p)^2 - d(a,n)^2)), through logaddexp so
    it cannot overflow; its weight exp(-ln(1 + exp(-x))) is exactly 0, 1/2
    and 1 at -inf, 0 and +inf."""
    return _triplet(anchor, positive, negative,
                    lambda x: (float(np.mean(np.logaddexp(0.0, x))),
                               np.exp(-np.logaddexp(0.0, -x))))


def clamp_logit_scale(logit_scale: float, logit_scale_max: float) -> float:
    """Cap logit_scale at logit_scale_max; idempotent."""
    return min(logit_scale, logit_scale_max)
