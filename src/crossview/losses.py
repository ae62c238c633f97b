"""Contrastive losses with exact analytic gradients.

The training objective is a batch softmax cross-entropy between query and
reference embeddings. With row-aligned unit-normalised batches Q and R,
logits are exp(logit_scale) * Q @ R^T; query->reference reads logits by
rows, reference->query by columns, and the symmetric mode averages the
two so its scale matches a single direction. Label smoothing mixes the
one-hot target with a uniform distribution:

    target[i, j] = (1 - eps) * [i == j] + eps / N

Two triplet objectives are included as baselines for the collapse
comparison; both use squared Euclidean distances between rows.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ValidationError

DIRECTIONS = ("query_to_ref", "ref_to_query", "symmetric")


@dataclass(frozen=True)
class LossConfig:
    """Batch-softmax loss parameters.

    ``logit_scale`` is the log of the similarity multiplier, i.e.
    exp(logit_scale) = 1/tau; it is the learnable temperature, clamped
    from above by ``logit_scale_max``. The default initialises
    tau = 0.07.
    """

    label_smoothing: float = 0.1
    logit_scale: float = math.log(1.0 / 0.07)
    logit_scale_max: float = math.log(100.0)
    direction: str = "symmetric"
    triplet_margin: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValidationError("label_smoothing must be in [0, 1)")
        if self.direction not in DIRECTIONS:
            raise ValidationError(
                f"direction {self.direction!r} not in {DIRECTIONS}"
            )
        if self.logit_scale_max > math.log(sys.float_info.max):
            raise ValidationError(
                f"loss.logit_scale_max={self.logit_scale_max!r}: its exp overflows float64"
            )
        if self.logit_scale > self.logit_scale_max:
            raise ValidationError(
                f"loss.logit_scale={self.logit_scale!r} exceeds "
                f"loss.logit_scale_max={self.logit_scale_max!r}"
            )


@dataclass(frozen=True)
class LossOutput:
    """Loss value plus exact gradients w.r.t. every input.

    For the triplet losses, grad_queries holds the anchor gradient,
    grad_references the positive gradient, and grad_negatives the
    negative gradient; info_nce leaves grad_negatives as None.
    """

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
    """Smoothed batch softmax cross-entropy between two embedding batches.

    Row i of ``references`` is the positive for row i of ``queries``.
    ``logit_scale`` (the trainer passes its learned one) overrides
    cfg.logit_scale. Returns the loss for cfg.direction along with
    analytic gradients w.r.t. queries, references, and logit_scale; the
    symmetric loss is exactly the arithmetic mean of the two single
    directions.

    Both batches are scanned for non-finite entries only when the loss
    comes out non-finite, which any such entry guarantees: a NaN or inf in
    row i of queries (references) makes logit row (column) i non-finite,
    as inf * 0 is NaN, and one non-finite logit makes the loss of every
    direction non-finite.
    """
    q = _as_batch("queries", queries)
    r = _as_batch("references", references)
    if q.shape != r.shape:
        raise ValidationError(f"shape mismatch: queries {q.shape} vs references {r.shape}")
    n = q.shape[0]
    if n < 1:
        raise ValidationError("batch must contain at least one pair")

    scale = math.exp(cfg.logit_scale if logit_scale is None else logit_scale)
    logits = scale * (q @ r.T)
    target = _smoothed_target(n, cfg.label_smoothing)

    def direction_loss(lg: np.ndarray) -> tuple[float, np.ndarray]:
        # rows of lg are softmax rows; target is symmetric so it serves both
        m = lg.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(lg - m).sum(axis=1))
        loss = float((lse - (target * lg).sum(axis=1)).sum() / n)  # the mean, bit for bit
        probs = np.exp(lg - lse[:, None])
        return loss, (probs - target) / n

    loss_qr, g_qr = direction_loss(logits)
    loss_rq, g_rq_t = direction_loss(logits.T)
    g_rq = g_rq_t.T

    if cfg.direction == "query_to_ref":
        loss, grad_logits = loss_qr, g_qr
    elif cfg.direction == "ref_to_query":
        loss, grad_logits = loss_rq, g_rq
    else:
        loss = 0.5 * (loss_qr + loss_rq)
        grad_logits = 0.5 * (g_qr + g_rq)

    if not math.isfinite(loss):
        _require_finite("queries", q)
        _require_finite("references", r)
    return LossOutput(
        loss=loss,
        grad_queries=scale * grad_logits @ r,
        grad_references=scale * grad_logits.T @ q,
        grad_logit_scale=float((grad_logits * logits).sum()),
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
    margin: float = 0.3,
) -> LossOutput:
    """Hinge triplet loss, mean over rows of max(0, d(a,p)^2 - d(a,n)^2 + margin).

    The subgradient at the hinge kink is taken as 0.
    """

    def hinge(x):
        arg = x + margin
        return float(np.mean(np.maximum(arg, 0.0))), (arg > 0).astype(np.float64)

    return _triplet(anchor, positive, negative, hinge)


def soft_margin_triplet_loss(
    anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray
) -> LossOutput:
    """Smooth triplet loss, mean over rows of ln(1 + exp(d(a,p)^2 - d(a,n)^2)).

    Evaluated through logaddexp so large positive arguments cannot
    overflow.
    """
    return _triplet(anchor, positive, negative,
                    lambda x: (float(np.mean(np.logaddexp(0.0, x))), expit(x)))


def clamp_logit_scale(logit_scale: float, logit_scale_max: float) -> float:
    """Cap logit_scale at logit_scale_max; idempotent."""
    return min(logit_scale, logit_scale_max)
