"""Desk-scale contrastive trainer over precomputed view features.

The encoder is a two-layer gelu MLP with unit-norm outputs, one for both views
unless ``train.shared_weights`` is false. Training runs AdamW under a linear
warm-up and cosine decay, in units of each epoch's planned batches, and
refreshes DSS pools by re-encoding the training pairs. Everything runs in
float64 from explicit seeds, so a rerun reproduces plans, history and params.

A training step runs both views as one (2, rows, d_in) stack: numpy runs each
layer's matmul as one gemm per view at the one-view shape, and every column
sum stays per view, so the bits equal two one-view passes; one gemm over
2 x rows stacked rows would change them. The gelu's erf is
``scipy.special.erf``, imported at the first forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datasets import (
    EmbeddingTable,
    SampleRecord,
    read_embeddings,
    read_json,
    read_text,
    require_aligned,
    require_heap,
    require_same_width,
    write_embeddings,
    write_json,
)
from .errors import ValidationError, check_setting, check_settings, setting
from .evaluation import RetrievalReport, resolve_links, retrieval_report
from .geo import GeoConfig
from .losses import (
    LossConfig,
    clamp_logit_scale,
    info_nce,
    soft_margin_triplet_loss,
    triplet_loss,
)
from .sampler import (
    STRATEGIES,
    BatchPlan,
    SamplerConfig,
    build_geo_pools,
    build_sim_pools,
    plan_epoch,
    plan_rng,
    resolve_strategy,
    should_refresh,
)
from .simsearch import unit_rows

LOSS_KINDS = ("infonce", "triplet", "soft_margin_triplet")
# the experiment grid's axes: each compares the values of one config field
AXES = {"strategy": STRATEGIES, "loss": LOSS_KINDS}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_TENSORS = ("W1", "b1", "W2", "b2")  # one encoder's tensors, in layer order


def theta_layout(
    d_in: int, d_hidden: int, d_out: int, shared_weights: bool = True
) -> dict[str, tuple[slice, tuple[int, ...]]]:
    """Name -> (slice of theta, shape): q.W1 q.b1 q.W2 q.b2, then r.* when
    the reference encoder has its own weights, then logit_scale."""
    shapes = ((d_in, d_hidden), (d_hidden,), (d_hidden, d_out), (d_out,))
    layout, start = {}, 0
    for prefix in ("q.",) if shared_weights else ("q.", "r."):
        for t, shape in zip(_TENSORS, shapes):
            layout[prefix + t] = (slice(start, start + math.prod(shape)), shape)
            start += math.prod(shape)
    layout["logit_scale"] = (slice(start, start + 1), ())
    return layout


def _view_pairs(rows: np.ndarray, layout: dict) -> tuple:
    """Each q.* tensor of the layout over both rows of a (2, one encoder's
    size) array, as (2, ...) views into it; biases come out (2, 1, width)."""
    return tuple(rows[:, s].reshape(2, -1, shape[-1])
                 for s, shape in list(layout.values())[:len(_TENSORS)])


@dataclass(frozen=True, eq=False)
class EncoderParams:
    """All trainable state as one float64 vector ``theta`` (``theta_layout``).
    ``query`` and ``reference`` are each encoder's (W1, b1, W2, b2) as views
    into theta (``reference is query`` when shared), so updating theta in place
    moves them. ``stacked`` encodes a (2, rows, d_in) stack of both views:
    ``query`` when shared, else each query tensor and its reference twin as
    one (2, ...) view of theta."""

    theta: np.ndarray
    d_in: int
    d_hidden: int
    d_out: int
    shared_weights: bool = True
    layout: dict = field(init=False, repr=False)
    query: tuple = field(init=False, repr=False)
    reference: tuple = field(init=False, repr=False)
    stacked: tuple = field(init=False, repr=False)

    W1, b1, W2, b2 = (property(lambda self, i=i: self.query[i]) for i in range(len(_TENSORS)))

    def __post_init__(self):
        layout = theta_layout(self.d_in, self.d_hidden, self.d_out, self.shared_weights)
        size = layout["logit_scale"][0].stop
        if self.theta.dtype != np.float64 or self.theta.shape != (size,):
            raise ValidationError(f"theta must be float64 of shape ({size},) for dims "
                                  f"{self.d_in}-{self.d_hidden}-{self.d_out}, shared="
                                  f"{self.shared_weights}; got {self.theta.dtype} {self.theta.shape}")
        object.__setattr__(self, "layout", layout)
        # the layout's q.* then, when not shared, r.*; the logit scale left out
        views = [self.theta[s].reshape(shape) for s, shape in list(layout.values())[:-1]]
        query = tuple(views[:len(_TENSORS)])
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "reference", tuple(views[len(_TENSORS):]) or query)
        object.__setattr__(self, "stacked", query if self.shared_weights
                           else _view_pairs(self.theta[:-1].reshape(2, -1), layout))
        bad = np.flatnonzero(~np.isfinite(self.theta))
        if bad.size:
            raise ValidationError(f"non-finite entries in parameter {self.name_at(bad[0])!r}")

    def name_at(self, i: int) -> str:
        """The tensor that theta entry i belongs to."""
        return next(name for name, (s, _) in self.layout.items() if i < s.stop)

    @property
    def logit_scale(self) -> float:
        return float(self.theta[-1])


def init_params(
    rng: np.random.Generator, d_in: int, d_h: int, d_out: int, shared_weights: bool = True,
    logit_scale: float = LossConfig.logit_scale,
) -> EncoderParams:
    """Glorot-normal weight matrices drawn into a zero theta, so biases
    start at zero; the logit scale goes last."""
    layout = theta_layout(d_in, d_h, d_out, shared_weights)
    theta = np.zeros(layout["logit_scale"][0].stop)
    weights = [name for name, (_, shape) in layout.items() if len(shape) == 2]
    # the reference encoder, when there is one, is drawn first
    for name in sorted(weights, key=lambda name: name.startswith("q.")):
        s, (m, n) = layout[name]
        theta[s] = (rng.standard_normal((m, n)) * math.sqrt(2.0 / (m + n))).ravel()
    theta[-1] = logit_scale
    return EncoderParams(theta, d_in, d_h, d_out, shared_weights)


@dataclass(frozen=True)
class TrainConfig:
    SECTION = "train"

    epochs: int = setting(40, ge=1)
    lr_max: float = setting(0.001, gt=0)
    warmup_epochs: int = setting(1, ge=0)
    weight_decay: float = setting(0.01, ge=0)
    beta1: float = setting(0.9, ge=0, lt=1)
    beta2: float = setting(0.999, ge=0, lt=1)
    eps: float = setting(1e-8, gt=0)
    hidden_dim: int = setting(128, ge=1)
    embed_dim: int = setting(32, ge=1)
    shared_weights: bool = True
    loss_kind: str = setting("infonce", choices=LOSS_KINDS)
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self)
        if self.warmup_epochs >= self.epochs:
            raise ValidationError(f"train.warmup_epochs={self.warmup_epochs} must be "
                                  f"< train.epochs={self.epochs}")


# ---------------------------------------------------------------------------
# forward / backward


def _erf(x, out=None):
    """``scipy.special.erf``, imported at the first call so that importing
    crossview loads numpy alone; the call rebinds this name to scipy's ufunc."""
    global _erf
    from scipy.special import erf as _erf
    return _erf(x, out=out)


def _forward(w, X):
    """Unit-norm embeddings of X, one view's (rows, d_in) inputs or a (2,
    rows, d_in) stack of both under params.stacked, and _backward's cache."""
    W1, b1, W2, b2 = w
    H_pre = X @ W1
    H_pre += b1
    cdf = np.multiply(H_pre, _INV_SQRT2)
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5  # the normal CDF; gelu(x) = x * cdf(x)
    H = H_pre * cdf
    Y = H @ W2
    Y += b2
    U, norms = unit_rows(Y, out=Y)
    return U, (X, H_pre, cdf, H, norms, U)


def _backward(w, cache, dU, out):
    """Write each tensor's gradient for a stack of views, from the
    embeddings' gradient dU, into out's (2, ...) arrays in (W1, b1, W2, b2)
    order: one term per view (a shared encoder's two are left for the
    caller to add)."""
    W1, b1, W2, b2 = w
    X, H_pre, cdf, H, norms, U = cache
    dW1, db1, dW2, db2 = out
    dY = U * dU
    radial = np.add.reduce(dY, axis=-1, keepdims=True)
    np.multiply(U, radial, out=dY)
    np.subtract(dU, dY, out=dY)
    dY /= norms[..., None]  # (dU - U * (U * dU).sum(axis=-1)) / norms
    np.matmul(H.swapaxes(-1, -2), dY, out=dW2)
    np.add.reduce(dY, axis=-2, keepdims=True, out=db2)
    # gelu'(x) = cdf(x) + x * pdf(x), reusing the forward pass's cdf
    dgelu = np.multiply(H_pre, -0.5)
    dgelu *= H_pre
    np.exp(dgelu, out=dgelu)
    np.multiply(H_pre, dgelu, out=dgelu)
    dgelu *= _INV_SQRT_2PI
    dgelu += cdf
    dH_pre = dY @ W2.swapaxes(-1, -2)
    dH_pre *= dgelu
    np.matmul(X.swapaxes(-1, -2), dH_pre, out=dW1)
    np.add.reduce(dH_pre, axis=-2, keepdims=True, out=db1)


def encode(
    params: EncoderParams,
    inputs: np.ndarray,
    view: str = "query",
    row_ids: tuple[str, ...] | None = None,
) -> EmbeddingTable:
    """Run inputs through the encoder for one view; rows come out unit-norm."""
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"inputs must be 2-D, got shape {X.shape}")
    if view not in ("query", "reference"):
        raise ValidationError(f"view must be 'query' or 'reference', got {view!r}")
    if X.shape[1] != params.d_in:
        raise ValidationError(f"input dim {X.shape[1]} does not match encoder d_in {params.d_in}")
    U, _ = _forward(getattr(params, view), X)
    if row_ids is None:
        row_ids = tuple(str(i) for i in range(X.shape[0]))
    return EmbeddingTable(U.astype(np.float32), row_ids)


# ---------------------------------------------------------------------------
# optimisation


def lr_at(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Linear warm-up to lr_max, then cosine decay to 0 at the final step, in
    units of epochs of steps_per_epoch steps: train passes each epoch's planned
    batch count, and batch i of epoch e reads step e * steps_per_epoch + i."""
    if step < 0:
        raise ValidationError("step must be >= 0")
    total = cfg.epochs * steps_per_epoch
    warm = cfg.warmup_epochs * steps_per_epoch
    if step < warm:
        return cfg.lr_max * step / warm
    span = total - 1 - warm
    if span <= 0:
        return cfg.lr_max if step <= warm else 0.0
    progress = min(1.0, (step - warm) / span)
    return 0.5 * cfg.lr_max * (1.0 + math.cos(math.pi * progress))


@dataclass
class AdamState:
    """Moments of one AdamW run over theta, and the entries that decay."""

    step: int
    m: np.ndarray
    v: np.ndarray
    decay: tuple[slice, ...]  # the slices of theta that hold weight matrices


def adamw_init(params: EncoderParams) -> AdamState:
    decay = tuple(s for s, shape in params.layout.values() if len(shape) == 2)
    return AdamState(step=0, m=np.zeros_like(params.theta), v=np.zeros_like(params.theta),
                     decay=decay)


def adamw_step(
    params: EncoderParams, grad: np.ndarray, state: AdamState, lr: float, cfg: TrainConfig
) -> None:
    """One AdamW update of params.theta in place, decaying only the weight
    matrices; state advances with it. Each in-place operation follows the
    formula beside it, so the bits equal the plain expression's."""
    if not np.isfinite(grad).all():
        bad = np.flatnonzero(~np.isfinite(grad))
        raise ValidationError(f"non-finite gradient for parameter {params.name_at(bad[0])!r}")
    theta, m, v = params.theta, state.m, state.v
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.eps
    state.step += 1
    t = state.step
    scratch = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += scratch  # m = b1 * m + (1 - b1) * grad
    np.multiply(grad, 1.0 - b2, out=scratch)
    scratch *= grad
    v *= b2
    v += scratch  # v = b2 * v + (1 - b2) * grad * grad
    np.divide(v, 1.0 - b2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps  # sqrt(v_hat) + eps
    update = np.divide(m, 1.0 - b1**t)
    update *= lr
    update /= scratch  # lr * m_hat / (sqrt(v_hat) + eps)
    if cfg.weight_decay > 0:
        rate = lr * cfg.weight_decay
        for s in state.decay:
            update[s] += rate * theta[s]
    theta -= update


# ---------------------------------------------------------------------------
# the batch objective


def _batch_objective(params: EncoderParams, X2: np.ndarray, loss_cfg: LossConfig,
                     loss_kind: str) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. every entry of params.theta, for a (2,
    rows, d_in) stack of a batch's inputs encoded by the views params.stacked."""
    U, cache = _forward(params.stacked, X2)
    Q, R = U

    if loss_kind == "infonce":
        out = info_nce(Q, R, loss_cfg, logit_scale=params.logit_scale)
        dQ, dR, dscale = out.grad_queries, out.grad_references, out.grad_logit_scale
    else:
        # one negative per anchor: the next batch member's reference (hard
        # when the sampler filled the batch with the anchor's neighbours)
        negatives = np.roll(R, -1, axis=0)
        if loss_kind == "triplet":
            out = triplet_loss(Q, R, negatives, margin=loss_cfg.triplet_margin)
        else:
            out = soft_margin_triplet_loss(Q, R, negatives)
        dQ = out.grad_queries
        dR = out.grad_references + np.roll(out.grad_negatives, 1, axis=0)
        dscale = 0.0

    # one row of q.* gradients per view, split as params.stacked splits
    # theta; separate encoders' rows are the q.* and r.* halves of theta's
    # gradient itself, a shared encoder's gradient is their sum
    theta_grad = np.empty_like(params.theta)
    per_view = (np.empty((2, params.theta.size - 1)) if params.shared_weights
                else theta_grad[:-1].reshape(2, -1))
    _backward(params.stacked, cache, np.array((dQ, dR)), _view_pairs(per_view, params.layout))
    if params.shared_weights:
        np.add(per_view[0], per_view[1], out=theta_grad[:-1])
    theta_grad[-1] = dscale
    return out.loss, theta_grad


# ---------------------------------------------------------------------------
# training loop


def step_bytes(d_in: int, cfg: TrainConfig, rows: int) -> int:
    """An upper estimate of one training step's heap in bytes, for ``rows``
    pairs of d_in features: nine theta-sized float64 vectors, per row of each
    view its inputs twice and six hidden-width and four embedding-width
    activations, and for InfoNCE 7 * rows**2 float64 of logits."""
    size = theta_layout(d_in, cfg.hidden_dim, cfg.embed_dim,
                        cfg.shared_weights)["logit_scale"][0].stop
    per_row = 2 * (2 * d_in + 6 * cfg.hidden_dim + 4 * cfg.embed_dim)
    logits = 7 * rows * rows if cfg.loss_kind == "infonce" else 0
    return 8 * (9 * size + rows * per_row + logits)


def pass_bytes(d_in: int, cfg: TrainConfig, rows: int) -> int:
    """An upper estimate of one forward pass's heap in bytes over ``rows`` rows
    of d_in features: per row its float64 inputs, three hidden-width and three
    embedding-width float64 arrays, and 256 bytes for its row id."""
    return rows * (8 * (d_in + 3 * cfg.hidden_dim + 3 * cfg.embed_dim) + 256)


def holdout_size(n: int) -> int:
    """Pairs held out at the end of an n-pair manifest: 10%, at least one."""
    return max(1, n // 10)


@dataclass(frozen=True)
class TrainResult:
    params: EncoderParams
    loss_config: LossConfig
    history: list[dict]
    plans: list[BatchPlan]
    holdout: RetrievalReport  # the held-out pairs' report after the last epoch


def train(
    manifest: list[SampleRecord],
    query_features: EmbeddingTable,
    reference_features: EmbeddingTable,
    cfg: TrainConfig,
    geo_cfg: GeoConfig = GeoConfig(),
) -> TrainResult:
    """Train the encoder on row-aligned features, deterministic given cfg. The
    last holdout_size(n) pairs are held out, each needing a positive among
    them; each epoch's history holds the mean batch loss, the last step's
    learning rate and the held-out R@1, whose last report the result keeps."""
    n = len(manifest)
    require_same_width("query features", query_features.dim,
                       "reference features", reference_features.dim)
    require_aligned("query feature", query_features.row_ids, manifest)
    require_aligned("reference feature", reference_features.row_ids, manifest)

    n_train = n - holdout_size(n)
    if n_train < 2:
        raise ValidationError(f"{n} pairs leave only {n_train} for training")
    train_records, train_ids = manifest[:n_train], query_features.row_ids[:n_train]
    # link rows stay sorted, each once, under a filter and a constant shift
    holdout_links = [links[links[:, 1] >= n_train] - (0, n_train)
                     for links in resolve_links(manifest[n_train:], query_features.row_ids)]
    orphans = np.flatnonzero(np.bincount(holdout_links[0][:, 0], minlength=n - n_train) == 0)
    if orphans.size:
        raise ValidationError(f"record {manifest[n_train + orphans[0]].id!r} has no positives "
                              f"inside the held-out pairs [{n_train}, {n})")
    scfg, d_in = cfg.sampler, query_features.dim
    rows = min(scfg.batch_size, n_train)
    require_heap(step_bytes(d_in, cfg, rows), f"sampler.batch_size={scfg.batch_size} ({rows} rows "
                 f"per step) with train.hidden_dim={cfg.hidden_dim}, train.embed_dim="
                 f"{cfg.embed_dim} and {d_in} input features")
    # the held-out pass over both views every epoch, and each DSS refresh's
    # encode of one view's training pairs (dss runs last, if at all)
    passes = {f"the held-out pass over {n - n_train} pairs' two views": 2 * (n - n_train)}
    if resolve_strategy(scfg, cfg.epochs - 1) == "dss":
        passes[f"a DSS refresh's encode of {n_train} training pairs"] = n_train
    for what, pass_rows in passes.items():
        require_heap(pass_bytes(d_in, cfg, pass_rows),
                     f"{n} pairs with train.hidden_dim={cfg.hidden_dim}: {what}")

    # both views' features stacked on a leading view axis, in the tables'
    # float32: half the bytes of float64 copies; every use casts, exactly
    X2 = np.empty((2, n, query_features.dim), dtype=np.float32)
    X2[0], X2[1] = query_features.data, reference_features.data

    rng_init = np.random.default_rng([cfg.seed, 0])
    params = init_params(rng_init, query_features.dim, cfg.hidden_dim, cfg.embed_dim,
                         cfg.shared_weights, cfg.loss.logit_scale)
    state = adamw_init(params)

    pools = None  # the pools of the current strategy; None while random
    history: list[dict] = []
    plans: list[BatchPlan] = []

    for epoch in range(cfg.epochs):
        if resolve_strategy(scfg, epoch) == "gps" and pools is None:
            pools = build_geo_pools(train_records, scfg, geo_cfg)
        if should_refresh(epoch, scfg):  # under the tables' ids, so encode builds none
            q_emb = encode(params, X2[0, :n_train], "query", train_ids)
            r_emb = encode(params, X2[1, :n_train], "reference", train_ids)
            pools = build_sim_pools(q_emb, r_emb, scfg)

        plan = plan_epoch(train_records, pools, scfg, epoch, plan_rng(scfg, epoch))
        plans.append(plan)

        losses = []
        lr = 0.0
        for i, batch in enumerate(plan.batches):  # the plan sets the epoch's length
            if cfg.loss_kind != "infonce" and len(batch) < 2:
                continue  # a lone pair has no in-batch negative
            lr = lr_at(epoch * len(plan.batches) + i, len(plan.batches), cfg)
            # one gather of the batch's rows from both views
            loss, grad = _batch_objective(params, X2.take(batch, axis=1).astype(np.float64),
                                          cfg.loss, cfg.loss_kind)
            adamw_step(params, grad, state, lr, cfg)
            params.theta[-1] = clamp_logit_scale(params.logit_scale, cfg.loss.logit_scale_max)
            losses.append(loss)

        U, _ = _forward(params.stacked, X2[:, n_train:].astype(np.float64))
        report = retrieval_report(U[0], U[1], *holdout_links)
        history.append(
            {"epoch": epoch, "loss": float(np.mean(losses)) if losses else 0.0,
             "lr": lr, "r1": report.recall_at[1]}
        )

    return TrainResult(
        params=params,
        loss_config=replace(cfg.loss, logit_scale=params.logit_scale),
        history=history,
        plans=plans,
        holdout=report,
    )


# ablation_configs' seed offsets per axis value, the CLI's --seeds
ABLATION_SEEDS = setting(5, ge=1)


def ablation_configs(cfg: TrainConfig, axis: str, seeds: int) -> dict[str, list[TrainConfig]]:
    """The grid of one axis: each value of AXES[axis], in order, to cfg with
    the axis field (sampler.strategy or loss_kind) set to it at seed offsets
    s = 0..seeds-1, list index s; an offset shifts train.seed and sampler.seed."""
    if axis not in AXES:
        raise ValidationError(f"axis {axis!r} not in {tuple(AXES)}")
    check_setting("seeds", ABLATION_SEEDS, seeds)
    grid = {}
    for value in AXES[axis]:
        base = (replace(cfg, loss_kind=value) if axis == "loss"
                else replace(cfg, sampler=replace(cfg.sampler, strategy=value)))
        grid[value] = [replace(base, seed=base.seed + s,
                               sampler=replace(base.sampler, seed=base.sampler.seed + s))
                       for s in range(seeds)]
    return grid


# ---------------------------------------------------------------------------
# gradient checking


# gradcheck's n, the CLI's --n: one pair has no in-batch negative, so no gradient
GRADCHECK_PAIRS = setting(8, ge=2)


def gradcheck(
    cfg: TrainConfig,
    n: int = GRADCHECK_PAIRS.default,
    d_in: int = 16,
    seed: int = 0,
    step: float = 1e-5,
) -> dict[str, float]:
    """Each tensor's relative error of backprop against central differences,
    and their "max", for cfg's encoder over n random d_in-wide pairs: the
    sup-norm deviation over the larger gradient's sup-norm (absolute when
    both vanish)."""
    check_setting("gradcheck n", GRADCHECK_PAIRS, n)
    require_heap(step_bytes(d_in, cfg, n), f"gradcheck n={n} ({n} rows per step) with train."
                 f"hidden_dim={cfg.hidden_dim}, train.embed_dim={cfg.embed_dim} and {d_in} input "
                 f"features")
    rng = np.random.default_rng(seed)
    params = init_params(rng, d_in, cfg.hidden_dim, cfg.embed_dim, cfg.shared_weights,
                         cfg.loss.logit_scale)
    X2 = rng.standard_normal((2, n, d_in))  # the query pairs' rows, then the references'

    def loss_at():
        value, _ = _batch_objective(params, X2, cfg.loss, cfg.loss_kind)
        return value

    _, analytic = _batch_objective(params, X2, cfg.loss, cfg.loss_kind)

    theta = params.theta
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        up = loss_at()
        theta[i] = orig - step
        down = loss_at()
        theta[i] = orig
        numeric[i] = (up - down) / (2.0 * step)

    report: dict[str, float] = {}
    for key, (s, _) in params.layout.items():
        a, num = analytic[s], numeric[s]
        diff = float(np.max(np.abs(a - num)))
        denom = max(float(np.max(np.abs(a))), float(np.max(np.abs(num))))
        report[key] = diff / denom if denom > 1e-10 else diff
    report["max"] = max(report.values())
    return report


# ---------------------------------------------------------------------------
# parameter persistence


# header.json key -> its declaration, checked by check_setting on load
_HEADER = {
    "d_in": setting(1, ge=1),
    "d_hidden": setting(1, ge=1),
    "d_out": setting(1, ge=1),
    "shared_weights": setting(True),
    "logit_scale": setting(1.0),
}


def save_params(params: EncoderParams, out_dir: str | Path) -> None:
    """Write theta without its logit scale as one float32 EMB1 row,
    ``theta.emb``, beside ``header.json`` with the widths, shared_weights and
    the logit scale."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_embeddings(EmbeddingTable(params.theta[None, :-1], ("theta",)), out_dir / "theta.emb")
    header = {key: getattr(params, key) for key in _HEADER}
    write_json(header, out_dir / "header.json")


def load_params(in_dir: str | Path) -> EncoderParams:
    """Read back what save_params wrote (weights rounded to float32)."""
    in_dir = Path(in_dir)
    path = in_dir / "header.json"
    try:
        header = read_json(read_text(path))
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(header).__name__}")
    missing = [key for key in _HEADER if key not in header]
    if missing:
        raise ValidationError(f"{path}: missing key {missing[0]!r}")
    for key, f in _HEADER.items():
        check_setting(f"{path}: {key}", f, header[key])
    unknown = [key for key in header if key not in _HEADER]
    if unknown:
        raise ValidationError(f"{path}: unknown key {unknown[0]!r}")
    theta_path = in_dir / "theta.emb"
    table = read_embeddings(theta_path)
    if table.count != 1:
        raise ValidationError(f"{theta_path}: theta must be one row, got {table.count}")
    theta = np.concatenate([table.data[0], [float(header["logit_scale"])]], dtype=np.float64)
    try:
        return EncoderParams(theta, **{key: header[key] for key in tuple(_HEADER)[:-1]})
    except ValidationError as exc:  # a theta.emb that does not fit the header's widths
        raise ValidationError(f"{theta_path}: {exc}") from None
