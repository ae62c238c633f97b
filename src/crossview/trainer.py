"""Desk-scale contrastive trainer over precomputed view features.

The encoder is a two-layer gelu MLP followed by L2 normalisation, shared
between the query and reference views by default (a single parameter set
encodes both). Training runs AdamW with decoupled weight decay (weights
only, never biases or the logit scale) under a cosine learning-rate
schedule with linear warm-up. Each epoch the sampler plans batches from
geographic or visual hard-negative pools; visual pools are refreshed by
re-encoding the full training set with the current weights.

Everything runs in float64 so the analytic gradients can be validated
against central finite differences, and every random stream is derived
from explicit seeds so a rerun reproduces plans and losses exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import erf

from .datasets import EmbeddingTable, SampleRecord, read_embeddings, slice_manifest, write_embeddings
from .errors import ValidationError
from .evaluation import recall_at_k
from .geo import GeoConfig
from .losses import (
    LossConfig,
    clamp_logit_scale,
    info_nce,
    soft_margin_triplet_loss,
    triplet_loss,
)
from .sampler import (
    BatchPlan,
    SamplerConfig,
    build_geo_pools,
    build_sim_pools,
    plan_epoch,
    plan_rng,
    resolve_strategy,
    should_refresh,
)

LOSS_KINDS = ("infonce", "triplet", "soft_margin_triplet")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


@dataclass(frozen=True)
class EncoderParams:
    """Two-layer MLP weights; the ref_* set exists only when not shared."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    shared_weights: bool = True
    ref_W1: np.ndarray | None = None
    ref_b1: np.ndarray | None = None
    ref_W2: np.ndarray | None = None
    ref_b2: np.ndarray | None = None

    def __post_init__(self):
        _check_mlp_shapes("query", self.W1, self.b1, self.W2, self.b2)
        refs = (self.ref_W1, self.ref_b1, self.ref_W2, self.ref_b2)
        if self.shared_weights:
            if any(r is not None for r in refs):
                raise ValidationError("shared_weights=True forbids a reference parameter set")
        else:
            if any(r is None for r in refs):
                raise ValidationError("shared_weights=False requires a reference parameter set")
            _check_mlp_shapes("reference", *refs)
            if self.ref_W1.shape != self.W1.shape or self.ref_W2.shape != self.W2.shape:
                raise ValidationError("query and reference encoders must share shapes")

    @property
    def d_in(self) -> int:
        return self.W1.shape[0]

    @property
    def d_out(self) -> int:
        return self.W2.shape[1]


def _check_mlp_shapes(name, W1, b1, W2, b2):
    if W1.ndim != 2 or W2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
        raise ValidationError(f"{name} encoder: W must be 2-D and b 1-D")
    if b1.shape[0] != W1.shape[1] or W2.shape[0] != W1.shape[1] or b2.shape[0] != W2.shape[1]:
        raise ValidationError(f"{name} encoder: inconsistent layer shapes")
    for arr in (W1, b1, W2, b2):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} encoder: non-finite parameter entries")


def init_params(
    rng: np.random.Generator, d_in: int, d_h: int, d_out: int, shared_weights: bool = True
) -> EncoderParams:
    """Glorot-normal weights, zero biases."""

    def layer(m, n):
        return rng.standard_normal((m, n)) * math.sqrt(2.0 / (m + n))

    def encoder(prefix):
        return {prefix + "W1": layer(d_in, d_h), prefix + "b1": np.zeros(d_h),
                prefix + "W2": layer(d_h, d_out), prefix + "b2": np.zeros(d_out)}

    ref = {} if shared_weights else encoder("ref_")  # drawn first
    return EncoderParams(**encoder(""), shared_weights=shared_weights, **ref)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    lr_max: float = 0.001
    warmup_epochs: int = 1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    hidden_dim: int = 128
    embed_dim: int = 32
    shared_weights: bool = True
    loss_kind: str = "infonce"
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.lr_max <= 0:
            raise ValidationError("lr_max must be > 0")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValidationError("warmup_epochs must satisfy 0 <= warmup < epochs")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError("betas must be in [0, 1)")
        if self.eps <= 0:
            raise ValidationError("eps must be > 0")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be >= 0")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ValidationError("encoder dims must be >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise ValidationError(f"loss_kind {self.loss_kind!r} not in {LOSS_KINDS}")


# ---------------------------------------------------------------------------
# forward / backward


_TENSORS = ("W1", "b1", "W2", "b2")  # one encoder's tensors, in layer order


def _weights(params: EncoderParams, view: str):
    if view not in ("query", "reference"):
        raise ValidationError(f"view must be 'query' or 'reference', got {view!r}")
    prefix = "" if params.shared_weights or view == "query" else "ref_"
    return tuple(getattr(params, prefix + t) for t in _TENSORS)


def _forward(w, X):
    W1, b1, W2, b2 = w
    if X.shape[1] != W1.shape[0]:
        raise ValidationError(f"input dim {X.shape[1]} does not match encoder d_in {W1.shape[0]}")
    H_pre = X @ W1 + b1
    H = gelu(H_pre)
    Y = H @ W2 + b2
    norms = np.linalg.norm(Y, axis=1)
    bad = np.flatnonzero(norms <= 1e-35)
    if bad.size:
        raise ValidationError(f"zero-norm embedding row {int(bad[0])} before normalisation")
    U = Y / norms[:, None]
    return U, (X, H_pre, H, norms, U)


def _backward(w, cache, dU):
    W1, b1, W2, b2 = w
    X, H_pre, H, norms, U = cache
    dY = (dU - U * (U * dU).sum(axis=1, keepdims=True)) / norms[:, None]
    dW2 = H.T @ dY
    db2 = dY.sum(axis=0)
    dH_pre = (dY @ W2.T) * gelu_grad(H_pre)
    dW1 = X.T @ dH_pre
    db1 = dH_pre.sum(axis=0)
    return dW1, db1, dW2, db2


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
    U, _ = _forward(_weights(params, view), X)
    if row_ids is None:
        row_ids = tuple(str(i) for i in range(X.shape[0]))
    return EmbeddingTable(U.astype(np.float32), row_ids)


# ---------------------------------------------------------------------------
# optimisation


def lr_at(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Linear warm-up to lr_max, then cosine decay to 0 at the final step."""
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
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adamw_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    cfg: TrainConfig,
    decay_keys: frozenset[str] = frozenset(),
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One decoupled-weight-decay adaptive-moment update.

    Decay hits only the keys in ``decay_keys`` (the trainer passes its
    weight matrices, never biases or the logit scale).
    """
    t = state.step + 1
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.eps
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for key, theta in params.items():
        g = grads[key]
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient for parameter {key!r}")
        m = b1 * state.m[key] + (1.0 - b1) * g
        v = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        if key in decay_keys and cfg.weight_decay > 0:
            update = update + lr * cfg.weight_decay * theta
        new_params[key] = theta - update
        new_m[key] = m
        new_v[key] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# the flat parameter dictionary used by the optimiser


def _params_to_dict(params: EncoderParams, logit_scale: float) -> dict[str, np.ndarray]:
    out = dict(zip((f"q.{t}" for t in _TENSORS), _weights(params, "query")))
    out["logit_scale"] = np.array(logit_scale)
    if not params.shared_weights:
        out.update(zip((f"r.{t}" for t in _TENSORS), _weights(params, "reference")))
    return out


def _dict_to_params(d: dict[str, np.ndarray], shared: bool) -> tuple[EncoderParams, float]:
    kw = {t: d[f"q.{t}"] for t in _TENSORS}
    if not shared:
        kw.update({f"ref_{t}": d[f"r.{t}"] for t in _TENSORS})
    return EncoderParams(shared_weights=shared, **kw), float(d["logit_scale"])


def _decay_keys(d: dict[str, np.ndarray]) -> frozenset[str]:
    return frozenset(k for k in d if k.endswith(".W1") or k.endswith(".W2"))


def _batch_objective(
    pdict: dict[str, np.ndarray],
    Xq: np.ndarray,
    Xr: np.ndarray,
    shared: bool,
    loss_cfg: LossConfig,
    loss_kind: str = "infonce",
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients w.r.t. every entry of the parameter dict."""
    wq = tuple(pdict[f"q.{t}"] for t in _TENSORS)
    wr = wq if shared else tuple(pdict[f"r.{t}"] for t in _TENSORS)
    cfg = replace(loss_cfg, logit_scale=float(pdict["logit_scale"]))

    Q, cache_q = _forward(wq, Xq)
    R, cache_r = _forward(wr, Xr)

    if loss_kind == "infonce":
        out = info_nce(Q, R, cfg)
        dQ, dR, dscale = out.grad_queries, out.grad_references, out.grad_logit_scale
    else:
        n = Q.shape[0]
        if n < 2:
            raise ValidationError("triplet losses need at least two pairs per batch")
        # one negative per anchor: the next batch member's reference (hard
        # when the sampler filled the batch with the anchor's neighbours)
        neg = np.roll(np.arange(n), -1)
        if loss_kind == "triplet":
            out = triplet_loss(Q, R, R[neg], margin=cfg.triplet_margin)
        else:
            out = soft_margin_triplet_loss(Q, R, R[neg])
        dQ = out.grad_queries
        dR = out.grad_references.copy()
        np.add.at(dR, neg, out.grad_negatives)
        dscale = 0.0

    gq = _backward(wq, cache_q, dQ)
    gr = _backward(wr, cache_r, dR)
    if shared:
        gq = tuple(a + b for a, b in zip(gq, gr))
    grads = dict(zip((f"q.{t}" for t in _TENSORS), gq))
    grads["logit_scale"] = np.array(dscale)
    if not shared:
        grads.update(zip((f"r.{t}" for t in _TENSORS), gr))
    return out.loss, grads


# ---------------------------------------------------------------------------
# training loop


def holdout_size(n: int) -> int:
    """Pairs held out at the end of an n-pair manifest: 10%, at least one."""
    return max(1, n // 10)


@dataclass(frozen=True)
class TrainResult:
    params: EncoderParams
    loss_config: LossConfig
    history: list[dict]
    plans: list[BatchPlan]


def train(
    manifest: list[SampleRecord],
    query_features: EmbeddingTable,
    reference_features: EmbeddingTable,
    cfg: TrainConfig,
    geo_cfg: GeoConfig = GeoConfig(),
) -> TrainResult:
    """Train the encoder on row-aligned features; deterministic given cfg.

    The final holdout_size(n) pairs by pair_index are held out, and each
    needs a positive among them; per epoch the history records the mean
    batch loss, the learning rate at the last step, and the held-out R@1.
    """
    n = len(manifest)
    if query_features.count != n or reference_features.count != n:
        raise ValidationError("feature tables must be row-aligned with the manifest")
    if query_features.dim != reference_features.dim:
        raise ValidationError("query and reference features must share a dimension")
    for t in (query_features, reference_features):
        for row_id, record in zip(t.row_ids, manifest):
            if row_id != record.id:
                raise ValidationError(
                    f"feature row {row_id!r} does not align with record {record.id!r}"
                )

    n_train = n - holdout_size(n)
    if n_train < 2:
        raise ValidationError(f"{n} pairs leave only {n_train} for training")
    train_records = manifest[:n_train]
    holdout = slice_manifest(manifest, n_train, n)
    holdout_row = {r.id: r.pair_index for r in holdout}
    holdout_positives = [{holdout_row[p] for p in r.positives} for r in holdout]
    scfg = cfg.sampler
    needs_pools = scfg.strategy != "random"
    if needs_pools and scfg.pool_size > n_train - 1:
        raise ValidationError(
            f"pool_size={scfg.pool_size} exceeds training pairs - 1 = {n_train - 1}"
        )

    Xq = query_features.data.astype(np.float64)
    Xr = reference_features.data.astype(np.float64)
    Xq_train, Xr_train = Xq[:n_train], Xr[:n_train]

    rng_init = np.random.default_rng([cfg.seed, 0])
    params = init_params(rng_init, query_features.dim, cfg.hidden_dim, cfg.embed_dim,
                         cfg.shared_weights)
    loss_cfg = cfg.loss
    pdict = _params_to_dict(params, loss_cfg.logit_scale)
    state = adamw_init(pdict)
    decay = _decay_keys(pdict)

    geo_pools = None
    if scfg.strategy == "gps" or (scfg.strategy == "gps_then_dss" and scfg.gps_epochs > 0):
        geo_pools = build_geo_pools(train_records, scfg, geo_cfg)
    sim_pools = None

    steps_per_epoch = math.ceil(n_train / scfg.batch_size)
    global_step = 0
    history: list[dict] = []
    plans: list[BatchPlan] = []

    for epoch in range(cfg.epochs):
        if should_refresh(epoch, scfg):
            params, _ = _dict_to_params(pdict, cfg.shared_weights)
            q_emb = encode(params, Xq_train, "query")
            r_emb = encode(params, Xr_train, "reference")
            sim_pools = build_sim_pools(q_emb, r_emb, scfg)

        strategy = resolve_strategy(scfg, epoch)
        pools = {"random": None, "gps": geo_pools, "dss": sim_pools}[strategy]
        plan = plan_epoch(train_records, pools, scfg, epoch, plan_rng(scfg, epoch))
        plans.append(plan)

        losses = []
        lr = 0.0
        for batch in plan.batches:
            idx = list(batch)
            if cfg.loss_kind != "infonce" and len(idx) < 2:
                continue  # a lone pair has no in-batch negative
            lr = lr_at(global_step, steps_per_epoch, cfg)
            loss, grads = _batch_objective(
                pdict, Xq_train[idx], Xr_train[idx], cfg.shared_weights, loss_cfg, cfg.loss_kind
            )
            pdict, state = adamw_step(pdict, grads, state, lr, cfg, decay)
            clamped = clamp_logit_scale(
                replace(loss_cfg, logit_scale=float(pdict["logit_scale"]))
            )
            pdict["logit_scale"] = np.array(clamped.logit_scale)
            loss_cfg = clamped
            losses.append(loss)
            global_step += 1

        params, _ = _dict_to_params(pdict, cfg.shared_weights)
        Q, _ = _forward(_weights(params, "query"), Xq[n_train:])
        R, _ = _forward(_weights(params, "reference"), Xr[n_train:])
        r1 = recall_at_k(Q @ R.T, holdout_positives, 1)
        history.append(
            {"epoch": epoch, "loss": float(np.mean(losses)) if losses else 0.0,
             "lr": lr, "r1": r1}
        )

    params, final_scale = _dict_to_params(pdict, cfg.shared_weights)
    return TrainResult(
        params=params,
        loss_config=replace(cfg.loss, logit_scale=final_scale),
        history=history,
        plans=plans,
    )


# ---------------------------------------------------------------------------
# gradient checking


def gradcheck(
    cfg: TrainConfig,
    n: int = 8,
    d_in: int = 16,
    seed: int = 0,
    step: float = 1e-5,
    corrupt: float = 0.0,
) -> dict[str, float]:
    """Compare backprop gradients of the full batch objective to central
    finite differences, for an encoder of cfg's widths over n random
    d_in-dimensional pairs.

    Returns per-parameter max relative errors plus their overall "max".
    The relative error of a tensor is the sup-norm deviation scaled by
    the larger of the two gradients' sup-norms (absolute when both
    vanish). ``corrupt`` scales the analytic q.W1 gradient, a hook for
    the harness self-test.
    """
    rng = np.random.default_rng(seed)
    params = init_params(rng, d_in, cfg.hidden_dim, cfg.embed_dim, cfg.shared_weights)
    Xq = rng.standard_normal((n, d_in))
    Xr = rng.standard_normal((n, d_in))
    pdict = _params_to_dict(params, cfg.loss.logit_scale)

    _, analytic = _batch_objective(pdict, Xq, Xr, cfg.shared_weights, cfg.loss, cfg.loss_kind)
    if corrupt:
        analytic["q.W1"] = analytic["q.W1"] * (1.0 + corrupt)

    def loss_at(d):
        value, _ = _batch_objective(d, Xq, Xr, cfg.shared_weights, cfg.loss, cfg.loss_kind)
        return value

    report: dict[str, float] = {}
    for key, theta in pdict.items():
        work = np.array(theta, dtype=np.float64)
        probe = dict(pdict)
        probe[key] = work
        view = np.atleast_1d(work)  # shares work's buffer
        numeric = np.zeros(view.size)
        for i in range(view.size):
            orig = view.flat[i]
            view.flat[i] = orig + step
            up = loss_at(probe)
            view.flat[i] = orig - step
            down = loss_at(probe)
            view.flat[i] = orig
            numeric[i] = (up - down) / (2.0 * step)
        a = np.atleast_1d(analytic[key]).ravel()
        diff = float(np.max(np.abs(a - numeric)))
        denom = max(float(np.max(np.abs(a))), float(np.max(np.abs(numeric))))
        report[key] = diff / denom if denom > 1e-10 else diff
    report["max"] = max(report.values())
    return report


# ---------------------------------------------------------------------------
# parameter persistence


def save_params(params: EncoderParams, loss_cfg: LossConfig, out_dir: str | Path) -> None:
    """Write tensors as EMB1 blocks beside a JSON shape header."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tensors = _params_to_dict(params, loss_cfg.logit_scale)
    del tensors["logit_scale"]
    header = {
        "shared_weights": params.shared_weights,
        "logit_scale": loss_cfg.logit_scale,
        "tensors": {},
    }
    for key, arr in sorted(tensors.items()):
        mat = arr if arr.ndim == 2 else arr[None, :]
        fname = key.replace(".", "_") + ".emb"
        table = EmbeddingTable(
            mat.astype(np.float32), tuple(str(i) for i in range(mat.shape[0]))
        )
        write_embeddings(table, out_dir / fname)
        header["tensors"][key] = {"file": fname, "shape": list(arr.shape)}
    (out_dir / "header.json").write_text(
        json.dumps(header, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_params(in_dir: str | Path) -> tuple[EncoderParams, float]:
    in_dir = Path(in_dir)
    header = json.loads((in_dir / "header.json").read_text(encoding="utf-8"))
    tensors: dict[str, np.ndarray] = {}
    for key, meta in header["tensors"].items():
        table = read_embeddings(in_dir / meta["file"])
        arr = table.data.astype(np.float64).reshape(meta["shape"])
        tensors[key] = arr
    tensors["logit_scale"] = np.array(float(header["logit_scale"]))
    params, scale = _dict_to_params(tensors, header["shared_weights"])
    return params, scale
