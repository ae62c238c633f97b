"""Independent brute-force reference implementations.

Everything here is deliberately written with plain Python loops and the
standard library so it shares no code path with the package: rankings by
explicit sort, distances by scalar math, optimiser updates by scalar
recursion. Tests compare the fast implementations against these.

The one exception is ``LegacyStep``: the straightforward numpy training
step (erf gelu and its gradient, out-of-place AdamW with a boolean decay
mask, a freshly built smoothed target), kept as written so the optimised
trainer can be held to its bytes.
"""

import math

import numpy as np
from scipy.special import erf


def rank_references(sim_row):
    """Indices sorted by descending similarity, ties toward lower index."""
    return sorted(range(len(sim_row)), key=lambda j: (-sim_row[j], j))


def count_rank(row, c, skip=()):
    """1 + the entries of row above row[c] + those equal to it at a lower
    index, leaving out the indices in skip, by scalar comparisons: for a row
    without NaN, c's place in rank_references(row) with skip removed. A NaN
    compares false both ways, so it ranks ahead of nothing and a NaN row[c]
    ranks first."""
    s = row[c]
    return 1 + sum(1 for j, x in enumerate(row) if j not in skip and (x > s or x == s and j < c))


def brute_recall_at_k(sim, positives, k):
    hits = 0
    for i in range(len(sim)):
        top = rank_references(sim[i])[:k]
        if any(j in positives[i] for j in top):
            hits += 1
    return hits / len(sim)


def brute_recall_at_percent(sim, positives, pct):
    n_r = len(sim[0])
    return brute_recall_at_k(sim, positives, math.ceil(pct / 100.0 * n_r))


def brute_hit_rate(sim, positives, semi_positives):
    hits = 0
    for i in range(len(sim)):
        ranking = [j for j in rank_references(sim[i]) if j not in semi_positives[i]]
        if ranking[0] in positives[i]:
            hits += 1
    return hits / len(sim)


def brute_average_precision(ranking, positives):
    found = 0
    total = 0.0
    for rank, ref in enumerate(ranking, start=1):
        if ref in positives:
            found += 1
            total += found / rank
    return total / len(positives)


def brute_nearest(points, distance, k):
    """Per point, the k nearest others by the given scalar distance function."""
    return brute_nearest_keys([[distance(p, q) for q in points] for p in points], k)[0]


def brute_nearest_keys(keys, k):
    """Per row of a key matrix, the k columns with the smallest keys and those
    keys: a full stable sort of the row with its own column left out."""
    indices, nearest = [], []
    for i, row in enumerate(keys):
        order = sorted((j for j in range(len(row)) if j != i), key=lambda j: (row[j], j))[:k]
        indices.append(order)
        nearest.append([row[j] for j in order])
    return indices, nearest


def rescan_plan(class_of, pools, batch_size, picks_per_anchor, rng):
    """Greedy epoch plan that tops up every batch by rescanning the whole
    shuffle; pools is None or, per anchor, its neighbour indices nearest
    first. Consumes ``rng`` as the planner does."""
    order = [int(i) for i in rng.permutation(len(class_of))]
    used = set()
    batches = []
    for anchor in (a for a in order if a not in used):
        batch = [anchor]
        candidates = list(order)
        if pools is not None:
            half = picks_per_anchor // 2
            draw = rng.choice(len(pools[anchor]) - half, picks_per_anchor - half, replace=False)
            picks = [*range(half), *sorted(half + int(c) for c in draw)]
            candidates = [pools[anchor][j] for j in picks] + candidates
        for cand in candidates:
            if (len(batch) < batch_size and cand not in used and cand not in batch
                    and all(class_of[cand] != class_of[b] for b in batch)):
                batch.append(cand)
        used.update(batch)
        batches.append(tuple(batch))
    return batches


def law_of_cosines_distance(lat1, lon1, lat2, lon2, radius):
    """Great-circle distance via the spherical law of cosines."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius * math.acos(max(-1.0, min(1.0, c)))


def scalar_adamw(theta, grads, lr, beta1, beta2, eps, weight_decay):
    """Reference scalar recursion for decoupled-weight-decay Adam."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps) - lr * weight_decay * theta
    return theta


def central_difference(f, x, i, step=1e-5):
    """(f(x + step e_i) - f(x - step e_i)) / (2 step) for flat float lists."""
    up = list(x)
    down = list(x)
    up[i] += step
    down[i] -= step
    return (f(up) - f(down)) / (2 * step)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def legacy_gelu(x):
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def legacy_gelu_grad(x):
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def legacy_info_nce(q, r, label_smoothing, logit_scale, direction="symmetric"):
    """(loss, dQ, dR, dlogit_scale) of the smoothed batch softmax, with
    the target built afresh on every call."""
    n = q.shape[0]
    scale = math.exp(logit_scale)
    logits = scale * (q @ r.T)
    eps = label_smoothing
    target = np.full((n, n), eps / n)
    np.fill_diagonal(target, 1.0 - eps + eps / n)

    def direction_loss(lg):
        m = lg.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(lg - m).sum(axis=1))
        loss = float(np.mean(lse - (target * lg).sum(axis=1)))
        probs = np.exp(lg - lse[:, None])
        return loss, (probs - target) / n

    loss_qr, g_qr = direction_loss(logits)
    loss_rq, g_rq_t = direction_loss(logits.T)
    g_rq = g_rq_t.T
    if direction == "query_to_ref":
        loss, grad_logits = loss_qr, g_qr
    elif direction == "ref_to_query":
        loss, grad_logits = loss_rq, g_rq
    else:
        loss = 0.5 * (loss_qr + loss_rq)
        grad_logits = 0.5 * (g_qr + g_rq)
    return (loss, scale * grad_logits @ r, scale * grad_logits.T @ q,
            float((grad_logits * logits).sum()))


class LegacyStep:
    """InfoNCE training steps over its own copy of a theta vector laid out
    as q.W1 q.b1 q.W2 q.b2 [r.W1 r.b1 r.W2 r.b2] logit_scale."""

    def __init__(self, theta, d_in, d_hidden, d_out, shared_weights,
                 beta1, beta2, eps, weight_decay):
        self.theta = theta.copy()
        shapes = ((d_in, d_hidden), (d_hidden,), (d_hidden, d_out), (d_out,))
        self.encoders, decay, start = [], [], 0
        for _ in range(1 if shared_weights else 2):
            tensors = []
            for shape in shapes:
                size = math.prod(shape)
                tensors.append(self.theta[start:start + size].reshape(shape))
                decay.append(np.full(size, len(shape) == 2))
                start += size
            self.encoders.append(tuple(tensors))
        self.decay = np.concatenate(decay + [[False]])
        self.shared = shared_weights
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)
        self.t = 0
        self.betas, self.eps, self.weight_decay = (beta1, beta2), eps, weight_decay

    @staticmethod
    def forward(w, X):
        W1, b1, W2, b2 = w
        H_pre = X @ W1 + b1
        H = legacy_gelu(H_pre)
        Y = H @ W2 + b2
        norms = np.linalg.norm(Y, axis=1)
        U = Y / norms[:, None]
        return U, (X, H_pre, H, norms, U)

    @staticmethod
    def backward(w, cache, dU):
        W1, b1, W2, b2 = w
        X, H_pre, H, norms, U = cache
        dY = (dU - U * (U * dU).sum(axis=1, keepdims=True)) / norms[:, None]
        dW2 = H.T @ dY
        db2 = dY.sum(axis=0)
        dH_pre = (dY @ W2.T) * legacy_gelu_grad(H_pre)
        dW1 = X.T @ dH_pre
        db1 = dH_pre.sum(axis=0)
        return dW1, db1, dW2, db2

    def adamw(self, grad, lr):
        b1, b2 = self.betas
        self.t += 1
        t = self.t
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        m_hat = self.m / (1.0 - b1**t)
        v_hat = self.v / (1.0 - b2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay > 0:
            update[self.decay] += lr * self.weight_decay * self.theta[self.decay]
        self.theta -= update

    def step(self, Xq, Xr, lr, label_smoothing, logit_scale_max, direction="symmetric"):
        """One objective, AdamW update and temperature clamp; the loss."""
        wq = self.encoders[0]
        wr = wq if self.shared else self.encoders[1]
        Q, cache_q = self.forward(wq, Xq)
        R, cache_r = self.forward(wr, Xr)
        loss, dQ, dR, dscale = legacy_info_nce(Q, R, label_smoothing, float(self.theta[-1]),
                                               direction)
        gq = self.backward(wq, cache_q, dQ)
        gr = self.backward(wr, cache_r, dR)
        blocks = [a + b for a, b in zip(gq, gr)] if self.shared else [*gq, *gr]
        self.adamw(np.concatenate([g.ravel() for g in blocks] + [[dscale]]), lr)
        self.theta[-1] = min(float(self.theta[-1]), logit_scale_max)
        return loss
