"""Independent brute-force reference implementations.

Everything here is deliberately written with plain Python loops and the
standard library so it shares no code path with the package: rankings by
explicit sort, distances by scalar math, optimiser updates by scalar
recursion. Tests compare the fast implementations against these.
"""

import math


def rank_references(sim_row):
    """Indices sorted by descending similarity, ties toward lower index."""
    return sorted(range(len(sim_row)), key=lambda j: (-sim_row[j], j))


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
