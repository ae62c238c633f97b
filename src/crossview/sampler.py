"""Epoch batch planning from geographic (GPS) and visual (DSS) pools.

Each anchor takes k picks from its pool of K: the k/2 nearest and k/2 drawn
from the rest. Each pair is in exactly one batch per epoch, and no batch holds
two pairs of one class.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import EmbeddingTable, SampleRecord, json_line, read_json, read_lines, require_heap
from .errors import ValidationError, check_setting, check_settings, first_repeat, setting
from .geo import GeoConfig, geo_topk
from .neighbors import BLOCK_BYTES, require_pool_size
from .simsearch import NeighborPool, Pools, visual_topk

STRATEGIES = ("random", "gps", "dss", "gps_then_dss")
EPOCH = setting(0, ge=0)  # an epoch number, the CLI's --epoch
_PLACED = object()  # plan_epoch's tag for a pair already in a batch


@dataclass(frozen=True)
class SamplerConfig:
    SECTION = "sampler"

    batch_size: int = setting(128, ge=1)
    pool_size: int = 128  # at least picks_per_anchor, so at least 2
    picks_per_anchor: int = setting(64, ge=2, le="pool_size")
    refresh_every: int = setting(4, ge=1)
    gps_epochs: int = setting(4, ge=0)
    strategy: str = setting("gps_then_dss", choices=STRATEGIES)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self)
        if self.picks_per_anchor % 2 != 0:
            raise ValidationError(f"sampler.picks_per_anchor={self.picks_per_anchor} must be even")


@dataclass(frozen=True)
class BatchPlan:
    """One epoch's batches: each record position appears exactly once overall."""

    epoch: int
    batches: tuple[tuple[int, ...], ...]
    strategy_used: str


def resolve_strategy(cfg: SamplerConfig, epoch: int) -> str:
    """Effective strategy at ``epoch``: gps_then_dss switches after gps_epochs."""
    check_setting("epoch", EPOCH, epoch)
    if cfg.strategy == "gps_then_dss":
        return "gps" if epoch < cfg.gps_epochs else "dss"
    return cfg.strategy


def plan_rng(cfg: SamplerConfig, epoch: int) -> np.random.Generator:
    """The per-epoch planning stream; shared by the trainer and the plan CLI."""
    check_setting("epoch", EPOCH, epoch)
    return np.random.default_rng([cfg.seed, epoch])


def should_refresh(epoch: int, cfg: SamplerConfig) -> bool:
    """Whether visual pools must be (re)built from fresh embeddings at ``epoch``."""
    first = cfg.gps_epochs if cfg.strategy == "gps_then_dss" else 0  # the first dss epoch
    return resolve_strategy(cfg, epoch) == "dss" and (epoch - first) % cfg.refresh_every == 0


def pool_bytes(n: int, K: int, width: int) -> int:
    """An upper estimate of the peak heap of n pools of size K over rows of
    ``width`` float64 values (2 for coordinates), in bytes: 16 per entry, per
    row 24 per value and 512 for grid and selection arrays, and eight
    BLOCK_BYTES of key blocks."""
    return n * (16 * K + 24 * width + 512) + 8 * BLOCK_BYTES


def _require_pool_fits(cfg: SamplerConfig, n: int, width: int) -> None:
    require_pool_size("sampler.pool_size", cfg.pool_size, n)
    require_heap(pool_bytes(n, cfg.pool_size, width), f"sampler.pool_size={cfg.pool_size} "
                 f"over {n} pairs")


def build_geo_pools(
    records: list[SampleRecord], cfg: SamplerConfig, geo: GeoConfig = GeoConfig()
) -> Pools:
    """Geographic pools of size pool_size over the records' own coordinates."""
    _require_pool_fits(cfg, len(records), 2)
    coords = [r.coord for r in records]
    return geo_topk(coords, coords, cfg.pool_size, geo)


def build_sim_pools(
    queries: EmbeddingTable, references: EmbeddingTable, cfg: SamplerConfig
) -> Pools:
    """Visual pools of size pool_size from unit-normalised embedding tables."""
    _require_pool_fits(cfg, references.count, references.dim)
    return visual_topk(queries, references, cfg.pool_size)


def pick_from_pool(
    pool: NeighborPool, cfg: SamplerConfig, rng_state: np.random.Generator
) -> list[int]:
    """The k/2 nearest pool members plus k/2 drawn from the rest, both in pool
    order, so with k equal to the pool size it is the whole pool."""
    k = cfg.picks_per_anchor
    row = pool.neighbor_indices
    size = len(row)
    if size < k:
        raise ValidationError(f"pool for anchor {pool.anchor_index} has {size} entries, need {k}")
    half = k // 2
    chosen = rng_state.choice(size - half, size=k - half, replace=False).tolist()
    rest = row[half:]
    return [*row[:half], *[rest[c] for c in sorted(chosen)]]


def plan_epoch(
    records: list[SampleRecord],
    pools: Pools | None,
    cfg: SamplerConfig,
    epoch: int,
    rng_state: np.random.Generator,
) -> BatchPlan:
    """Greedily tile one epoch into batches. The first unused pair of a seeded
    shuffle opens each batch and pulls in its pool picks, then the rest of the
    shuffle, skipping used pairs and classes already in the batch. Any
    class fits: one of more than ceil(n / batch_size) pairs gives more,
    shorter batches, which may come mid-epoch."""
    n = len(records)
    if n == 0:
        raise ValidationError("cannot plan an epoch over zero records")
    strategy = resolve_strategy(cfg, epoch)
    if strategy != "random":
        expected_kind = "geographic" if strategy == "gps" else "visual"
        if pools is None:
            raise ValidationError(f"strategy {strategy!r} at epoch {epoch} requires pools")
        if len(pools) != n:
            raise ValidationError(f"{len(pools)} pools for {n} records")
        if pools.kind != expected_kind:
            raise ValidationError(
                f"strategy {strategy!r} needs {expected_kind} pools, got {pools.kind!r}"
            )
        if pools.indices.shape[1] < cfg.picks_per_anchor:
            raise ValidationError(
                f"pools hold {pools.indices.shape[1]} entries per anchor, "
                f"need picks_per_anchor={cfg.picks_per_anchor}"
            )
        pools.require_entries(pools.indices < n, f"outside the {n} records")  # Pools refuses < 0

    tag = [r.class_id for r in records]  # a pair's class, then _PLACED once in a batch
    order = rng_state.permutation(n).tolist()
    size = cfg.batch_size
    batches: list[tuple[int, ...]] = []
    cursor = 0  # every order entry before it is placed
    while True:
        while cursor < n and tag[order[cursor]] is _PLACED:
            cursor += 1
        if cursor == n:
            break
        anchor = order[cursor]
        batch = [anchor]
        classes = {_PLACED, tag[anchor]}  # a candidate whose tag is here is skipped
        tag[anchor] = _PLACED
        picks = pick_from_pool(pools[anchor], cfg, rng_state) if strategy != "random" else ()
        room = size - 1
        if room:
            for cand in picks:
                c = tag[cand]
                if c in classes:
                    continue
                batch.append(cand)
                classes.add(c)
                tag[cand] = _PLACED
                room -= 1
                if not room:
                    break
            else:  # the picks left room: top up from the shuffle after the anchor
                free, pos = n, n - 1  # free: the first walked entry left unplaced, if any
                for pos in range(cursor + 1, n):
                    cand = order[pos]
                    c = tag[cand]
                    if c in classes:
                        if c is not _PLACED and free == n:
                            free = pos
                        continue
                    batch.append(cand)
                    classes.add(c)
                    tag[cand] = _PLACED
                    room -= 1
                    if not room:
                        break
                cursor = min(free, pos + 1)  # every order entry before it is placed
        batches.append(tuple(batch))
    return BatchPlan(epoch=epoch, batches=tuple(batches), strategy_used=strategy)


def validate_plan(plan: BatchPlan, records: list[SampleRecord], cfg: SamplerConfig) -> None:
    """Raise unless the plan satisfies exact cover, size, and class uniqueness;
    a cover error names the first pair placed twice, or else the first pair
    in no batch."""
    n = len(records)
    seen: list[int] = []
    for b, batch in enumerate(plan.batches):
        if not batch:
            raise ValidationError(f"batch {b} is empty")
        if len(batch) > cfg.batch_size:
            raise ValidationError(f"batch of {len(batch)} exceeds batch_size {cfg.batch_size}")
        outside = [i for i in batch if not 0 <= i < n]
        if outside:
            raise ValidationError(f"batch entry {outside[0]} outside [0, {n}) in batch {batch}")
        classes = [records[i].class_id for i in batch]
        if len(set(classes)) != len(classes):
            raise ValidationError(f"duplicate class in batch {batch}")
        seen.extend(batch)
    if sorted(seen) != list(range(n)):
        repeat = first_repeat(seen)
        if repeat:
            i, j = repeat
            batch_of = [b for b, batch in enumerate(plan.batches) for _ in batch]  # per seen entry
            fault = f"pair {seen[j]} is in batch {batch_of[i]} and batch {batch_of[j]}"
        else:
            fault = f"pair {min(set(range(n)).difference(seen))} is in no batch"
        raise ValidationError(f"plan does not cover every pair exactly once: {fault}")


def plan_text(plan: BatchPlan) -> str:
    """The plan as JSON-lines, one batch per line as an array of pair indices."""
    return "".join(json_line(list(batch)) + "\n" for batch in plan.batches)


def write_plan(plan: BatchPlan, path: str | Path) -> None:
    """Write plan_text(plan) to path."""
    Path(path).write_text(plan_text(plan), encoding="utf-8")


def _batch_from_json(line: str) -> tuple[int, ...]:
    batch = read_json(line)
    if not isinstance(batch, list) or any(type(i) is not int for i in batch):
        raise ValueError(f"{line} is not a JSON list of integers")
    return tuple(batch)


def read_plan(path: str | Path, epoch: int = 0, strategy_used: str = "random") -> BatchPlan:
    """Inverse of write_plan, through ``read_lines``: batch i is the i-th non-blank line."""
    return BatchPlan(epoch, tuple(b for _, b in read_lines(path, _batch_from_json)), strategy_used)
