"""Command-line entry point: gen-synth, plan, train, eval, gradcheck, ablate.

Exit code 0 on success, 1 on a ValidationError, 2 on an OSError. Outputs hold
no timestamps, and train and ablate name their artifacts by content hash, so
equal configs and seeds reproduce the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import re
import statistics
import sys
from pathlib import Path

from .config import ConfigBundle, parse_config
from .datasets import (
    Coordinate,
    SampleRecord,
    emb1_bytes,
    emb1_shape,
    generate_synthetic,
    json_line,
    load_manifest,
    manifest_text,
    read_embeddings,
    require_aligned,
    require_heap,
    require_same_width,
    write_embeddings,
    write_json,
    write_manifest,
)
from .errors import ValidationError, check_setting, setting
from .evaluation import RECALL_KS, evaluate, score_bytes
from .sampler import (
    EPOCH,
    build_geo_pools,
    build_sim_pools,
    plan_epoch,
    plan_rng,
    plan_text,
    resolve_strategy,
    write_plan,
)
from .simsearch import l2_normalize
from .trainer import (ABLATION_SEEDS, AXES, GRADCHECK_PAIRS, TrainResult, ablation_configs,
                      gradcheck, save_params, train)


def _hash8(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def _load_bundle(args) -> ConfigBundle:
    overrides = list(getattr(args, "set", None) or [])
    return parse_config(args.config, overrides)


def cmd_gen_synth(args) -> int:
    bundle = _load_bundle(args)
    records, queries, references = generate_synthetic(bundle.synth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(records, out / "manifest.jsonl")
    write_embeddings(queries, out / "query.emb")
    write_embeddings(references, out / "reference.emb")
    print(f"wrote {len(records)} pairs to {out}")
    return 0


def _require_tables_fit(query: str | Path, reference: str | Path) -> None:
    """Raise, by two EMB1 headers alone, naming the larger file when scoring
    the tables at four links per query is over the heap budget
    (``evaluation.score_bytes``), then both files when their widths differ."""
    shapes = [(emb1_shape(path), path) for path in (query, reference)]
    ((n_q, d_q), _), ((n_r, d_r), _) = shapes
    (count, dim), path = max(shapes, key=lambda shape: shape[0][0] * shape[0][1])
    require_heap(score_bytes(n_q, n_r, max(d_q, d_r), 4 * n_q),
                 f"{path}: scoring {count} rows of dim {dim}")
    require_same_width(str(query), d_q, str(reference), d_r)


def cmd_plan(args) -> int:
    bundle = _load_bundle(args)
    scfg = bundle.sampler
    strategy = resolve_strategy(scfg, args.epoch)
    if strategy == "gps" and not args.manifest:
        raise ValidationError("GPS planning needs --manifest for coordinates")
    if strategy == "dss" and not args.embeddings:
        raise ValidationError("DSS planning needs --embeddings Q.emb R.emb")
    if not (args.manifest or args.embeddings):
        raise ValidationError("random planning needs --manifest or --embeddings")

    if args.embeddings:
        _require_tables_fit(*args.embeddings)
    tables = [read_embeddings(path) for path in args.embeddings or ()]
    if args.manifest:
        records = load_manifest(args.manifest)
    else:  # each pair its own class, at the origin
        records = [SampleRecord(rid, rid, Coordinate(0.0, 0.0, "planar"), (rid,))
                   for rid in tables[0].row_ids]
    for what, table in zip(("query", "reference"), tables):
        require_aligned(what, table.row_ids, records)

    pools = None
    if strategy == "gps":
        pools = build_geo_pools(records, scfg, bundle.geo)
    elif strategy == "dss":
        pools = build_sim_pools(*map(l2_normalize, tables), scfg)
    plan = plan_epoch(records, pools, scfg, args.epoch, plan_rng(scfg, args.epoch))
    write_plan(plan, args.out)
    print(f"wrote {len(plan.batches)} batches ({plan.strategy_used}) to {args.out}")
    return 0


def _write_train_artifacts(result: TrainResult, out: Path, dataset_hash: str) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    history_text = "".join(json_line(record) + "\n" for record in result.history)
    history_name = f"history-{_hash8(history_text.encode())}.jsonl"
    (out / history_name).write_text(history_text, encoding="utf-8")

    plan_names = []
    for plan in result.plans:
        text = plan_text(plan)
        name = f"plan-e{plan.epoch:03d}-{_hash8(text.encode())}.jsonl"
        (out / name).write_text(text, encoding="utf-8")
        plan_names.append(name)

    # named by the query encoder's W1 b1 W2 b2
    query_bytes = b"".join(t.astype("<f8").tobytes() for t in result.params.query)
    params_dir = f"params-{_hash8(query_bytes)}"
    save_params(result.params, out / params_dir)

    run = {
        "dataset_hash": dataset_hash,
        "history": history_name,
        "params": params_dir,
        "plans": plan_names,
        "final": result.history[-1],
    }
    write_json(run, out / "run.json")
    return run


def _dataset_hash(*parts: bytes) -> str:
    """The first 12 hex digits of the sha256 of a manifest's and the two EMB1
    files' bytes, in that order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:12]


def cmd_train(args) -> int:
    bundle = _load_bundle(args)
    data = Path(args.data)
    _require_tables_fit(data / "query.emb", data / "reference.emb")
    # each file is read once: the hash and the readers share its bytes
    raw = {name: (data / name).read_bytes()
           for name in ("manifest.jsonl", "query.emb", "reference.emb")}
    dataset_hash = _dataset_hash(*raw.values())
    manifest = load_manifest(data / "manifest.jsonl", raw.pop("manifest.jsonl"))
    queries = read_embeddings(data / "query.emb", raw.pop("query.emb"))
    references = read_embeddings(data / "reference.emb", raw.pop("reference.emb"))
    result = train(manifest, queries, references, bundle.train, bundle.geo)
    run = _write_train_artifacts(result, Path(args.out), dataset_hash)
    print(json_line(run["final"]))
    return 0


def cmd_eval(args) -> int:
    _require_tables_fit(args.query, args.ref)
    queries = read_embeddings(args.query)
    references = read_embeddings(args.ref)
    manifest = load_manifest(args.manifest)
    report = evaluate(queries, references, manifest)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_gradcheck(args) -> int:
    bundle = _load_bundle(args)
    worst: dict[str, float] = {}
    for i in range(args.inits):
        report = gradcheck(bundle.train, n=args.n, d_in=bundle.synth.view_dim,
                           seed=bundle.train.seed + i)
        for key, value in report.items():
            worst[key] = max(worst.get(key, 0.0), value)
    print(json_line(worst))
    if worst["max"] > args.tol:
        print(f"gradient check FAILED: {worst['max']:.3e} > {args.tol:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_ablate(args) -> int:
    bundle = _load_bundle(args)
    axis = args.axis
    grid = ablation_configs(bundle.train, axis, args.seeds)
    records, queries, references = generate_synthetic(bundle.synth)
    # the hash train gives the files gen-synth writes for this dataset
    dataset_hash = _dataset_hash(manifest_text(records).encode("utf-8"),
                                 emb1_bytes(queries), emb1_bytes(references))
    out_csv = Path(args.out)
    out_csv.parent.mkdir(parents=True, exist_ok=True)

    metrics = (*(f"r_at_{k}" for k in RECALL_KS), "r_at_1pct", "hit_rate")
    runs, rows = [], []
    for value, configs in grid.items():
        for seed, cfg in enumerate(configs):
            report = train(records, queries, references, cfg, bundle.geo).holdout
            runs.append({axis: value, "seed": seed,
                         **{f"r_at_{k}": report.recall_at[k] for k in RECALL_KS},
                         "r_at_1pct": report.recall_at_1pct, "hit_rate": report.hit_rate})
        row = {axis: value, "seeds": args.seeds, "dataset_hash": dataset_hash}
        for key in metrics:  # medians over this value's runs, the last len(configs) of runs
            values = [m[key] for m in runs[-len(configs):] if m[key] is not None]
            row[key] = statistics.median(values) if values else None
        rows.append(row)

    with out_csv.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=[axis, *metrics, "seeds", "dataset_hash"])
        writer.writeheader()
        writer.writerows(rows)
    detail = {"dataset_hash": dataset_hash, "seeds": args.seeds, "runs": runs}
    write_json(detail, out_csv.with_suffix(".json"))

    def fmt(value):
        return "n/a" if value is None else f"{value:.4f}"

    width = max(map(len, grid))
    for row in rows:
        print(f"{row[axis]:>{width}}  R@{RECALL_KS[0]}={fmt(row[metrics[0]])}  "
              f"hit_rate={fmt(row['hit_rate'])}")
    return 0


# every numeric option: argparse takes its type and default from here, and
# main checks each one with check_setting before any command starts
_OPTIONS = {
    "epoch": EPOCH,
    "n": GRADCHECK_PAIRS,
    "inits": setting(1, ge=1),
    "tol": setting(1e-6, gt=0),  # a float setting is finite: worst > nan could never fail
    "seeds": ABLATION_SEEDS,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in any float form
    (``-1e-6``, ``-inf``) as an option's value. argparse's own pattern knows
    only forms like ``-1`` and ``-.5`` and takes the rest for an unknown
    option, so ``--tol -1e-6`` would exit 2 before its range check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crossview",
        description="Two-view contrastive retrieval: training, sampling, and evaluation.",
        allow_abbrev=False,  # a prefix such as --seed must not silently set --seeds
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_config(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override, applied after the file")

    def add_option(p, name, **kwargs):
        f = _OPTIONS[name]
        p.add_argument(f"--{name}", type=type(f.default), default=f.default, **kwargs)

    p = add_parser("gen-synth", help="generate a synthetic two-view dataset")
    add_config(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synth)

    p = add_parser("plan", help="plan one epoch of batches")
    add_config(p)
    p.add_argument("--embeddings", nargs=2, metavar=("Q.emb", "R.emb"))
    p.add_argument("--manifest", default=None)
    add_option(p, "epoch", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = add_parser("train", help="train the encoder")
    add_config(p)
    p.add_argument("--data", required=True, help="directory from gen-synth")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="retrieval metrics for embedding tables")
    p.add_argument("--query", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = add_parser("gradcheck", help="check analytic gradients against finite differences")
    add_config(p)
    for name in ("n", "inits", "tol"):
        add_option(p, name)
    p.set_defaults(func=cmd_gradcheck)

    p = add_parser(
        "ablate",
        help="compare sampling strategies (--axis strategy) or losses (--axis loss) "
             "on shared synthetic data",
    )
    add_config(p)
    p.add_argument("--axis", choices=tuple(AXES), default="strategy",
                   help="config field to vary: sampler.strategy or train.loss_kind")
    add_option(p, "seeds")
    p.add_argument("--out", required=True, help="CSV path (a .json sibling is written too)")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, f in _OPTIONS.items():
            if name in vars(args):
                check_setting(f"--{name}", f, getattr(args, name))
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
