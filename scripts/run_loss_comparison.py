#!/usr/bin/env python3
"""Loss comparison under hard-negative sampling: InfoNCE vs the triplet
baselines, all on identical data and an identical training recipe.

Note the triplet losses do NOT collapse at this scale: with fixed input
features, a 2-layer encoder, squared distances on unit rows, and AdamW,
the degenerate solution is never reached (see the acceptance suite's
collapse criterion, which documents this as an expected failure).
"""

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from crossview.config import parse_config
from crossview.datasets import generate_synthetic
from crossview.trainer import holdout_size, train

KINDS = ("infonce", "soft_margin_triplet", "triplet")


def run(config_path, seeds, strategy):
    bundle = parse_config(config_path)
    records, queries, references = generate_synthetic(bundle.synth)
    chance = 1.0 / holdout_size(bundle.synth.n_pairs)
    print(f"chance level: {chance:.4f}\n")
    print(f"{'loss':>20}  {'median R@1':>10}  runs")
    for kind in KINDS:
        finals = []
        for seed in range(seeds):
            cfg = replace(
                bundle.train,
                loss_kind=kind,
                seed=seed,
                sampler=replace(bundle.sampler, strategy=strategy, seed=seed),
            )
            result = train(records, queries, references, cfg)
            finals.append(result.history[-1]["r1"])
        print(f"{kind:>20}  {statistics.median(finals):10.3f}  "
              f"{[round(x, 3) for x in finals]}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO / "configs" / "ablate.cfg"))
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--strategy", default="dss")
    args = parser.parse_args()
    run(args.config, args.seeds, args.strategy)
