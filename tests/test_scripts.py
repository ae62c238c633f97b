import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from crossview.config import parse_config
from crossview.datasets import generate_synthetic
from crossview.trainer import train

REPO = Path(__file__).resolve().parent.parent

TINY_CFG = """\
synth.n_pairs=60
synth.latent_dim=4
synth.view_dim=8
train.epochs=2
train.warmup_epochs=1
train.hidden_dim=16
train.embed_dim=4
sampler.batch_size=8
sampler.pool_size=6
sampler.picks_per_anchor=4
sampler.gps_epochs=1
sampler.refresh_every=1
"""


def run_script(name, tmp_path, extra=()):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name),
         "--config", str(cfg), "--seeds", "1", *extra],
        capture_output=True, text=True, timeout=120,
    )


def test_run_loss_comparison_script(tmp_path):
    proc = run_script("run_loss_comparison.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for kind in ("infonce", "soft_margin_triplet", "triplet"):
        assert kind in proc.stdout


def test_loss_comparison_keeps_config_fields(tmp_path):
    # fields the script does not vary must reach train() as the config set them
    cfg = tmp_path / "dropped.cfg"
    cfg.write_text(TINY_CFG + "train.shared_weights=false\ntrain.weight_decay=0.5\n")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_loss_comparison.py"),
         "--config", str(cfg), "--seeds", "1", "--strategy", "gps"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    bundle = parse_config(cfg)
    data = generate_synthetic(bundle.synth)
    for kind in ("infonce", "soft_margin_triplet", "triplet"):
        line = re.search(rf"^\s*{kind}\s+\S+\s+\[(.*)\]$", proc.stdout, re.M)
        assert line, proc.stdout
        run_cfg = replace(
            bundle.train, loss_kind=kind, seed=0,
            sampler=replace(bundle.sampler, strategy="gps", seed=0),
        )
        expected = round(train(*data, run_cfg).history[-1]["r1"], 3)
        assert float(line.group(1)) == expected, kind
