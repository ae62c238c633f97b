"""What a fresh interpreter loads, and when: the library starts on numpy
alone and imports scipy.special only at the first encoder forward pass,
for erf."""


def test_numpy_only_commands_leave_scipy_unimported(fresh_python, tmp_path):
    # gen-synth, plan (planar GPS and DSS pools) and eval, plus wgs84 GPS
    # pools and the soft-margin triplet loss: no scipy module at all,
    # scipy.spatial included (importing it raised retrieve-5k peak RSS by
    # about 10%)
    fresh_python(f"""
import sys
import crossview
assert "scipy" not in sys.modules
from crossview import cli
from crossview.datasets import Coordinate
from crossview.geo import geo_topk
from crossview.losses import soft_margin_triplet_loss
d = {str(tmp_path)!r}
emb = ["--embeddings", d + "/query.emb", d + "/reference.emb"]
assert cli.main(["gen-synth", "--set", "synth.n_pairs=300", "--out", d]) == 0
for strategy in ("gps", "dss"):
    assert cli.main(["plan", "--set", "sampler.strategy=" + strategy, "--epoch", "0",
                     "--manifest", d + "/manifest.jsonl", *emb,
                     "--out", d + "/plan-" + strategy + ".jsonl"]) == 0
assert cli.main(["eval", "--query", d + "/query.emb", "--ref", d + "/reference.emb",
                 "--manifest", d + "/manifest.jsonl", "--out", d + "/report.json"]) == 0
coords = [Coordinate(lat, lon, "wgs84") for lat in range(-80, 81, 20) for lon in (-179, 0, 179)]
geo_topk(coords, coords, 5)
soft_margin_triplet_loss([[0.0, 1.0]], [[1.0, 0.0]], [[0.6, 0.8]])
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
""")


def test_scipy_erf_binds_at_first_call(fresh_python):
    # the first call goes through the stub, which rebinds the module name
    # to scipy's ufunc; both calls return the same bytes
    fresh_python("""
import sys
import numpy as np
from crossview import trainer
assert "scipy" not in sys.modules
rng = np.random.default_rng(0)
params = trainer.init_params(rng, 6, 8, 4)
X = rng.standard_normal((5, 6))
first = trainer.encode(params, X).data
import scipy.special
assert trainer._erf is scipy.special.erf
assert trainer.encode(params, X).data.tobytes() == first.tobytes()
""")
