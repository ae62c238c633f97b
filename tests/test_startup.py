"""What a fresh interpreter loads, and when: the library starts on numpy
alone and imports scipy.special only at the first call that needs it."""


def test_numpy_only_commands_leave_scipy_unimported(fresh_python, tmp_path):
    # gen-synth, plan (planar GPS and DSS pools) and eval, plus wgs84 GPS
    # pools: no scipy module at all, scipy.spatial included (importing it
    # raised retrieve-5k peak RSS by about 10%)
    fresh_python(f"""
import sys
import crossview
assert "scipy" not in sys.modules
from crossview import cli
from crossview.datasets import Coordinate
from crossview.geo import geo_topk
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
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
""")


def test_scipy_ufuncs_bind_at_first_call(fresh_python):
    # the first call goes through the stub, which rebinds the module name
    # to scipy's ufunc; both calls return the same bytes
    fresh_python("""
import sys
import numpy as np
from crossview import losses, trainer
assert "scipy" not in sys.modules
rng = np.random.default_rng(0)
params = trainer.init_params(rng, 6, 8, 4)
X = rng.standard_normal((5, 6))
first = trainer.encode(params, X).data
import scipy.special
assert trainer._erf is scipy.special.erf
assert trainer.encode(params, X).data.tobytes() == first.tobytes()

a, p, n = (rng.standard_normal((7, 4)) for _ in range(3))
assert losses._expit is not scipy.special.expit
first = losses.soft_margin_triplet_loss(a, p, n)
assert losses._expit is scipy.special.expit
again = losses.soft_margin_triplet_loss(a, p, n)
assert first.loss == again.loss
for name in ("grad_queries", "grad_references", "grad_negatives"):
    assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
""")
