import math
import operator
import re
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from crossview.config import _SCHEMA, _SECTIONS, parse_config
from crossview.datasets import SynthConfig
from crossview.errors import ValidationError
from crossview.losses import LossConfig
from crossview.trainer import TrainConfig


class TestDefaults:
    def test_empty_file_yields_training_recipe_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        bundle = parse_config(path)
        assert bundle.sampler.picks_per_anchor == 64
        assert bundle.sampler.pool_size == 128
        assert bundle.sampler.refresh_every == 4
        assert bundle.sampler.batch_size == 128
        assert bundle.train.loss.label_smoothing == 0.1
        assert bundle.train.epochs == 40
        assert bundle.train.lr_max == 0.001
        assert bundle.train.warmup_epochs == 1
        assert math.exp(bundle.train.loss.logit_scale) == pytest.approx(1 / 0.07)

    def test_no_file_same_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert parse_config(None) == parse_config(path)


class TestParsing:
    def test_override_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sampler.picks_per_anchor=32\n")
        bundle = parse_config(path, ["sampler.picks_per_anchor=16"])
        assert bundle.sampler.picks_per_anchor == 16

    def test_odd_picks_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sampler.picks_per_anchor=3\n")
        with pytest.raises(ValidationError, match="even"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sampler.pool_depth=4\n")
        with pytest.raises(ValidationError, match="sampler.pool_depth"):
            parse_config(path)

    def test_bad_value_reports_key_and_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\ntrain.epochs=forty\n")
        with pytest.raises(ValidationError, match=r"2.*train\.epochs"):
            parse_config(path)

    @pytest.mark.parametrize("text", [b"train.epochs=\xff3\n", b"# \xe9t\xe9\n"])
    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"train.epochs=3\n" + text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: not UTF-8"):
            parse_config(path)

    @pytest.mark.parametrize("boundary", ["\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_after_a_non_newline_boundary_keeps_its_number(self, tmp_path, boundary):
        # str.splitlines also breaks at these, which used to shift every later line
        path = tmp_path / "c.cfg"
        path.write_text(f"train.epochs=3{boundary}\ntrain.bogus=1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: unknown key"):
            parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValidationError, match="key=value"):
            parse_config(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# settings\ntrain.epochs=7\n\n")
        assert parse_config(path).train.epochs == 7

    def test_bools_parsed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.shared_weights=false\n")
        assert parse_config(path).train.shared_weights is False

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        ["synth.noise_sigma", "train.lr_max", "loss.triplet_margin",
         "loss.logit_scale_max", "geo.earth_radius_m"],
    )
    def test_non_finite_float_reports_key_and_line(self, tmp_path, key, text):
        path = tmp_path / "c.cfg"
        path.write_text(f"# comment\n{key}={text}\n")
        with pytest.raises(ValidationError, match=rf"c\.cfg:2: bad value for '{key}'.*finite"):
            parse_config(path)


@pytest.mark.parametrize("text, line, message", [
    ("sampler.picks_per_anchor=3", 2, "sampler.picks_per_anchor=3 must be even"),
    ("sampler.picks_per_anchor=16\nsampler.pool_size=8", 3,
     "sampler.picks_per_anchor=16 must be <= sampler.pool_size=8"),
    ("train.warmup_epochs=2\ntrain.epochs=2", 3, "train.warmup_epochs=2 must be < train.epochs=2"),
    ("loss.logit_scale_max=4.0\nloss.logit_scale=5.0\ntrain.epochs=9", 3,
     "loss.logit_scale=5.0 must be <= loss.logit_scale_max=4.0"),
    ("synth.map_extent_m=1e154", 2, "bad value for 'synth.map_extent_m': "
     "synth.map_extent_m=1e+154 must be <= 6.703903964971298e+153"),
    ("geo.earth_radius_m=6e307", 2, "bad value for 'geo.earth_radius_m': "
     "geo.earth_radius_m=6e+307 must be <= 4.4942328371557893e+307"),
    ("synth.n_semi_positives=5\nsynth.n_pairs=5", 3,
     "synth.n_semi_positives=5 must be < synth.n_pairs=5"),
    ("sampler.pool_size=1", 2, "sampler.picks_per_anchor=64 must be <= sampler.pool_size=1"),
])
def test_rule_between_settings_names_the_line_that_last_set_a_key(tmp_path, text, line, message):
    path = tmp_path / "c.cfg"
    path.write_text(f"# comment\n{text}\n")
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(str(path))}:{line}: {re.escape(message)}"):
        parse_config(path)


def test_rule_between_settings_names_the_override_that_last_set_a_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("sampler.pool_size=8\n")
    with pytest.raises(ValidationError, match="^" + re.escape(
            "override 2 ('sampler.picks_per_anchor=16'): sampler.picks_per_anchor=16 must be "
            "<= sampler.pool_size=8")):
        parse_config(path, ["train.epochs=3", "sampler.picks_per_anchor=16"])


def _outside(rule, bound, default):
    """The value nearest to bound that breaks one declared rule, as config text."""
    if rule == "choices":
        return "".join(bound)
    if isinstance(default, int):
        return str({"ge": bound - 1, "gt": bound, "le": bound + 1, "lt": bound}[rule])
    toward = {"ge": -math.inf, "le": math.inf}
    return repr(math.nextafter(bound, toward[rule]) if rule in toward else float(bound))


def _value(section, bound):
    """A declared bound's value: the name of a field stands for that field's default."""
    return _SCHEMA[f"{section}.{bound}"][1].default if isinstance(bound, str) else bound


DECLARED = [(key, rule, _outside(rule, _value(section, bound), f.default))
            for key, (section, f, _) in sorted(_SCHEMA.items())
            for rule, bound in f.metadata.items()]


def test_a_bound_names_an_earlier_field_of_its_config():
    # check_settings goes in field order, so the named field is checked first
    for cls in _SECTIONS.values():
        names = [f.name for f in fields(cls)]
        for i, f in enumerate(fields(cls)):
            named = [b for b in f.metadata.values() if isinstance(b, str)]
            assert set(named) <= set(names[:i]), (cls.SECTION, f.name)


def test_every_key_with_a_range_declares_one():
    assert {key for key, _, _ in DECLARED} >= {"sampler.batch_size", "train.beta2",
                                               "loss.label_smoothing", "geo.earth_radius_m",
                                               "synth.region_within", "sampler.strategy"}


@pytest.mark.parametrize("key, rule, text", DECLARED)
def test_nearest_value_outside_a_declared_range_names_line_and_key(tmp_path, key, rule, text):
    path = tmp_path / "c.cfg"
    path.write_text(f"# comment\n{key}={text}\n")
    k = re.escape(key)
    # a line is checked alone, so a bound naming a field is checked as the config is built
    line = "" if isinstance(_SCHEMA[key][1].metadata[rule], str) else f"bad value for '{k}': "
    with pytest.raises(ValidationError, match=rf"c\.cfg:2: {line}{k}="):
        parse_config(path)


@pytest.mark.parametrize("cls, kwargs, message", [
    (TrainConfig, {"lr_max": math.nan}, "train.lr_max=nan"),
    (TrainConfig, {"eps": math.inf}, "train.eps=inf"),
    (TrainConfig, {"weight_decay": math.nan}, "train.weight_decay=nan"),
    (LossConfig, {"triplet_margin": math.nan}, "loss.triplet_margin=nan"),
    (LossConfig, {"logit_scale": math.nan}, "loss.logit_scale=nan"),
    (SynthConfig, {"noise_sigma": math.inf}, "synth.noise_sigma=inf"),
])
def test_direct_construction_rejects_non_finite_setting(cls, kwargs, message):
    with pytest.raises(ValidationError, match=f"{message} must be finite"):
        cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, message", [
    (SynthConfig, {"n_pairs": 20.5}, "synth.n_pairs=20.5 must be an int"),
    (SynthConfig, {"n_pairs": True}, "synth.n_pairs=True must be an int"),
    (SynthConfig, {"seed": "3"}, "synth.seed='3' must be an int"),
    (SynthConfig, {"noise_sigma": False}, "synth.noise_sigma=False must be a float or an int"),
    (SynthConfig, {"noise_sigma": "0.1"}, "synth.noise_sigma='0.1' must be a float or an int"),
    (TrainConfig, {"shared_weights": 1}, "train.shared_weights=1 must be a bool"),
    (TrainConfig, {"shared_weights": "false"}, "train.shared_weights='false' must be a bool"),
    (TrainConfig, {"loss_kind": 3}, "train.loss_kind=3 must be a str"),
    (LossConfig, {"direction": b"symmetric"}, "loss.direction=b'symmetric' must be a str"),
])
def test_direct_construction_rejects_wrong_type(cls, kwargs, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        cls(**kwargs)


HUGE_FLOAT_SETTINGS = [pytest.param(section, f.name, value, id=f"{key}={sign}10**400")
                       for key, (section, f, _) in sorted(_SCHEMA.items())
                       if isinstance(f.default, float)
                       for sign, value in (("", 10**400), ("-", -10**400))]


@pytest.mark.parametrize("section, name, value", HUGE_FLOAT_SETTINGS)
def test_direct_construction_rejects_int_beyond_float_range(section, name, value):
    # an int compares exactly with the infinities, so only abs(value) <= the
    # largest float tells that it has no finite float value
    with pytest.raises(ValidationError, match=rf"{section}\.{name}=-?\d+ must be finite"):
        _SECTIONS[section](**{name: value})


def test_float_setting_takes_an_int():
    assert SynthConfig(noise_sigma=1, map_extent_m=500).map_extent_m == 500
    assert TrainConfig(lr_max=1).lr_max == 1


VALUE_TEXT = st.one_of(
    st.text(max_size=30),
    st.floats().map(repr),
    st.floats(min_value=1e300, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([repr(x), repr(-x)])),
    st.integers().map(str),
    st.integers(min_value=2**63, max_value=2**200).flatmap(
        lambda n: st.sampled_from([str(n), str(-n)])),
    st.sampled_from(["NaN", " -Infinity", "1e999", "1e308", "1_000", "true", "dss"]),
)
HOLDS = {"ge": operator.ge, "gt": operator.gt, "le": operator.le, "lt": operator.lt,
         "choices": lambda value, choices: value in choices}


@given(key=st.sampled_from(sorted(_SCHEMA)), text=VALUE_TEXT)
def test_any_value_text_parses_finite_or_fails_validation(key, text):
    try:
        bundle = parse_config(None, [f"{key}={text}"])
    except ValidationError:
        return
    sources = {"synth": bundle.synth, "sampler": bundle.sampler, "train": bundle.train,
               "loss": bundle.train.loss, "geo": bundle.geo}
    for section, f, _ in _SCHEMA.values():
        config = sources[section]
        value = getattr(config, f.name)
        assert type(value) is type(f.default)
        assert not isinstance(value, float) or math.isfinite(value)
        assert all(HOLDS[rule](value, getattr(config, bound) if isinstance(bound, str) else bound)
                   for rule, bound in f.metadata.items()), (f, value)
