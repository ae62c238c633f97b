"""Flat key=value configuration files with dotted section prefixes.

Example::

    synth.n_pairs=2000
    sampler.picks_per_anchor=64
    train.epochs=40
    loss.label_smoothing=0.1

Unknown keys are errors; an empty file yields every default. Overrides
(``key=value`` strings) are applied after the file.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, fields
from pathlib import Path
from typing import NamedTuple

from .datasets import SynthConfig, read_text
from .errors import ValidationError, check_setting
from .geo import GeoConfig
from .losses import LossConfig
from .sampler import SamplerConfig
from .trainer import TrainConfig


class ConfigBundle(NamedTuple):
    synth: SynthConfig
    sampler: SamplerConfig
    train: TrainConfig
    geo: GeoConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_SECTIONS = {cls.SECTION: cls for cls in (SynthConfig, SamplerConfig, TrainConfig, LossConfig,
                                           GeoConfig)}
_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}

# key -> (section, field, parser): every config field with a plain default
# is a key; TrainConfig.loss and .sampler are the loss/sampler sections
_SCHEMA: dict[str, tuple[str, Field, type | callable]] = {
    f"{section}.{f.name}": (section, f, _PARSERS[type(f.default)])
    for section, cls in _SECTIONS.items()
    for f in fields(cls)
    if f.default is not MISSING
}


def _parse_line(line: str, where: str, sections: dict[str, dict]) -> None:
    if "=" not in line:
        raise ValidationError(f"{where}: expected key=value, got {line!r}")
    key, _, value = line.partition("=")
    key = key.strip()
    value = value.strip()
    if key not in _SCHEMA:
        raise ValidationError(f"{where}: unknown key {key!r}")
    section, f, parser = _SCHEMA[key]
    try:
        parsed = parser(value)
        check_setting(key, f, parsed)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{where}: bad value for {key!r}: {exc}") from exc
    sections[section][f.name] = parsed


def parse_config(path: str | Path | None, overrides: list[str] = ()) -> ConfigBundle:
    """Read a config file (optional) and apply overrides last."""
    sections: dict[str, dict] = {section: {} for section in _SECTIONS}
    if path is not None:
        for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            _parse_line(line, f"{path}:{lineno}", sections)
    for i, override in enumerate(overrides, start=1):
        _parse_line(override.strip(), f"override {i} ({override!r})", sections)

    synth = SynthConfig(**sections["synth"])
    sampler = SamplerConfig(**sections["sampler"])
    loss = LossConfig(**sections["loss"])
    train = TrainConfig(loss=loss, sampler=sampler, **sections["train"])
    geo = GeoConfig(**sections["geo"])
    return ConfigBundle(synth=synth, sampler=sampler, train=train, geo=geo)


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(bundle: ConfigBundle) -> str:
    """Emit every key as key=value lines; parse(serialize(x)) == x."""
    sources = {c.SECTION: c for c in (*bundle, bundle.train.loss)}
    return "".join(
        f"{key}={_format(getattr(sources[section], f.name))}\n"
        for key, (section, f, _) in sorted(_SCHEMA.items())
    )
