"""Flat ``section.key=value`` config files, such as ``train.epochs=40``.

The keys are the fields of the config dataclasses. An unknown key is an error,
an empty file gives every default, and ``key=value`` overrides apply after the
file.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, fields
from pathlib import Path
from typing import NamedTuple

from .datasets import SynthConfig, read_lines
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


def _parse_line(line: str) -> tuple[str, object]:
    """(key, value) of one ``key=value`` line, the value checked against the key's rules."""
    if "=" not in line:
        raise ValidationError(f"expected key=value, got {line!r}")
    key, _, value = line.partition("=")
    key = key.strip()
    if key not in _SCHEMA:
        raise ValidationError(f"unknown key {key!r}")
    _, f, parser = _SCHEMA[key]
    try:
        parsed = parser(value.strip())
        check_setting(key, f, parsed)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"bad value for {key!r}: {exc}") from exc
    return key, parsed


def parse_config(path: str | Path | None, overrides: list[str] = ()) -> ConfigBundle:
    """Read a config file (optional) through ``read_lines``, skipping # lines, then
    the overrides. An error starts with the place that set the value at fault,
    ``<path>:N:`` or ``override i ('key=value'):``; a rule between settings names
    the last place that set a key its message names."""
    entries = []  # (place, key, value) in the order they are set
    if path is not None:
        lines = read_lines(path, lambda line: None if line.startswith("#") else _parse_line(line))
        entries += [(f"{path}:{lineno}", *entry) for lineno, entry in lines if entry]
    for i, override in enumerate(overrides, start=1):
        place = f"override {i} ({override!r})"
        try:
            entries.append((place, *_parse_line(override.strip())))
        except ValidationError as exc:
            raise ValidationError(f"{place}: {exc}") from exc
    sections: dict[str, dict] = {section: {} for section in _SECTIONS}
    for _, key, value in entries:
        sections[_SCHEMA[key][0]][_SCHEMA[key][1].name] = value
    try:
        synth = SynthConfig(**sections["synth"])
        sampler = SamplerConfig(**sections["sampler"])
        loss = LossConfig(**sections["loss"])
        train = TrainConfig(loss=loss, sampler=sampler, **sections["train"])
        geo = GeoConfig(**sections["geo"])
    except ValidationError as exc:
        named = [place for place, key, _ in entries if f"{key}=" in str(exc)]
        if not named:
            raise
        raise ValidationError(f"{named[-1]}: {exc}") from exc
    return ConfigBundle(synth=synth, sampler=sampler, train=train, geo=geo)

