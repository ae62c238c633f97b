"""Exception types and setting declarations shared across the package."""

import operator
import sys
from dataclasses import Field, field, fields


class ValidationError(ValueError):
    """Invalid configuration, data or arguments (CLI exit code 1); IO
    failures stay OSError (exit code 2)."""


def first_repeat(items) -> tuple[int, int] | None:
    """Positions (i, j) of the first item j equal to an earlier item, i the
    earlier one's; None when the items are distinct. Items must hash."""
    first: dict = {}
    for j, item in enumerate(items):
        i = first.setdefault(item, j)
        if i != j:
            return i, j
    return None


_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # bound rules, named as in operator


def setting(default, *, ge=None, gt=None, le=None, lt=None, choices=None) -> Field:
    """A config field, CLI option or params header key: its default, plus the
    bounds and the tuple of choices that ``check_setting`` holds values to."""
    rules = {"ge": ge, "gt": gt, "le": le, "lt": lt, "choices": choices}
    return field(default=default, metadata={k: v for k, v in rules.items() if v is not None})


_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a float or an int", str: "a str"}


def _fits(default, value) -> bool:
    """Whether a setting with this default takes value's type: an int setting
    an int, a float setting a float or an int, a bool or str setting its own
    type alone. bool, an int to Python, fits a bool setting only."""
    if isinstance(value, bool) or type(default) in (bool, str):
        return type(value) is type(default)
    return isinstance(value, int if type(default) is int else (int, float))


def check_setting(key: str, f: Field, value) -> None:
    """Raise ValidationError naming ``key=value`` unless value has a type that
    fits f's default (``_fits``) and keeps the rules ``setting`` declared on
    f; a float setting must also be finite (no NaN, inf or int beyond float range)."""
    if type(f.default) in _TYPE_NAMES and not _fits(f.default, value):
        raise ValidationError(f"{key}={value!r} must be {_TYPE_NAMES[type(f.default)]}")
    if isinstance(f.default, float) and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{key}={value!r} must be finite")
    for rule, bound in f.metadata.items():
        if rule == "choices":
            if value not in bound:
                raise ValidationError(f"{key}={value!r} must be one of {bound}")
        elif not getattr(operator, rule)(value, bound):
            raise ValidationError(f"{key}={value!r} must be {_SYMBOLS[rule]} {bound}")


def check_settings(config) -> None:
    """check_setting on every field of a config dataclass, keyed
    ``SECTION.field``."""
    for f in fields(config):
        check_setting(f"{config.SECTION}.{f.name}", f, getattr(config, f.name))
