"""Exception types and setting declarations shared across the package."""

import math
import operator
from dataclasses import Field, field, fields


class ValidationError(ValueError):
    """Invalid configuration, data, or arguments (CLI exit code 1).

    IO failures (missing files, unreadable paths) stay OSError and map
    to CLI exit code 2.
    """


_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # bound rules, named as in operator


def setting(default, *, ge=None, gt=None, le=None, lt=None, choices=None) -> Field:
    """A config dataclass field: its default, plus the bounds and the tuple of
    choices that ``check_setting`` holds every value to."""
    rules = {"ge": ge, "gt": gt, "le": le, "lt": lt, "choices": choices}
    return field(default=default, metadata={k: v for k, v in rules.items() if v is not None})


def check_setting(key: str, f: Field, value) -> None:
    """Raise ValidationError naming ``key=value`` unless value keeps the rules
    ``setting`` declared on f; a float setting must also be finite."""
    if isinstance(f.default, float) and not -math.inf < value < math.inf:
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
