"""Config checks read from dataclass field declarations.

A field's type comes from its default value; ``spec`` attaches a lower bound
or a set of allowed values. ``field_errors`` checks a mapping of raw values
against a dataclass and names every bad field, so an invalid config can be
rejected before any compute.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from numbers import Integral, Real

__all__ = ["spec", "field_errors"]


def spec(default, low=None, choices=None):
    """A dataclass field with a lower bound or a choice list attached."""
    meta = {}
    if low is not None:
        meta["low"] = low
    if choices is not None:
        meta["choices"] = tuple(choices)
    return field(default=default, metadata=meta)


def _problem(default, meta, val) -> str | None:
    if isinstance(default, bool):
        ok, kind = isinstance(val, bool), "a boolean"
    elif isinstance(default, int):
        ok, kind = isinstance(val, Integral) and not isinstance(val, bool), "an integer"
    elif isinstance(default, float):
        ok = isinstance(val, Real) and not isinstance(val, bool) and math.isfinite(val)
        kind = "a finite number"
    elif isinstance(default, str):
        ok, kind = isinstance(val, str), "a string"
    else:  # a None default stands for an optional string
        ok, kind = val is None or isinstance(val, str), "a string or null"
    if not ok:
        return f"must be {kind}"
    if "choices" in meta and val not in meta["choices"]:
        return f"must be one of {meta['choices']}"
    low = meta.get("low")
    if low is not None and val < low:
        return "must be nonnegative" if low == 0 else f"must be >= {low}"
    return None


def field_errors(cls, values: dict, prefix: str = "") -> list[str]:
    """One message per key of ``values`` that ``cls`` does not accept.

    Keys that are not fields of ``cls`` are errors; fields without a default
    value are left to the caller.
    """
    declared = {f.name: f for f in fields(cls)}
    errors = []
    for key, val in values.items():
        f = declared.get(key)
        if f is None:
            errors.append(f"{prefix}{key}: unknown field")
        elif f.default is not MISSING:
            problem = _problem(f.default, f.metadata, val)
            if problem:
                errors.append(f"{prefix}{key}: {problem}, got {val!r}")
    return errors
