"""Config checks read from dataclass field declarations.

A field's type comes from its default value: a tuple default stands for a
nonempty list of integers and a ``Path`` default for the name of an existing
file. ``spec`` attaches bounds, a set of allowed values, a required flag
(the default then only gives the type), or a flag that a list's entries be
distinct. ``field_errors`` checks a mapping of raw values against a dataclass
and names every bad field, so an invalid config can be rejected before any
compute.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from numbers import Integral, Real
from pathlib import Path

__all__ = ["spec", "field_errors"]


def spec(default, low=None, high=None, choices=None, required=False, distinct=False):
    """A dataclass field with bounds, a choice list, a required flag or, for a
    list, a distinct-entries flag attached."""
    meta = {}
    if low is not None:
        meta["low"] = low
    if high is not None:
        meta["high"] = high
    if choices is not None:
        meta["choices"] = tuple(choices)
    if required:
        meta["required"] = True
    if distinct:
        meta["distinct"] = True
    return field(default=default, metadata=meta)


def _is_int(val) -> bool:
    return isinstance(val, Integral) and not isinstance(val, bool)


def _problem(default, meta, val) -> str | None:
    if isinstance(default, bool):
        ok, kind = isinstance(val, bool), "a boolean"
    elif isinstance(default, int):
        ok, kind = _is_int(val), "an integer"
    elif isinstance(default, float):
        ok = isinstance(val, Real) and not isinstance(val, bool) and math.isfinite(val)
        kind = "a finite number"
    elif isinstance(default, tuple):
        ok = isinstance(val, list) and len(val) > 0 and all(map(_is_int, val))
        kind = "a nonempty list of integers"
    elif isinstance(default, Path):
        ok, kind = isinstance(val, str) and Path(val).is_file(), "the name of an existing file"
    elif isinstance(default, str):
        ok, kind = isinstance(val, str), "a string"
    else:  # a None default stands for an optional string
        ok, kind = val is None or isinstance(val, str), "a string or null"
    if not ok:
        return f"must be {kind}"
    if "choices" in meta and val not in meta["choices"]:
        return f"must be one of {meta['choices']}"
    low, high = meta.get("low"), meta.get("high")
    items = val if isinstance(default, tuple) else [val]
    if (low is not None and min(items) < low) or (high is not None and max(items) > high):
        if high is not None:
            bound = f"must be in [{low}, {high}]"
        else:
            bound = "must be nonnegative" if low == 0 else f"must be >= {low}"
        return f"every entry {bound}" if isinstance(default, tuple) else bound
    if meta.get("distinct") and len(set(val)) < len(val):
        return "must not repeat an entry"
    return None


def field_errors(cls, values: dict, prefix: str = "") -> list[str]:
    """One message per key of ``values`` that ``cls`` does not accept, and
    one per required field that ``values`` lacks.

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
    for name, f in declared.items():
        if f.metadata.get("required") and name not in values:
            errors.append(f"{prefix}{name}: required")
    return errors
