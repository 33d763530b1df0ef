"""The package's JSON value rules, for the scenario, dataset header, topology
and checkpoint readers. ``float()`` and numpy read a numeric string or a
boolean as a number, so each rule tests the JSON type itself. A rule returns
the value as its caller builds with it, or raises :class:`SchemaError`
``<what> must be <kind>, got <value>``; range checks stay with the callers.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import SchemaError


def _refuse(what: str, kind: str, value) -> SchemaError:
    shown = json.dumps(value)
    return SchemaError(f"{what} must be {kind}, got {shown if len(shown) <= 80 else shown[:77] + '...'}")


def _json_type(json_type: type, kind: str):
    def rule(value, what: str):
        if isinstance(value, json_type):
            return value
        raise _refuse(what, kind, value)
    return rule


obj = _json_type(dict, "an object")
array = _json_type(list, "a list")
string = _json_type(str, "a string")


def fields(value, allowed, what: str) -> dict:
    """An object with no key outside ``allowed``."""
    unknown = obj(value, what).keys() - allowed
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")
    return value


def each(value, rule, kind: str, what: str) -> list:
    """A list, as ``rule(item, what)`` of each item; ``kind`` names the items."""
    try:
        return [rule(item, what) for item in array(value, what)]
    except SchemaError:
        raise _refuse(what, f"a list of {kind}", value) from None


def number(value, what: str) -> float:
    """An ``int`` or a ``float``, never a boolean, finite as a float."""
    if type(value) not in (int, float):
        raise _refuse(what, "a number", value)
    if abs(value) <= sys.float_info.max:  # False for NaN; an int is compared exactly
        return float(value)
    raise _refuse(what, "finite", value)


def integer(value, what: str) -> int:
    """A finite number with an integral value: ``2.0`` is 2."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max and value == int(value):
        return int(value)
    raise _refuse(what, "an integer", value)


def numbers(value, what: str) -> np.ndarray:
    """A flat list of finite numbers as a float64 array; one pass over the
    item types keeps it cheap for a checkpoint's parameters."""
    if type(value) is not list or not set(map(type, value)) <= {int, float}:
        raise _refuse(what, "a list of numbers", value)
    try:
        values = np.array(value, dtype=np.float64)
        if np.isfinite(values).all():
            return values
    except OverflowError:
        pass
    raise _refuse(what, "finite", value)


def fixed(value, constant, what: str):
    """``constant`` with its JSON type: ``16.0`` is not ``16``."""
    if json.dumps(value, sort_keys=True) != json.dumps(constant, sort_keys=True):
        raise _refuse(what, json.dumps(constant), value)
    return value
