"""One shape check for every decoder of input from outside the program.

A shape is a plain literal: a type is an ``isinstance`` test (a bool is
never a number; ``float`` is any JSON number), ``None`` is null, a tuple
is any of its members, ``[x]`` a list of ``x``, ``{str: x}`` an object
of ``x`` values, and ``{"key": x}`` an object whose ``key`` is ``x`` (a
missing key reads as null; a ``"key?"`` is checked only if present).
"""

from __future__ import annotations

from typing import Any, Optional, Type


def check(value: Any, shape: Any, where: str, error: Type[Exception]) -> Any:
    """``value`` if it has ``shape``, else raise ``error`` naming ``where``
    and the path to the misfit, a path built only on failure."""
    misfit = _misfit(value, shape)
    if misfit is None:
        return value
    steps, shape, value = misfit
    path = "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                   for step in reversed(steps)).removeprefix(".")
    raise error(f"{where}{': ' if path else ''}{path}: expected "
                f"{_describe(shape)}, got {type(value).__name__}")


def _misfit(value: Any, shape: Any) -> Optional[tuple]:
    """None if ``value`` has ``shape``, else the innermost misfit: the
    steps from it back out to ``value``, its shape and its value."""
    kind = type(shape)
    if kind is tuple:                   # a misfit of the first member
        misfits = [_misfit(value, member) for member in shape]
        return None if None in misfits else misfits[0]
    if kind is dict or kind is list:
        if not isinstance(value, kind):
            return [], shape, value
        if kind is dict and str not in shape:       # named members
            for key, inner in shape.items():
                if key[-1] == "?":
                    key = key[:-1]
                    if key not in value:
                        continue
                member = value.get(key)
                if type(member) is not inner:   # an exact type: no call
                    misfit = _misfit(member, inner)
                    if misfit is not None:
                        misfit[0].append(key)
                        return misfit
            return None
        inner = shape[0] if kind is list else shape[str]
        for step, member in (enumerate(value) if kind is list
                             else value.items()):
            if type(member) is not inner:
                misfit = _misfit(member, inner)
                if misfit is not None:
                    misfit[0].append(step)
                    return misfit
        return None
    fits = (value is None if shape is None
            else shape in (bool, object) if isinstance(value, bool)
            else isinstance(value, (int, float) if shape is float else shape))
    return None if fits else ([], shape, value)


def _describe(shape: Any) -> str:
    if shape is None or shape is float:
        return "null" if shape is None else "a number"
    return (type(shape) if type(shape) in (dict, list) else shape).__name__
