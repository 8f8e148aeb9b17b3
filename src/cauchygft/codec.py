"""One JSON codec for the dataclasses of a saved transform.

A dataclass is written as a dict of its init fields and read back by
walking its type hints: nested dataclasses, ``list[X]``, ``tuple[X, ...]``,
fixed tuples such as ``tuple[int, int, float]`` (read element by element,
so a weight written as ``1`` loads as ``1.0``), ``dict[K, V]``, ``X | None``
in either spelling (``typing.Union`` or ``types.UnionType``) and arrays,
whose dtype each field declares once as ``F64`` or ``I64`` (an ``F64``
holding NaN or inf is refused with ValueError). A type with its
own ``to_dict``/``from_dict`` goes through them: the merge plan and the
transform wrap the fields in a ``"version"`` key, and the plan's content
hash is taken over that text.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Annotated

import numpy as np

F64 = Annotated[np.ndarray, np.float64]
I64 = Annotated[np.ndarray, np.int64]


@functools.cache
def _init_fields(cls) -> tuple[tuple[str, object], ...]:
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def fields_to_dict(obj) -> dict:
    """The init fields of a dataclass instance, as JSON-ready values."""
    return {name: to_json(getattr(obj, name)) for name, _ in _init_fields(type(obj))}


def fields_from_dict(cls, data: dict):
    """Rebuild dataclass `cls` from fields_to_dict output.

    A missing field raises KeyError, a value that does not fit its hint
    TypeError or ValueError.
    """
    return cls(**{name: from_json(hint, data[name]) for name, hint in _init_fields(cls)})


def to_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return fields_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    return value


def from_json(hint, data):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        arr = np.asarray(data, dtype=args[1])
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError("a float array holds NaN or inf")
        return arr
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return None if data is None else from_json(inner, data)
    if origin is tuple and args[-1] is not Ellipsis:
        return tuple(from_json(a, v) for a, v in zip(args, data, strict=True))
    if origin in (list, tuple):
        return origin(from_json(args[0], v) for v in data)
    if origin is dict:
        return {args[0](k): from_json(args[1], v) for k, v in data.items()}
    if hasattr(hint, "from_dict"):
        return hint.from_dict(data)
    if dataclasses.is_dataclass(hint):
        return fields_from_dict(hint, data)
    return hint(data)
