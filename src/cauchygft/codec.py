"""One JSON codec for the dataclasses of a saved transform.

A dataclass is written as a dict of its init fields and read back by
walking its type hints: nested dataclasses, ``list[X]``, fixed-length
tuples such as ``tuple[int, int, float]`` (read element by element, so a
weight written as ``1`` loads as ``1.0``), ``dict[K, V]``, ``X | None`` in
either spelling (``typing.Union`` or ``types.UnionType``) and arrays, whose
dtype each field declares once as ``F64`` or ``I64`` (an ``F64`` holding
NaN or inf is refused with ValueError). A type with its own
``to_dict``/``from_dict`` goes through them: the merge plan and the
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
    return _fields_reader(cls)(data)


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


@functools.cache
def _reader(hint):
    """The function that reads JSON data of type `hint`, resolved once per hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        dtype = args[1]

        def read_array(data):
            arr = np.asarray(data, dtype=dtype)
            if arr.dtype.kind == "f" and not np.isfinite(arr).all():
                raise ValueError("a float array holds NaN or inf")
            return arr

        return read_array
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        read = _reader(inner)
        return lambda data: None if data is None else read(data)
    if origin is tuple:
        reads = tuple(_reader(a) for a in args)
        return lambda data: tuple(r(v) for r, v in zip(reads, data, strict=True))
    if origin is list:
        read = _reader(args[0])
        return lambda data: [read(v) for v in data]
    if origin is dict:
        key, read = args[0], _reader(args[1])
        return lambda data: {key(k): read(v) for k, v in data.items()}
    if hasattr(hint, "from_dict"):
        return hint.from_dict
    if dataclasses.is_dataclass(hint):
        return _fields_reader(hint)
    return hint


@functools.cache
def _fields_reader(cls):
    reads = tuple((name, _reader(hint)) for name, hint in _init_fields(cls))
    return lambda data: cls(**{name: read(data[name]) for name, read in reads})
