"""Run configuration shared by the library and the CLI.

A single tolerance value drives every open/closed cone decision so that
boundary vectors classify consistently across modules.  Precedence when
resolving a configuration: explicit overrides (CLI flags) beat the JSON file
named by the ``GARDINGLAB_CONFIG`` environment variable, which beats the
built-in defaults.

The module also holds what every other module shares without numpy:
``Record``, the base of the library's value and report classes,
``VectorParseError``, which the CLI maps to exit 65 without importing
``io``, and ``_check_tol``, the tolerance check of every library function
(``RunConfig`` wants a positive one).
"""

from __future__ import annotations

import json
import math
import numbers
import os
from typing import ClassVar, Optional

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SEED",
    "DEFAULT_SAMPLES",
    "CONFIG_ENV_VAR",
    "VectorParseError",
    "Record",
    "RunConfig",
    "load_config",
]

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100_000

CONFIG_ENV_VAR = "GARDINGLAB_CONFIG"

_FORMATS = ("human", "machine")
_MAX_RECORDED_VIOLATIONS = 10


def _check_tol(tol: float) -> None:
    """Refuse a NaN, infinite or negative tolerance; zero is valid."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")


class VectorParseError(ValueError):
    """Malformed numeric file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class Record:
    """Base of the value and report classes: a subclass writes its own
    ``__init__``, whose positional parameters are its fields, in order
    (``_fields``, read at class creation); keyword-only ones are not fields.
    A class that derives some fields lists them all, in order, in its own
    ``_fields``, and its constructor takes only the others (a mutable class
    derives through properties).  ``frozen=True`` refuses assignment after
    ``__init__``, which stores through ``self.__dict__``, or through
    ``object.__setattr__`` in classes built per call, as a ``__dict__``
    costs a dict per instance.  Equality compares the fields, and only
    frozen classes hash; ``eq=False`` keeps identity for both.
    ``to_record()`` gives the fields in order, led by ``"record"`` when
    ``record_tag`` is set and closed by an ``ok`` property; ``violations``
    keeps its first 10 entries, and nested records and sequences are
    converted.
    """

    record_tag: ClassVar[Optional[str]] = None
    _fields: ClassVar[tuple] = ()

    def __init_subclass__(cls, frozen: bool = False, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is None:  # a dataclass, which generates its own methods
            return
        if "_fields" not in cls.__dict__:
            cls._fields = init.__code__.co_varnames[1 : init.__code__.co_argcount]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def to_record(self) -> dict:
        record = {} if self.record_tag is None else {"record": self.record_tag}
        for name in self._fields:
            value = getattr(self, name)
            if name == "violations":
                value = value[:_MAX_RECORDED_VIOLATIONS]
            record[name] = _record_value(value)
        if isinstance(getattr(type(self), "ok", None), property):
            record["ok"] = self.ok
        return record


def _record_value(value):
    if isinstance(value, Record):
        return value.to_record()
    if isinstance(value, (list, tuple)):
        return [_record_value(v) for v in value]
    return value


class RunConfig(Record, frozen=True):
    """Knobs for reproducible runs: one tolerance, one seed, fixed budgets."""

    def __init__(
        self,
        tol: float = DEFAULT_TOL,
        seed: int = DEFAULT_SEED,
        samples: int = DEFAULT_SAMPLES,
        output_format: str = "human",
    ) -> None:
        # Values may come from a JSON file, so types are checked, not assumed;
        # bool is an int subclass and is refused explicitly.
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        if not (real and 0 < tol < math.inf):
            raise ValueError(f"tol must be a finite positive number, got {tol!r}")
        for name, value in (("seed", seed), ("samples", samples)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if output_format not in _FORMATS:
            raise ValueError(f"output_format must be one of {_FORMATS}, got {output_format!r}")
        self.__dict__.update(tol=tol, seed=seed, samples=samples, output_format=output_format)


def load_config(overrides: dict | None = None, env: dict | None = None) -> RunConfig:
    """Resolve a RunConfig from defaults, the env-var file, and overrides.

    ``overrides`` entries that are None are treated as absent.  Unknown keys,
    in either source, are rejected rather than silently dropped.
    """
    environ = os.environ if env is None else env
    values: dict = {}
    path = environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        unknown = set(data) - set(RunConfig._fields)
        if unknown:
            raise ValueError(f"config file {path}: unknown keys {sorted(unknown)}")
        values.update(data)
    if overrides:
        unknown = set(overrides) - set(RunConfig._fields)
        if unknown:
            raise ValueError(f"unknown config overrides {sorted(unknown)}")
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
